"""Canonical text serialization of a CodedMessage.

Grammar (newline-terminated lines, no padding, no trailing whitespace):

    QBLK1;scheme=<lucas|mine>;nrule=<half|tas>;dim=<even int>;alpha=<id>
    <d>,<k1>,<k2>,<k3>        one line per row, signed decimal

Equal messages serialize to byte-identical payloads, and parse is the
exact inverse on everything serialize can emit.  Lines end in '\\n' alone:
parse refuses a carriage return, naming the first line that has one.

parse checks the body's shape in one pass: with every digit and '-'
deleted, each line must read ',,,'.  It then splits the body once into
tokens and converts each by one lookup in `_TOKENS`, a memo of canonical
tokens; every fourth one is a column of the `CodedMessage`.  A refused body
is read line by line to name its fault, each token through that same memo.

serialize mirrors it: one lookup per int in `_COMMA` or `_LINE`, memos of the
int's text then ',' or '\\n', four column-wide maps into one list, one join.

Payloads of one shape repeat their header line, so parse reads its fields
from `_HEADERS`, a bounded memo that never keeps a refused line; the record's
own checks and the alphabet lookup run on every call.
"""

import re

from .alphabet import _ID_RE, get_alphabet
from .codec import CodedMessage, Scheme
from .errors import MalformedPayload
from .layout import NRule

MAGIC = "QBLK1"

_HEADER_RE = re.compile(
    rf"^{MAGIC};scheme=({'|'.join(s.value for s in Scheme)})"
    rf";nrule=({'|'.join(r.value for r in NRule)})"
    rf";dim=(0|[1-9][0-9]*);alpha=({_ID_RE.pattern})$"
)
# canonical signed decimal: no '+', no leading zeros, no '-0'
_INT = rb"(?:0|-?[1-9][0-9]*)"


class _Memo(dict):
    """Canonical token (bytes) -> its int.  A miss that is not canonical raises
    KeyError, one past the int-string limit ValueError.  Only tokens of at most
    4 characters are kept, so it never holds more than 10,999, whatever it reads."""

    def __missing__(self, token):
        if not re.fullmatch(_INT, token):  # compiled on first use, not at import
            raise KeyError(token)
        value = int(token)
        if len(token) <= 4:
            self[token] = value
        return value


_TOKENS = _Memo()


class _Text(dict):
    """Int -> its text, then `end`: an equal True or 2.0 reads as 1 or 2.  A miss
    that equals no int raises TypeError, one past the int-string limit ValueError.
    Only texts of at most 4 characters are kept, so it never holds more than 10,999."""

    def __init__(self, end: str):
        self.end = end

    def __missing__(self, value):
        try:
            if (number := int(value)) != value:
                raise ValueError
        except (TypeError, ValueError, OverflowError):  # 1.5, None, "x", nan, inf
            raise TypeError(f"cannot serialize {value!r}: not an integer") from None
        if len(text := str(number)) <= 4:
            self[number] = text + self.end
        return text + self.end


_COMMA, _LINE = _Text(","), _Text("\n")
_HEADERS = {}  # header line -> its fields: the first 256 lines of up to 128 characters


def serialize(coded: CodedMessage) -> str:
    texts = [None] * (4 * len(coded.ds))  # each column's texts, interleaved row by row
    try:
        texts[0::4] = map(_COMMA.__getitem__, coded.ds)
        texts[1::4] = map(_COMMA.__getitem__, coded.k1s)
        texts[2::4] = map(_COMMA.__getitem__, coded.k2s)
        texts[3::4] = map(_LINE.__getitem__, coded.k3s)
    except TypeError:  # an unhashable element fails the lookup before `__missing__` names it
        for element in (*coded.ds, *coded.k1s, *coded.k2s, *coded.k3s):
            _LINE.__missing__(element)
        raise
    return (  # `_value_` is the attribute that an Enum's `value` property reads
        f"{MAGIC};scheme={coded.scheme._value_};nrule={coded.n_rule._value_}"
        f";dim={coded.dim};alpha={coded.alphabet_id}\n"
    ) + "".join(texts)


def _parse_int(token: str, line_no: int) -> int:
    try:  # a lone surrogate reaches the memo as bytes too, and misses it
        return _TOKENS[token.encode(errors="surrogatepass")]
    except KeyError:
        raise MalformedPayload(f"line {line_no}: {token!r} is not a canonical integer") from None
    except ValueError:  # longer than the interpreter's int-string limit
        raise MalformedPayload(f"line {line_no}: {len(token)}-digit integer is too long") from None


def _parse_columns(body: str) -> tuple[list[int], list[int], list[int], list[int]]:
    """(ds, k1s, k2s, k3s) of `body`, the lines after the header, each ending in '\\n'."""
    if body.isascii():
        raw = body.encode()
        # every line is three commas once its digits and '-' go: nothing else is left
        if raw.translate(None, b"0123456789-") == b",,,\n" * raw.count(b"\n"):
            try:
                ints = list(map(_TOKENS.__getitem__, raw.replace(b"\n", b",").split(b",")[:-1]))
                return ints[0::4], ints[1::4], ints[2::4], ints[3::4]
            except (KeyError, ValueError):  # not canonical, or past the int-string limit
                pass
    # refused, so some line has a wrong field count or token: name the first
    for line_no, line in enumerate(body.split("\n")[:-1], start=2):
        tokens = line.split(",")
        if len(tokens) != 4:
            raise MalformedPayload(f"line {line_no}: expected 4 comma-separated integers")
        for token in tokens:
            _parse_int(token, line_no)


def parse(text: str) -> CodedMessage:
    if "\r" in text:
        line_no = text.count("\n", 0, text.index("\r")) + 1
        raise MalformedPayload(
            f"line {line_no} contains a carriage return: lines must end in '\\n' alone, not CRLF"
        )
    if not text:
        raise MalformedPayload("empty payload")
    # from here on every line ends in '\n', the last one too
    first, _, body = (text if text.endswith("\n") else text + "\n").partition("\n")

    if (header := _HEADERS.get(first)) is None:
        if (match := _HEADER_RE.match(first)) is None:
            raise MalformedPayload(f"bad header line {first!r}")
        scheme_tag, nrule_tag, dim_str, alphabet_id = match.groups()
        header = Scheme(scheme_tag), NRule(nrule_tag), _parse_int(dim_str, 1), alphabet_id
        if len(first) <= 128 and len(_HEADERS) < 256:
            _HEADERS[first] = header
    coded = CodedMessage(*header, *_parse_columns(body))  # HeaderMismatch on a bad dim or row count
    get_alphabet(header[3])  # UnknownAlphabet if not registered here
    return coded
