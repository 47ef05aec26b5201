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
tokens; every fourth one is a column of the `CodedMessage`.  parse reads
line by line only to name a fault.
"""

import re

from .alphabet import get_alphabet
from .codec import CodedMessage, Scheme
from .errors import MalformedPayload
from .layout import NRule

MAGIC = "QBLK1"

_HEADER_RE = re.compile(
    r"^QBLK1;scheme=(lucas|mine);nrule=(half|tas);dim=(0|[1-9][0-9]*);alpha=([^;\s]+)$"
)
# canonical signed decimal: no '+', no leading zeros, no '-0'
_INT = r"(?:0|-?[1-9][0-9]*)"


class _Memo(dict):
    """Canonical token (bytes) -> its int.  A miss that is not canonical raises
    KeyError, one past the int-string limit ValueError.  Only tokens of at most
    4 characters are kept, so it never holds more than 10,999, whatever it reads."""

    def __missing__(self, token):
        if not re.fullmatch(_INT.encode(), token):
            raise KeyError(token)
        value = int(token)
        if len(token) <= 4:
            self[token] = value
        return value


_TOKENS = _Memo()


def serialize(coded: CodedMessage) -> str:
    ints = [None] * (4 * len(coded.ds))
    # the columns interleaved row by row, then formatted by one %
    ints[0::4], ints[1::4], ints[2::4], ints[3::4] = coded.ds, coded.k1s, coded.k2s, coded.k3s
    return (
        f"{MAGIC};scheme={coded.scheme.value};nrule={coded.n_rule.value}"
        f";dim={coded.dim};alpha={coded.alphabet_id}\n"
    ) + ("%s,%s,%s,%s\n" * len(coded.ds)) % tuple(ints)


def _parse_int(token: str, line_no: int) -> int:
    if not re.fullmatch(_INT, token):  # compiled on first use, not at import
        raise MalformedPayload(f"line {line_no}: {token!r} is not a canonical integer")
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int-string limit
        raise MalformedPayload(f"line {line_no}: {len(token)}-digit integer is too long") from None


def _parse_row(line: str, line_no: int) -> list[int]:
    """Parse one row token by token, naming the first fault."""
    parts = line.split(",")
    if len(parts) != 4:
        raise MalformedPayload(f"line {line_no}: expected 4 comma-separated integers")
    return [_parse_int(p, line_no) for p in parts]


def _parse_columns(body: str) -> tuple[list[int], list[int], list[int], list[int]]:
    """(ds, k1s, k2s, k3s) of `body`, the lines after the header, each ending in '\\n'."""
    ints = None
    if body.isascii():
        raw = body.encode()
        # every line is three commas once its digits and '-' go: nothing else is left
        if raw.translate(None, b"0123456789-") == b",,,\n" * raw.count(b"\n"):
            try:
                ints = list(map(_TOKENS.__getitem__, raw.replace(b"\n", b",").split(b",")[:-1]))
            except (KeyError, ValueError):  # not canonical, or past the int-string limit
                pass
    if ints is None:
        lines = body.split("\n")[:-1]
        ints = [i for no, line in enumerate(lines, start=2) for i in _parse_row(line, no)]
    return ints[0::4], ints[1::4], ints[2::4], ints[3::4]


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

    header = _HEADER_RE.match(first)
    if header is None:
        raise MalformedPayload(f"bad header line {first!r}")
    scheme_tag, nrule_tag, dim_str, alphabet_id = header.groups()
    dim = _parse_int(dim_str, 1)

    # HeaderMismatch on a bad dimension or row count
    coded = CodedMessage(Scheme(scheme_tag), NRule(nrule_tag), dim, alphabet_id,
                         *_parse_columns(body))
    get_alphabet(alphabet_id)  # UnknownAlphabet if not registered here
    return coded
