"""Canonical text serialization of a CodedMessage.

Grammar (newline-terminated lines, no padding, no trailing whitespace):

    QBLK1;scheme=<lucas|mine>;nrule=<half|tas>;dim=<even int>;alpha=<id>
    <d>,<k1>,<k2>,<k3>        one line per row, signed decimal

Equal messages serialize to byte-identical payloads, and parse is the
exact inverse on everything serialize can emit.  Lines end in '\\n' alone:
parse refuses a carriage return, naming the first line that has one.
"""

import re

from .alphabet import get_alphabet
from .codec import CodedMessage, FRow, Scheme
from .errors import MalformedPayload
from .layout import NRule

MAGIC = "QBLK1"

_HEADER_RE = re.compile(
    r"^QBLK1;scheme=(lucas|mine);nrule=(half|tas);dim=(0|[1-9][0-9]*);alpha=([^;\s]+)$"
)
# canonical signed decimal: no '+', no leading zeros, no '-0'
_INT = r"(0|-?[1-9][0-9]*)"
_ROW_RE = re.compile(",".join([_INT] * 4))


def serialize(coded: CodedMessage) -> str:
    lines = [
        f"{MAGIC};scheme={coded.scheme.value};nrule={coded.n_rule.value}"
        f";dim={coded.dim};alpha={coded.alphabet_id}"
    ]
    lines.extend(f"{row.d},{row.k1},{row.k2},{row.k3}" for row in coded.rows)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int) -> int:
    if not re.fullmatch(_INT, token):  # compiled on first use, not at import
        raise MalformedPayload(f"line {line_no}: {token!r} is not a canonical integer")
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int-string limit
        raise MalformedPayload(f"line {line_no}: {len(token)}-digit integer is too long") from None


def _parse_row(line: str, line_no: int) -> FRow:
    """Parse one row token by token, naming the first fault."""
    parts = line.split(",")
    if len(parts) != 4:
        raise MalformedPayload(f"line {line_no}: expected 4 comma-separated integers")
    return FRow(*(_parse_int(p, line_no) for p in parts))


def parse(text: str) -> CodedMessage:
    if "\r" in text:
        line_no = text.count("\n", 0, text.index("\r")) + 1
        raise MalformedPayload(
            f"line {line_no} contains a carriage return: lines must end in '\\n' alone, not CRLF"
        )
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines:
        raise MalformedPayload("empty payload")

    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise MalformedPayload(f"bad header line {lines[0]!r}")
    scheme_tag, nrule_tag, dim_str, alphabet_id = header.groups()
    dim = _parse_int(dim_str, 1)

    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        match = _ROW_RE.fullmatch(line)
        try:
            rows.append(FRow(*map(int, match.groups())) if match else _parse_row(line, line_no))
        except ValueError:  # int() refuses a token past the interpreter's int-string limit
            rows.append(_parse_row(line, line_no))

    # HeaderMismatch on a bad dimension or row count
    coded = CodedMessage(Scheme(scheme_tag), NRule(nrule_tag), dim, alphabet_id, tuple(rows))
    get_alphabet(alphabet_id)  # UnknownAlphabet if not registered here
    return coded
