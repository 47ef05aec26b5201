"""Canonical text serialization of a CodedMessage.

Grammar (newline-terminated lines, no padding, no trailing whitespace):

    QBLK1;scheme=<lucas|mine>;nrule=<half|tas>;dim=<even int>;alpha=<id>
    <d>,<k1>,<k2>,<k3>        one line per row, signed decimal

Equal messages serialize to byte-identical payloads, and parse is the
exact inverse on everything serialize can emit.
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
_INT_RE = re.compile(r"^(0|-?[1-9][0-9]*)$")


def serialize(coded: CodedMessage) -> str:
    lines = [
        f"{MAGIC};scheme={coded.scheme.value};nrule={coded.n_rule.value}"
        f";dim={coded.dim};alpha={coded.alphabet_id}"
    ]
    lines.extend(f"{row.d},{row.k1},{row.k2},{row.k3}" for row in coded.rows)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, line_no: int) -> int:
    if not _INT_RE.match(token):
        raise MalformedPayload(f"line {line_no}: {token!r} is not a canonical integer")
    try:
        return int(token)
    except ValueError:  # longer than the interpreter's int-string limit
        raise MalformedPayload(f"line {line_no}: {len(token)}-digit integer is too long") from None


def parse(text: str) -> CodedMessage:
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
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedPayload(f"line {line_no}: expected 4 comma-separated integers")
        d, k1, k2, k3 = (_parse_int(p, line_no) for p in parts)
        rows.append(FRow(d, k1, k2, k3))

    # HeaderMismatch on a bad dimension or row count
    coded = CodedMessage(Scheme(scheme_tag), NRule(nrule_tag), dim, alphabet_id, tuple(rows))
    get_alphabet(alphabet_id)  # UnknownAlphabet if not registered here
    return coded
