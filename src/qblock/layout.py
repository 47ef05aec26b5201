"""Message preprocessing, the block order of a square code grid, and the key index.

A message becomes a string of alphabet symbols (upper-cased where the
alphabet allows it, spaces turn into '0', the tail is padded with '0'), the
string fills an even-sided square grid row-major, and the grid splits into
2x2 blocks numbered left to right, top to bottom.  The number of blocks b
fixes the key index n.  That order is written only here, in one inverse
pair: `_columns` cuts row-major codes (a bytearray or list) into the blocks'
element columns and `_flat` lays bytes or other columns out row-major in a
bytearray or list.  `preprocess` is `_padded` screened by the alphabet's
table of shift 0, and `encode_text` codes `_padded` by its shifted table,
which screens the same.  The grid as a record of row tuples, `MessageMatrix`,
and its `Block`s are the paper's matrix view in `matrix`, which the text
paths never import.
"""

import math
from enum import Enum
from operator import index

from .alphabet import Alphabet, _codes
from .errors import EmptyMessage, _int_text

PAD_SYMBOL = "0"


class NRule(Enum):
    """How the key index n is derived from the block count b."""

    HALF = "half"  # n = b if b <= 3 else b // 2
    TAS = "tas"    # n = 3 if b <= 3 else b


def square_side(length: int) -> int:
    """Smallest even side whose square holds `length` symbols."""
    side = math.isqrt(length)
    if side * side < length:
        side += 1
    if side % 2:
        side += 1
    return max(side, 2)


def preprocess(text: str, alphabet: Alphabet) -> str:
    """Uppercase, turn each space into '0', pad with '0' to an even square.

    Case is folded only for an alphabet that upper-casing keeps whole, such
    as the default one; any other alphabet sees the text as written.  The
    first resulting symbol outside the alphabet is an UnknownSymbol error
    that names it and its position, rather than a silent skip.
    """
    padded = _padded(text, alphabet)
    _codes((alphabet, 0), padded)  # refuses the first stray
    return padded


def _padded(text: str, alphabet: Alphabet) -> str:
    """`preprocess` up to its screen for strays."""
    if not text:
        raise EmptyMessage("message text is empty")
    letters = "".join(alphabet.symbols)
    if letters.upper() == letters:
        text = text.upper()
    substituted = text.replace(" ", PAD_SYMBOL)
    side = square_side(len(substituted))
    return substituted + PAD_SYMBOL * (side * side - len(substituted))


def _columns(codes, dim: int):
    """(b1s, b2s, b3s, b4s) of row-major dim x dim codes, in block order (inverse of _flat)."""
    # rows have even length, so in the top rows end to end b1 is at even offsets, b2 at odd
    tops, bottoms = codes[:0], codes[:0]
    for start in range(0, len(codes), 2 * dim):  # a row of blocks: its top, then its bottom row
        tops += codes[start : start + dim]
        bottoms += codes[start + dim : start + 2 * dim]
    return tops[0::2], tops[1::2], bottoms[0::2], bottoms[1::2]


def _flat(b1, b2, b3, b4, dim: int) -> bytearray | list[int]:
    """Row-major codes of a dim x dim grid from its blocks' element columns."""
    zero = bytearray(1) if isinstance(b1, bytes) else [0]
    tops, bottoms = zero * (2 * len(b1)), zero * (2 * len(b3))
    tops[0::2], tops[1::2], bottoms[0::2], bottoms[1::2] = b1, b2, b3, b4
    flat = zero[:0]
    for start in range(0, len(tops), dim):  # one row of blocks: its top row, then its bottom row
        flat += tops[start : start + dim]
        flat += bottoms[start : start + dim]
    return flat


def _member(value, kind: type[Enum]):
    """`value` itself if it is a member of the enum `kind`.  Raises TypeError
    otherwise: a code or a string would fall through to another member's
    branch."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__} member, got {value!r}")
    return value


def choose_n(b: int, rule: NRule) -> int:
    """Key index for b blocks under the selected rule."""
    b = index(b)
    if b < 1:
        raise ValueError(f"block count must be >= 1, got {_int_text(b)}")
    if _member(rule, NRule) is NRule.HALF:
        return b if b <= 3 else b // 2
    return 3 if b <= 3 else b
