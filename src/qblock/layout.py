"""Message preprocessing, the square code matrix, and its 2x2 blocking.

A message becomes a string of alphabet symbols (upper-cased where the
alphabet allows it, spaces turn into '0', the tail is padded with '0'), the
string fills an even-sided square matrix row-major, and the matrix splits
into 2x2 blocks numbered left to right, top to bottom.  The number of blocks
b fixes the key index n.  That order is written only here, in one inverse
pair: `_columns` cuts row-major codes (a bytearray or list) into the blocks'
element columns and `_flat` lays bytes or other columns out row-major in a
bytearray or list; `_grid` is the rows of `_flat`.  `to_matrix`/`to_symbols`
map whole sequences through the table at once; `preprocess` screens for
strays with the alphabet's own table of shift 0 from `_lookup`, after
`_padded`, which `encode_text` calls alone since its shifted table screens.
"""

import math
from collections import namedtuple
from enum import Enum
from functools import reduce
from itertools import count
from operator import iconcat, index

from .alphabet import Alphabet, CharTable, _Miss, _Record, _lookup
from .errors import BadLength, EmptyMessage, UnknownSymbol, _int_text

PAD_SYMBOL = "0"


class NRule(Enum):
    """How the key index n is derived from the block count b."""

    HALF = "half"  # n = b if b <= 3 else b // 2
    TAS = "tas"    # n = 3 if b <= 3 else b


class MessageMatrix(_Record, namedtuple("MessageMatrix", "dim cells")):
    """Square grid of codes with even side, stored as row tuples."""

    __slots__ = ()

    def __new__(cls, dim: int, cells: tuple[tuple[int, ...], ...]):
        dim = index(dim)
        if dim < 2 or dim % 2:
            raise BadLength(f"matrix dimension must be even and >= 2, got {_int_text(dim)}")
        if len(cells) != dim or any(len(row) != dim for row in cells):
            raise BadLength(f"cell grid does not match dimension {_int_text(dim)}")
        return super().__new__(cls, dim, cells)


class Block(namedtuple("Block", "index b1 b2 b3 b4")):
    """One 2x2 submatrix, row-major b1 b2 / b3 b4, with its 1-based index."""

    __slots__ = ()


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
    try:
        padded.translate(_lookup(alphabet, 0, "ord"))  # stops at the first stray
        return padded
    except _Miss as miss:
        stray = chr(miss.args[0])
    raise UnknownSymbol(f"symbol {stray!r} at position {padded.index(stray)} "
                        f"is not in alphabet {alphabet.id!r}")


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


def to_matrix(symbols: str, table: CharTable) -> MessageMatrix:
    """Fill the square grid row-major with the codes of `symbols`."""
    side = math.isqrt(len(symbols))
    if side * side != len(symbols) or side % 2 or side < 2:
        raise BadLength(f"symbol count {len(symbols)} is not an even perfect square")
    codes = table._codes_of(symbols)
    cells = tuple(tuple(codes[r * side : (r + 1) * side]) for r in range(side))
    return MessageMatrix(side, cells)


def to_symbols(matrix: MessageMatrix, table: CharTable) -> str:
    """Row-major symbol string of a code matrix (inverse of to_matrix)."""
    return table._symbols_of(_cells(matrix))


def _cells(matrix: MessageMatrix) -> list[int]:
    """The grid's codes, row-major, in one list built by a `+=` per row."""
    return reduce(iconcat, matrix.cells, [])


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


def _grid(b1, b2, b3, b4, dim: int) -> tuple[tuple[int, ...], ...]:
    """Row tuples of a dim x dim grid from its blocks' element columns."""
    flat = _flat(b1, b2, b3, b4, dim)
    return tuple(tuple(flat[start : start + dim]) for start in range(0, len(flat), dim))


def to_blocks(matrix: MessageMatrix) -> list[Block]:
    """Split into 2x2 blocks, left to right within a row of blocks, rows top down."""
    return list(map(Block, count(1), *_columns(_cells(matrix), matrix.dim)))


def reassemble(blocks: list[Block], dim: int) -> MessageMatrix:
    """Rebuild the matrix from its block sequence (inverse of to_blocks)."""
    if dim < 2 or dim % 2:
        raise BadLength(f"matrix dimension must be even and >= 2, got {_int_text(dim)}")
    m = dim // 2
    if len(blocks) != m * m:
        raise BadLength(f"expected {_int_text(m * m)} blocks for dimension {_int_text(dim)}, "
                        f"got {len(blocks)}")
    _, *columns = zip(*blocks)  # index, then the element columns b1..b4
    return MessageMatrix(dim, _grid(*columns, dim))


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
