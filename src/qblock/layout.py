"""Message preprocessing, the square code matrix, and its 2x2 blocking.

A message becomes a string of alphabet symbols (spaces turn into '0', the
tail is padded with '0'), the string fills an even-sided square matrix
row-major, and the matrix splits into 2x2 blocks numbered left to right,
top to bottom.  The number of blocks b fixes the key index n.  That order
is written only here: `_quads` cuts the rows into blocks and `_grid` builds
the rows from block columns, for `to_blocks`, `reassemble` and the codec.
`to_matrix`/`to_symbols` map whole sequences through the table at once.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .alphabet import Alphabet, CharTable
from .errors import BadLength, EmptyMessage, UnknownSymbol

PAD_SYMBOL = "0"


class NRule(Enum):
    """How the key index n is derived from the block count b."""

    HALF = "half"  # n = b if b <= 3 else b // 2
    TAS = "tas"    # n = 3 if b <= 3 else b


@dataclass(frozen=True)
class MessageMatrix:
    """Square grid of codes with even side, stored as row tuples."""

    dim: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise BadLength(f"matrix dimension must be even and >= 2, got {self.dim}")
        if len(self.cells) != self.dim or any(len(row) != self.dim for row in self.cells):
            raise BadLength(f"cell grid does not match dimension {self.dim}")


@dataclass(frozen=True)
class Block:
    """One 2x2 submatrix, row-major b1 b2 / b3 b4, with its 1-based index."""

    index: int
    b1: int
    b2: int
    b3: int
    b4: int

    def determinant(self) -> int:
        return self.b1 * self.b4 - self.b2 * self.b3


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

    Every resulting symbol must be in the alphabet; anything else is an
    UnknownSymbol error rather than a silent skip.
    """
    if not text:
        raise EmptyMessage("message text is empty")
    substituted = text.upper().replace(" ", PAD_SYMBOL)
    side = square_side(len(substituted))
    padded = substituted + PAD_SYMBOL * (side * side - len(substituted))
    if not set(padded).issubset(alphabet.symbols):
        for pos, symbol in enumerate(padded):
            if symbol not in alphabet:
                raise UnknownSymbol(
                    f"symbol {symbol!r} at position {pos} is not in alphabet {alphabet.id!r}"
                )
    return padded


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
    return "".join(table._symbols_of(chain.from_iterable(matrix.cells)))


def _quads(cells) -> list[tuple[int, int, int, int]]:
    """(b1, b2, b3, b4) of each 2x2 block of the row tuples, in block order."""
    pairs = zip(cells[0::2], cells[1::2])
    return [q for top, bot in pairs for q in zip(top[0::2], top[1::2], bot[0::2], bot[1::2])]


def _grid(b1, b2, b3, b4, dim: int) -> tuple[tuple[int, ...], ...]:
    """Row tuples of a dim x dim grid from its blocks' element columns."""
    m = dim // 2
    row = [0] * dim
    rows = []
    for start in range(0, m * m, m):  # one row of blocks: its top row, then its bottom row
        for left, right in ((b1, b2), (b3, b4)):
            row[0::2], row[1::2] = left[start : start + m], right[start : start + m]
            rows.append(tuple(row))
    return tuple(rows)


def to_blocks(matrix: MessageMatrix) -> list[Block]:
    """Split into 2x2 blocks, left to right within a row of blocks, rows top down."""
    return [Block(index, *quad) for index, quad in enumerate(_quads(matrix.cells), start=1)]


def reassemble(blocks: list[Block], dim: int) -> MessageMatrix:
    """Rebuild the matrix from its block sequence (inverse of to_blocks)."""
    if dim < 2 or dim % 2:
        raise BadLength(f"matrix dimension must be even and >= 2, got {dim}")
    m = dim // 2
    if len(blocks) != m * m:
        raise BadLength(f"expected {m * m} blocks for dimension {dim}, got {len(blocks)}")
    # one list per element column: no tuple per block for the collector to track
    columns = ([getattr(b, f) for b in blocks] for f in ("b1", "b2", "b3", "b4"))
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
    if b < 1:
        raise ValueError(f"block count must be >= 1, got {b}")
    if _member(rule, NRule) is NRule.HALF:
        return b if b <= 3 else b // 2
    return 3 if b <= 3 else b
