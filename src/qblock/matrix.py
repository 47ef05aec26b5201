"""The paper's matrix view of a message: the square code matrix, its 2x2
blocks, the codecs on matrices and the per-block decode trace.

This is the paper-faithful reference path.  The text paths (`encode_text`,
`serialize`, `parse`, `decode_text` and the `qblock encode`/`decode`
commands) never import this module, so a process that only sends and
receives text compiles none of it; the package root loads it when one of
its names is first read.

A code matrix fills an even-sided square row-major and splits into 2x2
blocks numbered left to right, top to bottom.  `to_matrix`/`to_symbols` map
whole sequences through the table at once; `_cells` is the grid's codes
row-major, which `layout._columns` cuts into the blocks' element columns,
and `_grid` is the rows of `layout._flat` of such columns.  `encode` checks
a grid's codes against the alphabet and hands its columns to the codec;
`decode` hands the columns the codec solves to `_grid`.

The paper states decode through a Fibonacci/Lucas key K: with helper
products

    e1 = K11*b1 + K21*b2        e2 = K12*b1 + K22*b2

it solves det(K) * d = e1*(K12*u + K22*v) - e2*(K11*u + K21*v), where (u, v)
is (x, b4) for LUCAS_BLOCKING and (b3, x) for MINESWEEPER.  Every term
carries the factor det(K), so the key cancels and the equation reduces to
the identities of `codec`.  `decode_with_trace` reports the paper's
per-block record: the key (r_matrix(n) for every LUCAS_BLOCKING block; for
MINESWEEPER q_power(n) on odd-indexed blocks, r_matrix(n) on even ones),
the block's codes b1 and b2 and the recovered x; a `DecodeTrace` works out
e1 and e2 from its key and codes when they are read.  It is the only user
of `numtheory` and imports it when called, so encode and decode never load
the key matrices.
"""

import math
from collections import namedtuple
from functools import reduce
from itertools import count, cycle
from operator import iconcat, index

from .alphabet import DEFAULT_ALPHABET_ID, CharTable, _Record, get_alphabet
from .codec import CodedMessage, Scheme, _encode, _solve
from .errors import BadLength, CodeOutOfRange, _int_text
from .layout import NRule, _columns, _flat, _member


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


def _grid(b1, b2, b3, b4, dim: int) -> tuple[tuple[int, ...], ...]:
    """Row tuples of a dim x dim grid from its blocks' element columns."""
    flat = _flat(b1, b2, b3, b4, dim)
    return tuple(tuple(flat[start : start + dim]) for start in range(0, len(flat), dim))


def to_blocks(matrix: MessageMatrix) -> list[Block]:
    """Split into 2x2 blocks, left to right within a row of blocks, rows top down."""
    return list(map(Block, count(1), *_columns(_cells(matrix), matrix.dim)))


def reassemble(blocks: list[Block], dim: int) -> MessageMatrix:
    """Rebuild the matrix from its block sequence (inverse of to_blocks)."""
    dim = index(dim)
    if dim < 2 or dim % 2:
        raise BadLength(f"matrix dimension must be even and >= 2, got {_int_text(dim)}")
    m = dim // 2
    if len(blocks) != m * m:
        raise BadLength(f"expected {_int_text(m * m)} blocks for dimension {_int_text(dim)}, "
                        f"got {len(blocks)}")
    _, *columns = zip(*blocks)  # index, then the element columns b1..b4
    return MessageMatrix(dim, _grid(*columns, dim))


class DecodeTrace(namedtuple("DecodeTrace", "index b1 b2 x key")):
    """Per-block decoding record: the block's first two codes, the recovered
    code and the `numtheory.KeyMatrix` used.  The paper's helper products
    e1 and e2 are worked out from the key and the codes on each read."""

    __slots__ = ()

    @property
    def e1(self) -> int:
        """K11*b1 + K21*b2."""
        return self.key.m11 * self.b1 + self.key.m21 * self.b2

    @property
    def e2(self) -> int:
        """K12*b1 + K22*b2."""
        return self.key.m12 * self.b1 + self.key.m22 * self.b2


def encode(
    matrix: MessageMatrix,
    scheme: Scheme,
    n_rule: NRule = NRule.HALF,
    alphabet_id: str = DEFAULT_ALPHABET_ID,
) -> CodedMessage:
    """Turn a code matrix into the transmitted columns, one row per block in
    `to_blocks` order.

    Raises CodeOutOfRange at the first code, row-major, outside [0, size) of
    the alphabet, which `decode` would refuse; then DegenerateBlock listing
    every block whose pivot is zero: for those the determinant carries no
    information about the dropped element, so the message cannot be encoded
    under this scheme.
    """
    _member(scheme, Scheme)
    size = get_alphabet(alphabet_id).size
    codes = _cells(matrix)
    if min(values := set(codes)) < 0 or max(values) >= size:  # of the distinct codes only
        code = next(c for c in codes if not 0 <= c < size)
        raise CodeOutOfRange(f"code {_int_text(code)} outside [0, {size})")
    return _encode(_columns(codes, matrix.dim), scheme, n_rule, matrix.dim, alphabet_id)


def decode(coded: CodedMessage) -> MessageMatrix:
    """Recover the full code matrix from a payload.

    The alphabet comes from the header's registered id.  Raises
    TamperDetected, naming the block, at the first row with a kept code out
    of range or no exact in-range solution.
    """
    size = get_alphabet(coded.alphabet_id).size
    return MessageMatrix(coded.dim, _grid(*_solve(coded, size), coded.dim))


def decode_with_trace(coded: CodedMessage) -> tuple[MessageMatrix, tuple[DecodeTrace, ...]]:
    """Decode and also return the paper's per-block solving record.

    A trace holds each block's small codes and one of two shared keys, so it
    is flat per block on every alphabet; e1 and e2, ints of about 0.69·n
    bits, are computed on each read and kept nowhere."""
    from . import numtheory

    b1s, b2s, b3s, b4s = columns = _solve(coded, get_alphabet(coded.alphabet_id).size)
    lucas = coded.scheme is Scheme.LUCAS_BLOCKING
    rmat = numtheory.r_matrix(coded.n)
    # odd-indexed blocks use q_power(n) under MINESWEEPER, r_matrix(n) under LUCAS_BLOCKING
    keys = cycle((rmat if lucas else numtheory.q_power(coded.n), rmat))
    traces = map(DecodeTrace, count(1), b1s, b2s, b3s if lucas else b4s, keys)
    return MessageMatrix(coded.dim, _grid(*columns, coded.dim)), tuple(traces)
