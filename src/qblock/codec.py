"""The two block codecs: encode drops one element per 2x2 block, decode gets
it back from the block determinant.

Per block B = [[b1, b2], [b3, b4]] the sender transmits the determinant
d = b1*b4 - b2*b3 plus three elements, and the receiver solves d for the
dropped one:

  LUCAS_BLOCKING   keeps (b1, b2, b4), drops b3:   b3 = (b1*b4 - d) / b2
  MINESWEEPER      keeps (b1, b2, b3), drops b4:   b4 = (d + b2*b3) / b1

The rows, `FRow` named tuples, go out in block order, which `layout` alone
writes down: `encode` reads blocks from `_quads`; `decode` transposes the
rows and hands `_grid` the columns (k1, k2, x, k3), resp. (k1, k2, k3, x).
The dropped element is unique exactly when the pivot (b2, resp. b1) is
nonzero, so encoding refuses zero-pivot blocks up front; any corruption
that leaves no exact in-range solution is reported as tampering.

`decode` checks columns, not rows: the kept codes by the min and max of
their set, the pivots for a zero, and every x from one `map(divmod, ...)`
over the rows before those faults.  The earliest first-failing row of any
check goes through `solve_missing`, the one per-row verdict, which names
the fault.

The paper states decode through a Fibonacci/Lucas key K: with helper
products

    e1 = K11*b1 + K21*b2        e2 = K12*b1 + K22*b2

it solves det(K) * d = e1*(K12*u + K22*v) - e2*(K11*u + K21*v), where (u, v)
is (x, b4) for LUCAS_BLOCKING and (b3, x) for MINESWEEPER.  Every term
carries the factor det(K), so the key cancels and the equation reduces to
the identities above.  `decode_with_trace` reports the paper's per-block
record: the key (r_matrix(n) for every LUCAS_BLOCKING block; for
MINESWEEPER q_power(n) on odd-indexed blocks, r_matrix(n) on even ones),
e1, e2 and the recovered x.
"""

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, count
from operator import add, mul, sub
from typing import NamedTuple

from . import numtheory
from .alphabet import DEFAULT_ALPHABET, DEFAULT_ALPHABET_ID, CharTable, get_alphabet
from .errors import DegenerateBlock, HeaderMismatch, TamperDetected
from .layout import (
    MessageMatrix,
    NRule,
    _grid,
    _quads,
    choose_n,
    preprocess,
    to_matrix,
    to_symbols,
)
from .numtheory import KeyMatrix


class Scheme(Enum):
    LUCAS_BLOCKING = "lucas"
    MINESWEEPER = "mine"


class FRow(NamedTuple):
    """One transmitted row: block determinant plus the three kept codes."""

    d: int
    k1: int
    k2: int
    k3: int


@dataclass(frozen=True)
class CodedMessage:
    """The full payload: scheme/context header plus the rows in block order.

    The key index n is never carried; both sides derive it from the row
    count and the n-rule.  Raises HeaderMismatch unless the dimension is
    even and >= 2 and there is one row per block.
    """

    scheme: Scheme
    n_rule: NRule
    dim: int
    alphabet_id: str
    rows: tuple[FRow, ...]

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise HeaderMismatch(f"dimension must be even and >= 2, got {self.dim}")
        expected = (self.dim // 2) ** 2
        if len(self.rows) != expected:
            # past ~4300 digits Python refuses to print an int
            implied = expected if expected.bit_length() <= 10_000 else "too many"
            raise HeaderMismatch(
                f"dimension {self.dim} implies {implied} rows, payload has {len(self.rows)}"
            )

    @property
    def n(self) -> int:
        return choose_n(len(self.rows), self.n_rule)


class DecodeTrace(NamedTuple):
    """Per-block decoding record: helper products, recovered code, key used."""

    index: int
    e1: int
    e2: int
    x: int
    key: KeyMatrix


def encode(
    matrix: MessageMatrix,
    scheme: Scheme,
    n_rule: NRule = NRule.HALF,
    alphabet_id: str = DEFAULT_ALPHABET_ID,
) -> CodedMessage:
    """Turn a code matrix into the transmitted rows, one per block in
    `to_blocks` order.

    Raises DegenerateBlock listing every block whose pivot is zero: for
    those the determinant carries no information about the dropped element,
    so the message cannot be encoded under this scheme.
    """
    blocks = _quads(matrix.cells)
    lucas = scheme is Scheme.LUCAS_BLOCKING
    pivot = 1 if lucas else 0  # b2, resp. b1
    degenerate = [index for index, block in enumerate(blocks, start=1) if block[pivot] == 0]
    if degenerate:
        raise DegenerateBlock(degenerate)
    if lucas:
        rows = [(b1 * b4 - b2 * b3, b1, b2, b4) for b1, b2, b3, b4 in blocks]
    else:
        rows = [(b1 * b4 - b2 * b3, b1, b2, b3) for b1, b2, b3, b4 in blocks]
    return CodedMessage(scheme, n_rule, matrix.dim, alphabet_id, tuple(map(FRow._make, rows)))


def solve_missing(row: FRow, scheme: Scheme, *, size: int = DEFAULT_ALPHABET.size) -> int:
    """The dropped element of one row: b3 of a LUCAS_BLOCKING row
    (d, b1, b2, b4), b4 of a MINESWEEPER row (d, b1, b2, b3).

    This is the whole per-row verdict.  It reads the row alone: the key
    cancels from the paper's decode equation, so neither the key index n nor
    the block index enters.  Raises TamperDetected at the first failing
    check: kept codes k1, k2, k3 in [0, size), a nonzero pivot, exact
    division, then the recovered code in [0, size).
    """
    d, k1, k2, k3 = row
    for code in (k1, k2, k3):
        if not 0 <= code < size:
            raise TamperDetected(f"kept code {code} outside [0, {size})")
    if scheme is Scheme.LUCAS_BLOCKING:
        pivot, numerator = k2, k1 * k3 - d
    else:
        pivot, numerator = k1, d + k2 * k3
    if pivot == 0:
        # the determinant does not involve the dropped element
        raise TamperDetected(f"zero pivot, dropped element unrecoverable (d={d})")
    x, remainder = divmod(numerator, pivot)
    if remainder != 0:
        raise TamperDetected(f"no exact solution for dropped element (d={d})")
    if not 0 <= x < size:
        raise TamperDetected(f"recovered code {x} outside [0, {size})")
    return x


def _first_outside(size: int, *columns) -> int:
    """0-based index of the first row with a value v in any column that fails
    0 <= v < size, the per-row test, for non-int values too; at least one
    value must fail it."""
    bad = (column for column in columns if min(column) < 0 or max(column) >= size)
    return min(next(i for i, v in enumerate(column) if not 0 <= v < size) for column in bad)


def decode(coded: CodedMessage) -> MessageMatrix:
    """Recover the full code matrix from a payload.

    The alphabet comes from the header's registered id.  Raises
    TamperDetected, naming the block, at the first row with a kept code out
    of range or no exact in-range solution.
    """
    size = get_alphabet(coded.alphabet_id).size
    lucas = coded.scheme is Scheme.LUCAS_BLOCKING
    ds, k1s, k2s, k3s = zip(*coded.rows)
    pivots = k2s if lucas else k1s
    # 0-based first failing row of each check that fails
    firsts = []
    kept = set(k1s).union(k2s, k3s)
    if min(kept) < 0 or max(kept) >= size:
        firsts.append(_first_outside(size, k1s, k2s, k3s))
    if 0 in pivots:
        firsts.append(pivots.index(0))
    # no arithmetic from the first bad row on: map stops at the shortest column
    end = min(firsts, default=len(ds))
    if end:
        if lucas:
            numerators = map(sub, map(mul, k1s[:end], k3s), ds)
        else:
            numerators = map(add, ds[:end], map(mul, k2s, k3s))
        xs, remainders = zip(*map(divmod, numerators, pivots))
        if any(remainders):
            firsts.append(next(compress(count(), remainders)))
        if min(xs) < 0 or max(xs) >= size:
            firsts.append(_first_outside(size, xs))
    if firsts:
        # the per-row verdict on the first bad row names its fault
        index = min(firsts) + 1
        try:
            solve_missing(coded.rows[index - 1], coded.scheme, size=size)
        except TamperDetected as exc:
            raise TamperDetected(f"block {index}: {exc}", block_index=index) from None
    columns = (k1s, k2s, xs, k3s) if lucas else (k1s, k2s, k3s, xs)
    return MessageMatrix(coded.dim, _grid(*columns, coded.dim))


def decode_with_trace(coded: CodedMessage) -> tuple[MessageMatrix, tuple[DecodeTrace, ...]]:
    """Decode and also return the paper's per-block solving record."""
    matrix = decode(coded)
    lucas = coded.scheme is Scheme.LUCAS_BLOCKING
    rmat = numtheory.r_matrix(coded.n)
    # odd-indexed blocks use q_power(n) under MINESWEEPER, r_matrix(n) under LUCAS_BLOCKING
    odd_key = rmat if lucas else numtheory.q_power(coded.n)
    traces = []
    for index, (b1, b2, b3, b4) in enumerate(_quads(matrix.cells), start=1):
        key = odd_key if index % 2 else rmat
        e1 = key.m11 * b1 + key.m21 * b2
        e2 = key.m12 * b1 + key.m22 * b2
        traces.append(DecodeTrace(index, e1, e2, b3 if lucas else b4, key))
    return matrix, tuple(traces)


def encode_text(
    text: str,
    scheme: Scheme,
    n_rule: NRule = NRule.HALF,
    alphabet_id: str = DEFAULT_ALPHABET_ID,
) -> CodedMessage:
    """Full sender pipeline: preprocess, derive the table, fill, encode."""
    alphabet = get_alphabet(alphabet_id)
    symbols = preprocess(text, alphabet)
    dim = math.isqrt(len(symbols))
    n = choose_n((dim // 2) ** 2, n_rule)
    matrix = to_matrix(symbols, CharTable(alphabet, n))
    return encode(matrix, scheme, n_rule, alphabet_id)


def decode_text(coded: CodedMessage) -> str:
    """Full receiver pipeline: decode and render the symbol string."""
    table = CharTable(get_alphabet(coded.alphabet_id), coded.n)
    return to_symbols(decode(coded), table)
