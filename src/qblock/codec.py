"""The two block codecs: encode drops one element per 2x2 block, decode gets
it back from the block determinant.

Per block B = [[b1, b2], [b3, b4]] the sender transmits the determinant
d = b1*b4 - b2*b3 plus three elements, and the receiver solves d for the
dropped one:

  LUCAS_BLOCKING   keeps (b1, b2, b4), drops b3:   b3 = (b1*b4 - d) / b2
  MINESWEEPER      keeps (b1, b2, b3), drops b4:   b4 = (d + b2*b3) / b1

The rows, `FRow` named tuples, go out in block order, which `layout` alone
writes down: `encode` maps whole block columns from `_columns`; `decode`
transposes the rows and hands `_grid` the columns (k1, k2, x, k3), resp.
(k1, k2, k3, x).
The dropped element is unique exactly when the pivot (b2, resp. b1) is
nonzero, so encoding refuses zero-pivot blocks up front; any corruption
that leaves no exact in-range solution is reported as tampering.

`decode` accepts a payload by one test over the transposed columns that
makes ints only, no pair per row: kept codes in range, no zero pivot, and
every x (`floordiv` of the numerators) exact (`mod`) and in range.  Otherwise
`solve_missing`, the one per-row verdict, names the first row it rejects.

The paper states decode through a Fibonacci/Lucas key K: with helper
products

    e1 = K11*b1 + K21*b2        e2 = K12*b1 + K22*b2

it solves det(K) * d = e1*(K12*u + K22*v) - e2*(K11*u + K21*v), where (u, v)
is (x, b4) for LUCAS_BLOCKING and (b3, x) for MINESWEEPER.  Every term
carries the factor det(K), so the key cancels and the equation reduces to
the identities above.  `decode_with_trace` reports the paper's per-block
record: the key (r_matrix(n) for every LUCAS_BLOCKING block; for
MINESWEEPER q_power(n) on odd-indexed blocks, r_matrix(n) on even ones),
e1, e2 and the recovered x.  It is the only user of `numtheory` and imports
it when called, so encode and decode never load the key matrices.
"""

import math
from collections import namedtuple
from enum import Enum
from itertools import count, repeat
from operator import add, floordiv, mod, mul, sub

from .alphabet import DEFAULT_ALPHABET, DEFAULT_ALPHABET_ID, CharTable, _Record, get_alphabet
from .errors import DegenerateBlock, HeaderMismatch, TamperDetected
from .layout import (
    MessageMatrix,
    NRule,
    _columns,
    _grid,
    _member,
    choose_n,
    preprocess,
    to_matrix,
    to_symbols,
)


class Scheme(Enum):
    LUCAS_BLOCKING = "lucas"
    MINESWEEPER = "mine"


class FRow(namedtuple("FRow", "d k1 k2 k3")):
    """One transmitted row: block determinant plus the three kept codes."""

    __slots__ = ()


class CodedMessage(_Record, namedtuple("CodedMessage", "scheme n_rule dim alphabet_id rows")):
    """The full payload: scheme/context header plus the rows in block order.

    The key index n is never carried; both sides derive it from the row
    count and the n-rule.  Raises TypeError unless scheme and n_rule are
    members of their enums, and HeaderMismatch unless the dimension is even
    and >= 2 and there is one row per block.
    """

    __slots__ = ()

    def __new__(cls, scheme: Scheme, n_rule: NRule, dim: int, alphabet_id: str,
                rows: tuple[FRow, ...]):
        _member(scheme, Scheme)
        _member(n_rule, NRule)
        if dim < 2 or dim % 2:
            raise HeaderMismatch(f"dimension must be even and >= 2, got {dim}")
        expected = (dim // 2) ** 2
        if len(rows) != expected:
            # past ~4300 digits Python refuses to print an int
            implied = expected if expected.bit_length() <= 10_000 else "too many"
            raise HeaderMismatch(
                f"dimension {dim} implies {implied} rows, payload has {len(rows)}"
            )
        return super().__new__(cls, scheme, n_rule, dim, alphabet_id, rows)

    @property
    def n(self) -> int:
        return choose_n(len(self.rows), self.n_rule)


class DecodeTrace(namedtuple("DecodeTrace", "index e1 e2 x key")):
    """Per-block decoding record: helper products, recovered code, and the
    `numtheory.KeyMatrix` used."""

    __slots__ = ()


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
    lucas = _member(scheme, Scheme) is Scheme.LUCAS_BLOCKING
    b1s, b2s, b3s, b4s = _columns(matrix.cells)
    pivots = b2s if lucas else b1s
    if 0 in pivots:
        raise DegenerateBlock([index for index, p in enumerate(pivots, start=1) if p == 0])
    ds = map(sub, map(mul, b1s, b4s), map(mul, b2s, b3s))
    # tuple.__new__ makes each FRow without _make's per-row call and length check
    rows = map(tuple.__new__, repeat(FRow), zip(ds, b1s, b2s, b4s if lucas else b3s))
    return CodedMessage(scheme, n_rule, matrix.dim, alphabet_id, tuple(rows))


def solve_missing(row: FRow, scheme: Scheme, *, size: int = DEFAULT_ALPHABET.size) -> int:
    """The dropped element of one row: b3 of a LUCAS_BLOCKING row
    (d, b1, b2, b4), b4 of a MINESWEEPER row (d, b1, b2, b3).

    This is the whole per-row verdict.  It reads the row alone: the key
    cancels from the paper's decode equation, so neither the key index n nor
    the block index enters.  Raises TamperDetected at the first failing
    check: kept codes k1, k2, k3 in [0, size), a nonzero pivot, exact
    division, then the recovered code in [0, size).
    """
    lucas = _member(scheme, Scheme) is Scheme.LUCAS_BLOCKING
    d, k1, k2, k3 = row
    for code in (k1, k2, k3):
        if not 0 <= code < size:
            raise TamperDetected(f"kept code {code} outside [0, {size})")
    if lucas:
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
    kept = set(k1s).union(k2s, k3s)
    start = 0
    if 0 <= min(kept) and max(kept) < size and 0 not in pivots:
        if lucas:
            numerators = [*map(sub, map(mul, k1s, k3s), ds)]
        else:
            numerators = [*map(add, ds, map(mul, k2s, k3s))]
        xs = [*map(floordiv, numerators, pivots)]
        remainders = [*map(mod, numerators, pivots)]
        if not any(remainders) and 0 <= min(xs) and max(xs) < size:
            columns = (k1s, k2s, xs, k3s) if lucas else (k1s, k2s, k3s, xs)
            return MessageMatrix(coded.dim, _grid(*columns, coded.dim))
        start = next(i for i in range(len(xs)) if remainders[i] or not 0 <= xs[i] < size)
    # from start, a lower bound on the first bad row, the per-row verdict names it
    for index, row in enumerate(coded.rows[start:], start + 1):
        try:
            solve_missing(row, coded.scheme, size=size)
        except TamperDetected as exc:
            raise TamperDetected(f"block {index}: {exc}", block_index=index) from None


def decode_with_trace(coded: CodedMessage) -> tuple[MessageMatrix, tuple[DecodeTrace, ...]]:
    """Decode and also return the paper's per-block solving record."""
    from . import numtheory

    matrix = decode(coded)
    lucas = coded.scheme is Scheme.LUCAS_BLOCKING
    rmat = numtheory.r_matrix(coded.n)
    # odd-indexed blocks use q_power(n) under MINESWEEPER, r_matrix(n) under LUCAS_BLOCKING
    odd_key = rmat if lucas else numtheory.q_power(coded.n)
    b1s, b2s, b3s, b4s = _columns(matrix.cells)
    traces = []
    for index, b1, b2, x in zip(count(1), b1s, b2s, b3s if lucas else b4s):
        key = odd_key if index % 2 else rmat
        e1 = key.m11 * b1 + key.m21 * b2
        e2 = key.m12 * b1 + key.m22 * b2
        traces.append(DecodeTrace(index, e1, e2, x, key))
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
