"""The two block codecs: encode drops one element per 2x2 block, decode gets
it back from the block determinant.

Per block B = [[b1, b2], [b3, b4]] the sender transmits the determinant
d = b1*b4 - b2*b3 plus three elements, and the receiver solves d for the
dropped one:

  LUCAS_BLOCKING   keeps (b1, b2, b4), drops b3:   b3 = (b1*b4 - d) / b2
  MINESWEEPER      keeps (b1, b2, b3), drops b4:   b4 = (d + b2*b3) / b1

A payload is four columns in block order, which `layout` alone writes
down: the determinants `ds` and the kept codes `k1s`, `k2s`, `k3s`.  The
dropped element is unique exactly when the pivot (b2, resp. b1) is
nonzero, so encoding refuses zero-pivot blocks, and codes outside the
alphabet, up front; any corruption that leaves no exact in-range solution
is reported as tampering.

`_encode` computes the columns from the block columns of `_columns`; the
text's block columns come from `_text_columns` and the pivot check from
`_kept`, which `harness.detection_rate` shares so that it raises what
`encode_text` raises without building the record.
`_solve` returns the block columns (k1, k2, x, k3), resp. (k1, k2, k3, x),
after one test over the columns, no pair per row: kept codes in range, no
zero pivot, every x (`floordiv` of the numerators) exact (`mod`) and in
range.  For an alphabet of at most 256 symbols it tests and returns each
column as `bytes`.  Otherwise `solve_missing` names the first row it
rejects.  Its checks are `_verdict`, the one per-row verdict, which returns
the failing check where `solve_missing` raises it, so that
`harness.detection_rate` counts a detected trial without an exception.
The text paths build no `MessageMatrix` or `CharTable`: `encode_text`
codes the padded text in one translate through the shifted table, which
refuses its first stray by position, and cuts the codes with `_columns`;
`decode_text` maps `_flat` of the columns through the table.

The codecs on a `MessageMatrix`, `encode`, `decode` and the paper's
`decode_with_trace` with its Fibonacci/Lucas keys, live in `matrix`, which
runs `_encode` and `_solve` and which the text paths never import.
"""

import math
from collections import namedtuple
from enum import Enum
from operator import add, floordiv, index, mod, mul, sub

from .alphabet import (
    DEFAULT_ALPHABET,
    DEFAULT_ALPHABET_ID,
    _BYTES,
    _check_id,
    _codes,
    _Record,
    _registry,
    _symbols,
    get_alphabet,
)
from .errors import DegenerateBlock, HeaderMismatch, TamperDetected, _int_text
from .layout import NRule, _columns, _flat, _member, _padded, choose_n


class Scheme(Enum):
    LUCAS_BLOCKING = "lucas"
    MINESWEEPER = "mine"


class FRow(namedtuple("FRow", "d k1 k2 k3")):
    """One transmitted row: block determinant plus the three kept codes."""

    __slots__ = ()


class CodedMessage(
    _Record, namedtuple("CodedMessage", "scheme n_rule dim alphabet_id ds k1s k2s k3s")
):
    """The full payload: scheme/context header plus the four columns of the
    rows in block order, each stored as a tuple.

    The key index n is never carried; both sides derive it from the row
    count and the n-rule.  Raises TypeError unless scheme and n_rule are
    members of their enums and the dimension is an int, HeaderMismatch unless
    the dimension is even and >= 2, the columns are equally long and there is
    one row per block, and ValueError unless the wire header can carry the
    alphabet id.  The column elements are not checked.
    """

    __slots__ = ()

    def __new__(cls, scheme: Scheme, n_rule: NRule, dim: int, alphabet_id: str,
                ds, k1s, k2s, k3s):
        _member(scheme, Scheme)
        _member(n_rule, NRule)
        dim = index(dim)
        if dim < 2 or dim % 2:
            raise HeaderMismatch(f"dimension must be even and >= 2, got {_int_text(dim)}")
        ds, k1s, k2s, k3s = tuple(ds), tuple(k1s), tuple(k2s), tuple(k3s)
        if not len(ds) == len(k1s) == len(k2s) == len(k3s):
            lengths = f"ds {len(ds)}, k1s {len(k1s)}, k2s {len(k2s)}, k3s {len(k3s)}"
            raise HeaderMismatch(f"column lengths differ: {lengths}")
        expected = (dim // 2) ** 2
        if len(ds) != expected:
            # past ~4300 digits Python refuses to print an int
            implied = expected if expected.bit_length() <= 10_000 else "too many"
            raise HeaderMismatch(
                f"dimension {_int_text(dim)} implies {implied} rows, payload has {len(ds)}"
            )
        if type(alphabet_id) is not str or alphabet_id not in _registry:  # each key passed it
            _check_id(alphabet_id)
        return super().__new__(cls, scheme, n_rule, dim, alphabet_id, ds, k1s, k2s, k3s)

    @property
    def rows(self) -> tuple[FRow, ...]:
        """One `FRow` per block, built on each read; no encode or decode step reads it."""
        return tuple(map(FRow, self.ds, self.k1s, self.k2s, self.k3s))

    @property
    def n(self) -> int:
        return choose_n(len(self.ds), self.n_rule)


def _encode(columns, scheme: Scheme, n_rule: NRule, dim: int, alphabet_id: str) -> CodedMessage:
    """`encode` of the block columns, whose codes are in range."""
    kept = _kept(columns, scheme)
    b1s, b2s, b3s, b4s = columns
    ds = map(sub, map(mul, b1s, b4s), map(mul, b2s, b3s))
    return CodedMessage(scheme, n_rule, dim, alphabet_id, ds, *kept)


def _kept(columns, scheme: Scheme):
    """The kept columns (b1s, b2s, b4s), resp. (b1s, b2s, b3s), of the block
    columns.  Raises TypeError unless `scheme` is a Scheme, then
    DegenerateBlock listing every block whose pivot is zero."""
    lucas = _member(scheme, Scheme) is Scheme.LUCAS_BLOCKING
    b1s, b2s, b3s, b4s = columns
    pivots = b2s if lucas else b1s
    if 0 in pivots:
        raise DegenerateBlock([index for index, p in enumerate(pivots, start=1) if p == 0])
    return b1s, b2s, b4s if lucas else b3s


def solve_missing(row: FRow, scheme: Scheme, *, size: int = DEFAULT_ALPHABET.size) -> int:
    """The dropped element of one row: b3 of a LUCAS_BLOCKING row
    (d, b1, b2, b4), b4 of a MINESWEEPER row (d, b1, b2, b3).

    This is the whole per-row verdict.  It reads the row alone: the key
    cancels from the paper's decode equation, so neither the key index n nor
    the block index enters.  Raises TamperDetected at the first failing
    check: kept codes k1, k2, k3 in [0, size), a nonzero pivot, exact
    division, then the recovered code in [0, size).
    """
    check, x = _verdict(row, _member(scheme, Scheme) is Scheme.LUCAS_BLOCKING, size)
    if check is not None:
        raise TamperDetected(check.format(_int_text(x), size))
    return x


# `_verdict`'s checks in the order it runs them, each the text that names its
# failure, filled with the value it names and the alphabet size
_KEPT_OUT = "kept code {} outside [0, {})"
_ZERO_PIVOT = "zero pivot, dropped element unrecoverable (d={})"
_INEXACT = "no exact solution for dropped element (d={})"
_RECOVERED_OUT = "recovered code {} outside [0, {})"


def _verdict(row, lucas: bool, size: int):
    """`solve_missing` without the exception: (None, x) for the dropped
    element x, else (check, value), the first check the row fails and the
    value its text names."""
    d, k1, k2, k3 = row
    for code in (k1, k2, k3):
        if not 0 <= code < size:
            return _KEPT_OUT, code
    pivot = k2 if lucas else k1
    if pivot == 0:
        # the determinant does not involve the dropped element
        return _ZERO_PIVOT, d
    try:
        x, remainder = divmod(k1 * k3 - d if lucas else d + k2 * k3, pivot)
    except OverflowError:  # a float code meets an int past float range
        return _INEXACT, d
    if remainder != 0:
        return _INEXACT, d
    if not 0 <= x < size:
        return _RECOVERED_OUT, x
    return None, x


def _in_range(codes, size: int):
    """`codes` if all are in [0, size), as bytes if size <= 256; else None."""
    if size <= len(_BYTES):
        try:  # bytes() refuses all but an int in range(256), and leaves those to the test below
            codes = bytes(codes)
            return None if codes.translate(None, _BYTES[:size]) else codes
        except (TypeError, ValueError):
            pass
    return codes if 0 <= min(codes) and max(codes) < size else None


def _solve(coded: CodedMessage, size: int):
    """(k1s, k2s, xs, k3s), resp. (k1s, k2s, k3s, xs): the block columns of the payload's
    grid over `size` symbols, as `_in_range` gives them.  Raises what `decode` raises."""
    lucas = coded.scheme is Scheme.LUCAS_BLOCKING
    ds = coded.ds
    kept = [_in_range(column, size) for column in (coded.k1s, coded.k2s, coded.k3s)]
    start = 0
    if None not in kept and 0 not in kept[1 if lucas else 0]:
        k1s, k2s, k3s = kept
        try:
            if lucas:
                pivots, numerators = k2s, [*map(sub, map(mul, k1s, k3s), ds)]
            else:
                pivots, numerators = k1s, [*map(add, ds, map(mul, k2s, k3s))]
            xs = [*map(floordiv, numerators, pivots)]
            remainders = [*map(mod, numerators, pivots)]
        except OverflowError:  # a float code meets an int past float range: the walk names it
            pass
        else:
            if not any(remainders) and (column := _in_range(xs, size)) is not None:
                return (k1s, k2s, column, k3s) if lucas else (k1s, k2s, k3s, column)
            start = next(i for i in range(len(xs)) if remainders[i] or not 0 <= xs[i] < size)
    # from start, a lower bound on the first bad row, the per-row verdict names it
    rows = zip(ds[start:], coded.k1s[start:], coded.k2s[start:], coded.k3s[start:])
    for index, row in enumerate(rows, start + 1):
        try:
            solve_missing(row, coded.scheme, size=size)
        except TamperDetected as exc:
            raise TamperDetected(f"block {index}: {exc}", block_index=index) from None


def encode_text(
    text: str,
    scheme: Scheme,
    n_rule: NRule = NRule.HALF,
    alphabet_id: str = DEFAULT_ALPHABET_ID,
) -> CodedMessage:
    """Full sender pipeline: preprocess, derive the table, fill, encode."""
    columns, dim = _text_columns(text, n_rule, alphabet_id)
    return _encode(columns, scheme, n_rule, dim, alphabet_id)


def _text_columns(text: str, n_rule: NRule, alphabet_id: str):
    """(block columns, dim) of the text's codes: `encode_text` up to the
    determinants, raising what it raises there, in the same order."""
    alphabet = get_alphabet(alphabet_id)
    padded = _padded(text, alphabet)
    dim = math.isqrt(len(padded))
    # one translate through the shifted table both screens and codes the text
    codes = _codes((alphabet, choose_n((dim // 2) ** 2, n_rule)), padded)
    return _columns(codes, dim), dim


def decode_text(coded: CodedMessage) -> str:
    """Full receiver pipeline: decode and render the symbol string."""
    alphabet = get_alphabet(coded.alphabet_id)
    return _symbols((alphabet, coded.n), _flat(*_solve(coded, alphabet.size), coded.dim))
