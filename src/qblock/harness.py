"""Corruption injection and detection-rate measurement.

A corruption is a set of row edits (`_damage`), which `corrupt` writes into
a copy of the payload.  A trial takes decode's verdict on the edited rows
alone, since every other row decodes to its original block:

    detected      an edited row fails `solve_missing`: decode would raise
    miscorrected  every edited row solves: decode gives a different matrix

An edited row that solves always decodes to a different block: the kept
codes are part of it, the dropped code is injective in d for a nonzero
pivot, and swap-rows exchanges only rows that differ.  So `undetected_equal`
(decode gives the original matrix back) stays zero; only the full-decode
test oracle could count one.  Trial t draws as `_damage` with seed spec.seed + t.

The draws read rows through a reader row(i) -> (d, k1, k2, k3); `_damage`'s
reads the record.  `detection_rate` builds no `CodedMessage`: it takes the
block columns from `codec._text_columns` and the pivot check from `codec._kept`,
so it raises what `encode_text` raises, and its reader computes d = b1*b4 - b2*b3
for the one row asked for, the value the record would hold.  So the draws are
those of `corrupt` on `encode_text`'s record, and a trial pays only for its rows.
Its verdict is `codec._verdict`, the checks of `solve_missing` returned as a
value rather than raised, so a detected trial builds no exception.

Swap-rows needs no draw at all: every row of an encoded record solves, and a
swap exchanges two of them, so each trial is miscorrected whichever pair it
draws.  `detection_rate` runs the checks `_drawer` makes (at least two rows,
not all identical) and returns that report in closed form: no stream, no
draw and no verdict, O(rows) for any number of trials.  `corrupt` still draws
the pair.

Draws come from `_Stream`, a SplitMix64 counter stream (Steele, Lea and
Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014):
seed k starts from state 2k for k >= 0 and -2k - 1 for k < 0, taken mod
2**64, so every seed in [-2**63, 2**63) has a start state of its own and
seed -k never starts where seed k does.  Beyond that range two seeds of the
same sign that differ by a multiple of 2**63 draw alike (seed 2**63 draws
what seed 0 draws).  A stream costs a few int operations to build, so each
perturb trial of `detection_rate` builds its own for seed + t, as `_damage`
does for `trial_spec(spec, t)`.  A draw is one exactly uniform value,
split mixed-radix into its parts (see `_drawer`), so a perturb trial that
does not wrap back reads one 64-bit word.  The draws are pure int
arithmetic, the same on every Python version.
"""

from collections import namedtuple
from enum import Enum
from operator import index

from .alphabet import DEFAULT_ALPHABET_ID, _Record, get_alphabet
from .codec import CodedMessage, Scheme, _kept, _text_columns, _verdict
from .errors import NotEnoughRows, _int_text
from .layout import NRule, _member

OUTCOME_DETECTED = "detected"
OUTCOME_MISCORRECTED = "miscorrected"
OUTCOME_UNDETECTED_EQUAL = "undetected_equal"


class Strategy(Enum):
    PERTURB_D = "perturb-d"
    PERTURB_KEPT = "perturb-kept"
    SWAP_ROWS = "swap-rows"


class CorruptionSpec(_Record, namedtuple("CorruptionSpec", "strategy magnitude seed")):
    __slots__ = ()

    def __new__(cls, strategy: Strategy, magnitude: int = 1, seed: int = 0):
        _member(strategy, Strategy)
        magnitude, seed = index(magnitude), index(seed)
        if magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {_int_text(magnitude)}")
        return super().__new__(cls, strategy, magnitude, seed)


class DetectionReport(
    namedtuple("DetectionReport", "detected miscorrected trials outcomes", defaults=((),))
):
    __slots__ = ()

    @property
    def undetected_equal(self) -> int:
        return self.trials - self.detected - self.miscorrected

    def summary(self) -> str:
        return (
            f"trials={self.trials} detected={self.detected} "
            f"miscorrected={self.miscorrected} undetected_equal={self.undetected_equal}"
        )


def corrupt(coded: CodedMessage, spec: CorruptionSpec) -> CodedMessage:
    """Deterministically damage the payload: a copy with `_damage`'s edits.

    PERTURB_D and PERTURB_KEPT draw the row, the field (`d`, or one of
    k1/k2/k3) and a signed delta of 1..magnitude, uniform and independent,
    as one value (see `_drawer`).  A kept code is reduced mod the alphabet
    size, and a draw that wraps back to the old value is drawn again, so the
    result always differs from the input in exactly one field.  SWAP_ROWS is
    never detected: `solve_missing` reads only the row, so a moved row
    decodes to the same block at its new index.
    Raises TypeError unless `spec` is a CorruptionSpec.
    """
    columns = [list(column) for column in coded[4:]]  # ds, k1s, k2s, k3s
    for i, row in _damage(coded, spec).items():
        for column, value in zip(columns, row):
            column[i] = value
    return coded._make((*coded[:4], *columns))


def _damage(coded: CodedMessage, spec: CorruptionSpec) -> dict[int, tuple[int, int, int, int]]:
    """`corrupt`'s damage as row edits, {0-based row: new (d, k1, k2, k3)}:
    one row for the perturb strategies, the drawn pair for SWAP_ROWS."""
    ds, k1s, k2s, k3s = coded[4:]
    draw = _drawer(lambda i: (ds[i], k1s[i], k2s[i], k3s[i]), len(ds), coded.alphabet_id, spec)
    return draw(_Stream(spec.seed))


_SPAN = 1 << 64
_MASK = _SPAN - 1


class _Stream:
    """The SplitMix64 stream of a seed (see the module docstring): word i is
    the mix of start + i * 0x9E3779B97F4A7C15 mod 2**64, i = 1, 2, ..."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = (seed << 1 if seed >= 0 else ~seed << 1 | 1) & _MASK

    def _word(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK
        return z ^ z >> 31

    def below(self, n: int) -> int:
        """An int uniform in range(n), n >= 1, by rejection: a try joins the
        fewest 64-bit words whose span covers n, and is drawn again if it falls
        below span mod n, so the values left are a whole multiple of n."""
        while True:
            x, span = self._word(), _SPAN
            while span < n:
                x, span = x << 64 | self._word(), span << 64
            if x >= span % n:
                return x % n


def _drawer(row, rows_n: int, alphabet_id: str, spec: CorruptionSpec):
    """`_damage`'s draw over the rows row(0) .. row(rows_n - 1), each (d, k1, k2, k3),
    as a function of the `_Stream`, after the work that no draw changes.

    A perturb draw is one value below(rows_n * F * magnitude * 2), F = 3 for
    PERTURB_KEPT and 1 for PERTURB_D, split mixed-radix, lowest digit first,
    into the sign (0 adds, 1 subtracts), delta - 1 (delta in 1..magnitude),
    the field (k1, k2 or k3, or d) and the row: a bijection, so the four are
    uniform and independent.  A kept code that wraps back to its value draws
    the whole value again.  A swap draw reads i = below(rows_n) and
    j = below(rows_n - 1), j stepping over i, and is drawn again while rows
    i and j are equal.
    Raises TypeError unless `spec` is a CorruptionSpec."""
    if not isinstance(spec, CorruptionSpec):
        raise TypeError(f"expected a CorruptionSpec, got {type(spec).__name__}")
    kept = spec.strategy is Strategy.PERTURB_KEPT
    size = get_alphabet(alphabet_id).size if kept else None
    magnitude, fields = spec.magnitude, 3 if kept else 1
    values = rows_n * fields * magnitude * 2  # a perturb draw's row, field, delta and sign
    swap = spec.strategy is Strategy.SWAP_ROWS
    if swap:  # exchange two rows that differ in value, drawn uniformly by rejection
        if rows_n < 2:
            raise NotEnoughRows("need at least 2 rows to swap")
        rows = map(row, range(rows_n))
        first = next(rows)
        if all(other == first for other in rows):
            raise NotEnoughRows("all rows are identical, swapping changes nothing")

    def draw(stream):
        below = stream.below
        while not swap:
            value, sign = divmod(below(values), 2)
            i, delta = divmod(value, magnitude)
            i, field = divmod(i, fields)
            field += kept  # k1, k2, k3 after d
            edited = list(row(i))
            new = edited[field] - delta - 1 if sign else edited[field] + delta + 1
            if kept:
                new %= size
            if new != edited[field]:  # only a kept code can wrap, when magnitude >= size
                edited[field] = new
                return {i: tuple(edited)}
        while True:  # a rejection draw, so a swap-rows trial stays linear in the row count
            i, j = below(rows_n), below(rows_n - 1)
            j += j >= i
            row_i, row_j = row(i), row(j)
            if row_i != row_j:
                return {i: row_j, j: row_i}

    return draw


def trial_spec(spec: CorruptionSpec, trial: int) -> CorruptionSpec:
    """The spec actually used for trial number `trial` (0-based)."""
    return spec._replace(seed=spec.seed + trial)


def detection_rate(
    message: str,
    scheme: Scheme,
    spec: CorruptionSpec,
    trials: int,
    n_rule: NRule = NRule.HALF,
    alphabet_id: str = DEFAULT_ALPHABET_ID,
) -> DetectionReport:
    """Corrupt `trials` times and tally decode's verdicts, each taken by
    solving only the row `_damage` edits, or for SWAP_ROWS in closed form
    (see the module docstring)."""
    trials = index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_int_text(trials)}")
    columns, _ = _text_columns(message, n_rule, alphabet_id)
    b1s, b2s, b3s, b4s = columns
    k1s, k2s, k3s = _kept(columns, scheme)
    size = get_alphabet(alphabet_id).size
    draw = _drawer(lambda i: (b1s[i] * b4s[i] - b2s[i] * b3s[i], k1s[i], k2s[i], k3s[i]),
                   len(b1s), alphabet_id, spec)
    if spec.strategy is Strategy.SWAP_ROWS:  # two encoded rows that differ, each of which solves
        return DetectionReport(0, trials, trials, (OUTCOME_MISCORRECTED,) * trials)
    lucas = scheme is Scheme.LUCAS_BLOCKING
    outcomes = []
    for trial in range(trials):  # trial_spec(spec, trial)'s stream, as `_damage` builds it
        (row,) = draw(_Stream(spec.seed + trial)).values()
        check, _ = _verdict(row, lucas, size)
        outcomes.append(OUTCOME_MISCORRECTED if check is None else OUTCOME_DETECTED)
    return DetectionReport(
        outcomes.count(OUTCOME_DETECTED),
        outcomes.count(OUTCOME_MISCORRECTED),
        trials,
        tuple(outcomes),
    )
