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

A seed k >= 0 seeds `random.Random` as the int k; a negative k seeds it
from the string f"neg{k}", since `Random.seed` takes an int's absolute
value and seed -k would otherwise draw exactly what seed k draws.
"""

import random
from collections import namedtuple
from enum import Enum
from operator import index

from .alphabet import DEFAULT_ALPHABET_ID, _Record, get_alphabet
from .codec import CodedMessage, Scheme, _kept, _text_columns, solve_missing
from .errors import NotEnoughRows, TamperDetected, _int_text
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

    PERTURB_D and PERTURB_KEPT draw, in this order, the row, the field (`d`,
    or one of k1/k2/k3) and a signed delta of 1..magnitude.  A kept code is
    reduced mod the alphabet size, and a draw that wraps back to the old
    value is drawn again, so the result always differs from the input in
    exactly one field.  SWAP_ROWS is never detected: `solve_missing` reads
    only the row, so a moved row decodes to the same block at its new index.
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
    return draw(random.Random(_seed(spec.seed)))


def _seed(seed: int) -> int | str:
    """What a generator for `seed` is seeded with (see the module docstring)."""
    return seed if seed >= 0 else f"neg{seed}"


def _drawer(row, rows_n: int, alphabet_id: str, spec: CorruptionSpec):
    """`_damage`'s draw over the rows row(0) .. row(rows_n - 1), each (d, k1, k2, k3),
    as a function of the generator, after the work that no draw changes."""
    kept = spec.strategy is Strategy.PERTURB_KEPT
    size = get_alphabet(alphabet_id).size if kept else None
    swap = spec.strategy is Strategy.SWAP_ROWS
    if swap:  # exchange two rows that differ in value, drawn uniformly by rejection
        if rows_n < 2:
            raise NotEnoughRows("need at least 2 rows to swap")
        rows = map(row, range(rows_n))
        first = next(rows)
        if all(other == first for other in rows):
            raise NotEnoughRows("all rows are identical, swapping changes nothing")

    def draw(rng):
        while not swap:
            i = rng.randrange(rows_n)
            field = rng.choice((1, 2, 3)) if kept else 0  # k1, k2, k3 or d
            edited = list(row(i))
            new = edited[field] + rng.randint(1, spec.magnitude) * rng.choice((1, -1))
            if kept:
                new %= size
            if new != edited[field]:  # only a kept code can wrap, when magnitude >= size
                edited[field] = new
                return {i: tuple(edited)}
        while True:  # a rejection draw, so a swap-rows trial stays linear in the row count
            i, j = rng.sample(range(rows_n), 2)
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
    solving only the rows `_damage` edits (see the module docstring)."""
    trials = index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {_int_text(trials)}")
    columns, _ = _text_columns(message, n_rule, alphabet_id)
    b1s, b2s, b3s, b4s = columns
    k1s, k2s, k3s = _kept(columns, scheme)
    size = get_alphabet(alphabet_id).size
    draw = _drawer(lambda i: (b1s[i] * b4s[i] - b2s[i] * b3s[i], k1s[i], k2s[i], k3s[i]),
                   len(b1s), alphabet_id, spec)
    rng = random.Random(_seed(spec.seed))
    outcomes = []
    for trial in range(trials):
        if trial:  # reseeded as `_damage` seeds trial_spec(spec, trial)'s generator
            rng.seed(_seed(spec.seed + trial))
        try:
            for row in draw(rng).values():
                solve_missing(row, scheme, size=size)
        except TamperDetected:
            outcomes.append(OUTCOME_DETECTED)
        else:
            outcomes.append(OUTCOME_MISCORRECTED)
    return DetectionReport(
        outcomes.count(OUTCOME_DETECTED),
        outcomes.count(OUTCOME_MISCORRECTED),
        trials,
        tuple(outcomes),
    )
