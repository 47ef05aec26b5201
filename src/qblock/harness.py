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
test oracle could count one.  Trial t uses seed spec.seed + t.
"""

import random
from collections import namedtuple
from enum import Enum

from .alphabet import DEFAULT_ALPHABET_ID, _Record, get_alphabet
from .codec import CodedMessage, Scheme, encode_text, solve_missing
from .errors import NotEnoughRows, TamperDetected
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
        if magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {magnitude}")
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


def _damage(coded: CodedMessage, spec: CorruptionSpec,
            checked: bool = False) -> dict[int, tuple[int, int, int, int]]:
    """`corrupt`'s damage as row edits, {0-based row: new (d, k1, k2, k3)}:
    one row for the perturb strategies, the drawn pair for SWAP_ROWS.
    `checked`: an earlier call on `coded` found rows that differ, so SWAP_ROWS skips that scan."""
    rng = random.Random(spec.seed)
    columns = coded[4:]
    rows_n = len(coded.ds)
    kept = spec.strategy is Strategy.PERTURB_KEPT
    if kept or spec.strategy is Strategy.PERTURB_D:
        while True:
            i = rng.randrange(rows_n)
            field = rng.choice((1, 2, 3)) if kept else 0  # k1, k2, k3 or d
            row = [column[i] for column in columns]
            new = row[field] + rng.randint(1, spec.magnitude) * rng.choice((1, -1))
            if kept:
                new %= get_alphabet(coded.alphabet_id).size
            if new != row[field]:  # only a kept code can wrap, when magnitude >= size
                row[field] = new
                return {i: tuple(row)}

    # SWAP_ROWS: exchange two rows that differ in value, drawn uniformly by
    # rejection so a trial stays linear in the row count
    if rows_n < 2:
        raise NotEnoughRows("need at least 2 rows to swap")
    rows = zip(*columns)
    first = next(rows)
    if not checked and all(row == first for row in rows):
        raise NotEnoughRows("all rows are identical, swapping changes nothing")
    while True:
        i, j = rng.sample(range(rows_n), 2)
        row_i, row_j = (tuple(column[k] for column in columns) for k in (i, j))
        if row_i != row_j:
            return {i: row_j, j: row_i}


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coded = encode_text(message, scheme, n_rule, alphabet_id)
    size = get_alphabet(coded.alphabet_id).size
    outcomes = []
    for trial in range(trials):
        try:
            # trial 0 raises any NotEnoughRows, so later trials skip the rows scan
            for row in _damage(coded, trial_spec(spec, trial), trial > 0).values():
                solve_missing(row, coded.scheme, size=size)
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
