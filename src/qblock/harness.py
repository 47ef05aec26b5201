"""Corruption injection and detection-rate measurement.

Each trial corrupts one field of a payload and takes decode's verdict on
the rows `corrupt` changed: `solve_missing` per row, since a row left alone
decodes to its original block.  Three outcomes:

    detected          decode would raise TamperDetected: a changed row fails
    miscorrected      decode would succeed with a different matrix
    undetected_equal  decode would reproduce the original matrix exactly

All strategies touch fields that enter the decoded output, so
undetected_equal stays zero; it is counted anyway as a sanity check.
Trial t of a run uses seed (spec.seed + t), so individual trials are
independently reproducible.
"""

import random
from collections import namedtuple
from enum import Enum

from .alphabet import DEFAULT_ALPHABET_ID, _Record, get_alphabet
from .codec import CodedMessage, Scheme, encode_text, solve_missing
from .errors import NotEnoughRows, TamperDetected
from .layout import NRule

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
    """Deterministically damage one field of the payload.

    PERTURB_D and PERTURB_KEPT draw, in this order, the row, the field (`d`,
    or one of k1/k2/k3) and a signed delta of 1..magnitude.  A kept code is
    reduced mod the alphabet size, and a draw that wraps back to the old
    value is drawn again, so the result always differs from the input in
    exactly one field.  SWAP_ROWS is never detected: `solve_missing` reads
    only the row, so a moved row decodes to the same block at its new index.
    """
    return _damage(coded, spec)[0]


def _damage(coded: CodedMessage, spec: CorruptionSpec) -> tuple[CodedMessage, tuple[int, ...]]:
    """`corrupt`'s damaged record, and the 0-based rows it changed."""
    rng = random.Random(spec.seed)
    rows_n = len(coded.ds)
    kept = spec.strategy is Strategy.PERTURB_KEPT
    if kept or spec.strategy is Strategy.PERTURB_D:
        while True:
            i = rng.randrange(rows_n)
            field = rng.choice(("k1s", "k2s", "k3s")) if kept else "ds"
            column = getattr(coded, field)
            new = column[i] + rng.randint(1, spec.magnitude) * rng.choice((1, -1))
            if kept:
                new %= get_alphabet(coded.alphabet_id).size
            if new != column[i]:  # only a kept code can wrap, when magnitude >= size
                return coded._replace(**{field: column[:i] + (new,) + column[i + 1 :]}), (i,)

    # SWAP_ROWS: exchange two rows that differ in value, drawn uniformly by
    # rejection so a trial stays linear in the row count
    if rows_n < 2:
        raise NotEnoughRows("need at least 2 rows to swap")
    columns = [list(column) for column in coded[4:]]  # ds, k1s, k2s, k3s
    rows = zip(*columns)
    first = next(rows)
    if all(row == first for row in rows):
        raise NotEnoughRows("all rows are identical, swapping changes nothing")
    while True:
        i, j = rng.sample(range(rows_n), 2)
        if [column[i] for column in columns] != [column[j] for column in columns]:
            break
    for column in columns:
        column[i], column[j] = column[j], column[i]
    return coded._make((*coded[:4], *columns)), (i, j)


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
    """Corrupt `trials` times and tally decode's verdicts, each taken on the
    changed rows alone: a trial solves one or two rows, not the payload."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coded = encode_text(message, scheme, n_rule, alphabet_id)
    size = get_alphabet(coded.alphabet_id).size

    def block(payload, i):  # row i as decode gives it back, (k1, k2, k3, x)
        row = payload.ds[i], payload.k1s[i], payload.k2s[i], payload.k3s[i]
        return (*row[1:], solve_missing(row, coded.scheme, size=size))

    outcomes = []
    for trial in range(trials):
        damaged, changed = _damage(coded, trial_spec(spec, trial))
        try:
            moved = [block(damaged, i) != block(coded, i) for i in changed]
        except TamperDetected:
            outcomes.append(OUTCOME_DETECTED)
        else:
            outcomes.append(OUTCOME_MISCORRECTED if any(moved) else OUTCOME_UNDETECTED_EQUAL)
    return DetectionReport(
        outcomes.count(OUTCOME_DETECTED),
        outcomes.count(OUTCOME_MISCORRECTED),
        trials,
        tuple(outcomes),
    )
