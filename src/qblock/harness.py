"""Corruption injection and detection-rate measurement.

Each trial corrupts one field of a payload and decodes it.  Three outcomes:

    detected          decode raised TamperDetected
    miscorrected      decode succeeded but produced a different matrix
    undetected_equal  decode reproduced the original matrix exactly

All strategies touch fields that enter the decoded output, so
undetected_equal stays zero; it is counted anyway as a sanity check.
Trial t of a run uses seed (spec.seed + t), so individual trials are
independently reproducible.
"""

import random
from collections import namedtuple
from enum import Enum

from .alphabet import DEFAULT_ALPHABET_ID, _Record, get_alphabet
from .codec import CodedMessage, Scheme, decode, encode_text
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
    rng = random.Random(spec.seed)
    rows = coded.rows
    kept = spec.strategy is Strategy.PERTURB_KEPT
    if kept or spec.strategy is Strategy.PERTURB_D:
        while True:
            i = rng.randrange(len(rows))
            field = rng.choice(("k1", "k2", "k3")) if kept else "d"
            old = getattr(rows[i], field)
            new = old + rng.randint(1, spec.magnitude) * rng.choice((1, -1))
            if kept:
                new %= get_alphabet(coded.alphabet_id).size
            if new != old:  # only a kept code can wrap, when magnitude >= size
                row = rows[i]._replace(**{field: new})
                return coded._replace(rows=rows[:i] + (row,) + rows[i + 1 :])

    # SWAP_ROWS: exchange two rows that differ in value, drawn uniformly by
    # rejection so a trial stays linear in the row count
    if len(rows) < 2:
        raise NotEnoughRows("need at least 2 rows to swap")
    if all(row == rows[0] for row in rows):
        raise NotEnoughRows("all rows are identical, swapping changes nothing")
    while True:
        i, j = rng.sample(range(len(rows)), 2)
        if rows[i] != rows[j]:
            break
    swapped = list(rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return coded._replace(rows=tuple(swapped))


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
    """Corrupt-then-decode `trials` times and tally the outcomes."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coded = encode_text(message, scheme, n_rule, alphabet_id)
    original = decode(coded)

    outcomes = []
    for trial in range(trials):
        damaged = corrupt(coded, trial_spec(spec, trial))
        try:
            result = decode(damaged)
        except TamperDetected:
            outcomes.append(OUTCOME_DETECTED)
        else:
            outcomes.append(
                OUTCOME_MISCORRECTED if result != original else OUTCOME_UNDETECTED_EQUAL
            )
    return DetectionReport(
        outcomes.count(OUTCOME_DETECTED),
        outcomes.count(OUTCOME_MISCORRECTED),
        trials,
        tuple(outcomes),
    )
