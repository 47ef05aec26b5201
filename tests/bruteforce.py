"""Independent brute-force oracles for the decode equations and the harness.

The key and scan oracles are recomputed from scratch (recurrences by
iteration, the equations verbatim), deliberately sharing no code with the
package, so the closed-form solver can be checked against an exhaustive
scan.  `outcomes_by_decode` is the harness's slow reference: it takes each
trial's verdict from a full `decode` of the record `corrupt` builds, where
`detection_rate` solves only the rows `_damage` edits.  It compares every
decode that succeeds with the original matrix, so it alone could count an
`undetected_equal` trial; `detection_rate` relies on there being none.
`NON_ROW_RE` is the wire body's grammar as one regular expression, the
oracle for `parse`'s shape check and token memo.
"""

import re

from qblock.codec import decode, encode_text
from qblock.errors import TamperDetected
from qblock.harness import (
    OUTCOME_DETECTED,
    OUTCOME_MISCORRECTED,
    OUTCOME_UNDETECTED_EQUAL,
    DetectionReport,
    corrupt,
    trial_spec,
)

# the start of the first body line that is not exactly one canonical row
# (no '+', no leading zeros, no '-0'); a lookahead keeps no backtracking
# state from line to line
_INT = r"(?:0|-?[1-9][0-9]*)"
NON_ROW_RE = re.compile(rf"^(?!{_INT},{_INT},{_INT},{_INT}$|\Z)", re.MULTILINE)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def luc(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def key_det(seq, n):
    """Determinant of [[t(n+1), t(n)], [t(n), t(n-1)]], t = fib or luc."""
    return seq(n + 1) * seq(n - 1) - seq(n) ** 2


def scan_lucas(d, b1, b2, b4, n, size=30):
    """All x in [0, size) satisfying the blocking equation with key R_n."""
    r1, r2, r3, r4 = luc(n + 1), luc(n), luc(n), luc(n - 1)
    e1 = r1 * b1 + r3 * b2
    e2 = r2 * b1 + r4 * b2
    target = 5 * (-1) ** (n + 1) * d
    return [
        x
        for x in range(size)
        if target == e1 * (r2 * x + r4 * b4) - e2 * (r1 * x + r3 * b4)
    ]


def scan_mine(d, b1, b2, b3, n, i, size=30):
    """All x in [0, size) satisfying the mixed-scheme equation for block i."""
    if i % 2:
        k1, k2, k3, k4 = fib(n + 1), fib(n), fib(n), fib(n - 1)
        target = (-1) ** n * d
    else:
        k1, k2, k3, k4 = luc(n + 1), luc(n), luc(n), luc(n - 1)
        target = 5 * (-1) ** (n + 1) * d
    e1 = k1 * b1 + k3 * b2
    e2 = k2 * b1 + k4 * b2
    return [
        x
        for x in range(size)
        if target == e1 * (k2 * b3 + k4 * x) - e2 * (k1 * b3 + k3 * x)
    ]


def outcomes_by_decode(message, scheme, spec, trials, n_rule):
    """`detection_rate`'s report, from a full decode of every damaged payload."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    coded = encode_text(message, scheme, n_rule)
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
