
import pytest

import golden
from qblock.codec import CodedMessage, FRow, Scheme, encode_text
from qblock.errors import DegenerateBlock, NotEnoughRows
from qblock.harness import (
    CorruptionSpec,
    Strategy,
    corrupt,
    detection_rate,
    trial_spec,
)
from qblock.layout import NRule

EX1_CODED = CodedMessage(
    Scheme.LUCAS_BLOCKING,
    NRule.HALF,
    golden.EX1_DIM,
    "default",
    tuple(FRow(*r) for r in golden.EX1_F),
)


def diff_fields(a, b):
    out = []
    for i, (ra, rb) in enumerate(zip(a.rows, b.rows)):
        for field in ("d", "k1", "k2", "k3"):
            if getattr(ra, field) != getattr(rb, field):
                out.append((i, field, getattr(ra, field), getattr(rb, field)))
    return out


def test_perturb_d_changes_exactly_one_determinant():
    for seed in range(50):
        spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=5, seed=seed)
        damaged = corrupt(EX1_CODED, spec)
        changed = diff_fields(EX1_CODED, damaged)
        assert len(changed) == 1
        _, field, old, new = changed[0]
        assert field == "d" and 1 <= abs(new - old) <= 5


def test_perturb_d_can_hit_first_row_with_plus_one():
    # some seed must edit d1 from 54 to 55
    hits = set()
    for seed in range(200):
        damaged = corrupt(EX1_CODED, CorruptionSpec(Strategy.PERTURB_D, magnitude=1, seed=seed))
        hits.add((diff_fields(EX1_CODED, damaged)[0][0], damaged.rows[0].d))
    assert (0, 55) in hits


def test_perturb_kept_changes_one_kept_code_in_range():
    for seed in range(50):
        spec = CorruptionSpec(Strategy.PERTURB_KEPT, magnitude=4, seed=seed)
        damaged = corrupt(EX1_CODED, spec)
        changed = diff_fields(EX1_CODED, damaged)
        assert len(changed) == 1
        _, field, _, new = changed[0]
        assert field in ("k1", "k2", "k3") and 0 <= new < 30


def test_perturb_kept_nine_row_payload():
    # 9 rows x 3 kept codes = 27 candidate fields; exactly one changes
    coded = encode_text(golden.EX2_MESSAGE, Scheme.MINESWEEPER)
    assert len(coded.rows) * 3 == 27
    for seed in range(30):
        damaged = corrupt(coded, CorruptionSpec(Strategy.PERTURB_KEPT, magnitude=3, seed=seed))
        changed = diff_fields(coded, damaged)
        assert len(changed) == 1 and changed[0][1] in ("k1", "k2", "k3")


def test_perturb_kept_large_magnitude_still_changes_something():
    # magnitude >= alphabet size lets a draw wrap to the original value
    for seed in range(30):
        spec = CorruptionSpec(Strategy.PERTURB_KEPT, magnitude=90, seed=seed)
        damaged = corrupt(EX1_CODED, spec)
        assert damaged != EX1_CODED


def test_swap_rows_permutes_two_rows():
    for seed in range(50):
        spec = CorruptionSpec(Strategy.SWAP_ROWS, magnitude=1, seed=seed)
        damaged = corrupt(EX1_CODED, spec)
        assert sorted(map(repr, damaged.rows)) == sorted(map(repr, EX1_CODED.rows))
        assert damaged.rows != EX1_CODED.rows


def test_swap_rows_needs_two_rows():
    single = CodedMessage(Scheme.LUCAS_BLOCKING, NRule.HALF, 2, "default", (FRow(1, 2, 3, 4),))
    with pytest.raises(NotEnoughRows):
        corrupt(single, CorruptionSpec(Strategy.SWAP_ROWS, seed=0))


def test_swap_rows_needs_two_distinct_rows():
    same = CodedMessage(
        Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "default", (FRow(1, 2, 3, 4),) * 4
    )
    with pytest.raises(NotEnoughRows):
        corrupt(same, CorruptionSpec(Strategy.SWAP_ROWS, seed=0))


def test_swap_rows_compares_rows_linearly():
    # counts row comparisons instead of timing: listing every unequal pair
    # costs b(b-1)/2 of them, the all-equal check and rejection draws O(b)
    rows_n = 4096
    budget = 2 * rows_n
    count = 0

    class CountingRow(FRow):
        # a tuple subclass's != calls tuple.__ne__, not __eq__, so count both
        def _count(self):
            nonlocal count
            count += 1
            assert count <= budget, f"corrupt made more than {budget} row comparisons"

        def __eq__(self, other):
            self._count()
            return super().__eq__(other)

        def __ne__(self, other):
            self._count()
            return super().__ne__(other)

    # 64 distinct values, so some draws hit an equal pair and are redrawn
    rows = tuple(CountingRow(i % 64, 1, 1, 1) for i in range(rows_n))
    coded = CodedMessage(Scheme.LUCAS_BLOCKING, NRule.HALF, 128, "default", rows)
    for seed in range(20):
        count = 0
        damaged = corrupt(coded, CorruptionSpec(Strategy.SWAP_ROWS, seed=seed))
        changed = [k for k in range(rows_n) if damaged.rows[k].d != rows[k].d]
        assert len(changed) == 2
        i, j = changed
        assert damaged.rows[i] is rows[j] and damaged.rows[j] is rows[i]


EX2_CODED = encode_text(golden.EX2_MESSAGE, Scheme.MINESWEEPER)

# (payload, strategy, magnitude, seed) -> the one damaged (row, field, new value).
# The draws are randrange(rows), then choice(k1/k2/k3) for perturb-kept only,
# then randint(1, magnitude), then choice((1, -1)): reordering any of them
# changes these, and so the golden detection counts.
CORRUPT_GOLDEN = [
    (EX1_CODED, Strategy.PERTURB_D, 5, 0, (3, "d", -612)),
    (EX1_CODED, Strategy.PERTURB_D, 30, 1, (1, "d", 159)),
    (EX1_CODED, Strategy.PERTURB_D, 61, 7, (2, "d", -401)),
    (EX1_CODED, Strategy.PERTURB_KEPT, 5, 2, (0, "k1", 8)),
    # the first draw (row 3, k3, -60) wraps to the old code and is drawn again
    (EX1_CODED, Strategy.PERTURB_KEPT, 90, 11, (1, "k1", 23)),
    (EX2_CODED, Strategy.PERTURB_D, 1, 0, (6, "d", 447)),
    (EX2_CODED, Strategy.PERTURB_D, 90, 1, (2, "d", 178)),
    (EX2_CODED, Strategy.PERTURB_KEPT, 30, 0, (6, "k2", 16)),
    (EX2_CODED, Strategy.PERTURB_KEPT, 61, 7, (5, "k1", 5)),
    # the first draw (row 1, k3, +90) wraps to the old code and is drawn again
    (EX2_CODED, Strategy.PERTURB_KEPT, 90, 14, (4, "k3", 3)),
]


@pytest.mark.parametrize("coded,strategy,magnitude,seed,damage", CORRUPT_GOLDEN)
def test_corrupt_draw_order_is_pinned(coded, strategy, magnitude, seed, damage):
    damaged = corrupt(coded, CorruptionSpec(strategy, magnitude, seed))
    assert [(i, field, new) for i, field, _, new in diff_fields(coded, damaged)] == [damage]


def test_corrupt_is_deterministic():
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=9, seed=31337)
    assert corrupt(EX1_CODED, spec) == corrupt(EX1_CODED, spec)


def test_magnitude_must_be_positive():
    with pytest.raises(ValueError):
        CorruptionSpec(Strategy.PERTURB_D, magnitude=0)


def test_detection_rate_accounting():
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=5, seed=0)
    report = detection_rate(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=100)
    assert report.trials == 100
    assert len(report.outcomes) == 100
    assert report.detected + report.miscorrected + report.undetected_equal == 100
    # every block pivot exceeds the magnitude, so no clean decode is possible
    assert report.undetected_equal == 0
    assert report.detected == 100


def test_detection_rate_deterministic():
    spec = CorruptionSpec(Strategy.SWAP_ROWS, seed=5)
    a = detection_rate(golden.EX2_MESSAGE, Scheme.MINESWEEPER, spec, trials=40)
    b = detection_rate(golden.EX2_MESSAGE, Scheme.MINESWEEPER, spec, trials=40)
    assert a == b


def test_detection_rate_rejects_bad_trials():
    spec = CorruptionSpec(Strategy.PERTURB_D, seed=0)
    with pytest.raises(ValueError):
        detection_rate(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=0)


def test_detection_rate_propagates_encode_errors():
    spec = CorruptionSpec(Strategy.PERTURB_D, seed=0)
    # '.' codes to 0 under shift 1, giving the single block a zero b2 pivot
    with pytest.raises(DegenerateBlock):
        detection_rate("A.AA", Scheme.LUCAS_BLOCKING, spec, trials=5)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_swap_rows_miscorrects_but_decodes(scheme):
    # the key cancels from the decode equation, so a row decodes to the same
    # block at any position: never detected, always a wrong matrix
    spec = CorruptionSpec(Strategy.SWAP_ROWS, seed=2)
    report = detection_rate(golden.EX1_MESSAGE, scheme, spec, trials=60)
    assert report.undetected_equal == 0
    assert report.miscorrected == 60


def test_trial_spec_offsets_seed():
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=2, seed=10)
    assert trial_spec(spec, 0).seed == 10
    assert trial_spec(spec, 7).seed == 17
    assert trial_spec(spec, 7).magnitude == 2
