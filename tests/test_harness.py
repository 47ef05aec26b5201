
import random

import pytest

import golden
from bruteforce import outcomes_by_decode
from payloads import from_rows
from qblock import codec, harness
from qblock.alphabet import get_alphabet
from qblock.codec import CodedMessage, Scheme, _verdict, encode_text
from qblock.errors import DegenerateBlock, NotEnoughRows, UnknownAlphabet
from qblock.harness import (
    CorruptionSpec,
    Strategy,
    _damage,
    corrupt,
    detection_rate,
    trial_spec,
)
from qblock.layout import NRule

EX1_CODED = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, golden.EX1_DIM, "default", golden.EX1_F)


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
    single = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 2, "default", [(1, 2, 3, 4)])
    with pytest.raises(NotEnoughRows, match="^need at least 2 rows to swap$"):
        corrupt(single, CorruptionSpec(Strategy.SWAP_ROWS, seed=0))
    with pytest.raises(NotEnoughRows, match="^need at least 2 rows to swap$"):
        detection_rate("A", Scheme.LUCAS_BLOCKING, CorruptionSpec(Strategy.SWAP_ROWS), 1)


def test_swap_rows_needs_two_distinct_rows():
    same = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "default", [(1, 2, 3, 4)] * 4)
    with pytest.raises(NotEnoughRows, match="^all rows are identical, swapping changes nothing$"):
        corrupt(same, CorruptionSpec(Strategy.SWAP_ROWS, seed=0))


def test_swap_rows_compares_rows_linearly():
    # counts row comparisons instead of timing: listing every unequal pair
    # costs b(b-1)/2 of them, the all-equal check and rejection draws O(b)
    rows_n = 4096
    budget = 2 * rows_n
    count = 0

    class CountingInt(int):
        # a row comparison compares d first, and calls d's __eq__ unless both
        # rows hold the same object; the other fields are the same small ints
        def __eq__(self, other):
            nonlocal count
            count += 1
            assert count <= budget, f"corrupt made more than {budget} row comparisons"
            return super().__eq__(other)

        __hash__ = int.__hash__

    # 64 distinct values, so some draws hit an equal pair and are redrawn
    ds = tuple(CountingInt(i % 64) for i in range(rows_n))
    coded = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 128, "default",
                      [(d, 1, 1, 1) for d in ds])
    for seed in range(20):
        count = 0
        damaged = corrupt(coded, CorruptionSpec(Strategy.SWAP_ROWS, seed=seed))
        assert count > 0  # the comparisons reach the counter
        changed = [k for k in range(rows_n) if damaged.ds[k] is not ds[k]]
        assert len(changed) == 2
        i, j = changed
        assert damaged.ds[i] is ds[j] and damaged.ds[j] is ds[i]
        assert damaged.rows[i] == coded.rows[j] and damaged.rows[j] == coded.rows[i]


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


def test_spec_reads_a_bool_as_an_int():
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=True, seed=True)
    assert spec == (Strategy.PERTURB_D, 1, 1)
    assert type(spec.magnitude) is int and type(spec.seed) is int
    assert CorruptionSpec(Strategy.PERTURB_D) == (Strategy.PERTURB_D, 1, 0)  # the defaults


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


def test_detection_rate_takes_trials_through_index(monkeypatch):
    spec = CorruptionSpec(Strategy.PERTURB_D, seed=0)
    report = detection_rate(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=True)
    assert report.summary().startswith("trials=1 ")  # True reads as 1, not "trials=True"
    # a trials value that is no int is refused before the text is encoded
    monkeypatch.setattr(harness, "_text_columns", None)
    for trials in ("3", 2.0):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            detection_rate(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=trials)


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


DIM32_MESSAGE = "HELLO THERE! " * 78


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "strategy,per_trial",
    [(Strategy.PERTURB_D, 1), (Strategy.PERTURB_KEPT, 1), (Strategy.SWAP_ROWS, 0)],
    ids=lambda v: getattr(v, "value", v),
)
def test_detection_rate_solves_only_the_changed_rows(monkeypatch, scheme, strategy, per_trial):
    # counts row verdicts instead of timing: each edited row is solved once,
    # and no row as encoded, where a decode reads all 256 rows; swap-rows
    # solves none, its outcome being known without a draw
    assert len(encode_text(DIM32_MESSAGE, scheme).ds) == 256
    trials = 50
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return _verdict(*args)

    monkeypatch.setattr(harness, "_verdict", counting)
    spec = CorruptionSpec(strategy, magnitude=60, seed=0)
    report = detection_rate(DIM32_MESSAGE, scheme, spec, trials=trials)
    assert report.trials == trials
    assert count == per_trial * trials


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_detection_rate_solves_the_rows_damage_draws_on_the_encoded_record(monkeypatch, strategy,
                                                                          scheme):
    # its row reader works d out of the block columns: each row it hands to
    # the verdict is the one `_damage` draws on encode_text's record, and
    # swap-rows hands it none
    solved = []

    def recording(row, *args):
        solved.append(row)
        return _verdict(row, *args)

    monkeypatch.setattr(harness, "_verdict", recording)
    # seeds that cross zero, and perturb-kept redraws that wrap at magnitude 90
    for message, magnitude, seed in ((DIM32_MESSAGE, 60, -7), (golden.EX1_MESSAGE, 90, -3)):
        spec = CorruptionSpec(strategy, magnitude, seed)
        coded = encode_text(message, scheme)
        solved.clear()
        assert detection_rate(message, scheme, spec, trials=15).trials == 15
        expected = [row for t in range(15) for row in _damage(coded, trial_spec(spec, t)).values()]
        assert solved == ([] if strategy is Strategy.SWAP_ROWS else expected)


@pytest.mark.parametrize("trials", [1, 50])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_detection_rate_builds_only_the_encoded_record(monkeypatch, strategy, trials):
    # the encoded record is now only its block columns, and a trial is its
    # row edits: no CodedMessage is built, encoded or damaged
    built = []
    new = CodedMessage.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(CodedMessage, "__new__", counting)
    spec = CorruptionSpec(strategy, magnitude=60, seed=0)
    report = detection_rate(DIM32_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=trials)
    assert report.trials == trials
    assert built == []


@pytest.mark.parametrize("trials", [1, 50])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_detection_rate_builds_one_generator_per_call(monkeypatch, strategy, trials):
    # each trial reseeds the one generator instead of building its own;
    # swap-rows draws nothing, so it builds none
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counting)
    spec = CorruptionSpec(strategy, magnitude=60, seed=3)
    report = detection_rate(DIM32_MESSAGE, Scheme.MINESWEEPER, spec, trials=trials)
    assert report.trials == trials
    assert built == ([] if strategy is Strategy.SWAP_ROWS else [(3,)])


@pytest.mark.parametrize("trials", [1, 50])
@pytest.mark.parametrize(
    "strategy,scans", [(Strategy.PERTURB_D, 0), (Strategy.PERTURB_KEPT, 0), (Strategy.SWAP_ROWS, 1)],
    ids=lambda v: getattr(v, "value", v),
)
def test_detection_rate_scans_for_identical_rows_once_per_call(monkeypatch, strategy, scans,
                                                                trials):
    # counts the all-rows-identical scans (harness's one `all`) instead of timing
    count = 0

    def counting(iterable):
        nonlocal count
        count += 1
        return all(iterable)

    monkeypatch.setattr(harness, "all", counting, raising=False)
    spec = CorruptionSpec(strategy, magnitude=60, seed=0)
    report = detection_rate(DIM32_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=trials)
    assert report.trials == trials
    assert count == scans


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_detection_rate_looks_the_alphabet_up_a_fixed_number_of_times(monkeypatch, strategy):
    looked_up = []

    def counting(alphabet_id):
        looked_up.append(alphabet_id)
        return get_alphabet(alphabet_id)

    for module in (harness, codec):
        monkeypatch.setattr(module, "get_alphabet", counting)
    spec = CorruptionSpec(strategy, magnitude=60, seed=0)
    counts = []
    for trials in (1, 50):
        looked_up.clear()
        detection_rate(DIM32_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=trials)
        counts.append(len(looked_up))
    # the text's block columns and the tally's size, and perturb-kept's own draw setup
    assert counts == ([3, 3] if strategy is Strategy.PERTURB_KEPT else [2, 2])


def test_perturb_d_damages_a_payload_whose_alphabet_is_not_registered():
    # only perturb-kept reduces by the alphabet size; perturb-d never looks it up
    rows = [(d, 1, 2, 3) for d in range(4)]
    coded = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "not-registered", rows)
    damaged = corrupt(coded, CorruptionSpec(Strategy.PERTURB_D, magnitude=5, seed=1))
    assert len(diff_fields(coded, damaged)) == 1
    with pytest.raises(UnknownAlphabet):
        corrupt(coded, CorruptionSpec(Strategy.PERTURB_KEPT, magnitude=5, seed=1))


ONE_ODD_ROW = "B" * 1023 + "C"  # 256 rows, every one equal but the last


@pytest.mark.parametrize("seed", [-1, -(2**40)])
@pytest.mark.parametrize("message", [ONE_ODD_ROW, DIM32_MESSAGE], ids=["one-odd-row", "dim32"])
def test_swap_rows_equals_the_full_decode_oracle_in_linear_row_comparisons(monkeypatch, message,
                                                                          seed):
    # counts row comparisons instead of timing, as test_swap_rows_compares_rows_linearly
    # does for corrupt: the all-rows-identical scan is O(rows), and no trial draws a
    # pair, where a rejection draw on one odd row costs about rows/2 of them a trial
    rows_n = 256
    budget = 2 * rows_n
    spec = CorruptionSpec(Strategy.SWAP_ROWS, magnitude=60, seed=seed)
    expected = {scheme: outcomes_by_decode(message, scheme, spec, 20, NRule.HALF)
                for scheme in Scheme}
    count = 0

    class CountingRow(tuple):
        def __eq__(self, other):
            nonlocal count
            count += 1
            return super().__eq__(other)

        def __ne__(self, other):
            nonlocal count
            count += 1
            return super().__ne__(other)

        __hash__ = tuple.__hash__

    drawer = harness._drawer
    monkeypatch.setattr(harness, "_drawer",
                        lambda row, *args: drawer(lambda i: CountingRow(row(i)), *args))
    for scheme in Scheme:
        assert len(encode_text(message, scheme).ds) == rows_n
        for trials in (1, 20, 10_000):
            count = 0
            report = detection_rate(message, scheme, spec, trials=trials)
            assert 0 < count <= budget  # the comparisons reach the counter
            # trial by trial as far as the oracle ran, and no other outcome past it
            assert report.outcomes[:20] == expected[scheme].outcomes[:trials]
            assert set(report.outcomes) == set(expected[scheme].outcomes)
            if trials == 20:
                assert report == expected[scheme]


@pytest.mark.parametrize("spec", [Strategy.SWAP_ROWS, "swap-rows", None],
                         ids=["strategy", "str", "none"])
def test_a_spec_that_is_no_corruption_spec_is_refused_by_its_type(spec):
    expected = f"^expected a CorruptionSpec, got {type(spec).__name__}$"
    with pytest.raises(TypeError, match=expected):
        corrupt(EX1_CODED, spec)
    with pytest.raises(TypeError, match=expected):
        detection_rate(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING, spec, trials=5)


@pytest.mark.parametrize("seed", [-1, -(2**40), 2**31 - 1, 2**64, 10**30])
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_detection_rate_equals_the_full_decode_oracle_at_negative_and_large_seeds(strategy, seed):
    spec = CorruptionSpec(strategy, magnitude=60, seed=seed)
    for scheme in Scheme:
        expected = outcomes_by_decode(DIM32_MESSAGE, scheme, spec, 20, NRule.HALF)
        assert detection_rate(DIM32_MESSAGE, scheme, spec, trials=20) == expected


def test_a_negative_seed_does_not_draw_what_its_absolute_value_draws():
    # Random.seed takes an int's absolute value; a negative seed is seeded from a string
    coded = encode_text(DIM32_MESSAGE, Scheme.LUCAS_BLOCKING)
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=60, seed=2)
    assert _damage(coded, spec) == {28: (175, 12, 5, 22)}
    assert _damage(coded, spec._replace(seed=-2)) != _damage(coded, spec)
    for seed in range(1, 20):
        drawn = {strategy: _damage(coded, CorruptionSpec(strategy, 60, seed))
                 for strategy in Strategy}
        assert drawn != {strategy: _damage(coded, CorruptionSpec(strategy, 60, -seed))
                         for strategy in Strategy}


def test_trial_spec_offsets_seed():
    spec = CorruptionSpec(Strategy.PERTURB_D, magnitude=2, seed=10)
    assert trial_spec(spec, 0).seed == 10
    assert trial_spec(spec, 7).seed == 17
    assert trial_spec(spec, 7).magnitude == 2
