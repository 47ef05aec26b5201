import itertools
import random

import pytest

import golden
from bruteforce import scan_lucas, scan_mine
from qblock import numtheory
from qblock.alphabet import Alphabet, register_alphabet
from qblock.codec import (
    CodedMessage,
    DecodeTrace,
    FRow,
    Scheme,
    decode,
    decode_text,
    decode_with_trace,
    encode,
    encode_text,
    solve_missing,
)
from qblock.errors import (
    DegenerateBlock,
    HeaderMismatch,
    TamperDetected,
    UnknownAlphabet,
)
from qblock.layout import MessageMatrix, NRule, choose_n, to_blocks
from qblock.numtheory import key_determinant
from qblock.wire import parse, serialize


def coded_from(f_rows, scheme, dim):
    return CodedMessage(scheme, NRule.HALF, dim, "default", tuple(FRow(*r) for r in f_rows))


EX1_CODED = coded_from(golden.EX1_F, Scheme.LUCAS_BLOCKING, golden.EX1_DIM)
EX2_CODED = coded_from(golden.EX2_F, Scheme.MINESWEEPER, golden.EX2_DIM)


def random_matrix(rng, dims=(2, 4, 6, 8, 10)):
    dim = rng.choice(dims)
    cells = tuple(tuple(rng.randrange(30) for _ in range(dim)) for _ in range(dim))
    return MessageMatrix(dim, cells)


# ---- encoding ----

def test_encode_example_1():
    matrix = MessageMatrix(golden.EX1_DIM, golden.EX1_MATRIX)
    coded = encode(matrix, Scheme.LUCAS_BLOCKING)
    assert tuple((r.d, r.k1, r.k2, r.k3) for r in coded.rows) == golden.EX1_F
    assert coded.n == golden.EX1_N


def test_encode_example_2():
    matrix = MessageMatrix(golden.EX2_DIM, golden.EX2_MATRIX)
    coded = encode(matrix, Scheme.MINESWEEPER)
    assert tuple((r.d, r.k1, r.k2, r.k3) for r in coded.rows) == golden.EX2_F
    assert coded.n == golden.EX2_N


def test_encode_text_examples():
    assert encode_text(golden.EX1_MESSAGE, Scheme.LUCAS_BLOCKING) == EX1_CODED
    assert encode_text(golden.EX2_MESSAGE, Scheme.MINESWEEPER) == EX2_CODED


def test_encode_all_ones_block():
    coded = encode(MessageMatrix(2, ((1, 1), (1, 1))), Scheme.LUCAS_BLOCKING)
    assert coded.rows == (FRow(0, 1, 1, 1),)


def test_encode_rejects_zero_pivot():
    # b2 = 0 in the only block
    matrix = MessageMatrix(2, ((5, 0), (7, 3)))
    with pytest.raises(DegenerateBlock) as info:
        encode(matrix, Scheme.LUCAS_BLOCKING)
    assert info.value.indices == (1,)
    # same cells are fine for the other scheme (pivot is b1 there)
    encode(matrix, Scheme.MINESWEEPER)
    matrix2 = MessageMatrix(4, ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 0, 1), (2, 3, 4, 5)))
    with pytest.raises(DegenerateBlock) as info:
        encode(matrix2, Scheme.MINESWEEPER)
    assert info.value.indices == (1, 4)


# b1 = 0: minesweeper, the branch a non-member used to fall into, refuses it
ZERO_B1 = MessageMatrix(2, ((0, 1), (1, 1)))
# lucas recovers x = 2 from this row, minesweeper 0
ONE_ROW = (FRow(-1, 1, 1, 1),)
NOT_A_MEMBER = {
    "solve_missing": lambda value: solve_missing(ONE_ROW[0], value),
    "encode": lambda value: encode(ZERO_B1, value),
    "CodedMessage-scheme": lambda value: CodedMessage(value, NRule.HALF, 2, "default", ONE_ROW),
    "CodedMessage-n_rule": lambda value: CodedMessage(
        Scheme.LUCAS_BLOCKING, value, 2, "default", ONE_ROW
    ),
    "choose_n": lambda value: choose_n(8, value),
    "encode_text-scheme": lambda value: encode_text("HI", value),
    "encode_text-n_rule": lambda value: encode_text("HI", Scheme.LUCAS_BLOCKING, value),
}


@pytest.mark.parametrize("value", ["lucas", 2, "half", None], ids=repr)
@pytest.mark.parametrize("call", NOT_A_MEMBER.values(), ids=NOT_A_MEMBER.keys())
def test_a_scheme_or_n_rule_that_is_not_a_member_is_a_type_error(call, value):
    # a value that is not a member must not fall through to another member's branch
    with pytest.raises(TypeError, match=f"member, got {value!r}$"):
        call(value)


# ---- the row type ----

def test_frow_is_a_named_tuple():
    row = FRow(54, 9, 10, 16)
    assert FRow._fields == ("d", "k1", "k2", "k3")
    assert row == FRow(d=54, k1=9, k2=10, k3=16) == (54, 9, 10, 16)
    assert (row.d, row.k1, row.k2, row.k3) == (54, 9, 10, 16)
    assert row._replace(k2=0) == FRow(54, 9, 0, 16) and row.k2 == 10
    assert hash(row) == hash(FRow(d=54, k1=9, k2=10, k3=16))
    # immutable, as every record of the package is
    with pytest.raises(AttributeError):
        row.d = 0


def test_encode_and_parse_build_frows():
    coded = encode_text(golden.EX2_MESSAGE, Scheme.MINESWEEPER)
    parsed = parse(serialize(coded))
    assert parsed == coded
    assert all(type(row) is FRow for row in coded.rows + parsed.rows)


# ---- solvers ----

@pytest.mark.parametrize(
    "row,expected",
    [
        (FRow(54, 9, 10, 16), 9),
        (FRow(140, 29, 28, 28), 24),
        (FRow(-462, 2, 19, 16), 26),
        (FRow(-616, 6, 28, 0), 22),
    ],
)
def test_solve_missing_lucas_example_1(row, expected):
    assert solve_missing(row, Scheme.LUCAS_BLOCKING) == expected


def test_solve_missing_lucas_detects_bad_determinant():
    # (9 * 16 - 55) / 10 is not an integer
    with pytest.raises(TamperDetected):
        solve_missing(FRow(55, 9, 10, 16), Scheme.LUCAS_BLOCKING)


def test_solve_missing_lucas_zero_pivot():
    with pytest.raises(TamperDetected):
        solve_missing(FRow(6, 2, 0, 3), Scheme.LUCAS_BLOCKING)


def test_solve_missing_lucas_out_of_range():
    # division is exact, (3*7 - 23) / 1 = -2, but -2 is not a valid code
    with pytest.raises(TamperDetected):
        solve_missing(FRow(23, 3, 1, 7), Scheme.LUCAS_BLOCKING)


@pytest.mark.parametrize(
    "row,i,expected",
    [
        (FRow(96, 16, 12, 16), 1, 18),
        (FRow(160, 27, 8, 7), 2, 8),
        (FRow(-357, 12, 17, 21), 4, 0),
        (FRow(0, 4, 19, 0), 9, 0),
    ],
)
def test_solve_missing_mine_example_2(row, i, expected):
    assert solve_missing(row, Scheme.MINESWEEPER) == expected


def test_solve_missing_mine_detects_bad_determinant():
    with pytest.raises(TamperDetected):
        solve_missing(FRow(97, 16, 12, 16), Scheme.MINESWEEPER)


def test_solvers_match_bruteforce_scan():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 12)
        b1, b2, b3, b4 = (rng.randrange(30) for _ in range(4))
        d = b1 * b4 - b2 * b3
        if b2 != 0:
            row = FRow(d, b1, b2, b4)
            x = solve_missing(row, Scheme.LUCAS_BLOCKING)
            assert scan_lucas(d, b1, b2, b4, n) == [x] == [b3]
        if b1 != 0:
            i = rng.randint(1, 9)
            row = FRow(d, b1, b2, b3)
            x = solve_missing(row, Scheme.MINESWEEPER)
            assert scan_mine(d, b1, b2, b3, n, i) == [x] == [b4]


# ---- decoding ----

def test_decode_example_1():
    matrix = decode(EX1_CODED)
    assert matrix.cells == golden.EX1_MATRIX
    assert decode_text(EX1_CODED) == golden.EX1_SYMBOLS


def test_decode_example_2():
    matrix = decode(EX2_CODED)
    assert matrix.cells == golden.EX2_MATRIX
    # bottom-right block comes back as 4 19 / 0 0
    assert (matrix.cells[4][4], matrix.cells[4][5]) == (4, 19)
    assert (matrix.cells[5][4], matrix.cells[5][5]) == (0, 0)
    assert decode_text(EX2_CODED) == golden.EX2_SYMBOLS


def test_decode_traces_example_2():
    _, traces = decode_with_trace(EX2_CODED)
    assert tuple(t.e1 for t in traces) == golden.EX2_E1
    assert tuple(t.e2 for t in traces) == golden.EX2_E2
    assert tuple(t.x for t in traces) == golden.EX2_X
    # odd blocks use the Fibonacci key, even ones the Lucas key
    assert [t.key.label for t in traces] == ["Q^4", "R_4"] * 4 + ["Q^4"]


def test_decode_trace_example_1():
    _, traces = decode_with_trace(EX1_CODED)
    assert tuple(t.e1 for t in traces) == golden.EX1_E1
    assert tuple(t.e2 for t in traces) == golden.EX1_E2
    assert tuple(t.x for t in traces) == golden.EX1_X
    assert all(t.key.label == "R_2" for t in traces)


def test_roundtrip_random_messages():
    rng = random.Random(42)
    for scheme in Scheme:
        done = 0
        while done < 200:
            matrix = random_matrix(rng)
            try:
                coded = encode(matrix, scheme)
            except DegenerateBlock:
                continue
            assert decode(coded) == matrix
            done += 1


def test_roundtrip_custom_alphabet():
    register_alphabet(Alphabet("hex16", tuple("0123456789ABCDEF")))
    # 8 symbols pad out to a 4x4 grid; under shift 2 only 'E' codes to 0,
    # so every pivot is nonzero
    coded = encode_text("ABBA DAD", Scheme.LUCAS_BLOCKING, alphabet_id="hex16")
    assert coded.alphabet_id == "hex16" and coded.n == 2
    assert decode_text(coded) == "ABBA0DAD00000000"


def test_coefficient_identities_per_block():
    rng = random.Random(7)
    for scheme in Scheme:
        done = 0
        while done < 50:
            matrix = random_matrix(rng, dims=(4, 6))
            try:
                coded = encode(matrix, scheme)
            except DegenerateBlock:
                continue
            done += 1
            _, traces = decode_with_trace(coded)
            for row, trace in zip(coded.rows, traces):
                key = trace.key
                det = key_determinant(key.family, key.n)
                if scheme is Scheme.LUCAS_BLOCKING:
                    assert trace.e1 * key.m12 - trace.e2 * key.m11 == -row.k2 * det
                else:
                    assert trace.e1 * key.m22 - trace.e2 * key.m21 == row.k1 * det


def test_trace_x_is_the_dropped_element():
    # dims up to 10 so the block grid has rows and columns enough to tell
    # block order from its transpose
    rng = random.Random(11)
    for scheme in Scheme:
        done = 0
        while done < 50:
            matrix = random_matrix(rng)
            try:
                coded = encode(matrix, scheme)
            except DegenerateBlock:
                continue
            done += 1
            decoded, traces = decode_with_trace(coded)
            assert decoded == matrix
            blocks = to_blocks(matrix)
            assert [t.index for t in traces] == [b.index for b in blocks]
            dropped = [b.b3 if scheme is Scheme.LUCAS_BLOCKING else b.b4 for b in blocks]
            assert [t.x for t in traces] == dropped


def test_decode_trace_is_a_named_tuple():
    _, traces = decode_with_trace(EX1_CODED)
    trace = traces[0]
    assert DecodeTrace._fields == ("index", "e1", "e2", "x", "key")
    assert trace == (trace.index, trace.e1, trace.e2, trace.x, trace.key)
    with pytest.raises(AttributeError):
        trace.x = 0
    again = decode_with_trace(EX1_CODED)[1]
    assert again == traces and hash(again) == hash(traces)


def test_decode_with_trace_raises_what_decode_raises():
    rng = random.Random(23)
    detected = 0
    for scheme in Scheme:
        done = 0
        while done < 200:
            matrix = random_matrix(rng)
            try:
                coded = encode(matrix, scheme)
            except DegenerateBlock:
                continue
            done += 1
            index = rng.randrange(1, len(coded.rows) + 1)
            field = rng.choice(FRow._fields)
            bad = with_row(coded, index, **{field: rng.randrange(-40, 40)})
            try:
                expected = decode(bad)
            except TamperDetected as exc:
                detected += 1
                with pytest.raises(TamperDetected) as info:
                    decode_with_trace(bad)
                assert (str(info.value), info.value.block_index) == (str(exc), exc.block_index)
            else:
                assert decode_with_trace(bad)[0] == expected
    assert 0 < detected < 400


def test_decode_header_mismatch_on_row_count():
    # a message whose row count disagrees with its dimension cannot be built,
    # including the header-only one
    for dim, rows in ((4, EX1_CODED.rows[:3]), (2, ())):
        with pytest.raises(HeaderMismatch, match=f"dimension {dim} implies"):
            CodedMessage(Scheme.LUCAS_BLOCKING, NRule.HALF, dim, "default", rows)


def test_decode_unknown_alphabet():
    bad = CodedMessage(
        Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "never-registered", EX1_CODED.rows
    )
    with pytest.raises(UnknownAlphabet):
        decode(bad)


def test_decode_rejects_out_of_range_kept_code():
    rows = list(EX1_CODED.rows)
    rows[1] = FRow(rows[1].d, rows[1].k1, 99, rows[1].k3)
    bad = CodedMessage(Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "default", tuple(rows))
    with pytest.raises(TamperDetected) as info:
        decode(bad)
    assert info.value.block_index == 2


def with_row(coded, index, **fields):
    """`coded` with the given fields of block `index` (1-based) replaced."""
    rows = list(coded.rows)
    rows[index - 1] = rows[index - 1]._replace(**fields)
    return coded._replace(rows=tuple(rows))


@pytest.mark.parametrize("decoder", [decode, decode_with_trace], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "bad,index,reason",
    [
        (with_row(EX1_CODED, 3, d=EX1_CODED.rows[2].d + 1), 3, "no exact solution"),
        # a zero pivot is in range as a kept code, so only the solver catches it
        (with_row(EX1_CODED, 2, k2=0), 2, "zero pivot"),
        (with_row(EX2_CODED, 5, k1=0), 5, "zero pivot"),
    ],
    ids=["bad-d", "lucas-zero-pivot", "mine-zero-pivot"],
)
def test_decode_reports_block_index(decoder, bad, index, reason):
    with pytest.raises(TamperDetected) as info:
        decoder(bad)
    assert info.value.block_index == index
    assert f"block {index}" in str(info.value)
    assert reason in str(info.value)


@pytest.mark.parametrize("n_rule", list(NRule), ids=lambda r: r.value)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_decode_builds_no_key(monkeypatch, scheme, n_rule):
    # the key cancels from the decode equation, so decode must not pay for
    # building one: a payload's row count cannot make it super-linear
    rng = random.Random(64)
    cells = tuple(tuple(rng.randrange(1, 30) for _ in range(64)) for _ in range(64))
    matrix = MessageMatrix(64, cells)
    coded = encode(matrix, scheme, n_rule)

    def refuse(n):
        raise AssertionError(f"decode built a key matrix (n={n})")

    monkeypatch.setattr(numtheory, "q_power", refuse)
    monkeypatch.setattr(numtheory, "r_matrix", refuse)
    assert decode(coded) == matrix


# ---- the first fault names the error ----

def clean_cells(dim):
    """A grid with every cell >= 2: each pivot is at least 2, so d + 1 never
    has an exact solution."""
    return tuple(tuple(2 + (5 * r + 7 * c) % 27 for c in range(dim)) for r in range(dim))


def damage(kind, scheme, row):
    """`row` with one fault of `kind`, and the text decode gives it (without the block)."""
    d, k1, k2, k3 = row
    lucas = scheme is Scheme.LUCAS_BLOCKING
    if kind == "kept":
        return row._replace(k3=30), "kept code 30 outside [0, 30)"
    if kind == "zero-pivot":
        bad = row._replace(k2=0) if lucas else row._replace(k1=0)
        return bad, f"zero pivot, dropped element unrecoverable (d={d})"
    if kind == "no-solution":
        return row._replace(d=d + 1), f"no exact solution for dropped element (d={d + 1})"
    # recovered code 30: lucas x = (k1*k3 - d)/k2, mine x = (d + k2*k3)/k1
    d = k1 * k3 - 30 * k2 if lucas else 30 * k1 - k2 * k3
    return row._replace(d=d), "recovered code 30 outside [0, 30)"


FAULT_KINDS = ("kept", "zero-pivot", "no-solution", "out-of-range")
FAULT_PAIRS = list(itertools.permutations(FAULT_KINDS, 2))


@pytest.mark.parametrize("decoder", [decode, decode_with_trace], ids=lambda f: f.__name__)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("first,second", FAULT_PAIRS, ids=[f"{a}-then-{b}" for a, b in FAULT_PAIRS])
@pytest.mark.parametrize("dim,i,j", [(6, 3, 7), (32, 100, 200)], ids=["dim6", "dim32"])
def test_decode_names_the_first_of_two_faults(decoder, scheme, first, second, dim, i, j):
    # the kind checked first per row must not win over an earlier row, near
    # row 1 or far from it
    coded = encode(MessageMatrix(dim, clean_cells(dim)), scheme)
    rows = list(coded.rows)
    rows[i - 1], text = damage(first, scheme, rows[i - 1])
    rows[j - 1], _ = damage(second, scheme, rows[j - 1])
    with pytest.raises(TamperDetected) as info:
        decoder(coded._replace(rows=tuple(rows)))
    assert (str(info.value), info.value.block_index) == (f"block {i}: {text}", i)


class Hostile(int):
    """An int that refuses the arithmetic decode does to recover a row."""

    def _refuse(self, *args):
        raise AssertionError("decode did arithmetic on a row past the first fault")

    __mul__ = __rmul__ = __sub__ = __rsub__ = __add__ = __radd__ = _refuse
    __divmod__ = __rdivmod__ = __floordiv__ = __mod__ = _refuse


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize("kind", ["kept", "zero-pivot"])
@pytest.mark.parametrize("index", [1, 2])
def test_decode_does_no_arithmetic_past_a_kept_code_fault(scheme, kind, index):
    # a hostile payload costs no more than the rows up to its first bad one
    coded = encode(MessageMatrix(6, clean_cells(6)), scheme)
    rows = list(coded.rows)
    rows[index - 1], text = damage(kind, scheme, rows[index - 1])
    rows[index:] = [FRow(*map(Hostile, row)) for row in rows[index:]]
    with pytest.raises(TamperDetected) as info:
        decode(coded._replace(rows=tuple(rows)))
    assert (str(info.value), info.value.block_index) == (f"block {index}: {text}", index)


def test_decode_names_the_row_of_an_out_of_range_code_after_a_fractional_one():
    # 9.5 is not an int in range(30) but passes 0 <= code < 30, so the row
    # named is the one with 99, as the per-row checks name it
    rows = (FRow(52, 9.5, 10, 16), FRow(140, 99, 28, 28)) + EX1_CODED.rows[2:]
    with pytest.raises(TamperDetected) as info:
        decode(EX1_CODED._replace(rows=rows))
    assert (str(info.value), info.value.block_index) == ("block 2: kept code 99 outside [0, 30)", 2)
