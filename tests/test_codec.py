import itertools
import random
import re
import tracemalloc

import pytest

import golden
from bruteforce import fib, key_det, luc, scan_lucas, scan_mine
from payloads import from_rows, with_rows
from qblock import alphabet, codec, layout, numtheory, wire
from qblock.alphabet import DEFAULT_ALPHABET, Alphabet, CharTable, register_alphabet
from qblock.codec import CodedMessage, FRow, Scheme, decode_text, encode_text, solve_missing
from qblock.demo import run_demo
from qblock.errors import (
    BadLength,
    CodeOutOfRange,
    DegenerateBlock,
    HeaderMismatch,
    TamperDetected,
    UnknownAlphabet,
    UnknownSymbol,
)
from qblock.harness import CorruptionSpec, Strategy, corrupt, detection_rate
from qblock.layout import NRule, choose_n
from qblock.matrix import (
    DecodeTrace,
    MessageMatrix,
    decode,
    decode_with_trace,
    encode,
    reassemble,
    to_blocks,
    to_matrix,
    to_symbols,
)
from qblock.numtheory import Family
from qblock.wire import parse, serialize


def coded_from(f_rows, scheme, dim):
    return from_rows(scheme, NRule.HALF, dim, "default", f_rows)


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


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_encode_refuses_a_code_decode_would_refuse(scheme):
    # this grid once encoded to -200,40,50,70, which decode rejects
    with pytest.raises(CodeOutOfRange, match=r"^code 40 outside \[0, 30\)$"):
        encode(MessageMatrix(2, ((40, 50), (60, 70))), scheme)
    # named in row-major order, before a zero pivot
    with pytest.raises(CodeOutOfRange, match=r"^code -1 outside \[0, 30\)$"):
        encode(MessageMatrix(2, ((0, 0), (-1, 30))), scheme)
    with pytest.raises(UnknownAlphabet):
        encode(MessageMatrix(2, ((1, 1), (1, 1))), scheme, alphabet_id="never-registered")


# b1 = 0: minesweeper, the branch a non-member used to fall into, refuses it
ZERO_B1 = MessageMatrix(2, ((0, 1), (1, 1)))
# lucas recovers x = 2 from this row, minesweeper 0
ONE_ROW = (FRow(-1, 1, 1, 1),)
NOT_A_MEMBER = {
    "solve_missing": lambda value: solve_missing(ONE_ROW[0], value),
    "encode": lambda value: encode(ZERO_B1, value),
    "CodedMessage-scheme": lambda value: from_rows(value, NRule.HALF, 2, "default", ONE_ROW),
    "CodedMessage-n_rule": lambda value: from_rows(
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


@pytest.mark.parametrize(
    "n_rule, error, text",
    [
        (NRule.HALF, UnknownSymbol, "symbol '#' at position 1 is not in alphabet 'default'"),
        # choose_n's TypeError for a non-member comes before the shifted table's screen
        ("half", TypeError, "expected a NRule member, got 'half'"),
    ],
    ids=[repr(NRule.HALF), repr("half")],
)
def test_encode_text_names_a_stray_with_its_position_before_a_bad_n_rule(n_rule, error, text):
    # the shifted table's miss names the stray's position itself
    with pytest.raises(error, match=f"^{re.escape(text)}$") as info:
        encode_text("a#", Scheme.LUCAS_BLOCKING, n_rule)
    assert info.value.__context__ is None


# ---- an error text never fails on an int too long to print ----

BIG = 10**5000  # str(BIG) raises ValueError: past the interpreter's int-string limit
SIZE = f"a {BIG.bit_length()}-bit integer"
NEGATIVE = f"a negative {BIG.bit_length()}-bit integer"
NO_ROWS = ((), (), (), ())
LUCAS = Scheme.LUCAS_BLOCKING
TABLE = CharTable(DEFAULT_ALPHABET, 1)
OVERSIZED = {
    "solve_missing-kept": (lambda: solve_missing(FRow(0, BIG, 1, 1), LUCAS), TamperDetected,
                           f"kept code {SIZE} outside"),
    "solve_missing-zero-pivot": (lambda: solve_missing(FRow(BIG, 1, 0, 1), LUCAS), TamperDetected,
                                 f"unrecoverable (d={SIZE})"),
    "solve_missing-inexact": (lambda: solve_missing(FRow(BIG + 1, 0, 2, 0), LUCAS),
                              TamperDetected, f"dropped element (d={SIZE})"),
    "solve_missing-x": (lambda: solve_missing(FRow(-BIG, 0, 1, 0), LUCAS), TamperDetected,
                        f"recovered code {SIZE} outside"),
    "encode": (lambda: encode(MessageMatrix(2, ((1, 1), (BIG, 1))), LUCAS), CodeOutOfRange,
               f"code {SIZE} outside"),
    "symbol_of": (lambda: TABLE.symbol_of(BIG), CodeOutOfRange, f"code {SIZE} outside"),
    "to_symbols": (lambda: to_symbols(MessageMatrix(2, ((1, 1), (1, BIG))), TABLE),
                   CodeOutOfRange, f"code {SIZE} outside"),
    "CharTable": (lambda: CharTable(DEFAULT_ALPHABET, -BIG), ValueError, f"got {NEGATIVE}"),
    "choose_n": (lambda: choose_n(-BIG, NRule.HALF), ValueError, f"got {NEGATIVE}"),
    "MessageMatrix-odd": (lambda: MessageMatrix(BIG + 1, ()), BadLength, f"got {SIZE}"),
    "MessageMatrix-cells": (lambda: MessageMatrix(BIG, ()), BadLength, f"dimension {SIZE}"),
    "CodedMessage-odd": (lambda: CodedMessage(LUCAS, NRule.HALF, BIG + 1, "default", *NO_ROWS),
                         HeaderMismatch, f"got {SIZE}"),
    "CodedMessage-rows": (lambda: CodedMessage(LUCAS, NRule.HALF, BIG, "default", *NO_ROWS),
                          HeaderMismatch, f"dimension {SIZE} implies too many rows"),
    "reassemble-odd": (lambda: reassemble([], BIG + 1), BadLength, f"got {SIZE}"),
    "reassemble-blocks": (lambda: reassemble([], BIG), BadLength, f"for dimension {SIZE}"),
    "CorruptionSpec": (lambda: CorruptionSpec(Strategy.PERTURB_D, -BIG), ValueError,
                       f"got {NEGATIVE}"),
    "detection_rate": (
        lambda: detection_rate("HI", LUCAS, CorruptionSpec(Strategy.PERTURB_D), -BIG),
        ValueError, f"got {NEGATIVE}",
    ),
}


@pytest.mark.parametrize("call, error, text", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_an_error_text_shows_an_oversized_int_by_its_size(call, error, text):
    with pytest.raises(error, match=re.escape(text)):
        call()


# ---- reassemble takes its dimension through operator.index ----

# as MessageMatrix and CodedMessage do (tests/test_records.py); then it counts the blocks
INDEXED = {
    "bool": ([], True, BadLength, "matrix dimension must be even and >= 2, got 1"),
    "str": ([], "4", TypeError, "'str' object cannot be interpreted as an integer"),
    "float": ([], 4.0, TypeError, "'float' object cannot be interpreted as an integer"),
    "too-few-blocks": (to_blocks(MessageMatrix(4, ((1, 2, 3, 4),) * 4))[:3], 4, BadLength,
                       "expected 4 blocks for dimension 4, got 3"),
}


@pytest.mark.parametrize("blocks, dim, error, text", INDEXED.values(), ids=INDEXED.keys())
def test_reassemble_refuses_a_dimension_as_operator_index_does(blocks, dim, error, text):
    # True reads as 1, which is odd; a str is index's TypeError, not a failed comparison
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        reassemble(blocks, dim)


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


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_no_encode_wire_decode_or_corrupt_step_builds_rows(monkeypatch, scheme):
    # rows is a view for display and tests: built on a hot path it would cost
    # one tuple per block on every call
    def refuse(self):
        raise AssertionError("a hot path read coded.rows")

    monkeypatch.setattr(CodedMessage, "rows", property(refuse))
    coded = encode_text(golden.EX1_MESSAGE, scheme)
    assert decode_text(parse(serialize(coded))) == golden.EX1_SYMBOLS
    for strategy in Strategy:
        spec = CorruptionSpec(strategy, magnitude=5)
        assert detection_rate(golden.EX1_MESSAGE, scheme, spec, trials=20).trials == 20
    # a damaged d sends decode to the per-row verdict
    damaged = corrupt(coded, CorruptionSpec(Strategy.PERTURB_D, magnitude=1, seed=1))
    with pytest.raises(TamperDetected):
        decode(damaged)
    # nor does the demo, which reads the columns as well
    assert run_demo(1)[1] and run_demo(2)[1]


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_a_text_round_trip_builds_no_matrix_and_a_repeat_builds_no_table(monkeypatch, scheme):
    # the text paths go between flat codes and block columns and read the
    # lookups without a CharTable; a table depends only on (alphabet, n mod
    # size), and a header's fields only on its line, so a second message of
    # the same shape finds both already built
    def refuse(cls, *args):
        raise AssertionError(f"a text round trip built a {cls.__name__}")

    built = []

    class CountingRe:  # wire's header pattern, so that its matches are counted
        @staticmethod
        def match(line):
            built.append("header")
            return header_re.match(line)

    class Counting(alphabet._Refusing):
        def __init__(self, *args):
            built.append("_Refusing")
            super().__init__(*args)

    class CountingStr:  # layout's name `str`, so that its maketrans calls are counted
        @staticmethod
        def maketrans(*args):
            built.append("maketrans")
            return str.maketrans(*args)

    monkeypatch.setattr(MessageMatrix, "__new__", refuse)
    monkeypatch.setattr(CharTable, "__new__", refuse)
    monkeypatch.setattr(alphabet, "_Refusing", Counting)
    header_re = wire._HEADER_RE
    monkeypatch.setattr(wire, "_HEADER_RE", CountingRe)
    wire._HEADERS.clear()
    monkeypatch.setattr(layout, "str", CountingStr, raising=False)

    def round_trip():
        return decode_text(parse(serialize(encode_text(golden.EX1_MESSAGE, scheme))))

    assert round_trip() == golden.EX1_SYMBOLS
    built.clear()
    assert round_trip() == golden.EX1_SYMBOLS
    assert built == []


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
                det = key_det(fib if key.family is Family.QPOW else luc, key.n)
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


def message(alphabet, dim, n_rule, rng):
    """dim * dim symbols of `alphabet`, none of them the one its table codes
    to 0, so that no pivot is zero."""
    n = choose_n((dim // 2) ** 2, n_rule)
    symbols = [s for s in alphabet.symbols if s != alphabet.symbols[-n % alphabet.size]]
    return "".join(rng.choice(symbols) for _ in range(dim * dim))


# 4096 symbols, so that a dim-128 message has more distinct (b1, b2) pairs than blocks
TRACE_WIDE = Alphabet("codec-trace-wide", tuple(chr(0x100 + i) for i in range(4096)))


@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, TRACE_WIDE], ids=["default", "wide"])
def test_a_dim_128_tas_trace_holds_codes_and_two_keys_on_every_alphabet(alphabet):
    # 4096 blocks at n = 4096, where e1 and e2 have about 2840 bits each: a
    # trace that kept them, once per (key, b1, b2), held 1.89 MB on the default
    # alphabet and 4.14 MB on this one; one that keeps the codes holds 0.64 and
    # 0.76 MB (Python 3.11)
    register_alphabet(TRACE_WIDE)
    coded = encode_text(message(alphabet, 128, NRule.TAS, random.Random(5)),
                        Scheme.MINESWEEPER, NRule.TAS, alphabet.id)
    decode_with_trace(coded)  # the tables it looks up, outside the measurement
    tracemalloc.start()
    try:
        decoded, traces = decode_with_trace(coded)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(traces) == 4096 and decoded == decode(coded)
    assert held < 1_000_000


WIDE = Alphabet("codec-wide", tuple(chr(0x100 + i) for i in range(300)))


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("alphabet", [DEFAULT_ALPHABET, WIDE], ids=["bytes", "list"])
def test_both_column_paths_round_trip_and_agree_with_the_scan(alphabet, scheme):
    # the default alphabet's accepted columns are bytes; the 300-symbol one's
    # codes do not fit a byte, so its columns stay tuples and lists
    register_alphabet(WIDE)
    text = message(alphabet, 8, NRule.HALF, random.Random(17))
    coded = encode_text(text, scheme, NRule.HALF, alphabet.id)
    columns = codec._solve(coded, alphabet.size)
    assert [type(c) is bytes for c in columns] == [alphabet is DEFAULT_ALPHABET] * 4
    assert decode_text(parse(serialize(coded))) == text
    decoded = decode(parse(serialize(coded)))
    assert decoded == to_matrix(text, CharTable(alphabet, coded.n))
    size = alphabet.size
    for (d, *_), (i, b1, b2, b3, b4) in zip(coded.rows, to_blocks(decoded)):
        if scheme is Scheme.LUCAS_BLOCKING:
            assert scan_lucas(d, b1, b2, b4, coded.n, size) == [b3]
        else:
            assert scan_mine(d, b1, b2, b3, coded.n, i, size) == [b4]


@pytest.mark.parametrize("decoder", [decode, decode_with_trace], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "row, text",
    [
        ((299, 300, 1, 1), "block 1: kept code 300 outside [0, 300)"),
        ((0, 2, 1, 150), "block 1: recovered code 300 outside [0, 300)"),
    ],
    ids=["kept", "recovered"],
)
def test_the_list_path_refuses_a_code_equal_to_the_size(decoder, row, text):
    # 300 codes do not fit a byte, so the range checks run on the list path
    register_alphabet(WIDE)
    coded = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 2, WIDE.id, [row])
    with pytest.raises(TamperDetected, match=f"^{re.escape(text)}$") as info:
        decoder(coded)
    assert info.value.block_index == 1


def test_decode_trace_is_a_named_tuple():
    _, traces = decode_with_trace(EX1_CODED)
    trace = traces[0]
    assert DecodeTrace._fields == ("index", "b1", "b2", "x", "key")
    assert trace == (trace.index, trace.b1, trace.b2, trace.x, trace.key)
    for field in ("x", "e1", "e2"):
        with pytest.raises(AttributeError):
            setattr(trace, field, 0)
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
            from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, dim, "default", rows)


def test_decode_unknown_alphabet():
    bad = from_rows(
        Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "never-registered", EX1_CODED.rows
    )
    with pytest.raises(UnknownAlphabet):
        decode(bad)


def test_decode_rejects_out_of_range_kept_code():
    rows = list(EX1_CODED.rows)
    rows[1] = FRow(rows[1].d, rows[1].k1, 99, rows[1].k3)
    bad = from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, 4, "default", rows)
    with pytest.raises(TamperDetected) as info:
        decode(bad)
    assert info.value.block_index == 2


def with_row(coded, index, **fields):
    """`coded` with the given fields of block `index` (1-based) replaced."""
    rows = list(coded.rows)
    rows[index - 1] = rows[index - 1]._replace(**fields)
    return with_rows(coded, rows)


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
        decoder(with_rows(coded, rows))
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
        decode(with_rows(coded, rows))
    assert (str(info.value), info.value.block_index) == (f"block {index}: {text}", index)


def test_decode_names_the_row_of_an_out_of_range_code_after_a_fractional_one():
    # 9.5 is not an int in range(30) but passes 0 <= code < 30, so the row
    # named is the one with 99, as the per-row checks name it
    rows = (FRow(52, 9.5, 10, 16), FRow(140, 99, 28, 28)) + EX1_CODED.rows[2:]
    with pytest.raises(TamperDetected) as info:
        decode(with_rows(EX1_CODED, rows))
    assert (str(info.value), info.value.block_index) == ("block 2: kept code 99 outside [0, 30)", 2)


@pytest.mark.parametrize("decoder", [decode, decode_with_trace, decode_text],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("coded", [EX1_CODED, EX2_CODED], ids=["lucas", "mine"])
@pytest.mark.parametrize("d,shown", [(10**400, str(10**400)),
                                     (-(10**5000), "a negative 16610-bit integer")],
                         ids=["past-float-range", "past-int-string-limit"])
def test_a_float_code_beside_an_int_past_float_range_has_no_exact_solution(decoder, coded, d,
                                                                           shown):
    # the arithmetic would convert d to a float, which overflows
    rows = list(coded.rows)
    rows[1] = FRow(d, 1.5, 2, 3)
    text = f"no exact solution for dropped element (d={shown})"
    with pytest.raises(TamperDetected) as info:
        solve_missing(rows[1], coded.scheme)
    assert (str(info.value), info.value.block_index) == (text, None)
    with pytest.raises(TamperDetected) as info:
        decoder(with_rows(coded, rows))
    assert (str(info.value), info.value.block_index) == (f"block 2: {text}", 2)
