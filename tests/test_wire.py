import random
import tracemalloc

import pytest

import golden
from payloads import from_rows
from qblock import wire
from qblock.codec import Scheme
from qblock.errors import HeaderMismatch, MalformedPayload, UnknownAlphabet
from qblock.layout import NRule
from qblock.wire import parse, serialize


def ex1_coded():
    return from_rows(Scheme.LUCAS_BLOCKING, NRule.HALF, golden.EX1_DIM, "default", golden.EX1_F)


def ex2_coded():
    return from_rows(Scheme.MINESWEEPER, NRule.HALF, golden.EX2_DIM, "default", golden.EX2_F)


def test_serialize_example_1_exact_bytes():
    assert serialize(ex1_coded()) == golden.EX1_PAYLOAD


def test_serialize_example_2_exact_bytes():
    assert serialize(ex2_coded()) == golden.EX2_PAYLOAD


def test_parse_inverts_serialize():
    for coded in (ex1_coded(), ex2_coded()):
        assert parse(serialize(coded)) == coded


def test_serialize_inverts_parse():
    for payload in (golden.EX1_PAYLOAD, golden.EX2_PAYLOAD):
        assert serialize(parse(payload)) == payload


def test_serialization_is_canonical():
    a, b = ex1_coded(), ex1_coded()
    assert a == b and serialize(a) == serialize(b)


def test_parse_accepts_missing_final_newline():
    assert parse(golden.EX1_PAYLOAD.rstrip("\n")) == ex1_coded()


def test_row_count_must_match_dim():
    lines = golden.EX1_PAYLOAD.splitlines()
    short = "\n".join(lines[:4]) + "\n"  # 3 rows but dim=4 wants 4
    with pytest.raises(HeaderMismatch):
        parse(short)
    long = golden.EX1_PAYLOAD + "1,2,3,4\n"
    with pytest.raises(HeaderMismatch):
        parse(long)
    # a dimension whose row count has too many digits to print
    wide = golden.EX1_PAYLOAD.replace("dim=4", "dim=" + "4" * 3000)
    with pytest.raises(HeaderMismatch, match="implies too many rows"):
        parse(wide)


def test_header_only_rejected():
    # unreachable from encode (dim >= 2 implies at least one row), and
    # parse refuses to accept it back
    with pytest.raises(HeaderMismatch):
        parse("QBLK1;scheme=lucas;nrule=half;dim=4;alpha=default\n")
    with pytest.raises(HeaderMismatch):
        parse("QBLK1;scheme=lucas;nrule=half;dim=2;alpha=default\n")


def test_odd_or_small_dim_rejected():
    with pytest.raises(HeaderMismatch):
        parse("QBLK1;scheme=lucas;nrule=half;dim=3;alpha=default\n1,2,3,4\n")
    with pytest.raises(HeaderMismatch):
        parse("QBLK1;scheme=lucas;nrule=half;dim=0;alpha=default\n")


def test_malformed_rows_reported_before_bad_dim():
    # rows are parsed before the message, and so its header, is checked
    with pytest.raises(MalformedPayload, match="line 2"):
        parse("QBLK1;scheme=lucas;nrule=half;dim=3;alpha=default\nx,2,3,4\n")


@pytest.mark.parametrize(
    "old, new, line",
    [("54,9,10,16", "5" * 5000 + ",9,10,16", 2), ("dim=4", "dim=" + "4" * 5000, 1)],
    ids=["row", "dim"],
)
def test_oversized_integer_is_malformed(old, new, line):
    # longer than the interpreter's int-string limit, where int() fails
    with pytest.raises(MalformedPayload, match=f"line {line}: 5000-digit"):
        parse(golden.EX1_PAYLOAD.replace(old, new))


@pytest.mark.parametrize(
    "payload, line",
    [
        (golden.EX1_PAYLOAD.replace("\n", "\r\n"), 1),
        (golden.EX1_PAYLOAD.replace("\n", "\r"), 1),
        (golden.EX1_PAYLOAD.replace("140,29,28,28\n", "140,29,28,28\r\n"), 3),
    ],
    ids=["crlf", "cr", "one-crlf-row"],
)
def test_carriage_returns_are_named(payload, line):
    # parse stays strict; the CLI translates line ends read from stdin
    with pytest.raises(MalformedPayload) as info:
        parse(payload)
    assert str(info.value) == (
        f"line {line} contains a carriage return: lines must end in '\\n' alone, not CRLF"
    )


@pytest.mark.parametrize(
    "payload",
    [
        "",
        "BOGUS;scheme=lucas;nrule=half;dim=4;alpha=default\n",
        "QBLK1;scheme=bogus;nrule=half;dim=4;alpha=default\n",
        "QBLK1;scheme=lucas;nrule=never;dim=4;alpha=default\n",
        "QBLK1;scheme=lucas;nrule=half;dim=04;alpha=default\n",
        "QBLK1;scheme=lucas;nrule=half;dim=4;alpha=has space\n",
        "QBLK1;scheme=lucas;nrule=half;dim=4\n",
        "QBLK1;scheme=lucas;nrule=half;dim=4;alpha=default;extra=1\n",
        "qblk1;scheme=lucas;nrule=half;dim=4;alpha=default\n",
    ],
)
def test_malformed_headers(payload):
    with pytest.raises(MalformedPayload):
        parse(payload)


@pytest.mark.parametrize(
    "row_line",
    ["1,2,3", "1,2,3,4,5", "1, 2,3,4", "a,2,3,4", "007,2,3,4", "-0,2,3,4", "+1,2,3,4", ""],
)
def test_malformed_rows(row_line):
    payload = (
        "QBLK1;scheme=lucas;nrule=half;dim=2;alpha=default\n" + row_line + "\n"
    )
    with pytest.raises(MalformedPayload):
        parse(payload)


HEADER = "QBLK1;scheme=lucas;nrule=half;dim=2;alpha=default"


@pytest.mark.parametrize(
    "payload, message",
    [
        ("\n", "bad header line ''"),
        (HEADER + "\n\n", "line 2: expected 4 comma-separated integers"),
        (HEADER + "\n1,2,3,4\n\n", "line 3: expected 4 comma-separated integers"),
        (HEADER + "\n\n1,2,3,4\n", "line 2: expected 4 comma-separated integers"),
        (HEADER + "\n1,2,3,4\n5,x,7,8\n" + "9" * 5000 + ",1,1,1\n",
         "line 3: 'x' is not a canonical integer"),
        (HEADER + "\n1,2,3,4\n" + "9" * 5000 + ",1,1,1\n5,x,7,8\n",
         "line 3: 5000-digit integer is too long"),
    ],
    ids=["newline-only", "blank-row", "trailing-blank", "leading-blank", "bad-first", "long-first"],
)
def test_first_faulty_line_is_named(payload, message):
    # a blank line is a malformed row, and of several faults the first wins
    with pytest.raises(MalformedPayload) as info:
        parse(payload)
    assert str(info.value) == message


def test_parse_peak_memory_is_a_small_multiple_of_the_payload():
    # 4096 rows: the shape check keeps no state per line, and the split one
    # small bytes object per token, about 16x the payload in all (a body-wide
    # greedy regex peaks near 75x)
    rng = random.Random(7)
    rows = "".join(
        f"{rng.randint(-841, 841)},{rng.randrange(30)},{rng.randrange(1, 30)},{rng.randrange(30)}\n"
        for _ in range(64 * 64)
    )
    payload = "QBLK1;scheme=lucas;nrule=half;dim=128;alpha=default\n" + rows
    parse(payload)  # compile the regexes outside the measurement
    tracemalloc.start()
    try:
        coded = parse(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coded.rows) == 4096
    assert peak < 32 * len(payload)


CANONICAL_TOKENS = ["0", "7", "-1", "-841", "1" + "0" * 4299, "-" + "9" * 4300]


def test_parse_converts_canonical_tokens_like_int():
    # the tokens, 4300-digit ones too, fill one payload's rows in order
    tokens = CANONICAL_TOKENS + ["1"] * 10
    rows = [",".join(tokens[i:i + 4]) for i in range(0, 16, 4)]
    coded = parse("\n".join([HEADER.replace("dim=2", "dim=4"), *rows]) + "\n")
    assert [i for row in coded.rows for i in row] == list(map(int, tokens))


def test_parse_refuses_a_token_past_the_int_string_limit():
    rows = ["1,2,3,4", "5,6,7," + "9" * 4301, "1,2,3,4", "1,2,3,4"]
    with pytest.raises(MalformedPayload) as info:
        parse("\n".join([HEADER.replace("dim=2", "dim=4"), *rows]) + "\n")
    assert str(info.value) == "line 3: 4301-digit integer is too long"


def test_token_memo_stays_bounded():
    # 16,384 distinct canonical tokens of 6 or more characters, some negative:
    # each is converted, and none is kept, since the memo keeps only tokens of
    # at most 4 characters, of which there are 10,999
    rng = random.Random(3)
    ints = [v * rng.choice((1, -1)) for v in rng.sample(range(100_000, 10**9), 4 * 64 * 64)]
    rows = [",".join(map(str, ints[i:i + 4])) for i in range(0, len(ints), 4)]
    coded = parse("\n".join([HEADER.replace("dim=2", "dim=128"), *rows]) + "\n")
    assert [list(column) for column in coded[4:]] == [ints[i::4] for i in range(4)]
    assert len(wire._TOKENS) <= 10_999 and all(len(token) <= 4 for token in wire._TOKENS)


@pytest.mark.parametrize(
    "row, message",
    [
        ("-0,2,3,4", "'-0' is not a canonical integer"),
        ("1.5,2,3,4", "'1.5' is not a canonical integer"),
        ("1,1e3,3,4", "'1e3' is not a canonical integer"),
        ("1,2,1E3,4", "'1E3' is not a canonical integer"),
        ("1,2,3, 1", "' 1' is not a canonical integer"),
        ("true,2,3,4", "'true' is not a canonical integer"),
        ("1,null,3,4", "'null' is not a canonical integer"),
        ('"1",2,3,4', "'\"1\"' is not a canonical integer"),
        ("[1],2,3,4", "'[1]' is not a canonical integer"),
        ("1,2,3,{}", "'{}' is not a canonical integer"),
        ("1,2,3,4,", "expected 4 comma-separated integers"),
        ("", "expected 4 comma-separated integers"),
    ],
)
def test_tokens_json_takes_are_still_malformed(row, message):
    # a JSON reader or int() takes each of these rows or tokens; the
    # canonical grammar refuses them
    payload = golden.EX1_PAYLOAD.replace("140,29,28,28\n", row + "\n")
    with pytest.raises(MalformedPayload) as info:
        parse(payload)
    assert str(info.value) == f"line 3: {message}"


def test_unknown_alphabet_in_header():
    payload = golden.EX1_PAYLOAD.replace("alpha=default", "alpha=not-registered")
    with pytest.raises(UnknownAlphabet):
        parse(payload)


def test_negative_values_survive_roundtrip():
    assert parse(golden.EX1_PAYLOAD).rows[3].d == -616
