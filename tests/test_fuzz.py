"""Property-based fuzz gate: any input gives a result or a QblockError.

The CLI's argv is left out on purpose: `-o` and `--csv` would write to
whatever path a generated argument names.
"""

import pytest

from qblock.alphabet import DEFAULT_ALPHABET
from qblock.codec import Scheme, decode_text, encode_text
from qblock.errors import DegenerateBlock, QblockError
from qblock.layout import NRule, preprocess
from qblock.wire import parse, serialize

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

FUZZ = hypothesis.settings(max_examples=300, deadline=None)

messages = st.text(alphabet="".join(DEFAULT_ALPHABET.symbols) + " ", min_size=1, max_size=80)

# signed integers around the interesting range: kept codes are in [0, 30)
# and |d| <= 29^2, with the odd value far outside it
integers = st.one_of(st.integers(-900, 900), st.integers())
row_lines = st.one_of(
    st.tuples(integers, integers, integers, integers).map(lambda r: ",".join(map(str, r))),
    st.text(alphabet="-0123456789, x", max_size=12),
)


def _payload(scheme, n_rule, dim, alpha, rows, end):
    header = f"QBLK1;scheme={scheme};nrule={n_rule};dim={dim};alpha={alpha}"
    return "\n".join([header, *rows]) + end


def _with_rows(dim):
    # mostly the row count the dimension implies and a registered alphabet,
    # so parsing reaches decode
    count = (dim // 2) ** 2
    return st.builds(
        _payload,
        st.sampled_from(["lucas", "mine"]),
        st.sampled_from(["half", "tas"]),
        st.just(dim),
        st.sampled_from(["default", "default", "unregistered"]),
        st.lists(row_lines, min_size=max(count - 1, 0), max_size=count + 1),
        st.sampled_from(["\n", ""]),
    )


def _mutated(text, scheme, i, j, row):
    # a real payload with two rows swapped (undetectable) and maybe one row
    # replaced: decode succeeds or detects the damage
    try:
        lines = serialize(encode_text(text, scheme)).splitlines()
    except DegenerateBlock:
        return ""
    i, j = 1 + i % (len(lines) - 1), 1 + j % (len(lines) - 1)
    lines[i], lines[j] = lines[j], lines[i]
    if row is not None:
        lines[i] = row
    return "\n".join(lines) + "\n"


payloads = st.one_of(
    st.integers(0, 7).flatmap(_with_rows),
    st.builds(
        _mutated,
        messages,
        st.sampled_from(list(Scheme)),
        st.integers(0, 99),
        st.integers(0, 99),
        st.one_of(st.none(), row_lines),
    ),
    st.text(),
)


@FUZZ
@given(messages, st.sampled_from(list(Scheme)), st.sampled_from(list(NRule)))
def test_serialize_parse_roundtrip(text, scheme, n_rule):
    try:
        coded = encode_text(text, scheme, n_rule)
    except DegenerateBlock:
        return
    assert parse(serialize(coded)) == coded
    assert decode_text(coded) == preprocess(text, DEFAULT_ALPHABET)


@FUZZ
@given(payloads)
def test_parse_and_decode_give_a_result_or_a_qblock_error(payload):
    try:
        coded = parse(payload)
    except QblockError:
        return
    # parse accepts only canonical text, so it is serialize's exact inverse
    assert serialize(coded) == (payload if payload.endswith("\n") else payload + "\n")
    try:
        assert isinstance(decode_text(coded), str)
    except QblockError:
        pass
