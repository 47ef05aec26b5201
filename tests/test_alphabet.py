import sys

import pytest

from qblock.alphabet import (
    DEFAULT_ALPHABET,
    Alphabet,
    CharTable,
    get_alphabet,
    register_alphabet,
)
from qblock.codec import Scheme, decode_text, encode_text
from qblock.errors import CodeOutOfRange, UnknownAlphabet, UnknownSymbol
from qblock.wire import parse, serialize

WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_default_alphabet_contents():
    assert DEFAULT_ALPHABET.size == 30
    assert "".join(DEFAULT_ALPHABET.symbols) == "ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?."
    assert len(set(DEFAULT_ALPHABET.symbols)) == 30


@pytest.mark.parametrize(
    "shift,symbol,code",
    [(2, "H", 9), (2, "?", 0), (4, "M", 16), (2, "0", 28), (4, "0", 0), (1, "A", 1)],
)
def test_code_of(shift, symbol, code):
    table = CharTable(DEFAULT_ALPHABET, shift)
    assert table.code_of(symbol) == code


@pytest.mark.parametrize("shift,code,symbol", [(2, 9, "H"), (4, 0, "0"), (1, 1, "A")])
def test_symbol_of(shift, code, symbol):
    table = CharTable(DEFAULT_ALPHABET, shift)
    assert table.symbol_of(code) == symbol


def test_unknown_symbol():
    table = CharTable(DEFAULT_ALPHABET, 2)
    for bad in ("h", " ", ",", "é"):
        with pytest.raises(UnknownSymbol):
            table.code_of(bad)


def test_code_out_of_range():
    table = CharTable(DEFAULT_ALPHABET, 2)
    for bad in (-1, 30, 1000):
        with pytest.raises(CodeOutOfRange):
            table.symbol_of(bad)


def test_bijection_for_all_shifts():
    for shift in range(1, 61):
        table = CharTable(DEFAULT_ALPHABET, shift)
        assert sorted(table.code_of(s) for s in DEFAULT_ALPHABET.symbols) == list(range(30))
        for code in range(30):
            assert table.code_of(table.symbol_of(code)) == code


def test_shift_periodicity_mod_size():
    for shift in range(1, 31):
        low = CharTable(DEFAULT_ALPHABET, shift)
        high = CharTable(DEFAULT_ALPHABET, shift + 30)
        assert all(low.code_of(s) == high.code_of(s) for s in DEFAULT_ALPHABET.symbols)


def test_shift_must_be_positive():
    with pytest.raises(ValueError):
        CharTable(DEFAULT_ALPHABET, 0)


def test_char_table_is_frozen():
    # a table is the record (alphabet, shift), so a new shift needs a new table
    table = CharTable(DEFAULT_ALPHABET, 2)
    with pytest.raises(AttributeError):
        table.shift = 3
    assert table.shift == 2 and table.code_of("A") == 2 and table.symbol_of(2) == "A"


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("dup", tuple("AAB"))
    with pytest.raises(ValueError):
        Alphabet("", tuple("AB"))
    with pytest.raises(ValueError):
        Alphabet("has space", tuple("AB"))
    with pytest.raises(ValueError):
        Alphabet("semi;colon", tuple("AB"))
    with pytest.raises(ValueError, match="at least two symbols"):
        Alphabet("one", ("A",))
    with pytest.raises(ValueError, match="at least two symbols"):
        Alphabet("none", ())


@pytest.mark.parametrize(
    "symbols",
    [("AB", "C", "0"), ("", "C", "0"), ("A", "C", "00")],
    ids=["two-char", "empty", "two-char-last"],
)
def test_alphabet_symbols_are_single_characters(symbols):
    # a longer symbol would render more characters than the grid has cells
    with pytest.raises(ValueError, match="single characters"):
        Alphabet("multi", symbols)


def test_registry_roundtrip():
    assert get_alphabet("default") is DEFAULT_ALPHABET
    custom = Alphabet("digits10", tuple("0123456789"))
    register_alphabet(custom)
    assert get_alphabet("digits10") == custom
    register_alphabet(custom)  # identical re-registration is fine
    with pytest.raises(ValueError):
        register_alphabet(Alphabet("digits10", tuple("9876543210")))


def test_unknown_alphabet_id():
    with pytest.raises(UnknownAlphabet):
        get_alphabet("nope")


@pytest.mark.parametrize("char", [";", *WHITESPACE], ids=lambda c: f"U+{ord(c):04X}")
def test_alphabet_id_refuses_what_the_wire_header_cannot_carry(char):
    # the header would serialize, and parse would refuse it as a bad header line
    with pytest.raises(ValueError, match="no ';' or whitespace"):
        Alphabet(f"a{char}b")


@pytest.mark.parametrize("alphabet_id", ["a=b", "ä"])
def test_unusual_alphabet_id_survives_the_wire(alphabet_id):
    register_alphabet(Alphabet(alphabet_id))
    coded = encode_text("HI THERE", Scheme.MINESWEEPER, alphabet_id=alphabet_id)
    assert parse(serialize(coded)) == coded



@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "alphabet,decoded",
    [(DEFAULT_ALPHABET, "HELLO0WORLD00000"),
     (Alphabet("lower", tuple("abcdefghijklmnopqrstuvwxyz0")), "hello0world00000")],
    ids=["default-folds-case", "lower-case-as-written"],
)
def test_text_is_case_folded_only_where_the_alphabet_allows(alphabet, decoded, scheme):
    register_alphabet(alphabet)
    coded = encode_text("hello world", scheme, alphabet_id=alphabet.id)
    assert decode_text(parse(serialize(coded))) == decoded
