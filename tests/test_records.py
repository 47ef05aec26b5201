"""The package's records: immutable, checked on every construction, and
printed as they always were.

Every fixed-field record, `CharTable` included, is a `collections.namedtuple`
subclass, so it compares equal to the plain tuple of its fields.
"""

import copy
import pickle
import re

import pytest

from qblock.alphabet import DEFAULT_ALPHABET, Alphabet, CharTable, register_alphabet
from qblock.codec import FRow, Scheme, decode_with_trace, encode_text
from qblock.demo import EXAMPLE_1
from qblock.errors import BadLength, HeaderMismatch
from qblock.harness import CorruptionSpec, DetectionReport, Strategy
from qblock.layout import Block, MessageMatrix
from qblock.numtheory import q_power, r_matrix

AB = Alphabet("ab", tuple("ab"))
CODED = encode_text("HI", Scheme.MINESWEEPER)

# ---- a changed copy is checked as a new record is ----

CHECKED = {
    "CodedMessage-dim": (CODED, {"dim": 3}, HeaderMismatch),
    "CodedMessage-rows": (CODED, {"rows": ()}, HeaderMismatch),
    "CodedMessage-scheme": (CODED, {"scheme": "mine"}, TypeError),
    "MessageMatrix-dim": (MessageMatrix(2, ((1, 2), (3, 4))), {"dim": 4}, BadLength),
    "MessageMatrix-cells": (MessageMatrix(2, ((1, 2), (3, 4))), {"cells": ((1, 2),)}, BadLength),
    "Alphabet-id": (AB, {"id": "a b"}, ValueError),
    "Alphabet-symbols": (AB, {"symbols": tuple("aa")}, ValueError),
    "CorruptionSpec": (CorruptionSpec(Strategy.PERTURB_D), {"magnitude": 0}, ValueError),
    "CharTable-shift": (CharTable(AB, 3), {"shift": 0}, ValueError),
}


@pytest.mark.parametrize("record, fields, error", CHECKED.values(), ids=CHECKED.keys())
def test_replace_raises_what_the_constructor_raises(record, fields, error):
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **fields})
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        record._replace(**fields)
    with pytest.raises(error, match=f"^{re.escape(str(built.value))}$"):
        type(record)._make({**record._asdict(), **fields}.values())


@pytest.mark.parametrize("record", [CODED, MessageMatrix(2, ((1, 2), (3, 4))), AB,
                                    CorruptionSpec(Strategy.PERTURB_D), CharTable(AB, 3)],
                         ids=type)
def test_replace_without_a_change_is_an_equal_record(record):
    twin = record._replace()
    assert type(twin) is type(record) and twin == record
    assert type(record)._make(record) == record


def test_records_are_immutable_tuples():
    matrix = MessageMatrix(2, ((1, 2), (3, 4)))
    for record, name in [(matrix, "dim"), (CODED, "rows"), (AB, "id"), (q_power(2), "n")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no __dict__ either
    assert matrix == (2, ((1, 2), (3, 4)))
    assert hash(AB) == hash(("ab", tuple("ab")))


def test_alphabet_membership_len_and_iteration_all_see_its_two_fields():
    # a symbol's membership is `symbol in alphabet.symbols`
    assert len(AB) == 2 and list(AB) == ["ab", ("a", "b")]
    assert "ab" in AB and "a" not in AB and "a" in AB.symbols


# ---- CharTable ----

def test_char_table_compares_and_hashes_on_alphabet_and_shift():
    table = CharTable(AB, 3)
    assert table == CharTable(Alphabet("ab", tuple("ab")), 3)
    assert hash(table) == hash(CharTable(AB, 3)) == hash((AB, 3))
    assert table != CharTable(AB, 5)  # the same mapping, another shift
    assert table != CharTable(Alphabet("ba", tuple("ab")), 3)
    assert table == (AB, 3) and (AB, 3) == table
    assert len({table, CharTable(AB, 3), CharTable(AB, 4)}) == 2


@pytest.mark.parametrize("name", ["alphabet", "shift", "_codes", "_symbols", "extra"])
def test_char_table_refuses_every_assignment(name):
    table = CharTable(DEFAULT_ALPHABET, 2)
    # refused as by every other record: the field properties have no setter,
    # and __slots__ = () leaves no instance dict for any other name
    with pytest.raises(AttributeError):
        setattr(table, name, None)
    with pytest.raises(AttributeError):
        delattr(table, name)
    assert table.shift == 2 and table.code_of("A") == 2 and table.symbol_of(2) == "A"


def test_char_table_copies_as_a_new_table():
    table = CharTable(AB, 3)
    for twin in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin == table and twin is not table
        assert (twin.code_of("a"), twin.symbol_of(0)) == (1, "b")


# ---- the registry ----

def test_register_alphabet_accepts_an_equal_alphabet_and_refuses_other_symbols():
    register_alphabet(Alphabet("records-contract", tuple("xyz")))
    register_alphabet(Alphabet("records-contract", tuple("xyz")))  # equal, not the same object
    with pytest.raises(ValueError, match="already registered with different symbols"):
        register_alphabet(Alphabet("records-contract", tuple("zyx")))


# ---- repr: the text each record printed as a frozen dataclass ----

REPRS = {
    "Alphabet": (AB, "Alphabet(id='ab', symbols=('a', 'b'))"),
    "CharTable": (
        CharTable(AB, 3),
        "CharTable(alphabet=Alphabet(id='ab', symbols=('a', 'b')), shift=3)",
    ),
    "MessageMatrix": (
        MessageMatrix(2, ((1, 2), (3, 4))),
        "MessageMatrix(dim=2, cells=((1, 2), (3, 4)))",
    ),
    "Block": (Block(1, 9, 10, 9, 16), "Block(index=1, b1=9, b2=10, b3=9, b4=16)"),
    "CodedMessage": (
        CODED,
        "CodedMessage(scheme=<Scheme.MINESWEEPER: 'mine'>, n_rule=<NRule.HALF: 'half'>, "
        "dim=2, alphabet_id='default', rows=(FRow(d=-27, k1=8, k2=9, k3=27),))",
    ),
    "FRow": (FRow(54, 9, 10, 16), "FRow(d=54, k1=9, k2=10, k3=16)"),
    "DecodeTrace": (
        decode_with_trace(CODED)[1][0],
        "DecodeTrace(index=1, e1=17, e2=8, x=27, key=KeyMatrix(family=<Family.QPOW: 'qpow'>, "
        "n=1, m11=1, m12=1, m21=1, m22=0))",
    ),
    "KeyMatrix": (
        r_matrix(3),
        "KeyMatrix(family=<Family.RMAT: 'rmat'>, n=3, m11=7, m12=4, m21=4, m22=3)",
    ),
    "CorruptionSpec": (
        CorruptionSpec(Strategy.SWAP_ROWS, 3, 7),
        "CorruptionSpec(strategy=<Strategy.SWAP_ROWS: 'swap-rows'>, magnitude=3, seed=7)",
    ),
    "DetectionReport": (
        DetectionReport(1, 2, 3),
        "DetectionReport(detected=1, miscorrected=2, trials=3, outcomes=())",
    ),
    "DemoExample": (
        EXAMPLE_1,
        "DemoExample(number=1, message='HI! HOW ARE YOU?', "
        "scheme=<Scheme.LUCAS_BLOCKING: 'lucas'>, n_rule=<NRule.HALF: 'half'>, dim=4, n=2, "
        "symbols='HI!0HOW0ARE0YOU?', matrix_rows=((9, 10, 29, 28), (9, 16, 24, 28), "
        "(2, 19, 6, 28), (26, 16, 22, 0)), f_rows=((54, 9, 10, 16), (140, 29, 28, 28), "
        "(-462, 2, 19, 16), (-616, 6, 28, 0)), e1=(66, 200, 65, 108), e2=(37, 115, 25, 46), "
        "x=(9, 24, 26, 22))",
    ),
}


@pytest.mark.parametrize("record, text", REPRS.values(), ids=REPRS.keys())
def test_repr_is_unchanged(record, text):
    assert repr(record) == text

