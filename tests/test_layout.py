import math
import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from payloads import from_rows
from qblock import alphabet, layout
from qblock.alphabet import DEFAULT_ALPHABET, Alphabet, CharTable, _lookup, register_alphabet
from qblock.codec import FRow, Scheme
from qblock.errors import BadLength, EmptyMessage, UnknownSymbol
from qblock.layout import NRule, _columns, _flat, choose_n, preprocess, square_side
from qblock.matrix import (
    Block,
    MessageMatrix,
    _grid,
    decode,
    encode,
    reassemble,
    to_blocks,
    to_matrix,
    to_symbols,
)


def test_preprocess_example_1():
    assert preprocess(golden.EX1_MESSAGE, DEFAULT_ALPHABET) == golden.EX1_SYMBOLS


def test_preprocess_example_2():
    out = preprocess(golden.EX2_MESSAGE, DEFAULT_ALPHABET)
    assert out == golden.EX2_SYMBOLS
    assert len(out) == 36 and out.endswith("0000")


def test_preprocess_minimal_padding():
    assert preprocess("AB", DEFAULT_ALPHABET) == "AB00"


def test_preprocess_uppercases():
    assert preprocess("hi", DEFAULT_ALPHABET) == "HI00"


def test_preprocess_rejects_empty():
    with pytest.raises(EmptyMessage):
        preprocess("", DEFAULT_ALPHABET)


def test_preprocess_rejects_unknown_symbols():
    with pytest.raises(UnknownSymbol):
        preprocess("A,B", DEFAULT_ALPHABET)
    with pytest.raises(UnknownSymbol):
        preprocess("A\nB", DEFAULT_ALPHABET)


def test_preprocess_screens_with_the_alphabet_table_and_builds_none_of_its_own(monkeypatch):
    # the stray screen is the alphabet's ordinal table of shift 0, which a
    # CharTable of shift size then finds already built
    built = []

    class Counting(alphabet._Refusing):
        def __init__(self, *args):
            built.append("_Refusing")
            super().__init__(*args)

    class CountingStr:  # layout's name `str`, so that its maketrans calls are counted
        @staticmethod
        def maketrans(*args):
            built.append("maketrans")
            return str.maketrans(*args)

    monkeypatch.setattr(alphabet, "_Refusing", Counting)
    monkeypatch.setattr(layout, "str", CountingStr, raising=False)
    _lookup.cache_clear()
    fresh = Alphabet("screen-fresh", tuple("0ABC"))
    register_alphabet(fresh)
    padded = preprocess("ab c", fresh)
    assert (padded, built) == ("AB0C", ["_Refusing"])
    built.clear()
    assert CharTable(fresh, fresh.size)._codes_of(padded) == bytearray([1, 2, 0, 3])
    assert built == []


def test_preprocess_output_shape():
    rng = random.Random(11)
    symbols = DEFAULT_ALPHABET.symbols
    for _ in range(300):
        length = rng.randint(1, 120)
        text = "".join(rng.choice(symbols + (" ",)) for _ in range(length))
        out = preprocess(text, DEFAULT_ALPHABET)
        side = math.isqrt(len(out))
        assert side * side == len(out) and side % 2 == 0
        assert " " not in out
        assert len(out) >= len(text)
        # smallest fit: the next smaller even square would not hold the text
        assert side == 2 or (side - 2) ** 2 < len(text)


@pytest.mark.parametrize(
    "length,side", [(1, 2), (4, 2), (5, 4), (16, 4), (17, 6), (32, 6), (36, 6), (37, 8)]
)
def test_square_side(length, side):
    assert square_side(length) == side


def test_to_matrix_example_1():
    table = CharTable(DEFAULT_ALPHABET, golden.EX1_N)
    assert to_matrix(golden.EX1_SYMBOLS, table).cells == golden.EX1_MATRIX


def test_to_matrix_example_2():
    table = CharTable(DEFAULT_ALPHABET, golden.EX2_N)
    assert to_matrix(golden.EX2_SYMBOLS, table).cells == golden.EX2_MATRIX


def test_to_matrix_shift_1():
    table = CharTable(DEFAULT_ALPHABET, 1)
    assert to_matrix("AB00", table).cells == ((1, 2), (27, 27))


@pytest.mark.parametrize("count", [2, 6, 9, 25])
def test_to_matrix_rejects_bad_lengths(count):
    table = CharTable(DEFAULT_ALPHABET, 1)
    with pytest.raises(BadLength):
        to_matrix("A" * count, table)


def test_to_symbols_inverts_to_matrix():
    table = CharTable(DEFAULT_ALPHABET, golden.EX1_N)
    matrix = to_matrix(golden.EX1_SYMBOLS, table)
    assert to_symbols(matrix, table) == golden.EX1_SYMBOLS


def test_to_blocks_example_1():
    matrix = MessageMatrix(4, golden.EX1_MATRIX)
    got = tuple((b.b1, b.b2, b.b3, b.b4) for b in to_blocks(matrix))
    assert got == golden.EX1_BLOCKS
    assert [b.index for b in to_blocks(matrix)] == [1, 2, 3, 4]


def test_to_blocks_example_2():
    matrix = MessageMatrix(6, golden.EX2_MATRIX)
    got = tuple((b.b1, b.b2, b.b3, b.b4) for b in to_blocks(matrix))
    assert got == golden.EX2_BLOCKS


def test_to_blocks_single_block():
    matrix = MessageMatrix(2, ((1, 2), (3, 4)))
    assert to_blocks(matrix) == [Block(1, 1, 2, 3, 4)]


def test_reassemble_inverts_to_blocks():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.choice((2, 4, 6, 8, 10))
        cells = tuple(tuple(rng.randrange(30) for _ in range(dim)) for _ in range(dim))
        matrix = MessageMatrix(dim, cells)
        assert reassemble(to_blocks(matrix), dim) == matrix


def test_reassemble_block_count_checked():
    blocks = [Block(1, 1, 2, 3, 4)]
    with pytest.raises(BadLength):
        reassemble(blocks, 4)
    with pytest.raises(BadLength):
        reassemble(blocks, 3)


@pytest.mark.parametrize("dim", [*range(2, 17, 2), 64])
def test_block_order_matches_index_formula(dim):
    # block i (0-based) is cells[2*(i//m)+r][2*(i%m)+c], r, c in (0, 1);
    # the blocks here come from that formula alone
    m = dim // 2
    rng = random.Random(dim)

    def quads(cells):
        return [
            tuple(cells[2 * (i // m) + r][2 * (i % m) + c] for r in (0, 1) for c in (0, 1))
            for i in range(m * m)
        ]

    # distinct cells, so any misplaced element shows
    distinct = MessageMatrix(dim, tuple(tuple(range(r * dim, (r + 1) * dim)) for r in range(dim)))
    blocks = [Block(i + 1, *quad) for i, quad in enumerate(quads(distinct.cells))]
    assert to_blocks(distinct) == blocks
    assert reassemble(blocks, dim) == distinct

    # codes 1..29: every pivot is nonzero and every code is in range
    cells = tuple(tuple(rng.randrange(1, 30) for _ in range(dim)) for _ in range(dim))
    matrix = MessageMatrix(dim, cells)
    for scheme, kept in ((Scheme.LUCAS_BLOCKING, (0, 1, 3)), (Scheme.MINESWEEPER, (0, 1, 2))):
        rows = tuple(
            FRow(b1 * b4 - b2 * b3, *((b1, b2, b3, b4)[k] for k in kept))
            for b1, b2, b3, b4 in quads(cells)
        )
        assert encode(matrix, scheme).rows == rows
        assert decode(from_rows(scheme, NRule.HALF, dim, "default", rows)) == matrix
        assert decode(encode(matrix, scheme)) == matrix


@pytest.mark.parametrize("dim", range(2, 33, 2))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_columns_and_grid_invert_each_other(dim, data):
    # distinct codes, so any misplaced element shows
    codes = data.draw(st.permutations(range(dim * dim)), label="codes")
    cells = tuple(tuple(codes[r * dim : (r + 1) * dim]) for r in range(dim))
    assert _grid(*_columns(codes, dim), dim) == cells
    assert _flat(*_columns(codes, dim), dim) == list(codes)  # the row-major form of _grid
    block_count = len(codes) // 4
    columns = tuple(codes[i * block_count : (i + 1) * block_count] for i in range(4))
    assert _columns([*chain.from_iterable(_grid(*columns, dim))], dim) == columns
    assert _columns(_flat(*columns, dim), dim) == columns


@pytest.mark.parametrize("dim", range(2, 33, 2))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_columns_inverts_flat_on_bytearrays_and_lists(dim, data):
    # the table's codes arrive as a bytearray, every other caller's as a list;
    # up to dim 16 the codes are distinct, so any misplaced element shows
    order = data.draw(st.permutations(range(dim * dim)), label="order")
    codes = [code % 256 for code in order]
    from_list = _columns(codes, dim)
    from_bytes = _columns(bytearray(codes), dim)
    assert [type(column) for column in from_list + from_bytes] == [list] * 4 + [bytearray] * 4
    assert tuple(map(list, from_bytes)) == from_list
    assert _flat(*from_list, dim) == _flat(*from_bytes, dim) == codes


def test_matrix_shape_checked():
    with pytest.raises(BadLength):
        MessageMatrix(3, ((1, 2, 3),) * 3)
    with pytest.raises(BadLength):
        MessageMatrix(2, ((1, 2),))
    with pytest.raises(BadLength):
        MessageMatrix(2, ((1, 2), (3,)))


@pytest.mark.parametrize(
    "b,rule,n",
    [
        (1, NRule.HALF, 1),
        (2, NRule.HALF, 2),
        (3, NRule.HALF, 3),
        (4, NRule.HALF, 2),
        (9, NRule.HALF, 4),
        (25, NRule.HALF, 12),
        (1, NRule.TAS, 3),
        (3, NRule.TAS, 3),
        (4, NRule.TAS, 4),
        (9, NRule.TAS, 9),
    ],
)
def test_choose_n(b, rule, n):
    assert choose_n(b, rule) == n


def test_choose_n_half_below_tas_beyond_three():
    for b in range(4, 201):
        assert choose_n(b, NRule.HALF) < choose_n(b, NRule.TAS)


def test_choose_n_rejects_nonpositive():
    with pytest.raises(ValueError):
        choose_n(0, NRule.HALF)


def test_choose_n_takes_the_block_count_as_an_int():
    with pytest.raises(TypeError):
        choose_n(2.5, NRule.HALF)
    assert type(choose_n(True, NRule.HALF)) is int and choose_n(True, NRule.TAS) == 3
