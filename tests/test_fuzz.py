"""Property-based fuzz gate: any input gives a result or a QblockError.

The second part checks the flat kernels (the symbol tables, `preprocess`,
`to_matrix`, `to_symbols`, `encode`, `decode`) against per-element and
per-block models built from the public pieces they replace, `solve_missing`
against `decode` of its one row, the verdict `codec._verdict` against the
result or error of `solve_missing` on rows of any ints, bools and floats,
swap-rows corruption against the matrix
with two blocks exchanged, the row edits `_damage` returns against the rows
`corrupt` changed, and `detection_rate` against a full decode of every
damaged payload, which never gives the original matrix back, and against
the errors of `encode_text`, whose record it does not build.  The third
checks `parse`, which converts a whole body at once, against a model that
reads the wire grammar line by line.  The last runs the CLI on argv drawn
from a fixed vocabulary whose file names are all relative, inside a
temporary working directory.
"""

import io
import re
from itertools import chain

import pytest

import golden
from bruteforce import NON_ROW_RE, outcomes_by_decode
from payloads import from_rows
from qblock import codec
from qblock.alphabet import DEFAULT_ALPHABET, Alphabet, CharTable, get_alphabet, register_alphabet
from qblock.codec import CodedMessage, FRow, Scheme, decode_text, encode_text, solve_missing
from qblock.cli import main
from qblock.errors import (
    CodeOutOfRange,
    DegenerateBlock,
    MalformedPayload,
    NotEnoughRows,
    QblockError,
    TamperDetected,
    UnknownSymbol,
    _int_text,
)
from qblock.harness import (
    CorruptionSpec,
    DetectionReport,
    Strategy,
    _damage,
    corrupt,
    detection_rate,
)
from qblock.layout import PAD_SYMBOL, NRule, _padded, choose_n, preprocess, square_side
from qblock.matrix import (
    Block,
    MessageMatrix,
    decode,
    encode,
    reassemble,
    to_blocks,
    to_matrix,
    to_symbols,
)
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


# ---- the flat kernels against per-element and per-block models ----

SIZE = DEFAULT_ALPHABET.size
shifts = st.integers(1, 200)
# characters a str.translate table would pass through unchanged when it
# misses: ordinals below the alphabet size, read back as codes, and one
# outside Latin-1
STRAYS = ("\x00", "\x01", "\x05", "\x1d", "\u0100")
# mostly alphabet symbols, sometimes one that is not
symbols = st.sampled_from(DEFAULT_ALPHABET.symbols + ("a", " ", "#") + STRAYS)
# codes a bytes() or chr() round trip could get wrong
WIDE_CODES = (255, 256, 0x110000, -(2**63), -(10**40))
# registered once for the whole session: a 2-symbol alphabet, one of 300
# symbols whose codes do not fit a byte, and a lower-case one
TWO = Alphabet("fuzz-two", ("0", "1"))
WIDE = Alphabet("fuzz-wide", tuple(chr(0x100 + i) for i in range(300)))
LOWER = Alphabet("fuzz-lower", tuple("abcdefghijklmnopqrstuvwxyz0"))
register_alphabet(TWO)
register_alphabet(WIDE)
register_alphabet(LOWER)


def outcome(f, *args):
    """The result of f(*args), or the type, text and block index it raised."""
    try:
        return f(*args)
    except QblockError as exc:
        return type(exc), str(exc), getattr(exc, "block_index", None)


def screen(symbols, alphabet):
    """Refuse the first symbol outside the alphabet, naming it and its position."""
    for pos, symbol in enumerate(symbols):
        if symbol not in alphabet.symbols:
            raise UnknownSymbol(f"symbol {symbol!r} at position {pos} is not in alphabet "
                                f"{alphabet.id!r}")


@st.composite
def matrices(draw, codes=st.integers(0, SIZE - 1), dims=(2, 4, 6, 8)):
    dim = draw(st.sampled_from(dims))
    cells = draw(st.lists(st.lists(codes, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return MessageMatrix(dim, tuple(map(tuple, cells)))


@FUZZ
@given(shifts)
def test_char_table_matches_shift_formula(shift):
    table = CharTable(DEFAULT_ALPHABET, shift)
    for k, symbol in enumerate(DEFAULT_ALPHABET.symbols):
        assert table.code_of(symbol) == (shift + k) % SIZE
    for code in range(-2, SIZE + 2):
        if 0 <= code < SIZE:
            assert table.symbol_of(code) == DEFAULT_ALPHABET.symbols[(code - shift) % SIZE]
        else:
            assert outcome(table.symbol_of, code) == (
                CodeOutOfRange, f"code {code} outside [0, {SIZE})", None
            )
    assert outcome(table.code_of, "a") == (
        UnknownSymbol, "symbol 'a' is not in alphabet 'default'", None
    )


@FUZZ
@given(st.text(symbols, min_size=1, max_size=40))
def test_preprocess_matches_per_symbol_model(text):
    def model():
        substituted = text.upper().replace(" ", PAD_SYMBOL)
        side = square_side(len(substituted))
        padded = substituted.ljust(side * side, PAD_SYMBOL)
        screen(padded, DEFAULT_ALPHABET)
        return padded

    assert outcome(preprocess, text, DEFAULT_ALPHABET) == outcome(model)


square_texts = st.sampled_from([2, 4, 6, 8]).flatmap(
    lambda side: st.text(symbols, min_size=side * side, max_size=side * side)
)


@FUZZ
@given(square_texts, shifts)
def test_to_matrix_matches_per_symbol_model(text, shift):
    # the length check before the codes is unchanged and tested in test_layout
    table = CharTable(DEFAULT_ALPHABET, shift)

    def model():
        screen(text, DEFAULT_ALPHABET)
        side = square_side(len(text))
        rows = [text[r * side : (r + 1) * side] for r in range(side)]
        return MessageMatrix(side, tuple(tuple(table.code_of(s) for s in row) for row in rows))

    assert outcome(to_matrix, text, table) == outcome(model)


@st.composite
def planted(draw, matrix_strategy, codes):
    """A matrix with up to two cells replaced by codes from `codes`."""
    matrix = draw(matrix_strategy)
    cells = [list(row) for row in matrix.cells]
    for _ in range(draw(st.integers(0, 2))):
        cell = draw(st.integers(0, matrix.dim**2 - 1))
        cells[cell // matrix.dim][cell % matrix.dim] = draw(codes)
    return MessageMatrix(matrix.dim, tuple(map(tuple, cells)))


@FUZZ
@given(planted(matrices(st.integers(-2, SIZE + 1)), st.sampled_from(WIDE_CODES)), shifts)
def test_to_symbols_matches_per_code_model(matrix, shift):
    table = CharTable(DEFAULT_ALPHABET, shift)

    def model():
        return "".join(table.symbol_of(code) for row in matrix.cells for code in row)

    assert outcome(to_symbols, matrix, table) == outcome(model)


@FUZZ
@given(st.sampled_from([TWO, WIDE]), st.integers(1, 700), st.data())
def test_registered_alphabet_tables_match_the_shift_formula(alphabet, shift, data):
    size = alphabet.size
    table = CharTable(alphabet, shift)
    side = data.draw(st.sampled_from([2, 4, 6]))
    # alphabet symbols, now and then a stray one
    text = data.draw(st.text(st.sampled_from(alphabet.symbols + STRAYS), min_size=side * side,
                             max_size=side * side))
    codes = st.one_of(st.integers(0, size - 1), st.sampled_from((-1, size, *WIDE_CODES)))
    matrix = data.draw(planted(matrices(st.integers(0, size - 1), dims=(side,)), codes))

    def symbols_model():
        for code in chain.from_iterable(matrix.cells):
            if not 0 <= code < size:
                raise CodeOutOfRange(f"code {code} outside [0, {size})")
        return "".join(alphabet.symbols[(code - shift) % size]
                       for code in chain.from_iterable(matrix.cells))

    def matrix_model():
        screen(text, alphabet)
        codes = [(shift + alphabet.symbols.index(symbol)) % size for symbol in text]
        return MessageMatrix(side, tuple(tuple(codes[r * side : (r + 1) * side])
                                         for r in range(side)))

    assert outcome(to_symbols, matrix, table) == outcome(symbols_model)
    assert outcome(to_matrix, text, table) == outcome(matrix_model)
    if isinstance(outcome(matrix_model), MessageMatrix):
        assert to_symbols(to_matrix(text, table), table) == text


@FUZZ
@given(st.sampled_from([TWO, WIDE]), st.sampled_from(list(Scheme)),
       st.sampled_from(list(NRule)), st.data())
def test_registered_alphabet_round_trips(alphabet, scheme, n_rule, data):
    # an even-square length, so the 300-symbol alphabet, which has no '0',
    # needs no padding; its mixed case must come back as written
    side = data.draw(st.sampled_from([2, 4, 6]))
    text = data.draw(st.text(st.sampled_from(alphabet.symbols), min_size=side * side,
                             max_size=side * side))
    try:
        coded = encode_text(text, scheme, n_rule, alphabet.id)
    except DegenerateBlock:
        return
    assert decode_text(parse(serialize(coded))) == text


def kept(scheme, block):
    if scheme is Scheme.LUCAS_BLOCKING:
        return block.b1, block.b2, block.b4
    return block.b1, block.b2, block.b3


def determinant(block):
    return block.b1 * block.b4 - block.b2 * block.b3


def encode_model(matrix, scheme):
    for code in chain.from_iterable(matrix.cells):
        if not 0 <= code < SIZE:
            raise CodeOutOfRange(f"code {code} outside [0, {SIZE})")
    blocks = to_blocks(matrix)
    pivot = 1 if scheme is Scheme.LUCAS_BLOCKING else 0
    degenerate = [b.index for b in blocks if kept(scheme, b)[pivot] == 0]
    if degenerate:
        raise DegenerateBlock(degenerate)
    return tuple(FRow(determinant(b), *kept(scheme, b)) for b in blocks)


def decode_model(coded):
    blocks = []
    for index, row in enumerate(coded.rows, start=1):
        for code in (row.k1, row.k2, row.k3):
            if not 0 <= code < SIZE:
                raise TamperDetected(
                    f"block {index}: kept code {code} outside [0, {SIZE})", block_index=index
                )
        try:
            x = solve_missing(row, coded.scheme, size=SIZE)
        except TamperDetected as exc:
            raise TamperDetected(f"block {index}: {exc}", block_index=index) from None
        if coded.scheme is Scheme.LUCAS_BLOCKING:
            blocks.append(Block(index, row.k1, row.k2, x, row.k3))
        else:
            blocks.append(Block(index, row.k1, row.k2, row.k3, x))
    return reassemble(blocks, coded.dim)


@FUZZ
@given(matrices(), st.sampled_from(list(Scheme)))
def test_encode_matches_per_block_model(matrix, scheme):
    def rows():
        return encode(matrix, scheme).rows

    assert outcome(rows) == outcome(encode_model, matrix, scheme)


@FUZZ
@given(
    planted(matrices(), st.sampled_from((-1, SIZE, *WIDE_CODES))),
    st.sampled_from(list(Scheme)),
)
def test_encode_refuses_a_code_outside_the_alphabet(matrix, scheme):
    # named in row-major order, before any zero pivot; whatever encode
    # accepts, decode gives back
    got = outcome(encode, matrix, scheme)
    expected = outcome(encode_model, matrix, scheme)
    if isinstance(got, CodedMessage):
        assert got.rows == expected and decode(got) == matrix
    else:
        assert got == expected


# (block, field, value) edits: kept codes out of range, zero pivots, wrong d,
# and values far past +-900, whose numerators and x no longer fit a machine
# word; field "x" sets d so that the dropped element solves exactly to value
edits = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.sampled_from(["d", "k1", "k2", "k3", "x"]),
        st.one_of(
            st.integers(-2, SIZE + 1),
            st.just(0),
            st.integers(-900, 900),
            st.integers(-(10**40), 10**40),
            st.sampled_from([10**40, -(10**40), 2**64, -(2**64)]),
        ),
    ),
    max_size=3,
)


def edited_rows(matrix, scheme, changes):
    """The rows of the matrix, zero pivots included, then a few fields replaced."""
    lucas = scheme is Scheme.LUCAS_BLOCKING
    rows = [FRow(determinant(b), *kept(scheme, b)) for b in to_blocks(matrix)]
    for index, name, value in changes:
        index %= len(rows)
        _, k1, k2, k3 = rows[index]
        if name == "x":
            name, value = "d", k1 * k3 - k2 * value if lucas else k1 * value - k2 * k3
        rows[index] = rows[index]._replace(**{name: value})
    return rows


@FUZZ
@given(matrices(), st.sampled_from(list(Scheme)), st.sampled_from(list(NRule)), edits)
def test_decode_matches_per_block_model(matrix, scheme, n_rule, changes):
    rows = edited_rows(matrix, scheme, changes)
    coded = from_rows(scheme, n_rule, matrix.dim, "default", rows)
    expected = outcome(decode_model, coded)
    assert outcome(decode, coded) == expected
    if not changes and isinstance(expected, MessageMatrix):
        assert expected == matrix


# ---- the text paths are the matrix pieces composed ----

TEXT_ALPHABETS = [DEFAULT_ALPHABET, TWO, LOWER, WIDE]


def raised(f, *args):
    """The result of f(*args), or the type, text and block index of any error."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "block_index", None)


def encode_text_model(text, scheme, n_rule, alphabet_id):
    alphabet = get_alphabet(alphabet_id)
    # the n-rule of the padded text's block count is checked before its strays
    n = choose_n(len(_padded(text, alphabet)) // 4, n_rule)
    symbols = preprocess(text, alphabet)
    return encode(to_matrix(symbols, CharTable(alphabet, n)), scheme, n_rule, alphabet_id)


def decode_text_model(coded):
    return to_symbols(decode(coded), CharTable(get_alphabet(coded.alphabet_id), coded.n))


def draw_text(data, alphabet):
    """A text and an alphabet id, mostly `alphabet`'s."""
    # an even-square length half the time, the only one the wide alphabet,
    # which has no '0' to pad with, takes; then maybe a case the alphabet
    # lacks or a stray
    chars = st.sampled_from(alphabet.symbols + (" ",))
    side = data.draw(st.sampled_from([0, 2, 4, 6]))
    text = data.draw(st.text(chars, min_size=side * side, max_size=side * side or 60))
    if data.draw(st.integers(0, 3)) == 0:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(["A", "a", "#", "\x00"])) + text[at + 1 :]
    return text, data.draw(st.sampled_from([alphabet.id] * 9 + ["unregistered"]))


@FUZZ
@given(
    st.sampled_from(TEXT_ALPHABETS),
    st.sampled_from([*Scheme, *Scheme, "lucas"]),  # a non-member: the error order shows
    st.sampled_from([*NRule, *NRule, "half"]),
    st.data(),
)
def test_encode_text_is_encode_of_to_matrix_of_preprocess(alphabet, scheme, n_rule, data):
    text, alphabet_id = draw_text(data, alphabet)
    expected = raised(encode_text_model, text, scheme, n_rule, alphabet_id)
    assert raised(encode_text, text, scheme, n_rule, alphabet_id) == expected


@FUZZ
@given(
    st.sampled_from([DEFAULT_ALPHABET, TWO, WIDE]),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(NRule)),
    st.data(),
)
def test_encode_text_cuts_the_columns_the_matrix_path_cuts(alphabet, scheme, n_rule, data):
    # the table's codes reach `_columns` as a bytearray, those of the
    # 300-symbol alphabet as a list, and a grid's always as a list; up to
    # dim 16, so that up to eight rows of blocks are cut
    dim = data.draw(st.sampled_from([2, 4, 6, 8, 16]))
    text = data.draw(st.text(st.sampled_from(alphabet.symbols), min_size=dim * dim,
                             max_size=dim * dim))
    table = CharTable(alphabet, choose_n((dim // 2) ** 2, n_rule))
    wide = alphabet.size > 256
    assert type(table._codes_of(text)) is (list if wide else bytearray)

    def columns(f, *args):
        try:
            coded = f(*args)
        except DegenerateBlock as exc:
            return "DegenerateBlock", exc.indices
        return coded.ds, coded.k1s, coded.k2s, coded.k3s

    expected = columns(encode, to_matrix(preprocess(text, alphabet), table), scheme, n_rule,
                       alphabet.id)
    assert columns(encode_text, text, scheme, n_rule, alphabet.id) == expected


@FUZZ
@given(st.sampled_from(TEXT_ALPHABETS), st.sampled_from([2, 4, 6, 8]),
       st.sampled_from(list(Scheme)), st.sampled_from(list(NRule)), edits, st.data())
def test_decode_text_is_to_symbols_of_decode(alphabet, dim, scheme, n_rule, changes, data):
    # clean and damaged payloads, zero pivots included, over every kind of alphabet
    codes = data.draw(st.lists(st.integers(0, alphabet.size - 1), min_size=dim * dim,
                               max_size=dim * dim))
    matrix = MessageMatrix(dim, tuple(tuple(codes[r * dim : (r + 1) * dim]) for r in range(dim)))
    coded = from_rows(scheme, n_rule, dim, alphabet.id, edited_rows(matrix, scheme, changes))
    expected = raised(decode_text_model, coded)
    assert raised(decode_text, coded) == expected
    if not changes and isinstance(expected, str):
        assert expected == to_symbols(matrix, CharTable(alphabet, coded.n))


# ---- the row verdict: solve_missing is what decode decides for one row ----

row_codes = st.integers(-2, SIZE + 1)


@FUZZ
@given(
    st.builds(FRow, st.integers(-900, 900), row_codes, row_codes, row_codes),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(NRule)),
)
@hypothesis.example(FRow(-5, 31, 1, 0), Scheme.LUCAS_BLOCKING, NRule.HALF)
@hypothesis.example(FRow(-5, 31, 1, 0), Scheme.MINESWEEPER, NRule.HALF)
@hypothesis.example(FRow(54, 9, 10, 16), Scheme.LUCAS_BLOCKING, NRule.HALF)
@hypothesis.example(FRow(96, 16, 12, 16), Scheme.MINESWEEPER, NRule.TAS)
def test_solve_missing_agrees_with_decode_of_its_row(row, scheme, n_rule):
    decoded = outcome(decode, from_rows(scheme, n_rule, 2, "default", [row]))
    solved = outcome(solve_missing, row, scheme)
    if isinstance(decoded, MessageMatrix):
        (_, _), (b3, b4) = decoded.cells
        assert solved == (b3 if scheme is Scheme.LUCAS_BLOCKING else b4)
    else:
        kind, text, index = decoded
        assert kind is TamperDetected and index == 1 and text.startswith("block 1: ")
        assert solved == (TamperDetected, text.removeprefix("block 1: "), None)


# values a row may hold that no payload carries: ints past the interpreter's
# 4300-digit int-string limit, which a text names by size, bools and floats
LONG_INTS = st.integers(14_400, 15_000).map(lambda bits: 1 << bits)
row_values = st.one_of(st.integers(), LONG_INTS, LONG_INTS.map(lambda v: -v), st.booleans(),
                       st.floats())


@st.composite
def sized_rows(draw):
    """A scheme, an alphabet size and a row: kept codes mostly in [0, size),
    d often the determinant of the block whose dropped code is some x."""
    scheme = draw(st.sampled_from(list(Scheme)))
    size = draw(st.sampled_from([1, 2, 30, 256, 300]))
    # one_of flattens row_values' branches into its own, so a value is drawn
    # from them one time in four, else near the range it is checked against
    def value(near):
        return draw(row_values if draw(st.integers(0, 3)) == 0 else near)

    codes = st.one_of(st.integers(0, size - 1), st.integers(-2, size + 1), st.floats(0, size - 1))
    k1, k2, k3 = value(codes), value(codes), value(codes)
    x = value(st.integers(-1, size))
    try:  # b1*b4 - b2*b3, the dropped code being b3, resp. b4
        solved = k1 * k3 - k2 * x if scheme is Scheme.LUCAS_BLOCKING else k1 * x - k2 * k3
    except OverflowError:
        solved = 0
    d = value(st.one_of(st.just(solved), st.just(solved + 1),
                        st.integers(-size * size, size * size)))
    return scheme, size, (d, k1, k2, k3)


@FUZZ
@given(sized_rows())
@hypothesis.example((Scheme.LUCAS_BLOCKING, 30, (-5, 31, 1, 0)))
@hypothesis.example((Scheme.LUCAS_BLOCKING, 30, (0, 1, 0, 7)))
@hypothesis.example((Scheme.MINESWEEPER, 30, (1, 9.5, 10, 16)))
@hypothesis.example((Scheme.MINESWEEPER, 30, (10**5000, 1, 2, 3)))
@hypothesis.example((Scheme.LUCAS_BLOCKING, 30, (10**5000, 1.5, 2, 3)))
def test_verdict_returns_what_solve_missing_returns_or_names_what_it_raises(sized_row):
    scheme, size, row = sized_row
    try:
        check, value = codec._verdict(row, scheme is Scheme.LUCAS_BLOCKING, size)
    except OverflowError:  # a float meets an int too long to convert: both raise it
        with pytest.raises(OverflowError):
            solve_missing(row, scheme, size=size)
        return
    if check is None:
        x = solve_missing(row, scheme, size=size)
        assert type(x) is type(value) and x == value  # a float row solves to a float
        return
    with pytest.raises(TamperDetected) as info:
        solve_missing(row, scheme, size=size)
    assert (str(info.value), info.value.block_index) == (
        check.format(_int_text(value), size), None)
    # the check named is the first that fails, and the value is the one it reads
    out_of_range = [code for code in row[1:] if not 0 <= code < size]
    assert (check is codec._KEPT_OUT) == bool(out_of_range)
    if out_of_range:
        assert value is out_of_range[0]
    elif check in (codec._ZERO_PIVOT, codec._INEXACT):
        assert value is row[0]
    else:
        assert check is codec._RECOVERED_OUT and not 0 <= value < size


def with_nonzero_pivots(matrix, scheme):
    pivot = "b2" if scheme is Scheme.LUCAS_BLOCKING else "b1"
    blocks = [b._replace(**{pivot: getattr(b, pivot) or 1}) for b in to_blocks(matrix)]
    return reassemble(blocks, matrix.dim)


@FUZZ
@given(
    matrices(dims=range(2, 17, 2)),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(NRule)),
    st.integers(0, 2**16),
)
def test_swap_rows_is_never_detected(matrix, scheme, n_rule, seed):
    # solve_missing reads only the row, so each moved row decodes to its own
    # block at the other's index
    matrix = with_nonzero_pivots(matrix, scheme)
    coded = encode(matrix, scheme, n_rule)
    spec = CorruptionSpec(Strategy.SWAP_ROWS, seed=seed)
    if len(set(coded.rows)) < 2:
        assert outcome(corrupt, coded, spec)[0] is NotEnoughRows
        return
    damaged = corrupt(coded, spec)
    i, j = (k for k, pair in enumerate(zip(coded.rows, damaged.rows)) if pair[0] != pair[1])
    blocks = to_blocks(matrix)
    blocks[i], blocks[j] = blocks[j], blocks[i]
    assert decode(damaged) == reassemble(blocks, matrix.dim)


# ---- the harness: decode's verdict on the rows corrupt changed ----

# perturb-kept wraps at and past the alphabet size (30)
MAGNITUDES = [1, 5, 29, 30, 31, 61, 90]
COLUMNS = ("ds", "k1s", "k2s", "k3s")


@FUZZ
@given(
    matrices(dims=range(2, 17, 2)),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(Strategy)),
    st.sampled_from(MAGNITUDES),
    st.integers(0, 2**16),
)
def test_damage_names_exactly_the_rows_corrupt_changed(matrix, scheme, strategy, magnitude, seed):
    coded = encode(with_nonzero_pivots(matrix, scheme), scheme)
    spec = CorruptionSpec(strategy, magnitude, seed)
    damaged = outcome(corrupt, coded, spec)
    if not isinstance(damaged, CodedMessage):
        assert damaged[0] is NotEnoughRows and outcome(_damage, coded, spec) == damaged
        return
    edits = _damage(coded, spec)
    differ = [i for i in range(len(coded.ds))
              if any(getattr(coded, c)[i] != getattr(damaged, c)[i] for c in COLUMNS)]
    # swap-rows names its pair in the order it drew them
    assert differ == sorted(edits)
    for i, row in edits.items():
        assert row == tuple(damaged.rows[i])


@st.composite
def harness_messages(draw):
    # dims 2-16; a message whose table codes a pivot to 0 raises DegenerateBlock
    dim = draw(st.sampled_from(range(2, 17, 2)))
    letters = "".join(DEFAULT_ALPHABET.symbols) + " "
    return draw(st.text(alphabet=letters, min_size=(dim - 2) ** 2 + 1, max_size=dim * dim))


DIM32_MESSAGE = "HELLO THERE! " * 78


@FUZZ
@given(
    harness_messages(),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(NRule)),
    st.sampled_from(list(Strategy)),
    st.sampled_from(MAGNITUDES),
    st.integers(0, 2**16),
    st.integers(1, 12),
)
@hypothesis.example(DIM32_MESSAGE, Scheme.LUCAS_BLOCKING, NRule.HALF, Strategy.PERTURB_D, 61, 0, 12)
@hypothesis.example(DIM32_MESSAGE, Scheme.MINESWEEPER, NRule.TAS, Strategy.PERTURB_KEPT, 90, 3, 12)
@hypothesis.example(DIM32_MESSAGE, Scheme.MINESWEEPER, NRule.HALF, Strategy.SWAP_ROWS, 1, 5, 12)
@hypothesis.example("A.AA", Scheme.LUCAS_BLOCKING, NRule.HALF, Strategy.PERTURB_D, 1, 0, 3)
@hypothesis.example("A" * 16, Scheme.LUCAS_BLOCKING, NRule.HALF, Strategy.SWAP_ROWS, 1, 0, 3)
@hypothesis.example("A" * 16, Scheme.MINESWEEPER, NRule.TAS, Strategy.PERTURB_KEPT, 30, 0, 12)
def test_detection_rate_matches_full_decode_oracle(text, scheme, n_rule, strategy, magnitude,
                                                   seed, trials):
    # DegenerateBlock and NotEnoughRows are compared by type, text and order too
    spec = CorruptionSpec(strategy, magnitude, seed)
    expected = outcome(outcomes_by_decode, text, scheme, spec, trials, n_rule)
    # detection_rate counts every trial that solves as miscorrected
    assert not isinstance(expected, DetectionReport) or expected.undetected_equal == 0
    assert outcome(detection_rate, text, scheme, spec, trials, n_rule) == expected


@FUZZ
@given(
    st.sampled_from(TEXT_ALPHABETS),
    st.sampled_from([*Scheme, *Scheme, "lucas"]),
    st.sampled_from([*NRule, *NRule, "half"]),
    st.sampled_from(list(Strategy)),
    st.sampled_from(MAGNITUDES),
    st.integers(-(2**16), 2**16),
    st.data(),
)
def test_detection_rate_raises_what_encode_text_raises(alphabet, scheme, n_rule, strategy,
                                                        magnitude, seed, data):
    # detection_rate builds no record, so it must raise encode_text's errors
    # itself, with the same type and text, in the same order
    text, alphabet_id = draw_text(data, alphabet)
    spec = CorruptionSpec(strategy, magnitude, seed)
    encoded = raised(encode_text, text, scheme, n_rule, alphabet_id)
    report = raised(detection_rate, text, scheme, spec, data.draw(st.integers(1, 5)), n_rule,
                    alphabet_id)
    if isinstance(encoded, CodedMessage):  # too few distinct rows is swap-rows' own error
        assert isinstance(report, DetectionReport) or report[0] is NotEnoughRows
    else:
        assert report == encoded


# ---- parse against a per-line model of the wire grammar ----


def _model_int(token, line_no):
    if not re.fullmatch(r"0|-?[1-9][0-9]*", token):
        raise MalformedPayload(f"line {line_no}: {token!r} is not a canonical integer")
    try:
        return int(token)
    except ValueError:
        raise MalformedPayload(f"line {line_no}: {len(token)}-digit integer is too long") from None


def parse_model(text):
    """The wire grammar checked one line, then one token, at a time."""
    lines = text.split("\n")
    for line_no, line in enumerate(lines, start=1):
        if "\r" in line:
            raise MalformedPayload(
                f"line {line_no} contains a carriage return: lines must end in '\\n' alone, not CRLF"
            )
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise MalformedPayload("empty payload")
    header = re.fullmatch(
        r"QBLK1;scheme=(lucas|mine);nrule=(half|tas);dim=(0|[1-9][0-9]*);alpha=([^;\s]+)", lines[0]
    )
    if header is None:
        raise MalformedPayload(f"bad header line {lines[0]!r}")
    scheme, n_rule, dim, alphabet_id = header.groups()
    dim = _model_int(dim, 1)
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != 4:
            raise MalformedPayload(f"line {line_no}: expected 4 comma-separated integers")
        rows.append(FRow(*(_model_int(token, line_no) for token in tokens)))
    coded = from_rows(Scheme(scheme), NRule(n_rule), dim, alphabet_id, rows)
    get_alphabet(alphabet_id)
    return coded


# token edits: longer than, or exactly at, the interpreter's 4300-digit
# int-string limit, one step off the canonical form, made only of the
# characters the shape check keeps or deletes, non-ASCII, or a canonical
# token too long for parse's token memo
token_edits = st.sampled_from(
    [
        lambda t: "5" * 5000,
        lambda t: "-" + "7" * 5000,
        lambda t: "9" * 4300,
        lambda t: "-" + "1" * 4300,
        lambda t: "0" + t,
        lambda t: "-" + t,
        lambda t: "+" + t,
        lambda t: t + " ",
        lambda t: t + ",1",
        lambda t: "",
        lambda t: "\u0663",  # ARABIC-INDIC DIGIT THREE
        lambda t: t + "\uff17",  # FULLWIDTH DIGIT SEVEN
        lambda t: "\ud800",  # a lone surrogate, which str.encode refuses
        lambda t: "-0",
        lambda t: "--1",
        lambda t: "1-2",
        lambda t: "-",
        lambda t: t + "-",
        lambda t: ",",  # an empty token on each side
        lambda t: "-1234",
        None,  # a blank line instead
    ]
)


@st.composite
def edited_payloads(draw):
    """Valid payloads, then blank lines, edited tokens or no final newline."""
    dim = draw(st.sampled_from([2, 4, 6, 8]))
    row = st.tuples(*[st.integers(-900, 900)] * 4).map(lambda r: ",".join(map(str, r)))
    lines = [f"QBLK1;scheme={draw(st.sampled_from(['lucas', 'mine']))};nrule=half;dim={dim}"
             ";alpha=default"]
    lines += draw(st.lists(row, min_size=(dim // 2) ** 2, max_size=(dim // 2) ** 2))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(lines) - 1))
        edit = draw(token_edits)
        if edit is None:
            lines.insert(at, "")
        else:
            tokens = lines[at].split(",")
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = edit(tokens[i])
            lines[at] = ",".join(tokens)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@FUZZ
@given(st.one_of(payloads, edited_payloads()))
def test_parse_matches_per_line_model(payload):
    got = outcome(parse, payload)
    assert got == outcome(parse_model, payload)
    if isinstance(got, CodedMessage):
        assert all(type(row) is FRow for row in got.rows)


@FUZZ
@given(edited_payloads())
def test_parse_accepts_a_body_iff_the_grammar_oracle_finds_no_bad_line(payload):
    # no token edit changes the row count, so only the body decides
    body = (payload if payload.endswith("\n") else payload + "\n").partition("\n")[2]
    too_long = any(len(token.lstrip("-")) > 4300 for token in re.split("[,\n]", body))
    got = outcome(parse, payload)
    assert isinstance(got, CodedMessage) == (NON_ROW_RE.search(body) is None and not too_long)
    assert got == outcome(parse_model, payload)


# ---- the CLI's argv ----

# every subcommand with its required and its optional flags, every flag with
# valid and invalid values, file names relative to the working directory
# only, and no --trials above 5
ARGV_COMMANDS = {
    "encode": (("--scheme",), ("--n-rule", "-i", "--input", "-o", "--output")),
    "decode": ((), ("-i", "--input", "-o", "--output", "--render", "--spaces")),
    "demo": (("--example",), ("--example",)),
    "harness": (
        ("--scheme", "--strategy", "--trials"),
        ("--trials", "--seed", "--magnitude", "--message", "--n-rule", "--csv"),
    ),
    "bogus": ((), ("--alphabet",)),
}
ARGV_NAMES = ("in.txt", "out.txt", ".", "missing/x", "")
ARGV_FLAGS = {
    "--scheme": ("lucas", "mine", "nope"),
    "--n-rule": ("half", "tas", "x"),
    "-i": ARGV_NAMES,
    "--input": ARGV_NAMES,
    "-o": ARGV_NAMES,
    "--output": ARGV_NAMES,
    "--csv": ARGV_NAMES,
    "--render": ("text", "grid", "x"),
    "--spaces": ("restore", "keep", "x"),
    "--example": ("1", "2", "3"),
    "--strategy": ("perturb-d", "perturb-kept", "swap-rows", "x"),
    "--trials": ("1", "5", "0", "x"),
    "--seed": ("0", "-3", "x"),
    "--magnitude": ("1", "5", "0", "-3"),
    "--message": ("HI", "A", "a b", "", golden.EX1_MESSAGE),
    "--alphabet": ("default",),
}
ARGV_WORDS = ("-h", "--help", "x", *ARGV_COMMANDS, *ARGV_FLAGS)


@st.composite
def argvs(draw):
    def pair(flag):
        return [flag, draw(st.sampled_from(ARGV_FLAGS[flag]))]

    command = draw(st.sampled_from(sorted(ARGV_COMMANDS)))
    required, optional = ARGV_COMMANDS[command]
    argv = [command]
    for flag in (*required, *draw(st.lists(st.sampled_from(optional), max_size=3))):
        argv += pair(flag)
    # a few stray words: a flag of another command, a missing value, -h
    return argv + draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=2))


@hypothesis.settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@given(argvs())
def test_cli_argv_exits_0_1_or_2_without_a_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    # the same readable files for every example: a payload and a message
    (tmp_path / "in.txt").write_text(golden.EX1_PAYLOAD, encoding="utf-8")
    (tmp_path / "out.txt").write_text(golden.EX1_MESSAGE + "\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(golden.EX1_PAYLOAD))
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
