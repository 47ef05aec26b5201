"""Shifted character tables: symbol <-> code bijections over a small alphabet.

The default alphabet has 30 symbols, A..Z then 0 ! ? .   A table with shift n
maps the k-th symbol to (n + k) mod size, so the whole mapping slides with the
key index and changes from message to message.  A `CharTable` is the record
(alphabet, shift) and stores no lookup: `_lookup` builds each direction of
the table of shift mod size once, and keeps the last 128 built.
`_codes_of`/`_symbols_of` map a sequence through it with `str.translate`,
which stops at the first symbol or code that the table lacks; the error names
it as `code_of`/`symbol_of` do, a stray in a `str` with its position, so `_codes_of` is
the one screen for strays.  The codes of a `str` come back as a bytearray.  A non-`str`
input, a code past Latin-1 or an alphabet of over 256 symbols reads item by item.
The text paths call them as `_codes`/`_symbols` on an (alphabet, shift) pair.

Alternative alphabets can be registered under an id; both endpoints must
register the same table up front (the id travels in the wire header, the
symbols do not).
"""

import re
from collections import namedtuple
from functools import lru_cache
from operator import index

from .errors import CodeOutOfRange, UnknownAlphabet, UnknownSymbol, _int_text

DEFAULT_ALPHABET_ID = "default"

_DEFAULT_SYMBOLS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?.")

# an id as the wire header's alpha= field carries it: re's \s is exactly str.isspace()
_ID_RE = re.compile(r"[^;\s]+")


def _check_id(id: str) -> None:
    """Refuse an alphabet id that the wire header cannot carry."""
    if not _ID_RE.fullmatch(id):
        raise ValueError(f"alphabet id {id!r} must be non-empty, no ';' or whitespace")


class _Record:
    """Base of the namedtuple records whose `__new__` checks the fields.

    A namedtuple's own `_make`, and so `_replace`, builds the tuple without
    calling `__new__`; this one calls it, so a changed copy is checked too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # a list: from `_replace`'s map CPython would shrink a guessed
        # 10-tuple per call, and the shrunk tuples fill its tuple free lists
        return cls(*list(iterable))


class Alphabet(_Record, namedtuple("Alphabet", "id symbols")):
    """An ordered set of distinct symbols, identified by a short id."""

    __slots__ = ()

    def __new__(cls, id: str, symbols: tuple[str, ...] = _DEFAULT_SYMBOLS):
        symbols = tuple(symbols)  # hashable, so that `_lookup` can key its tables by alphabet
        _check_id(id)
        if any(len(symbol) != 1 for symbol in symbols):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if len(symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")
        return super().__new__(cls, id, symbols)

    @property
    def size(self) -> int:
        return len(self.symbols)


DEFAULT_ALPHABET = Alphabet(DEFAULT_ALPHABET_ID)

_registry: dict[str, Alphabet] = {DEFAULT_ALPHABET_ID: DEFAULT_ALPHABET}


def register_alphabet(alphabet: Alphabet) -> None:
    """Make an alphabet resolvable by id.  Re-registering the identical
    alphabet is a no-op; a different one under the same id is an error."""
    existing = _registry.get(alphabet.id)
    if existing is not None and existing != alphabet:
        raise ValueError(f"alphabet id {alphabet.id!r} already registered with different symbols")
    _registry[alphabet.id] = alphabet


def get_alphabet(alphabet_id: str) -> Alphabet:
    try:
        return _registry[alphabet_id]
    except KeyError:
        raise UnknownAlphabet(f"no alphabet registered under id {alphabet_id!r}") from None


_BYTES = bytes(range(256))  # the codes of a byte: at most 256 symbols convert as bytes


class _Miss(Exception):
    """Carries the key that a `_Refusing` table lacks."""


class _Refusing(dict):
    """Raises `_Miss` at a key it lacks.  `str.translate` keeps a character on a
    LookupError but lets any other error through: a translation stops at its first miss."""

    def __missing__(self, key):
        raise _Miss(key)


@lru_cache(maxsize=128)  # both directions of all 30 default shifts, and room for more
def _lookup(alphabet: Alphabet, start: int, direction: str) -> _Refusing:
    """The table of shift `start` < size, shared and so never written to: symbol
    ordinal -> code ("ord"), symbol -> code ("symbol") or code -> symbol ("code")."""
    letters = alphabet.symbols
    codes = [*range(start, len(letters)), *range(start)]  # (start + k) mod size, k = 0, 1, ...
    if direction == "code":
        return _Refusing(zip(codes, letters))
    return _Refusing(zip(map(ord, letters) if direction == "ord" else letters, codes))


class CharTable(_Record, namedtuple("CharTable", "alphabet shift")):
    """An alphabet together with its shift n: symbol k codes to (n + k) mod size.

    Each conversion reads the one direction it needs from `_lookup`.
    """

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, shift: int):
        shift = index(shift)
        if shift < 1:
            raise ValueError(f"shift must be >= 1, got {_int_text(shift)}")
        return super().__new__(cls, alphabet, shift)

    def code_of(self, symbol: str) -> int:
        return self._codes_of((symbol,))[0]

    def symbol_of(self, code: int) -> str:
        return self._symbols_of((code,))[0]

    def _codes_of(self, symbols) -> bytearray | list[int]:
        alphabet, shift = self
        start = shift % alphabet.size
        by_ordinal = isinstance(symbols, str) and alphabet.size <= len(_BYTES)
        try:
            if by_ordinal:
                coded = symbols.translate(_lookup(alphabet, start, "ord"))
                return bytearray(coded, "latin-1")
            # keyed by symbol: 65 or b"A" misses, an unhashable item raises TypeError
            return list(map(_lookup(alphabet, start, "symbol").__getitem__, symbols))
        except _Miss as miss:  # translate looks a character up by its ordinal
            symbol = chr(miss.args[0]) if by_ordinal else miss.args[0]
        at = f" at position {symbols.index(symbol)}" if isinstance(symbols, str) else ""
        raise UnknownSymbol(f"symbol {symbol!r}{at} is not in alphabet {alphabet.id!r}")

    def _symbols_of(self, codes) -> str:
        alphabet, shift = self
        table = _lookup(alphabet, shift % alphabet.size, "code")
        try:
            try:
                return bytes(codes).decode("latin-1").translate(table)
            except (TypeError, ValueError):  # bytes() refuses all but an int in range(256)
                pass  # so a TypeError of the lookup below does not chain to this one
            return "".join(map(table.__getitem__, codes))
        except _Miss as miss:
            code = miss.args[0]
        raise CodeOutOfRange(f"code {_int_text(code)} outside [0, {alphabet.size})")


_codes, _symbols = CharTable._codes_of, CharTable._symbols_of  # on a CharTable or its pair too
