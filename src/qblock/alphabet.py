"""Shifted character tables: symbol <-> code bijections over a small alphabet.

The default alphabet has 30 symbols, A..Z then 0 ! ? .   A table with shift n
maps the k-th symbol to (n + k) mod size, so the whole mapping slides with the
key index and changes from message to message.  A `CharTable` is the record
(alphabet, shift) and stores no lookup: `_codes_of`/`_symbols_of` build one
table per call and map a sequence through it with `str.translate`, whose
misses delete and so shorten the result.  A short result, a code past
Latin-1, a non-`str` input or an alphabet of more than 256 symbols takes
the same table one item at a time, reads a miss as None and names the
first miss as `code_of`/`symbol_of` do.

Alternative alphabets can be registered under an id; both endpoints must
register the same table up front (the id travels in the wire header, the
symbols do not).
"""

from collections import namedtuple

from .errors import CodeOutOfRange, UnknownAlphabet, UnknownSymbol

DEFAULT_ALPHABET_ID = "default"

_DEFAULT_SYMBOLS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?.")


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
        # what the wire header refuses: its \s is exactly str.isspace()
        if not id or any(c == ";" or c.isspace() for c in id):
            raise ValueError(f"alphabet id {id!r} must be non-empty, no ';' or whitespace")
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


class _Deleting(dict):
    """A `str.translate` table that deletes what it does not map: a miss shortens the result."""

    def __missing__(self, key):
        return None


class CharTable(_Record, namedtuple("CharTable", "alphabet shift")):
    """An alphabet together with its shift n: symbol k codes to (n + k) mod size.

    Each lookup builds the one direction it needs when it is called.
    """

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, shift: int):
        if shift < 1:
            raise ValueError(f"shift must be >= 1, got {shift}")
        return super().__new__(cls, alphabet, shift)

    def code_of(self, symbol: str) -> int:
        return self._codes_of((symbol,))[0]

    def symbol_of(self, code: int) -> str:
        return self._symbols_of((code,))[0]

    def _shifted_codes(self) -> list[int]:  # (shift + k) mod size, k = 0, 1, ...
        start = self.shift % self.alphabet.size
        return [*range(start, self.alphabet.size), *range(start)]

    def _codes_of(self, symbols) -> list[int]:
        table = _Deleting(zip(map(ord, self.alphabet.symbols), self._shifted_codes()))
        if isinstance(symbols, str) and self.alphabet.size <= 256:
            coded = symbols.translate(table)
            if len(coded) == len(symbols):
                return list(coded.encode("latin-1"))
        # a symbol by its ordinal (ord() would take b"A" too), any other item as a
        # 1-tuple: no key equals it, but an unhashable item raises as a dict key would
        codes = [table.get(ord(s) if isinstance(s, str) and len(s) == 1 else (s,)) for s in symbols]
        if None in codes:
            symbol = next(s for s, code in zip(symbols, codes) if code is None)
            raise UnknownSymbol(f"symbol {symbol!r} is not in alphabet {self.alphabet.id!r}")
        return codes

    def _symbols_of(self, codes) -> str:
        table = _Deleting(zip(self._shifted_codes(), self.alphabet.symbols))
        try:  # bytes() refuses a code outside range(256), translate drops one outside range(size)
            text = bytes(codes).decode("latin-1").translate(table)
        except (TypeError, ValueError):
            text = ""
        if len(text) == len(codes):
            return text
        symbols = list(map(table.get, codes))
        if None in symbols:
            code = next(c for c, symbol in zip(codes, symbols) if symbol is None)
            raise CodeOutOfRange(f"code {code} outside [0, {self.alphabet.size})")
        return "".join(symbols)
