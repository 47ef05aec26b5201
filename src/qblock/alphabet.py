"""Shifted character tables: symbol <-> code bijections over a small alphabet.

The default alphabet has 30 symbols, A..Z then 0 ! ? .   A table with shift n
maps the k-th symbol to (n + k) mod size, so the whole mapping slides with the
key index and changes from message to message.  A `CharTable` is the record
(alphabet, shift) and stores no lookup: `_codes_of`/`_symbols_of` map a
sequence through a `str.translate` table built per call, whose misses
delete and so shorten the result.  A short result, or a code past Latin-1,
falls back to a dict that names the first miss as `code_of`/`symbol_of` do.

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def code_of(self, symbol: str) -> int:
        return self._codes_of((symbol,))[0]

    def symbol_of(self, code: int) -> str:
        return self._symbols_of((code,))[0]

    def _shifted_codes(self) -> list[int]:  # (shift + k) mod size, k = 0, 1, ...
        start = self.shift % self.alphabet.size
        return [*range(start, self.alphabet.size), *range(start)]

    def _codes_of(self, symbols) -> list[int]:
        shifted = self._shifted_codes()
        if isinstance(symbols, str) and self.alphabet.size <= 256:
            coded = symbols.translate(_Deleting(zip(map(ord, self.alphabet.symbols), shifted)))
            if len(coded) == len(symbols):
                return list(coded.encode("latin-1"))
        lookup = dict(zip(self.alphabet.symbols, shifted))
        try:
            return list(map(lookup.__getitem__, symbols))
        except KeyError as exc:  # it carries the first missing item
            raise UnknownSymbol(
                f"symbol {exc.args[0]!r} is not in alphabet {self.alphabet.id!r}"
            ) from None

    def _symbols_of(self, codes) -> str:
        shifted = self._shifted_codes()
        table = _Deleting(zip(shifted, self.alphabet.symbols))
        try:  # bytes() refuses a code outside range(256), translate drops one outside range(size)
            text = bytes(codes).decode("latin-1").translate(table)
        except (TypeError, ValueError):
            text = ""
        if len(text) == len(codes):
            return text
        lookup = dict(zip(shifted, self.alphabet.symbols))
        try:
            return "".join(map(lookup.__getitem__, codes))
        except KeyError as exc:
            raise CodeOutOfRange(f"code {exc.args[0]} outside [0, {self.alphabet.size})") from None
