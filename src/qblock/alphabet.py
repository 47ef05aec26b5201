"""Shifted character tables: symbol <-> code bijections over a small alphabet.

The default alphabet has 30 symbols, A..Z then 0 ! ? .   A table with shift n
maps the k-th symbol to (n + k) mod size, so the whole mapping slides with the
key index and changes from message to message.

`_codes_of`/`_symbols_of` map a whole sequence through a table in one pass,
and name the first miss just as `code_of`/`symbol_of` name theirs.

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

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols


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


class CharTable:
    """An alphabet together with its shift n: symbol k codes to (n + k) mod size.

    Both directions are tabulated once, at construction.  The table is
    frozen, and it compares, hashes and prints as (alphabet, shift) alone.
    """

    __slots__ = ("alphabet", "shift", "_codes", "_symbols")

    def __init__(self, alphabet: Alphabet, shift: int):
        if shift < 1:
            raise ValueError(f"shift must be >= 1, got {shift}")
        size = alphabet.size
        start = shift % size
        codes = [*range(start, size), *range(start)]  # (shift + k) mod size, k = 0, 1, ...
        init = object.__setattr__  # the class's own __setattr__ refuses
        init(self, "alphabet", alphabet)
        init(self, "shift", shift)
        init(self, "_codes", dict(zip(alphabet.symbols, codes)))
        init(self, "_symbols", dict(zip(codes, alphabet.symbols)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.shift) == (other.alphabet, other.shift)

    def __hash__(self):
        return hash((self.alphabet, self.shift))

    def __repr__(self):
        return f"{type(self).__qualname__}(alphabet={self.alphabet!r}, shift={self.shift!r})"

    def __reduce__(self):  # copy and pickle build a new table rather than assign
        return type(self), (self.alphabet, self.shift)

    def code_of(self, symbol: str) -> int:
        return self._codes_of((symbol,))[0]

    def symbol_of(self, code: int) -> str:
        return self._symbols_of((code,))[0]

    def _codes_of(self, symbols) -> list[int]:
        try:
            return list(map(self._codes.__getitem__, symbols))
        except KeyError as exc:  # it carries the first missing item
            raise UnknownSymbol(
                f"symbol {exc.args[0]!r} is not in alphabet {self.alphabet.id!r}"
            ) from None

    def _symbols_of(self, codes) -> list[str]:
        try:
            return list(map(self._symbols.__getitem__, codes))
        except KeyError as exc:
            raise CodeOutOfRange(f"code {exc.args[0]} outside [0, {self.alphabet.size})") from None
