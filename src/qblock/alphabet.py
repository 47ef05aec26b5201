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

from dataclasses import dataclass, field

from .errors import CodeOutOfRange, UnknownAlphabet, UnknownSymbol

DEFAULT_ALPHABET_ID = "default"

_DEFAULT_SYMBOLS = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?.")


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct symbols, identified by a short id."""

    id: str
    symbols: tuple[str, ...] = _DEFAULT_SYMBOLS

    def __post_init__(self):
        # what the wire header refuses: its \s is exactly str.isspace()
        if not self.id or any(c == ";" or c.isspace() for c in self.id):
            raise ValueError(f"alphabet id {self.id!r} must be non-empty, no ';' or whitespace")
        if any(len(symbol) != 1 for symbol in self.symbols):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least two symbols")

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


@dataclass(frozen=True)
class CharTable:
    """An alphabet together with its shift n: symbol k codes to (n + k) mod size.

    Both directions are tabulated once, at construction; the table is frozen.
    """

    alphabet: Alphabet
    shift: int
    _codes: dict[str, int] = field(init=False, repr=False, compare=False)
    _symbols: dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shift < 1:
            raise ValueError(f"shift must be >= 1, got {self.shift}")
        size = self.alphabet.size
        start = self.shift % size
        codes = [*range(start, size), *range(start)]  # (shift + k) mod size, k = 0, 1, ...
        object.__setattr__(self, "_codes", dict(zip(self.alphabet.symbols, codes)))
        object.__setattr__(self, "_symbols", dict(zip(codes, self.alphabet.symbols)))

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
