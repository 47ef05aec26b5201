"""Seeded workload inputs, with their reference results.

The same seed always gives the same inputs: each generator draws from its
own ``random.Random`` seeded with a string.  The package only ever sees the
generated text (or payload); the expected symbols, code matrix, rows and
payload come from ``reference``.

Texts are drawn so that no block has a zero pivot under the message's own
shift, so encoding never raises ``DegenerateBlock``.
"""

import random
from dataclasses import dataclass

import reference as ref

SCHEMES = ("lucas", "mine")
RULES = ("half", "tas")
# the alphabet in both cases, plus the space (sent as '0')
TEXT_CHARS = ref.SYMBOLS + ref.SYMBOLS[:26].lower() + " "


@dataclass(frozen=True)
class Message:
    text: str
    scheme: str
    rule: str
    symbols: str
    cells: tuple
    n: int
    rows: list
    payload: str

    @property
    def dim(self):
        return len(self.cells)

    @property
    def blocks(self):
        return len(self.rows)


def message(rng, dim, scheme, rule, length, pivots=None):
    """Random text of `length` characters that pads to a dim x dim grid whose
    pivot elements (b1 and/or b2 of every block) are all nonzero."""
    assert (dim - 2) ** 2 < length <= dim * dim
    pivots = pivots or (ref.PIVOT[scheme],)
    n = ref.key_index((dim // 2) ** 2, rule)
    zero_symbol = ref.SYMBOLS[-n % ref.SIZE]  # the symbol whose code is 0
    if zero_symbol == ref.PAD:
        length = dim * dim  # padding would put zeros on pivots
    chars = [rng.choice(TEXT_CHARS) for _ in range(length)]
    offsets = [{"b1": 0, "b2": 1}[p] for p in pivots]
    for r in range(0, dim, 2):
        for c in range(0, dim, 2):
            for off in offsets:
                pos = r * dim + c + off
                while pos < length and _symbol(chars[pos]) == zero_symbol:
                    chars[pos] = rng.choice(TEXT_CHARS)
    return for_scheme("".join(chars), scheme, rule)


def _symbol(char):
    return ref.PAD if char == " " else char.upper()


def _length(rng, dim):
    return rng.randint((dim - 2) ** 2 + 1, dim * dim)


def chat(seed, rounds, dims):
    """Short messages: `rounds` of each (dim, scheme, n-rule), shuffled, so
    every seed has the same mix of sizes."""
    rng = random.Random(f"chat-{seed}")
    kinds = [(d, s, r) for d in dims for s in SCHEMES for r in RULES] * rounds
    rng.shuffle(kinds)
    return [message(rng, d, s, r, _length(rng, d)) for d, s, r in kinds]


def bulk(seed, dims):
    """One large message per (dim, scheme), n-rule half."""
    rng = random.Random(f"bulk-{seed}")
    return [message(rng, dim, scheme, "half", _length(rng, dim))
            for dim in dims for scheme in SCHEMES]


def tamper_text(dim):
    """The fixed tamper message: the same for every seed, so the harness
    counts repeat exactly.  Both b1 and b2 are nonzero in every block, so
    it encodes under either scheme."""
    rng = random.Random("tamper")
    return message(rng, dim, "lucas", "half", dim * dim, pivots=("b1", "b2")).text


def for_scheme(text, scheme, rule="half"):
    """A text with everything the reference expects of it under one scheme."""
    symbols = ref.symbols_of(text)
    cells, n = ref.grid(symbols, rule)
    return Message(text, scheme, rule, symbols, cells, n, ref.rows(cells, scheme),
                   ref.payload(cells, scheme, rule))


def cli(seed, dims):
    """Short messages for the CLI pipe, one per (dim, scheme)."""
    rng = random.Random(f"cli-{seed}")
    return [message(rng, d, s, "half", _length(rng, d)) for s in SCHEMES for d in dims]
