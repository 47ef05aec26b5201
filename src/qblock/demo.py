"""Two bundled worked examples with pinned reference values.

Every intermediate artifact (code matrix, block table, transmitted rows,
helper products, recovered codes) is frozen here; run_demo recomputes the
whole pipeline and reports any deviation, so the demo doubles as a
self-test of the installed package.
"""

from collections import namedtuple

from .alphabet import DEFAULT_ALPHABET, CharTable
from .codec import Scheme, decode_with_trace, encode_text
from .layout import NRule, preprocess, to_blocks, to_symbols
from .wire import serialize


class DemoExample(
    namedtuple(
        "DemoExample", "number message scheme n_rule dim n symbols matrix_rows f_rows e1 e2 x"
    )
):
    __slots__ = ()


EXAMPLE_1 = DemoExample(
    number=1,
    message="HI! HOW ARE YOU?",
    scheme=Scheme.LUCAS_BLOCKING,
    n_rule=NRule.HALF,
    dim=4,
    n=2,
    symbols="HI!0HOW0ARE0YOU?",
    matrix_rows=(
        (9, 10, 29, 28),
        (9, 16, 24, 28),
        (2, 19, 6, 28),
        (26, 16, 22, 0),
    ),
    f_rows=(
        (54, 9, 10, 16),
        (140, 29, 28, 28),
        (-462, 2, 19, 16),
        (-616, 6, 28, 0),
    ),
    e1=(66, 200, 65, 108),
    e2=(37, 115, 25, 46),
    x=(9, 24, 26, 22),
)

EXAMPLE_2 = DemoExample(
    number=2,
    message="MIXED MODELLING FOR CRYPTOGRAPHY",
    scheme=Scheme.MINESWEEPER,
    n_rule=NRule.HALF,
    dim=6,
    n=4,
    symbols="MIXED0MODELLING0FOR0CRYPTOGRAPHY0000",
    matrix_rows=(
        (16, 12, 27, 8, 7, 0),
        (16, 18, 7, 8, 15, 15),
        (12, 17, 10, 0, 9, 18),
        (21, 0, 6, 21, 28, 19),
        (23, 18, 10, 21, 4, 19),
        (11, 28, 0, 0, 0, 0),
    ),
    f_rows=(
        (96, 16, 12, 16),
        (160, 27, 8, 7),
        (105, 7, 0, 15),
        (-357, 12, 17, 21),
        (210, 10, 0, 6),
        (-333, 9, 18, 28),
        (446, 23, 18, 11),
        (0, 10, 21, 0),
        (0, 4, 19, 0),
    ),
    e1=(116, 353, 35, 251, 50, 225, 169, 257, 77),
    e2=(72, 221, 21, 152, 30, 135, 105, 154, 50),
    x=(18, 8, 15, 0, 21, 19, 28, 0, 0),
)

DEMO_EXAMPLES = {1: EXAMPLE_1, 2: EXAMPLE_2}


def _format_grid(rows) -> list[str]:
    width = max(len(str(c)) for row in rows for c in row)
    return ["  " + " ".join(f"{c:>{width}}" for c in row) for row in rows]


def run_demo(number: int) -> tuple[str, bool]:
    """Run one bundled example end to end.

    Returns the printable report and whether every computed value matched
    the pinned reference data.
    """
    example = DEMO_EXAMPLES[number]
    mismatches: list[str] = []

    def check(name, got, want):
        if got != want:
            mismatches.append(f"{name}: computed {got!r} != pinned {want!r}")

    symbols = preprocess(example.message, DEFAULT_ALPHABET)
    check("symbols", symbols, example.symbols)

    coded = encode_text(example.message, example.scheme, example.n_rule)
    check("n", coded.n, example.n)
    check("dim", coded.dim, example.dim)
    check("rows", tuple((r.d, r.k1, r.k2, r.k3) for r in coded.rows), example.f_rows)

    matrix, traces = decode_with_trace(coded)
    check("matrix", matrix.cells, example.matrix_rows)
    check("e1", tuple(t.e1 for t in traces), example.e1)
    check("e2", tuple(t.e2 for t in traces), example.e2)
    check("x", tuple(t.x for t in traces), example.x)
    recovered = to_symbols(matrix, CharTable(DEFAULT_ALPHABET, coded.n))
    check("recovered symbols", recovered, example.symbols)

    blocks = to_blocks(matrix)
    lines = [
        f'example {example.number}: "{example.message}"',
        f"scheme={example.scheme.value} nrule={example.n_rule.value} "
        f"dim={coded.dim} blocks={len(coded.rows)} n={coded.n}",
        "",
        "message matrix:",
        *_format_grid(matrix.cells),
        "",
        "blocks (b1 b2 / b3 b4):",
        *(f"  B{b.index}: {b.b1} {b.b2} / {b.b3} {b.b4}" for b in blocks),
        "",
        "transmitted payload:",
        *("  " + line for line in serialize(coded).splitlines()),
        "",
        "decode trace:",
        *(
            f"  B{t.index}: key={t.key.label} e1={t.e1} e2={t.e2} x={t.x}"
            for t in traces
        ),
        "",
        f"recovered text: {recovered}",
    ]
    if mismatches:
        lines.append("verification: FAILED")
        lines.extend(f"  {m}" for m in mismatches)
    else:
        lines.append("verification: OK")
    return "\n".join(lines) + "\n", not mismatches
