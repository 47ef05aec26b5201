"""Differential digests of qblock's observable behaviour.

    python tools/diffhash.py --src PATH --seed N [--cases K]

Imports qblock from PATH, the `src` directory of a checkout, runs K seeded
cases per section and prints one line per section: its name and the SHA-256
of every case's input and result.  Two trees that print the same line for a
section behave the same there, so run it on two checkouts and diff the
output.  Sections:

    parse              payload texts, valid and damaged, through `parse`
    decode             damaged payloads through `decode`
    decode_with_trace  the same payloads through `decode_with_trace`
    solve_missing      single rows through `solve_missing`
    encode             in-range grids through `encode`, texts through `encode_text`
    encode_range       grids with a code outside the alphabet, or an
                       alphabet id that is not registered, through `encode`
    corrupt            every strategy through `corrupt`
    detection_rate     reports of `detection_rate`, a quarter of them on
                       messages of up to 1024 characters (dim 32)
    cli                `cli.main` on argv, stdin and files
    CharTable          `code_of`, `symbol_of`, `to_matrix`, and `to_symbols` on
                       grids with up to two codes outside the alphabet
    preprocess         texts over registered alphabets
    text               `encode_text`, `serialize`, `parse` and `decode_text` on
                       every alphabet, then each payload damaged through
                       `decode_text`

The inputs are the edges the codec has tripped on: codes -1, size, 255,
256, 0x110000, 2**64, -2**63 and ±10**40; strays '\\x00', '\\x05', 'Ā', a
lone surrogate, 'AB', '', 5, 1.0, True, b'A', None and [1]; a 2-, a 40-, a
300-symbol and a lower-case alphabet; tokens '-0', '1.5', '+1', '007', ' 1'
and 4300, 4301 or 5000 digits long; CR, blank, cut, dropped and doubled
lines; zero pivots, kept codes and recovered codes out of range, wrong `d`
and swapped rows; payloads too short or too uniform to swap two rows.

A result is hashed only through what every version of the package shows
the same way: `serialize` bytes, rows as plain tuples, matrix cells, trace
attributes, and an error's type, text, `block_index` and `indices`.  Damaged
payloads are written as text and parsed, never built from the record, so
the tool runs unchanged on trees whose `CodedMessage` differs in layout.
It uses no `hash()` and no set order, only the standard library.
"""

import argparse
import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile
from pathlib import Path

SYMBOLS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0!?."
WIDE_CODES = (255, 256, 0x110000, 2**64, -(2**63), 10**40, -(10**40))
STRAYS = ("\x00", "\x05", "Ā", "\ud800", "AB", "", 5, 1.0, True, b"A", None, [1])
BAD_TOKENS = ("-0", "1.5", "1e3", "+1", "007", " 1", "1 ", "", "true", "null", '"1"', "[1]",
              "NaN", "9" * 4300, "-" + "9" * 4300, "9" * 4301, "5" * 5000)


def outcome(f, *args, **kwargs):
    """What `f` returned, in a form every version prints alike, or what it raised."""
    import qblock as q

    try:
        value = f(*args, **kwargs)
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "block_index", None),
                getattr(exc, "indices", None))
    if isinstance(value, q.CodedMessage):
        return "coded", q.serialize(value), tuple(map(tuple, value.rows))
    if isinstance(value, q.MessageMatrix):
        return "matrix", value.dim, value.cells
    return value


def traced(coded):
    import qblock as q

    matrix, traces = q.decode_with_trace(coded)
    return matrix.cells, tuple((t.index, t.e1, t.e2, t.x, t.key.label, t.key.m11, t.key.m12,
                                t.key.m21, t.key.m22) for t in traces)


def payload(scheme, n_rule, dim, rows, alpha="default"):
    header = f"QBLK1;scheme={scheme};nrule={n_rule};dim={dim};alpha={alpha}\n"
    return header + "".join(f"{d},{k1},{k2},{k3}\n" for d, k1, k2, k3 in rows)


def grid(rng, dim, size=30, zeros=0.0):
    return [[0 if rng.random() < zeros else rng.randrange(size) for _ in range(dim)]
            for _ in range(dim)]


def rows_of(cells, scheme):
    """The rows the sender transmits for `cells`, computed here, zero pivots included."""
    rows = []
    for r in range(0, len(cells), 2):
        for c in range(0, len(cells), 2):
            b1, b2, b3, b4 = cells[r][c], cells[r][c + 1], cells[r + 1][c], cells[r + 1][c + 1]
            rows.append([b1 * b4 - b2 * b3, b1, b2, b4 if scheme == "lucas" else b3])
    return rows


def damage(rng, rows, scheme):
    """One fault in place: a kept code, pivot, d or recovered code gone wrong, or a swap."""
    i = rng.randrange(len(rows))
    row = rows[i]
    kind = rng.choice(("kept", "pivot", "d", "x", "swap"))
    if kind == "kept":
        row[rng.randrange(1, 4)] = rng.choice((-1, 30, 31, 1000, *WIDE_CODES))
    elif kind == "pivot":
        row[2 if scheme == "lucas" else 1] = 0
    elif kind == "d":
        row[0] = rng.choice((row[0] + rng.choice((1, -1, 7)), rng.randint(-10**6, 10**6), -10**40))
    elif kind == "x":  # d chosen so that the dropped element solves exactly to v
        _, k1, k2, k3 = row
        v = rng.choice((-1, 30, 31, 10**30))
        row[0] = k1 * k3 - v * k2 if scheme == "lucas" else v * k1 - k2 * k3
    else:
        j = rng.randrange(len(rows))
        rows[i], rows[j] = rows[j], rows[i]


def damaged_payloads(rng, cases):
    for _ in range(cases):
        scheme = rng.choice(("lucas", "mine"))
        dim = rng.choice((2, 4, 6, 8, 16, 32))
        rows = rows_of(grid(rng, dim, zeros=rng.choice((0.0, 0.05, 0.3))), scheme)
        for _ in range(rng.randrange(4)):
            damage(rng, rows, scheme)
        yield payload(scheme, rng.choice(("half", "tas")), dim, rows)


def parse_cases(q, rng, cases):
    for _ in range(cases):
        scheme = rng.choice(("lucas", "mine"))
        dim = rng.choice((2, 4, 6, 8))
        rows = rows_of(grid(rng, dim, zeros=0.1), scheme)
        lines = payload(scheme, rng.choice(("half", "tas")), dim, rows).split("\n")[:-1]
        for _ in range(rng.randrange(4)):
            at = rng.randrange(len(lines))
            edit = rng.randrange(8)
            if edit == 0 and at:  # one token replaced
                tokens = lines[at].split(",")
                tokens[rng.randrange(len(tokens))] = rng.choice(BAD_TOKENS)
                lines[at] = ",".join(tokens)
            elif edit == 1:
                lines.insert(at + 1, rng.choice(("", lines[at], "1,2,3", "1,2,3,4,5", "1,2,3,4,")))
            elif edit == 2 and len(lines) > 1:
                del lines[max(at, 1)]
            elif edit == 3:
                lines[at] = lines[at] + "\r"
            elif edit == 4:
                lines[0] = lines[0].replace(f"dim={dim}", "dim=" + rng.choice(
                    ("0", "3", "02", str(dim + 2), "9" * 30, "9" * 5000)))
            elif edit == 5:
                lines[0] = lines[0].replace("alpha=default", "alpha=" + rng.choice(
                    ("unregistered", "diffhash-two", "a b", "")))
            elif edit == 6:
                lines[0] = rng.choice(("QBLK2" + lines[0][5:], lines[0] + ";x=1",
                                       lines[0].replace("scheme=", "scheme=x")))
        text = "\n".join(lines) + rng.choice(("\n", "", "\n\n"))
        if rng.random() < 0.1:
            text = text[: rng.randrange(len(text) + 1)]
        yield text, outcome(q.parse, text)


def decode_cases(q, rng, cases):
    for text in damaged_payloads(rng, cases):
        yield text, outcome(lambda: q.decode(q.parse(text)))


def trace_cases(q, rng, cases):
    for text in damaged_payloads(rng, cases):
        yield text, outcome(lambda: traced(q.parse(text)))


def solve_missing_cases(q, rng, cases):
    for _ in range(cases):
        scheme = rng.choice(("lucas", "mine"))
        rows = rows_of(grid(rng, 2, zeros=0.2), scheme)
        damage(rng, rows, scheme)
        size = rng.choice((30, 2, 300, 1000))
        yield rows, size, outcome(q.solve_missing, q.FRow(*rows[0]), q.Scheme(scheme), size=size)


ALPHABETS = ("default", "diffhash-two", "diffhash-forty", "diffhash-wide", "diffhash-lower")


def encode_cases(q, rng, cases):
    for _ in range(cases):
        scheme, n_rule = rng.choice(list(q.Scheme)), rng.choice(list(q.NRule))
        alpha = rng.choice(ALPHABETS)
        size = q.get_alphabet(alpha).size
        cells = grid(rng, rng.choice((2, 4, 6, 8, 16)), size, rng.choice((0.0, 0.02, 0.3)))
        matrix = q.MessageMatrix(len(cells), tuple(map(tuple, cells)))
        yield cells, alpha, outcome(q.encode, matrix, scheme, n_rule, alpha)
        symbols = q.get_alphabet(alpha).symbols
        text = "".join(rng.choice(symbols + (" ", "a", "#")) for _ in range(rng.randrange(40)))
        yield text, outcome(q.encode_text, text, scheme, n_rule, alpha)


def encode_range_cases(q, rng, cases):
    for scheme in q.Scheme:
        yield outcome(q.encode, q.MessageMatrix(2, ((40, 50), (60, 70))), scheme)
    for _ in range(cases):
        scheme = rng.choice(list(q.Scheme))
        alpha = rng.choice(ALPHABETS)
        size = q.get_alphabet(alpha).size
        cells = grid(rng, rng.choice((2, 4, 8)), size, 0.1)
        if rng.random() < 0.2:
            alpha = "unregistered"
        else:
            for _ in range(rng.randrange(1, 3)):
                cells[rng.randrange(len(cells))][rng.randrange(len(cells))] = rng.choice(
                    (-1, size, 40, 50, 60, 70, *WIDE_CODES))
        matrix = q.MessageMatrix(len(cells), tuple(map(tuple, cells)))
        yield cells, alpha, outcome(q.encode, matrix, scheme, q.NRule.HALF, alpha)


def message(rng, low=1, high=40):
    return "".join(rng.choice(SYMBOLS + " ") for _ in range(rng.randint(low, high)))


def corrupt_cases(q, rng, cases):
    texts = ["QBLK1;scheme=lucas;nrule=half;dim=2;alpha=default\n1,2,3,4\n",
             "QBLK1;scheme=mine;nrule=half;dim=4;alpha=default\n" + "1,2,3,4\n" * 4]
    for _ in range(cases):
        scheme = rng.choice(("lucas", "mine"))
        dim = rng.choice((2, 4, 6, 8, 32))
        rows = rows_of(grid(rng, dim, zeros=0.05), scheme)
        texts.append(payload(scheme, rng.choice(("half", "tas")), dim, rows,
                             rng.choice(("default", "diffhash-two"))))
    for text in texts:
        coded = q.parse(text)
        strategy = rng.choice(list(q.Strategy))
        spec = q.CorruptionSpec(strategy, rng.choice((1, 5, 30, 61, 90)), rng.randrange(10**6))
        yield text, strategy.value, spec.magnitude, spec.seed, outcome(q.corrupt, coded, spec)


def detection_rate_cases(q, rng, cases):
    # a degenerate message, then no trials
    yield tuple(outcome(q.detection_rate, "A.AA", q.Scheme.LUCAS_BLOCKING,
                        q.CorruptionSpec(q.Strategy.PERTURB_D), 5))
    yield tuple(outcome(q.detection_rate, "HI", q.Scheme.MINESWEEPER,
                        q.CorruptionSpec(q.Strategy.SWAP_ROWS), 0))
    for _ in range(max(cases // 4, 1)):
        if rng.random() < 0.25:  # up to dim 32, at and past the alphabet size
            text, magnitudes = message(rng, high=1024), (30, 90)
        else:
            text, magnitudes = rng.choice(("HI! HOW ARE YOU?", message(rng))), (1, 5, 30, 61)
        strategy = rng.choice(list(q.Strategy))
        spec = q.CorruptionSpec(strategy, rng.choice(magnitudes), rng.randrange(1000))
        report = outcome(q.detection_rate, text, rng.choice(list(q.Scheme)), spec,
                         rng.randint(1, 40), rng.choice(list(q.NRule)))
        yield text, strategy.value, spec.magnitude, spec.seed, tuple(report)


def cli_argv(rng):
    kind = rng.randrange(7)
    if kind == 0:
        argv = ["encode", "--scheme", rng.choice(("lucas", "mine"))]
        return argv + rng.choice(([], ["--n-rule", "tas"], ["-i", "in.txt", "-o", "out.txt"]))
    if kind == 1:
        return ["decode", *rng.choice(([], ["--render", "grid"], ["--spaces", "restore"],
                                       ["-i", "in.txt"], ["-i", "missing/x"], ["-o", "."]))]
    if kind == 2:
        return ["demo", "--example", rng.choice(("1", "2", "3"))]
    if kind in (3, 4):
        argv = ["harness", "--scheme", rng.choice(("lucas", "mine")), "--strategy",
                rng.choice(("perturb-d", "perturb-kept", "swap-rows")),
                "--trials", str(rng.randint(1, 5)), "--seed", str(rng.randint(-3, 50)),
                "--magnitude", rng.choice(("1", "5", "61"))]
        return argv + rng.choice(([], ["--message", rng.choice(("", "A.AA", message(rng)))],
                                  ["--csv", "h.csv"], ["--n-rule", "tas"]))
    return rng.choice((["bogus"], ["encode"], ["harness", "--trials", "0"], ["decode", "-x"]))


def cli_cases(q, rng, cases):
    from qblock.cli import main

    example = q.serialize(q.encode_text("HI! HOW ARE YOU?", q.Scheme.MINESWEEPER))
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for _ in range(cases):
                argv = cli_argv(rng)
                text = message(rng, 0)
                data = rng.choice((text + "\n", text + "\r\n", example,
                                   next(damaged_payloads(rng, 1))))
                Path("in.txt").write_text(data, encoding="utf-8")
                stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
                sys.stdin = io.StringIO(data)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                finally:
                    sys.stdin = stdin
                files = []
                for name in ("out.txt", "h.csv"):
                    if os.path.exists(name):
                        files.append(Path(name).read_text(encoding="utf-8"))
                        os.remove(name)
                # argparse words its usage errors differently from version to version
                yield argv, data, code, out.getvalue(), err.getvalue() if code != 2 else "", files
        finally:
            os.chdir(here)


def char_table_cases(q, rng, cases):
    for shift in (0, -1):
        yield shift, outcome(q.CharTable, q.DEFAULT_ALPHABET, shift)
    for _ in range(cases):
        alphabet = q.get_alphabet(rng.choice(ALPHABETS))
        size, shift = alphabet.size, rng.choice((1, 2, 7, 29, 30, 31, 299, 700))
        table = q.CharTable(alphabet, shift)
        strays = [rng.choice(alphabet.symbols + STRAYS) for _ in range(3)]
        codes = [rng.choice((-2, -1, 0, size - 1, size, size + 1, *WIDE_CODES, 1.0, True, "1"))
                 for _ in range(3)]
        yield (alphabet.id, shift, [outcome(table.code_of, s) for s in strays],
               [outcome(table.symbol_of, c) for c in codes])
        side = rng.choice((2, 4))
        text = "".join(rng.choice(alphabet.symbols + ("\x00", "\x05", "Ā"))
                       for _ in range(side * side))
        cells = grid(rng, side, size)
        first, second = sorted(rng.sample(range(side * side), 2))
        plant = rng.randrange(3)
        if plant == 1:
            cells[first // side][first % side] = rng.choice((-1, size, *WIDE_CODES))
        elif plant == 2:  # a miss that bytes() takes ahead of one that it refuses
            cells[first // side][first % side] = rng.choice((size, 40))
            cells[second // side][second % side] = rng.choice((-1, 256, *WIDE_CODES))
        matrix = q.MessageMatrix(side, tuple(map(tuple, cells)))
        yield text, outcome(q.to_matrix, text, table), cells, outcome(q.to_symbols, matrix, table)


def preprocess_cases(q, rng, cases):
    extra = ("a", "z", " ", "#", "ŉ", "ß", "ﬁ", "ā", "\x00", "\udc80")
    for _ in range(cases):
        alphabet = q.get_alphabet(rng.choice(ALPHABETS))
        text = "".join(rng.choice(alphabet.symbols + extra) for _ in range(rng.randrange(30)))
        yield alphabet.id, text, outcome(q.preprocess, text, alphabet)


def text_cases(q, rng, cases):
    for _ in range(cases):
        alphabet = q.get_alphabet(rng.choice(ALPHABETS))
        scheme, n_rule = rng.choice(list(q.Scheme)), rng.choice(list(q.NRule))
        # an even square length: the only texts the padless wide alphabet takes
        length = rng.choice((rng.randint(1, 300), rng.choice((2, 4, 6, 8, 16)) ** 2))
        pool = alphabet.symbols + rng.choice(((), (" ",)))
        text = "".join(rng.choice(pool) for _ in range(length))
        coded = outcome(q.encode_text, text, scheme, n_rule, alphabet.id)
        if coded[0] != "coded":
            yield alphabet.id, text, coded
            continue
        header, *lines = coded[1].splitlines()
        yield text, coded, outcome(lambda: q.decode_text(q.parse(coded[1])))
        rows = [[*map(int, line.split(","))] for line in lines]
        for _ in range(rng.randint(1, 3)):
            damage(rng, rows, scheme.value)
        text = "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"
        yield text, outcome(lambda: q.decode_text(q.parse(text)))


SECTIONS = {
    "parse": parse_cases,
    "decode": decode_cases,
    "decode_with_trace": trace_cases,
    "solve_missing": solve_missing_cases,
    "encode": encode_cases,
    "encode_range": encode_range_cases,
    "corrupt": corrupt_cases,
    "detection_rate": detection_rate_cases,
    "cli": cli_cases,
    "CharTable": char_table_cases,
    "preprocess": preprocess_cases,
    "text": text_cases,
}


def digests(seed, cases):
    """{section: hex digest} for the qblock that `import qblock` finds."""
    import qblock as q

    for alphabet in (q.Alphabet("diffhash-two", ("0", "1")),
                     q.Alphabet("diffhash-wide", tuple(chr(0x100 + i) for i in range(300))),
                     q.Alphabet("diffhash-forty", tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!?.,")),
                     q.Alphabet("diffhash-lower", tuple("abcdefghijklmnopqrstuvwxyz0"))):
        q.register_alphabet(alphabet)
    result = {}
    for name, cases_of in SECTIONS.items():
        digest = hashlib.sha256()
        for case in cases_of(q, random.Random(f"{seed}/{name}"), cases):
            digest.update(repr(case).encode("utf-8", "backslashreplace") + b"\n")
        result[name] = digest.hexdigest()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds the qblock package")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cases", type=int, default=200, help="cases per section")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import qblock

    if not Path(qblock.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: qblock imported from {qblock.__file__}, not from {src}")
    for name, digest in digests(args.seed, args.cases).items():
        print(name, digest)


if __name__ == "__main__":
    main()
