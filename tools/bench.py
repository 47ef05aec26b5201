"""Per-stage timings of two qblock trees in one sitting, written as one
`BENCH_<n>.json` file.

    python tools/bench.py --src PATH --ab OLD_SRC --out FILE [--sizes tiny]

Imports the qblock packages of two `src` directories into one process, PATH's
(the new tree) and OLD_SRC's (the old tree, for a change its parent), and
times each stage of the codec on its own:

    preprocess, to_matrix, encode, encode_text, serialize, parse, decode,
    decode_text, decode_with_trace

at dims 8, 32, 128 and 512 under both schemes (n-rule half), in µs per
block, and `detection_rate` at dim 32 for each strategy, in µs per trial
(8 trials a call, magnitude 60).  Each message is drawn from the default
alphabet without the symbol that its table gives code 0, so no pivot is
zero and every stage succeeds.  The same `--sizes` gives the same messages
on every tree.

The speed of a shared host drifts, by up to a factor of two within a minute,
and two processes can differ by about 10% on the same code, so both trees run
in one process.  A cell (a stage, scheme and dim, or a harness strategy and
scheme) runs 41 pairs of loops, each loop long enough for the clock (about
30 ms), one loop per tree, the tree that goes first alternating.  It holds
each tree's median loop time per block or trial, new/old as the median over
the pairs of the new loop's time over the old loop's (below 1 is faster), and
the number of pairs in which the new tree's loop was the faster.
`gen0_per_call` counts the garbage collector's youngest-generation
collections over one more loop per tree, started right after a full
collection; unlike a time it repeats exactly for one tree and one Python.

No process pipe is timed here.  The `qblock encode | qblock decode` pipe is
the `cli_pipe` workload of the benchmark under perfbench/, whose probe also
times a bare interpreter's start (`cli.python_start`), so a CLI start-up
claim cites `cli_pipe` runs of the change and its parent, taken in pairs.

`--sizes tiny` runs dims 4 and 8, the harness at dim 8, short loops and two
pairs, for a schema check.

The file holds, with `schema` 4 (schema 3 files also time a process pipe,
schema 1 and 2 files time one tree, scaled by a calibration kernel), and
stdout gets each cell's new/old and pairs won:

    python, sizes, pairs, git_sha: {"new", "old"},
    stages: {stage: {scheme: {dim: cell}}},
    detection_rate: {"dim", "trials_per_call", strategies: {strategy: {scheme: cell}}}

where a cell is {"new_over_old", "new_faster", tree: {"us_per_block" (harness:
"us_per_trial"), "gen0_per_call"}} and tree is "new" or "old".
"""

import argparse
import gc
import importlib.util
import json
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = 4
STAGES = ("preprocess", "to_matrix", "encode", "encode_text", "serialize", "parse", "decode",
          "decode_text", "decode_with_trace")
SIZES = {
    # dims, harness dim, seconds a timed loop lasts at least, pairs of loops
    "full": ((8, 32, 128, 512), 32, 0.03, 41),
    "tiny": ((4, 8), 8, 0.002, 2),
}
TREES = ("new", "old")
TRIALS_PER_CALL = 8
MAGNITUDE = 60


def git_sha(src):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def message(q, dim, rng):
    """dim * dim default symbols, none of them the one that codes to 0 under
    the message's table (n-rule half)."""
    symbols = q.DEFAULT_ALPHABET.symbols
    n = q.choose_n((dim // 2) ** 2, q.NRule.HALF)
    zero = symbols[-n % len(symbols)]
    return "".join(rng.choice([s for s in symbols if s != zero]) for _ in range(dim * dim))


def stage_calls(q, text, dim, scheme):
    """{stage: (function, arguments)} on one dim x dim message, in STAGES order."""
    alphabet = q.DEFAULT_ALPHABET
    symbols = q.preprocess(text, alphabet)
    table = q.CharTable(alphabet, q.choose_n((dim // 2) ** 2, q.NRule.HALF))
    matrix = q.to_matrix(symbols, table)
    coded = q.encode(matrix, scheme)
    payload = q.serialize(coded)
    return {
        "preprocess": (q.preprocess, (text, alphabet)),
        "to_matrix": (q.to_matrix, (symbols, table)),
        "encode": (q.encode, (matrix, scheme)),
        "encode_text": (q.encode_text, (text, scheme)),
        "serialize": (q.serialize, (coded,)),
        "parse": (q.parse, (payload,)),
        "decode": (q.decode, (coded,)),
        "decode_text": (q.decode_text, (coded,)),
        "decode_with_trace": (q.decode_with_trace, (coded,)),
    }


def cells(trees, sizes):
    """The timed cells in the order of a BENCH file, as (stage, strategy,
    scheme, dim, {tree: (function, arguments)}): each stage per dim and
    scheme with strategy None, then "detection_rate" per strategy and scheme.
    `trees` maps names to qblock packages; the new one draws the messages."""
    dims, harness_dim, *_ = SIZES[sizes]
    first = trees["new"]
    for dim in dims:
        text = message(first, dim, random.Random(f"bench-{dim}"))
        for scheme in first.Scheme:
            calls = {name: stage_calls(q, text, dim, q.Scheme(scheme.value))
                     for name, q in trees.items()}
            for stage in STAGES:
                yield stage, None, scheme.value, dim, {name: calls[name][stage] for name in trees}
    text = message(first, harness_dim, random.Random(f"bench-{harness_dim}"))
    for strategy in first.Strategy:
        for scheme in first.Scheme:
            yield "detection_rate", strategy.value, scheme.value, harness_dim, {
                name: (q.detection_rate, (text, q.Scheme(scheme.value), q.CorruptionSpec(
                    q.Strategy(strategy.value), MAGNITUDE, 0), TRIALS_PER_CALL))
                for name, q in trees.items()}


def timed(calls, seconds, pairs, unit, per):
    """A cell of the record: `pairs` pairs of loops of calls, one loop on each
    tree, the tree that goes first alternating, then one loop per tree for
    its gen0 collections; times are per `per` units of a call."""
    for name in ("old", "new", "new"):  # a first call may import a module; the last sizes the loops
        f, args = calls[name]
        start = time.perf_counter()
        f(*args)
    number = max(1, int(seconds / max(time.perf_counter() - start, 1e-9)))
    times = {name: [] for name in TREES}
    for i in range(pairs):
        for name in TREES if i % 2 else TREES[::-1]:
            f, args = calls[name]
            start = time.perf_counter()
            for _ in range(number):
                f(*args)
            times[name].append(time.perf_counter() - start)
    median = {name: statistics.median(times[name]) for name in TREES}
    paired = list(zip(times["new"], times["old"]))
    cell = {"new_over_old": round(statistics.median(new / old for new, old in paired), 4),
            "new_faster": sum(new < old for new, old in paired)}
    for name in TREES:
        f, args = calls[name]
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        for _ in range(number):
            f(*args)
        cell[name] = {f"us_per_{unit}": round(median[name] * 1e6 / number / per, 4),
                      "gen0_per_call": round((gc.get_stats()[0]["collections"] - before)
                                             / number, 4)}
    return cell


def bench(trees, sizes):
    _, harness_dim, seconds, pairs = SIZES[sizes]
    schemes = [scheme.value for scheme in trees["new"].Scheme]
    stages = {stage: {scheme: {} for scheme in schemes} for stage in STAGES}
    strategies = {strategy.value: {} for strategy in trees["new"].Strategy}
    for stage, strategy, scheme, dim, calls in cells(trees, sizes):
        if strategy:
            strategies[strategy][scheme] = timed(calls, seconds, pairs, "trial", TRIALS_PER_CALL)
        else:
            stages[stage][scheme][str(dim)] = timed(calls, seconds, pairs, "block", (dim // 2) ** 2)
    return {"pairs": pairs, "stages": stages,
            "detection_rate": {"dim": harness_dim, "trials_per_call": TRIALS_PER_CALL,
                               "strategies": strategies}}


def table(record):
    """Lines of a table: per stage, scheme and dim, then per harness strategy
    and scheme, in the order `bench` timed them, new/old and the pairs of
    loops in which the new tree's was the faster."""
    stages, harness = record["stages"], record["detection_rate"]
    schemes = stages[STAGES[0]]
    rows = [(stage, scheme, dim, stages[stage][scheme][dim])
            for dim in next(iter(schemes.values())) for scheme in schemes for stage in STAGES]
    rows += [(f"detection_rate {strategy}", scheme, harness["dim"], cell)
             for strategy, by_scheme in harness["strategies"].items()
             for scheme, cell in by_scheme.items()]
    lines = [f"{'stage':<28}{'scheme':<7}{'dim':>4}{'new/old':>9}{'faster':>8}"]
    for label, scheme, dim, cell in rows:
        won = f"{cell['new_faster']}/{record['pairs']}"
        lines.append(f"{label:<28}{scheme:<7}{dim:>4}{cell['new_over_old']:>9.3f}{won:>8}")
    return lines


def load(src, name):
    """The qblock package of the `src` directory `src`, imported as `name`."""
    package = Path(src).resolve() / "qblock"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qblock package under {src}")
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # where its relative imports find their package
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the qblock package of the new tree")
    parser.add_argument("--ab", required=True, metavar="OLD_SRC",
                        help="directory that holds the qblock package of the old tree")
    parser.add_argument("--out", required=True, help="file the JSON record is written to")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    trees = {"new": load(args.src, "qblock"), "old": load(args.ab, "_qblock_ab_old")}
    record = {"schema": SCHEMA, "python": platform.python_version(), "sizes": args.sizes,
              "git_sha": {"new": git_sha(args.src), "old": git_sha(args.ab)},
              **bench(trees, args.sizes)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print("\n".join(table(record)))


if __name__ == "__main__":
    main()
