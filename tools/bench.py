"""Per-stage and pipe timings of qblock, written as one `BENCH_<n>.json` file.

    python tools/bench.py --src PATH --out FILE [--sizes tiny]
    python tools/bench.py --compare OLD NEW
    python tools/bench.py --src PATH --ab OLD_SRC [--sizes tiny]

Imports qblock from PATH, the `src` directory of a checkout, as
tools/diffhash.py does, and times each stage of the codec on its own:

    preprocess, to_matrix, encode, encode_text, serialize, parse, decode,
    decode_text, decode_with_trace

at dims 8, 32, 128 and 512 under both schemes (n-rule half), in µs per
block, and `detection_rate` at dim 32 for each strategy, in µs per trial
(8 trials a call, magnitude 60).  Each message is drawn from the default
alphabet without the symbol that its table gives code 0, so no pivot is
zero and every stage succeeds.  The same `--sizes` gives the same messages
on every tree.

A stage is timed in 7 loops of calls, each long enough for the clock (about
30 ms).  The speed of a shared host drifts, by up to a factor of two within
a minute, so each loop is scaled as `perfbench` scales its times: by
NOMINAL_NS over the mean time of `perfbench/calibrate.py`'s fixed kernel,
which uses nothing from the package, run just before and just after the
loop.  A time is the median of the scaled loops, which one kernel run that
a spike slowed cannot pull down; `raw_us_per_block` and `raw_us_per_trial`
are the fastest loop unscaled, and `calibration_us` is the kernel's median
time over the run.
`gen0_per_call` counts the garbage collector's youngest-generation
collections over a loop started right after a full collection; unlike a
time it repeats exactly for one tree and one Python.

`pipe` times whole processes: one `qblock encode --scheme lucas | qblock
decode` pipe (`python -m qblock.cli`, importing PATH) on the dim-8 message,
against a control pipe of two bare interpreters that copy stdin to stdout,
which pays the same interpreter start, `site` imports and shutdown but
nothing of qblock.  The two run in alternating order, pair after pair, and
each pipe is timed from the first process's start to the last one's exit.
`qblock_ms` and `control_ms` are the quartiles [q1, median, q3] of each,
`excess_ms` those of qblock minus control within a pair: what qblock adds
to a pipe.  These times are not scaled.

`--sizes tiny` runs dims 4 and 8, the harness at dim 8, short loops and two
pipe pairs, for a schema check.

`--compare` reads two such files and prints, for each stage, scheme and dim
and for each harness strategy and scheme that both hold, the old and the new
scaled time and their ratio new/old: below 1 is faster.  Where both hold a
pipe, the medians of `qblock_ms`, `control_ms` and `excess_ms` follow, in µs.

`--ab` times two trees in one process, so that both run on the same
interpreter state and the same host speed: PATH's package as `qblock`, and
OLD_SRC's, the `src` directory of another checkout, under a private name.
For each stage, scheme and dim, and each harness strategy and scheme, it
runs a loop of calls on one tree, then one on the other, as many pairs of
loops as the pipe has pairs, the tree that goes first alternating.  It
prints the new/old ratio of the median loop times and the number of pairs
in which the new tree's loop was the faster.  These times are not scaled.

The file holds, with `schema` 2 (1 had no `pipe`):

    python, git_sha, sizes, calibration_us,
    stages: {stage: {scheme: {dim: {"us_per_block", "raw_us_per_block", "gen0_per_call"}}}},
    detection_rate: {"dim", "trials_per_call", strategies: {strategy: {scheme:
                     {"us_per_trial", "raw_us_per_trial", "gen0_per_call"}}}},
    pipe: {"dim", "scheme", "pairs", "qblock_ms", "control_ms", "excess_ms"}
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA = 2
ROOT = Path(__file__).resolve().parent.parent
STAGES = ("preprocess", "to_matrix", "encode", "encode_text", "serialize", "parse", "decode",
          "decode_text", "decode_with_trace")
SIZES = {
    # dims, harness dim, repeats, seconds a timed loop lasts at least, pipe pairs
    "full": ((8, 32, 128, 512), 32, 7, 0.03, 41),
    "tiny": ((4, 8), 8, 2, 0.002, 2),
}
TRIALS_PER_CALL = 8
MAGNITUDE = 60
PIPE_DIM = 8
COPY = "import sys; sys.stdout.write(sys.stdin.read())"


def calibration():
    """`perfbench/calibrate.py`, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def per_call(f, args, repeats, seconds, kernel, samples):
    """(median scaled seconds per call, fastest raw seconds per call, gen0
    collections per call) of f(*args); each kernel time is appended to `samples`."""
    start = time.perf_counter()
    f(*args)  # a warm-up, which also sizes the loop
    number = max(1, int(seconds / max(time.perf_counter() - start, 1e-9)))
    scaled, raw = [], []
    for _ in range(repeats):
        before = kernel.measure()
        start = time.perf_counter()
        for _ in range(number):
            f(*args)
        took = (time.perf_counter() - start) / number
        samples += before, kernel.measure()
        raw.append(took)
        scaled.append(took * kernel.NOMINAL_NS * 2 / (samples[-2] + samples[-1]))
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    for _ in range(number):
        f(*args)
    return statistics.median(scaled), min(raw), (gc.get_stats()[0]["collections"] - before) / number


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


def pipe_ms(first, second, data, env):
    """Milliseconds from the start of `first` to the exit of `second` in
    `first | second`, and the second's stdout; a process that fails raises."""
    start = time.perf_counter()
    with subprocess.Popen(first, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env) as p1, \
            subprocess.Popen(second, stdin=p1.stdout, stdout=subprocess.PIPE, env=env) as p2:
        p1.stdout.close()  # the second process owns the read end now
        p1.stdin.write(data)
        p1.stdin.close()
        out = p2.stdout.read()
    took = (time.perf_counter() - start) * 1e3
    if p1.returncode or p2.returncode:
        raise SystemExit(f"error: pipe {first} | {second} exited {p1.returncode}|{p2.returncode}")
    return took, out


def quartiles(values):
    return [round(v, 3) for v in statistics.quantiles(values, n=4, method="inclusive")]


def pipe(q, pairs):
    """The `pipe` record: a qblock pipe against a control pipe, `pairs` times each."""
    text = message(q, PIPE_DIM, random.Random(f"bench-{PIPE_DIM}"))
    data = f"{text}\n".encode()
    decoded = q.decode_text(q.encode_text(text, q.Scheme.LUCAS_BLOCKING))
    env = {**os.environ, "PYTHONPATH": str(Path(q.__file__).resolve().parent.parent)}
    cli, copy = [sys.executable, "-m", "qblock.cli"], [sys.executable, "-c", COPY]
    runs = {"qblock": ([*cli, "encode", "--scheme", "lucas"], [*cli, "decode"],
                       f"{decoded}\n".encode()),
            "control": (copy, copy, data)}
    times = {name: [] for name in runs}
    for i in range(pairs):
        for name in sorted(runs, reverse=i % 2 == 1):  # control first in even pairs
            first, second, expected = runs[name]
            took, out = pipe_ms(first, second, data, env)
            if out != expected:
                raise SystemExit(f"error: the {name} pipe wrote {out!r}, not {expected!r}")
            times[name].append(took)
    excess = [a - b for a, b in zip(times["qblock"], times["control"])]
    return {"dim": PIPE_DIM, "scheme": "lucas", "pairs": pairs,
            "qblock_ms": quartiles(times["qblock"]), "control_ms": quartiles(times["control"]),
            "excess_ms": quartiles(excess)}


def cells(trees, sizes):
    """The timed cells in the order of a BENCH file, as (stage, strategy,
    scheme, dim, {tree: (function, arguments)}): each stage per dim and
    scheme with strategy None, then "detection_rate" per strategy and scheme.
    `trees` are qblock packages; the first one draws the messages."""
    dims, harness_dim, *_ = SIZES[sizes]
    first = trees[0]
    for dim in dims:
        text = message(first, dim, random.Random(f"bench-{dim}"))
        for scheme in first.Scheme:
            calls = {q: stage_calls(q, text, dim, q.Scheme(scheme.value)) for q in trees}
            for stage in STAGES:
                yield stage, None, scheme.value, dim, {q: calls[q][stage] for q in trees}
    text = message(first, harness_dim, random.Random(f"bench-{harness_dim}"))
    for strategy in first.Strategy:
        for scheme in first.Scheme:
            yield "detection_rate", strategy.value, scheme.value, harness_dim, {
                q: (q.detection_rate, (text, q.Scheme(scheme.value),
                                       q.CorruptionSpec(q.Strategy(strategy.value), MAGNITUDE, 0),
                                       TRIALS_PER_CALL))
                for q in trees}


def bench(q, sizes):
    _, harness_dim, repeats, seconds, pairs = SIZES[sizes]
    kernel, samples = calibration(), []
    stages = {stage: {scheme.value: {} for scheme in q.Scheme} for stage in STAGES}
    strategies = {strategy.value: {} for strategy in q.Strategy}
    for stage, strategy, scheme, dim, calls in cells([q], sizes):
        scaled, raw, gen0 = per_call(*calls[q], repeats, seconds, kernel, samples)
        unit, per = ("trial", TRIALS_PER_CALL) if strategy else ("block", (dim // 2) ** 2)
        cell = {f"us_per_{unit}": round(scaled * 1e6 / per, 4),
                f"raw_us_per_{unit}": round(raw * 1e6 / per, 4), "gen0_per_call": round(gen0, 4)}
        if strategy:
            strategies[strategy][scheme] = cell
        else:
            stages[stage][scheme][str(dim)] = cell
    return {
        "stages": stages,
        "detection_rate": {"dim": harness_dim, "trials_per_call": TRIALS_PER_CALL,
                           "strategies": strategies},
        "calibration_us": round(statistics.median(samples) / 1e3, 2),
        "pipe": pipe(q, pairs),
    }


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


def ab(new, old, sizes):
    """Lines of a table: per stage, scheme and dim, then per harness strategy
    and scheme, new/old of the median loop times of two trees timed in
    alternating loops, and the pairs of loops in which new was the faster."""
    *_, seconds, pairs = SIZES[sizes]
    lines = [f"{'stage':<28}{'scheme':<7}{'dim':>4}{'new/old':>9}{'faster':>8}"]
    for stage, strategy, scheme, dim, calls in cells((new, old), sizes):
        for q in (old, new, new):  # a first call may import a module; the last sizes the loops
            f, args = calls[q]
            start = time.perf_counter()
            f(*args)
        number = max(1, int(seconds / max(time.perf_counter() - start, 1e-9)))
        times = {new: [], old: []}
        for i in range(pairs):
            for q in (new, old) if i % 2 else (old, new):
                f, args = calls[q]
                start = time.perf_counter()
                for _ in range(number):
                    f(*args)
                times[q].append(time.perf_counter() - start)
        ratio = statistics.median(times[new]) / statistics.median(times[old])
        faster = sum(a < b for a, b in zip(times[new], times[old]))
        label = f"{stage} {strategy}" if strategy else stage
        lines.append(f"{label:<28}{scheme:<7}{dim:>4}{ratio:>9.3f}{f'{faster}/{pairs}':>8}")
    return lines


def compare(old, new):
    """Lines of a table: the scaled times of two records and new/old, per stage,
    scheme and dim, then per harness strategy and scheme, then the pipe medians."""
    cells = []
    for stage, schemes in old["stages"].items():
        for scheme, dims in schemes.items():
            for dim, cell in sorted(dims.items(), key=lambda item: int(item[0])):
                other = new["stages"].get(stage, {}).get(scheme, {}).get(dim)
                if other:
                    cells.append((stage, scheme, dim, cell["us_per_block"], other["us_per_block"]))
    dim = str(old["detection_rate"]["dim"])
    for strategy, schemes in old["detection_rate"]["strategies"].items():
        for scheme, cell in schemes.items():
            other = new["detection_rate"]["strategies"].get(strategy, {}).get(scheme)
            if other and new["detection_rate"]["dim"] == old["detection_rate"]["dim"]:
                cells.append((f"detection_rate {strategy}", scheme, dim, cell["us_per_trial"],
                              other["us_per_trial"]))
    if "pipe" in old and "pipe" in new and old["pipe"]["dim"] == new["pipe"]["dim"]:
        for name in ("qblock", "control", "excess"):
            cells.append((f"pipe {name}", old["pipe"]["scheme"], str(old["pipe"]["dim"]),
                          old["pipe"][f"{name}_ms"][1] * 1e3, new["pipe"][f"{name}_ms"][1] * 1e3))
    lines = [f"{'stage':<28}{'scheme':<7}{'dim':>4}{'old us':>12}{'new us':>12}{'new/old':>9}"]
    for stage, scheme, dim, before, after in cells:
        lines.append(f"{stage:<28}{scheme:<7}{dim:>4}{before:>12.4f}{after:>12.4f}"
                     f"{after / before:>9.3f}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="directory that holds the qblock package")
    parser.add_argument("--out", help="file the JSON record is written to")
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print new/old of two BENCH files instead of timing")
    parser.add_argument("--ab", metavar="OLD_SRC",
                        help="time PATH against the package in OLD_SRC in one process")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(name).read_text(encoding="utf-8")) for name in args.compare)
        print("\n".join(compare(old, new)))
        return
    if not (args.src and (args.out or args.ab)):
        parser.error("--src and --out (or --ab) are required unless --compare is given")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import qblock

    if not Path(qblock.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: qblock imported from {qblock.__file__}, not from {src}")
    if args.ab:
        print("\n".join(ab(qblock, load(args.ab, "_qblock_ab_old"), args.sizes)))
        return
    record = {"schema": SCHEMA, "python": platform.python_version(), "git_sha": git_sha(src),
              "sizes": args.sizes, **bench(qblock, args.sizes)}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
