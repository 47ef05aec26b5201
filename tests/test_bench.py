"""tools/bench.py times two trees in one process at tiny sizes, writes the
documented schema and prints one line per cell, whose new/old is the median
of the pairs' ratios; every stage it times allocates a flat peak per block;
and the benchmark under perfbench/ passes its own self-check."""

import importlib.util
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import qblock

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench.py"
STAGES = ["preprocess", "to_matrix", "encode", "encode_text", "serialize", "parse", "decode",
          "decode_text", "decode_with_trace"]
STRATEGIES = ["perturb-d", "perturb-kept", "swap-rows"]


def test_tiny_run_times_the_tree_against_itself(tmp_path):
    # the working tree as both sides: one cell per stage, scheme and dim, then
    # per harness strategy and scheme, printed in the order they were timed
    out = tmp_path / "BENCH_tiny.json"
    argv = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--ab", str(ROOT / "src"),
            "--out", str(out), "--sizes", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["detection_rate", "git_sha", "pairs", "python", "schema", "sizes",
                              "stages"]
    assert (record["schema"], record["sizes"], record["pairs"]) == (4, "tiny", 2)
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    assert sorted(record["git_sha"]) == ["new", "old"]
    assert record["git_sha"]["new"] == record["git_sha"]["old"]
    harness = record["detection_rate"]
    assert (harness["dim"], harness["trials_per_call"]) == (8, 8)
    order = [(stage, scheme, dim, record["stages"][stage][scheme][dim])
             for dim in ("4", "8") for scheme in ("lucas", "mine") for stage in STAGES]
    order += [(f"detection_rate {strategy}", scheme, "8",
               harness["strategies"][strategy][scheme])
              for strategy in STRATEGIES for scheme in ("lucas", "mine")]
    assert sorted(record["stages"]) == sorted(STAGES)
    assert sorted(harness["strategies"]) == STRATEGIES
    for schemes in [*record["stages"].values(), *harness["strategies"].values()]:
        assert sorted(schemes) == ["lucas", "mine"]
    for dims in record["stages"].values():
        assert all(sorted(by_dim) == ["4", "8"] for by_dim in dims.values())
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows[0] == ["stage", "scheme", "dim", "new/old", "faster"]
    assert [row[:-2] for row in rows[1:]] == [label.split() + [scheme, dim]
                                             for label, scheme, dim, _ in order]
    for row, (label, _, _, cell) in zip(rows[1:], order):
        unit = "us_per_trial" if label.startswith("detection_rate") else "us_per_block"
        assert sorted(cell) == ["new", "new_faster", "new_over_old", "old"]
        for tree in ("new", "old"):
            assert sorted(cell[tree]) == ["gen0_per_call", unit]
            assert cell[tree][unit] > 0 and cell[tree]["gen0_per_call"] >= 0
        assert cell["new_over_old"] > 0 and cell["new_faster"] in (0, 1, 2)
        assert row[-2:] == [f"{cell['new_over_old']:.3f}", f"{cell['new_faster']}/2"]


def test_new_over_old_is_the_median_of_the_pairs_ratios(monkeypatch):
    # each tree's loops sit at two levels, so the two trees' medians are equal
    # (1.0 and 1.0) while the new tree lost two of the three pairs, by 2x and 4x
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    clock = [0.0]

    def tree(*seconds):  # each call of the returned function takes the next of `seconds`
        durations = iter(seconds)

        def call():
            clock[0] += next(durations)

        return call, ()

    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    # new: two first calls, three pairs, one gen0 loop; old: one first call, three pairs, one
    calls = {"new": tree(1, 1, 1, 1, 4, 1), "old": tree(1, 2, 0.5, 1, 1)}
    cell = bench.timed(calls, 0, 3, "block", 1)
    assert (cell["new_over_old"], cell["new_faster"]) == (2.0, 1)
    assert cell["new"]["us_per_block"] == cell["old"]["us_per_block"] == 1e6


def test_every_bench_stage_allocates_a_flat_peak_per_block():
    # counts bytes instead of timing, so the bound needs no rerun study: dim 256
    # against dim 32 read 0.81-1.13 (decode_with_trace the highest),
    # and 7.4 for a trace that held one (e1, e2) pair per block
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    peaks = {}
    for dim in (32, 256):
        text = bench.message(qblock, dim, random.Random(f"bench-{dim}"))
        for scheme in qblock.Scheme:
            calls = bench.stage_calls(qblock, text, dim, scheme)
            for stage in bench.STAGES:
                f, args = calls[stage]
                f(*args)  # the tables and memos a first call builds, outside the measurement
                tracemalloc.start()
                try:
                    f(*args)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks.setdefault((stage, scheme.value), []).append(peak / (dim // 2) ** 2)
    growth = {cell: round(large / small, 2) for cell, (small, large) in peaks.items()}
    assert len(growth) == 18 and max(growth.values()) <= 1.5, growth


def test_benchmark_selfcheck_passes():
    # every workload at tiny sizes, in both trace modes; it writes only under perfbench/out/
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck ok"
