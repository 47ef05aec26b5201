"""tools/bench.py runs at tiny sizes and writes the documented schema, pipe
timings included, compares two records, times two trees side by side, and
the benchmark under perfbench/ passes its own self-check."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench.py"
STAGES = ["decode", "decode_text", "decode_with_trace", "encode", "encode_text", "parse",
          "preprocess", "serialize", "to_matrix"]


def test_tiny_run_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    argv = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--out", str(out),
            "--sizes", "tiny"]
    subprocess.run(argv, capture_output=True, check=True, timeout=120)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["calibration_us", "detection_rate", "git_sha", "pipe", "python",
                              "schema", "sizes", "stages"]
    assert (record["schema"], record["sizes"]) == (2, "tiny")
    assert record["python"] == ".".join(map(str, sys.version_info[:3]))
    assert isinstance(record["git_sha"], str) and record["calibration_us"] > 0
    assert sorted(record["stages"]) == STAGES
    for schemes in record["stages"].values():
        assert sorted(schemes) == ["lucas", "mine"]
        for dims in schemes.values():
            assert sorted(dims) == ["4", "8"]
            for cell in dims.values():
                assert sorted(cell) == ["gen0_per_call", "raw_us_per_block", "us_per_block"]
                assert min(cell["us_per_block"], cell["raw_us_per_block"]) > 0
                assert cell["gen0_per_call"] >= 0
    harness = record["detection_rate"]
    assert (harness["dim"], harness["trials_per_call"]) == (8, 8)
    assert sorted(harness["strategies"]) == ["perturb-d", "perturb-kept", "swap-rows"]
    for schemes in harness["strategies"].values():
        assert sorted(schemes) == ["lucas", "mine"]
        for cell in schemes.values():
            assert sorted(cell) == ["gen0_per_call", "raw_us_per_trial", "us_per_trial"]
            assert min(cell["us_per_trial"], cell["raw_us_per_trial"]) > 0
            assert cell["gen0_per_call"] >= 0
    pipe = record["pipe"]
    assert sorted(pipe) == ["control_ms", "dim", "excess_ms", "pairs", "qblock_ms", "scheme"]
    assert (pipe["dim"], pipe["scheme"], pipe["pairs"]) == (8, "lucas", 2)
    for name in ("qblock_ms", "control_ms"):
        q1, median, q3 = pipe[name]
        assert 0 < q1 <= median <= q3
    q1, median, q3 = pipe["excess_ms"]
    assert q1 <= median <= q3


def test_compare_prints_new_over_old_per_stage_and_strategy(tmp_path):
    def record(us):
        cell = {"us_per_block": us, "raw_us_per_block": us, "gen0_per_call": 0}
        trial = {"us_per_trial": 10 * us, "raw_us_per_trial": 10 * us, "gen0_per_call": 0}
        pipe = {"dim": 8, "scheme": "lucas", "pairs": 3, "qblock_ms": [0, 40 * us, 0],
                "control_ms": [0, 20 * us, 0], "excess_ms": [0, 20 * us, 0]}
        return {"stages": {"serialize": {"lucas": {"128": cell, "8": cell}}},
                "detection_rate": {"dim": 32, "trials_per_call": 8,
                                   "strategies": {"swap-rows": {"mine": trial}}},
                "pipe": pipe}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record(2.0)), encoding="utf-8")
    new.write_text(json.dumps(record(1.5)), encoding="utf-8")
    done = subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                          capture_output=True, text=True, check=True, timeout=60)
    assert [line.split() for line in done.stdout.splitlines()] == [
        ["stage", "scheme", "dim", "old", "us", "new", "us", "new/old"],
        ["serialize", "lucas", "8", "2.0000", "1.5000", "0.750"],
        ["serialize", "lucas", "128", "2.0000", "1.5000", "0.750"],
        ["detection_rate", "swap-rows", "mine", "32", "20.0000", "15.0000", "0.750"],
        ["pipe", "qblock", "lucas", "8", "80000.0000", "60000.0000", "0.750"],
        ["pipe", "control", "lucas", "8", "40000.0000", "30000.0000", "0.750"],
        ["pipe", "excess", "lucas", "8", "40000.0000", "30000.0000", "0.750"],
    ]


def test_ab_times_the_tree_against_itself():
    # the working tree as both sides: one row per stage, scheme and dim, then
    # per harness strategy and scheme, in the order of a BENCH file
    argv = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--ab", str(ROOT / "src"),
            "--sizes", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    rows = [line.split() for line in done.stdout.splitlines()]
    order = ["preprocess", "to_matrix", "encode", "encode_text", "serialize", "parse", "decode",
             "decode_text", "decode_with_trace"]
    assert rows[0] == ["stage", "scheme", "dim", "new/old", "faster"]
    assert [row[:-2] for row in rows[1:]] == [
        [stage, scheme, dim] for dim in ("4", "8") for scheme in ("lucas", "mine")
        for stage in order
    ] + [
        ["detection_rate", strategy, scheme, "8"]
        for strategy in ("perturb-d", "perturb-kept", "swap-rows") for scheme in ("lucas", "mine")
    ]
    for row in rows[1:]:
        assert float(row[-2]) > 0 and row[-1] in ("0/2", "1/2", "2/2")


def test_benchmark_selfcheck_passes():
    # every workload at tiny sizes, in both trace modes; it writes only under perfbench/out/
    done = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "selfcheck ok"
