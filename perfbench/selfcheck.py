"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload in both trace modes at tiny sizes with every
correctness check on, and checks that each run is correct and reports
exactly the metrics it should, with their units.  It also checks that
``BENCHMARK.json`` lists exactly the metrics a full-size run reports, and
that the benchmark refuses to run without the package.  Takes well under a
minute; exits 1 and names each problem if anything is off.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import workloads

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if listed != metrics.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from what a run reports")
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if listed != metrics.per_layer_names(workloads.FULL):
        problems.append("BENCHMARK.json per_layer differs from what a traced run reports")

    expected = {0: metrics.END_TO_END, 1: metrics.per_layer_names(workloads.TINY)}
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = run_bench(ROOT, "--workload", w, "--seed", "1", "--seconds", "0.2",
                            "--trace", str(trace), "--sizes", "tiny")
            where = f"{w} --trace {trace}"
            if res.returncode:
                problems.append(f"{where}: exit {res.returncode}: {res.stderr[-500:]}")
                continue
            result = json.loads(res.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed: {res.stderr[-500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                diff = sorted(got.items() ^ expected[trace].items())
                problems.append(f"{where}: metrics differ: {diff}")
            print(f"{where}: {result['attempted']} attempted, {result['failed']} failed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    res = run_bench(bare, "--workload", "chat", "--seed", "1", "--seconds", "1", "--trace", "0")
    if res.returncode == 0 or res.stdout.strip():
        problems.append("without src/qblock the benchmark did not fail, or printed a result")
    shutil.rmtree(bare)

    for p in problems:
        print("problem: " + p, file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
