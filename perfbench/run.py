"""qblock benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <chat|bulk|tamper|cli_pipe> --seed N \\
        --seconds S --trace <0|1> [--sizes full|tiny]

Run it from the root of a checkout.  It imports qblock from the checkout's
``src`` (no install needed) and refuses to run without it.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Every
output is checked against an independent reference; failures are counted,
not raised.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and any errors.  The full result, and in a traced run
every span, are also written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("chat", "bulk", "tamper", "cli_pipe")

SETUP_CHILD = """
import json, statistics, sys, time
start = time.perf_counter()
import qblock
coded = qblock.encode_text("HI! HOW ARE YOU?", qblock.Scheme.LUCAS_BLOCKING)
text = qblock.decode_text(qblock.parse(qblock.serialize(coded)))
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calibrate
factor = calibrate.NOMINAL_NS / statistics.median(calibrate.measure() for _ in range(5))
print(json.dumps({"elapsed": elapsed, "factor": factor, "text": text, "path": qblock.__file__}))
"""
WARM_UP_TEXT = "HI!0HOW0ARE0YOU?"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--sizes", default="full", choices=("full", "tiny"),
                   help="tiny: small inputs for the self-check")
    return p.parse_args(argv)


def import_package():
    """Import qblock from the checkout's src, and only from there."""
    if not (SRC / "qblock" / "__init__.py").is_file():
        raise SystemExit(f"error: no qblock package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qblock

    if not Path(qblock.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qblock imported from {qblock.__file__}, not {SRC}")
    return qblock


def measure_setup(run, samples):
    """Seconds to import qblock and make a first round trip, each in a fresh
    interpreter, timed inside it so interpreter start is excluded; each
    with the child's host-speed factor (see calibrate.py)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(samples):
        with run.op():
            res = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE)],
                                 capture_output=True, env=env, timeout=60, check=True)
            child = json.loads(res.stdout)
            run.check(Path(child["path"]).resolve().is_relative_to(SRC),
                      f"set-up child imported qblock from {child['path']}")
            run.check(child["text"] == WARM_UP_TEXT,
                      f"set-up warm-up round trip gave {child['text']!r}")
            out.append((child["elapsed"], child["factor"]))
    return out


def git_sha():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             env=env, timeout=10, check=False)
    except OSError:
        return "unknown"
    return res.stdout.decode().strip() if res.returncode == 0 else "unknown"


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
    }


def main(argv=None):
    args = parse_args(argv)
    import_package()
    # these import qblock, so they come after the path is set
    import metrics
    import workloads
    from spans import Tracer

    sizes = workloads.TINY if args.sizes == "tiny" else workloads.FULL
    env = environment(args)
    run = workloads.Run(Tracer() if args.trace else None)
    setup_s = measure_setup(run, sizes.setup_samples)
    items, op = workloads.build(args.workload, args.seed, sizes, run)
    run.clock.start()
    try:
        op(run, workloads.NULL, items(0)[0])  # warm-up, checked but not timed
        run.samples[False].clear()
        started = time.perf_counter()
        workloads.loop(run, items, op, args.seconds)
        env["measured_s"] = time.perf_counter() - started
        if args.trace:
            workloads.probe(run, sizes)
    finally:
        run.clock.stop()
    if args.trace:
        values = metrics.per_layer(run, sizes)
        expected = metrics.per_layer_names(sizes)
    else:
        values = metrics.end_to_end(run, setup_s)
        expected = metrics.END_TO_END
        env["raw_metrics"] = {k: v for k, (v, _) in
                              metrics.end_to_end(run, setup_s, scaled=False).items()}
    for name in sorted(expected.keys() - values.keys()):
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"metric {name} has no samples")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"env": env, "setup_s_samples": setup_s, "errors": run.errors, **result},
                  f, indent=1)
    if args.trace:
        run.tracer.write(OUT / f"{stem}.spans.tsv", run.clock)

    print("env " + json.dumps(env))
    for err in run.errors:
        print("error: " + err, file=sys.stderr)
    print(f"error_rate {run.failed / run.attempted:.6f} ({run.failed}/{run.attempted})")
    for name, (value, unit) in sorted(values.items()):
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
