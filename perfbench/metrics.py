"""End-to-end and per-layer metrics of one run, each with its unit.

End-to-end metrics come from the untraced operations, per-layer metrics
from the spans of a traced run.  Every per-layer time is self time, summed
over all spans of that name (and tag) and divided by their units (blocks,
trials) or by their number of calls.  All times are scaled to the nominal
host speed (see calibrate.py).
"""

import resource
import statistics

from calibrate import NOMINAL_NS
from inputs import SCHEMES
from spans import aggregate
from workloads import STRATEGIES


END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def end_to_end(run, setup_s, scaled=True):
    """Rates are the median over passes, so a slow spell that covers a
    minority of passes does not move them; latencies are quantiles over
    every operation.  With `scaled`, each time is scaled to the nominal
    host speed (see calibrate.py)."""
    by_pass = {}
    latency_ms = []
    for p, start, end, ns, ops in run.samples[False]:
        if scaled:
            ns *= run.clock.factor(start, end)
        acc = by_pass.setdefault(p, [0, 0])
        acc[0] += ns
        acc[1] += ops
        latency_ms.append(ns / ops / 1e6)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    values = {"peak_rss_mb": peak_kb / 1024}
    if setup_s:
        values["setup_s"] = statistics.median(t * f if scaled else t for t, f in setup_s)
    if len(latency_ms) >= 2:
        values["ops_per_s"] = statistics.median(ops / ns * 1e9 for ns, ops in by_pass.values())
        values["op_p50_ms"] = statistics.median(latency_ms)
        values["op_p90_ms"] = statistics.quantiles(latency_ms, n=10, method="inclusive")[8]
    return {k: (values[k], unit) for k, unit in END_TO_END.items() if k in values}


def per_layer_names(sizes):
    """Every per-layer metric a traced run reports, with its unit."""
    names = {}
    for n in sizes.key_indices():
        names[f"numtheory.key_build_us.n{n}"] = "us"
    for d in sizes.bulk_dims:
        names[f"codec.decode_us_per_block.dim{d}"] = "us"
    names["codec.decode_growth"] = "ratio"
    names[f"codec.decode_with_trace_us_per_block.dim{max(sizes.bulk_dims)}"] = "us"
    names["codec.encode_us_per_block"] = "us"
    names["codec.reject_us_per_trial"] = "us"
    names["wire.serialize_us_per_block"] = "us"
    names["wire.parse_us_per_block"] = "us"
    names["wire.payload_bytes_per_block"] = "bytes"
    names["layout.preprocess_us"] = "us"
    for f in ("to_matrix", "to_blocks", "reassemble", "to_symbols"):
        names[f"layout.{f}_us_per_block"] = "us"
    names["alphabet.char_table_us"] = "us"
    for s in STRATEGIES:
        names[f"harness.corrupt_us.{s}"] = "us"
        names[f"harness.trial_us.{s}"] = "us"
    for scheme in SCHEMES:
        for s in STRATEGIES:
            names[f"harness.detected.{scheme}.{s}"] = "count"
            names[f"harness.miscorrected.{scheme}.{s}"] = "count"
    for f in ("python_start", "import", "encode_proc", "decode_proc"):
        names[f"cli.{f}_ms"] = "ms"
    names["trace.overhead_pct"] = "%"
    names["host.calibration_us"] = "us"
    return names


def per_layer(run, sizes):
    """Per-layer values by name; a metric without samples is left out."""
    table = aggregate(run.tracer, run.clock)

    def total(name, tag=None):
        stats = [st for (n, t), st in table.items() if n == name and tag in (None, t)]
        return (sum(s.self_ns for s in stats), sum(s.count for s in stats),
                sum(s.units for s in stats))

    def us_per_unit(name, tag=None):
        ns, _, units = total(name, tag)
        return ns / units / 1e3 if units else None

    def us_per_call(name, tag=None):
        ns, calls, _ = total(name, tag)
        return ns / calls / 1e3 if calls else None

    values = {}
    for n in sizes.key_indices():
        q_ns, builds, _ = total("numtheory.q_power", f"n{n}")
        r_ns, _, _ = total("numtheory.r_matrix", f"n{n}")
        values[f"numtheory.key_build_us.n{n}"] = (q_ns + r_ns) / builds / 1e3 if builds else None
    for d in sizes.bulk_dims:
        values[f"codec.decode_us_per_block.dim{d}"] = us_per_unit("codec.decode", f"dim{d}")
    low = values[f"codec.decode_us_per_block.dim{min(sizes.bulk_dims)}"]
    high = values[f"codec.decode_us_per_block.dim{max(sizes.bulk_dims)}"]
    values["codec.decode_growth"] = high / low if low and high else None
    top = f"dim{max(sizes.bulk_dims)}"
    values[f"codec.decode_with_trace_us_per_block.{top}"] = us_per_unit(
        "codec.decode_with_trace", top)
    values["codec.encode_us_per_block"] = us_per_unit("codec.encode")
    values["codec.reject_us_per_trial"] = us_per_call("codec.decode", "tampered")
    values["wire.serialize_us_per_block"] = us_per_unit("wire.serialize")
    values["wire.parse_us_per_block"] = us_per_unit("wire.parse")
    values["wire.payload_bytes_per_block"] = run.counts.get("wire.payload_bytes_per_block")
    values["layout.preprocess_us"] = us_per_call("layout.preprocess")
    for f in ("to_matrix", "to_blocks", "reassemble", "to_symbols"):
        values[f"layout.{f}_us_per_block"] = us_per_unit(f"layout.{f}")
    values["alphabet.char_table_us"] = us_per_call("alphabet.CharTable")
    for s in STRATEGIES:
        values[f"harness.corrupt_us.{s}"] = us_per_call("harness.corrupt", s)
        values[f"harness.trial_us.{s}"] = us_per_unit("harness.detection_rate", s)
    for scheme in SCHEMES:
        for s in STRATEGIES:
            for what in ("detected", "miscorrected"):
                key = f"harness.{what}.{scheme}.{s}"
                values[key] = run.counts.get(key)
    for f in ("python_start", "import", "encode_proc", "decode_proc"):
        us = us_per_call(f"cli.{f}")
        values[f"cli.{f}_ms"] = us / 1e3 if us is not None else None
    # the loop's pairs only: the probe's operations come after the last pass
    untraced, traced = (sum(ns * run.clock.factor(start, end)
                            for p, start, end, ns, _ in run.samples[t] if p < run.passes)
                        for t in (False, True))
    values["trace.overhead_pct"] = (traced / untraced - 1) * 100 if untraced else None

    values["host.calibration_us"] = NOMINAL_NS / run.clock.run_factor() / 1e3
    units = per_layer_names(sizes)
    return {k: (v, units[k]) for k, v in values.items() if v is not None}
