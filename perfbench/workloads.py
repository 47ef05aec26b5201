"""The four workloads, the layer probe, and the checks on every output.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished and been checked.  Only the user-facing
calls of an operation are timed; the per-layer calls that check each
stage's output run outside the timed part.

- chat: one operation is one round trip of a short message,
  encode_text -> serialize -> parse -> decode_text.
- bulk: one operation is one large message sent (encode_text, serialize)
  and received (parse, decode_text).
- tamper: one operation is one trial of harness.detection_rate.
- cli_pipe: one operation is one ``qblock encode | qblock decode`` process
  pair.

``qblock`` must already be importable from the checkout's ``src`` when this
module is imported; ``run.py`` sees to that.
"""

import contextlib
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import qblock as q
from qblock.harness import trial_spec

import inputs
import reference as ref
from calibrate import Clock
from spans import NullTracer

SCHEME = {s.value: s for s in q.Scheme}
NRULE = {r.value: r for r in q.NRule}
STRATEGIES = ("perturb-d", "perturb-kept", "swap-rows")
# perturbations up to +-60 reach every multiple of every pivot that keeps
# the recovered code in range, so both outcomes occur
MAGNITUDE = 60
NULL = NullTracer()

SRC = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
CHILD_ENV = {**os.environ, "PYTHONPATH": SRC}
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Sizes:
    """How much work each workload and the probe do."""

    chat_rounds: int = 40       # messages per (dim, scheme, n-rule)
    chat_dims: tuple = (4, 6, 8, 10, 12, 14, 16)
    # the probe's decode sizes; dim 128 is the largest that decode, while it
    # is O(b^2), finishes in seconds
    bulk_dims: tuple = (32, 64, 96, 128)
    # the bulk workload's: an odd number of sizes puts the median and the
    # 90th percentile inside a size, not between two
    bulk_workload_dims: tuple = (16, 32, 64, 96, 128)
    tamper_dim: int = 32
    tamper_trials: int = 8      # trials per detection_rate call in the workload
    harness_trials: int = 16    # fixed-seed trials per (scheme, strategy) in the probe
    cli_dims: tuple = (4, 6, 8)
    key_reps: int = 20
    probe_chat: int = 16
    cli_samples: int = 5
    setup_samples: int = 7

    def key_indices(self):
        return [ref.key_index((d // 2) ** 2, "half") for d in self.bulk_dims]


FULL = Sizes()
TINY = Sizes(chat_rounds=1, chat_dims=(4, 6), bulk_dims=(4, 8), bulk_workload_dims=(2, 4, 8),
             tamper_dim=8, tamper_trials=2, harness_trials=3, cli_dims=(4,), key_reps=1,
             probe_chat=2, cli_samples=1, setup_samples=2)


class Run:
    """Counts, failures, timing samples and spans of one benchmark run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # traced? -> [(pass number, start ns, end ns, net ns, operations)]
        self.samples = {False: [], True: []}
        self.passes = 0
        self.clock = Clock()
        self.counts = {}
        self._bad = False
        self._request = 0

    @contextlib.contextmanager
    def op(self, tr=NULL, count=1):
        """One checked operation (or `count` of them that share one call)."""
        self.attempted += count
        self._request += 1
        tr.request = self._request
        self._bad = False
        try:
            yield
        except Exception:  # an escaped exception fails the operation; the run goes on
            self.fail(traceback.format_exc(limit=-3))
        if self._bad:
            self.failed += count

    def check(self, ok, what):
        if not ok:
            self.fail(what)

    def fail(self, what):
        self._bad = True
        if len(self.errors) < 20:
            self.errors.append(what)

    def sample(self, tr, start_ns, ops=1):
        """Record `ops` operations timed from `start_ns` to now, less the
        calibration kernel's time in between."""
        end_ns = time.perf_counter_ns()
        net = end_ns - start_ns - self.clock.spent(start_ns, end_ns)
        self.samples[tr is not NULL].append((self.passes, start_ns, end_ns, net, ops))


def rows_of(coded):
    return [(r.d, r.k1, r.k2, r.k3) for r in coded.rows]


def entries(key):
    return (key.m11, key.m12, key.m21, key.m22)


def stages(run, tr, m, with_trace):
    """Call each layer's own public function on the message and check its
    output against the reference."""
    tag, b = f"dim{m.dim}", m.blocks
    alphabet = q.DEFAULT_ALPHABET
    symbols = tr.call("layout.preprocess", q.preprocess, m.text, alphabet, tag=tag)
    table = tr.call("alphabet.CharTable", q.CharTable, alphabet, m.n, tag=tag)
    matrix = tr.call("layout.to_matrix", q.to_matrix, symbols, table, tag=tag, units=b)
    blocks = tr.call("layout.to_blocks", q.to_blocks, matrix, tag=tag, units=b)
    coded = tr.call("codec.encode", q.encode, matrix, SCHEME[m.scheme], NRULE[m.rule],
                    tag=tag, units=b)
    back = tr.call("layout.reassemble", q.reassemble, blocks, m.dim, tag=tag, units=b)
    text = tr.call("layout.to_symbols", q.to_symbols, back, table, tag=tag, units=b)
    run.check(symbols == m.symbols, "layout.preprocess differs from the reference")
    run.check(matrix.cells == m.cells, "layout.to_matrix differs from the reference")
    run.check([(k.b1, k.b2, k.b3, k.b4) for k in blocks] == ref.blocks(m.cells),
              "layout.to_blocks differs from the reference")
    run.check(rows_of(coded) == m.rows, "codec.encode rows differ from the reference")
    run.check(back == matrix, "layout.reassemble does not invert to_blocks")
    run.check(text == m.symbols, "layout.to_symbols differs from the reference")
    if with_trace:
        decoded, traces = tr.call("codec.decode_with_trace", q.decode_with_trace, coded,
                                  tag=tag, units=b)
        run.check(decoded.cells == m.cells, "codec.decode_with_trace matrix differs")
        run.check([t.x for t in traces] == ref.dropped(m.cells, m.scheme),
                  "codec.decode_with_trace x values differ from the dropped elements")


def round_trip(run, tr, m, name, with_trace):
    """Send and receive one message; time it and check every stage."""
    tag, b = f"dim{m.dim}", m.blocks
    with run.op(tr):
        start = time.perf_counter_ns()
        with tr.span(name, tag, b):
            coded = tr.call("codec.encode_text", q.encode_text, m.text, SCHEME[m.scheme],
                            NRULE[m.rule], tag=tag, units=b)
            payload = tr.call("wire.serialize", q.serialize, coded, tag=tag, units=b)
            parsed = tr.call("wire.parse", q.parse, payload, tag=tag, units=b)
            out = tr.call("codec.decode_text", q.decode_text, parsed, tag=tag, units=b)
        run.sample(tr, start)
        run.check(payload == m.payload, f"{name}: payload differs from the reference")
        run.check(out == m.symbols, f"{name}: round trip does not reproduce the message")
        stages(run, tr, m, with_trace)


def chat_op(run, tr, m):
    round_trip(run, tr, m, "op.chat", with_trace=True)


def bulk_op(run, tr, m):
    # decode_with_trace at dim 128 costs as much as the decode itself while
    # decode is O(b^2); the probe checks it once per traced run instead
    round_trip(run, tr, m, "op.bulk", with_trace=False)


@dataclass(frozen=True)
class TamperCase:
    message: inputs.Message
    coded: object  # the package's CodedMessage for the message
    strategy: str
    seed: int
    trials: int


def encoded(run, m):
    """The package's CodedMessage for `m`, checked against the reference."""
    with run.op():
        coded = q.encode_text(m.text, SCHEME[m.scheme], NRULE[m.rule])
        run.check(rows_of(coded) == m.rows, "codec.encode_text rows differ from the reference")
        return coded


def tamper_op(run, tr, case):
    """One detection_rate call, then every trial re-checked: the corruption
    against its strategy, the outcome against the closed form, and
    codec.decode's own verdict on the damaged payload."""
    m, trials = case.message, case.trials
    spec = q.CorruptionSpec(q.Strategy(case.strategy), magnitude=MAGNITUDE, seed=case.seed)
    with run.op(tr, trials):
        start = time.perf_counter_ns()
        report = tr.call("harness.detection_rate", q.detection_rate, m.text, SCHEME[m.scheme],
                         spec, trials, tag=case.strategy, units=trials)
        run.sample(tr, start, trials)
        outcomes = report.outcomes
        run.check(report.trials == trials == len(outcomes)
                  and report.detected == outcomes.count("detected")
                  and report.miscorrected == outcomes.count("miscorrected"),
                  "harness.detection_rate tally disagrees with its outcomes")
        for t in range(trials):
            damaged = tr.call("harness.corrupt", q.corrupt, case.coded, trial_spec(spec, t),
                              tag=case.strategy)
            rows = rows_of(damaged)
            run.check(ref.corrupted_as(case.strategy, m.rows, rows),
                      f"harness.corrupt {case.strategy} changed the wrong fields")
            expected = ref.decoded_cells(rows, m.scheme, m.dim)
            run.check(t < len(outcomes) and outcomes[t] == ref.outcome(expected, m.cells),
                      f"trial {t} of {case.strategy}: outcome differs from the closed form")
            try:
                got = tr.call("codec.decode", q.decode, damaged, tag="tampered").cells
            except q.TamperDetected:
                got = None
            run.check(got == expected,
                      "codec.decode verdict on a tampered payload differs from the closed form")
        return report


def cli_argv(*args):
    return [sys.executable, "-m", "qblock.cli", *args]


def pipe(first, second, data):
    """Run `first | second` with `data` on the first's stdin; returns both
    exit codes, the second's stdout and both stderrs."""
    p1 = subprocess.Popen(first, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=CHILD_ENV)
    p2 = None
    try:
        p2 = subprocess.Popen(second, stdin=p1.stdout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=CHILD_ENV)
        p1.stdout.close()  # the second process owns the read end now
        p1.stdin.write(data)
        p1.stdin.close()
        out, err2 = p2.communicate(timeout=CHILD_TIMEOUT_S)
        err1 = p1.stderr.read()
        p1.wait(timeout=CHILD_TIMEOUT_S)
        return p1.returncode, p2.returncode, out, err1 + err2
    finally:
        for p in (p1, p2):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        p1.stderr.close()


def cli_op(run, tr, m):
    with run.op(tr):
        start = time.perf_counter_ns()
        with tr.span("cli.pipe", f"dim{m.dim}", m.blocks):
            enc, dec, out, err = pipe(cli_argv("encode", "--scheme", m.scheme, "--n-rule", m.rule),
                                      cli_argv("decode"), (m.text + "\n").encode())
        run.sample(tr, start)
        run.check(enc == 0 and dec == 0 and not err,
                  f"cli pipe exited {enc}|{dec}: {err.decode(errors='replace')[:300]}")
        run.check(out == (m.symbols + "\n").encode(), "cli pipe output differs from the message")


def build(workload, seed, sizes, run):
    """The items of pass p of `workload`, as a function of p, and the
    operation to run on each."""
    if workload == "chat":
        messages = inputs.chat(seed, sizes.chat_rounds, sizes.chat_dims)
        return lambda p: messages, chat_op
    if workload == "bulk":
        messages = inputs.bulk(seed, sizes.bulk_workload_dims)
        return lambda p: messages, bulk_op
    if workload == "cli_pipe":
        messages = inputs.cli(seed, sizes.cli_dims)
        return lambda p: messages, cli_op
    # tamper: the fixed message under both schemes; every pass draws new
    # trial seeds, so a run averages over many corruption sites
    text = inputs.tamper_text(sizes.tamper_dim)
    cases = []
    for scheme in inputs.SCHEMES:
        m = inputs.for_scheme(text, scheme)
        coded = encoded(run, m)
        cases += [(m, coded, strategy) for strategy in STRATEGIES]
    trials = sizes.tamper_trials
    stride = len(cases) * trials

    def items(p):
        base = seed * 10**6 + p * stride
        return [TamperCase(m, coded, strategy, base + k * trials, trials)
                for k, (m, coded, strategy) in enumerate(cases)]
    return items, tamper_op


def loop(run, items, op, seconds):
    """Whole passes until `seconds` have passed.  In a traced run each item
    runs twice, untraced and traced, in alternating order, so the two can
    be compared for the tracing overhead."""
    order = [NULL] if run.tracer is None else [NULL, run.tracer]
    deadline = time.perf_counter() + seconds
    while True:
        for item in items(run.passes):
            for tr in order:
                op(run, tr, item)
            order.reverse()
        run.passes += 1
        if time.perf_counter() >= deadline:
            return


def probe(run, sizes):
    """Fixed-input calls, made in every traced run, that give each per-layer
    metric samples whatever the workload: key builds and decode at each
    bulk size, the trace path, the harness counts, a few round trips and
    the CLI processes.  The inputs do not depend on the seed, so the exact
    counts repeat from run to run."""
    tr = run.tracer
    for n in sizes.key_indices():
        tag, expect = f"n{n}", (ref.q_power(n), ref.r_matrix(n))
        for _ in range(sizes.key_reps):
            with run.op(tr):
                got = (entries(tr.call("numtheory.q_power", q.q_power, n, tag=tag)),
                       entries(tr.call("numtheory.r_matrix", q.r_matrix, n, tag=tag)))
                run.check(got == expect, f"key matrices for n={n} differ from the reference")

    for m in inputs.bulk("probe", sizes.bulk_dims):
        coded = encoded(run, m)
        tag = f"dim{m.dim}"
        with run.op(tr):
            matrix = tr.call("codec.decode", q.decode, coded, tag=tag, units=m.blocks)
            run.check(matrix.cells == m.cells, f"codec.decode at {tag} differs from the input")
        if m.dim == max(sizes.bulk_dims):
            with run.op(tr):
                matrix, traces = tr.call("codec.decode_with_trace", q.decode_with_trace, coded,
                                         tag=tag, units=m.blocks)
                run.check(matrix.cells == m.cells
                          and [t.x for t in traces] == ref.dropped(m.cells, m.scheme),
                          f"codec.decode_with_trace at {tag} differs from the reference")

    text = inputs.tamper_text(sizes.tamper_dim)
    payload_bytes = payload_blocks = 0
    for scheme in inputs.SCHEMES:
        m = inputs.for_scheme(text, scheme)
        coded = encoded(run, m)
        payload_bytes += len(q.serialize(coded).encode())
        payload_blocks += m.blocks
        for strategy in STRATEGIES:
            report = tamper_op(run, tr, TamperCase(m, coded, strategy, 0, sizes.harness_trials))
            if report is not None:
                run.counts[f"harness.detected.{scheme}.{strategy}"] = report.detected
                run.counts[f"harness.miscorrected.{scheme}.{strategy}"] = report.miscorrected
    run.counts["wire.payload_bytes_per_block"] = payload_bytes / payload_blocks

    for m in inputs.chat("probe", 1, sizes.chat_dims)[: sizes.probe_chat]:
        chat_op(run, tr, m)

    for m in inputs.cli("probe", sizes.cli_dims)[: sizes.cli_samples]:
        cli_probe(run, tr, m)


IMPORT_CHILD = (
    "import time\n"
    "t = time.perf_counter_ns()\n"
    "import qblock.cli\n"
    "print(t, time.perf_counter_ns(), qblock.cli.__file__)\n"
)


def child(argv, data=b""):
    return subprocess.run(argv, input=data, capture_output=True, env=CHILD_ENV,
                          timeout=CHILD_TIMEOUT_S, check=False)


def cli_probe(run, tr, m):
    """The CLI's costs one at a time: bare interpreter, package import, and
    the encode and decode processes on their own."""
    with run.op(tr):
        with tr.span("cli.python_start"):
            res = child([sys.executable, "-c", "pass"])
        run.check(res.returncode == 0, "bare interpreter failed")
    with run.op(tr):
        res = child([sys.executable, "-c", IMPORT_CHILD])
        start, end, path = res.stdout.decode().split()
        tr.add("cli.import", int(start), int(end))
        run.check(path.startswith(SRC), f"child imported qblock.cli from {path}")
    with run.op(tr):
        with tr.span("cli.encode_proc"):
            res = child(cli_argv("encode", "--scheme", m.scheme), (m.text + "\n").encode())
        run.check(res.returncode == 0 and res.stdout.decode() == m.payload,
                  "cli encode payload differs from the reference")
    with run.op(tr):
        with tr.span("cli.decode_proc"):
            res = child(cli_argv("decode"), m.payload.encode())
        run.check(res.returncode == 0 and res.stdout.decode() == m.symbols + "\n",
                  "cli decode output differs from the message")
