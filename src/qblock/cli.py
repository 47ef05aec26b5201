"""Command-line front end: encode, decode, demo, harness.

Exit codes: 0 success, 1 codec/tamper/module errors, files that cannot be
opened, written or read as UTF-8, a stdout whose reader has gone, and a
stdin or stdout that the command needs but that was closed when Python
started (message on stderr; `--help` too, which is printed inside the same
boundary), 2 usage errors.  entrypoint(), which the console script and
`python -m qblock.cli` run, calls gc.freeze() before sys.exit; of the
shutdown's work, only its final cyclic collections skip the frozen objects.
"""

import argparse
import gc
import os
import sys

from .codec import Scheme, decode_text, encode_text
from .errors import QblockError
from .layout import PAD_SYMBOL, NRule
from .wire import parse, serialize

DEFAULT_HARNESS_MESSAGE = "HI! HOW ARE YOU?"
# the values of harness.Strategy, spelled out so that building the parser does
# not import the harness; tests/test_package.py holds the two equal
STRATEGIES = ("perturb-d", "perturb-kept", "swap-rows")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose `--help` lets an error writing the help reach
    `main`'s boundary; argparse's own print drops any OSError."""

    def print_help(self, file=None):
        (_std("stdout") if file is None else file).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qblock")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="text in, wire payload out")
    enc.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    enc.add_argument("--n-rule", default="half", choices=[r.value for r in NRule])
    enc.add_argument("-i", "--input", default=None, help="input file (default stdin)")
    enc.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    dec = sub.add_parser("decode", help="wire payload in, message out")
    dec.add_argument("-i", "--input", default=None)
    dec.add_argument("-o", "--output", default=None)
    dec.add_argument("--render", default="text", choices=["text", "grid"])
    dec.add_argument("--spaces", default="keep", choices=["restore", "keep"],
                     help="restore shows '0' as space (display only)")

    demo = sub.add_parser("demo", help="run a bundled worked example")
    demo.add_argument("--example", type=int, required=True, choices=[1, 2])

    har = sub.add_parser("harness", help="measure corruption detection")
    har.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    har.add_argument("--strategy", required=True, choices=STRATEGIES)
    har.add_argument("--trials", type=positive_int, default=100)
    har.add_argument("--seed", type=int, default=0,
                     help="trial t draws from the stream of seed S+t; seeds in "
                          "[-2**63, 2**63) each start their own stream")
    har.add_argument("--magnitude", type=positive_int, default=1)
    har.add_argument("--message", default=DEFAULT_HARNESS_MESSAGE)
    har.add_argument("--n-rule", default="half", choices=[r.value for r in NRule])
    har.add_argument("--csv", default=None, help="write per-trial outcomes to FILE")
    return parser


def _std(name):
    """sys.stdin or sys.stdout; OSError if it is None, as Python leaves it when
    it starts with that file descriptor closed."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(f"{name} is closed")
    return stream


def _read(path):
    if path is None:
        # strict UTF-8 and universal newlines, as open() reads a file; a StringIO has no buffer
        stdin = _std("stdin")
        stream = getattr(stdin, "buffer", None)
        text = stdin.read() if stream is None else stream.read().decode("utf-8")
        return text.replace("\r\n", "\n").replace("\r", "\n")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path, data):
    if path is None:
        _std("stdout").write(data)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)


def _run_encode(args) -> int:
    text = _read(args.input).rstrip("\r\n")
    coded = encode_text(text, Scheme(args.scheme), NRule(args.n_rule))
    _write(args.output, serialize(coded))
    return 0


def _run_decode(args) -> int:
    coded = parse(_read(args.input))
    symbols = decode_text(coded)
    if args.spaces == "restore":
        symbols = symbols.replace(PAD_SYMBOL, " ")
    if args.render == "grid":
        dim = coded.dim
        out = "\n".join(" ".join(symbols[r * dim : (r + 1) * dim]) for r in range(dim)) + "\n"
    else:
        out = symbols + "\n"
    _write(args.output, out)
    return 0


def _run_demo(args) -> int:
    from .demo import run_demo  # only this command needs it; keeps start-up small

    report, ok = run_demo(args.example)
    _write(None, report)
    return 0 if ok else 1


def _run_harness(args) -> int:
    import csv  # like demo, only this command needs these

    from .harness import CorruptionSpec, Strategy, detection_rate

    spec = CorruptionSpec(Strategy(args.strategy), magnitude=args.magnitude, seed=args.seed)
    report = detection_rate(
        args.message, Scheme(args.scheme), spec, args.trials, NRule(args.n_rule)
    )
    if args.csv is not None:
        # written after the trials, so a run that fails leaves an existing file
        # as it was, and before the summary, so a name that cannot be written
        # prints nothing
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["trial", "strategy", "outcome"])
            for trial, outcome in enumerate(report.outcomes):
                writer.writerow([trial, args.strategy, outcome])
    _write(None, f"scheme={args.scheme} strategy={args.strategy} seed={args.seed} "
                 f"magnitude={args.magnitude} {report.summary()}\n")
    return 0


_DISPATCH = {
    "encode": _run_encode,
    "decode": _run_decode,
    "demo": _run_demo,
    "harness": _run_harness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error
            code = exc.code
        else:
            code = _DISPATCH[args.command](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a reader that has gone fails here, not at exit
        return code
    except (QblockError, OSError, UnicodeDecodeError) as exc:
        if isinstance(exc, BrokenPipeError) and sys.stdout is not None:
            # else the flush at exit fails again (the SIGPIPE note in the signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    # the shutdown's collections never walk the permanent generation; the OS frees it
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
