"""The CLI as real processes: `python -m qblock.cli` runs and pipes between them.

Each row feeds bytes to the first stage and each process's stdout to the next
stage; a stage is either an argv for the CLI or an edit of the payload in
flight, and an argv that ends in `0<&-` or `1>&-` runs through `sh` with
that descriptor closed.  A row pins the exit code of every process, the
last one's stdout, and how its stderr starts.  No process may print a
traceback, whatever its input: the CLI exits 0, 1 or 2.
"""

import argparse
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from qblock import cli

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

LUCAS = ["encode", "--scheme", "lucas"]
DECODE = ["decode"]
HI = b"HI THERE\n"
# no 'O' or 'W', the symbols that code 0 falls on at n = 4096 (tas) and n = 2048 (half)
LONG = "HI THERE! " * 1600
HEADER = "QBLK1;scheme=mine;nrule=half;dim=2;alpha=default\n"


def set_d(line_no: int, d: bytes):
    """An edit of a payload that sets the d field of line `line_no` (1-based)."""
    def edit(payload: bytes) -> bytes:
        lines = payload.split(b"\n")
        lines[line_no - 1] = d + b"," + lines[line_no - 1].split(b",", 1)[1]
        return b"\n".join(lines)
    return edit


def crlf(payload: bytes) -> bytes:
    return payload.replace(b"\n", b"\r\n")


# err: how the last stderr starts, a whole line ending in "\n"; "" asks for no stderr at all
Row = namedtuple("Row", "stdin stages codes out err")
ROWS = {
    "pipe": Row(HI, [LUCAS, DECODE], (0, 0), "HI0THERE00000000\n", ""),
    # a file is read with universal newlines; real stdin must be too
    "crlf-stdin": Row(HI, [LUCAS, crlf, DECODE], (0, 0), "HI0THERE00000000\n", ""),
    **{
        f"dim-128-{scheme}-{rule}": Row(
            f"{LONG}\n".encode(),
            [["encode", "--scheme", scheme, "--n-rule", rule], DECODE],
            (0, 0),
            LONG.replace(" ", "0").ljust(128 * 128, "0") + "\n",
            "",
        )
        for rule in ("half", "tas")
        for scheme in ("lucas", "mine")
    },
    "tampered": Row(HI, [LUCAS, set_d(2, b"999"), DECODE], (0, 1), "",
                    "error: TamperDetected: block 1: "),
    "malformed": Row(HI, [LUCAS, set_d(3, b"01"), DECODE], (0, 1), "",
                     "error: MalformedPayload: line 3: '01' is not a canonical integer\n"),
    # x = 10**4300 + 840 has 4301 digits, past the interpreter's int-string limit
    "oversized-x": Row(
        f"{HEADER}{'9' * 4300},1,29,29\n".encode(), [DECODE], (1,), "",
        "error: TamperDetected: block 1: recovered code a 14285-bit integer outside [0, 30)\n",
    ),
    "long-token": Row(f"{HEADER}{'9' * 4301},1,29,29\n".encode(), [DECODE], (1,), "",
                      "error: MalformedPayload: line 2: 4301-digit integer is too long\n"),
    "missing-input": Row(b"", [["decode", "-i", "missing.txt"]], (1,), "",
                         "error: FileNotFoundError: [Errno 2] No such file or directory: "
                         "'missing.txt'\n"),
    "missing-dir": Row(HI, [[*LUCAS, "-o", "nodir/x"]], (1,), "",
                       "error: FileNotFoundError: [Errno 2] No such file or directory: "
                       "'nodir/x'\n"),
    # stdin is strict UTF-8 whatever the locale, as a file read with -i is
    **{
        f"undecodable-{stage[0]}": Row(
            b"\xff\xfe", [stage], (1,), "",
            "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n",
        )
        for stage in (LUCAS, DECODE)
    },
    "empty-stdin": Row(b"", [LUCAS], (1,), "", "error: EmptyMessage: message text is empty\n"),
    "unknown-flag": Row(b"", [[*DECODE, "-x"]], (2,), "",
                        "usage: qblock [-h] {encode,decode,demo,harness} ...\n"
                        "qblock: error: unrecognized arguments: -x\n"),
    # Python starts with sys.stdin or sys.stdout None when that descriptor is closed
    "closed-stdin": Row(HI, [[*DECODE, "0<&-"]], (1,), "", "error: OSError: stdin is closed\n"),
    "closed-stdout": Row(HI, [[*LUCAS, "1>&-"]], (1,), "", "error: OSError: stdout is closed\n"),
    "closed-stdout-files": Row(HI, [[*LUCAS, "-o", "p", "1>&-"], [*DECODE, "-i", "p", "0<&-"]],
                               (0, 0), "HI0THERE00000000\n", ""),
}
# a stage that ends in one of these runs through sh, which closes that descriptor
CLOSE = ("0<&-", "1>&-")


def command(stage):
    if stage[-1] in CLOSE:
        return ["sh", "-c", f'"$0" -m qblock.cli "$@" {stage[-1]}', sys.executable, *stage[:-1]]
    return [sys.executable, "-m", "qblock.cli", *stage]


def run(stdin: bytes, stages, cwd) -> list[subprocess.CompletedProcess]:
    """The processes of `stages`, each fed the stdout before it, edits applied in between."""
    procs, data = [], stdin
    for stage in stages:
        if callable(stage):
            data = stage(data)
            continue
        procs.append(subprocess.run(command(stage), input=data, capture_output=True, env=ENV,
                                    cwd=cwd, timeout=120))
        data = procs[-1].stdout
    return procs


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS.keys())
def test_cli_process(row, tmp_path):
    procs = run(row.stdin, row.stages, tmp_path)
    assert tuple(proc.returncode for proc in procs) == row.codes
    assert procs[-1].stdout.decode() == row.out
    err = procs[-1].stderr.decode()
    assert err.startswith(row.err) if row.err else err == ""
    assert not [proc.stderr for proc in procs if b"Traceback" in proc.stderr]


HELPS = {"help": ["--help"], "encode-help": ["encode", "--help"],
         "harness-help": ["harness", "--help"]}
GONE = {
    **{mode: (mode == "buffered", LUCAS) for mode in ("buffered", "unbuffered")},
    **{f"{mode}-{name}": (mode == "buffered", argv)
       for mode in ("buffered", "unbuffered") for name, argv in HELPS.items()},
}


@pytest.mark.parametrize("buffered,argv", GONE.values(), ids=GONE.keys())
def test_a_reader_that_has_gone_exits_1(buffered, argv, tmp_path):
    # block-buffered stdout fails only at the flush, which must come before
    # exit; argparse prints --help itself, before any command runs
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qblock.cli", *argv], input=HI,
                              stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv", HELPS.values(), ids=HELPS.keys())
def test_help_exits_0_and_prints_what_argparse_prints(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the process
    monkeypatch.setattr(cli._Parser, "print_help", argparse.ArgumentParser.print_help)
    with pytest.raises(SystemExit, match="^0$"):
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "qblock.cli", *argv], capture_output=True,
                          env={**ENV, "COLUMNS": "80"}, cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (0, expected, b"")
