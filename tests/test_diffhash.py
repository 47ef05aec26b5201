"""tools/diffhash.py prints the same digests on every run, and a digest
moves when the behaviour of its section does."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qblock import codec
from qblock.alphabet import CharTable
from qblock.errors import CodeOutOfRange, TamperDetected

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "diffhash.py"
SECTIONS = ["parse", "decode", "decode_with_trace", "solve_missing", "encode", "encode_range",
            "corrupt", "detection_rate", "cli", "CharTable", "preprocess", "text"]


def run_tool(seed, cases, **env):
    argv = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--seed", seed, "--cases", cases]
    return subprocess.run(
        argv, capture_output=True, text=True, env={**os.environ, **env}, check=True
    ).stdout


def test_two_runs_give_equal_digests():
    # under two string-hash seeds, so neither hash() nor set order leaks in
    first, second = (run_tool("1", "20", PYTHONHASHSEED=hash_seed) for hash_seed in "12")
    assert first == second
    assert [line.split()[0] for line in first.splitlines()] == SECTIONS


@pytest.mark.parametrize(
    "seed,cases,expected",
    [("1", "200", "diffhash.expected"), ("7", "1000", "diffhash.seed7.expected")],
    ids=["seed-1", "seed-7"],
)
def test_digests_equal_the_committed_file(seed, cases, expected):
    # a change that moves a section's behaviour shows here as a changed line
    assert run_tool(seed, cases) == (ROOT / "tools" / expected).read_text(encoding="utf-8")


def reworded(f, error):
    """`f`, with a period added to the text of each `error` that it raises."""

    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except error as exc:
            raise error(f"{exc}.") from None

    return wrapper


@pytest.mark.parametrize(
    "owner,name,error,moved,unchanged",
    [
        (codec, "solve_missing", TamperDetected, "decode", ["preprocess"]),
        (CharTable, "_symbols_of", CodeOutOfRange, "CharTable", ["decode", "encode_range"]),
    ],
    ids=["solve_missing", "CharTable"],
)
def test_a_reworded_verdict_changes_the_decode_digest(monkeypatch, owner, name, error, moved,
                                                      unchanged):
    spec = importlib.util.spec_from_file_location("diffhash", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = tool.digests(1, 20)
    monkeypatch.setattr(owner, name, reworded(getattr(owner, name), error))
    after = tool.digests(1, 20)
    assert after[moved] != before[moved]
    assert all(after[section] == before[section] for section in unchanged)
