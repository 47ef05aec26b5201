"""tools/diffhash.py prints the same digests on every run, and a digest
moves when the behaviour of its section does."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from qblock import codec
from qblock.errors import TamperDetected

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "diffhash.py"
SECTIONS = ["parse", "decode", "decode_with_trace", "solve_missing", "encode", "encode_range",
            "corrupt", "detection_rate", "cli", "CharTable", "preprocess"]


def run_tool(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    argv = [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--seed", "1", "--cases", "20"]
    return subprocess.run(argv, capture_output=True, text=True, env=env, check=True).stdout


def test_two_runs_give_equal_digests():
    # under two string-hash seeds, so neither hash() nor set order leaks in
    first, second = run_tool("1"), run_tool("2")
    assert first == second
    assert [line.split()[0] for line in first.splitlines()] == SECTIONS


def test_a_reworded_verdict_changes_the_decode_digest(monkeypatch):
    spec = importlib.util.spec_from_file_location("diffhash", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = tool.digests(1, 20)
    solve_missing = codec.solve_missing

    def reworded(row, scheme, *, size):
        try:
            return solve_missing(row, scheme, size=size)
        except TamperDetected as exc:
            raise TamperDetected(f"{exc}.") from None

    monkeypatch.setattr(codec, "solve_missing", reworded)
    after = tool.digests(1, 20)
    assert after["decode"] != before["decode"]
    assert after["preprocess"] == before["preprocess"]
