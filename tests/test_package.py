"""The package root loads its modules lazily, and the CLI and the text round
trip load only what they run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qblock
from qblock.cli import build_parser
from qblock.harness import Strategy

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement, *flags):
    """The modules a fresh interpreter, started with `flags`, has loaded
    after running `statement`."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, *flags, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


@pytest.mark.parametrize("name", qblock.__all__)
def test_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"qblock.{qblock._HOME[name]}")
    value = getattr(qblock, name)
    assert value is getattr(home, name)
    # defined there, not merely imported there
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qblock import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qblock.__all__)
    assert len(qblock.__all__) == 45 and qblock.__all__ == sorted(qblock.__all__)


def test_dir_lists_every_public_name():
    assert set(qblock.__all__) <= set(dir(qblock))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        qblock.nope


def test_import_qblock_loads_no_submodule():
    assert not {m for m in loaded_after("import qblock") if m.startswith("qblock.")}


def test_cli_loads_neither_harness_nor_key_matrices():
    loaded = loaded_after("import qblock.cli")
    assert "qblock.cli" in loaded
    assert not loaded & {"qblock.harness", "qblock.numtheory", "qblock.demo", "csv"}


START_UP = {
    "cli": "import qblock.cli\nqblock.cli.build_parser()",
    "round-trip": "import qblock\n"
    "coded = qblock.encode_text('HI! HOW ARE YOU?', qblock.Scheme.LUCAS_BLOCKING)\n"
    "assert qblock.decode_text(qblock.parse(qblock.serialize(coded))) == 'HI!0HOW0ARE0YOU?'",
}


@pytest.mark.parametrize("statement", START_UP.values(), ids=START_UP.keys())
def test_start_up_loads_no_matrix_view(statement):
    # the text paths never run the paper's matrix view, so they do not compile it
    assert "qblock.matrix" not in loaded_after(statement)


@pytest.mark.parametrize("name", ["decode", "MessageMatrix"])
def test_reading_a_matrix_name_loads_the_matrix_view(name):
    assert "qblock.matrix" in loaded_after(f"import qblock\nqblock.{name}")


@pytest.mark.parametrize("statement", START_UP.values(), ids=START_UP.keys())
def test_start_up_loads_neither_dataclasses_nor_inspect(statement):
    # less what a bare interpreter loads: a site .pth file may import inspect itself
    assert not (loaded_after(statement) - loaded_after("pass")) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("statement", START_UP.values(), ids=START_UP.keys())
def test_start_up_without_site_loads_no_typing(statement):
    # -S: no site, so no .pth file of an installed package imports typing first
    assert not loaded_after(statement, "-S") & {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_round_trip_loads_neither_the_json_scanner_nor_the_json_package(flags):
    # parse converts rows through its own token memo, and names a fault line by line
    refused = ("\ntry:\n    qblock.parse(qblock.serialize(coded).replace(',', ',,', 1))\n"
               "except qblock.MalformedPayload:\n    pass")
    loaded = loaded_after(START_UP["round-trip"] + refused, *flags)
    assert not loaded & {"_json", "json"}


NO_SITE_ROUND_TRIPS = """\
import qblock.cli
from qblock import MalformedPayload, Scheme, TamperDetected, decode_text, encode_text, parse, serialize
qblock.cli.build_parser()
# a kernel that imports a module on first use shows only once it runs
payload = serialize(encode_text("HI THERE", Scheme.LUCAS_BLOCKING))
assert decode_text(parse(payload)) == "HI0THERE00000000"
header, first, *rest = payload.splitlines()
tampered = "\\n".join([header, "999," + first.split(",", 1)[1], *rest]) + "\\n"
for bad, error in ((tampered, TamperDetected), (payload.replace(",", ",,", 1), MalformedPayload)):
    try:
        decode_text(parse(bad))
        sys.exit(f"accepted: {bad!r}")
    except error:
        pass
"""


def test_start_up_and_round_trips_without_site_load_no_forbidden_module():
    # the CLI parser, a round trip, a tampered and a malformed payload, all in one interpreter
    forbidden = {"array", "csv", "dataclasses", "inspect", "json", "_json", "random", "typing",
                 "qblock.harness", "qblock.matrix", "qblock.numtheory", "qblock.demo"}
    assert not loaded_after(NO_SITE_ROUND_TRIPS, "-S") & forbidden


def test_strategy_choices_are_the_strategy_values(capsys):
    from qblock.cli import STRATEGIES

    assert list(STRATEGIES) == [s.value for s in Strategy]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["harness", "--scheme", "lucas", "--strategy", "nope"])
    for value in STRATEGIES:
        args = build_parser().parse_args(["harness", "--scheme", "lucas", "--strategy", value])
        assert args.strategy == value
    with pytest.raises(SystemExit, match="^0$"):
        build_parser().parse_args(["harness", "--help"])
    help_text = capsys.readouterr().out
    assert [value for value in STRATEGIES if value in help_text] == list(STRATEGIES)
