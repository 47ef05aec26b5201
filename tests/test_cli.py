import gc
import io

import pytest

import golden
from qblock.cli import entrypoint, main


def run_cli(argv, capsys, monkeypatch, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_stdin_to_stdout(capsys, monkeypatch):
    code, out, err = run_cli(
        ["encode", "--scheme", "lucas"], capsys, monkeypatch, stdin=golden.EX1_MESSAGE + "\n"
    )
    assert code == 0 and err == ""
    assert out == golden.EX1_PAYLOAD


def test_encode_mine(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["encode", "--scheme", "mine"], capsys, monkeypatch, stdin=golden.EX2_MESSAGE
    )
    assert code == 0
    assert out == golden.EX2_PAYLOAD


def test_decode_text_render(capsys, monkeypatch):
    code, out, _ = run_cli(["decode"], capsys, monkeypatch, stdin=golden.EX1_PAYLOAD)
    assert code == 0
    assert out == golden.EX1_SYMBOLS + "\n"


def test_decode_restore_spaces(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decode", "--spaces", "restore"], capsys, monkeypatch, stdin=golden.EX1_PAYLOAD
    )
    assert code == 0
    assert out == golden.EX1_MESSAGE + "\n"


def test_decode_grid_render(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["decode", "--render", "grid"], capsys, monkeypatch, stdin=golden.EX1_PAYLOAD
    )
    assert code == 0
    assert out == "H I ! 0\nH O W 0\nA R E 0\nY O U ?\n"


def test_encode_decode_pipe_identity(capsys, monkeypatch):
    _, payload, _ = run_cli(
        ["encode", "--scheme", "mine"], capsys, monkeypatch, stdin="PIPE TEST WORKS!"
    )
    code, out, _ = run_cli(["decode"], capsys, monkeypatch, stdin=payload)
    assert code == 0
    assert out == "PIPE0TEST0WORKS!\n"


def test_file_io(tmp_path, capsys, monkeypatch):
    src = tmp_path / "msg.txt"
    src.write_text(golden.EX1_MESSAGE + "\n", encoding="utf-8")
    payload_file = tmp_path / "payload.qblk"
    code, out, _ = run_cli(
        ["encode", "--scheme", "lucas", "-i", str(src), "-o", str(payload_file)],
        capsys,
        monkeypatch,
    )
    assert code == 0 and out == ""
    assert payload_file.read_text(encoding="utf-8") == golden.EX1_PAYLOAD
    recovered = tmp_path / "out.txt"
    code, _, _ = run_cli(
        ["decode", "-i", str(payload_file), "-o", str(recovered)], capsys, monkeypatch
    )
    assert code == 0
    assert recovered.read_text(encoding="utf-8") == golden.EX1_SYMBOLS + "\n"


@pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_decode_stdin_accepts_cr_line_ends_like_a_file(line_end, tmp_path, capsys, monkeypatch):
    payload = golden.EX1_PAYLOAD.replace("\n", line_end)
    payload_file = tmp_path / "payload.qblk"
    payload_file.write_bytes(payload.encode("utf-8"))
    expected = (0, golden.EX1_SYMBOLS + "\n", "")
    assert run_cli(["decode"], capsys, monkeypatch, stdin=payload) == expected
    assert run_cli(["decode", "-i", str(payload_file)], capsys, monkeypatch) == expected


def test_decode_tampered_payload_exits_1(capsys, monkeypatch):
    tampered = golden.EX1_PAYLOAD.replace("54,9,10,16", "55,9,10,16")
    code, out, err = run_cli(["decode"], capsys, monkeypatch, stdin=tampered)
    assert code == 1 and out == ""
    assert "TamperDetected" in err and "block 1" in err


def test_decode_malformed_payload_exits_1_naming_the_token(capsys, monkeypatch):
    malformed = golden.EX1_PAYLOAD.replace("\n140,", "\n01,")  # line 3's d
    code, out, err = run_cli(["decode"], capsys, monkeypatch, stdin=malformed)
    assert (code, out) == (1, "")
    assert err == "error: MalformedPayload: line 3: '01' is not a canonical integer\n"


def test_encode_unknown_symbol_exits_1(capsys, monkeypatch):
    code, _, err = run_cli(["encode", "--scheme", "lucas"], capsys, monkeypatch, stdin="A,B")
    assert code == 1
    assert "UnknownSymbol" in err


def test_usage_errors_exit_2(capsys, monkeypatch):
    assert run_cli([], capsys, monkeypatch)[0] == 2
    assert run_cli(["bogus"], capsys, monkeypatch)[0] == 2
    assert run_cli(["encode"], capsys, monkeypatch)[0] == 2  # --scheme missing
    assert run_cli(["encode", "--scheme", "nope"], capsys, monkeypatch)[0] == 2
    assert run_cli(["demo"], capsys, monkeypatch)[0] == 2
    assert run_cli(["demo", "--example", "3"], capsys, monkeypatch)[0] == 2
    # no alphabet but the default is registered in a CLI process
    assert run_cli(["encode", "--scheme", "lucas", "--alphabet", "default"],
                   capsys, monkeypatch)[0] == 2
    harness = ["harness", "--scheme", "lucas", "--strategy", "perturb-d"]
    assert run_cli([*harness, "--alphabet", "default"], capsys, monkeypatch)[0] == 2
    for flag in ("--trials", "--magnitude"):
        for value in ("0", "-3"):
            assert run_cli([*harness, flag, value], capsys, monkeypatch)[0] == 2


CLOSED = {
    "encode-stdin": (["encode", "--scheme", "lucas"], "stdin"),
    "decode-stdin": (["decode"], "stdin"),
    "encode-stdout": (["encode", "--scheme", "lucas"], "stdout"),
    "decode-stdout": (["decode"], "stdout"),
    "demo-stdout": (["demo", "--example", "1"], "stdout"),
    "harness-stdout": (["harness", "--scheme", "lucas", "--strategy", "perturb-d",
                        "--trials", "3"], "stdout"),
    "help-stdout": (["--help"], "stdout"),
    "encode-help-stdout": (["encode", "--help"], "stdout"),
}


@pytest.mark.parametrize("argv, name", CLOSED.values(), ids=CLOSED.keys())
def test_a_closed_stream_that_the_command_needs_exits_1(argv, name, capsys, monkeypatch):
    # Python sets sys.stdin or sys.stdout to None when it starts with that descriptor closed
    stdin = golden.EX1_PAYLOAD if argv[0] == "decode" else golden.EX1_MESSAGE
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    monkeypatch.setattr(f"sys.{name}", None)
    assert (main(argv), capsys.readouterr().err) == (1, f"error: OSError: {name} is closed\n")


def test_a_run_on_files_alone_needs_neither_stream(tmp_path, capsys, monkeypatch):
    src, payload, recovered = tmp_path / "msg.txt", tmp_path / "p.qblk", tmp_path / "out.txt"
    src.write_text(golden.EX1_MESSAGE + "\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", None)
    monkeypatch.setattr("sys.stdout", None)
    assert main(["encode", "--scheme", "lucas", "-i", str(src), "-o", str(payload)]) == 0
    assert main(["decode", "-i", str(payload), "-o", str(recovered)]) == 0
    assert main(["demo"]) == 2  # a usage error is written to stderr
    assert recovered.read_text(encoding="utf-8") == golden.EX1_SYMBOLS + "\n"
    assert capsys.readouterr().err.startswith("usage: qblock")


@pytest.fixture
def unfreeze():
    # entrypoint() freezes the heap; later tests see the collector as before
    yield
    gc.unfreeze()


@pytest.mark.parametrize(
    "argv,code",
    [(["demo", "--example", "1"], 0), (["decode", "-i", "missing.txt"], 1), (["demo"], 2)],
    ids=["ok", "error", "usage"],
)
def test_entrypoint_exits_with_main_code(argv, code, tmp_path, capsys, monkeypatch, unfreeze):
    # the `qblock` console script of [project.scripts] runs entrypoint()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["qblock", *argv])
    with pytest.raises(SystemExit) as info:
        entrypoint()
    # on every exit path the heap is frozen, so the shutdown's collections skip it
    assert gc.get_freeze_count() > 0
    assert info.value.code == code == main(argv)


def test_file_errors_exit_1(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.qblk")
    no_dir = str(tmp_path / "no-such-dir" / "out")
    binary = tmp_path / "msg.bin"
    binary.write_bytes(b"\xff\xfe")
    harness = ["harness", "--scheme", "lucas", "--strategy", "perturb-d", "--trials", "3"]
    cases = [
        (["decode", "-i", missing], "", "FileNotFoundError", missing),
        (["decode", "-o", no_dir], golden.EX1_PAYLOAD, "FileNotFoundError", no_dir),
        ([*harness, "--csv", no_dir], "", "FileNotFoundError", no_dir),
        (["encode", "--scheme", "lucas", "-i", str(binary)], "", "UnicodeDecodeError", ""),
    ]
    for argv, stdin, kind, path in cases:
        code, _, err = run_cli(argv, capsys, monkeypatch, stdin=stdin)
        assert code == 1 and err.startswith(f"error: {kind}: ") and path in err, argv


@pytest.mark.parametrize(
    "name,kind",
    [(".", "IsADirectoryError"), ("", "FileNotFoundError")],
    ids=["directory", "empty-name"],
)
def test_harness_csv_that_cannot_be_written_prints_no_summary(
    name, kind, tmp_path, capsys, monkeypatch
):
    # the file is opened before the summary prints, and an empty name is a name
    monkeypatch.chdir(tmp_path)
    argv = ["harness", "--scheme", "mine", "--strategy", "perturb-kept", "--trials", "3"]
    code, out, err = run_cli([*argv, "--csv", name], capsys, monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {kind}: ")


def test_harness_that_fails_leaves_an_existing_csv_as_it_was(tmp_path, capsys, monkeypatch):
    # the trials run before the file is opened
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("trial,strategy,outcome\n0,perturb-d,detected\n")
    argv = ["harness", "--scheme", "lucas", "--strategy", "perturb-d", "--message", ""]
    code, out, err = run_cli([*argv, "--csv", "x.csv"], capsys, monkeypatch)
    assert (code, out) == (1, "")
    assert err.startswith("error: EmptyMessage: ")
    assert (tmp_path / "x.csv").read_text() == "trial,strategy,outcome\n0,perturb-d,detected\n"


@pytest.mark.parametrize("example", [1, 2])
def test_demo_passes_and_is_stable(example, capsys, monkeypatch):
    code1, out1, _ = run_cli(["demo", "--example", str(example)], capsys, monkeypatch)
    code2, out2, _ = run_cli(["demo", "--example", str(example)], capsys, monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verification: OK" in out1


def test_demo_2_contains_transmitted_rows(capsys, monkeypatch):
    _, out, _ = run_cli(["demo", "--example", "2"], capsys, monkeypatch)
    for d, k1, k2, k3 in golden.EX2_F:
        assert f"{d},{k1},{k2},{k3}" in out


def test_demo_1_contains_trace(capsys, monkeypatch):
    _, out, _ = run_cli(["demo", "--example", "1"], capsys, monkeypatch)
    assert "key=R_2 e1=66 e2=37 x=9" in out


def test_demo_reports_a_wrong_pinned_value_and_exits_1(capsys, monkeypatch):
    from qblock import demo

    wrong = demo.EXAMPLE_1._replace(e1=(67, 200, 65, 108))
    monkeypatch.setitem(demo.DEMO_EXAMPLES, 1, wrong)
    code, out, err = run_cli(["demo", "--example", "1"], capsys, monkeypatch)
    assert (code, err) == (1, "")
    assert out.endswith(
        "verification: FAILED\n"
        "  e1: computed (66, 200, 65, 108) != pinned (67, 200, 65, 108)\n"
    )
    assert "verification: OK" not in out


@pytest.mark.parametrize(
    "scheme,strategy,options,counts",
    [
        ("lucas", "perturb-d", ["--seed", "3", "--magnitude", "5"], "detected="),
        # swap-rows exchanges two rows that differ, and each still solves
        ("mine", "swap-rows", [], "detected=0 miscorrected=20 "),
    ],
    ids=["perturb-d", "swap-rows"],
)
def test_harness_summary_and_csv(scheme, strategy, options, counts, tmp_path, capsys,
                                 monkeypatch):
    csv_file = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        [
            "harness",
            "--scheme", scheme,
            "--strategy", strategy,
            "--trials", "20",
            *options,
            "--csv", str(csv_file),
        ],
        capsys,
        monkeypatch,
    )
    assert code == 0
    assert f"trials=20 {counts}" in out
    lines = csv_file.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "trial,strategy,outcome"
    assert len(lines) == 21
    assert lines[1].startswith(f"0,{strategy},")


def test_harness_deterministic(capsys, monkeypatch):
    argv = ["harness", "--scheme", "mine", "--strategy", "swap-rows",
            "--trials", "15", "--seed", "9", "--message", golden.EX2_MESSAGE]
    _, out1, _ = run_cli(argv, capsys, monkeypatch)
    _, out2, _ = run_cli(argv, capsys, monkeypatch)
    assert out1 == out2


def test_harness_defaults_are_pinned(capsys, monkeypatch):
    # --seed, --magnitude, --trials and --message as the parser defaults them
    argv = ["harness", "--scheme", "mine", "--strategy", "perturb-kept"]
    assert run_cli(argv, capsys, monkeypatch) == (
        0,
        "scheme=mine strategy=perturb-kept seed=0 magnitude=1 trials=100 "
        "detected=64 miscorrected=36 undetected_equal=0\n",
        "",
    )


@pytest.mark.parametrize(
    "scheme,strategy,counts",
    [
        ("lucas", "perturb-d", "detected=1847 miscorrected=153"),
        ("lucas", "perturb-kept", "detected=1756 miscorrected=244"),
        ("lucas", "swap-rows", "detected=0 miscorrected=2000"),
        ("mine", "perturb-d", "detected=1840 miscorrected=160"),
        ("mine", "perturb-kept", "detected=1747 miscorrected=253"),
        ("mine", "swap-rows", "detected=0 miscorrected=2000"),
    ],
)
def test_harness_counts_on_a_dim_32_message_are_pinned(scheme, strategy, counts, capsys,
                                                       monkeypatch):
    argv = ["harness", "--scheme", scheme, "--strategy", strategy, "--magnitude", "60",
            "--trials", "2000", "--seed", "0", "--message", "HELLO THERE! " * 78]
    assert run_cli(argv, capsys, monkeypatch) == (
        0,
        f"scheme={scheme} strategy={strategy} seed=0 magnitude=60 trials=2000 "
        f"{counts} undetected_equal=0\n",
        "",
    )
