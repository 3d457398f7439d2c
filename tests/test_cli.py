"""The command-line surface: subcommands, exit codes, determinism."""

import json

import pytest

from qrmirror.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_then_verify(tmp_path, capsys):
    out = tmp_path / "x.pbm"
    code, _, _ = run(capsys, "encode", "HELLO", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "'HELLO'" in stdout


def test_encode_empty_message(tmp_path, capsys):
    out = tmp_path / "empty.pbm"
    code, _, _ = run(capsys, "encode", "", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out), "--json")
    assert code == 0
    assert json.loads(stdout)["text"] == ""


def test_mirror_and_verify_expectations(tmp_path, capsys):
    out = tmp_path / "hb.pbm"
    report = tmp_path / "hb.json"
    code, _, _ = run(capsys, "mirror", "HARRY", "BOVIK", "-o", str(out),
                     "--report", str(report))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out),
                          "--expect-a", "HARRY", "--expect-b", "BOVIK")
    assert code == 0
    assert "'HARRY'" in stdout and "'BOVIK'" in stdout
    data = json.loads(report.read_text())
    assert data["method"] == "analytic"


def test_verify_mismatch_exits_1_with_stage(tmp_path, capsys):
    out = tmp_path / "hb.pbm"
    run(capsys, "mirror", "HARRY", "BOVIK", "-o", str(out))
    code, _, err = run(capsys, "verify", str(out),
                       "--expect-a", "HARRY", "--expect-b", "WRONG", "--json")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "decode mismatch"


def test_mirror_infeasible_exits_1_with_diagnostic(tmp_path, capsys):
    code, _, err = run(capsys, "mirror", "ABCDEFGHIJKL", "MNOPQRSTUVWX",
                       "--method", "analytic", "-o", str(tmp_path / "x.pbm"))
    assert code == 1
    assert "system infeasible" in err


def test_mirror_brute_budget_exhausted(tmp_path, capsys):
    code, _, err = run(capsys, "mirror", "AA", "BB", "--method", "brute",
                       "--trials", "50", "-o", str(tmp_path / "x.pbm"))
    assert code == 1
    assert "RS budget" in err


def test_usage_error_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "mirror", "ONLYONE", "-o", str(tmp_path / "x.pbm"))
    assert code == 2
    code, _, _ = run(capsys, "unknown-command")
    assert code == 2
    for command in (("encode", "HELLO"), ("mirror", "HARRY", "BOVIK")):
        for option, value in (("--scale", "0"), ("--quiet", "-1")):
            code, _, err = run(capsys, *command, option, value,
                               "-o", str(tmp_path / "x.pbm"))
            assert code == 2
            assert option in err


def test_flipgraph_dot_output(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, _, _ = run(capsys, "flipgraph", "--domain", "grid", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph flip_grid {")
    assert text.count('label="') >= 32


def test_inspect_output(tmp_path, capsys):
    out = tmp_path / "hb.pbm"
    run(capsys, "mirror", "HARRY", "BOVIK", "-o", str(out))
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    assert "[straight]" in stdout and "[mirrored]" in stdout
    assert "level L, mask 3" in stdout
    assert "zones:" in stdout


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    outputs = []
    reports = []
    for i in (1, 2):
        out = tmp_path / f"run{i}.pbm"
        rep = tmp_path / f"run{i}.json"
        code, _, _ = run(capsys, "mirror", "HELLO", "WORLD", "--seed", "7",
                         "-o", str(out), "--report", str(rep))
        assert code == 0
        outputs.append(out.read_bytes())
        reports.append(rep.read_text())
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.pbm"))
    assert code == 1
    assert "input" in err or "No such file" in err


def test_malformed_pbm_fails_at_input_stage(tmp_path, capsys):
    for i, data in enumerate((b"P1\n21 21\n# qrmirror scale=x quiet=0\n" + b"0" * 441,
                              b"P1\n0 0\n# qrmirror scale=0 quiet=0\n")):
        path = tmp_path / f"bad{i}.pbm"
        path.write_bytes(data)
        code, _, err = run(capsys, "verify", str(path), "--json")
        assert code == 1
        assert json.loads(err)["error"] == "input"
