"""The command-line surface: subcommands, exit codes, determinism."""

import json

import pytest

from qrmirror import codec, encoder, render
from qrmirror.cli import main
from qrmirror.formatinfo import FormatWord, select_mirror_format
from qrmirror.grid import overlap_partition
from qrmirror.masks import data_mask


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
    for method in (("--method", "analytic"), ()):
        code, _, err = run(capsys, "mirror", "ABCDEFGHIJKL", "MNOPQRSTUVWX",
                           *method, "-o", str(tmp_path / "x.pbm"))
        assert code == 1
        assert err.count("system infeasible") == 1
        assert err.startswith("error (system infeasible): no solvable system")


def test_mirror_brute_budget_exhausted(tmp_path, capsys):
    code, _, err = run(capsys, "mirror", "AA", "BB", "--method", "brute",
                       "--trials", "50", "-o", str(tmp_path / "x.pbm"))
    assert code == 1
    assert err.count("RS budget") == 1
    assert err.startswith("error (RS budget): brute force exhausted 50 trials")


def test_decode_failures_name_the_stage_once(tmp_path, capsys):
    # an ordinary code: its mirrored side fails at format
    single = tmp_path / "single.pbm"
    single.write_bytes(render.to_pbm(encoder.encode_single("HELLO").transposed(), 1, 4))
    code, _, err = run(capsys, "verify", str(single))
    assert code == 1
    assert err == "error (format): neither format copy decodes within 3 bits\n"
    code, _, err = run(capsys, "verify", str(single), "--json")
    assert code == 1
    assert json.loads(err) == {"error": "format",
                               "message": "neither format copy decodes within 3 bits"}
    code, stdout, _ = run(capsys, "inspect", str(single))
    assert code == 0
    assert "  decode failed at format: neither format copy decodes within 3 bits\n" in stdout
    assert stdout.count("format:") == 1


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
    for option, value in (("--seed", "-1"), ("--trials", "0"), ("--trials", "-5")):
        code, _, err = run(capsys, "mirror", "A", "B", "--method", "brute",
                           option, value, "-o", str(tmp_path / "x.pbm"))
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
    # data cells equal to the mask: both sides read the terminator first
    blank = tmp_path / "blank.pbm"
    blank.write_bytes(render.to_pbm(
        encoder.materialize(data_mask(3), select_mirror_format().witness), 1, 4))
    # an ordinary code: the mirrored side fails at format, so zones are skipped
    single = tmp_path / "single.pbm"
    single.write_bytes(render.to_pbm(encoder.encode_single("HELLO"), 1, 4))
    for path, mask, zones in ((out, 3, "zones: {"), (blank, 3, "zones: {"),
                              (single, 0, "zones: skipped")):
        code, stdout, _ = run(capsys, "inspect", str(path))
        assert code == 0
        assert "[straight]" in stdout and "[mirrored]" in stdout
        assert f"level L, mask {mask}" in stdout
        assert zones in stdout


def test_inspect_zones_are_the_constructions(tmp_path, capsys):
    out = tmp_path / "hb.pbm"
    run(capsys, "mirror", "HARRY", "BOVIK", "-o", str(out))
    code, stdout, _ = run(capsys, "inspect", str(out))
    assert code == 0
    # the construction pins each message's segment and its 4-bit terminator
    part = overlap_partition(*(len(codec.encode_segment(m)) + 4 for m in ("HARRY", "BOVIK")))
    sizes = {label: len(cells) for label, cells in sorted(part.zones.items())}
    assert f"zones: {sizes}" in stdout
    assert f"conflict bytes straight: {list(part.conflict_bytes_a())}" in stdout
    assert f"conflict bytes mirrored: {list(part.conflict_bytes_b())}" in stdout
    assert "conflict bytes straight: [0, 2, 3, 5, 19, 21]" in stdout
    assert sizes["a"] == 10


@pytest.mark.parametrize("level", ["M", "Q", "H"])
def test_verify_rejects_levels_other_than_l(tmp_path, capsys, level):
    path = tmp_path / f"{level}.pbm"
    grid = encoder.materialize(encoder.standard_physical_bits("HELLO", "auto", 2),
                               FormatWord(level, 2).on_grid)
    path.write_bytes(render.to_pbm(grid, 1, 4))
    code, stdout, err = run(capsys, "verify", str(path))
    assert (code, stdout) == (1, "")
    assert err == f"error (format): level {level} is not supported, only L\n"
    code, _, err = run(capsys, "verify", str(path), "--json")
    assert code == 1 and json.loads(err)["error"] == "format"


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


def test_unwritable_output_fails_at_output_stage(tmp_path, capsys):
    missing = tmp_path / "missing"
    for argv in (("encode", "A", "-o", str(missing / "x.pbm")),
                 ("mirror", "A", "B", "-o", str(missing / "x.pbm")),
                 ("mirror", "A", "B", "-o", str(tmp_path / "x.pbm"),
                  "--report", str(missing / "r.json")),
                 ("flipgraph", "--dot", str(missing / "g.dot"))):
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error (output): "), argv
    assert not (tmp_path / "x.pbm").exists()


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
