"""End-to-end CLI tests through main(argv)."""

import pytest

from insrecon.balls import read_coverage
from insrecon.cli import main
from insrecon.codes import build_np4_code, read_code_file
from insrecon.seqs import BitSeq


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ball_listing(capsys):
    code, out, _ = run(capsys, "ball", "10", "--t", "1")
    assert code == 0
    assert out == "010\n100\n101\n110\n"


def test_ball_t0_and_size_only(capsys):
    code, out, _ = run(capsys, "ball", "10", "--t", "0")
    assert (code, out) == (0, "10\n")
    code, out, _ = run(capsys, "ball", "10", "--t", "1", "--size-only")
    assert (code, out) == (0, "4\n")


def test_ball_nonbinary_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ball", "102", "--t", "1"])
    assert exc.value.code != 0


def test_classify_neither(capsys):
    code, out, _ = run(capsys, "classify", "0011", "1110")
    assert code == 0
    lines = out.splitlines()
    assert "kind=neither" in lines
    assert "i1=0" in lines
    assert any(ln.startswith("i2_class=<=6") for ln in lines)


def test_classify_verify(capsys):
    code, out, _ = run(capsys, "classify", "111010", "110110", "--verify")
    assert code == 0
    lines = out.splitlines()
    assert "kind=type-a-only" in lines
    assert "i1_actual=2" in lines
    assert "i2_actual=16" in lines
    assert any(ln.startswith("typeA_u=11 ") for ln in lines)


def test_classify_equal_inputs_fail(capsys):
    code, out, err = run(capsys, "classify", "0101", "0101")
    assert code == 1
    assert err.startswith("error:")


def test_window_command(capsys):
    code, out, _ = run(capsys, "window", "1", "1", "1", "--verify")
    lines = out.splitlines()
    assert code == 0
    assert "offset=5" in lines
    assert "matched_form=alt-family-1" in lines
    assert "size_actual=9" in lines


def test_window_command_empty_v(capsys):
    code, out, _ = run(capsys, "window", "1", "0")
    assert code == 0
    assert "offset=5" in out.splitlines()


def test_window_command_rejects_degenerate(capsys):
    code, _, err = run(capsys, "window", "1", "1", "10")
    assert code == 1
    assert "degenerate" in err


def test_build_and_verify_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "vt.code")
    code, out, _ = run(capsys, "build", "vt", "--n", "4", "--a", "0", "--out", path)
    assert code == 0 and "size=4" in out
    params, loaded = read_code_file(path)
    assert len(loaded) == 4
    assert params.family == "vt"

    code, out, _ = run(capsys, "verify", path, "--t", "1", "--N", "1")
    assert code == 0 and "yes" in out


def test_verify_full_space_is_not_reconstruction_code(tmp_path, capsys):
    path = str(tmp_path / "all6.code")
    run(capsys, "build", "all", "--n", "6", "--out", path)
    code, out, _ = run(capsys, "verify", path, "--t", "2", "--N", "16")
    assert code == 0
    assert "no" in out
    code, out, _ = run(capsys, "verify", path, "--t", "2", "--N", "17", "--format", "records")
    assert out.strip() == "ok=true vacuous=false t=2 N=17"


def test_coverage_matches_library(tmp_path, capsys):
    path = str(tmp_path / "np4.code")
    run(capsys, "build", "np4", "--n", "12", "--P", "9", "--best", "--out", path)
    _, loaded = read_code_file(path)
    code, out, _ = run(capsys, "coverage", path, "--t", "2", "--format", "records")
    if len(loaded) >= 2:
        assert code == 0
        want = read_coverage(loaded, 2)
        assert out.startswith(f"coverage={want} ")
        assert want <= 12 + 3
    else:
        assert code == 1


def test_build_missing_flags(tmp_path, capsys):
    code, out, err = run(capsys, "build", "vt", "--n", "4", "--out", str(tmp_path / "x"))
    assert code == 1
    assert "requires --a" in err


def test_build_best_tworead(tmp_path, capsys):
    path = str(tmp_path / "c1.code")
    code, out, _ = run(
        capsys, "build", "tworead", "--n", "8", "--P", "3", "--best", "--out", path
    )
    assert code == 0
    params, loaded = read_code_file(path)
    assert len(loaded) >= 1


def test_simulate_unique_when_reads_exceed_coverage(tmp_path, capsys):
    path = str(tmp_path / "vt7.code")
    run(capsys, "build", "vt", "--n", "7", "--a", "0", "--out", path)
    code, out, _ = run(
        capsys, "simulate", path, "--t", "1", "--N", "3", "--trials", "25", "--seed", "5"
    )
    assert code == 0
    assert "unique_rate=1.000000" in out
    assert "correct=25" in out


def test_simulate_deterministic_and_rows(tmp_path, capsys):
    path = str(tmp_path / "vt6.code")
    run(capsys, "build", "vt", "--n", "6", "--a", "1", "--out", path)
    args = ("simulate", path, "--t", "2", "--N", "2", "--trials", "10", "--seed", "99",
            "--format", "records")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    rows = [ln for ln in out1.splitlines() if ln.startswith("trial=")]
    assert len(rows) == 10
    assert all("status=" in r and "n_candidates=" in r for r in rows)


def test_simulate_zero_trials(tmp_path, capsys):
    path = str(tmp_path / "vt5.code")
    run(capsys, "build", "vt", "--n", "5", "--a", "0", "--out", path)
    code, out, _ = run(
        capsys, "simulate", path, "--t", "1", "--N", "1", "--trials", "0", "--seed", "1"
    )
    assert code == 0
    assert out.startswith("trials=0 ")
    assert "unique_rate" not in out


def test_table_five_regimes(capsys):
    code, out, _ = run(capsys, "table", "--n-range", "10:10", "--format", "records")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 5
    assert rows[0].startswith("n=10 N_range=>24 family=all")
    assert "family=tworead" in rows[1]
    assert "family=np4" in rows[2]
    assert "family=vt" in rows[3]
    assert "family=twoins" in rows[4]
    assert all("redundancy=" in r for r in rows)


def test_table_empty_range_header_only(capsys):
    code, out, _ = run(capsys, "table", "--n-range", "9:8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].split()[0] == "n"


def test_table_rejects_other_t(capsys):
    code, _, err = run(capsys, "table", "--n-range", "8:9", "--t", "3")
    assert code == 1 and "t 2" in err or "--t 2" in err


def test_enumeration_cap_refusal(tmp_path, capsys):
    code, _, err = run(
        capsys, "build", "vt", "--n", "30", "--a", "0", "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize(
    "header,field",
    [
        ("# family=vt n=4 params=", "'a'"),
        ("# family=vt params=a=0", "'n'"),
        ("# family=np4 n=4 params=P=9,c=0", "'d'"),
        ("# family=twoins n=4 params=a1=0,a2=0,a3=0,a4=0", "'a5'"),
        ("# family=fiveread n=23 params=P=3,a=0,avec=0|0|0|0|0", "'bvec'"),
    ],
)
@pytest.mark.parametrize("command", ("verify", "simulate", "coverage"))
def test_header_missing_field_is_one_error_line(tmp_path, capsys, header, field, command):
    path = tmp_path / "bad.code"
    path.write_text(header + "\n" + "0" * 4 + "\n")
    extra = {"verify": ("--N", "3"), "simulate": ("--N", "3", "--trials", "1", "--seed", "1"),
             "coverage": ()}[command]
    code, out, err = run(capsys, command, str(path), "--t", "1", *extra)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "missing field" in lines[0] and field in lines[0]


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["ball", "10", "--t", "1", "--bogus"])
    assert exc.value.code != 0
