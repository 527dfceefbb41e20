"""End-to-end CLI tests through main(argv)."""

import ast
import hashlib
import math
import os
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import brute
from insrecon import balls, cli, codes
from insrecon.balls import read_coverage
from insrecon.cli import main
from insrecon.codes import build_np4_code, read_code_file
from insrecon.seqs import BitSeq, count_r


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


@pytest.mark.parametrize(
    "flag, value, message",
    (("--trials", "-3", "trials must be >= 0"), ("--N", "-1", "reads must be >= 0")),
)
def test_simulate_negative_counts_are_one_error_line(tmp_path, capsys, flag, value, message):
    path = str(tmp_path / "vt5.code")
    run(capsys, "build", "vt", "--n", "5", "--a", "0", "--out", path)
    counts = {"--N": "1", "--trials": "2", flag: value}
    argv = [x for item in counts.items() for x in item]
    code, out, err = run(capsys, "simulate", path, "--t", "1", *argv, "--seed", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_seeded_records_are_pinned(tmp_path, capsys):
    # sha256 of the stdout taken when reads were drawn from BitSeq lists and
    # decoded by intersecting every read's deletion ball
    path = str(tmp_path / "vt10.code")
    run(capsys, "build", "vt", "--n", "10", "--a", "0", "--out", path)
    code, out, _ = run(capsys, "simulate", path, "--t", "2", "--N", "2", "--trials", "300",
                       "--seed", "5", "--format", "records")
    assert code == 0
    assert " ambiguous=20 " in out.splitlines()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "934c0e8bd44eb9cfdfbde51c649f01e5cc5c35c4ccbd82e83272349c58f45778"
    )


@pytest.mark.parametrize(
    "build, t, reads, trials, seed, head, digest",
    [
        # read-heavy: N = n + 5 reads of a 190-word np5 code
        (("np5", "--n", "12", "--best", "--P", "9"), "2", "17", "200", "3", " unique=200 ",
         "e50302e79e5291abae6ee0d158ddeb77f2041815d80ed67472e1be358a34a1b6"),
        # one insertion, two reads of the whole space: a third of the trials are ambiguous
        (("all", "--n", "7"), "1", "2", "300", "4", " ambiguous=101 ",
         "5f969b4d758733ef1c553b98329ef31e803a7c2392a79233a3443f0d6701adb5"),
    ],
)
def test_simulate_read_heavy_and_one_insertion_records_are_pinned(
    tmp_path, capsys, build, t, reads, trials, seed, head, digest
):
    # sha256 of the stdout taken when each trial was drawn and decoded on its own
    path = str(tmp_path / "pinned.code")
    run(capsys, "build", *build, "--out", path)
    code, out, _ = run(capsys, "simulate", path, "--t", t, "--N", reads, "--trials", trials,
                       "--seed", seed, "--format", "records")
    assert code == 0
    assert head in out.splitlines()[0]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (("ball", "0", "--t", "40"), "insertion ball of 2199023255551 words exceeds cap 2**26"),
        (("ball", "0", "--t", "-2"), "t must be >= 0"),
        (("coverage", "{code}", "--t", "60"),
         "insertion ball of 73786976294828500844 words exceeds cap 2**26"),
        (("coverage", "{code}", "--t", "-2"), "t must be >= 0"),
        (("verify", "{code}", "--t", "60", "--N", "5"),
         "insertion ball of 73786976294828500844 words exceeds cap 2**26"),
        (("simulate", "{code}", "--t", "50", "--N", "2", "--trials", "3", "--seed", "1"),
         "insertion ball of 72057594033711513 words exceeds cap 2**26"),
        (("simulate", "{code}", "--t", "-1", "--N", "2", "--trials", "3", "--seed", "1"),
         "t must be >= 0"),
        (("verify", "{code}", "--t", "-2", "--N", "5"), "t must be >= 0"),
    ],
)
def test_oversized_or_negative_t_is_one_error_line(tmp_path, capsys, argv, message):
    # refused from the closed-form ball size, before any table is allocated
    path = str(tmp_path / "vt6.code")
    run(capsys, "build", "vt", "--n", "6", "--a", "0", "--out", path)
    code, out, err = run(capsys, *(arg.format(code=path) for arg in argv))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [("verify", "{code}", "--t", "100000", "--N", "5"),
                                  ("coverage", "{code}", "--t", "100000")])
def test_huge_t_is_refused_without_summing_binomials(tmp_path, capsys, argv):
    # |I_t| >= 2^t and nplus_formula(n, t) >= 2^t - 1: neither sum over t
    # terms, whose cost grows about as t^2.7, is needed to refuse the ball
    path = str(tmp_path / "vt8.code")
    run(capsys, "build", "vt", "--n", "8", "--a", "0", "--out", path)

    def small_t_only(formula):
        def guarded(n, t):
            assert t <= 64, f"{formula.__name__} summed {t + 1} terms"
            return formula(n, t)
        return guarded

    with mock.patch.object(balls, "ball_size_formula", small_t_only(balls.ball_size_formula)), \
            mock.patch.object(balls, "nplus_formula", small_t_only(balls.nplus_formula)):
        code, out, err = run(capsys, *(arg.format(code=path) for arg in argv))
    assert (code, out) == (1, "")
    assert err == "error: insertion ball of at least 2**100000 words exceeds cap 2**26\n"


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


@pytest.mark.parametrize("n_range", ["3", "a:b", "1:x", ":"])
def test_table_n_range_not_two_integers_is_one_error_line(capsys, n_range):
    assert run(capsys, "table", "--n-range", n_range) == (
        1, "", "error: --n-range must look like LO:HI\n")


def test_table_rejects_other_t(capsys):
    code, _, err = run(capsys, "table", "--n-range", "8:9", "--t", "3")
    assert code == 1 and "--t 2" in err


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


# (family flags, the record they name); each record's coset is nonempty
BUILD_CASES = [
    (("all", "--n", "5"), codes.AllParams(5)),
    (("vt", "--n", "6", "--a", "1"), codes.VTParams(6, 1)),
    (("tworead", "--n", "8", "--P", "3", "--c", "1", "--d", "0"), codes.TwoReadParams(8, 3, 1, 0)),
    (("np4", "--n", "10", "--P", "18", "--c", "12", "--d", "1"), codes.Np4Params(10, 18, 12, 1)),
    (("np5", "--n", "9", "--P", "6", "--c", "3", "--d", "0"), codes.Np5Params(9, 6, 3, 0)),
    (("twoins", "--n", "6", "--avec", "8,21,69,2,11"), codes.TwoInsertionParams(6, 8, 21, 69, 2, 11)),
    (("fiveread", "--n", "23", "--P", "3", "--a", "12", "--avec", "56,510,6670,1,44",
      "--bvec", "0,0,0,0,0"), codes.FiveReadParams(23, 3, 12, (56, 510, 6670, 1, 44), (0,) * 5)),
]


@pytest.mark.parametrize("flags,params", BUILD_CASES, ids=[c[0][0] for c in BUILD_CASES])
def test_build_flags_write_the_build_code_file(tmp_path, capsys, flags, params):
    path, want = tmp_path / "cli.code", tmp_path / "lib.code"
    code, out, err = run(capsys, "build", *flags, "--out", str(path))
    assert (code, err) == (0, "")
    built = codes.build_code(params)
    assert len(built) > 0 and f"size={len(built)} " in out
    codes.write_code_file(str(want), params, built)
    assert path.read_text() == want.read_text()
    assert read_code_file(str(path)) == (params, built)


@pytest.mark.parametrize(
    "flags,message",
    [
        (("vt", "--n", "4"), "family vt requires --a"),
        (("np4", "--n", "10", "--P", "9", "--d", "0"), "family np4 requires --c"),
        (("twoins", "--n", "6"), "family twoins requires --avec"),
        (("twoins", "--n", "6", "--avec", "1,2"), "twoins needs --avec with 5 residues a1,...,a5"),
        (("fiveread", "--n", "23", "--P", "3", "--a", "0", "--avec", "0,0,0,0,0"),
         "family fiveread requires --bvec"),
    ],
)
def test_build_missing_flag_messages(tmp_path, capsys, flags, message):
    code, out, err = run(capsys, "build", *flags, "--out", str(tmp_path / "x"))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", (("vt", "--a", "0"),
                                   ("tworead", "--P", "3", "--c", "0", "--d", "0"),
                                   ("np5", "--P", "9", "--c", "0", "--d", "0"),
                                   ("all",)), ids=lambda flags: flags[0])
def test_build_negative_length_is_one_error_line(tmp_path, capsys, flags):
    code, out, err = run(capsys, "build", *flags, "--n", "-1", "--out", str(tmp_path / "x"))
    assert (code, out, err) == (1, "", "error: length n=-1 must be >= 0\n")


def test_length_zero_code_round_trip(tmp_path, capsys):
    path = str(tmp_path / "empty-word.code")
    code, out, _ = run(capsys, "build", "vt", "--n", "0", "--a", "0", "--out", path,
                       "--format", "records")
    assert code == 0 and " size=1 " in out
    params, loaded = read_code_file(path)
    assert params == codes.VTParams(0, 0) and list(loaded) == [BitSeq("")]
    code, out, _ = run(capsys, "verify", path, "--t", "2", "--N", "1", "--format", "records")
    assert (code, out) == (0, "ok=true vacuous=true t=2 N=1\n")
    code, out, _ = run(capsys, "simulate", path, "--t", "2", "--N", "3", "--trials", "4",
                       "--seed", "1")
    assert code == 0 and "unique=4 " in out and "correct=4 " in out


@pytest.mark.parametrize(
    "text,message",
    [
        # VT syndromes 4 and 3, not 0
        ("# family=vt n=4 params=a=0\n0010\n0001\n",
         "codeword 0001 is not in the code of its header: family=vt n=4 params=a=0"),
        # 1111 has the right residues but a run longer than R(4, 2, 2) allows
        ("# family=tworead n=4 params=P=1,c=0,d=0\n0110\n1111\n",
         "codeword 1111 is not in the code of its header: family=tworead n=4 params=P=1,c=0,d=0"),
        ("# family=vt n=70 params=a=0\n" + "0" * 70 + "\n", "code length 70 out of range 0..64"),
        ("# family=tworead n=-1 params=P=1,c=0,d=0\n", "code length -1 out of range 0..64"),
        ("# family=fiveread n=40 params=P=5,a=0,avec=0|0|0|0|0,bvec=0|0|0|0|0\n" + "01" * 20 + "\n",
         "padded length 72 exceeds MAX_LEN"),
        ("# family=vt n=3 params=a=0,zz=5\n000\n", "code file header has an unknown entry 'zz=5'"),
        ("# family=vt n=3 params=a=1,a=0\n000\n", "code file header has a repeated entry 'a=0'"),
        ("# family=vt n=3 params=a=x\n000\n", "code file header field 'a' has a non-integer value 'x'"),
        ("# family=vt n=3 params=a\n000\n", "code file header field 'a' has a non-integer value ''"),
        ("# family=vt n=3 n=4 params=a=0\n000\n", "code file header has a repeated entry 'n=4'"),
        ("# family=vt n=4 params=a=0 junk=1\n0000\n", "code file header has an unknown entry 'junk=1'"),
    ],
)
@pytest.mark.parametrize("command", ("verify", "simulate", "coverage"))
def test_header_body_mismatch_is_one_error_line(tmp_path, capsys, text, message, command):
    path = tmp_path / "bad.code"
    path.write_text(text)
    extra = {"verify": ("--N", "3"), "simulate": ("--N", "3", "--trials", "1", "--seed", "1"),
             "coverage": ()}[command]
    code, out, err = run(capsys, command, str(path), "--t", "1", *extra)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_twoins_header_over_an_m0_variant_coset_is_one_error_line(tmp_path, capsys):
    """twoins codes take the m1 weights: a coset of the whole-sequence checks
    with the m0 weights, listed under a twoins header of its residues, fails
    the load check at its first word with other m1 residues."""
    n = 8
    cosets = {}
    for v in range(1 << n):
        x = BitSeq.from_int(v, n)
        cosets.setdefault(codes.parity_checks(x, "m0").residues(), []).append(x)
    residues, words = max(cosets.items(), key=lambda item: len(item[1]))
    wrong = [w for w in words if codes.parity_checks(w).residues() != residues]
    assert len(words) > 1 and wrong
    header = codes.format_header(codes.TwoInsertionParams(n, *residues))
    path = tmp_path / "m0.code"
    path.write_text(header + "\n" + "".join(f"{w}\n" for w in words))
    code, out, err = run(capsys, "verify", str(path), "--t", "2", "--N", "3")
    assert (code, out) == (1, "")
    assert err == f"error: codeword {wrong[0]} is not in the code of its header: {header[2:]}\n"


def test_table_above_enumeration_cap_counts_all_but_twoins(capsys):
    """At n = 27 the counted rows are exact: all is 2^27 words, vt's best
    coset is |VT_0(27)| by the closed form, the largest of the VT cosets, and
    the best tworead and np4 cosets (P = 9, 20 cosets) hold at least a
    twentieth of count_r's ambient set; only twoins, which enumerates its
    words, reads unavailable."""
    code, out, err = run(capsys, "table", "--n-range=27:27", "--format", "records")
    assert (code, err) == (0, "")
    rows = [dict(item.split("=", 1) for item in r.split(" ", 6)) for r in out.splitlines()]
    assert [r["family"] for r in rows] == ["all", "tworead", "np4", "vt", "twoins"]
    sizes = {r["family"]: r["size"] for r in rows}
    vt = [brute.vt_coset_size(27, a) for a in range(28)]
    assert (sizes["all"], sizes["vt"]) == (str(2**27), str(vt[0])) and vt[0] == max(vt)
    for family, r in (("tworead", (2, 18)), ("np4", (3, 3))):
        ambient = count_r(27, *r)
        assert -(-ambient // 20) <= int(sizes[family]) <= ambient, family
    for row in rows[:4]:
        assert row["redundancy"] == f"{27 - math.log2(int(row['size'])):.3f}", row
    assert rows[4]["pigeonhole"] == "unavailable: 2**27 enumeration exceeds cap n <= 26"


@pytest.mark.parametrize("flags,n", (pytest.param(("vt",), 27, id="vt"),
                                     pytest.param(("np5", "--P", "9"), 27, id="np5"),
                                     pytest.param(("np4", "--P", "30"), 64, id="np4-64")))
def test_build_best_above_enumeration_cap_is_one_error_line(tmp_path, capsys, flags, n):
    """The sweep could count the cosets above n = 26, but their members are
    enumerated, so the build refuses them before any count and writes no
    file."""
    path = tmp_path / "x"
    with mock.patch.object(codes.seqs, "_walk_counts", side_effect=AssertionError("_walk_counts")):
        code, out, err = run(capsys, "build", *flags, "--best", "--n", str(n), "--out", str(path))
    assert (code, out, err) == (1, "", f"error: 2**{n} enumeration exceeds cap n <= 26\n")
    assert not path.exists()


def test_table_past_the_cell_cap_reads_unavailable(capsys):
    """At P = 99999 the tworead and np4 grids alone hold 2 * 100000**2 cells,
    so those rows read the cell cap's text; the other rows ignore P."""
    code, out, err = run(capsys, "table", "--n-range=20:20", "--P", "99999", "--format", "records")
    assert (code, err) == (0, "")
    rows = [dict(item.split("=", 1) for item in r.split(" ", 6)) for r in out.splitlines()]
    assert [r["family"] for r in rows] == ["all", "tworead", "np4", "vt", "twoins"]
    refused = "unavailable: cell automaton of 20000000000 cells exceeds cap 2**26"
    assert [r["pigeonhole"] == refused for r in rows] == [False, True, True, False, False]
    assert (rows[0]["size"], rows[3]["size"]) == (str(2**20), str(brute.vt_coset_size(20, 0)))


@pytest.mark.parametrize("flags,cells", (
    pytest.param(("tworead", "--n", "10", "--P", "3000"), 432270035998, id="tworead-3000"),
    pytest.param(("np5", "--n", "26", "--P", "900000000"), 1620000003600000002, id="np5-900000000"),
    pytest.param(("np5", "--n", "10", "--P", "300"), 144780398, id="np5-300")))
def test_build_best_past_the_cell_cap_is_one_error_line(tmp_path, capsys, flags, cells):
    """More than 2**26 cells (grid entries x ambient states) are refused
    before the cell automaton is allocated; no file is written."""
    path = tmp_path / "x"
    code, out, err = run(capsys, "build", *flags, "--best", "--out", str(path))
    assert (code, out, err) == (1, "", f"error: cell automaton of {cells} cells exceeds cap 2**26\n")
    assert not path.exists()


def test_table_negative_length_reads_unavailable(capsys):
    code, out, err = run(capsys, "table", "--n-range=-1:-1", "--format", "records")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert len(rows) == 5 and "shift" not in out
    assert sum(r.endswith("unavailable: length n=-1 must be >= 0") for r in rows) == 4
    assert rows[2].endswith("unavailable: np4 requires n >= 4")


# sha256 of the table records at n = -1..14 per --P, taken when each record
# wrote its own range checks; these rows reach every unavailable: text of the
# record and sweep checks
TABLE_DIGESTS = {
    "0": "676776334a6957cd0db3ab57524588a556f8420f4a0fc913796e140a7bcdcd19",
    "1": "fdb430ed11fe53c9be078c4f21992d73c8eb741c9c51aefe24bbd523b571ae84",
    "3": "126b4ce3d4ff66dc9f0982726d2295728956be85acccba9d06470ff1ee0c4fc1",
    "6": "add0d035a7eb1c4a10d7476a706631a7e7ae710e6f3a25f0a17003ce3dac11f8",
    "9": "92d1adb869c8d271f508e77d5057d6c5a9d64ed5022c56852970f0d54300b947",
    "18": "4c6b1c71e74bd97ad7fcc7cc2c289bf4ee526bd878006c1605736c15170dd575",
}


@pytest.mark.parametrize("P", TABLE_DIGESTS)
def test_table_records_are_pinned(capsys, P):
    code, out, err = run(capsys, "table", "--n-range=-1:14", "--P", P, "--format", "records")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[P]


headers = st.builds(
    lambda family, n, params: f"# family={family} n={n} params={params}",
    st.sampled_from(sorted(codes.FAMILIES) + ["bogus"]),
    st.sampled_from(["0", "1", "3", "4", "9", "23", "-1", "70", "x"]),
    st.lists(st.sampled_from(["a=0", "a=1", "P=1", "P=3", "P=9", "c=0", "d=1", "a1=0", "a2=0",
                              "a3=0", "a4=0", "a5=0", "avec=0|0|0|0|0", "bvec=0|0|0|0|0",
                              "c=x", "a=-1"]), max_size=8).map(",".join),
)
bodies = st.lists(st.one_of(st.text("01", max_size=10), st.sampled_from(["", " ", "2", "0 1"])),
                  max_size=6).map(lambda lines: "".join(ln + "\n" for ln in lines))


@given(header=st.one_of(headers, st.just("")), body=bodies,
       command=st.sampled_from(["verify", "coverage", "simulate"]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_code_file_fuzz_exits_zero_or_one_error_line(capsys, header, body, command):
    fd, path = tempfile.mkstemp(suffix=".code")
    with os.fdopen(fd, "w") as fh:
        fh.write(header + ("\n" if header else "") + body)
    extra = {"verify": ("--N", "3"), "simulate": ("--N", "1", "--trials", "2", "--seed", "1"),
             "coverage": ()}[command]
    try:
        code, out, err = run(capsys, command, path, "--t", "1", *extra)
    finally:
        os.unlink(path)
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_reaches_no_private_helper():
    """The CLI is a thin adapter: it reads no ``_name`` of an insrecon module
    and imports none."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {"insrecon"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("insrecon")):
            assert not [a.name for a in node.names if a.name.startswith("_")], ast.dump(node)
            if node.level and node.module is None:  # from . import balls, codes
                modules |= {a.asname or a.name for a in node.names}
    private = [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []
