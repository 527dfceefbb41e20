"""Construction, syndrome, coset-search, and code-file tests."""

import contextlib
import dataclasses
import math
import os
import random
import re
import tempfile
import threading
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from insrecon import balls, codes, seqs
from insrecon.balls import (
    SeqSet,
    coverage_argmax,
    deletion_ball,
    insertion_ball,
    intersect_balls,
    read_coverage,
)
from insrecon.codes import (
    AllParams,
    FiveReadParams,
    Np4Params,
    Np5Params,
    ParityVector,
    TwoInsertionParams,
    TwoReadParams,
    VTParams,
    best_coset,
    coset_partition,
    five_read_syndrome,
    format_header,
    parity_checks,
    parse_header,
    read_code_file,
    redundancy,
    segment_checks,
    tilde_sums,
    two_insertion_syndrome,
    verify_reconstruction_code,
    vt_syndrome,
    weight_vectors,
    write_code_file,
)
from insrecon.confusability import classify_pair
from insrecon.seqs import BitSeq, count_r, in_r, inversions, r_mask


def seqs_of(code):
    return {str(s) for s in code}


# ---------------------------------------------------------------------------
# parity checks


def test_weight_vectors_closed_forms():
    w = weight_vectors(9)
    assert w.m0 == (1, 2, 3, 4, 5, 6, 7, 8)
    assert w.m1 == (1, 3, 6, 10, 15, 21, 28, 36)
    assert w.m2 == (1, 5, 14, 30, 55, 91, 140, 204)
    for vec in (w.m0, w.m1, w.m2):
        assert all(a < b for a, b in zip(vec, vec[1:]))


def test_parity_checks_zero_sequence():
    pv = parity_checks(BitSeq("0" * 8))
    assert pv.f == (0, 0, 0)
    assert pv.h == (0, 0)
    assert pv.moduli == (16, 64, 512, 3, 16)


@pytest.mark.parametrize("h_second", ("m0", "m1"))
def test_parity_checks_match_direct_dot_products(h_second):
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(2, 20)
        s = "".join(rng.choice("01") for _ in range(n))
        moduli = (2 * n, n * n, n**3, 3, 2 * n)
        f, h = brute.parity_checks(s, moduli, h_second)
        pv = parity_checks(BitSeq(s), h_second)
        assert pv.f == f and pv.h == h


def test_lone_descent_shift_moves_first_check_by_one():
    n = 10
    for p in range(1, n - 1):
        x = BitSeq("1" * p + "0" * (n - p))
        y = BitSeq("1" * (p + 1) + "0" * (n - p - 1))
        fx = parity_checks(x).f[0]
        fy = parity_checks(y).f[0]
        assert (fy - fx) % (2 * n) == 1


def test_parity_vector_record():
    pv = ParityVector((1, 2, 3), (0, 4), (16, 64, 512, 3, 16))
    assert pv.to_record() == "1,2,3,0,4 mod 16,64,512,3,16"
    assert pv.residues() == (1, 2, 3, 0, 4)


def test_parity_checks_rejects_short():
    with pytest.raises(ValueError):
        parity_checks(BitSeq("1"))


# ---------------------------------------------------------------------------
# segment checks and tilde sums


def test_segment_checks_zero_sequence():
    x = BitSeq("0" * 12)
    for k in (0, 1):
        pv = segment_checks(x, k, 4)
        assert pv.residues() == (0, 0, 0, 0, 0)
        assert pv.moduli == (16, 64, 512, 3, 16)


@pytest.mark.parametrize("h_second", ("m0", "m1"))
def test_segment_checks_equal_whole_checks_on_window(h_second):
    # window moduli are the whole-sequence moduli specialized to length 2m
    rng = random.Random(9)
    for _ in range(300):
        m = rng.randint(2, 6)
        s_count = rng.randint(2, 5)
        n = m * s_count
        x = BitSeq.from_int(rng.getrandbits(n), n)
        k = rng.randint(0, s_count - 2)
        window = x.subword(k * m + 1, k * m + 2 * m)
        assert segment_checks(x, k, m, h_second) == parity_checks(window, h_second)


def test_segment_checks_range_errors():
    x = BitSeq("0" * 12)
    with pytest.raises(ValueError):
        segment_checks(x, 2, 4)  # k ranges over 0..s-2
    with pytest.raises(ValueError):
        segment_checks(x, 0, 5)  # 5 does not divide 12


def test_tilde_sums_two_segments_has_zero_odd_part():
    x = BitSeq.from_int(0b101101001011, 12)
    sums = tilde_sums(x, 6)
    assert sums.odd.residues() == (0, 0, 0, 0, 0)
    assert sums.even == segment_checks(x, 0, 6)


def test_tilde_sums_telescope_on_single_window_changes():
    # flip bits inside one window only: the parity-matched sum difference
    # equals that window's check difference, componentwise
    rng = random.Random(21)
    for _ in range(200):
        m = rng.randint(2, 5)
        s_count = rng.randint(3, 6)
        n = m * s_count
        x = BitSeq.from_int(rng.getrandbits(n), n)
        k = rng.randint(0, s_count - 2)
        # flip within the second half of window k so only windows k-1 and k see it
        pos = k * m + m + rng.randint(1, m)
        y = BitSeq.from_int(x.val ^ (1 << (n - pos)), n)
        sx, sy = tilde_sums(x, m), tilde_sums(y, m)
        fx, fy = segment_checks(x, k, m), segment_checks(y, k, m)
        side_x, side_y = (sx.even, sy.even) if k % 2 == 0 else (sx.odd, sy.odd)
        moduli = fx.moduli
        for idx in range(5):
            want = (fx.residues()[idx] - fy.residues()[idx]) % moduli[idx]
            got = (side_x.residues()[idx] - side_y.residues()[idx]) % moduli[idx]
            assert got == want


def test_window_change_touches_exactly_covering_segments():
    # a flip at position p sits in windows k with km < p <= km+2m
    m, s_count = 3, 5
    n = m * s_count
    x = BitSeq.from_int(0, n)
    pos = 8  # inside windows k=1 and k=2 for m=3
    y = BitSeq.from_int(1 << (n - pos), n)
    changed = [
        k
        for k in range(s_count - 1)
        if segment_checks(x, k, m) != segment_checks(y, k, m)
    ]
    assert changed == [1, 2]


# ---------------------------------------------------------------------------
# VT codes


def test_vt_syndrome_examples():
    assert vt_syndrome(BitSeq("0000")) == 0
    assert vt_syndrome(BitSeq("1001")) == 0
    assert vt_syndrome(BitSeq("0100")) == 2
    for s in brute.all_seqs(6):
        assert vt_syndrome(BitSeq(s)) == brute.vt_syndrome(s)


def test_build_vt_example():
    assert seqs_of(VTParams(4, 0).members()) == {"0000", "1001", "0110", "1111"}
    with pytest.raises(ValueError):
        VTParams(4, 5).members()


@pytest.mark.parametrize("n", range(2, 11))
def test_vt_cosets_have_disjoint_deletion_balls(n):
    for a in range(n + 1):
        code = VTParams(n, a).members()
        balls = [deletion_ball(x, 1) for x in code]
        for b1, b2 in combinations(balls, 2):
            assert b1.isdisjoint(b2)


def test_vt_cosets_partition_space():
    n = 10
    total = 0
    seen = set()
    for a in range(n + 1):
        code = VTParams(n, a).members()
        vals = set(code.values())
        assert not (vals & seen)
        seen |= vals
        total += len(code)
    assert total == 2**n


# ---------------------------------------------------------------------------
# inversion-parity codes


def test_two_read_membership_predicates():
    n, P, c, d = 9, 3, 1, 0
    code = TwoReadParams(n, P, c, d).members()
    assert len(code) > 0
    for x in code:
        assert in_r(x, 2, 2 * P)
        assert inversions(x) % (1 + P) == c
        assert x.weight() % 2 == d


@pytest.mark.parametrize("P", (2, 3))
def test_two_read_single_insertion_two_read_property(P):
    # every coset has 1-insertion coverage <= 1, and the cosets tile R(n, 2, 2P)
    for n in range(4, 13):
        total = 0
        for c in range(P + 1):
            for d in (0, 1):
                code = TwoReadParams(n, P, c, d).members()
                total += len(code)
                assert verify_reconstruction_code(code, 1, 2).ok
                if 2 <= len(code) and n <= 9:
                    assert read_coverage(code, 1) <= 1
        assert total == count_r(n, 2, 2 * P)


def test_two_read_large_p_reduces_to_plain_cosets():
    n, P = 8, 12  # 2P >= n so the periodicity constraint is vacuous
    code = TwoReadParams(n, P, 0, 0).members()
    expected = {
        s
        for s in brute.all_seqs(n)
        if brute.inversions(s) % (1 + P) == 0 and s.count("1") % 2 == 0
    }
    assert seqs_of(code) == expected


def test_np4_empty_at_minimum_p():
    # P = 6 forces period-<=3 subwords of length <= 2, impossible for n >= 3
    for n in (4, 6, 10):
        assert len(Np4Params(n, 6, 0, 0).members()) == 0


def test_np4_nonempty_and_members_constrained():
    n, P = 12, 9
    sizes = 0
    for c in range(P + 1):
        for d in (0, 1):
            code = Np4Params(n, P, c, d).members()
            sizes += len(code)
            for x in code:
                assert in_r(x, 3, 3)
    assert sizes == count_r(n, 3, 3) > 0


def test_np4_parameter_validation():
    with pytest.raises(ValueError):
        Np4Params(12, 8, 0, 0).members()  # 3 does not divide 8
    with pytest.raises(ValueError):
        Np4Params(12, 3, 0, 0).members()  # P < 6
    with pytest.raises(ValueError):
        Np4Params(3, 9, 0, 0).members()  # n < 4


def test_np4_member_refuses_lengths_below_4_like_its_record():
    with pytest.raises(ValueError, match=r"^np4 requires n >= 4$"):
        Np4Params(3, 9, 0, 0)
    for word in ("", "0", "010", "111"):
        with pytest.raises(ValueError, match=r"^np4 requires n >= 4$"):
            codes.np4_member(BitSeq(word), 9, 0, 0)
    # an out-of-range residue: each kept predicate refuses it as its record does
    x = BitSeq("010110")
    for member, cls, args, text in (
            (codes.vt_member, VTParams, (12,), "a=12 out of range 0..6"),
            (codes.two_read_member, TwoReadParams, (9, 12, 0), "c=12 out of range 0..9"),
            (codes.np4_member, Np4Params, (9, 12, 0), "c=12 out of range 0..9"),
            (codes.np5_member, Np5Params, (9, 12, 0), "c=12 out of range 0..9")):
        for call in (lambda: cls(x.n, *args), lambda: member(x, *args)):
            with pytest.raises(ValueError, match=f"^residue {re.escape(text)}$"):
                call()


# (n, P, residue names, moduli) of one record per family, the moduli written
# from the definitions: VT mod n+1, inversions mod P+1 and weight mod 2,
# parity checks (2n, n^2, n^3, 3, 2n), and fiveread's windows of 2m = 44 bits
RECORDS = {
    "vt": (6, None, ("a",), (7,)),
    "tworead": (6, 3, ("c", "d"), (4, 2)),
    "np4": (6, 9, ("c", "d"), (10, 2)),
    "np5": (6, 9, ("c", "d"), (10, 2)),
    "twoins": (6, None, ("a1", "a2", "a3", "a4", "a5"), (12, 36, 216, 3, 12)),
    "fiveread": (23, 3, ("a", *(f"{v}[{i}]" for v in ("avec", "bvec") for i in range(5))),
                 (24, *(88, 44**2, 44**3, 3, 88) * 2)),
}


@pytest.mark.parametrize("family", sorted(RECORDS))
def test_records_check_every_residue_against_its_modulus(family):
    n, P, names, moduli = RECORDS[family]
    cls = codes.FAMILIES[family]
    assert cls._moduli(n, P) == moduli
    for i, (name, m) in enumerate(zip(names, moduli)):
        residues = [0] * len(moduli)
        residues[i] = m - 1
        assert cls._from_residues(n, P, residues).residues() == tuple(residues)
        for bad in (m, -1):
            residues[i] = bad
            msg = rf"^residue {re.escape(name)}={bad} out of range 0..{m - 1}$"
            with pytest.raises(ValueError, match=msg):
                cls._from_residues(n, P, residues)


@pytest.mark.parametrize("family", sorted(RECORDS))
def test_records_refuse_a_wrong_residue_count(family):
    n, P, _, moduli = RECORDS[family]
    record = codes.FAMILIES[family]._from_residues(n, P, [0] * len(moduli))
    first = [f.name for f in dataclasses.fields(record) if f.name not in ("n", "P")][0]
    value = getattr(record, first)
    entries = (value,) if isinstance(value, int) else value
    for wrong, count in ((entries[:-1], len(moduli) - 1), (entries + (0,), len(moduli) + 1)):
        with pytest.raises(ValueError, match=f"^{family} takes {len(moduli)} residues, got {count}$"):
            dataclasses.replace(record, **{first: wrong})


def test_np5_membership_and_ambient_nesting():
    n, P = 10, 9
    words = np.arange(1 << n)
    np5_ambient = set(words[r_mask(words, n, 2, 2 * P // 3)].tolist())
    big_ambient = set(words[r_mask(words, n, 2, 2 * P)].tolist())
    assert np5_ambient <= big_ambient
    total = 0
    for c in range(P + 1):
        for d in (0, 1):
            code = Np5Params(n, P, c, d).members()
            total += len(code)
            for x in code:
                assert in_r(x, 2, 6)
                assert inversions(x) % (1 + P) == c
                assert x.weight() % 2 == d
    assert total == len(np5_ambient)
    with pytest.raises(ValueError):
        Np5Params(10, 8, 0, 0).members()


# ---------------------------------------------------------------------------
# higher-order parity code


def test_two_insertion_cosets_partition():
    n = 8
    groups = coset_partition("twoins", n)
    total = sum(len(code) for code in groups.values())
    assert total == 2**n
    for params, code in groups.items():
        want = params.residues()
        for x in code:
            assert oracle_syndrome("twoins", x, None) == want


def test_two_insertion_length_rule_has_one_text():
    # the record, the sweep and the record's members refuse n < 2 alike
    for n in (0, 1):
        for call in (lambda: TwoInsertionParams(n, 0, 0, 0, 0, 0),
                     lambda: codes.coset_sweep("twoins", n),
                     lambda: TwoInsertionParams(n, 0, 0, 0, 0, 0).members()):
            with pytest.raises(ValueError, match=r"^parity checks need length >= 2$"):
                call()


def test_two_insertion_build_matches_partition():
    n = 7
    groups = coset_partition("twoins", n)
    params, code = max(groups.items(), key=lambda kv: len(kv[1]))
    rebuilt = TwoInsertionParams(n, *params.residues()).members()
    assert rebuilt == code


# ---------------------------------------------------------------------------
# five-read segmented code


def test_five_read_cosets_satisfy_all_conditions():
    n, P = 23, 3
    m = 7 * P + 1
    groups = coset_partition("fiveread", n, P=P)
    assert sum(len(c) for c in groups.values()) == count_r(n, 3, P)
    for params, code in groups.items():
        for x in code:
            assert in_r(x, 3, P)
            assert brute.vt_syndrome(str(x)) == params.a
            assert oracle_syndrome("fiveread", x, P) == params.residues()
            # padding: sums are computed on x extended by zeros to 2m | length
            assert n % m != 0  # this n exercises the padded branch


def test_five_read_rejects_wide_segments():
    with pytest.raises(ValueError):
        FiveReadParams(20, 3, 0, (0, 0, 0, 0, 0), (0, 0, 0, 0, 0)).members()  # m=22 >= n


def test_five_read_record_refuses_a_padded_length_above_64():
    # m = 36 < n = 40, but the word padded to 2m = 72 bits does not fit a word
    msg = "^padded length 72 exceeds MAX_LEN$"
    with pytest.raises(seqs.SequenceTooLongError, match=msg):
        FiveReadParams(40, 5, 0, (0,) * 5, (0,) * 5)
    with pytest.raises(seqs.SequenceTooLongError, match=msg):
        parse_header("# family=fiveread n=40 params=P=5,a=0,avec=0|0|0|0|0,bvec=0|0|0|0|0")


def test_five_read_build_matches_syndrome_filter():
    n, P = 23, 3
    groups = coset_partition("fiveread", n, P=P)
    params = next(iter(groups))
    code = FiveReadParams(n, P, params.a, params.avec, params.bvec).members()
    assert code == groups[params]


# ---------------------------------------------------------------------------
# redundancy, verification, best coset


def test_redundancy_values():
    assert redundancy(AllParams(6).members(), 6) == 0.0
    assert redundancy(VTParams(4, 0).members(), 4) == 2.0
    with pytest.raises(ValueError):
        redundancy(SeqSet(4, []), 4)


def test_verify_full_space_thresholds():
    for n in (5, 6):
        space = AllParams(n).members()
        assert verify_reconstruction_code(space, 2, 2 * n + 5).ok
        assert not verify_reconstruction_code(space, 2, 2 * n + 4).ok


def test_verify_vacuous_flag():
    single = SeqSet(5, [BitSeq("10110")])
    result = verify_reconstruction_code(single, 2, 1)
    assert result.ok and result.vacuous
    assert bool(result)


def test_verify_refuses_negative_t_before_the_vacuity_check():
    for code in (SeqSet(5, []), SeqSet(5, [BitSeq("10110")]), VTParams(6, 0).members()):
        with pytest.raises(ValueError, match=r"^t must be >= 0$"):
            verify_reconstruction_code(code, -2, 5)


def test_verify_names_worst_pair_on_failure():
    space = SeqSet(5, [BitSeq(s) for s in brute.all_seqs(5)])
    result = verify_reconstruction_code(space, 2, 10)
    assert not result.ok and not result.vacuous
    value, x, y = result.worst
    assert result.worst == coverage_argmax(space, 2)
    assert value == 14 == len(brute.insertion_ball(str(x), 2) & brute.insertion_ball(str(y), 2))
    assert verify_reconstruction_code(space, 2, 15).worst is None


def test_verify_names_worst_pair_kind_on_failure():
    space = SeqSet(5, [BitSeq(s) for s in brute.all_seqs(5)])
    result = verify_reconstruction_code(space, 2, 10)
    _, x, y = result.worst
    assert result.verdict == classify_pair(x, y)
    passing = verify_reconstruction_code(space, 2, 15)
    assert passing.worst is None and passing.verdict is None


def test_failing_verify_scans_the_pairs_once(monkeypatch):
    calls = []
    worst_pair = balls._worst_pair
    monkeypatch.setattr(balls, "_worst_pair", lambda *a, **k: calls.append(1) or worst_pair(*a, **k))
    result = verify_reconstruction_code(VTParams(8, 0).members(), 2, 3)
    assert not result.ok and result.worst[0] >= 3
    assert len(calls) == 1


def test_verify_np4_best_coset():
    params, code = best_coset("np4", 12, P=9)
    assert verify_reconstruction_code(code, 2, 12 + 4).ok


def test_np4_pigeonhole_at_n16():
    n, P = 16, 9
    _, code = best_coset("np4", n, P=P)
    assert len(code) >= count_r(n, 3, P // 3) / (2 * (1 + P))


def test_best_coset_vt():
    params, code = best_coset("vt", 4)
    assert isinstance(params, VTParams)
    assert params.a == 0 and len(code) == 4


def test_best_coset_tie_breaks_to_smallest_residues():
    # n = 1: both VT cosets are singletons, so a = 0 wins the tie
    params, code = best_coset("vt", 1)
    assert params.a == 0 and len(code) == 1


def test_best_coset_single_nonempty():
    # R(23, 3, 3) has six members spread over six fiveread cosets
    groups = coset_partition("fiveread", 23, P=3)
    params, code = best_coset("fiveread", 23, P=3)
    assert len(code) == max(len(c) for c in groups.values())


def test_five_read_object_keys_on_many_cosets(monkeypatch):
    """fiveread keys pass 2**63 and are Python ints.  Widened to R(23, 3, 4),
    the ambient set has 47,214 words in over 40,000 cosets, which the sweep
    and the partition give exactly as a count of the kernel's residues."""
    n, P = 23, 3
    monkeypatch.setattr(FiveReadParams, "_r", staticmethod(lambda P: (3, 4)))
    moduli = FiveReadParams._moduli(n, P)
    assert math.prod(moduli) >= 2**63
    groups = {}
    for block in seqs._blocks(n):
        words = block[r_mask(block, n, 3, 4)]
        residues = zip(*(r.tolist() for r in FiveReadParams._kernel(words, n, P)))
        for v, r in zip(words.tolist(), residues):
            groups.setdefault(r, []).append(v)
    assert sum(map(len, groups.values())) == 47214 and len(groups) > 40000
    # the mixed-radix key of each residue tuple, in ascending order
    keys = [sum(x * math.prod(moduli[i + 1:]) for i, x in enumerate(r)) for r in sorted(groups)]
    sweep = codes.coset_sweep("fiveread", n, P)
    assert sweep.keys.dtype == object and sweep.keys.tolist() == keys
    assert sweep.sizes.tolist() == [len(groups[r]) for r in sorted(groups)]
    partition = coset_partition("fiveread", n, P)
    assert {p.residues(): c._array().tolist() for p, c in partition.items()} == groups


def test_best_coset_empty_ambient():
    with pytest.raises(ValueError):
        best_coset("np4", 10, P=6)  # R(10, 3, 2) is empty


# ---------------------------------------------------------------------------
# code files


@pytest.mark.parametrize(
    "params_builder",
    [
        lambda: (VTParams(4, 0), VTParams(4, 0).members()),
        lambda: (Np4Params(10, 9, 0, 0), Np4Params(10, 9, 0, 0).members()),
        lambda: (TwoInsertionParams(6, 0, 0, 0, 0, 0), TwoInsertionParams(6, 0, 0, 0, 0, 0).members()),
        lambda: (
            FiveReadParams(23, 3, 7, (0,) * 5, (0,) * 5),
            FiveReadParams(23, 3, 7, (0,) * 5, (0,) * 5).members(),
        ),
    ],
)
def test_code_file_roundtrip(tmp_path, params_builder):
    params, code = params_builder()
    path = tmp_path / "code.txt"
    write_code_file(str(path), params, code)
    got_params, got_code = read_code_file(str(path))
    assert got_params == params
    assert got_code == code


def test_code_file_of_another_length_is_refused_before_writing(tmp_path):
    path = tmp_path / "code.txt"
    with pytest.raises(ValueError, match=r"^code length 5 does not match the header's n=4$"):
        write_code_file(str(path), VTParams(4, 0), VTParams(5, 0).members())
    assert not path.exists()


def test_all_is_one_coset_of_the_whole_space():
    sweep = codes.coset_sweep("all", 5)
    assert (sweep.keys.size, sweep.ambient_size) == (1, 32)
    assert best_coset("all", 5) == (codes.AllParams(5), AllParams(5).members())
    assert coset_partition("all", 5) == {codes.AllParams(5): AllParams(5).members()}
    assert len(AllParams(5).members()) == 32


@pytest.mark.parametrize("family,n,P", (("wat", 5, None), ("np4", 8, None), ("np4", 3, 18),
                                         ("vt", -1, None), ("twoins", 27, None), ("fiveread", 8, 1),
                                         ("fiveread", 30, 3), ("vt", -2, None), ("vt", 65, None)))
def test_partition_refuses_what_the_sweep_refuses(family, n, P):
    with pytest.raises(Exception) as sweep:
        codes.coset_sweep(family, n, P)
    with pytest.raises(type(sweep.value), match=re.escape(str(sweep.value))):
        coset_partition(family, n, P)


@pytest.mark.parametrize("family,n,P,error,text", (
    ("vt", -2, None, ValueError, "length n=-2 must be >= 0"),
    ("vt", 65, None, seqs.SequenceTooLongError, "code length 65 out of range 0..64"),
    ("np5", 65, 9, seqs.SequenceTooLongError, "code length 65 out of range 0..64"),
    ("twoins", 27, None, seqs.EnumerationCapError, "2**27 enumeration exceeds cap n <= 26"),
    ("fiveread", 30, 3, seqs.EnumerationCapError, "2**30 enumeration exceeds cap n <= 26")))
def test_sweep_refuses_lengths_outside_its_range(family, n, P, error, text):
    """A counted sweep refuses only lengths outside 0..MAX_LEN; the families
    that enumerate their words keep the enumeration cap."""
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        codes.coset_sweep(family, n, P)


@pytest.mark.parametrize("family,P", (("tworead", 3), ("vt", None), ("np5", 9)))
def test_counted_sweep_answers_above_the_cap_where_the_partition_refuses(family, P):
    """At n = 27 a counted family's sweep is exact, since it enumerates no
    word, while its partition, ``best_coset`` and its members, which do,
    refuse with the cap's text."""
    sweep = codes.coset_sweep(family, 27, P)
    cls = codes.FAMILIES[family]
    assert sweep.ambient_size == (count_r(27, *cls._r(P)) if cls._r else 2**27)
    assert sweep.sizes.dtype == np.int64 and int(sweep.sizes.sum()) == sweep.ambient_size
    cap = "^" + re.escape("2**27 enumeration exceeds cap n <= 26") + "$"
    for refused in (lambda: coset_partition(family, 27, P), lambda: best_coset(family, 27, P),
                    lambda: sweep.params(sweep.best()).members()):
        with pytest.raises(seqs.EnumerationCapError, match=cap):
            refused()


@pytest.mark.parametrize("family,n,P", (("np4", 64, 30), ("vt", 27, None)))
def test_best_coset_refuses_the_cap_before_any_count(family, n, P):
    """best_coset enumerates its members, so past the cap it refuses before
    the walk counts a single coset."""
    cap = "^" + re.escape(f"2**{n} enumeration exceeds cap n <= 26") + "$"
    with mock.patch.object(seqs, "_walk_counts", side_effect=AssertionError("_walk_counts")), \
            pytest.raises(seqs.EnumerationCapError, match=cap):
        best_coset(family, n, P)


@pytest.mark.parametrize("family,n,P,text", (
    ("wat", 64, None, "unknown family 'wat'"), ("np4", 64, None, "family np4 needs P"),
    ("np4", 64, 31, "np4 requires P >= 6 with 3 | P"), ("np5", -3, 9, "length n=-3 must be >= 0"),
    ("vt", 65, None, "code length 65 out of range 0..64")))
def test_best_coset_checks_family_p_and_length_before_the_cap(family, n, P, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        best_coset(family, n, P)


def test_ws_cells_refuse_an_oversize_automaton_before_allocating():
    """The grid alone (2m^2 entries) is checked before the ambient automaton
    is built, and the cells (states x grid) before any array is made:
    tworead P=99999 has a grid of 2 * 100000**2 entries, and np5 P=300 the
    799 states of R(., 2, 200) over 2 * 301**2."""
    with mock.patch.object(seqs, "_r_automaton", side_effect=AssertionError("automaton")), \
            mock.patch.object(np, "indices", side_effect=AssertionError("indices")), \
            pytest.raises(seqs.EnumerationCapError,
                          match=r"^cell automaton of 20000000000 cells exceeds cap 2\*\*26$"):
        codes._ws_cells(codes.FAMILIES["tworead"], 20, 99999)
    assert len(seqs._r_automaton(2, 200)) == 799
    with mock.patch.object(np, "indices", side_effect=AssertionError("indices")), \
            pytest.raises(seqs.EnumerationCapError,
                          match=r"^cell automaton of 144780398 cells exceeds cap 2\*\*26$"):
        codes._ws_cells(codes.FAMILIES["np5"], 10, 300)


@pytest.mark.parametrize("family,n,P", (("twoins", 9, None), ("fiveread", 23, 3), ("vt", 9, None),
                                         ("np5", 9, 3)))
def test_partition_walks_the_blocks_once(family, n, P):
    walks = []
    keyed = codes._keyed_blocks
    with mock.patch.object(codes, "_keyed_blocks", side_effect=lambda *a: walks.append(a) or keyed(*a)), \
            mock.patch.object(codes, "_ws_sizes", side_effect=AssertionError("sizes")):
        part = coset_partition(family, n, P)
    assert len(walks) == 1 and sum(map(len, part.values())) > 0
    sweep = codes.coset_sweep(family, n, P)
    assert [len(c) for c in part.values()] == sweep.sizes.tolist()
    assert list(part) == [sweep.params(i) for i in range(len(sweep.keys))]


def test_header_parse_rejects_unknown_family():
    with pytest.raises(ValueError):
        parse_header("# family=wat n=4 params=")


def test_headerless_file(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("0101\n1010\n")
    params, code = read_code_file(str(path))
    assert params is None
    assert seqs_of(code) == {"0101", "1010"}


# the parity weights (second h component) that the definitions of twoins and
# fiveread fix
WEIGHTS = {"twoins": "m1", "fiveread": "m0"}


def oracle_syndrome(family, x, P):
    """The residue tuple of x from code independent of the kernels: the
    string oracles in brute and seqs.inversions."""
    s = str(x)
    if family == "all":
        return (0,)
    if family == "vt":
        return (brute.vt_syndrome(s),)
    if family in ("tworead", "np4", "np5"):
        return (inversions(x) % (P + 1), s.count("1") % 2)
    if family == "twoins":
        n = len(s)
        f, h = brute.parity_checks(s, (2 * n, n * n, n**3, 3, 2 * n), WEIGHTS[family])
        return (*f, *h)
    even, odd = brute.five_read_sums(s, P, WEIGHTS[family])
    return (brute.vt_syndrome(s), *even, *odd)


# (ell, t) of R(n, ell, t) for the families with a periodicity-limited ambient
AMBIENT_R = {"tworead": lambda P: (2, 2 * P), "np4": lambda P: (3, P // 3),
             "np5": lambda P: (2, 2 * P // 3), "fiveread": lambda P: (3, P)}


def oracle_member(params, x):
    """Coset membership of x: seqs.in_r for the ambient set, oracle residues."""
    family, P = params.family, getattr(params, "P", None)
    if family in AMBIENT_R and not in_r(x, *AMBIENT_R[family](P)):
        return False
    return oracle_syndrome(family, x, P) == params.residues()


def predicate_member(params, x):
    """Coset membership of x from the public scalar predicates, or from the
    record's one-word ``contains`` for twoins and fiveread, which have none."""
    family = params.family
    if family == "vt":
        return codes.vt_member(x, params.a)
    if family in ("twoins", "fiveread"):
        return bool(params.contains(x.val))
    member = {"tworead": codes.two_read_member, "np4": codes.np4_member, "np5": codes.np5_member}
    return member[family](x, params.P, params.c, params.d)


@st.composite
def code_files(draw):
    """A record keyed on one word's own syndromes, and words to list under it."""
    family = draw(st.sampled_from(sorted(codes.FAMILIES)))
    P = draw(st.sampled_from({"tworead": (1, 3), "np4": (6, 9, 18), "np5": (3, 6, 9),
                              "fiveread": (1, 3, 4)}.get(family, (None,))))
    if family == "fiveread":  # m = 7P+1 < n, and the padded word fits 64 bits
        n = draw(st.integers(7 * P + 2, 64 // (7 * P + 1) * (7 * P + 1)))
    else:
        n = draw(st.integers({"twoins": 2, "np4": 4}.get(family, 0), 64))
    word = st.integers(0, (1 << n) - 1)
    if P and draw(st.booleans()):
        # the rotations of (001110)^k lie in R(n, 3, t) for t >= 3 and R(n, 2, t) for t >= 3
        r = draw(st.integers(0, 5))
        x = BitSeq(("001110" * 12)[r : r + n])
    else:
        x = BitSeq.from_int(draw(word), n)
    residues = oracle_syndrome(family, x, P)
    params = codes.FAMILIES[family]._from_residues(n, P, residues)
    others = draw(st.lists(word, max_size=4))
    return params, sorted({x.val, *others})


@given(code_files())
@settings(max_examples=300, deadline=None)
def test_code_file_load_check_matches_scalar_membership(case):
    params, vals = case
    n = params.n
    text = format_header(params) + "\n" + "".join(format(v, f"0{n}b") + "\n" for v in vals)
    fd, path = tempfile.mkstemp(suffix=".code")
    with os.fdopen(fd, "w") as fh:
        fh.write(text if n else format_header(params) + "\n\n")
    try:
        bad = [v for v in vals if not oracle_member(params, BitSeq.from_int(v, n))]
        if bad:
            word = format(bad[0], f"0{n}b") if n else ""
            with pytest.raises(ValueError, match=f"^codeword {word} is not in the code"):
                read_code_file(path)
        else:
            assert read_code_file(path) == (params, SeqSet._from_vals(n, vals))
    finally:
        os.unlink(path)


def test_header_format_example():
    assert format_header(VTParams(4, 0)) == "# family=vt n=4 params=a=0"


# ---------------------------------------------------------------------------
# vectorized syndrome kernels and sweeps


def kernel_residues(family, vals, n, P):
    """The residue tuple of every word from the vectorized kernel."""
    cls = codes.FAMILIES[family]
    residues = cls._kernel(np.array(vals, dtype=np.uint32), n, P)
    assert len(residues) == len(cls._moduli(n, P))
    return list(zip(*(r.tolist() for r in residues)))


@st.composite
def kernel_inputs(draw):
    family = draw(st.sampled_from(("vt", "tworead", "np4", "np5", "twoins", "fiveread", "all")))
    if family == "fiveread":
        P = draw(st.integers(1, 3))
        n = draw(st.integers(7 * P + 2, 26))
    else:
        P = draw(st.sampled_from((6, 9, 18) if family == "np4" else (3, 6, 9, 18)))
        n = draw(st.integers({"twoins": 2, "np4": 4}.get(family, 0), 26))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    return family, n, P, words


@given(kernel_inputs())
@example(("vt", 0, 3, [0]))
@example(("all", 1, 3, [0, 1]))
@example(("tworead", 1, 3, [0, 1]))
@example(("np5", 1, 3, [1]))
@example(("twoins", 2, 3, [0, 1, 2, 3]))
@settings(max_examples=300)
def test_kernel_keys_equal_scalar_syndromes(case):
    family, n, P, words = case
    got = kernel_residues(family, words, n, P)
    want = [oracle_syndrome(family, BitSeq.from_int(v, n), P) for v in words]
    assert got == want
    assert one_word_residues(family, words, n, P) == want


def one_word_residues(family, words, n, P):
    """The residue tuple of every word from the kernel, one Python int at a time."""
    out = [codes.FAMILIES[family]._kernel(v, n, P) for v in words]
    assert all(type(r) is int for row in out for r in row)
    return [tuple(row) for row in out]


@st.composite
def wide_kernel_inputs(draw):
    """Words of 27..64 bits, beyond the uint32 blocks of the sweeps."""
    family = draw(st.sampled_from(("vt", "tworead", "np4", "np5", "twoins", "fiveread")))
    if family == "fiveread":  # m < n, and the padded length stays <= 64
        P = draw(st.integers(1, 4))
        m = 7 * P + 1
        n = draw(st.integers(max(27, m + 1), 64 // m * m))
    else:
        P = draw(st.sampled_from((6, 9, 18) if family == "np4" else (3, 6, 9, 18)))
        n = draw(st.integers(27, 64))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    return family, n, P, words


EDGE_WORDS = [0, 1, 2**63, 2**64 - 1, 0xAAAA_AAAA_AAAA_AAAA, 0x0123_4567_89AB_CDEF]


@given(wide_kernel_inputs())
@example(("twoins", 64, None, EDGE_WORDS))
@example(("vt", 64, None, EDGE_WORDS))
@example(("np5", 64, 9, EDGE_WORDS))
@example(("fiveread", 64, 1, EDGE_WORDS))  # 8 | 64: no padding
@example(("fiveread", 57, 1, [0, 1, 2**57 - 1, 2**56]))  # padded to exactly 64
@settings(max_examples=300, deadline=None)
def test_kernels_match_oracles_on_words_of_27_to_64_bits(case):
    family, n, P, words = case
    cls = codes.FAMILIES[family]
    residues, moduli = cls._kernel(np.array(words, dtype=np.uint64), n, P), cls._moduli(n, P)
    got = list(zip(*(r.tolist() for r in residues)))
    assert got == [oracle_syndrome(family, BitSeq.from_int(v, n), P) for v in words]
    assert one_word_residues(family, words, n, P) == got
    assert all(0 <= r < m for row in got for r, m in zip(row, moduli))


@given(n=st.integers(2, 64), data=st.data(), h_second=st.sampled_from(("m0", "m1")))
@settings(max_examples=300, deadline=None)
def test_scalar_syndromes_match_oracles(n, data, h_second):
    """The family syndromes with their own weights; the parity checks and the
    window sums they are made of with both."""
    s = format(data.draw(st.integers(0, (1 << n) - 1)), f"0{n}b")
    x = BitSeq(s)
    assert vt_syndrome(x) == brute.vt_syndrome(s)
    assert two_insertion_syndrome(x) == oracle_syndrome("twoins", x, None)
    f, h = brute.parity_checks(s, (2 * n, n * n, n**3, 3, 2 * n), h_second)
    assert parity_checks(x, h_second).residues() == (*f, *h)
    for P in (1, 2, 3, 4):
        m = 7 * P + 1
        if m < n and -(-n // m) * m <= 64:
            a, even, odd = five_read_syndrome(x, P)
            assert (a, *even, *odd) == oracle_syndrome("fiveread", x, P)
            sums = tilde_sums(BitSeq(s + "0" * (-n % m)), m, h_second)
            assert (sums.even.residues(), sums.odd.residues()) == brute.five_read_sums(
                s, P, h_second)


@given(code_files())
@settings(max_examples=300, deadline=None)
def test_member_predicates_match_oracle_membership(case):
    params, vals = case
    if params.family == "all":  # no predicate: every word is a member
        return
    for v in vals:
        x = BitSeq.from_int(v, params.n)
        got = predicate_member(params, x)
        assert type(got) is bool and got == oracle_member(params, x)


def test_five_read_record_checks_parameters_before_any_word():
    # m = 7P+1 = 22 >= n = 10: the record is refused before a word is tested
    with pytest.raises(ValueError, match=r"m=7P\+1=22 < n=10"):
        FiveReadParams(10, 3, 0, (0,) * 5, (0,) * 5)


# (family, P, lengths) of every sweep compared with the reference
SWEEP_CASES = [
    ("vt", None, range(0, 13)),
    ("tworead", 1, range(1, 13)),
    ("tworead", 3, range(1, 13)),
    ("np4", 9, range(4, 13)),
    ("np4", 18, range(4, 13)),
    ("np5", 3, range(1, 13)),
    ("np5", 9, range(1, 13)),
    ("twoins", None, range(2, 11)),
    ("all", None, range(0, 13)),
    ("fiveread", 1, range(9, 13)),
    ("fiveread", 3, (23,)),
]


def case_ids(cases):
    """The id of case i: its fields before the family's lengths, then the
    family's parity weights and lengths<i>, as in vt-None-None-lengths0."""
    return ["-".join(map(str, (*case[:-1], WEIGHTS.get(case[-3]), f"lengths{i}")))
            for i, case in enumerate(cases)]


def scalar_ambient(family, n, P):
    """The ambient words in ascending order, from seqs.in_r alone.

    R(n, ell, t) is closed under taking prefixes, so its members of length j
    are the members of length j - 1 with one symbol appended that stay in R.
    """
    words = [0]
    for j in range(1, n + 1):
        words = [2 * v + b for v in words for b in (0, 1)]
        if family in AMBIENT_R:
            words = [v for v in words if in_r(BitSeq.from_int(v, j), *AMBIENT_R[family](P))]
    return words


def reference_groups(family, n, P):
    """Plain dict of lists: oracle residue tuple -> ambient words, in order."""
    groups = {}
    for v in scalar_ambient(family, n, P):
        groups.setdefault(oracle_syndrome(family, BitSeq.from_int(v, n), P), []).append(v)
    return groups


def check_sweeps_against_reference(family, P, lengths, every_coset=True):
    """Sweep, partition, best coset and the records' members() and
    contains() against the reference; returns how many lengths had a tie
    for the largest coset.

    The sweep's keys are the mixed-radix keys of the reference's residue
    tuples (first residue most significant), ascending, and its int64
    sizes and ambient size are the reference's word counts.  With
    ``every_coset``, every record of the partition up to n = 10 lists its
    group and picks it out of the whole space; otherwise, and past
    n = 10, only the best and the last coset list theirs."""
    ties = 0
    for n in lengths:
        groups = reference_groups(family, n, P)
        keys = []
        for residues in sorted(groups):
            key = 0
            for r, m in zip(residues, codes.FAMILIES[family]._moduli(n, P)):
                key = key * m + r
            keys.append(key)
        sweep = codes.coset_sweep(family, n, P)
        assert sweep.keys.tolist() == keys, n
        assert sweep.sizes.dtype == np.int64
        assert sweep.sizes.tolist() == [len(groups[r]) for r in sorted(groups)], n
        assert sweep.ambient_size == sum(map(len, groups.values())), n
        part = coset_partition(family, n, P=P)
        assert [(p.residues(), sorted(c.values())) for p, c in part.items()] == sorted(
            groups.items()
        )
        if not groups:
            with pytest.raises(ValueError):
                best_coset(family, n, P=P)
            continue
        want = min(groups, key=lambda k: (-len(groups[k]), k))
        ties += sum(len(g) == len(groups[want]) for g in groups.values()) > 1
        params, code = best_coset(family, n, P=P)
        assert params.residues() == want
        assert sorted(code.values()) == groups[want]
        if every_coset and n <= 10:
            space = np.arange(2**n, dtype=np.uint64)
            for params in part:
                group = groups[params.residues()]
                assert sorted(params.members().values()) == group, params
                assert np.flatnonzero(params.contains(space)).tolist() == group, params
        else:
            last = list(part)[-1]  # best_coset's members come from members(); so another coset
            assert sorted(last.members().values()) == groups[last.residues()]
    return ties


@pytest.mark.parametrize("family,P,lengths", SWEEP_CASES, ids=case_ids(SWEEP_CASES))
def test_sweeps_match_dict_of_lists_reference(family, P, lengths):
    ties = check_sweeps_against_reference(family, P, lengths)
    if family in ("vt", "twoins"):
        assert ties > 0  # the tie-break was exercised


def block_guards(monkeypatch, bits):
    """Blocks of 2**bits words; returns the shape of the largest array that
    every kernel, _ws and r_mask call of the sweep sees."""
    seen = []

    def guarded(fn):
        def call(*args, **kwargs):
            seen.append(max((a.shape for a in args if isinstance(a, np.ndarray)), key=math.prod))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(seqs, "_BLOCK_BITS", bits)
    monkeypatch.setattr(codes, "r_mask", guarded(codes.r_mask))
    for cls in codes.FAMILIES.values():
        name = "_kernel" if cls._ws is None else "_ws"
        monkeypatch.setattr(cls, name, staticmethod(guarded(getattr(cls, name))))
    return seen


# every case up to n = 12; the fiveread n = 23 cases already walk 2**7 blocks
# at the default width, and would walk 2**20 blocks of 8 words here
NARROW_CASES = [(bits, *case) for case in SWEEP_CASES if max(case[2]) <= 12
                for bits in (1, 2, 3)]


@pytest.mark.parametrize("bits,family,P,lengths", NARROW_CASES, ids=case_ids(NARROW_CASES))
def test_sweeps_match_reference_in_narrow_blocks(monkeypatch, bits, family, P, lengths):
    """n = 0, n < bits, n = bits and many blocks, with no enumerating call on
    more than a block.  A _ws family's sizes and members come from one _ws
    call each on exactly the (w mod 2m, S mod m) grid of its first modulus
    m, and from no call on words: per length, the sweep, the best coset's
    sweep, and the members of the best and of the last coset.  The
    partition takes its sizes from the keys of its own walk, so it makes no
    grid call."""
    seen = block_guards(monkeypatch, bits)
    # membership of the whole space would be one call on more than a block
    check_sweeps_against_reference(family, P, lengths, every_coset=False)
    assert max(math.prod(shape) for shape in seen if len(shape) == 1) == 2 ** min(bits, max(lengths))
    cls = codes.FAMILIES[family]
    grids = [(2 * m, m) for n in lengths for m in [cls._moduli(n, P)[0]] * 4] if cls._ws else []
    assert [shape for shape in seen if len(shape) != 1] == grids


@pytest.mark.parametrize("family,P", (("vt", None), ("tworead", 3), ("np4", 18), ("np5", 9)))
@pytest.mark.parametrize("n", (17, 18))
def test_multi_block_sweep_sizes_equal_whole_space_bincount(family, P, n):
    assert n > seqs._BLOCK_BITS
    vals = np.arange(1 << n, dtype=np.uint32)
    if family in AMBIENT_R:
        vals = vals[r_mask(vals, n, *AMBIENT_R[family](P))]
    cls = codes.FAMILIES[family]
    keys = np.ravel_multi_index(cls._kernel(vals, n, P), cls._moduli(n, P))
    counts = np.bincount(keys)
    sweep = codes.coset_sweep(family, n, P)
    assert sweep.keys.tolist() == np.flatnonzero(counts).tolist()
    assert sweep.sizes.tolist() == counts[counts > 0].tolist()
    assert sweep.ambient_size == vals.size
    best = sweep.best()
    assert sweep.params(best).members() == SeqSet._from_vals(n, vals[keys == sweep.keys[best]].tolist())


WS_SIZE_CASES = [("vt", None)] + [
    (family, P) for family in ("tworead", "np4", "np5") for P in (1, 2, 3, 6, 9, 12, 18)
    if family == "tworead" or P % 3 == 0 and P >= (6 if family == "np4" else 3)]


@pytest.mark.parametrize("family,P", WS_SIZE_CASES)
def test_ws_sizes_equal_whole_space_bincount(family, P):
    """The transfer-matrix counts against the kernel on every ambient word,
    for n = 0..20; np4 P=6 is R(n, 3, 2), where t < ell."""
    cls = codes.FAMILIES[family]
    for n in range(0, 21):
        try:
            moduli = cls._moduli(n, P)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                codes._ws_sizes(cls, n, P)
            continue
        vals = np.arange(1 << n, dtype=np.uint32)
        if family in AMBIENT_R:
            vals = vals[r_mask(vals, n, *AMBIENT_R[family](P))]
        counts = np.bincount(np.ravel_multi_index(cls._kernel(vals, n, P), moduli),
                             minlength=math.prod(moduli))
        keys, sizes = codes._ws_sizes(cls, n, P)
        assert keys.tolist() == np.flatnonzero(counts).tolist(), n
        assert sizes.tolist() == counts[keys].tolist(), n
        assert sizes.dtype == np.int64


@pytest.mark.parametrize("n", [*range(1, 27), 40, 62])
def test_ws_sizes_of_vt_match_closed_form(n):
    """Every VT coset size against the closed form, past ENUM_CAP up to the
    last length whose counts stay int64."""
    keys, sizes = codes._ws_sizes(VTParams, n, None)
    assert keys.tolist() == list(range(n + 1))
    assert sizes.tolist() == [brute.vt_coset_size(n, a) for a in range(n + 1)]


# (family, P) of every ambient whose exact counted sizes are checked past the
# cap, against the closed form of |VT_a(n)|, 2^n and count_r
PAST_CAP_CASES = [("vt", None), ("all", None), ("tworead", 3), ("tworead", 9), ("np4", 9),
                  ("np4", 18), ("np5", 9), ("np5", 15)]


@pytest.mark.parametrize("n", (27, 40, 62, 63, 64))
@pytest.mark.parametrize("family,P", PAST_CAP_CASES)
def test_counted_sweeps_are_exact_past_the_cap(family, P, n):
    """Every counted family is swept up to n = MAX_LEN: the sizes are int64
    while n <= 62 and Python ints past that, every vt size is the closed
    form, all is one coset of 2^n words, and the sizes of every other family
    sum to count_r of its ambient set."""
    sweep = codes.coset_sweep(family, n, P)
    if n <= 62:
        assert sweep.sizes.dtype == np.int64
    else:
        assert sweep.sizes.dtype == object and {type(v) for v in sweep.sizes} == {int}
    cls = codes.FAMILIES[family]
    ambient = count_r(n, *cls._r(P)) if cls._r else 2**n
    assert sweep.ambient_size == sum(sweep.sizes.tolist()) == ambient
    if family == "vt":
        assert sweep.keys.tolist() == list(range(n + 1))
        assert sweep.sizes.tolist() == [brute.vt_coset_size(n, a) for a in range(n + 1)]
    if family == "all":
        assert sweep.keys.tolist() == [0] and sweep.sizes.tolist() == [2**n]


@pytest.mark.parametrize("family,P", WS_SIZE_CASES + [("all", None), ("np4", 30), ("np5", 15)])
def test_every_ws_key_holds_at_most_one_cell_per_grid_row(family, P):
    """The member join's precondition: at a fixed w mod 2m the first residue
    is a bijection of S mod m, so no key of the (w, S) grid appears twice in
    one row; for all, m = 1 and each row is one cell."""
    cls = codes.FAMILIES[family]
    for n in (0, 1, 2, 5, 8, 14, 22, 26, 40, 64):
        try:
            m = cls._moduli(n, P)[0]
        except ValueError:
            continue
        rows = np.sort(codes._ws_cells(cls, n, P)[1].reshape(2 * m, m), axis=1)
        assert (rows[:, 1:] != rows[:, :-1]).all(), n


@pytest.mark.parametrize("family,P", WS_SIZE_CASES + [("all", None)])
def test_ws_members_equal_enumeration(monkeypatch, family, P):
    """The automaton's members of every key, n = 0..16, against the ambient
    words of that key from the block walk: equal, as a strictly ascending
    uint64 array, and empty for a key with no word.  The walk makes one
    _ws call, on the grid, and no call on words."""
    cls = codes.FAMILIES[family]
    seen = block_guards(monkeypatch, seqs._BLOCK_BITS)
    for n in range(0, 17):
        try:
            moduli = cls._moduli(n, P)
        except ValueError:
            continue
        words, keys = (np.concatenate(a) for a in zip(*codes._keyed_blocks(cls, n, P)))
        before = len(seen)
        for key in range(math.prod(moduli)):
            got = codes._ws_members(cls, n, P, key)
            assert got.dtype == np.uint64 and (got[1:] > got[:-1]).all(), (n, key)
            assert got.tolist() == words[keys == key].tolist(), (n, key)
        assert seen[before:] == [(2 * moduli[0], moduli[0])] * math.prod(moduli)


# (ell, t) of every ambient R of a _ws family, or None for the whole space,
# with the first modulus m it is swept under
SUFFIX_CASES = [(None, m) for m in (1, 2, 9, 23)] + sorted(
    {(AMBIENT_R[family](P), P + 1) for family, P in WS_SIZE_CASES + [("np4", 30)] if P is not None})


@pytest.mark.parametrize("r,m", SUFFIX_CASES, ids=[f"{r}-m{m}" for r, m in SUFFIX_CASES])
def test_suffix_classes_hold_each_allowed_suffix_once(r, m):
    """For L = 0..8, the class table lists exactly the pairs (class, u) of a
    state q and an L-bit suffix u that the ambient set allows after a word
    that reaches q, class by class and ascending in u, where the class is
    (q * (L+1) + wt(u)) * m + sigma(u) % m and sigma(u) sums the weights of
    u's proper prefixes.  A shortest word into each state is found on the
    automaton; whether u may follow it comes from r_mask on the joined word,
    and wt and sigma from u's bit string."""
    table = seqs._r_automaton(*r) if r else np.zeros((1, 2), dtype=np.intp)
    into, queue = {0: ""}, [0]
    for q in queue:
        for b in (0, 1):
            if table[q, b] >= 0 and int(table[q, b]) not in into:
                into[int(table[q, b])] = into[q] + str(b)
                queue.append(int(table[q, b]))
    assert len(into) == len(table)
    for L in range(9):
        strings = [format(u, "b").zfill(L) if L else "" for u in range(1 << L)]
        wt = np.array([y.count("1") for y in strings])
        sigma = np.array([sum(y[:j].count("1") for j in range(1, L)) for y in strings])
        want = []
        for q, x in into.items():
            vals = np.array([int(x + y or "0", 2) for y in strings], dtype=np.uint64)
            ok = r_mask(vals, len(x) + L, *r) if r else np.ones(vals.size, dtype=bool)
            want += zip(((q * (L + 1) + wt) * m + sigma % m)[ok].tolist(), np.flatnonzero(ok).tolist())
        offsets, suffixes = codes._suffix_classes(r, L, m)
        assert suffixes.dtype == np.uint64 and offsets.size == len(table) * (L + 1) * m + 1
        assert offsets[0] == 0 and (np.diff(offsets) >= 0).all()
        got = zip(np.repeat(np.arange(offsets.size - 1), np.diff(offsets)).tolist(), suffixes.tolist())
        assert list(got) == sorted(want), (r, m, L)


@pytest.mark.parametrize("family,P", [("np4", 30), ("np5", 18), ("tworead", 18), ("vt", None)])
def test_ws_members_of_the_largest_automata(family, P):
    """The members of the best and of the smallest nonempty coset, n = 17..22,
    for the automata with the most cells and for vt over the whole space,
    against the ambient words of that key from the block walk."""
    cls = codes.FAMILIES[family]
    for n in range(17, 23):
        sweep = codes.coset_sweep(family, n, P)
        keys = [int(sweep.keys[sweep.best()]), int(sweep.keys[np.argmin(sweep.sizes)])]
        words, found = (np.concatenate(a) for a in zip(*codes._keyed_blocks(cls, n, P)))
        for key in keys:
            got = codes._ws_members(cls, n, P, key)
            assert got.dtype == np.uint64 and (got[1:] > got[:-1]).all(), (n, key)
            assert got.tolist() == words[found == key].tolist(), (n, key)


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 22, 63, 64))
def test_code_file_bytes_are_the_header_and_the_lines(tmp_path, n):
    """The file is the header line, then to_lines, byte for byte, for an
    empty and a random code, and reads back as the same record and set."""
    rng = random.Random(n)
    params, path = codes.AllParams(n), tmp_path / "code.txt"
    for vals in ((), {rng.getrandbits(n) for _ in range(200)}):
        code = SeqSet._from_vals(n, vals)
        write_code_file(str(path), params, code)
        assert path.read_bytes() == (format_header(params) + "\n" + code.to_lines()).encode("ascii")
        assert read_code_file(str(path)) == (params, code)


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 22, 31, 33, 63, 64, 65))
def test_to_lines_matches_per_word_format(n):
    """parse_lines reads the lines back; above 64 bits no set is built."""
    rng = random.Random(n)
    vals = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(300)}
    want = "".join((format(v, f"0{n}b") if n else "") + "\n" for v in sorted(vals))
    if n > 64:
        for build in (lambda: SeqSet._from_vals(n, vals), lambda: SeqSet.parse_lines(want)):
            with pytest.raises(seqs.SequenceTooLongError, match=f"^code length {n} out of range"):
                build()
        return
    code = SeqSet._from_vals(n, vals)
    got = code.to_lines()
    assert got == want
    assert SeqSet.parse_lines(got, n) == code
    if n:
        assert SeqSet.parse_lines(got) == code


def read_as_text(path):
    """A code file read line by line as text, with no load check."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines(keepends=True)
    params = None
    if lines and lines[0].startswith("#"):
        params = parse_header(lines[0])
        lines = lines[1:]
    return params, SeqSet.parse_lines("".join(lines), None if params is None else params.n)


HEAD = b"# family=vt n=4 params=a=0\n"  # VT syndrome 0 at n = 4: 0000, 1001, 0110, 1111


@pytest.mark.parametrize("data, matrix", [
    (HEAD + b"0000\n0110\n1001\n1111\n", True),
    (HEAD + b"1111\n0000\n1111\n", True),
    (HEAD, True),
    (b"# family=vt n=0 params=a=0\n\n", True),
    (HEAD + b"0000\r\n0110\r\n", True),
    (HEAD[:-1] + b"\r\n0000\n0110\n", False),
    (HEAD + b"0000\n\n0110\n", False),
    (HEAD + b"0000\n0110", False),
    (HEAD + b" 0000\n0110\n", False),
    (HEAD + b"0000\n0120\n", False),
    (HEAD + b"0000\n01\xff0\n", False),
    (HEAD + b"00000\n0110\n", False),
    (HEAD + b"000010110\n", False),
    (b"0000\n0110\n", False),
    (b"# family=vt\x0b n=4 params=a=0\n0000\n", False),
])
def test_code_file_byte_matrix_reads_as_the_text_lines(tmp_path, data, matrix):
    # only a header and an exact line matrix, with \n or \r\n line ends, skip
    # the text path; every other file gives what the text path gives, value
    # or error text
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    try:
        want = read_as_text(str(path))
    except ValueError as exc:
        want = exc
    spy = mock.patch.object(SeqSet, "parse_lines", side_effect=AssertionError("text path"))
    with spy if matrix else contextlib.nullcontext():
        if isinstance(want, ValueError):
            with pytest.raises(type(want)) as got:
                read_code_file(str(path))
            assert str(got.value) == str(want)
        else:
            assert read_code_file(str(path)) == want


# Block I/O: code files move through blocks of 2^_BLOCK_BITS lines; the tests
# below shrink a block to one line (0) or two (1), so that every file spans
# many blocks.
BLOCK_BITS = pytest.mark.parametrize("bits", (0, 1))
MATRIX_CASES = next(m.args[1] for m in test_code_file_byte_matrix_reads_as_the_text_lines.pytestmark
                    if m.name == "parametrize")


def blocks_of(bits):
    return mock.patch.object(seqs, "_BLOCK_BITS", bits)


def read_or_error(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


@BLOCK_BITS
@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 22, 63, 64))
def test_code_file_blocks_round_trip_byte_identical(tmp_path, n, bits):
    rng = random.Random(n)
    params, path = codes.AllParams(n), tmp_path / "code.txt"
    for vals in ((), {rng.getrandbits(n) for _ in range(200)}):
        code = SeqSet._from_vals(n, vals)
        with blocks_of(bits):
            write_code_file(str(path), params, code)
            assert path.read_bytes() == (format_header(params) + "\n" + code.to_lines()).encode("ascii")
            assert read_code_file(str(path)) == (params, code)


@BLOCK_BITS
@pytest.mark.parametrize("data, matrix", MATRIX_CASES)
def test_code_file_blocks_read_as_the_text_lines(tmp_path, data, matrix, bits):
    # as in the one-block reading: only a header and an exact line matrix
    # skip the text path, and every other file gives its value or error
    # text; a one-line chunk with a \r\n end takes two reads, cut between them
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    want = read_or_error(read_as_text, str(path))
    spy = mock.patch.object(SeqSet, "parse_lines", side_effect=AssertionError("text path"))
    with blocks_of(bits), spy if matrix else contextlib.nullcontext():
        assert read_or_error(read_code_file, str(path)) == want


@st.composite
def text_code_files(draw):
    """The bytes of a file that may or may not be a code file: an optional
    header, lines of 0, 1, blanks, tabs and 2 (most of them words of the
    header's length, some one bit off it), ended by any of the ASCII line
    breaks of str.splitlines, and sometimes one non-ASCII byte."""
    n = draw(st.integers(0, 4))
    good = f"# family=all n={n} params="
    head = draw(st.sampled_from(("", "", good, good, "# family=all n=x params=",
                                 f"# family=all\x0b n={n} params=")))
    brk = st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c"))
    word = st.text("01", min_size=n, max_size=n)
    line = st.one_of(word, word, word, word.map(lambda w: f" {w}\t"), st.just(""),
                     st.text("01", min_size=max(n - 1, 0), max_size=n + 1), st.text("01 \t2", max_size=6))
    lines = draw(st.lists(st.tuples(line, brk).map("".join), max_size=12))
    data = ((head + draw(brk) if head else "") + "".join(lines)).encode("ascii")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\x80", b"\xff"))) + data[at:]
    return data


@given(text_code_files())
@settings(max_examples=300, deadline=None)
def test_code_file_chunks_read_as_the_text_lines(data):
    # chunks of one or two lines' bytes cut the file everywhere, between a
    # \r and its \n too; every cut gives the value or error of the whole text
    fd, path = tempfile.mkstemp(suffix=".code")
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    try:
        want = read_or_error(read_as_text, path)
        for bits in (0, 1):
            with blocks_of(bits):
                assert read_or_error(read_code_file, path) == want, bits
    finally:
        os.unlink(path)


@BLOCK_BITS
@pytest.mark.parametrize("bad, error", [
    (b"0120\n", "bad sequence line: '0120'"),
    (b"01\xff0\n", "'ascii' codec can't decode byte 0xff in position 49: ordinal not in range(128)"),
    (b"0110", None),
    (b"011\n", "bad sequence line: '011'"),
])
def test_code_file_bad_later_block_reads_as_text_from_the_start(tmp_path, bad, error, bits):
    path = tmp_path / "code.txt"
    path.write_bytes(HEAD + b"0000\n0110\n1001\n1111\n" + bad)
    with blocks_of(bits), mock.patch.object(SeqSet, "parse_lines", wraps=SeqSet.parse_lines) as text:
        got = read_or_error(read_code_file, str(path))
    # only the chunk of the bad line is read as text, unless it fails to decode
    assert text.call_count == bad.isascii()
    assert got == read_or_error(read_as_text, str(path))
    if error is None:
        assert got == (codes.VTParams(4, 0), VTParams(4, 0).members())
    else:
        assert got[1] == error


@BLOCK_BITS
@pytest.mark.parametrize("data, error", [
    (b"# family=vt n=x params=a=0\n0000\n01\xff0\n",
     "'ascii' codec can't decode byte 0xff in position 34: ordinal not in range(128)"),
    (b"# family=vt n=x params=a=0\n0000\n",
     "code file header field 'n' has a non-integer value 'x'"),
])
def test_code_file_bad_header_gives_the_text_error(tmp_path, data, error, bits):
    # the text reading decodes the whole file before it parses the header
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    with blocks_of(bits):
        got = read_or_error(read_code_file, str(path))
    assert got[1] == error and got == read_or_error(read_as_text, str(path))


@BLOCK_BITS
def test_code_file_load_check_names_the_smallest_failing_word_of_any_block(tmp_path, bits):
    # 1110 fails first in the file, 0001 is the smallest failing word
    path = tmp_path / "code.txt"
    path.write_bytes(HEAD + b"1111\n1110\n0110\n0000\n0001\n1001\n")
    with blocks_of(bits), pytest.raises(ValueError) as got:
        read_code_file(str(path))
    assert str(got.value) == "codeword 0001 is not in the code of its header: family=vt n=4 params=a=0"


@BLOCK_BITS
@pytest.mark.parametrize("body", [
    b"1111\n0000\n1111\n0110\n0000\n",
    b"1001\n1001\n1001\n",
    b"1111\n1001\n0110\n0000\n",
])
def test_code_file_unsorted_or_repeated_lines_across_blocks(tmp_path, body, bits):
    path = tmp_path / "code.txt"
    path.write_bytes(HEAD + body)
    want = read_as_text(str(path))
    with blocks_of(bits):
        assert read_code_file(str(path)) == want


@BLOCK_BITS
def test_code_file_header_without_newline_is_an_empty_code(tmp_path, bits):
    path = tmp_path / "code.txt"
    path.write_bytes(HEAD[:-1])
    with blocks_of(bits):
        assert read_code_file(str(path)) == (codes.VTParams(4, 0), SeqSet(4)) == read_as_text(str(path))


@BLOCK_BITS
@pytest.mark.parametrize("n, body, text", [
    (14, None, False),  # the lines of the vt code at n = 14, a = 0
    (4, b"1111\n0000\n", False),
    (4, b"0000\n1111\n0120\n", True),
    (4, b"0000\n1111\n1110\n", False),
])
def test_code_file_read_through_a_pipe_as_from_the_file(tmp_path, n, body, text, bits):
    # a pipe is read to its end in whole blocks, though written 5 bytes at a
    # time, and a block that is not a line matrix is read as text, as a
    # file's is
    body = VTParams(n, 0).members().to_lines().encode() if body is None else body
    data = format_header(codes.VTParams(n, 0)).encode() + b"\n" + body
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    r, w = os.pipe()

    def feed():
        try:
            for lo in range(0, len(data), 5):
                os.write(w, data[lo : lo + 5])
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with blocks_of(bits), mock.patch.object(SeqSet, "parse_lines", wraps=SeqSet.parse_lines) as spy:
            got = read_or_error(read_code_file, f"/dev/fd/{r}")
    finally:
        os.close(r)  # a writer still blocked on a full pipe stops here
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert spy.called == text
    with blocks_of(bits):
        assert got == read_or_error(read_code_file, str(path))


@pytest.mark.parametrize("end", (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e"))
@pytest.mark.parametrize("shape", ("exact", "bad last line", "bad byte", "headerless"))
def test_code_file_with_only_cr_line_ends_is_read_in_chunks(tmp_path, shape, end):
    # with no \n in the file, each read is cut after its last \r or other
    # line break and the header comes from the first chunk, so the 13,798
    # lines of the vt code at n = 18 give the text reading's words or error
    # while the reading holds less than the file's bytes (the text reading
    # holds about twelve times them)
    params, code = codes.VTParams(18, 0), VTParams(18, 0).members()
    head, lines = format_header(params).encode() + end, code.to_lines().encode().replace(b"\n", end)
    data = {"exact": head + lines, "bad last line": head + lines + b"0101" + end,
            "bad byte": head + lines + b"01\xff0" + end, "headerless": lines}[shape]
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    with blocks_of(8):
        tracemalloc.start()
        try:
            got = read_or_error(read_code_file, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == read_or_error(read_as_text, str(path))
    if shape == "exact":
        assert got == (params, code) and peak < len(data), peak
    elif shape == "headerless":
        assert got == (None, code)
    else:
        assert got[1] in ("bad sequence line: '0101'", f"'ascii' codec can't decode byte 0xff in "
                          f"position {len(head + lines) + 2}: ordinal not in range(128)")


@pytest.mark.parametrize("bits", (0, 1, seqs._BLOCK_BITS))
@pytest.mark.parametrize("shape", ("exact", "bad last line", "crlf", "blank lines", "headerless"))
def test_code_file_read_to_its_end_without_its_size(tmp_path, bits, shape):
    # nothing reads the file's size: with os.fstat failing, the 30 lines of
    # the vt code at n = 8 are read through every way a chunk is parsed, and
    # a malformed last line gives the text reading's error
    params, code = codes.VTParams(8, 0), VTParams(8, 0).members()
    lines = code.to_lines().encode()
    head = format_header(params).encode() + b"\n"
    data = {"exact": head + lines, "bad last line": head + lines + b"0101\n",
            "crlf": (head + lines).replace(b"\n", b"\r\n"),
            "blank lines": head + lines.replace(b"\n", b"\n\n"), "headerless": lines}[shape]
    path = tmp_path / "code.txt"
    path.write_bytes(data)
    with blocks_of(bits), mock.patch.object(os, "fstat", side_effect=AssertionError("fstat")):
        got = read_or_error(read_code_file, str(path))
    assert got == read_or_error(read_as_text, str(path))
    if shape == "bad last line":
        assert got == (ValueError, "bad sequence line: '0101'")
    else:
        assert got[1] == code and len(code) == 30
