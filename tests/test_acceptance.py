"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either computed here by an independent brute-force
oracle (string-based, in brute.py), taken from a closed form that is itself
brute-checked, or is an exact integer comparison.  Run with ``pytest -v -s``
to see the per-criterion lines.
"""

import random
from itertools import combinations
from math import ceil, comb, log2

import pytest

import brute
from insrecon.balls import (
    SeqSet,
    ball_size_formula,
    insertion_ball,
    intersect_balls,
    nplus_ell_formula,
    nplus_formula,
    read_coverage,
    t_insertion_bound,
)
from insrecon.codes import (
    VTParams,
    best_coset,
    coset_partition,
    parity_checks,
    segment_checks,
    tilde_sums,
    verify_reconstruction_code,
)
from insrecon.confusability import (
    classify_pair,
    classify_window,
    excluded_by_rsv,
    intersect2_decomposed,
    predict_i1_size,
    predict_i2_range,
    window_pair,
)
from insrecon.recon import DecodeStatus, run_experiment
from insrecon.seqs import BitSeq, count_r, insertion_distance


def report(criterion, text):
    print(f"[criterion {criterion:>2}] PASS: {text}")


# ---------------------------------------------------------------------------


def test_c01_single_insertion_intersection_prediction():
    """Exhaustive: predicted |I1 cap I1| equals the brute-force size, n in [3, 9]."""
    pairs = 0
    for n in range(3, 10):
        seqs = brute.all_seqs(n)
        balls = {s: brute.insertion_ball(s, 1) for s in seqs}
        for i, a in enumerate(seqs):
            xa = BitSeq(a)
            ba = balls[a]
            for b in seqs[i + 1 :]:
                got = predict_i1_size(xa, BitSeq(b))
                want = len(ba & balls[b])
                assert got == want, (a, b, got, want)
                pairs += 1
    report(1, f"{pairs} pairs, zero mismatches")


def test_c02_two_insertion_trichotomy():
    """Exhaustive: |I2 cap I2| lands exactly in the predicted class, n in [4, 9]."""
    pairs = 0
    for n in range(4, 10):
        # the three classes are pairwise disjoint for n >= 4, so per-pair
        # membership in the predicted class gives both directions of the iff
        assert 6 < n + 3 and n + 5 < 2 * n + 4
        seqs = brute.all_seqs(n)
        balls = {s: brute.insertion_ball(s, 2) for s in seqs}
        for i, a in enumerate(seqs):
            xa = BitSeq(a)
            ba = balls[a]
            for b in seqs[i + 1 :]:
                size = len(ba & balls[b])
                pred = predict_i2_range(xa, BitSeq(b))
                assert pred.lo <= size <= pred.hi, (a, b, size, pred)
                pairs += 1
    report(2, f"{pairs} pairs, zero class violations")


def test_c03_window_classification_complete():
    """Exhaustive windows |v| <= 11: predicted offset equals brute force."""
    checked = 0
    for a in (0, 1):
        for b in (0, 1):
            for lv in range(0, 12):
                for vs in brute.all_seqs(lv):
                    v = BitSeq(vs)
                    if excluded_by_rsv(a, b, v):
                        continue
                    x, y = window_pair(a, b, v)
                    size = len(brute.insertion_ball(str(x), 2) & brute.insertion_ball(str(y), 2))
                    offset = int(classify_window(a, b, v).offset)
                    assert offset in (3, 4, 5)
                    assert size == lv + 3 + offset, (a, b, vs, size, offset)
                    checked += 1
    report(3, f"{checked} windows, offsets all in {{3,4,5}} and exact")


def test_c04_window_decomposition_exhaustive():
    """All fragment tuples with |x| <= 10: decomposition equals brute force."""
    ball_cache = {}

    def ball2(s):
        if s not in ball_cache:
            ball_cache[s] = brute.insertion_ball(s, 2)
        return ball_cache[s]

    flip = {"0": "1", "1": "0"}
    checked = gated = 0
    for n in range(3, 11):
        for lu in range(0, n - 2):
            for lw in range(0, n - 2 - lu):
                lv = n - 3 - lu - lw
                for us in brute.all_seqs(lu):
                    for ws in brute.all_seqs(lw):
                        for vs in brute.all_seqs(lv):
                            for a in "01":
                                for b in "01":
                                    xs = us + a + flip[a] + vs + b + ws
                                    ys = us + flip[a] + vs + b + flip[b] + ws
                                    ua, va, wa = BitSeq(us), BitSeq(vs), BitSeq(ws)
                                    if classify_pair(BitSeq(xs), BitSeq(ys)).kind.type_a:
                                        with pytest.raises(ValueError):
                                            intersect2_decomposed(ua, int(a), va, int(b), wa)
                                        gated += 1
                                        continue
                                    got = {str(s) for s in intersect2_decomposed(ua, int(a), va, int(b), wa)}
                                    want = ball2(xs) & ball2(ys)
                                    assert got == set(want), (xs, ys)
                                    # disjointness, rebuilt from scratch
                                    zs = us + a + flip[a] + vs + b + flip[b] + ws
                                    part1 = brute.insertion_ball(zs, 1)
                                    core_x = a + flip[a] + vs + b
                                    core_y = flip[a] + vs + b + flip[b]
                                    core_z = a + flip[a] + vs + b + flip[b]
                                    inner = (
                                        ball2(core_x) & ball2(core_y)
                                    ) - brute.insertion_ball(core_z, 1)
                                    part2 = {us + s + ws for s in inner}
                                    assert not (part1 & part2)
                                    assert part1 | part2 == set(want)
                                    checked += 1
    report(4, f"{checked} tuples exact and disjoint, {gated} Type-A tuples rejected")


def test_c05_periodic_set_size_bound():
    """count_r(n, l, ceil(log2 n) + l + 1) >= 2^(n-1) for n in [6, 20], l in {2, 3}."""
    rows = 0
    for n in range(6, 21):
        for ell in (2, 3):
            t = ceil(log2(n)) + ell + 1
            assert count_r(n, ell, t) >= 2 ** (n - 1), (n, ell, t)
            rows += 1
    report(5, f"{rows} (n, l) combinations, exact integer comparisons")


def test_c05b_periodic_set_size_bound_past_the_cap():
    """The same bound at n from 21 to 1024, past ENUM_CAP, by exact integer
    comparison: count_r walks the automaton of R and enumerates no word."""
    ratios = {}
    for n in (21, 26, 27, 40, 63, 64, 100, 128, 256, 512, 1024):
        for ell in (2, 3):
            t = ceil(log2(n)) + ell + 1
            size = count_r(n, ell, t)
            assert size >= 2 ** (n - 1), (n, ell, t)
            ratios[n, ell] = size / 2 ** (n - 1)
    (n, ell), low = min(ratios.items(), key=lambda kv: kv[1])
    report(5, f"{len(ratios)} (n, l) combinations up to n = 1024; "
              f"smallest |R| / 2^(n-1) is {low:.3f} at n = {n}, l = {ell}")


def test_c06_np4_sweep_all_cosets():
    """n in [10, 14], P = 9: every coset has 2-insertion coverage <= n+3."""
    P = 9
    for n in range(10, 15):
        ambient = count_r(n, 3, P // 3)
        groups = coset_partition("np4", n, P=P)
        assert sum(len(c) for c in groups.values()) == ambient
        max_size = 0
        for params, code in groups.items():
            max_size = max(max_size, len(code))
            if len(code) >= 2:
                assert read_coverage(code, 2) <= n + 3, params
            assert verify_reconstruction_code(code, 2, n + 4).ok
        # pigeonhole at desk scale
        assert max_size >= ambient / (2 * (1 + P))
    report(6, "n in [10,14], P=9: all cosets verified at N=n+4, pigeonhole holds")


def test_c06b_np4_sweep_rich_cosets():
    """n in [10, 16], P in {12, 18}: every coset verified at N = n+4, on
    ambient sets rich enough that the largest coset has at least 100 words."""
    lines = []
    for P in (12, 18):
        largest = pairs = 0
        for n in range(10, 17):
            groups = coset_partition("np4", n, P=P)
            assert sum(len(c) for c in groups.values()) == count_r(n, 3, P // 3)
            for params, code in groups.items():
                assert verify_reconstruction_code(code, 2, n + 4).ok, params
                pairs += comb(len(code), 2)
            biggest = max(groups.values(), key=len)
            assert read_coverage(biggest, 2) <= n + 3
            largest = max(largest, len(biggest))
        assert pairs > 0
        assert largest >= 100
        lines.append(f"P={P}: largest coset {largest} words, {pairs} pairs decided")
    report("6b", "n in [10,16], all cosets verified at N=n+4; " + "; ".join(lines))


def test_c07_np5_sweep_all_cosets():
    """n in [10, 14], P = 9: every coset has 2-insertion coverage <= n+4."""
    P = 9
    total = 0
    for n in range(10, 15):
        groups = coset_partition("np5", n, P=P)
        assert sum(len(c) for c in groups.values()) == count_r(n, 2, 2 * P // 3)
        for params, code in groups.items():
            assert verify_reconstruction_code(code, 2, n + 5).ok, params
            total += 1
    report(7, f"{total} cosets verified at N=n+5 across n in [10,14]")


def test_c08_two_insertion_code_cosets_have_disjoint_balls():
    """n in [8, 10]: every coset of the parity-check code: empty I2 overlaps.

    The twoins code takes the m1 weights in the second h component, as the
    printed whole-sequence checks do.  The windowed checks print m0; the
    cosets of the whole-sequence checks with m0 are grouped here from
    parity_checks(x, "m0"), and the test identifies which of the two carries
    the two-insertion correction property.
    """
    violations = {"m0": 0, "m1": 0}
    pair_counts = {"m0": 0, "m1": 0}
    for n in (8, 9, 10):
        m0_cosets = {}
        for v in range(1 << n):
            x = BitSeq.from_int(v, n)
            m0_cosets.setdefault(parity_checks(x, "m0").residues(), []).append(x)
        cosets = {"m1": coset_partition("twoins", n).values(), "m0": m0_cosets.values()}
        for h_second, groups in cosets.items():
            for code in groups:
                for x, y in combinations(list(code), 2):
                    pair_counts[h_second] += 1
                    if len(intersect_balls(x, y, 2)) > 0:
                        violations[h_second] += 1
    passing = sorted(k for k, v in violations.items() if v == 0)
    assert "m1" in passing, (
        "the m1 form (as printed for the whole-sequence checks) must correct "
        f"two insertions, got {violations['m1']} violations"
    )
    report(
        8,
        f"h-variant results: m1 -> {violations['m1']} violations / "
        f"{pair_counts['m1']} pairs, m0 -> {violations['m0']} violations / "
        f"{pair_counts['m0']} pairs; passing variant(s): {passing}",
    )


def test_c09a_window_whole_consistency():
    """10^4 random (x, k): windowed checks equal whole checks on the window."""
    rng = random.Random(1234)
    for case in range(10_000):
        h_second = "m0" if case % 2 == 0 else "m1"
        m = rng.randint(2, 8)
        s_count = rng.randint(2, 6)
        n = m * s_count
        x = BitSeq.from_int(rng.getrandbits(n), n)
        k = rng.randint(0, s_count - 2)
        window = str(x.subword(k * m + 1, k * m + 2 * m))
        moduli = (4 * m, 4 * m * m, 8 * m**3, 3, 4 * m)
        f, h = brute.parity_checks(window, moduli, h_second)
        got = segment_checks(x, k, m, h_second)
        assert got.f == f and got.h == h, (str(x), k, m, h_second)
    report("9a", "10000 random window/whole consistency cases, exact")


def test_c09b_tilde_sum_telescoping():
    """Pairs differing inside one window: the parity-side sum difference
    localizes to that window's checks, componentwise and exactly."""
    rng = random.Random(4321)
    for case in range(500):
        m = rng.randint(2, 6)
        s_count = rng.randint(2, 7)
        n = m * s_count
        x = BitSeq.from_int(rng.getrandbits(n), n)
        k = rng.randint(0, s_count - 2)
        # flip a nonempty random subset of window k's positions
        span = list(range(k * m + 1, k * m + 2 * m + 1))
        flips = rng.sample(span, rng.randint(1, len(span)))
        mask = 0
        for pos in flips:
            mask |= 1 << (n - pos)
        y = BitSeq.from_int(x.val ^ mask, n)
        sx, sy = tilde_sums(x, m), tilde_sums(y, m)
        fx, fy = segment_checks(x, k, m), segment_checks(y, k, m)
        side_x, side_y = (sx.even, sy.even) if k % 2 == 0 else (sx.odd, sy.odd)
        for idx, mod in enumerate(fx.moduli):
            want = (fx.residues()[idx] - fy.residues()[idx]) % mod
            got = (side_x.residues()[idx] - side_y.residues()[idx]) % mod
            assert got == want, (str(x), str(y), k, m, idx)
    report("9b", "500 constructed single-window pairs telescope exactly")


def test_c09c_five_read_cosets_at_desk_scale():
    """n in {23, 24}, P = 3: nonempty cosets are tiny; any pair overlaps <= 4."""
    P = 3
    lines = []
    for n in (23, 24):
        groups = coset_partition("fiveread", n, P=P)
        ambient = count_r(n, 3, P)
        assert sum(len(c) for c in groups.values()) == ambient
        multi = {p: c for p, c in groups.items() if len(c) >= 2}
        pairs = 0
        for params, code in multi.items():
            for x, y in combinations(list(code), 2):
                assert len(intersect_balls(x, y, 2)) <= 4, (params, str(x), str(y))
                pairs += 1
        lines.append(
            f"n={n}: ambient={ambient}, cosets={len(groups)}, "
            f"multi-member={len(multi)}, pairs checked={pairs}"
        )
    report("9c", "; ".join(lines))


def test_c10_three_insertion_bound():
    """n in [5, 8], t = 3: brute max over |I1 cap I1| = 1 pairs <= the bound."""
    for n in range(5, 9):
        vals = [BitSeq(s) for s in brute.all_seqs(n)]
        b1 = {x.val: frozenset(insertion_ball(x, 1).values()) for x in vals}
        b3 = {}
        worst = 0
        for i, x in enumerate(vals):
            for y in vals[i + 1 :]:
                if len(b1[x.val] & b1[y.val]) != 1:
                    continue
                for w in (x, y):
                    if w.val not in b3:
                        b3[w.val] = frozenset(insertion_ball(w, 3).values())
                worst = max(worst, len(b3[x.val] & b3[y.val]))
        bound = t_insertion_bound(n, 3)
        assert worst <= bound, (n, worst, bound)
        report(10, f"n={n}: max |I3 cap I3| = {worst} <= bound {bound}")


def test_c11_reconstruction_round_trip():
    """1000 seeded trials each: np4 code at (n=12, P=9, N=16, t=2) and a VT
    code at (n=10, N=3, t=1) decode uniquely to the ground truth."""
    params, code = best_coset("np4", 12, P=9)
    summary = run_experiment(code, t=2, reads=12 + 4, trials=1000, seed=20240917)
    assert summary.unique == 1000
    assert summary.correct == 1000
    assert summary.unique_rate == 1.0

    vt = VTParams(10, 0).members()
    vt_summary = run_experiment(vt, t=1, reads=3, trials=1000, seed=20240918)
    assert vt_summary.unique == 1000
    assert vt_summary.correct == 1000
    report(
        11,
        f"np4 best coset {params.params_dict()} size={len(code)} and VT(10, a=0): "
        "1000/1000 unique and correct in both experiments",
    )


def test_c11b_round_trip_on_a_rich_coset():
    """The np4 best coset at (n=14, P=18), 304 words: every seeded trial at
    N = n+4 = 18 reads decodes uniquely to the ground truth."""
    params, code = best_coset("np4", 14, P=18)
    assert len(code) == 304
    summary = run_experiment(code, t=2, reads=18, trials=300, seed=20261018)
    assert summary.trials == 300
    assert summary.unique == summary.correct == 300
    report("11b", f"np4 best coset {params.params_dict()} size=304: 300/300 unique and correct")


def test_c12_closed_forms_match_enumeration():
    """Ball sizes and intersection maxima agree with Eqs for n <= 8, t <= 2."""
    # sizes
    for n in range(0, 9):
        for t in (0, 1, 2):
            for s in ("0" * n, "01" * (n // 2) + "0" * (n % 2)):
                assert len(brute.insertion_ball(s, t)) == ball_size_formula(n, t)
    # reductions
    for n in range(1, 9):
        for t in (1, 2):
            assert nplus_ell_formula(n, t, 0) == ball_size_formula(n, t)
            assert nplus_ell_formula(n, t, 1) == nplus_formula(n, t)
    # maxima over pairs, including the printed instances 2n+4 and 6
    for n in range(2, 9):
        seqs = brute.all_seqs(n)
        b1 = {s: brute.insertion_ball(s, 1) for s in seqs}
        b2 = {s: brute.insertion_ball(s, 2) for s in seqs}
        m1 = m2 = m22 = 0
        for i, a in enumerate(seqs):
            for b in seqs[i + 1 :]:
                m1 = max(m1, len(b1[a] & b1[b]))
                m2 = max(m2, len(b2[a] & b2[b]))
                if insertion_distance(BitSeq(a), BitSeq(b)) >= 2:
                    m22 = max(m22, len(b2[a] & b2[b]))
        assert m1 == nplus_formula(n, 1)
        assert m2 == nplus_formula(n, 2) == 2 * n + 4
        assert m22 == nplus_ell_formula(n, 2, 2) == 6
    report(12, "sizes and maxima match the closed forms for n <= 8, t <= 2")
