"""Confusability classification, windows, and the window-size decomposition."""

import hashlib
import random
from itertools import product

import pytest

import brute
from insrecon.balls import SeqSet, insertion_ball, intersect_balls
from insrecon.confusability import (
    Confusability,
    SizeOffset,
    classify_pair,
    classify_window,
    excluded_by_rsv,
    intersect2_decomposed,
    locate_window,
    localization_bound_holds,
    predict_i1_size,
    predict_i2_range,
    window_pair,
)
from insrecon.seqs import BitSeq, alternating, in_r, symbol


def test_classify_examples():
    both = classify_pair(BitSeq("11101010"), BitSeq("11010110"))
    assert both.kind is Confusability.BOTH
    a_only = classify_pair(BitSeq("111010"), BitSeq("110110"))
    assert a_only.kind is Confusability.TYPE_A_ONLY
    b_only = classify_pair(BitSeq("1110100110"), BitSeq("1101001010"))
    assert b_only.kind is Confusability.TYPE_B_ONLY
    neither = classify_pair(BitSeq("0011"), BitSeq("1110"))
    assert neither.kind is Confusability.NEITHER
    assert neither.type_a_witness is None and neither.type_b_witness is None


def test_classify_single_flip_is_type_a():
    # Hamming distance 1 pairs always carry a length-one alternating block
    v = classify_pair(BitSeq("110"), BitSeq("100"))
    assert v.kind.type_a
    assert str(v.type_a_witness.w) == "1"


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_pair(BitSeq("10"), BitSeq("10"))
    with pytest.raises(ValueError):
        classify_pair(BitSeq("10"), BitSeq("100"))


@pytest.mark.parametrize("n", range(2, 8))
def test_classify_matches_definitional_oracle(n):
    seqs = brute.all_seqs(n)
    for i, a in enumerate(seqs):
        for b in seqs[i + 1 :]:
            verdict = classify_pair(BitSeq(a), BitSeq(b))
            assert verdict.kind.type_a == brute.type_a_confusable(a, b), (a, b)
            assert verdict.kind.type_b == brute.type_b_confusable(a, b), (a, b)


@pytest.mark.parametrize("n", range(2, 7))
def test_witnesses_reassemble_bit_exact(n):
    seqs = brute.all_seqs(n)
    for i, a in enumerate(seqs):
        for b in seqs[i + 1 :]:
            x, y = BitSeq(a), BitSeq(b)
            verdict = classify_pair(x, y)
            if verdict.type_a_witness is not None:
                w = verdict.type_a_witness
                assert w.w.n >= 1
                assert w.assemble() == (x, y)
            if verdict.type_b_witness is not None:
                assert set(verdict.type_b_witness.assemble()) == {x, y}


def test_type_a_witness_propagates_to_type_b_exactly_on_long_blocks():
    # with the block stripped maximally, Type-B co-occurs iff the block is
    # (10)^m / (01)^m with m >= 2, or (10)^m 1 / (01)^m 0 with m >= 1
    for n in range(2, 9):
        for a in brute.all_seqs(n):
            for b in brute.all_seqs(n):
                if a >= b:
                    continue
                x, y = BitSeq(a), BitSeq(b)
                verdict = classify_pair(x, y)
                if not verdict.kind.type_a:
                    continue
                w = str(verdict.type_a_witness.w)
                m, r = divmod(len(w), 2)
                if r == 0:
                    special = m >= 2 and w in ("10" * m, "01" * m)
                else:
                    special = m >= 1 and w in ("10" * m + "1", "01" * m + "0")
                assert verdict.kind.type_b == special, (a, b, w)


def test_predict_i1_examples():
    assert predict_i1_size(BitSeq("10"), BitSeq("01")) == 2
    assert predict_i1_size(BitSeq("1110100110"), BitSeq("1101001010")) == 1
    assert predict_i1_size(BitSeq("0011"), BitSeq("1110")) == 0


def test_predict_i2_examples():
    r = predict_i2_range(BitSeq("111010"), BitSeq("110110"))
    assert (r.lo, r.hi) == (16, 16)
    assert len(intersect_balls(BitSeq("111010"), BitSeq("110110"), 2)) == 16

    x, y = BitSeq("1110100110"), BitSeq("1101001010")
    r = predict_i2_range(x, y)
    assert (r.lo, r.hi) == (13, 15)
    assert r.lo <= len(intersect_balls(x, y, 2)) <= r.hi

    r = predict_i2_range(BitSeq("0011"), BitSeq("1110"))
    assert (r.lo, r.hi) == (0, 6)
    assert len(intersect_balls(BitSeq("0011"), BitSeq("1110"), 2)) <= 6

    with pytest.raises(ValueError):
        predict_i2_range(BitSeq("011"), BitSeq("101"))


# ---------------------------------------------------------------------------
# degenerate windows and window classification


def test_excluded_by_rsv_examples():
    assert excluded_by_rsv(1, 1, BitSeq(""))
    assert excluded_by_rsv(0, 0, BitSeq(""))
    assert excluded_by_rsv(1, 0, BitSeq("1"))
    assert not excluded_by_rsv(1, 1, BitSeq("1"))
    assert excluded_by_rsv(1, 1, BitSeq("10"))
    assert excluded_by_rsv(0, 1, BitSeq("010"))
    assert not excluded_by_rsv(0, 1, BitSeq("011"))


def test_excluded_by_rsv_is_exactly_the_type_a_degeneracy():
    # excluded (a, b, v) <=> the window pair itself is Type-A confusable
    for a in (0, 1):
        for b in (0, 1):
            for lv in range(0, 7):
                for vs in brute.all_seqs(lv):
                    v = BitSeq(vs)
                    x, y = window_pair(a, b, v)
                    assert excluded_by_rsv(a, b, v) == classify_pair(x, y).kind.type_a


def test_classify_window_examples():
    got = classify_window(1, 1, BitSeq("1"))
    assert got.offset is SizeOffset.PLUS5
    assert len(intersect_balls(*window_pair(1, 1, BitSeq("1")), 2)) == 4 + 5

    got = classify_window(1, 1, BitSeq("00"))
    assert got.offset is SizeOffset.PLUS4
    assert got.matched_form == "row-1"
    x, y = window_pair(1, 1, BitSeq("00"))
    assert (str(x), str(y)) == ("10001", "00010")
    assert len(intersect_balls(x, y, 2)) == 5 + 4

    got = classify_window(1, 0, BitSeq(""))
    assert got.offset is SizeOffset.PLUS5
    x, y = window_pair(1, 0, BitSeq(""))
    assert (str(x), str(y)) == ("100", "001")
    assert len(intersect_balls(x, y, 2)) == 3 + 5


def test_classify_window_rejects_degenerate():
    with pytest.raises(ValueError):
        classify_window(1, 1, BitSeq("10"))


def test_classify_window_form_present_iff_plus45():
    for a in (0, 1):
        for b in (0, 1):
            for lv in range(0, 8):
                for vs in brute.all_seqs(lv):
                    v = BitSeq(vs)
                    if excluded_by_rsv(a, b, v):
                        continue
                    got = classify_window(a, b, v)
                    assert (got.matched_form is not None) == (
                        got.offset in (SizeOffset.PLUS4, SizeOffset.PLUS5)
                    )


# sha256 of the "a b v offset form" listing below, taken from the earlier
# generate-and-compare classifier that the pattern table replaced
WINDOW_LISTING_SHA256 = "836d39be353397fe4e2b67544b9cb55788d7c703f7293a6719a61e2e64d9e74a"
FORMS = [f"alt-family-{i}" for i in range(1, 5)] + [f"row-{i}" for i in range(1, 9)]


def test_classify_window_names_are_pinned():
    digest, seen = hashlib.sha256(), set()
    for lv in range(0, 11):
        for bits in range(1 << lv):
            v = BitSeq.from_int(bits, lv)
            for a, b in product((0, 1), repeat=2):
                if excluded_by_rsv(a, b, v):
                    continue
                got = classify_window(a, b, v)
                digest.update(f"{a} {b} {v} {int(got.offset)} {got.matched_form}\n".encode())
                seen.add(got.matched_form)
    assert digest.hexdigest() == WINDOW_LISTING_SHA256
    assert seen == {None, *FORMS}


@pytest.mark.parametrize("lv", range(0, 8))
def test_classify_window_matches_brute_force(lv):
    # the acceptance suite extends this sweep to |v| <= 11
    for a in (0, 1):
        for b in (0, 1):
            for vs in brute.all_seqs(lv):
                v = BitSeq(vs)
                if excluded_by_rsv(a, b, v):
                    continue
                x, y = window_pair(a, b, v)
                size = len(intersect_balls(x, y, 2))
                assert size - (lv + 3) == int(classify_window(a, b, v).offset), (a, b, vs)


def test_window_base_case_decomposes_into_ball_plus_corner():
    # I2(x) cap I2(y) = I1(a a~ v b b~)  disjoint-union  a~ (I1(a a~ v) cap I1(v b b~)) b
    for a in (0, 1):
        for b in (0, 1):
            for lv in range(0, 7):
                for vs in brute.all_seqs(lv):
                    v = BitSeq(vs)
                    if excluded_by_rsv(a, b, v):
                        continue
                    x, y = window_pair(a, b, v)
                    sa, sb = symbol(a), symbol(b)
                    z = sa + sa.complement() + v + sb + sb.complement()
                    corner_inner = intersect_balls(
                        sa + sa.complement() + v, v + sb + sb.complement(), 1
                    )
                    corner = SeqSet(
                        z.n + 1, (sa.complement() + s + sb for s in corner_inner)
                    )
                    whole = intersect_balls(x, y, 2)
                    ball = insertion_ball(z, 1)
                    assert len(corner) <= 2
                    assert ball.isdisjoint(corner)
                    assert whole == ball | corner


# ---------------------------------------------------------------------------
# window location and the core-length bound


def test_locate_window_examples():
    split = locate_window(BitSeq("10001"), BitSeq("00010"))
    assert (split.i, split.j) == (1, 5)
    assert split.u.n == 0 and split.w.n == 0
    assert str(split.core_x) == "10001"

    split = locate_window(BitSeq("1100011"), BitSeq("1000101"))
    assert str(split.u) == "1"
    assert str(split.w) == "1"
    assert str(split.core_x) == "10001"
    assert str(split.core_y) == "00010"

    with pytest.raises(ValueError):
        locate_window(BitSeq("100"), BitSeq("101"))


def test_locate_window_reassembles():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 14)
        x = BitSeq.from_int(rng.getrandbits(n), n)
        y = BitSeq.from_int(rng.getrandbits(n), n)
        if x == y or (x.val ^ y.val).bit_count() < 2:
            continue
        s = locate_window(x, y)
        assert s.u + s.core_x + s.w == x
        assert s.u + s.core_y + s.w == y
        assert s.core_x.bit(1) != s.core_y.bit(1)
        assert s.core_x.bit(s.core_x.n) != s.core_y.bit(s.core_y.n)


def test_localization_bound_on_qualifying_pairs():
    # pairs inside R(n, 3, P) with |I2 cap I2| in {5, 6} must have a differing
    # core of length <= 7P+1.  P = 4 yields hundreds of qualifying pairs; at
    # P = 3 the ambient has six far-apart members and none qualify.
    for P, n, expect_hits in ((4, 8, True), (4, 10, True), (3, 12, False)):
        members = [BitSeq(s) for s in brute.all_seqs(n) if in_r(BitSeq(s), 3, P)]
        found = 0
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if len(intersect_balls(x, y, 2)) in (5, 6):
                    found += 1
                    assert localization_bound_holds(x, y, P)
        assert (found > 0) == expect_hits, (P, n, found)


def test_localization_bound_precondition_errors():
    # |I2 cap I2| = 22 for equal-ish windows: use a pair with intersection 4
    x, y = BitSeq("01100110"), BitSeq("10011001")
    size = len(intersect_balls(x, y, 2))
    assert size not in (5, 6)
    if in_r(x, 3, 3) and in_r(y, 3, 3):
        with pytest.raises(ValueError):
            localization_bound_holds(x, y, 3)
    with pytest.raises(ValueError):
        # 11110000 has a run of four, so it is outside R(n, 3, 3)
        localization_bound_holds(BitSeq("11110000"), BitSeq("00001111"), 3)


# ---------------------------------------------------------------------------
# the two-insertion window decomposition


def test_decomposition_equals_brute_force_sampled():
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        lu, lv, lw = rng.randint(0, 3), rng.randint(0, 4), rng.randint(0, 3)
        u = BitSeq.from_int(rng.getrandbits(lu) if lu else 0, lu)
        v = BitSeq.from_int(rng.getrandbits(lv) if lv else 0, lv)
        w = BitSeq.from_int(rng.getrandbits(lw) if lw else 0, lw)
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        sa, sb = symbol(a), symbol(b)
        x = u + sa + sa.complement() + v + sb + w
        y = u + sa.complement() + v + sb + sb.complement() + w
        if classify_pair(x, y).kind.type_a:
            continue
        got = intersect2_decomposed(u, a, v, b, w)
        assert got == intersect_balls(x, y, 2)
        checked += 1


def test_decomposition_base_case_reduces_to_window():
    # u = w = empty: the result is exactly the window intersection
    e = BitSeq("")
    for a in (0, 1):
        for b in (0, 1):
            for vs in brute.all_seqs(4):
                v = BitSeq(vs)
                x, y = window_pair(a, b, v)
                if classify_pair(x, y).kind.type_a:
                    continue
                assert intersect2_decomposed(e, a, v, b, e) == intersect_balls(x, y, 2)


def test_decomposition_rejects_type_a_pairs():
    # a = b with alternating v of even length starting at a is degenerate
    with pytest.raises(ValueError):
        intersect2_decomposed(BitSeq("1"), 1, BitSeq("10"), 1, BitSeq("0"))
    with pytest.raises(ValueError):
        intersect2_decomposed(BitSeq(""), 1, alternating(1, 3), 0, BitSeq(""))
