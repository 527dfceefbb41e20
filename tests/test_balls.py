"""Ball enumeration, formulas, intersections, and coverage tests."""

import random
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from insrecon import balls
from insrecon.balls import (
    SeqSet,
    _deletion_table,
    _insertion_table,
    ball_size_formula,
    coverage_argmax,
    coverage_at_least,
    coverage_less_than,
    deletion_ball,
    insertion_ball,
    intersect_balls,
    nplus_ell_formula,
    nplus_formula,
    read_coverage,
    t_insertion_bound,
)
from insrecon.seqs import BitSeq, EnumerationCapError, SequenceTooLongError, insertion_distance


def as_strs(seqset):
    return [str(s) for s in seqset]


# ---------------------------------------------------------------------------
# SeqSet


def test_seqset_dedup_and_sorted_iteration():
    s = SeqSet(3, [BitSeq("110"), BitSeq("010"), BitSeq("110")])
    assert len(s) == 2
    assert as_strs(s) == ["010", "110"]
    assert BitSeq("110") in s
    assert BitSeq("111") not in s


def test_seqset_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        SeqSet(3, [BitSeq("110"), BitSeq("11")])


def test_seqset_serialization_roundtrip():
    s = SeqSet(4, [BitSeq("1010"), BitSeq("0001"), BitSeq("1111")])
    text = s.to_lines()
    assert text == "0001\n1010\n1111\n"
    assert SeqSet.parse_lines(text) == s
    assert SeqSet.parse_lines(text, 4) == s
    with pytest.raises(ValueError):
        SeqSet.parse_lines("10\n110\n")


def _parse_per_line(text, n):
    """The per-line reading parse_lines must agree with: (n, values) or the error text."""
    lines = [ln.strip() for ln in text.splitlines()]
    if n != 0:
        lines = [ln for ln in lines if ln]
    if n is None:
        if not lines:
            return "cannot infer length from empty input"
        n = len(lines[0])
    if not 0 <= n <= 64:
        return f"code length {n} out of range 0..64"
    vals = set()
    for ln in lines:
        if len(ln) != n or set(ln) - {"0", "1"}:
            return f"bad sequence line: {ln!r}"
        vals.add(int(ln, 2) if ln else 0)
    return n, vals


_line_chars = st.sampled_from(["0", "1", "0", "1", " ", "\t", "2", "\xa0", "\x1f"])
_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])


@given(
    lines=st.lists(st.text(_line_chars, max_size=7), max_size=8),
    breaks=st.lists(_breaks, min_size=8, max_size=8),
    n=st.one_of(st.none(), st.integers(-1, 7)),
)
@example(lines=["1" * 64, "0" * 63 + "1"], breaks=["\n"] * 8, n=None)  # the top bit of uint64
@example(lines=["1" * 65, "0" * 65], breaks=["\n"] * 8, n=65)  # wider than a word: refused
@example(lines=["", " ", ""], breaks=["\n"] * 8, n=0)  # each line the empty word
@example(lines=["01", "1 0", "2"], breaks=["\n"] * 8, n=2)  # the first bad line is named
def test_parse_lines_matches_per_line_reading(lines, breaks, n):
    text = "".join(ln + br for ln, br in zip(lines, breaks))
    want = _parse_per_line(text, n)
    try:
        got = SeqSet.parse_lines(text, n)
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert (got.n, set(got.values())) == want


def test_parse_lines_refuses_a_length_above_64_before_reading_the_lines():
    text = "1" * 65 + "\n" + "2" * 65
    with mock.patch.object(np, "frombuffer", side_effect=AssertionError("lines were read")):
        for n, width in ((None, 65), (65, 65), (-1, -1)):
            with pytest.raises(SequenceTooLongError, match=f"^code length {width} out of range"):
                SeqSet.parse_lines(text, n)


def test_seqset_set_ops():
    a = SeqSet(2, [BitSeq("00"), BitSeq("01")])
    b = SeqSet(2, [BitSeq("01"), BitSeq("10")])
    assert as_strs(a & b) == ["01"]
    assert as_strs(a | b) == ["00", "01", "10"]
    assert as_strs(a - b) == ["00"]
    with pytest.raises(ValueError):
        a & SeqSet(3, [])


@settings(max_examples=300)
@given(data=st.data(), n=st.sampled_from([0, 1, 5, 64, 65]))
def test_seqset_matches_frozenset_model(data, n):
    """Every SeqSet operation against Python frozensets of packed values;
    a set of 65-bit words is refused, however it is built."""
    words = st.integers(0, (1 << n) - 1)
    xs = data.draw(st.lists(words, max_size=12))
    if n > 64:
        for build in (lambda: SeqSet._from_vals(n, xs), lambda: SeqSet(n, [])):
            with pytest.raises(SequenceTooLongError, match=f"^code length {n} out of range"):
                build()
        return
    ys = data.draw(st.lists(st.sampled_from(xs) | words if xs else words, max_size=12))
    a, b = SeqSet._from_vals(n, xs), SeqSet._from_vals(n, ys)
    fa, fb = frozenset(xs), frozenset(ys)
    assert a._array().dtype == np.uint64
    assert len(a) == len(fa)
    assert a.values() == sorted(fa)
    assert all(type(v) is int for v in a.values())
    assert (a & b).values() == sorted(fa & fb)
    assert (a | b).values() == sorted(fa | fb)
    assert (a - b).values() == sorted(fa - fb)
    assert a.isdisjoint(b) == fa.isdisjoint(fb)
    assert (a == b) == (fa == fb)
    same = SeqSet._from_vals(n, sorted(fa, reverse=True) + xs)
    assert same == a and hash(same) == hash(a)
    if fa == fb:
        assert hash(a) == hash(b)
    # another length within 0..64
    assert a != SeqSet._from_vals(n + 1 if n < 64 else n - 1, xs) and a != fa
    for m in {n + 1, abs(n - 1)} - {65}:
        for op in (a.__and__, a.__or__, a.__sub__, a.isdisjoint):
            with pytest.raises(ValueError, match="length mismatch"):
                op(SeqSet._from_vals(m, []))
    assert BitSeq.from_int(0, 2 if n == 1 else 1) not in a and 0 not in a
    assert [s.val for s in a] == sorted(fa)
    for v in xs + ys:
        assert (BitSeq.from_int(v, n) in a) == (v in fa)
    assert SeqSet(n, [BitSeq.from_int(v, n) for v in xs]) == a
    assert SeqSet._from_vals(n, np.array(xs, dtype=np.uint64)) == a
    if n <= 32:
        assert SeqSet._from_vals(n, np.array(xs, dtype=np.uint32)) == a


def test_seqset_keeps_a_strictly_increasing_array_without_a_copy():
    inc = np.array([1, 4, 9], dtype=np.uint64)
    kept = SeqSet._from_vals(4, inc)
    assert kept._array() is inc and not inc.flags.writeable
    for other in ([9, 4, 1], [1, 4, 4, 9]):  # unsorted, or not strictly increasing
        arr = np.array(other, dtype=np.uint64)
        got = SeqSet._from_vals(4, arr)
        assert got == kept and not np.shares_memory(got._array(), arr)
        assert arr.tolist() == other and arr.flags.writeable
    with pytest.raises(ValueError):
        kept._array()[0] = 2


# ---------------------------------------------------------------------------
# insertion/deletion balls


def test_insertion_ball_examples():
    x = BitSeq("10")
    assert insertion_ball(x, 0) == SeqSet(2, [x])
    assert as_strs(insertion_ball(x, 1)) == ["010", "100", "101", "110"]
    assert len(insertion_ball(BitSeq("0101"), 2)) == 22


@pytest.mark.parametrize("n", range(0, 11))
@pytest.mark.parametrize("t", range(0, 4))
def test_ball_size_matches_formula(n, t):
    # exhaustive over centers: the size must not depend on x
    want = ball_size_formula(n, t)
    for v in range(1 << n):
        got = len(insertion_ball(BitSeq.from_int(v, n), t))
        assert got == want, (n, t, v)


@pytest.mark.parametrize("n", range(0, 8))
def test_ball_matches_naive_dedupe(n):
    for s in brute.all_seqs(n):
        for t in (1, 2):
            got = set(as_strs(insertion_ball(BitSeq(s), t)))
            assert got == set(brute.insertion_ball(s, t))


def test_ball_cap():
    with pytest.raises(SequenceTooLongError):
        insertion_ball(BitSeq("1" * 63), 2)


def test_deletion_ball_examples():
    y = BitSeq("110")
    assert deletion_ball(y, 0) == SeqSet(3, [y])
    assert as_strs(deletion_ball(y, 1)) == ["10", "11"]
    with pytest.raises(ValueError):
        deletion_ball(y, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_deletion_ball_matches_naive(n):
    for s in brute.all_seqs(n):
        for t in range(0, min(n, 3) + 1):
            got = set(as_strs(deletion_ball(BitSeq(s), t)))
            assert got == set(brute.deletion_ball(s, t))


def test_insertion_deletion_duality_random():
    rng = random.Random(20240901)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        t = rng.randint(0, 2)
        x = BitSeq.from_int(rng.getrandbits(n), n)
        ball = list(insertion_ball(x, t))
        z = ball[rng.randrange(len(ball))]
        assert x in deletion_ball(z, t)
        other = BitSeq.from_int(rng.getrandbits(n + t), n + t)
        assert (other in insertion_ball(x, t)) == (x in deletion_ball(other, t))


# ---------------------------------------------------------------------------
# closed-form sizes


def test_formula_values():
    assert ball_size_formula(5, 0) == 1
    assert ball_size_formula(2, 1) == 4
    assert ball_size_formula(4, 2) == 22
    for n in range(1, 30):
        assert nplus_formula(n, 2) == 2 * n + 4
        assert nplus_formula(n, 0) == 0
    assert nplus_ell_formula(9, 2, 2) == 6


def test_nplus_1_matches_brute_max():
    seqs = brute.all_seqs(5)
    best = max(
        len(brute.insertion_ball(a, 1) & brute.insertion_ball(b, 1))
        for i, a in enumerate(seqs)
        for b in seqs[i + 1 :]
    )
    assert best == nplus_formula(5, 1) == 2


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("t", range(0, 3))
def test_nplus_ell_reductions(n, t):
    assert nplus_ell_formula(n, t, 0) == ball_size_formula(n, t)
    if t >= 1:
        assert nplus_ell_formula(n, t, 1) == nplus_formula(n, t)


# ---------------------------------------------------------------------------
# intersections


def test_intersect_examples():
    assert as_strs(intersect_balls(BitSeq("10"), BitSeq("01"), 1)) == ["010", "101"]
    assert len(intersect_balls(BitSeq("1011"), BitSeq("0110"), 2)) == 9
    x = BitSeq("0110")
    assert intersect_balls(x, x, 2) == insertion_ball(x, 2)
    with pytest.raises(ValueError):
        intersect_balls(BitSeq("1"), BitSeq("10"), 1)


def test_read_coverage_full_space():
    for n in (4, 5, 6):
        space = SeqSet(n, [BitSeq(s) for s in brute.all_seqs(n)])
        assert read_coverage(space, 2) == 2 * n + 4
    with pytest.raises(ValueError):
        read_coverage(SeqSet(4, [BitSeq("0000")]), 2)


def test_read_coverage_far_apart_code():
    # greedily keep only words pairwise at insertion distance >= 2
    n = 7
    kept = []
    for s in brute.all_seqs(n):
        x = BitSeq(s)
        if all(insertion_distance(x, y) >= 2 for y in kept):
            kept.append(x)
    code = SeqSet(n, kept)
    assert len(code) > 2
    exact = read_coverage(code, 2)
    assert exact <= 6
    # at bound 7 the threshold query skips every pair here; at 6 it may not
    for bound in range(exact + 3):
        assert coverage_less_than(code, 2, bound) == (exact < bound)


def test_coverage_argmax_attains_value():
    space = SeqSet(5, [BitSeq(s) for s in brute.all_seqs(5)])
    value, x, y = coverage_argmax(space, 2)
    assert value == read_coverage(space, 2)
    assert len(intersect_balls(x, y, 2)) == value


@pytest.mark.parametrize("t", (1, 2))
def test_threshold_query_agrees_with_exact(t):
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(4, 9)
        size = rng.randint(2, 24)
        members = {BitSeq.from_int(rng.getrandbits(n), n) for _ in range(size)}
        if len(members) < 2:
            continue
        code = SeqSet(n, members)
        exact = read_coverage(code, t)
        for bound in (1, 2, exact, exact + 1, 2 * n + 5):
            assert coverage_less_than(code, t, bound) == (exact < bound)


@st.composite
def ball_table_inputs(draw):
    n = draw(st.integers(0, 12))
    t = draw(st.integers(0, 3))
    vals = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    return n, t, vals


@given(ball_table_inputs())
@settings(max_examples=150)
def test_ball_table_rows_are_exact_balls(args):
    n, t, vals = args
    table = _insertion_table(vals, n, t)
    assert table.shape == (len(vals), ball_size_formula(n, t))
    for v, row in zip(vals, table):
        got = sorted(format(int(z), f"0{n + t}b") if n + t else "" for z in row)
        assert len(set(got)) == len(got)
        assert got == sorted(brute.insertion_ball(format(v, f"0{n}b") if n else "", t))


def word_str(v, n):
    return format(v, f"0{n}b") if n else ""


@pytest.mark.parametrize("n", range(11))
def test_deletion_table_rows_are_exact_balls(n):
    # every word of length n at every t: one column per set of deleted
    # positions, and each row's values are exactly the deletion ball
    for t in range(n + 1):
        table = _deletion_table(range(1 << n), n, t)
        assert table.shape == (1 << n, comb(n, t))
        for s, row in zip(brute.all_seqs(n), table.tolist()):
            assert {word_str(z, n - t) for z in row} == brute.deletion_ball(s, t)


@st.composite
def deletion_table_inputs(draw):
    # up to MAX_LEN = 64 bits, the widest word a BitSeq holds
    n = draw(st.integers(0, 64))
    t = draw(st.integers(0, min(n, 2)))
    vals = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    return n, t, vals


@given(deletion_table_inputs())
@settings(max_examples=150)
def test_deletion_table_rows_are_exact_balls_up_to_64_bits(args):
    n, t, vals = args
    table = _deletion_table(vals, n, t)
    assert table.shape == (len(vals), comb(n, t))
    for v, row in zip(vals, table.tolist()):
        assert {word_str(z, n - t) for z in row} == brute.deletion_ball(word_str(v, n), t)


def test_oversized_ball_tables_are_refused_before_allocating():
    # C(60, 30) > 2**26 deletion columns; I_40 of a 10-bit word > 2**26 words
    with pytest.raises(EnumerationCapError, match="deletion table of 118264581564861424 columns"):
        deletion_ball(BitSeq("01" * 30), 30)
    with pytest.raises(EnumerationCapError, match="insertion ball of .* words exceeds cap 2\\*\\*26"):
        insertion_ball(BitSeq("0110100110"), 40)
    with pytest.raises(ValueError, match="t must be >= 0"):
        _insertion_table([0], 4, -1)


def brute_worst(words, t):
    """(max overlap, x, y), lexicographically first on ties, from brute balls."""
    balls = [brute.insertion_ball(w, t) for w in words]
    value, i, j = max(
        (len(balls[i] & balls[j]), -i, -j)
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )
    return value, BitSeq(words[-i]), BitSeq(words[-j])


@st.composite
def small_codes(draw):
    n = draw(st.integers(1, 9))
    words = draw(
        st.lists(st.text("01", min_size=n, max_size=n), min_size=2, max_size=30, unique=True)
    )
    return n, sorted(words), draw(st.sampled_from((0, 1, 2, 3)))


@given(small_codes())
@settings(max_examples=60)
def test_coverage_views_match_brute(args):
    n, words, t = args
    code = SeqSet(n, [BitSeq(w) for w in words])
    worst = brute_worst(words, t)
    value = worst[0]
    # one pair block as usual, then one codeword (or pair) per block
    for block in (balls._BLOCK, 1):
        with mock.patch.object(balls, "_BLOCK", block):
            assert read_coverage(code, t) == value
            assert coverage_argmax(code, t) == worst
            for bound in range(value + 3):
                assert coverage_less_than(code, t, bound) == (value < bound)
                assert coverage_at_least(code, t, bound) == (None if value < bound else worst)


def test_coverage_argmax_ties_and_zero_overlap():
    # 38 pairs reach overlap 2 at t = 1; the first pair, (0000, 0011), has 0
    words = [s for s in brute.all_seqs(4) if s not in ("0001", "0010")]
    code = SeqSet(4, [BitSeq(s) for s in words])
    assert coverage_argmax(code, 1) == (2, BitSeq("0000"), BitSeq("0100"))
    # t = 0: every pair has overlap 0, so the two smallest words are reported
    code = SeqSet(3, [BitSeq("110"), BitSeq("011"), BitSeq("001")])
    assert coverage_argmax(code, 0) == (0, BitSeq("001"), BitSeq("011"))
    assert read_coverage(code, 0) == 0
    for small in (SeqSet(4, []), SeqSet(4, [BitSeq("0110")])):
        with pytest.raises(ValueError):
            read_coverage(small, 2)
        with pytest.raises(ValueError):
            coverage_argmax(small, 2)


# n + t = 65: balls no longer fit in uint64.  n + t = 63: they fit, but not
# with the two bits that tag them with their owner among three words.
@pytest.mark.parametrize("n", (63, 61))
def test_coverage_of_words_wider_than_a_machine_word(n):
    rng = random.Random(n)
    x = "".join(rng.choice("01") for _ in range(n))
    y = x[:30] + ("1" if x[30] == "0" else "0") + x[31:]  # one substitution
    z = "".join(rng.choice("01") for _ in range(n))
    words = sorted({x, y, z})
    code = SeqSet(n, [BitSeq(w) for w in words])
    worst = brute_worst(words, 2)
    value = worst[0]
    assert value > 6
    assert read_coverage(code, 2) == value
    assert coverage_argmax(code, 2) == worst
    assert not coverage_less_than(code, 2, value)
    assert coverage_less_than(code, 2, value + 1)


# ---------------------------------------------------------------------------
# the t-insertion bound


def test_t_insertion_bound_values():
    for n in range(3, 40):
        assert t_insertion_bound(n, 2) == n + 5
    assert t_insertion_bound(8, 3) == ball_size_formula(9, 2) + nplus_formula(7, 2)
    with pytest.raises(ValueError):
        t_insertion_bound(8, 1)


def test_t_insertion_bound_leading_term_trend():
    # bound / (n^2 / 2) should fall toward 1 as n grows (t = 3)
    ratios = [t_insertion_bound(n, 3) / (n * n / 2) for n in (64, 128, 256)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[0] < 1.25
