"""Ball enumeration, formulas, intersections, and coverage tests."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
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
    _run_starts,
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


def test_run_starts_match_a_plain_python_scan():
    """Every sorted row of 0..5 entries over three values, alone (1-D) and
    all of one length stacked (2-D, per row), as int64 and as object arrays
    of Python ints above 2**63, the dtype of fiveread keys."""
    for dtype, values in ((np.int64, (-2**63, 0, 2**63 - 1)),
                          (object, (2**63, 2**64 + 1, 3 * 2**70))):
        for length in range(6):
            rows = [list(r) for r in combinations_with_replacement(values, length)]
            want = [[i == 0 or r[i] != r[i - 1] for i in range(length)] for r in rows]
            for row, first in zip(rows, want):
                assert _run_starts(np.array(row, dtype=dtype)).tolist() == first, row
            got = _run_starts(np.array(rows, dtype=dtype).reshape(len(rows), length))
            assert got.dtype == bool and got.tolist() == want, (dtype, length)


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


def test_parse_lines_refuses_a_line_as_long_as_two_words():
    # "000010110" and its newline fill two 5-byte rows: "00001" and "0110\n"
    for text in ("000010110\n", "0000\n000010110\n"):
        with pytest.raises(ValueError, match="^bad sequence line: '000010110'$"):
            SeqSet.parse_lines(text, 4)


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


def test_insertion_table_splits_at_the_first_insertion():
    # the moved columns complement a bit among the top `top` bits of x, the
    # others start with them; together they are the whole table
    for n in range(1, 9):
        vals = np.arange(1 << n, dtype=np.uint64)
        for t in range(4):
            whole = np.sort(_insertion_table(vals, n, t), axis=1)
            for top in range(n + 1):
                moved = _insertion_table(vals, n, t, top, moved=True)
                home = _insertion_table(vals, n, t, top)
                both = np.sort(np.concatenate([moved, home], axis=1), axis=1)
                assert np.array_equal(both, whole), (n, t, top)
                prefix = (vals >> np.uint64(n - top))[:, None]
                assert (home >> np.uint64(n + t - top) == prefix).all()
                assert (moved >> np.uint64(n + t - top) != prefix).all()


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
# the banded common-supersequence count of the close pairs


def test_common_supersequences_equal_brute_balls_for_every_pair():
    for n in range(8):
        words = brute.all_seqs(n)
        x, y = (np.array(v, dtype=np.uint64) for v in zip(*product(range(1 << n), repeat=2)))
        for t in range(4):
            ball = [brute.insertion_ball(w, t) for w in words]
            want = [len(ball[i] & ball[j]) for i, j in zip(x.tolist(), y.tolist())]
            assert balls._common_supersequences(x, y, n, t).tolist() == want, (n, t)


def one_edit(rng, v, n):
    """v with one symbol deleted and one inserted, so at d_L <= 1 from v."""
    s = word_str(v, n)
    i, j = rng.randrange(n), rng.randrange(n)
    s = s[:i] + s[i + 1 :]
    return int(s[:j] + rng.choice("01") + s[j:], 2)


def table_overlaps(x, y, n, t):
    """|I_t(x[k]) cap I_t(y[k])| for every k, from the ball tables: each
    value carries its row index above its n + t bits, so the sorted rows of
    the second table form one sorted array, and each value of the first
    table is found in it only if it occurs in the same row."""
    tag = np.arange(len(x), dtype=np.uint64)[:, None] << np.uint64(n + t)
    p = _insertion_table(x, n, t) | tag
    q = (np.sort(_insertion_table(y, n, t), axis=1) | tag).ravel()
    return (q[np.minimum(np.searchsorted(q, p), q.size - 1)] == p).sum(axis=1)


@pytest.mark.parametrize("t", (0, 1, 2, 3))
def test_common_supersequences_equal_ball_tables(t):
    rng = random.Random(t)
    for n in range(1, 41):
        xs = [rng.getrandbits(n) for _ in range(12)]
        ys = [rng.getrandbits(n) for _ in xs]
        ys += [v ^ (1 << rng.randrange(n)) for v in xs]  # one substitution
        ys += [one_edit(rng, v, n) for v in xs]
        x, y = np.array(xs * 3, dtype=np.uint64), np.array(ys, dtype=np.uint64)
        assert (balls._common_supersequences(x, y, n, t) == table_overlaps(x, y, n, t)).all(), n


@pytest.mark.parametrize("n", (63, 64))
def test_common_supersequences_of_the_widest_words(n):
    # n + 2 > 64 bits: the supersequences no longer fit a machine word
    rng = random.Random(n)
    xs = [rng.getrandbits(n) for _ in range(3)]
    ys = [rng.getrandbits(n), xs[1] ^ (1 << 40), one_edit(rng, xs[2], n)]
    want = [
        len(brute.insertion_ball(word_str(a, n), 2) & brute.insertion_ball(word_str(b, n), 2))
        for a, b in zip(xs, ys)
    ]
    x, y = np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64)
    assert balls._common_supersequences(x, y, n, 2).tolist() == want
    assert want[1] > 6 and want[2] > 6


def test_common_supersequences_count_past_64_bits():
    # a word shares its whole ball with itself: sum C(90, i), i <= 30, > 2**64
    x = np.array([(1 << 60) // 3], dtype=np.uint64)
    size = ball_size_formula(60, 30)
    assert size >= 1 << 64
    assert balls._common_supersequences(x, x, 60, 30).tolist() == [size]


def test_close_blocks_never_build_ball_tables():
    rng = random.Random(5)
    n = 12
    vals = np.array(sorted({one_edit(rng, v, n) for v in range(0, 1 << n, 9)}), dtype=np.uint64)
    with mock.patch.object(balls, "_BLOCK", 1 << 10):
        close = list(balls._pair_blocks(vals, n, 1))
    keys = np.concatenate([k for k, _ in close])
    assert len(close) > 1 and keys.size > 100
    a, b = np.divmod(keys, len(vals))
    want = table_overlaps(vals[a], vals[b], n, 2)
    with mock.patch.object(balls, "_pair_blocks", side_effect=lambda v, n, t: iter(close)) as engine, \
            mock.patch.object(balls, "_insertion_table", side_effect=AssertionError("ball table")), \
            mock.patch.object(balls, "_PAIRS", 7):
        got = list(balls._close_blocks(vals, n, 2))
    assert engine.call_args.args[2] == 1
    assert np.array_equal(np.concatenate([k for k, _ in got]), keys)
    assert np.array_equal(np.concatenate([c for _, c in got]), want)


# Every close pair at t = 2 shares at least 8 supersequences at these
# lengths, and every other pair at most nplus_ell_formula(n, 2, 2) = 6, so
# no code has a close maximum of exactly 6 or 7.  The cut is moved instead,
# so that the close maximum (9) sits on it, just above it or below it.
@pytest.mark.parametrize("cut, full_scan", ((10, True), (9, True), (8, False), (6, False)))
def test_close_pairs_decide_only_above_the_far_bound(cut, full_scan):
    words = ["000000", "000011", "001100", "011001"]  # two far pairs at 6, then a close one at 9
    code = SeqSet(6, [BitSeq(w) for w in words])
    worst = brute_worst(words, 2)
    assert worst == (9, BitSeq("001100"), BitSeq("011001"))
    for view in (read_coverage, coverage_argmax):
        with mock.patch.object(balls, "nplus_ell_formula", return_value=cut), \
                mock.patch.object(balls, "_pair_blocks", wraps=balls._pair_blocks) as engine:
            got = view(code, 2)
        assert got == (worst[0] if view is read_coverage else worst)
        assert [c.args[2] for c in engine.call_args_list] == ([1, 2] if full_scan else [1])


def test_coverage_of_codes_without_close_pairs():
    # the close pairs' maximum is 0, so the full scan decides, ties included
    for n in (4, 5, 6):
        words = []
        for s in brute.all_seqs(n):
            if all(insertion_distance(BitSeq(s), BitSeq(w)) >= 2 for w in words):
                words.append(s)
        code = SeqSet(n, [BitSeq(w) for w in words])
        worst = brute_worst(words, 2)
        assert len(words) > 2 and worst[0] == 6
        assert read_coverage(code, 2) == worst[0]
        assert coverage_argmax(code, 2) == worst
        # a threshold above 6 needs only the close pairs
        with mock.patch.object(balls, "_pair_blocks", wraps=balls._pair_blocks) as engine:
            assert coverage_less_than(code, 2, 7)
        assert [c.args[2] for c in engine.call_args_list] == [1]


# ---------------------------------------------------------------------------
# the ceiling scan of the pairs at d_L = 2, and the value ranges of the engine


def vt_words(n):
    return [s for s in brute.all_seqs(n) if brute.vt_syndrome(s) == 0]


# Codes with no close pair above 6, so their other pairs are counted by the
# ceiling scan: (words, owner blocks it lists, where the full scan starts or
# None), with a budget of ten times the full scan's table, and then with the
# default budget (_SHARE).  VT(6): owner 0 reaches 6.  A VT(8) subset:
# owners 0..2 stay below 6 and owner 3 reaches it; by default the block of
# owners 1..2 passes the budget.  A 6-word code at coverage 5 never reaches
# the ceiling: with room, its blocks cover every owner; by default owner 0
# alone passes the budget.
SCAN_CASES = {
    "first block": (vt_words(6), ([1], None), ([1], None)),
    "later block": (["00000000", "00001110", "00100011", "00111100", "01100110", "01111110",
                     "10011001", "10101000", "11000100", "11011011", "11011100", "11100111"],
                    ([1, 2, 4], None), ([1, 2], 1)),
    "every owner": (["0011111", "0110101", "1000011", "1010000", "1100110", "1110111"],
                    ([1, 2, 2], None), ([1], 0)),
}


def scan_path(words, share=balls._SHARE):
    """coverage_argmax of words, with the owner blocks its ceiling scan listed
    and the first owner of its full scan (None without one)."""
    code = SeqSet(len(words[0]), [BitSeq(w) for w in words])
    with mock.patch.object(balls, "_SHARE", share), \
            mock.patch.object(balls, "_deletion_table", wraps=balls._deletion_table) as dels, \
            mock.patch.object(balls, "_pair_blocks", wraps=balls._pair_blocks) as engine:
        got = coverage_argmax(code, 2)
    full = [c.args[3] for c in engine.call_args_list if c.args[2] == 2]
    assert len(full) <= 1
    return got, [len(c.args[0]) for c in dels.call_args_list], full[0] if full else None


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_ceiling_scan_matches_brute(case):
    words, room, own = SCAN_CASES[case]
    worst = brute_worst(words, 2)
    assert worst[0] == (5 if case == "every owner" else 6)
    assert scan_path(words, 10) == (worst, *room)
    assert scan_path(words) == (worst, *own)


def test_ceiling_scan_hands_over_past_its_budget():
    # the full scan's table holds 12 * 56 = 672 entries; the owners list 37,
    # then 185 + 296, then 222 + 481 + 148 + 481.  With no budget the first
    # block goes to the full scan; with 518 entries the block of owners 3..6
    # does, and with 517 the block of owners 1..2
    words = SCAN_CASES["later block"][0]
    worst = brute_worst(words, 2)
    assert scan_path(words, 0) == (worst, [1], 0)
    assert scan_path(words, Fraction(518, 672)) == (worst, [1, 2, 4], 3)
    assert scan_path(words, Fraction(517, 672)) == (worst, [1, 2], 1)


def test_ceiling_scan_lists_at_most_a_block_at_a_time():
    # with 40 supersequences per slice, owners go one at a time and each
    # slice is one 2-deletion's ball (37 words); the scan still stops
    # right after owner 3
    words = SCAN_CASES["later block"][0]
    with mock.patch.object(balls, "_BLOCK", 40), \
            mock.patch.object(balls, "_insertion_table", wraps=balls._insertion_table) as tables:
        assert scan_path(words, 10) == (brute_worst(words, 2), [1, 1, 1, 1], None)
    assert {c.args[0].size for c in tables.call_args_list if c.args[2] == 2} == {1}


def test_close_pairs_above_six_take_no_ceiling_scan():
    words = ["000000", "000011", "001100", "011001"]  # a close pair at 9
    assert scan_path(words, 10) == (brute_worst(words, 2), [], None)


@pytest.mark.parametrize("n", range(6, 12))
def test_ceiling_stop_decides_vt_codes_without_the_full_scan(n):
    words = vt_words(n)
    code = SeqSet(n, [BitSeq(w) for w in words])
    worst = brute_worst(words, 2)
    engine = balls._pair_blocks

    def close_pairs_only(vals, n, t, start=0):
        assert t == 1, "full scan at t = 2"
        return engine(vals, n, t, start)

    with mock.patch.object(balls, "_pair_blocks", side_effect=close_pairs_only):
        assert coverage_argmax(code, 2) == worst
        for bound in range(worst[0] + 2):
            assert coverage_at_least(code, 2, bound) == (worst if bound <= worst[0] else None)


@pytest.mark.parametrize("t", (1, 2))
def test_value_ranges_keep_the_pair_keys_and_counts(t):
    rng = random.Random(t)
    n = 10
    vals = np.array(sorted({one_edit(rng, v, n) for v in range(0, 1 << n, 5)}), dtype=np.uint64)
    code = SeqSet._from_vals(n, vals)
    whole = list(balls._pair_blocks(vals, n, t))
    worst = (coverage_argmax(code, 2), coverage_argmax(SeqSet._from_vals(n, vals[::7]), 2))
    # at most 64 table entries per range on average: 64 ranges at t = 1
    with mock.patch.object(balls, "_RANGE", 64), \
            mock.patch.object(balls, "_entries", wraps=balls._entries) as ranges:
        split = list(balls._pair_blocks(vals, n, t))
        assert (coverage_argmax(code, 2), coverage_argmax(SeqSet._from_vals(n, vals[::7]), 2)) == worst
    assert sum(not c.kwargs["moved"] for c in ranges.call_args_list) >= 64
    for got, want in zip(zip(*split), zip(*whole)):
        assert np.array_equal(np.concatenate(got), np.concatenate(want))
    assert len(whole) == 1 and len(split) == 1


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
