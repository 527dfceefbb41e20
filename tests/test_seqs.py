"""Sequence primitive tests against string-based oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from insrecon import seqs
from insrecon.seqs import (
    MAX_LEN,
    BitSeq,
    EnumerationCapError,
    SequenceTooLongError,
    count_r,
    hamming_distance,
    in_r,
    indicator,
    insertion_distance,
    inversions,
    is_alternating,
    period,
    r_mask,
    r_values,
)

bitstrings = st.text(alphabet="01", max_size=MAX_LEN)


# ---------------------------------------------------------------------------
# BitSeq basics


def test_parse_and_str_roundtrip_examples():
    assert str(BitSeq("10110")) == "10110"
    assert str(BitSeq("")) == ""
    assert len(BitSeq("")) == 0
    assert list(BitSeq("101")) == [1, 0, 1]


@given(bitstrings)
def test_parse_str_roundtrip(s):
    assert str(BitSeq(s)) == s


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        BitSeq("012")
    with pytest.raises(SequenceTooLongError):
        BitSeq("0" * (MAX_LEN + 1))
    with pytest.raises(ValueError):
        BitSeq.from_int(4, 2)


def test_immutable_and_hashable():
    x = BitSeq("01")
    with pytest.raises(AttributeError):
        x.n = 5
    assert len({BitSeq("01"), BitSeq("01"), BitSeq("10")}) == 2


def test_ordering_is_lexicographic_for_equal_lengths():
    vals = [BitSeq(s) for s in ("110", "010", "100", "101")]
    assert [str(s) for s in sorted(vals)] == ["010", "100", "101", "110"]


def test_complement():
    assert str(BitSeq("101101").complement()) == "010010"
    assert BitSeq("").complement() == BitSeq("")
    assert str(BitSeq("0").complement()) == "1"


@given(bitstrings)
def test_complement_involution(s):
    x = BitSeq(s)
    assert x.complement().complement() == x


def test_concat_and_power():
    assert str(BitSeq("10") + BitSeq("101")) == "10101"
    assert str(BitSeq("10") * 2) == "1010"
    assert BitSeq("10") * 0 == BitSeq("")


def test_subword():
    x = BitSeq("10011010")
    assert str(x.subword(1, 3)) == "100"
    assert str(x.subword(8, 8)) == "0"
    with pytest.raises(IndexError):
        BitSeq("10").subword(2, 1)
    with pytest.raises(IndexError):
        x.subword(0, 3)
    with pytest.raises(IndexError):
        x.subword(1, 9)


# ---------------------------------------------------------------------------
# period / alternation


def test_period_examples():
    assert period(BitSeq("111")).period == 1
    assert period(BitSeq("0011")).period == 4
    assert period(BitSeq("101")).is_alternating
    for s in ("", "1", "0", "10", "01", "101"):
        assert is_alternating(BitSeq(s))
    assert not is_alternating(BitSeq("110"))
    # constant runs have period 1, which is not the alternating class
    assert not is_alternating(BitSeq("00"))
    assert not is_alternating(BitSeq("1111"))


def test_period_short_sequences_convention():
    assert period(BitSeq("")) == period(BitSeq("1"))
    assert period(BitSeq("0")).period == 1


@pytest.mark.parametrize("n", range(2, 11))
def test_period_matches_scan_oracle(n):
    for s in brute.all_seqs(n):
        rep = period(BitSeq(s))
        assert rep.period == brute.period(s)
        assert rep.is_alternating == brute.is_alternating(s)
        assert rep.is_alternating == (rep.period == 2)


# ---------------------------------------------------------------------------
# R(n, ell, t)


def test_in_r_examples():
    assert not in_r(BitSeq("110110"), 3, 3)
    assert in_r(BitSeq("0011"), 3, 3)
    assert in_r(BitSeq("0110"), 5, 4)  # length <= t is vacuous


@pytest.mark.parametrize("n", range(0, 9))
def test_in_r_matches_subword_oracle(n):
    for s in brute.all_seqs(n):
        x = BitSeq(s)
        for ell in (1, 2, 3, 4):
            for t in (1, 2, 3, 5):
                assert in_r(x, ell, t) == brute.in_r(s, ell, t), (s, ell, t)


@given(bitstrings, st.integers(1, 4), st.integers(1, 8), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200)
def test_in_r_monotone(s, ell, t, dell, dt):
    x = BitSeq(s)
    if in_r(x, ell, t):
        assert in_r(x, max(1, ell - dell), t + dt)


def test_count_r_examples():
    assert count_r(3, 3, 2) == 0
    assert count_r(6, 2, 6) == 64
    assert count_r(6, 2, 7) == 64
    assert count_r(10, 2, 7) >= 2**9


@pytest.mark.parametrize("n,ell,t", [(7, 2, 3), (8, 3, 4), (9, 2, 5), (6, 1, 2)])
def test_count_r_matches_oracle(n, ell, t):
    expected = sum(1 for s in brute.all_seqs(n) if brute.in_r(s, ell, t))
    assert count_r(n, ell, t) == expected


@pytest.mark.parametrize("bits", (1, 3))
def test_count_r_and_r_values_in_narrow_blocks(monkeypatch, bits):
    monkeypatch.setattr(seqs, "_BLOCK_BITS", bits)
    for n in range(0, 9):
        members = [v for v in range(1 << n) if in_r(BitSeq.from_int(v, n), 2, 3)]
        assert r_values(n, 2, 3).tolist() == members
        assert count_r(n, 2, 3) == len(members)


def test_count_r_cap():
    with pytest.raises(EnumerationCapError):
        count_r(40, 2, 10)
    assert issubclass(EnumerationCapError, ValueError)


def test_negative_length_enumeration_is_refused_clearly():
    for call in (lambda: count_r(-1, 2, 3), lambda: r_values(-1, 2, 3)):
        with pytest.raises(ValueError, match=r"^length n=-1 must be >= 0$"):
            call()


@given(st.integers(0, 12), st.integers(1, 4), st.integers(1, 6), st.data())
@settings(max_examples=200)
def test_r_mask_matches_in_r(n, ell, t, data):
    """Including the edge cases n <= t (all in) and t < ell (none in)."""
    vals = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    got = r_mask(np.array(vals, dtype=np.uint64), n, ell, t).tolist()
    assert got == [in_r(BitSeq.from_int(v, n), ell, t) for v in vals]
    assert count_r(n, ell, t) == sum(in_r(BitSeq.from_int(v, n), ell, t) for v in range(1 << n))


@pytest.mark.parametrize("ell", (1, 2, 3))
def test_r_automaton_walks_exactly_the_words_of_r(ell):
    """For t = 1..12, the first n bits of a 16-bit word walk the automaton of
    R(., ell, t) without a forbidden step iff r_mask admits them, for every
    n <= 16: so n <= t (all in) and t < ell (none longer than t in) too."""
    words = np.arange(1 << 16)
    for t in range(1, 13):
        table = seqs._r_automaton(ell, t)
        state = np.zeros(words.size, dtype=np.intp)
        for n in range(17):
            assert np.array_equal(state >= 0, r_mask(words >> (16 - n), n, ell, t)), (t, n)
            if n < 16:
                state = np.where(state >= 0, table[state, words >> (15 - n) & 1], -1)
    with pytest.raises(ValueError, match="require ell >= 1 and t >= 1"):
        seqs._r_automaton(ell, 0)


def test_r_automaton_state_count_for_ell_2():
    """4t - 1 states, against 2**t tails of t bits."""
    assert [len(seqs._r_automaton(2, t)) for t in range(1, 19)] == [4 * t - 1 for t in range(1, 19)]


# ---------------------------------------------------------------------------
# inversions


def test_inversions_examples():
    assert inversions(BitSeq("00000")) == 0
    assert inversions(BitSeq("10100")) == 5
    assert inversions(BitSeq("1000")) - inversions(BitSeq("0001")) == 3


@pytest.mark.parametrize("n", range(0, 13))
def test_inversions_mixed_pair_identity(n):
    # inv(x) + inv(reverse(x)) counts every 1-0 mixed pair exactly once
    for s in brute.all_seqs(n):
        x = BitSeq(s)
        w = x.weight()
        assert inversions(x) + inversions(x.reverse()) == w * (n - w)


def test_inversion_shift_identity_exhaustive():
    # |inv(u a a~ v a~ w) - inv(u a~ v a~ a w)| = (#a~ in v) + 2,
    # for all fragments with |u| + |v| + |w| <= 10
    for total in range(0, 11):
        for lu in range(total + 1):
            for lv in range(total - lu + 1):
                lw = total - lu - lv
                for uv in brute.all_seqs(lu):
                    for vv in brute.all_seqs(lv):
                        for wv in brute.all_seqs(lw):
                            for a in "01":
                                ab = "1" if a == "0" else "0"
                                x = uv + a + ab + vv + ab + wv
                                y = uv + ab + vv + ab + a + wv
                                got = abs(inversions(BitSeq(x)) - inversions(BitSeq(y)))
                                assert got == vv.count(ab) + 2, (x, y)


# ---------------------------------------------------------------------------
# distances


def test_hamming():
    assert BitSeq("0000").weight() == 0
    assert hamming_distance(BitSeq("11101010"), BitSeq("11010110")) == 4
    assert hamming_distance(BitSeq("1010"), BitSeq("1010")) == 0
    with pytest.raises(ValueError):
        hamming_distance(BitSeq("10"), BitSeq("100"))


def test_insertion_distance_examples():
    assert insertion_distance(BitSeq("10100"), BitSeq("01001")) == 1
    assert insertion_distance(BitSeq("0110"), BitSeq("0110")) == 0
    assert insertion_distance(BitSeq("0011"), BitSeq("1110")) == brute.ball_growth_distance("0011", "1110")


@pytest.mark.parametrize("n", range(1, 6))
def test_insertion_distance_matches_ball_growth(n):
    seqs = brute.all_seqs(n)
    for i, a in enumerate(seqs):
        for b in seqs[i:]:
            d = insertion_distance(BitSeq(a), BitSeq(b))
            assert d == brute.ball_growth_distance(a, b)
            assert d == insertion_distance(BitSeq(b), BitSeq(a))
            assert (d == 0) == (a == b)


def test_insertion_distance_length_mismatch():
    with pytest.raises(ValueError):
        insertion_distance(BitSeq("1"), BitSeq("10"))


# ---------------------------------------------------------------------------
# indicators


def test_indicator_examples():
    x = BitSeq("10011010")
    assert str(indicator(x, 1, 0)) == "1000101"
    assert str(indicator(x, 0, 1)) == "0010010"
    assert str(indicator(BitSeq("11111"), 1, 0)) == "0000"
    with pytest.raises(ValueError):
        indicator(BitSeq("1"), 1, 0)


@pytest.mark.parametrize("n", range(2, 11))
def test_indicator_no_adjacent_ones(n):
    for s in brute.all_seqs(n):
        x = BitSeq(s)
        for a, b in ((1, 0), (0, 1)):
            marks = str(indicator(x, a, b))
            assert "11" not in marks
            expected = "".join(
                "1" if s[i] == str(a) and s[i + 1] == str(b) else "0"
                for i in range(n - 1)
            )
            assert marks == expected
