"""Channel sampling and decoder tests."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from insrecon import recon
from insrecon.balls import (
    SeqSet,
    ball_size_formula,
    coverage_argmax,
    insertion_ball,
    intersect_balls,
    read_coverage,
)
from insrecon.codes import best_coset, build_all, build_vt
from insrecon.recon import (
    DecodeStatus,
    ReadBundle,
    decode,
    run_experiment,
    sample_reads,
)
from insrecon.seqs import BitSeq


def test_sample_whole_ball():
    x = BitSeq("0110")
    ball = insertion_ball(x, 2)
    bundle = sample_reads(x, 2, len(ball), seed=1)
    assert bundle.reads == ball
    assert bundle.source_hint == x


def test_sample_single_read_is_supersequence():
    x = BitSeq("10101")
    bundle = sample_reads(x, 1, 1, seed=9)
    (read,) = list(bundle.reads)
    assert read in insertion_ball(x, 1)


def test_sample_determinism_and_bounds():
    x = BitSeq("110010")
    b1 = sample_reads(x, 2, 5, seed=42)
    b2 = sample_reads(x, 2, 5, seed=42)
    assert b1.reads == b2.reads
    with pytest.raises(ValueError):
        sample_reads(x, 1, 100, seed=0)


def test_sample_reads_seeded_draw_is_pinned():
    # the reads a seed draws, taken when reads were drawn from BitSeq lists
    bundle = sample_reads(BitSeq("1100101001"), 2, 6, seed=3)
    assert [str(r) for r in bundle.reads] == [
        "101001010010", "110001101001", "110010101101",
        "110100101001", "111000101001", "111001011001",
    ]


def test_decode_whole_ball_is_unique():
    code = build_vt(6, 0)
    x = next(iter(code))
    bundle = sample_reads(x, 2, len(insertion_ball(x, 2)), seed=3)
    outcome = decode(bundle, code, 2)
    assert outcome.status is DecodeStatus.UNIQUE
    assert outcome.word == x


def test_decode_singleton_code():
    x = BitSeq("011010")
    code = SeqSet(6, [x])
    bundle = sample_reads(x, 2, 3, seed=5)
    outcome = decode(bundle, code, 2)
    assert outcome.status is DecodeStatus.UNIQUE
    assert outcome.word == x


def test_decode_soundness_random():
    rng = random.Random(77)
    code = build_vt(8, 1)
    members = list(code)
    for trial in range(100):
        x = members[rng.randrange(len(members))]
        bundle = sample_reads(x, 2, 4, seed=1000 + trial)
        outcome = decode(bundle, code, 2)
        assert x in outcome.candidates


@st.composite
def decode_cases(draw):
    """(n, t, VT residue or None for the whole space, reads) with reads drawn
    from no word, one codeword, two codewords (their shared reads, or any of
    theirs) or a non-codeword."""
    n = draw(st.integers(1, 10))
    t = draw(st.sampled_from((1, 2, 3)))
    a = draw(st.one_of(st.none(), st.integers(0, n)))
    words = brute.all_seqs(n)
    code = [w for w in words if a is None or brute.vt_syndrome(w) == a]
    x = draw(st.sampled_from(code))
    y = draw(st.sampled_from([w for w in code if w != x] or [x]))  # VT codes at n = 1 have one word
    kind = draw(st.sampled_from(("none", "one", "shared", "mixed", "outside")))
    if kind == "none":
        return n, t, a, []
    if kind == "one":
        pool = brute.insertion_ball(x, t)
    elif kind == "shared":
        pool = brute.insertion_ball(x, t) & brute.insertion_ball(y, t)
    elif kind == "mixed":
        pool = brute.insertion_ball(x, t) | brute.insertion_ball(y, t)
    else:
        outside = [w for w in words if w not in code] or [x]
        pool = brute.insertion_ball(draw(st.sampled_from(outside)), t)
    reads = draw(st.lists(st.sampled_from(sorted(pool)), max_size=8, unique=True)) if pool else []
    return n, t, a, reads


@given(decode_cases())
@settings(max_examples=150, deadline=None)
@example((5, 1, None, []))  # zero reads: the whole code survives
@example((6, 2, 1, ["00000000"]))  # 000000 is not in VT_1(6): no candidate
@example((4, 2, None, ["011010", "100101"]))  # four words hold both reads: ambiguous
def test_decode_matches_deletion_ball_intersection(case):
    n, t, a, reads = case
    code = build_all(n) if a is None else build_vt(n, a)
    bundle = ReadBundle(SeqSet(n + t, [BitSeq(r) for r in reads]), n, t)
    want = {str(c) for c in code}
    for r in reads:
        want &= brute.deletion_ball(r, t)
    outcome = decode(bundle, code, t)
    assert {str(c) for c in outcome.candidates} == want
    status = {0: DecodeStatus.NO_CANDIDATE, 1: DecodeStatus.UNIQUE}
    assert outcome.status is status.get(len(want), DecodeStatus.AMBIGUOUS)


def test_decode_length_mismatch():
    code = build_vt(6, 0)
    x = next(iter(code))
    bundle = sample_reads(x, 2, 2, seed=0)
    with pytest.raises(ValueError):
        decode(bundle, code, 1)


def test_adversarial_bundle_is_ambiguous():
    # the maximizing intersection of the worst pair defeats nu_t reads
    code = build_all(5)
    t = 2
    value, x, y = coverage_argmax(code, t)
    worst = intersect_balls(x, y, t)
    assert len(worst) == value == read_coverage(code, t)
    bundle_reads = SeqSet(5 + t, list(worst))
    outcome = decode(ReadBundle(bundle_reads, 5, t), code, t)
    assert outcome.status is DecodeStatus.AMBIGUOUS
    assert x in outcome.candidates and y in outcome.candidates


def test_run_experiment_guarantee_and_determinism():
    code = build_vt(7, 0)
    cov = read_coverage(code, 1)
    summary = run_experiment(code, 1, cov + 1, trials=50, seed=11)
    assert summary.unique == 50
    assert summary.correct == 50
    assert summary.unique_rate == 1.0
    again = run_experiment(code, 1, cov + 1, trials=50, seed=11)
    assert again == summary


def test_guarantee_across_code_families():
    # reads beyond the coverage always decode uniquely to the ground truth
    from insrecon.codes import best_coset

    cases = [
        (best_coset("tworead", 10, P=3)[1], 1, 2),
        (best_coset("np4", 12, P=9)[1], 2, 12 + 4),
        (best_coset("np5", 10, P=9)[1], 2, 10 + 5),
    ]
    for code, t, reads in cases:
        summary = run_experiment(code, t, reads, trials=200, seed=31)
        assert summary.unique == 200
        assert summary.correct == 200


def test_run_experiment_single_read_reports_rates():
    code = build_all(4)
    summary = run_experiment(code, 1, 1, trials=40, seed=2)
    assert summary.unique + summary.ambiguous + summary.no_candidate == 40
    assert summary.no_candidate == 0  # truth always survives
    assert summary.ambiguous > 0  # one read of the full space cannot pin a word
    assert summary.mean_candidates > 1.0


def test_run_experiment_empty():
    code = build_vt(6, 0)
    summary = run_experiment(code, 1, 2, trials=0, seed=1)
    assert summary.trials == 0
    assert summary.rows == ()
    assert summary.unique_rate is None
    assert summary.mean_candidates is None


def test_run_experiment_needs_code():
    with pytest.raises(ValueError):
        run_experiment(SeqSet(4, []), 1, 1, trials=1, seed=0)


def _documented_trials(members, t, reads, trials, seed):
    """(truth, reads, candidates) per trial, rebuilt from the documented draw
    over strings: truth = members[rng.randrange(|C|)], reads = the sorted
    insertion ball at rng.sample(range(B), N), and the candidates as the
    codewords in every read's deletion ball."""
    out = []
    for k in range(trials):
        rng = random.Random(seed + k)
        truth = members[rng.randrange(len(members))]
        ball = sorted(brute.insertion_ball(truth, t))
        got = sorted(ball[i] for i in rng.sample(range(len(ball)), reads))
        want = set(members)
        for r in got:
            want &= brute.deletion_ball(r, t)
        out.append((truth, got, want))
    return out


def _check_against_oracle(members, t, reads, trials, seed, entries):
    n = len(members[0])
    code = SeqSet(n, [BitSeq(m) for m in members])
    with mock.patch.object(recon, "_CHUNK", entries):
        summary = run_experiment(code, t, reads, trials, seed)
    oracle = _documented_trials(members, t, reads, trials, seed)
    assert len(summary.rows) == trials
    for k, (row, (truth, got, want)) in enumerate(zip(summary.rows, oracle)):
        assert row.trial == k
        assert row.n_candidates == len(want)
        assert row.status is {0: DecodeStatus.NO_CANDIDATE, 1: DecodeStatus.UNIQUE}.get(
            len(want), DecodeStatus.AMBIGUOUS)
        assert row.correct == (want == {truth})
        bundle = ReadBundle(SeqSet(n + t, [BitSeq(r) for r in got]), n, t)
        assert {str(c) for c in decode(bundle, code, t).candidates} == want
    if reads:
        # all trials' candidate sets from one call of the batched decoder
        table = np.array([[BitSeq(r).val for r in got] for _, got, _ in oracle],
                         dtype=np.uint64).reshape(trials, reads)
        members_u64 = np.array([BitSeq(m).val for m in members], dtype=np.uint64)
        row, vals = recon._decode_rows(table, members_u64, n, t)
        assert vals.dtype == np.uint64
        for k, (_, _, want) in enumerate(oracle):
            got = {str(BitSeq.from_int(int(v), n)) for v in vals[row == k]}
            assert got == want
    return summary


@st.composite
def experiment_cases(draw):
    """(sorted code, t, reads, trials, seed, chunk entries): any nonempty
    code of length <= 6, N from 0 to the whole ball, and chunks of one to
    several trials."""
    t = draw(st.sampled_from((0, 1, 2, 3)))
    n = draw(st.integers(0, 6 if t < 3 else 5))
    words = brute.all_seqs(n)
    code = sorted(draw(st.lists(st.sampled_from(words), min_size=1, max_size=12, unique=True)))
    size = ball_size_formula(n, t)
    reads = draw(st.one_of(st.just(0), st.just(size), st.integers(0, min(size, 6))))
    entries = draw(st.sampled_from((1, 3, 2 * size, 3 * size + 1, recon._CHUNK)))
    return code, t, reads, draw(st.integers(0, 7)), draw(st.integers(0, 2**32)), entries


@given(experiment_cases())
@settings(max_examples=120, deadline=None)
@example((["0110"], 2, 0, 3, 5, 1))  # one word, no reads
@example((["0110"], 2, 22, 4, 5, 3))  # one word, the whole ball
@example((["000", "001", "010", "100"], 1, 1, 7, 9, 3))  # chunks of one trial
def test_batched_experiment_matches_documented_draw(case):
    _check_against_oracle(*case)


@pytest.mark.parametrize("reads", (1, 2, 5))
def test_batched_experiment_on_62_bit_words(reads):
    # n + t = 64: reads reach 2**64 - 1, which a float64 cannot hold exactly;
    # words one substitution from 1^62 make single reads ambiguous
    members = sorted(["1" * 62, "0" + "1" * 61, "10" + "1" * 60, "110" + "1" * 59,
                      "1" * 61 + "0", "1" * 60 + "01"])
    summary = _check_against_oracle(members, 2, reads, 30, 3, recon._CHUNK)
    assert summary.ambiguous > 0 if reads == 1 else summary.unique == 30
