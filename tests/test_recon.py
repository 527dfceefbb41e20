"""Channel sampling and decoder tests."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from insrecon import balls, recon
from insrecon.balls import (
    SeqSet,
    ball_size_formula,
    coverage_argmax,
    deletion_ball,
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
from insrecon.seqs import BitSeq, EnumerationCapError, SequenceTooLongError


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


@pytest.mark.parametrize("t", (0, 1, 2, 3))
def test_embeds_every_pair_is_deletion_ball_membership(t):
    # every (c, z) with |c| = n <= 7, n = 0 included: c embeds in z iff c in D_t(z)
    for n in range(8):
        got = recon._embeds(np.arange(1 << n, dtype=np.uint64)[:, None],
                            np.arange(1 << (n + t), dtype=np.uint64), n, t)
        assert got.shape == (1 << n, 1 << (n + t))
        words = brute.all_seqs(n)
        for z, col in zip(brute.all_seqs(n + t), got.T):
            assert {c for c, ok in zip(words, col) if ok} == brute.deletion_ball(z, t), (n, z)


@pytest.mark.parametrize("t", (0, 1, 2))
def test_embeds_words_of_64_bits(t):
    # n + t = 64: reads reach 2**64 - 1, and every bit of a 64-bit read is walked
    n, rng = 64 - t, random.Random(t)
    words = ["1" * n, "0" * n, ("10" * 32)[:n], "1" + "0" * (n - 1), "0" * (n - 1) + "1"]
    words += [format(rng.getrandbits(n), f"0{n}b") for _ in range(5)]
    reads = ["1" * 64, "0" * 64, "01" * 32, "10" * 32]
    for c in words[2:]:
        for _ in range(t):
            i = rng.randrange(len(c) + 1)
            c = c[:i] + rng.choice("01") + c[i:]
        reads += [c, c[::-1]]
    got = recon._embeds(np.array([int(c, 2) for c in words], dtype=np.uint64)[:, None],
                        np.array([int(z, 2) for z in reads], dtype=np.uint64), n, t)
    for z, col in zip(reads, got.T):
        subs = brute.deletion_ball(z, t)
        assert col.tolist() == [c in subs for c in words], z
    assert 8 <= got.sum() < got.size


def test_decoder_never_builds_ball_tables():
    # reads are unranked and candidates found from deletions: neither drawing
    # reads, decoding them nor a whole experiment builds a ball table
    code, t = build_vt(10, 0), 2
    members = list(code)
    with mock.patch.object(balls, "_insertion_table", side_effect=AssertionError("ball table")):
        bundles = [sample_reads(members[k], t, N, seed=k) for k, N in ((0, 1), (7, 2), (30, 2), (60, 5))]
        rows = np.array([b.reads._array() for b in bundles[1:3]])
        got = [{str(c) for c in decode(b, code, t).candidates} for b in bundles]
        row, vals = recon._decode_rows(rows, code._array(), 10, t)
        summary = run_experiment(code, t, 3, 40, 7)
    wants = []
    for bundle in bundles:
        want = {str(c) for c in code}
        for r in bundle.reads:
            assert str(bundle.source_hint) in brute.deletion_ball(str(r), t)
            want &= brute.deletion_ball(str(r), t)
        wants.append(want)
    assert got == wants and len(wants[0]) > 1
    for k in (0, 1):
        assert {str(BitSeq.from_int(int(v), 10)) for v in vals[row == k]} == wants[k + 1]
    oracle = _documented_trials([str(m) for m in members], t, 3, 40, 7)
    assert [r.n_candidates for r in summary.rows] == [len(want) for _, _, want in oracle]
    assert [r.correct for r in summary.rows] == [want == {truth} for truth, _, want in oracle]


@pytest.mark.parametrize("n, t, rows, table, chunk", [
    (10, 2, 40, True, recon._CHUNK),  # the presence table
    (10, 2, 40, False, recon._CHUNK),  # the code's searchsorted
    (10, 2, 40, True, 200),  # lookups of 3 rows, tests of 200 candidates
    (10, 2, 40, False, 200),
    (62, 2, 16, False, recon._CHUNK),  # packed (row, word) keys would pass 64 bits
    (63, 1, 20, False, recon._CHUNK),
])
def test_decode_rows_order_rows_then_candidates_ascending(n, t, rows, table, chunk):
    # one read per row, and a code of about half the words in the deletion
    # balls of all reads plus a few others: each row keeps about half its
    # ball, and the pairs come sorted by row, then by candidate, once each;
    # candidates are carried across lookup chunks, so every containment
    # test but the last takes a full slice of them
    rng = random.Random(n * 1000 + rows)
    reads = [format(rng.getrandbits(n + t), f"0{n + t}b") for _ in range(rows)]
    dels = [brute.deletion_ball(r, t) for r in reads]
    near = sorted(frozenset().union(*dels))
    members = set(rng.sample(near, len(near) // 2))
    members |= {format(rng.getrandbits(n), f"0{n}b") for _ in range(20)}
    code = np.array(sorted(int(m, 2) for m in members), dtype=np.uint64)
    present = recon._presence(code, n) if table else None
    with mock.patch.object(recon, "_CHUNK", chunk), \
            mock.patch.object(recon, "_embeds", wraps=recon._embeds) as tests:
        row, vals = recon._decode_rows(np.array([[int(r, 2)] for r in reads], dtype=np.uint64),
                                       code, n, t, present)
    # with one read a row every candidate survives
    sizes = [len(c.args[0]) for c in tests.call_args_list]
    assert sum(sizes) == len(vals) and sizes[:-1] == [chunk] * (len(sizes) - 1)
    assert len(sizes) == -(-len(vals) // chunk)
    assert row.dtype == np.intp and vals.dtype == np.uint64
    assert (np.diff(row) >= 0).all()
    same = row[1:] == row[:-1]
    assert (vals[1:][same] > vals[:-1][same]).all()
    for k, ball in enumerate(dels):
        want = sorted(int(w, 2) for w in ball & members)
        assert vals[row == k].tolist() == want
        assert len(want) >= 2


def test_decode_past_the_presence_table_on_a_large_code():
    # 300 trials of the 182 362-word vt code at n = 22 decode through the
    # code's searchsorted; each count is |C & D_2(r_1) & D_2(r_2)| of its
    # documented reads
    code = best_coset("vt", 22)[1]
    members, t, seed = code._array(), 2, 11
    with mock.patch.object(recon, "_presence", side_effect=AssertionError("presence table")):
        summary = run_experiment(code, t, 2, 300, seed)
    counts = []
    for k in range(300):
        rng = random.Random(seed + k)
        truth = BitSeq.from_int(int(members[rng.randrange(len(members))]), 22)
        ball = insertion_ball(truth, t).values()
        r1, r2 = (BitSeq.from_int(ball[i], 24) for i in rng.sample(range(len(ball)), 2))
        counts.append(len(code & deletion_ball(r1, t) & deletion_ball(r2, t)))
    assert [r.n_candidates for r in summary.rows] == counts
    assert summary.correct == summary.unique
    assert 0 < summary.ambiguous and summary.no_candidate == 0


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
    with mock.patch.object(recon, "_CHUNK", entries), \
            mock.patch.object(recon, "_survivors", wraps=recon._survivors) as lanes:
        summary = run_experiment(code, t, reads, trials, seed)
    # the experiment decodes on uint32 lanes whenever its reads fit them
    lane = np.uint32 if n + t <= 32 else np.uint64
    assert all(call.args[0].dtype == call.args[1].dtype == lane for call in lanes.call_args_list)
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
    # all trials' candidate sets from one call of the batched decoder, on
    # uint64 lanes and on the uint32 lanes too when the reads fit them
    for dtype in dict.fromkeys((np.uint64, lane)) if reads else ():
        table = np.array([[BitSeq(r).val for r in got] for _, got, _ in oracle],
                         dtype=dtype).reshape(trials, reads)
        row, vals = recon._decode_rows(table, code._array().astype(dtype), n, t)
        assert vals.dtype == dtype
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


@pytest.mark.parametrize("n, t", [(21, 2), (30, 2), (29, 3), (31, 2)])
def test_batched_experiment_on_both_lanes(n, t):
    # n + t = 32, the widest reads of the uint32 lanes, and 33, the narrowest
    # of the uint64 lanes; past the presence table (n = 21 and 30) the uint32
    # lanes look candidates up by searchsorted in the uint32 members.  Words
    # one substitution from 1^n leave single reads ambiguous, and five unique
    members = sorted({"1" * n, "0" + "1" * (n - 1), "10" + "1" * (n - 2), "110" + "1" * (n - 3),
                      "1" * (n - 1) + "0", "1" * (n - 2) + "01", ("01" * n)[:n]})
    for reads in (1, 2, 5):
        summary = _check_against_oracle(members, t, reads, 20, 3, recon._CHUNK)
        if reads == 1:
            assert summary.ambiguous > 0
        elif reads == 5:
            assert summary.unique == 20


@pytest.mark.parametrize("n, t", [(0, 2), (1, 0), (5, 3), (18, 2), (30, 2), (29, 3)])
def test_read_rows_return_their_truths_dtype(n, t):
    # uint32 truths are unranked on uint32 lanes into uint32 reads, equal to
    # the sorted ball table's up to n + t = 32, whose counts reach 2^31
    rng = random.Random(n)
    xs = [0, (1 << n) - 1, rng.getrandbits(n)]
    size = ball_size_formula(n, t)
    picks = np.array(sorted({0, size // 2, size - 1, rng.randrange(size)}))
    want = np.sort(balls._insertion_table(xs, n, t), axis=1)[:, picks]
    for dtype in (np.uint32, np.uint64):
        got = recon._read_rows(np.array(xs, dtype=dtype), n, t, np.broadcast_to(picks, (3, len(picks))))
        assert got.dtype == dtype and (got == want).all()


@pytest.mark.parametrize("t", (0, 1, 2))
def test_embeds_on_uint32_lanes_of_32_bits(t):
    # n + t = 32: uint32 lanes walk every bit of a read up to 2**32 - 1 and
    # agree with the uint64 lanes and the deletion balls
    n, rng = 32 - t, random.Random(t)
    words = ["1" * n, "0" * n, ("10" * 16)[:n], *(format(rng.getrandbits(n), f"0{n}b") for _ in range(6))]
    reads = ["1" * 32, "0" * 32, "01" * 16]
    for c in words[2:]:
        for _ in range(t):
            i = rng.randrange(len(c) + 1)
            c = c[:i] + rng.choice("01") + c[i:]
        reads += [c, c[::-1]]
    got = [recon._embeds(np.array([int(c, 2) for c in words], dtype=dtype)[:, None],
                         np.array([int(z, 2) for z in reads], dtype=dtype), n, t)
           for dtype in (np.uint32, np.uint64)]
    assert (got[0] == got[1]).all()
    for z, col in zip(reads, got[0].T):
        subs = brute.deletion_ball(z, t)
        assert col.tolist() == [c in subs for c in words], z
    assert 6 <= got[0].sum() < got[0].size


@pytest.mark.parametrize("t", (0, 1, 2, 3))
def test_read_rows_unrank_the_sorted_insertion_ball(t):
    # every x with n <= 7 (n = 0 included) at every position of its ball
    for n in range(8):
        size = ball_size_formula(n, t)
        got = recon._read_rows(np.arange(1 << n, dtype=np.uint64), n, t,
                               np.broadcast_to(np.arange(size), (1 << n, size)))
        assert got.dtype == np.uint64 and got.shape == (1 << n, size)
        for x, row in zip(brute.all_seqs(n), got.tolist()):
            assert row == [int(w or "0", 2) for w in sorted(brute.insertion_ball(x, t))], (n, x)


def test_read_rows_unrank_64_bit_reads():
    # n + t = 64: the unranked reads equal the sorted ball table's at the
    # first, middle and last positions
    n, t = 62, 2
    xs = [(1 << n) - 1, 0, int("01" * 31, 2)]
    size = ball_size_formula(n, t)
    picks = np.array([0, size // 2, size - 1])
    got = recon._read_rows(np.array(xs, dtype=np.uint64), n, t, np.broadcast_to(picks, (3, 3)))
    want = np.sort(balls._insertion_table(xs, n, t), axis=1)[:, picks]
    assert (got == want).all()
    assert got[0, -1] == (1 << 64) - 1 and got[1, 0] == 0


@pytest.mark.parametrize("t, reads, trials, error, message", [
    (2, 1000, 3, ValueError, "cannot draw 1000 distinct reads from a ball of 56"),
    (30, 1, 2, EnumerationCapError, "insertion ball of 274861941072 words exceeds cap 2**26"),
    (30, 0, 2, EnumerationCapError, "insertion ball of 274861941072 words exceeds cap 2**26"),
    (30, 10**12, 2, ValueError,
     "cannot draw 1000000000000 distinct reads from a ball of 274861941072"),
    (57, 1, 1, SequenceTooLongError, "ball length 65 exceeds MAX_LEN"),
    (57, 10**30, 1, SequenceTooLongError, "ball length 65 exceeds MAX_LEN"),
    (-1, 1, 1, ValueError, "t must be >= 0"),
    (2, -1, 0, ValueError, "reads must be >= 0"),
    (2, 1, -1, ValueError, "trials must be >= 0"),
    (2, 1000, 0, None, None),
    (-1, 1000, 0, None, None),
    (57, 1, 0, None, None),
])
def test_experiment_refusals_keep_their_text_and_order(t, reads, trials, error, message):
    # no ball is built, yet the cap still refuses a ball above 2**26 words,
    # after a draw larger than the ball and after a length past MAX_LEN
    code = build_vt(8, 0)
    if error is None:
        assert run_experiment(code, t, reads, trials, 1).rows == ()
        return
    with pytest.raises(error) as info:
        run_experiment(code, t, reads, trials, 1)
    assert str(info.value) == message


def test_negative_counts_and_t_are_refused():
    with pytest.raises(ValueError, match=r"^reads must be >= 0$"):
        sample_reads(BitSeq("0110"), 2, -1, seed=0)
    bundle = ReadBundle(SeqSet(7, [BitSeq("0110100")]), 8, -1)
    for reads in (bundle, ReadBundle(SeqSet(7, []), 8, -1)):
        with pytest.raises(ValueError, match=r"^t must be >= 0$"):
            decode(reads, build_vt(8, 0), -1)


@pytest.mark.parametrize("bits", (0, 5, 6))
def test_presence_table_serves_only_words_up_to_its_bits(bits):
    # past _PRESENCE_BITS no table is built and the hits come from the
    # code's searchsorted; up to it one table serves each whole run
    members = [str(c) for c in build_vt(6, 0)]
    with mock.patch.object(recon, "_PRESENCE_BITS", bits), \
            mock.patch.object(recon, "_presence", wraps=recon._presence) as spy:
        for t, reads in ((1, 1), (2, 3), (2, 10)):
            _check_against_oracle(members, t, reads, 25, 4, recon._CHUNK)
    assert spy.call_count == (3 if bits >= 6 else 0)


def test_decode_refuses_an_oversized_deletion_recipe_at_once():
    # 38-bit reads of an 8-bit code at t = 30: C(38, 30) = 48 903 492 columns
    # pass a cap of 2**26 columns, but their 31 masks do not, so the refusal
    # comes before a single cut is built (it used to need about 9.6 GB)
    bundle = ReadBundle(SeqSet(38, [BitSeq("01" * 19)]), 8, 30)
    with pytest.raises(EnumerationCapError,
                       match=r"^deletion table of 48903492 columns needs 1516008252 mask entries"):
        decode(bundle, build_vt(8, 0), 30)


def _stdlib_draws(size, ball, reads, seeds):
    """[randrange(size), *sample(range(ball), reads)] of Random(s) per seed s."""
    out = []
    for s in seeds:
        rng = random.Random(s)
        out.append([rng.randrange(size), *rng.sample(range(ball), reads)])
    return out


def _replayed(size, ball, reads, seeds, words=None):
    words = recon._trial_words(size, ball, reads) if words is None else words
    got = recon._draws(seeds, size, ball, reads, words)
    assert got.dtype == np.intp and got.shape == (len(seeds), 1 + reads)
    return got.tolist()


@pytest.mark.parametrize("ball, reads, pool", [
    (21, 5, True), (22, 5, False),  # setsize 21 up to N = 5
    (21, 6, True), (22, 6, True), (85, 6, True), (86, 6, False),  # 21 + 4^3 at N = 6
    (211, 2, False), (211, 23, True), (100_000, 40, False), (2**26, 100, False),
    (1, 0, True), (22, 0, False), (1, 1, True), (22, 22, True), (211, 211, True),
])
@pytest.mark.parametrize("size", (1, 2, 13_798))
def test_draws_replay_randrange_and_sample(size, ball, reads, pool):
    # both branches of random.sample, around its setsize, at N = 0 and N = B;
    # |C| = 1 takes a word until one is below 2^31
    assert recon._pool_sample(ball, reads) == pool
    seeds = range(7, 7 + 150)
    assert _replayed(size, ball, reads, seeds) == _stdlib_draws(size, ball, reads, seeds)


@pytest.mark.parametrize("seeds", [
    range(2**32 - 60, 2**32 + 60),  # one- and two-word MT keys
    range(-80, 5),  # a negative seed seeds as its absolute value
    [2**100 + 1, -(2**64), 0, 0, 3],
])
def test_draws_replay_any_seed(seeds):
    for size, ball, reads in ((10_584, 211, 23), (13_798, 211, 2), (5, 137, 137)):
        assert _replayed(size, ball, reads, seeds) == _stdlib_draws(size, ball, reads, seeds)


@pytest.mark.parametrize("size, ball, reads", [(1, 21, 5), (3, 22, 5), (1, 211, 40), (9, 22, 22)])
def test_draws_redraw_rows_that_run_out_of_words(size, ball, reads):
    # with one word per trial every row runs out and is drawn again by its
    # own generator, in the same call; 512 seeds are seeded in numpy, so no
    # other generator is made
    seeds = range(512)
    want = _stdlib_draws(size, ball, reads, seeds)
    with mock.patch.object(recon, "_draws", wraps=recon._draws) as spy, \
            mock.patch.object(recon.random, "Random", wraps=random.Random) as rngs:
        assert _replayed(size, ball, reads, seeds, words=1) == want
    assert spy.call_count == 1
    assert [c.args for c in rngs.call_args_list] == [(s,) for s in seeds]


@given(st.integers(1, 5000), st.integers(1, 300), st.data())
@settings(max_examples=60, deadline=None)
def test_draws_replay_matches_the_stdlib(size, ball, data):
    reads = data.draw(st.integers(0, ball))
    first = data.draw(st.integers(-(2**40), 2**40))
    seeds = range(first, first + data.draw(st.integers(1, 30)))
    words = data.draw(st.sampled_from((None, 1, 3)))
    assert _replayed(size, ball, reads, seeds, words) == _stdlib_draws(size, ball, reads, seeds)


@pytest.mark.parametrize("reads", (0, 2, 6))
def test_experiment_with_one_word_per_trial_matches_documented_draw(reads):
    members = [str(c) for c in build_vt(6, 0)]
    with mock.patch.object(recon, "_trial_words", return_value=1):
        _check_against_oracle(members, 2, reads, 30, 5, recon._CHUNK)
        _check_against_oracle(members, 2, reads, 9, 5, 1)


@pytest.mark.parametrize("size, ball, reads", [(2**31 + 1, 1, 0), (3, 65, 1), (5, 129, 129)])
def test_draws_replay_long_runs_of_retries(size, ball, reads):
    # bounds just above a power of two pass about half the words, so some of
    # 3000 rows retry a draw eight times or more
    seeds = range(3000)
    assert _replayed(size, ball, reads, seeds) == _stdlib_draws(size, ball, reads, seeds)


def _stdlib_words(seeds, words):
    """The first `words` outputs of Random(s) per seed s, one getrandbits(32) each."""
    out = []
    for s in seeds:
        rng = random.Random(s)
        out.append([rng.getrandbits(32) for _ in range(words)])
    return out


@pytest.mark.parametrize("seeds", [
    [0, 1, 5, 2**32 - 1, *range(6, 514)],  # one-word keys, 0 seeding as the key [0]
    range(2**32 - 256, 2**32 + 256),  # one- and two-word keys in one call
    [2**64 + 7, 2**96 - 1, 2**100 + 1, 2**128 - 1, -(2**64)],  # three and four words
    range(-256, 256),  # a negative seed seeds as its absolute value
    [2**19968, 3, -(2**20000) - 1, 2**19968 - 1],  # 625-word keys and a 624-word one, beside small ones
])
@pytest.mark.parametrize("words", (1, 9, 227, 228, 624, 625, 1300))
def test_mt_words_are_the_stdlib_outputs(seeds, words):
    # up to 227 words, blocks of 512 seeds or more whose keys are one or two
    # words are seeded in numpy; the rest come from the stdlib
    got = recon._mt_words(seeds, words)
    assert got.dtype == np.uint32 and got.shape == (len(seeds), words)
    assert got.tolist() == _stdlib_words(seeds, words)


@pytest.mark.parametrize("seeds, words, numpy", [
    (range(2**32 - 256, 2**32 + 256), 227, True),  # one- and two-word keys, 227 words
    ([-(2**64) + 1, *range(511)], 50, True),
    (range(2**32 - 256, 2**32 + 256), 228, False),
    ([2**64, *range(511)], 9, False),  # a three-word key takes its whole block
    ([-(2**64), *range(511)], 50, False),
    (range(511), 9, False),  # below 512 seeds the stdlib beats _mt_state's fixed cost
    (range(512), 9, True),
])
def test_mt_words_seed_in_numpy_only_from_small_keys_and_first_twist_words(seeds, words, numpy):
    # the rows are the stdlib's whichever path seeds the block
    with mock.patch.object(recon, "_mt_state", wraps=recon._mt_state) as spy:
        got = _replayed(13_798, 211, 2, seeds, words)
    assert spy.called == numpy
    assert got == _stdlib_draws(13_798, 211, 2, seeds)


def test_draws_hold_no_whole_generator_state():
    # 2000 rows of 624 state words would take 5 MB
    seeds = range(2000)
    recon._draws(seeds[:3], 13_798, 211, 2, 9)
    tracemalloc.start()
    try:
        got = recon._draws(seeds, 13_798, 211, 2, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == _stdlib_draws(13_798, 211, 2, seeds)
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("reads", (2, 6))
def test_experiment_across_two_word_seeds_matches_documented_draw(reads):
    # trials 0 .. 39 seed with one-word keys up to 2^32 - 1, then two-word ones
    members = [str(c) for c in build_vt(6, 0)]
    _check_against_oracle(members, 2, reads, 40, 2**32 - 20, recon._CHUNK)


@pytest.mark.parametrize("n, reads", [(10, 3), (10, 40), (14, 132)])
@pytest.mark.parametrize("chunk", (200, recon._CHUNK))
def test_experiment_draws_in_blocks_of_bounded_entries(n, reads, chunk):
    # a block's words, sort keys, picks, reads, pool and 2W + 1 generator
    # state words stay within _DRAW entries, here ten trials, in the set
    # branch at N = 3, the pool branch at N = 40, and at N = 132, whose 252
    # words outrun the first twist and come from the stdlib; each block's
    # reads are unranked in slices of _CHUNK // N trials, its candidates
    # looked up _CHUNK // C(n + 2, 2) trials at a time and tested at most
    # _CHUNK // N at a time
    code, ball = build_vt(n, 0), ball_size_formula(n, 2)
    words = recon._trial_words(len(code), ball, reads)
    assert (words > 624 - 397) == (reads == 132)
    pool = recon._pool_sample(ball, reads)
    held = (words + 2) * (1 if pool else 4) + 1 + 2 * reads + (ball if pool else 0) + 2 * words + 1
    step, lookup = max(1, chunk // reads), max(1, chunk // math.comb(n + 2, 2))
    with mock.patch.object(recon, "_DRAW", 10 * held + 5), \
            mock.patch.object(recon, "_CHUNK", chunk), \
            mock.patch.object(recon, "_draws", wraps=recon._draws) as draws, \
            mock.patch.object(recon, "_read_rows", wraps=recon._read_rows) as unranked, \
            mock.patch.object(recon, "_deletion_table", wraps=recon._deletion_table) as lookups, \
            mock.patch.object(recon, "_embeds", wraps=recon._embeds) as tests:
        summary = run_experiment(code, 2, reads, 50, 1)
    assert [(len(c.args[0]), c.args[4]) for c in draws.call_args_list] == [(10, words)] * 5
    per_block = [min(step, 10 - lo) for lo in range(0, 10, step)]
    assert [len(c.args[0]) for c in unranked.call_args_list] == per_block * 5
    assert lookups.called and max(len(c.args[0]) for c in lookups.call_args_list) <= lookup
    assert tests.called and max(len(c.args[0]) for c in tests.call_args_list) <= step
    assert [r.trial for r in summary.rows] == list(range(50))
    assert summary == _check_against_oracle([str(c) for c in code], 2, reads, 50, 1, chunk)
