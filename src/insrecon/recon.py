"""Channel simulation and reconstruction decoding.

A channel use inserts exactly t symbols, so a read is a uniform draw (without
replacement) from the insertion ball of the transmitted word.  The decoder
returns the codewords in the deletion balls of all reads, that is their common
subsequences in the code, tested by greedy embedding; whenever the number of
distinct reads exceeds the code's read coverage the survivor is unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from math import ceil, comb, log, sqrt
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .balls import SeqSet, _check_ball, _deletion_table, _run_starts
from .seqs import ENUM_CAP, BitSeq, EnumerationCapError

# Table entries held at once by each decoding stage: a block's reads are
# unranked _CHUNK // N trials at a time and looked up _CHUNK // C(n + t, t)
# at a time (the columns of their deletion table), and their candidates are
# tested _CHUNK // N at a time, so peak memory grows with neither the number
# of trials, N nor the number of candidates.  An unranking or a test costs
# n + t steps of numpy calls whatever its size, hence 2^15.
_CHUNK = 1 << 15
# Up to n = _PRESENCE_BITS, trial batches look candidates up in a presence
# table of the code's 2^n words, 2^20 bytes at most; longer words take the
# code's searchsorted.
_PRESENCE_BITS = 20
# Entries held at once by a block of drawn trials: their generator words
# (or the set branch's sort keys), sample pools, picks and N reads, and the
# 2W + 1 generator state words each is seeded to.  A pool pick or an
# unranking costs a fixed number of numpy calls whatever the block's size,
# so a block holds hundreds of trials even at N in the thousands.
_DRAW = 1 << 20


@dataclass(frozen=True)
class ReadBundle:
    """N distinct reads of common length n + t (source kept for tests only)."""

    reads: SeqSet
    n: int
    t: int
    source_hint: Optional[BitSeq] = None


def _draw_size(n: int, t: int, count: int) -> int:
    """|I_t| at length n, once `count` distinct reads can be drawn from it.

    Refuses, in this order, a negative t, a ball length past MAX_LEN, a
    negative count, a count above |I_t| and a ball above 2**ENUM_CAP words.
    Reads are drawn as positions rng.sample(range(|I_t|), count) of the
    sorted ball: random.sample chooses from the population's length alone,
    so these are the reads rng.sample(ball, count) would take.
    """
    size = _check_ball(n, t)
    if count < 0:
        raise ValueError("reads must be >= 0")
    if count > size:
        raise ValueError(f"cannot draw {count} distinct reads from a ball of {size}")
    if size > 1 << ENUM_CAP:
        raise EnumerationCapError(f"insertion ball of {size} words exceeds cap 2**{ENUM_CAP}")
    return size


@lru_cache(maxsize=32)
def _completions(n: int, t: int, dtype) -> np.ndarray:
    """(n + t, n + t + 1) table in `dtype` for unranking t-insertion balls at length n.

    Entry [i, q] is W(r, n - q) with r = n + t - 1 - i: the number of r-bit
    words that hold a given (n - q)-bit word as a subsequence, which is
    sum_{k <= r - n + q} C(r, k) (2^r once n - q <= 0, 0 when r < n - q)
    whatever that word is.  Every entry is at most 2^(n + t - 1), so it fits
    the (n + t)-bit words of the reads.
    """
    out = np.zeros((n + t, n + t + 1), dtype=dtype)
    for i in range(n + t):
        r = n + t - 1 - i
        sums = list(accumulate((comb(r, k) for k in range(r + 1)), initial=0))
        out[i] = [sums[min(max(r - n + q + 1, 0), r + 1)] for q in range(n + t + 1)]
    out.flags.writeable = False
    return out


def _read_rows(truths: np.ndarray, n: int, t: int, picks: np.ndarray) -> np.ndarray:
    """Row i: the reads at positions picks[i] of the sorted t-insertion ball of truths[i].

    No ball is built: each read is unranked bit by bit from its top, for all
    picks at once.  A prefix of a read leaves the words of the ball that
    extend it; if x's first n - m bits embed greedily in the prefix, those
    are the W(r, m) words of the remaining r bits that hold x's last m bits
    (_completions).  So bit 0 is taken when the position is below its W,
    else that W is subtracted and bit 1 taken.  Reads take the unsigned
    dtype of truths, whose lanes hold n + t bits or more.  The unmatched bits
    of x are kept complemented and left-aligned in the lane `rest`: its top
    bit is 1 iff x's next bit is 0, and stays 0 once x is used up, when every
    W is 2^r.  `done` counts the bits shifted out of `rest`.
    """
    lane = truths.dtype.type
    bits = 8 * truths.itemsize
    counts = _completions(n, t, lane)
    j = picks.astype(lane)
    rest = np.zeros(j.shape, dtype=lane)
    if n:
        rest |= ~truths[:, None] << lane(bits - n)
    done = np.zeros(j.shape, dtype=np.intp)
    out = np.zeros(j.shape, dtype=lane)
    for i in range(n + t):
        # the top bit as a signed integer of the lane's width, which adds to done as an intp
        zero = (rest >> lane(bits - 1)).view(f"i{truths.itemsize}")
        below = counts[i][done + zero]
        bit = j >= below
        below *= bit
        j -= below
        out <<= lane(1)
        out |= bit
        hit = bit != zero
        done += hit
        rest <<= hit
    return out


def sample_reads(x: BitSeq, t: int, count: int, seed: int) -> ReadBundle:
    """Draw `count` distinct elements of I_t(x), deterministically per seed."""
    picks = random.Random(seed).sample(range(_draw_size(x.n, t, count)), count)
    reads = _read_rows(np.array([x.val], dtype=np.uint64), x.n, t, np.array([picks], dtype=np.intp))
    return ReadBundle(SeqSet._from_vals(x.n + t, reads[0]), x.n, t, source_hint=x)


def _embeds(c: np.ndarray, z: np.ndarray, n: int, t: int) -> np.ndarray:
    """Whether each n-bit word of c is a subsequence of the (n + t)-bit word
    of z beside it, that is lies in D_t(z); the two arrays broadcast.

    Greedy embedding: walk z from its top bit, and take the next unmatched
    bit of c whenever z shows it; c embeds iff that uses it up.  The
    unmatched suffix of c is kept left-aligned in the lane `rest`, and
    `left` counts its bits down.  Once c is used up, `rest` is 0 and every
    0 bit of z takes `left` further below 0, to -t at the least, so c embeds
    iff `left` ends at most 0.  A step is five numpy calls that write into
    buffers allocated once, not afresh at every bit.  The lanes are the
    unsigned dtype of c and z, whose `bits` are n + t or more, so every
    shift is below `bits`.
    """
    shape = np.broadcast(c, z).shape
    left = np.full(shape, n, dtype=np.int8)
    if n == 0:
        return left <= 0
    lane = np.result_type(c, z).type
    bits = 8 * np.dtype(lane).itemsize
    rest = np.empty(shape, dtype=lane)
    np.left_shift(c, lane(bits - n), out=rest)
    diff, hit, top = np.empty(shape, dtype=lane), np.empty(shape, dtype=bool), lane(1 << (bits - 1))
    for s in range(n + t - 1, -1, -1):
        np.left_shift(z, lane(bits - 1 - s), out=diff)  # z's bit s on top
        np.bitwise_xor(diff, rest, out=diff)
        np.less(diff, top, out=hit)  # the top bits agree
        np.left_shift(rest, hit, out=rest)
        np.subtract(left, hit, out=left)
    return left <= 0


def _presence(code: np.ndarray, n: int) -> np.ndarray:
    """Boolean table over n-bit words, n <= _PRESENCE_BITS: True at the
    words of `code`."""
    table = np.zeros(1 << n, dtype=bool)
    table[code] = True
    return table


def _survivors(reads: np.ndarray, code: np.ndarray, n: int, t: int,
               present: Optional[np.ndarray]) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(row, codeword) pairs in one slice or more, rows ascending and
    codewords ascending within a row: the codewords whose t-deletion balls
    hold every read of their row.

    `reads` is a (rows, N >= 1) array of distinct reads per row and `code`
    the sorted codewords, at least one, both of one unsigned dtype: uint32
    or uint64, whose lanes every kernel works on.  A row's candidates are
    the codewords in the deletion ball of its smallest read, looked up
    _CHUNK // C(n + t, t) rows at a time in the code by one searchsorted or
    in its _presence table `present` (n <= _PRESENCE_BITS), and deduplicated
    by one sort of their int64 (row, candidate) keys.  Carried across those
    chunks, they are tested _CHUNK // N at a time (_embeds).
    """
    cols = comb(n + t, t)
    step, size = max(1, _CHUNK // cols), max(1, _CHUNK // reads.shape[1])
    carry, held = [], 0
    for lo in range(0, max(len(reads), 1), step):
        flat = _deletion_table(reads[lo : lo + step].min(axis=1), n + t, t).ravel()
        if present is None:
            index, width = np.searchsorted(code, flat), len(code)
            hit = np.flatnonzero(code[np.minimum(index, width - 1)] == flat)
        else:
            # deletions are below 2^n <= 2^_PRESENCE_BITS: their signed view
            # of the lane's width takes and keys as they do
            index, width = flat.view(f"i{flat.itemsize}"), 1 << n
            hit = np.flatnonzero(present.take(index))
        # index is a hit's place in the code (its value, with the table): keys are
        # below rows * width, rows <= 2^15 and width <= max(2^20, |C|), far below 2^63
        key = hit // cols * width + index[hit]
        key.sort()
        row, index = np.divmod(key[_run_starts(key)], width)
        carry.append((row + lo, code[index] if present is None else index.astype(code.dtype)))
        held += len(index)
        if held < size and lo + step < len(reads):
            continue
        row, cands = carry[0] if len(carry) == 1 else (np.concatenate(part) for part in zip(*carry))
        stop = held - held % size if lo + step < len(reads) else held
        for a in range(0, max(stop, 1), size):
            part = slice(a, min(a + size, stop))
            keep = _embeds(cands[part, None], reads[row[part]], n, t).all(axis=1)
            yield row[part][keep], cands[part][keep]
        carry, held = [(row[stop:], cands[stop:])], held - stop


def _decode_rows(reads: np.ndarray, code: np.ndarray, n: int, t: int,
                 present: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """All the (row, codeword) pairs of _survivors at once."""
    parts = list(_survivors(reads, code, n, t, present))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


class DecodeStatus(Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    NO_CANDIDATE = "no-candidate"


# a decode's status by its number of candidates, capped at 2
_STATUS = (DecodeStatus.NO_CANDIDATE, DecodeStatus.UNIQUE, DecodeStatus.AMBIGUOUS)


@dataclass(frozen=True)
class DecodeOutcome:
    status: DecodeStatus
    candidates: SeqSet

    @property
    def word(self) -> BitSeq:
        if self.status is not DecodeStatus.UNIQUE:
            raise ValueError("decode outcome is not unique")
        return next(iter(self.candidates))


def decode(bundle: ReadBundle, code: SeqSet, t: int) -> DecodeOutcome:
    """The codewords whose t-deletion balls hold every read (the whole code
    when there are no reads): the one-row case of the trial decoder."""
    if bundle.reads.n != code.n + t:
        raise ValueError(
            f"reads of length {bundle.reads.n} cannot be {code.n}-words after {t} insertions"
        )
    if t < 0:
        raise ValueError("t must be >= 0")
    candidates = code
    if len(bundle.reads) and len(code):
        _, vals = _decode_rows(bundle.reads._array()[None], code._array(), code.n, t)
        candidates = SeqSet._from_vals(code.n, vals)
    return DecodeOutcome(_STATUS[min(len(candidates), 2)], candidates)


class TrialRecord(NamedTuple):
    trial: int
    status: DecodeStatus
    n_candidates: int
    correct: bool


@dataclass(frozen=True)
class ExperimentSummary:
    n: int
    t: int
    reads: int
    trials: int
    unique: int
    ambiguous: int
    no_candidate: int
    correct: int
    rows: Tuple[TrialRecord, ...]

    @property
    def unique_rate(self) -> Optional[float]:
        return self.unique / self.trials if self.trials else None

    @property
    def ambiguous_rate(self) -> Optional[float]:
        return self.ambiguous / self.trials if self.trials else None

    @property
    def mean_candidates(self) -> Optional[float]:
        if not self.trials:
            return None
        return sum(r.n_candidates for r in self.rows) / self.trials


def _pool_sample(ball: int, reads: int) -> bool:
    """Whether random.sample(range(ball), reads) takes its pool branch, that
    is whether a ball-length list is no larger than a reads-element set."""
    setsize = 21
    if reads > 5:
        setsize += 4 ** ceil(log(reads * 3, 4))
    return ball <= setsize


def _trial_words(size: int, ball: int, reads: int) -> int:
    """Generator words drawn per trial at first: the mean number that its
    randrange(size) and sample(range(ball), reads) take, plus six standard
    deviations, so that few trials run out of them: 3 of 40 000 for vt at
    n = 18, N = 2 (9 words), none for np5 at n = 18, N = 23 (50 words).

    A draw below m takes words until one, shifted right by 32 - k with
    k = m.bit_length(), is below m.  A pool draw is below ball - i; a set
    draw is below ball and taken when it is none of the i picks before it,
    so it succeeds with probability (ball - i) / 2^k for k = ball's bit
    length.  Each draw takes a geometric number of words.
    """
    assert size < 1 << 32 and ball < 1 << 32, "draws are replayed from 32-bit words"
    left = ball - np.arange(reads, dtype=np.float64)
    bound = np.concatenate([[size], left])
    top = np.concatenate([[size], left if _pool_sample(ball, reads) else np.full(reads, ball)])
    p = bound / np.ldexp(1.0, np.frexp(top)[1])
    return ceil(np.sum(1 / p) + 6 * sqrt(np.sum((1 - p) / p**2)))


# MT19937 (Matsumoto & Nishimura 1998) as CPython's random.Random runs it:
# a state of _MT_N words, each twisted with the word _MT_M places on.
_MT_N, _MT_M = 624, 397


@lru_cache(maxsize=1)
def _mt_constants() -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """init_genrand(19650218), the state that init_by_array starts from, and
    the step indices 0 .. _MT_N, as read-only 0-d uint32 arrays: numpy takes
    those faster than scalars in the hot loops."""
    g = [19650218]
    for i in range(1, _MT_N):
        g.append((1812433253 * (g[-1] ^ g[-1] >> 30) + i) & 0xFFFFFFFF)

    def zero_d(vals):
        arr = np.array(vals, dtype=np.uint32)
        arr.flags.writeable = False
        return [arr[i, ...] for i in range(len(arr))]
    return zero_d(g), zero_d(range(_MT_N + 1))


def _mt_state(keys: np.ndarray, words: int) -> np.ndarray:
    """(2 words + 1, rows) uint32: words 0 .. words and _MT_M .. _MT_M +
    words - 1, for 1 <= words <= _MT_N - _MT_M, of the state that
    init_by_array leaves for each column of `keys`, a (L, rows) array of
    L < _MT_N key words plus their index, key[j] + j.

    Its first loop sets a_i = (g_i ^ h1(a_{i-1})) + keys[(i - 1) % L] for
    i = 1 .. 623 from a_0 = g_0 (_mt_constants), with
    hm(x) = (x ^ x >> 30) * m for m1 = 1664525 and m2 = 1566083941, and ends
    with a_1' = (a_1 ^ h1(a_623)) + keys[623 % L].  Its second sets
    b_1 = a_1' and b_i = (a_i ^ h2(b_{i-1})) - i for i = 2 .. 623, and ends
    with word 1 = (a_1' ^ h2(b_623)) - 1; word 0 is 2^31.  The first loop
    runs once alone for a_623, then again in lockstep with the second, the
    chains stacked as one (2, rows) array [a_i; b_{i-1}], so no chain is held
    whole.  Every step is a few numpy calls over all rows with out= arrays,
    whose uint32 arithmetic wraps as the C code's does.
    """
    L, rows = keys.shape
    g, step = _mt_constants()
    by_j = list(keys)
    key = [by_j[(i - 1) % L] for i in range(_MT_N + 1)]  # the key word of a_i
    rs, xor, mul, add, sub = np.right_shift, np.bitwise_xor, np.multiply, np.add, np.subtract
    c30 = np.array(30, dtype=np.uint32)
    mults = np.array([[1664525], [1566083941]], dtype=np.uint32)
    m1, m2 = mults[0, 0, ...], mults[1, 0, ...]

    def h(x, m, out):
        rs(x, c30, out)
        xor(out, x, out)
        mul(out, m, out)

    s, hs = np.empty((2, rows), dtype=np.uint32), np.empty((2, rows), dtype=np.uint32)
    s0, s1, h0, h1 = s[0], s[1], hs[0], hs[1]
    a, t = np.full(rows, g[0], dtype=np.uint32), np.empty(rows, dtype=np.uint32)
    for i in range(1, _MT_N):
        h(a, m1, t)
        xor(t, g[i], t)
        add(t, key[i], a)
        if i == 1:
            a1 = a.copy()
        elif i == 2:
            s0[...] = a
    h(a, m1, t)
    xor(t, a1, t)
    add(t, key[_MT_N], s1)
    a1_last = s1.copy()
    state = np.empty((2 * words + 1, rows), dtype=np.uint32)
    at = dict(zip([*range(words + 1), *range(_MT_M, _MT_M + words)], state))
    for i in range(2, _MT_N):
        # [a_i; b_{i-1}] -> [a_{i+1}; b_i]; a_624 is not a word, and unused
        h(s, mults, hs)
        xor(h1, s0, h1)
        sub(h1, step[i], s1)
        xor(h0, g[(i + 1) % _MT_N], h0)
        add(h0, key[i + 1], s0)
        if i in at:
            at[i][...] = s1
    h(s1, m2, t)
    xor(t, a1_last, t)
    sub(t, step[1], at[1])
    at[0][...] = 0x80000000
    return state


def _mt_next(lo: np.ndarray, hi: np.ndarray) -> None:
    """MT19937's twist, in place: hi[k] ^= the mix of lo[k] and lo[k + 1].

    With lo the old words k .. k + m and hi the words _MT_M further on, hi
    becomes the new words k .. k + m - 1.
    """
    y = np.bitwise_and(lo[:-1], np.uint32(0x80000000))
    u = np.bitwise_and(lo[1:], np.uint32(0x7FFFFFFF))
    y |= u
    hi ^= np.right_shift(y, np.uint32(1), out=u)
    y &= np.uint32(1)
    y *= np.uint32(0x9908B0DF)
    hi ^= y


def _mt_temper(y: np.ndarray) -> np.ndarray:
    """MT19937's output words from state words, in place."""
    u = np.right_shift(y, np.uint32(11))
    y ^= u
    for shift, mask in ((7, 0x9D2C5680), (15, 0xEFC60000)):
        np.left_shift(y, np.uint32(shift), out=u)
        u &= np.uint32(mask)
        y ^= u
    y ^= np.right_shift(y, np.uint32(18), out=u)
    return y


def _mt_words(seeds: Sequence[int], words: int) -> np.ndarray:
    """(len(seeds), words) uint32: row k holds the first `words` outputs of
    random.Random(seeds[k]), as getrandbits(32) returns them one by one.

    CPython seeds with the 32-bit words of |s| from the lowest (one word 0
    for 0) through init_by_array, and outputs 0 .. words - 1 come from the
    first twist, which reads state words 0 .. words and _MT_M .. _MT_M +
    words - 1.  Up to words = _MT_N - _MT_M, a block of 512 seeds or more
    whose keys are one or two words (|s| < 2^64) is seeded in numpy at once
    (_mt_state), keeping only those 2 words + 1.  Any other block takes each
    row from the stdlib, as getrandbits(32 * words): that beats _mt_state's
    fixed cost below 512 seeds and replayed whole states past the first
    twist, and spares longer keys, which no workload seeds, a path of their own.
    """
    if len(seeds) >= 512 and words <= _MT_N - _MT_M and max(map(abs, seeds)).bit_length() <= 64:
        # the halves of |s|, read with no Python object per seed; a_i adds
        # key word j = (i - 1) % L plus j, which for a one-word key k is k
        # at either parity, so every key is seeded as two words
        lo, hi = np.fromiter(map(abs, seeds), dtype="<u8", count=len(seeds)).view("<u4").reshape(-1, 2).T
        state = _mt_state(np.stack([lo, np.where(hi != 0, hi + 1, lo)]), words)
        _mt_next(state[: words + 1], state[words + 1 :])
        return _mt_temper(state[words + 1 :]).T
    rng = random.Random()

    def row(s: int) -> bytes:
        rng.seed(s)
        return rng.getrandbits(32 * words).to_bytes(4 * words, "little")
    return np.frombuffer(b"".join(map(row, seeds)), dtype="<u4").reshape(len(seeds), words)


def _draws(seeds: Sequence[int], size: int, ball: int, reads: int, words: int) -> np.ndarray:
    """(len(seeds), 1 + reads) intp array: row k is
    [rng.randrange(size), *rng.sample(range(ball), reads)] with
    rng = random.Random(seeds[k]), replayed from the generator's raw words.

    Each seed's first `words` 32-bit outputs, computed for all seeds at once
    (_mt_words), are followed by two zero words.  CPython's _randbelow(m)
    takes the next word >> (32 - k), with k = m.bit_length(), until one is
    below m; every row keeps its own word pointer `at`, and a draw runs on
    all rows at once, retrying only the rows that drew too high.  The sample replays random.sample's selection.
    Its pool branch swaps each pick out of a (rows, ball) pool, one pick of
    all rows at a time.  Its set branch draws below ball throughout and
    skips values it took before, so its picks are the first `reads`
    distinct values of a row's draws, found for all picks at once by
    sorting each row's words.  A row that reaches its zero words draws 0
    there, a value below every bound, and is drawn again by its own
    random.Random.
    """
    rows = len(seeds)
    grid = np.zeros((rows, words + 2), dtype=np.uint32)
    grid[:, :words] = _mt_words(seeds, words)
    flat = grid.ravel()
    end = np.arange(words, len(flat), words + 2)  # each row's first zero word
    at = end - words

    def below(m: int) -> np.ndarray:
        shift = np.uint32(32 - m.bit_length())
        got = flat[at] >> shift
        redo = np.flatnonzero(got >= m)
        while redo.size:
            at[redo] += 1
            again = flat[at[redo]] >> shift
            got[redo] = again
            redo = redo[again >= m]
        np.minimum(at + 1, end + 1, out=at)  # past its zero words a row stays at the second
        return got

    out = np.empty((rows, 1 + reads), dtype=np.intp)
    out[:, 0] = below(size)
    if _pool_sample(ball, reads):
        pool = np.tile(np.arange(ball, dtype=np.uint32), rows)
        base = np.arange(0, rows * ball, ball)
        for i in range(reads):
            j = base + below(ball - i)
            out[:, 1 + i] = pool[j]
            pool[j] = pool[base + (ball - i - 1)]
        short = at > end
    else:
        shift = 32 - ball.bit_length()
        width = grid.shape[1]
        col = np.arange(width)
        live = grid < np.uint32(ball << shift)
        live &= (col >= (at - end + words)[:, None]) & (col < words)
        # each row's draws by value, then position: a value's first draw leads its run
        key = np.where(live, grid >> np.uint32(shift), ball) * np.int64(width) + col
        key.sort(axis=1)
        vals, pos = np.divmod(key, width)
        first = _run_starts(vals) & (vals < ball)
        # the positions of first draws in order; the last column, a zero word, is never one
        pos[~first] = width - 1
        pos.sort(axis=1)
        pos = pos[:, :reads]
        short = (at > end) | (pos.shape[1] < reads) | (pos == width - 1).any(axis=1)
        out[:, 1 : 1 + pos.shape[1]] = grid[np.arange(rows)[:, None], pos] >> np.uint32(shift)
    for k in np.flatnonzero(short).tolist():
        rng = random.Random(seeds[k])
        out[k] = [rng.randrange(size), *rng.sample(range(ball), reads)]
    return out


def run_experiment(code: SeqSet, t: int, reads: int, trials: int, seed: int) -> ExperimentSummary:
    """Sample-and-decode experiment; trial k uses the derived seed (seed + k).

    With rng = Random(seed + k), trial k draws its truth as the
    rng.randrange(|C|)-th codeword and its reads at positions
    rng.sample(range(|I_t|), reads) of the truth's sorted insertion ball.
    No generator is made: these draws are replayed (_draws) from the raw
    words of Random(seed + k), which _mt_words computes for a whole block of
    trials at once, in blocks of trials that hold at most _DRAW entries.
    Each block's reads are unranked _CHUNK // N trials at a time, decoded
    stage by stage (_survivors), and its trials counted at once.
    With no reads every codeword survives.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if reads < 0:
        raise ValueError("reads must be >= 0")
    if len(code) == 0:
        raise ValueError("experiment needs a nonempty code")
    if not trials:
        return ExperimentSummary(code.n, t, reads, 0, 0, 0, 0, 0, ())
    ball = _draw_size(code.n, t, reads)
    # every decoding kernel runs on the lanes of the members' dtype: uint32,
    # half as wide, whenever the reads fit it
    members = code._array().astype(np.uint32 if code.n + t <= 32 else np.uint64, copy=False)
    present = _presence(members, code.n) if reads and code.n <= _PRESENCE_BITS else None
    words = _trial_words(len(members), ball, reads)
    # a trial's words and two zero words, each with its sort key, value and
    # position in the set branch; its 1 + N draws; its pool, if any; its N
    # reads; and the 2W + 1 generator state words it is seeded to
    # (_mt_words), which bound the stdlib's words too
    pool = _pool_sample(ball, reads)
    held = (words + 2) * (1 if pool else 4) + 1 + 2 * reads + (ball if pool else 0) + 2 * words + 1
    block = max(1, _DRAW // held)
    # the records, and the trials with no candidate, one, more and the right one
    rows, tally = [], np.zeros(4, dtype=np.int64)
    for start in range(0, trials, block):
        drawn = _draws(range(seed + start, seed + min(trials, start + block)),
                       len(members), ball, reads, words)
        truths = members[drawn[:, 0]]
        if reads:
            read_rows, step = np.empty((len(drawn), reads), dtype=members.dtype), max(1, _CHUNK // reads)
            for lo in range(0, len(drawn), step):
                read_rows[lo : lo + step] = _read_rows(truths[lo : lo + step], code.n, t,
                                                       drawn[lo : lo + step, 1:])
            counts, found = np.zeros(len(drawn), dtype=np.intp), np.zeros(len(drawn), dtype=bool)
            for row, vals in _survivors(read_rows, members, code.n, t, present):
                counts += np.bincount(row, minlength=len(drawn))
                found[row[vals == truths[row]]] = True
        else:  # every codeword survives, the truth among them
            counts, found = np.full(len(drawn), len(members)), np.ones(len(drawn), dtype=bool)
        kind = np.minimum(counts, 2)
        ok = found & (kind == 1)
        tally += (*np.bincount(kind, minlength=3), np.count_nonzero(ok))
        rows.extend(map(TrialRecord, range(start, start + len(drawn)),
                        map(_STATUS.__getitem__, kind.tolist()), counts.tolist(), ok.tolist()))
    no_candidate, unique, ambiguous, correct = tally.tolist()
    return ExperimentSummary(code.n, t, reads, trials, unique, ambiguous, no_candidate,
                             correct, tuple(rows))
