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
from typing import List, Optional, Tuple

import numpy as np

from .balls import SeqSet, _among, _check_ball, _deletion_table, _insertion_table
from .seqs import BitSeq

# Table entries held at once: trials are drawn and decoded _CHUNK // |I_t| at
# a time, and their candidates tested _CHUNK // N at a time, so peak memory
# grows with neither the number of trials, N nor the number of candidates.
# A slice's test costs 8(n + t) numpy calls whatever its size, hence 2^15.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class ReadBundle:
    """N distinct reads of common length n + t (source kept for tests only)."""

    reads: SeqSet
    n: int
    t: int
    source_hint: Optional[BitSeq] = None


def _pick(rng: random.Random, size: int, count: int) -> List[int]:
    """Positions of `count` distinct reads in a sorted ball of `size` words.

    random.sample chooses from the population's length alone, so these are
    the positions rng.sample(ball, count) would take.
    """
    if count > size:
        raise ValueError(f"cannot draw {count} distinct reads from a ball of {size}")
    return rng.sample(range(size), count)


def _read_rows(truths: np.ndarray, n: int, t: int, picks: np.ndarray) -> np.ndarray:
    """Row i: the reads at positions picks[i] of the sorted t-insertion ball of truths[i]."""
    table = _insertion_table(truths, n, t)
    table.sort(axis=1)
    return np.take_along_axis(table, picks, axis=1)


def sample_reads(x: BitSeq, t: int, count: int, seed: int) -> ReadBundle:
    """Draw `count` distinct elements of I_t(x), deterministically per seed."""
    picks = _pick(random.Random(seed), _check_ball(x.n, t), count)
    reads = _read_rows(np.array([x.val], dtype=np.uint64), x.n, t, np.array([picks], dtype=np.intp))
    return ReadBundle(SeqSet._from_vals(x.n + t, reads[0]), x.n, t, source_hint=x)


def _embeds(c: np.ndarray, z: np.ndarray, n: int, t: int) -> np.ndarray:
    """Whether each n-bit word of c is a subsequence of the (n + t)-bit word
    of z beside it, that is lies in D_t(z); the two arrays broadcast.

    Greedy embedding: walk z from its top bit, and take the next unmatched
    bit of c whenever z shows it; c embeds iff that uses it up.  The
    unmatched suffix of c is kept left-aligned in the uint64 `rest` and its
    length in `left`; a hit shifts the matched bit out.  n + t <= 64, so
    every shift is below 64.
    """
    left = np.full(np.broadcast(c, z).shape, n, dtype=np.int8)
    if n == 0:
        return left == 0
    rest = np.broadcast_to(c << np.uint64(64 - n), left.shape).copy()
    for s in range(n + t - 1, -1, -1):
        hit = ((z >> np.uint64(s)) & np.uint64(1)) == (rest >> np.uint64(63))
        hit &= left > 0
        rest <<= hit
        left -= hit
    return left == 0


def _decode_rows(reads: np.ndarray, code: np.ndarray, n: int, t: int) -> Tuple[np.ndarray, np.ndarray]:
    """(row, codeword) pairs, rows ascending: the codewords whose t-deletion
    balls hold every read of their row.

    `reads` is a (rows, N >= 1) uint64 array of distinct reads per row and
    `code` the sorted uint64 codewords, at least one.  A row's candidates
    are the distinct codewords in the deletion ball of its smallest read,
    found by searchsorted; those that embed in every read of their row
    survive (_embeds), tested _CHUNK // N candidates at a time.
    """
    dels = _deletion_table(reads.min(axis=1), n + t, t)
    dels.sort(axis=1)
    first = np.ones(dels.shape, dtype=bool)
    first[:, 1:] = dels[:, 1:] != dels[:, :-1]
    row, col = np.nonzero(first)
    cands = dels[row, col]
    hit = _among(cands, code)
    row, cands = row[hit], cands[hit]
    keep = np.zeros(len(cands), dtype=bool)
    step = max(1, _CHUNK // reads.shape[1])
    for lo in range(0, len(cands), step):
        part = slice(lo, lo + step)
        keep[part] = _embeds(cands[part, None], reads[row[part]], n, t).all(axis=1)
    return row[keep], cands[keep]


class DecodeStatus(Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    NO_CANDIDATE = "no-candidate"


def _status(count: int) -> DecodeStatus:
    if count == 1:
        return DecodeStatus.UNIQUE
    return DecodeStatus.NO_CANDIDATE if count == 0 else DecodeStatus.AMBIGUOUS


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
    candidates = code
    if len(bundle.reads) and len(code):
        _, vals = _decode_rows(bundle.reads._array()[None], code._array(), code.n, t)
        candidates = SeqSet._from_vals(code.n, vals)
    return DecodeOutcome(_status(len(candidates)), candidates)


@dataclass(frozen=True)
class TrialRecord:
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


def run_experiment(code: SeqSet, t: int, reads: int, trials: int, seed: int) -> ExperimentSummary:
    """Sample-and-decode experiment; trial k uses the derived seed (seed + k).

    With rng = Random(seed + k), trial k draws its truth as the
    rng.randrange(|C|)-th codeword and its reads at positions
    rng.sample(range(|I_t|), reads) of the truth's sorted insertion ball.
    Only these draws are made per trial; each chunk of trials is then read
    and decoded as arrays.  With no reads every codeword survives.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if reads < 0:
        raise ValueError("reads must be >= 0")
    if len(code) == 0:
        raise ValueError("experiment needs a nonempty code")
    members = code._array()
    rows: List[TrialRecord] = []
    size = _check_ball(code.n, t) if trials else 1
    step = max(1, _CHUNK // size)
    for lo in range(0, trials, step):
        rngs = [random.Random(seed + k) for k in range(lo, min(trials, lo + step))]
        truths = members[[rng.randrange(len(members)) for rng in rngs]]
        picks = np.array([_pick(rng, size, reads) for rng in rngs], dtype=np.intp)
        read_rows = _read_rows(truths, code.n, t, picks)
        if reads:
            row, vals = _decode_rows(read_rows, members, code.n, t)
            counts = np.bincount(row, minlength=len(rngs))
            found = np.bincount(row[vals == truths[row]], minlength=len(rngs)) > 0
        else:
            counts = np.full(len(rngs), len(members))
            found = counts == 1
        ok = (found & (counts == 1)).tolist()
        for k, count in enumerate(counts.tolist()):
            rows.append(TrialRecord(lo + k, _status(count), count, ok[k]))
    status = [r.status for r in rows]
    return ExperimentSummary(
        n=code.n,
        t=t,
        reads=reads,
        trials=trials,
        unique=status.count(DecodeStatus.UNIQUE),
        ambiguous=status.count(DecodeStatus.AMBIGUOUS),
        no_candidate=status.count(DecodeStatus.NO_CANDIDATE),
        correct=sum(r.correct for r in rows),
        rows=tuple(rows),
    )
