"""Channel simulation and reconstruction decoding.

A channel use inserts exactly t symbols, so a read is a uniform draw (without
replacement) from the insertion ball of the transmitted word.  The decoder
returns the codewords in the deletion balls of all reads; whenever the number
of distinct reads exceeds the code's read coverage the survivor is unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .balls import SeqSet, _deletion_vals, _insertion_table, insertion_ball
from .seqs import BitSeq


@dataclass(frozen=True)
class ReadBundle:
    """N distinct reads of common length n + t (source kept for tests only)."""

    reads: SeqSet
    n: int
    t: int
    source_hint: Optional[BitSeq] = None


def _sample_from_ball(x: BitSeq, t: int, count: int, rng: random.Random) -> ReadBundle:
    # random.sample picks positions from the population's length alone, so
    # the reads depend only on the seed and the sorted ball
    ball = insertion_ball(x, t)._ordered()
    if count > len(ball):
        raise ValueError(f"cannot draw {count} distinct reads from a ball of {len(ball)}")
    picked = rng.sample(ball, count)
    return ReadBundle(SeqSet._from_vals(x.n + t, picked), x.n, t, source_hint=x)


def sample_reads(x: BitSeq, t: int, count: int, seed: int) -> ReadBundle:
    """Draw `count` distinct elements of I_t(x), deterministically per seed."""
    return _sample_from_ball(x, t, count, random.Random(seed))


class DecodeStatus(Enum):
    UNIQUE = "unique"
    AMBIGUOUS = "ambiguous"
    NO_CANDIDATE = "no-candidate"


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
    """The codewords whose t-deletion balls hold every read.

    Candidates are the codewords in one read's deletion ball.  A candidate c
    survives iff every read lies in I_t(c) (c in D_t(r) iff r in I_t(c)); its
    ball-table row holds distinct values and the reads are distinct, so that
    is iff the row holds len(reads) of them.
    """
    if bundle.reads.n != code.n + t:
        raise ValueError(
            f"reads of length {bundle.reads.n} cannot be {code.n}-words after {t} insertions"
        )
    survivors = code.values()
    reads = bundle.reads._ordered()
    if reads:
        found = list(_deletion_vals(bundle.reads.n, reads[0], t) & survivors)
        rows = _insertion_table(found, code.n, t)
        hits = np.isin(rows, np.array(reads, dtype=rows.dtype)).sum(axis=1)
        survivors = [c for c, h in zip(found, hits.tolist()) if h == len(reads)]
    candidates = SeqSet._from_vals(code.n, survivors)
    if len(candidates) == 1:
        status = DecodeStatus.UNIQUE
    elif len(candidates) == 0:
        status = DecodeStatus.NO_CANDIDATE
    else:
        status = DecodeStatus.AMBIGUOUS
    return DecodeOutcome(status, candidates)


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
    """Sample-and-decode loop; trial k uses the derived seed (seed + k)."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if reads < 0:
        raise ValueError("reads must be >= 0")
    if len(code) == 0:
        raise ValueError("experiment needs a nonempty code")
    members = list(code)
    rows: List[TrialRecord] = []
    unique = ambiguous = nocand = correct = 0
    for k in range(trials):
        rng = random.Random(seed + k)
        truth = members[rng.randrange(len(members))]
        bundle = _sample_from_ball(truth, t, reads, rng)
        outcome = decode(bundle, code, t)
        ok = outcome.status is DecodeStatus.UNIQUE and outcome.word == truth
        if outcome.status is DecodeStatus.UNIQUE:
            unique += 1
        elif outcome.status is DecodeStatus.AMBIGUOUS:
            ambiguous += 1
        else:
            nocand += 1
        if ok:
            correct += 1
        rows.append(TrialRecord(k, outcome.status, len(outcome.candidates), ok))
    return ExperimentSummary(
        n=code.n,
        t=t,
        reads=reads,
        trials=trials,
        unique=unique,
        ambiguous=ambiguous,
        no_candidate=nocand,
        correct=correct,
        rows=tuple(rows),
    )
