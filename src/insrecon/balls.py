"""Insertion/deletion balls, their closed-form sizes, and pairwise intersections.

The t-insertion ball of x is the set of all length-(n+t) supersequences of x;
the deletion ball is the dual.  Everything here is exact, computed over packed
values, and returned through SeqSet so iteration order is always lexicographic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, count
from math import comb
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .seqs import ENUM_CAP, MAX_LEN, BitSeq, EnumerationCapError, SequenceTooLongError


class SeqSet:
    """A set of equal-length sequences, held as one sorted, deduplicated,
    read-only uint64 array of packed values, so iteration is lexicographic
    and set operations work on the sorted arrays.  Lengths outside
    0..MAX_LEN are refused."""

    __slots__ = ("n", "_arr")

    def __init__(self, n: int, seqs: Iterable[BitSeq] = ()) -> None:
        vals = []
        for s in seqs:
            if s.n != n:
                raise ValueError(f"member length {s.n} != common length {n}")
            vals.append(s.val)
        self._fill(n, vals)

    @classmethod
    def _from_vals(cls, n: int, vals: Iterable[int]) -> "SeqSet":
        """The set of packed values: an integer array or any iterable of ints.

        A strictly increasing uint64 array is kept as it is, not copied, and
        made read-only."""
        obj = cls.__new__(cls)
        obj._fill(n, vals)
        return obj

    def _fill(self, n: int, vals: Iterable[int]) -> None:
        _check_code_length(n)
        arr = np.asarray(vals if isinstance(vals, np.ndarray) else list(vals), dtype=np.uint64)
        if not (arr[1:] > arr[:-1]).all():
            # dedupe by sort and an adjacent-difference mask: np.unique takes a
            # hash path on numpy 2.4, far slower on the sorted arrays built here
            arr = np.sort(arr)
            fresh = arr[1:] != arr[:-1]
            if not fresh.all():
                arr = arr[np.concatenate([[True], fresh])]
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SeqSet is immutable")

    def values(self) -> List[int]:
        """Packed member values, ascending, as Python ints."""
        return self._arr.tolist()

    def _array(self) -> np.ndarray:
        """Member values as the sorted read-only uint64 array."""
        return self._arr

    def __len__(self) -> int:
        return len(self._arr)

    def __iter__(self) -> Iterator[BitSeq]:
        for v in self._arr.tolist():
            yield BitSeq.from_int(v, self.n)

    def __contains__(self, s: BitSeq) -> bool:
        return isinstance(s, BitSeq) and s.n == self.n and bool(_among(s.val, self._arr))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeqSet) and self.n == other.n
            and np.array_equal(self._arr, other._arr)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._arr.tobytes()))

    def __and__(self, other: "SeqSet") -> "SeqSet":
        self._check_len(other)
        return SeqSet._from_vals(self.n, self._arr[_among(self._arr, other._arr)])

    def __or__(self, other: "SeqSet") -> "SeqSet":
        self._check_len(other)
        return SeqSet._from_vals(self.n, np.concatenate([self._arr, other._arr]))

    def __sub__(self, other: "SeqSet") -> "SeqSet":
        self._check_len(other)
        return SeqSet._from_vals(self.n, self._arr[~_among(self._arr, other._arr)])

    def isdisjoint(self, other: "SeqSet") -> bool:
        self._check_len(other)
        return not _among(self._arr, other._arr).any()

    def _check_len(self, other: "SeqSet") -> None:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")

    def __repr__(self) -> str:
        return f"SeqSet(n={self.n}, size={len(self)})"

    def to_lines(self) -> str:
        """One sequence per line, lexicographically sorted, trailing newline;
        written into a (size, n+1) byte matrix one bit column at a time."""
        n = self.n
        vals = self._array()
        chars = np.full((vals.size, n + 1), ord("\n"), dtype=np.uint8)
        for j in range(n):
            chars[:, j] = (vals >> (n - 1 - j)) & 1
            chars[:, j] += ord("0")
        return chars.tobytes().decode("ascii")

    @classmethod
    def parse_lines(cls, text: str, n: Optional[int] = None) -> "SeqSet":
        """One sequence per line, stripped; blank lines are skipped, except at
        n = 0, where each line is the empty word.  The mirror of to_lines: the
        lines, each ended by a newline, are read as one (rows, n+1) byte
        matrix and the values are built from its bit columns."""
        lines = list(map(str.strip, text.splitlines()))
        if n != 0:
            lines = list(filter(None, lines))
        if n is None:
            if not lines:
                raise ValueError("cannot infer length from empty input")
            n = len(lines[0])
        _check_code_length(n)  # before the byte matrix is built
        if not lines:
            return cls._from_vals(n, ())
        chars = np.frombuffer("\n".join([*lines, ""]).encode("ascii", "replace"), dtype=np.uint8)
        rows = len(lines)
        ok = chars.size == rows * (n + 1)
        if ok:
            # each line ends in a newline, so with the size right all of them
            # sit in the last column iff no bit column holds one
            bits = chars.reshape(rows, n + 1)[:, :n] - ord("0")
            ok = (bits <= 1).all()
        if not ok:
            bad = next(ln for ln in lines if len(ln) != n or set(ln) - {"0", "1"})
            raise ValueError(f"bad sequence line: {bad!r}")
        vals = np.zeros(rows, dtype=np.uint64)
        for j in range(n):
            vals |= bits[:, j].astype(np.uint64) << (n - 1 - j)
        return cls._from_vals(n, vals)


def _check_code_length(n: int) -> None:
    if not 0 <= n <= MAX_LEN:
        raise SequenceTooLongError(f"code length {n} out of range 0..{MAX_LEN}")


def _among(a, b: np.ndarray) -> np.ndarray:
    """Which entries of a (an array or one value) occur in the sorted array b."""
    if not len(b):
        return np.zeros(np.shape(a), dtype=bool)
    return b[np.minimum(np.searchsorted(b, a), len(b) - 1)] == a


def _check_ball(n: int, t: int) -> int:
    """|I_t| at length n, for t >= 0 and supersequences within MAX_LEN."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if n + t > MAX_LEN:
        raise SequenceTooLongError(f"ball length {n + t} exceeds MAX_LEN")
    return ball_size_formula(n, t)


def insertion_ball(x: BitSeq, t: int) -> SeqSet:
    """All supersequences of x of length n+t."""
    _check_ball(x.n, t)
    return SeqSet._from_vals(x.n + t, _insertion_table([x.val], x.n, t)[0])


def deletion_ball(y: BitSeq, t: int) -> SeqSet:
    """All distinct subsequences of y of length n-t."""
    if t < 0 or t > y.n:
        raise ValueError(f"t must be in 0..{y.n}")
    return SeqSet._from_vals(y.n - t, _deletion_table([y.val], y.n, t)[0])


def ball_size_formula(n: int, t: int) -> int:
    """Closed-form |I_t(x)| = sum_{i<=t} C(n+t, i), independent of x."""
    if n < 0 or t < 0:
        raise ValueError("n, t must be >= 0")
    return sum(comb(n + t, i) for i in range(t + 1))


def nplus_formula(n: int, t: int) -> int:
    """Maximum |I_t(x) cap I_t(y)| over distinct pairs in {0,1}^n."""
    if n < 1 or t < 0:
        raise ValueError("require n >= 1, t >= 0")
    return sum(comb(n + t, i) * (1 - (-1) ** (t - i)) for i in range(t))


def nplus_ell_formula(n: int, t: int, ell: int) -> int:
    """Maximum |I_t cap I_t| over pairs at insertion distance >= ell."""
    if not 0 <= ell <= t:
        raise ValueError("require 0 <= ell <= t")
    total = 0
    for j in range(ell, t + 1):
        for i in range(t - j + 1):
            total += (
                comb(2 * j, j)
                * comb(t + j - i, 2 * j)
                * comb(n + t, i)
                * (-1) ** (t + j - i)
            )
    return total


def t_insertion_bound(n: int, t: int) -> int:
    """Upper bound on |I_t cap I_t| for pairs with |I_1 cap I_1| = 1."""
    if t < 2 or n < 3:
        raise ValueError("require t >= 2 and n >= 3")
    return ball_size_formula(n + 1, t - 1) + nplus_formula(n - 1, t - 1)


def intersect_balls(x: BitSeq, y: BitSeq, t: int) -> SeqSet:
    """Exact I_t(x) cap I_t(y) for equal-length x, y."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return insertion_ball(x, t) & insertion_ball(y, t)


@lru_cache(maxsize=32)
def _gap_patterns(n: int, t: int) -> tuple:
    """Column recipe of the t-insertion ball table at length n.

    Each supersequence is generated once, by a canonical rule: build it left
    to right and match greedily against x, so a char equal to the next
    unmatched symbol of x always counts as matched and an inserted char must
    differ from it; once x is exhausted the trailing inserts are free.  So
    k <= t inserts go into a multiset of gaps g_0 <= ... <= g_{k-1} of x, the
    insert in gap g_j is the complement of x[g_j], and the t-k bits after x
    are free.  For each k there is one (shift, flip, keep) term per segment
    s = 0..k of x:
    x shifted left by t-s puts segment s in place, and also the source bit
    x[g_s] of insert s, which `flip` complements; `keep` masks both.  The
    values of the free trailing bits come last.

    A negative t, or a ball above 2**ENUM_CAP words, is refused before
    anything is allocated.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    size = ball_size_formula(n, t)
    if size > 1 << ENUM_CAP:
        raise EnumerationCapError(f"insertion ball of {size} words exceeds cap 2**{ENUM_CAP}")
    dt = _word_dtype(n + t)
    out = []
    for k in range(t + 1):
        cuts = [(0, *g, n) for g in combinations_with_replacement(range(n), k)]
        if not cuts:
            continue
        terms = []
        for s in range(k + 1):
            # segment s is x[c[s]:c[s + 1]]; insert s sits in gap c[s + 1]
            flips = [1 << (n + t - 1 - c[s + 1] - s) if s < k else 0 for c in cuts]
            keeps = [
                f | ((1 << (n - c[s])) - (1 << (n - c[s + 1]))) << (t - s)
                for f, c in zip(flips, cuts)
            ]
            terms.append((t - s, _const(flips, dt), _const(keeps, dt)))
        out.append((tuple(terms), _const(range(1 << (t - k)), dt)))
    return tuple(out)


def _word_dtype(bits: int):
    """uint64 for values of up to 64 bits, Python ints (object) beyond."""
    return np.uint64 if bits <= 64 else object


def _const(seq, dt) -> np.ndarray:
    arr = np.array(list(seq), dtype=dt)
    arr.flags.writeable = False
    return arr


def _insertion_table(vals: Sequence[int], n: int, t: int) -> np.ndarray:
    """(len(vals), |I_t|) table: row i holds the t-insertion ball of vals[i].

    Values are uint64 while n + t <= 64 and Python ints (dtype=object) above.
    """
    x = np.asarray(vals, dtype=_word_dtype(n + t))[:, None]
    parts = []
    for terms, tails in _gap_patterns(n, t):
        base = 0
        for shift, flip, keep in terms:
            base = base | (((x << shift) ^ flip) & keep)
        parts.append((base[:, :, None] | tails).reshape(len(x), base.shape[1] * len(tails)))
    return np.concatenate(parts, axis=1)


@lru_cache(maxsize=32)
def _deletion_masks(n: int, t: int) -> tuple:
    """Column recipe of the t-deletion table at length n: one mask per segment.

    Column j deletes the j-th t-subset p_0 < ... < p_{t-1} of positions
    (in itertools.combinations order), which cuts x into segments s = 0..t,
    segment s being x[p_{s-1}+1 : p_s] (with p_{-1} = -1, p_t = n).  It keeps
    its bits after the t - s deletions to its right, so it is masked and
    shifted right by t - s.  A table above 2**ENUM_CAP columns is refused.
    """
    if comb(n, t) > 1 << ENUM_CAP:
        raise EnumerationCapError(f"deletion table of {comb(n, t)} columns exceeds cap 2**{ENUM_CAP}")
    cuts = [(-1, *p, n) for p in combinations(range(n), t)]
    return tuple(
        _const([(1 << (n - c[s] - 1)) - (1 << (n - c[s + 1])) for c in cuts], np.uint64)
        for s in range(t + 1)
    )


def _deletion_table(vals: Sequence[int], n: int, t: int) -> np.ndarray:
    """(len(vals), C(n, t)) table: row i holds the t-deletion ball of vals[i],
    one column per set of deleted positions, so values repeat within a row.
    Words are at most MAX_LEN = 64 bits, so the table is uint64.
    """
    x = np.asarray(vals, dtype=np.uint64)[:, None]
    out = 0
    for s, keep in enumerate(_deletion_masks(n, t)):
        out = out | ((x & keep) >> (t - s))
    return out


# Ball-table entries per block of first owners in the pair scan; bounds the
# pair incidences held at once, and with them peak memory.
_BLOCK = 1 << 18


def _pair_blocks(vals: np.ndarray, n: int, t: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Exact overlaps of the t-insertion balls of all pairs of vals that meet.

    Yields (keys, counts) block by block, where key a*rows+b (a < b) names
    the pair (vals[a], vals[b]) and count its overlap.  Keys ascend within
    and across blocks.  Each ball value is tagged with its owner row in the
    low bits and the table is sorted once, so equal values form runs with
    owners ascending; a block of first owners emits its pairs from the runs
    one offset at a time and counts them with np.unique.
    """
    rows = len(vals)
    tag = (rows - 1).bit_length()
    table = _insertion_table(vals, n, t).astype(_word_dtype(n + t + tag), copy=False)
    width = table.shape[1]
    table <<= tag
    table |= np.arange(rows).astype(table.dtype)[:, None]
    flat = table.ravel()
    flat.sort()
    z = flat >> tag
    eq = z[1:] == z[:-1]
    shared = np.zeros(len(z), dtype=bool)
    shared[1:] = eq
    shared[:-1] |= eq
    z = z[shared]
    owner = (flat[shared] & ((1 << tag) - 1)).astype(np.int64)
    del table, flat, eq, shared  # the blocks below need only z and owner
    step = max(1, _BLOCK // width)
    for lo in range(0, rows, step):
        first = np.flatnonzero((owner >= lo) & (owner < lo + step))
        keys = []
        for d in count(1):
            first = first[first + d < len(z)]
            first = first[z[first] == z[first + d]]
            if not first.size:
                break
            keys.append(owner[first] * rows + owner[first + d])
        if keys:
            yield np.unique(np.concatenate(keys), return_counts=True)


def _row_overlaps(both: np.ndarray) -> np.ndarray:
    """How many values the two halves of each row share, for two row-aligned
    tables joined side by side with no value twice in a row of either: the
    adjacent equal values of each row, sorted in place.  Callers hold the
    join until their next block; freed here, its memory went back to the
    system every block, and verify of the n = 18 np5 code ran ~30 % slower."""
    both.sort(axis=1)
    return (both[:, 1:] == both[:, :-1]).sum(axis=1)


def _close_blocks(vals: np.ndarray, n: int, t: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Like _pair_blocks, restricted to the pairs at d_L <= 1.

    Those pairs come from the engine at t = 1; each one's t-balls are then
    intersected row-wise by _row_overlaps.
    """
    close = [keys for keys, _ in _pair_blocks(vals, n, 1)]
    if not close:
        return
    close = np.concatenate(close)
    step = max(1, _BLOCK // (2 * ball_size_formula(n, t)))
    for lo in range(0, len(close), step):
        keys = close[lo : lo + step]
        a, b = np.divmod(keys, len(vals))
        both = np.concatenate([_insertion_table(vals[i], n, t) for i in (a, b)], axis=1)
        yield keys, _row_overlaps(both)


def _worst_pair(code: SeqSet, t: int, close_only: bool) -> Tuple[int, BitSeq, BitSeq]:
    """(overlap, x, y) for the lexicographically first pair of largest overlap.

    When no pair overlaps, that is (0, the two smallest words).
    """
    if len(code) < 2:
        raise ValueError("read coverage needs at least two codewords")
    vals = code._array()
    blocks = (
        _close_blocks(vals, code.n, t)
        if close_only
        else _pair_blocks(vals, code.n, t)
    )
    best, key = 0, 1
    for keys, counts in blocks:
        i = int(counts.argmax())
        if counts[i] > best:
            best, key = int(counts[i]), int(keys[i])
    a, b = divmod(key, len(vals))
    return best, BitSeq.from_int(int(vals[a]), code.n), BitSeq.from_int(int(vals[b]), code.n)


def read_coverage(code: SeqSet, t: int) -> int:
    """Exact max |I_t(x) cap I_t(y)| over distinct codewords (no pair skipped)."""
    return _worst_pair(code, t, False)[0]


def coverage_argmax(code: SeqSet, t: int) -> Tuple[int, BitSeq, BitSeq]:
    """(max intersection size, x, y) attaining the read coverage.

    Ties go to the lexicographically smallest (x, y) with x < y.
    """
    return _worst_pair(code, t, False)


def coverage_at_least(code: SeqSet, t: int, bound: int) -> Optional[Tuple[int, BitSeq, BitSeq]]:
    """The worst pair (overlap, x, y) if the read coverage is >= bound, else None.

    For t = 2 with bound > 6 (and n >= 4), only pairs whose 1-insertion balls
    meet can reach the bound, so only those are intersected.  Every skipped
    pair has intersection at most 6, so when the worst intersected pair
    reaches the bound it is the worst pair overall.  (At t = 1 only such
    pairs overlap at all, and the full scan finds just them.)
    """
    if len(code) < 2 or nplus_formula(code.n, t) < bound:
        return None
    worst = _worst_pair(code, t, close_only=t == 2 and bound > 6 and code.n >= 4)
    return worst if worst[0] >= bound else None


def coverage_less_than(code: SeqSet, t: int, bound: int) -> bool:
    """Threshold query: is the read coverage < bound?"""
    return coverage_at_least(code, t, bound) is None
