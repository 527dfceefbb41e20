"""Insertion/deletion balls, their closed-form sizes, and pairwise intersections.

The t-insertion ball of x is the set of all length-(n+t) supersequences of x;
the deletion ball is the dual.  Everything here is exact, computed over packed
values, and returned through SeqSet so iteration order is always lexicographic.
"""

from __future__ import annotations

from bisect import bisect_left
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
            arr = np.sort(arr)
            first = _run_starts(arr)
            if not first.all():
                arr = arr[first]
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
        """One sequence per line, lexicographically sorted, trailing newline."""
        return self._line_matrix(self._arr, self.n).tobytes().decode("ascii")

    @staticmethod
    def _line_matrix(words: np.ndarray, n: int) -> np.ndarray:
        """The lines of the n-bit words, in their order, as one (len(words),
        n+1) uint8 matrix: row i is the bits of words[i] as '0' and '1', then
        a newline.  The words are shifted to the top of their bytes, so one
        unpackbits of their big-endian bytes gives the n bits and one more
        column for the newline."""
        width = -(-n // 8)  # the bytes that hold an n-bit word
        big_endian = (words << (8 * width - n)).astype(">u8").view(np.uint8)
        chars = np.unpackbits(big_endian.reshape(-1, 8)[:, 8 - width:], axis=1, count=n + 1)
        chars += ord("0")
        chars[:, n] = ord("\n")
        return chars

    @staticmethod
    def _line_words(data: bytes, n: int) -> Optional[np.ndarray]:
        """The n-bit words whose lines, as in _line_matrix, are exactly the
        bytes data (a (rows, n+1) matrix of '0' and '1' with a newline in
        its last column), in their order, unsorted; None for anything else.
        n is in 0..MAX_LEN.  The mirror of _line_matrix: one packbits of the
        bit columns gives each word's big-endian bytes, with the word at
        their top."""
        if len(data) % (n + 1):
            return None
        chars = np.frombuffer(data, dtype=np.uint8).reshape(-1, n + 1)
        bits = chars[:, :n] - ord("0")
        if not ((bits <= 1).all() and (chars[:, n] == ord("\n")).all()):
            return None
        width = -(-n // 8)  # the bytes that hold an n-bit word
        big_endian = np.zeros((len(chars), 8), dtype=np.uint8)
        big_endian[:, 8 - width :] = np.packbits(bits, axis=1)
        return big_endian.view(">u8").ravel().astype(np.uint64) >> (8 * width - n)

    @classmethod
    def parse_lines(cls, text: str, n: Optional[int] = None) -> "SeqSet":
        """One sequence per line, stripped; blank lines are skipped, except at
        n = 0, where each line is the empty word.  The lines, each ended by a
        newline, are read as one line matrix (_line_words)."""
        lines = list(map(str.strip, text.splitlines()))
        if n != 0:
            lines = list(filter(None, lines))
        if n is None:
            if not lines:
                raise ValueError("cannot infer length from empty input")
            n = len(lines[0])
        _check_code_length(n)  # before the byte matrix is built
        words = cls._line_words("\n".join([*lines, ""]).encode("ascii", "replace"), n)
        if words is None:
            bad = next(ln for ln in lines if len(ln) != n or set(ln) - {"0", "1"})
            raise ValueError(f"bad sequence line: {bad!r}")
        return cls._from_vals(n, words)


def _check_code_length(n: int) -> None:
    if not 0 <= n <= MAX_LEN:
        raise SequenceTooLongError(f"code length {n} out of range 0..{MAX_LEN}")


def _run_starts(arr: np.ndarray) -> np.ndarray:
    """Which entries of the sorted arr start a run of equal values along its
    last axis: the first entry of each distinct value of each row.  Dedupe,
    group and count by it, not by np.unique, which takes a hash path on
    numpy 2.4, far slower on the sorted arrays built here."""
    first = np.ones(arr.shape, dtype=bool)
    first[..., 1:] = arr[..., 1:] != arr[..., :-1]
    return first


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
    values of the free trailing bits come next, and last the first gap g_0
    of each column (n when k = 0), ascending.

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
        firsts = tuple(c[1] for c in cuts)
        out.append((tuple(terms), _const(range(1 << (t - k)), dt), firsts))
    return tuple(out)


def _word_dtype(bits: int):
    """uint64 for values of up to 64 bits, Python ints (object) beyond."""
    return np.uint64 if bits <= 64 else object


def _const(seq, dt) -> np.ndarray:
    arr = np.array(list(seq), dtype=dt)
    arr.flags.writeable = False
    return arr


def _insertion_table(vals: Sequence[int], n: int, t: int, top: int = 0,
                     moved: bool = False, out: Optional[np.ndarray] = None) -> np.ndarray:
    """(len(vals), |I_t|) table: row i holds the t-insertion ball of vals[i].

    Values are uint64 while n + t <= 64 and Python ints (dtype=object) above.
    With top > 0, only some columns: those whose first insertion falls among
    the top ``top`` bits of x, which it complements (moved), or the others,
    whose values start with the top bits of x.  The table is written into
    out when it is given.
    """
    x = np.asarray(vals, dtype=_word_dtype(n + t))[:, None]
    parts = []
    for terms, tails, cols in _kept_patterns(n, t, top, moved):
        base = 0
        for shift, flip, keep in terms:
            base = base | (((x << shift) ^ flip[cols]) & keep[cols])
        parts.append((base[:, :, None] | tails).reshape(len(x), base.shape[1] * len(tails)))
    return np.concatenate(parts, axis=1, out=out)


def _kept_patterns(n: int, t: int, top: int, moved: bool) -> Iterator[tuple]:
    """(terms, tails, cols) of each part of _gap_patterns(n, t), where cols is
    the slice of its gap columns that _insertion_table keeps at top, moved."""
    for terms, tails, firsts in _gap_patterns(n, t):
        split = bisect_left(firsts, top)
        yield terms, tails, slice(0, split) if moved else slice(split, len(firsts))


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
# Ball-table entries per value range of the pair scan: a larger table is
# tagged and sorted one range of values at a time, so its peak stays near
# that of a table of this size.  Every code of the benchmark's check
# workload fits one range at t = 1 (13 798 x 20 entries for vt at n = 18).
_RANGE = 1 << 22
# Ball-table entries built at a time: blocks that stay in cache build about
# three times as fast as a table of _RANGE entries built at once, and their
# temporaries leave the heap small.
_FILL = 1 << 16


def _pair_blocks(vals: np.ndarray, n: int, t: int,
                 start: int = 0) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Exact overlaps of the t-insertion balls of all pairs of vals that meet,
    for the first owners from row start on.

    Yields (keys, counts) block by block, where key a*rows+b (a < b) names
    the pair (vals[a], vals[b]) and count its overlap.  Keys ascend within
    and across blocks.  Each ball value is tagged with its owner row in the
    low bits and sorted, so equal values form runs with owners ascending; a
    block of first owners emits its pairs from the runs one offset at a time
    and counts them with np.unique.

    The table is sorted in 2**k ranges of values, by their top k bits, with
    k the least that leaves about _RANGE entries per range; only the shared
    values of each range are kept.  The ranges ascend, so the kept entries
    are those of one sort of the whole table.  A value starts with the top
    k bits of its owner unless its first insertion falls among them: those
    moved columns are built first, for every owner, and sorted.  Then each
    range builds the other columns of the owners of its top bits, and takes
    its share of the moved entries, so each entry is built once.
    """
    _gap_patterns(n, t)  # a negative t, or a ball above the cap, is refused first
    rows = len(vals)
    tag = (rows - 1).bit_length()
    width = ball_size_formula(n, t)
    bits = min((max(rows * width - 1, 0) // _RANGE).bit_length(), n)
    # the owners of range p, whose top bits are p, are rows owners[p]:owners[p + 1]
    owners = np.append(np.searchsorted(vals, np.arange(1 << bits, dtype=np.uint64) << (n - bits)), rows)
    # (with one range, no column is moved)
    away = np.sort(_entries(vals, n, t, tag, bits, 0, rows if bits else 0, moved=True))
    cut = np.searchsorted((away >> tag >> (n + t - bits)).astype(np.int64), np.arange((1 << bits) + 1))
    kept = []
    for p in range(1 << bits):
        flat = _entries(vals, n, t, tag, bits, owners[p], owners[p + 1], moved=False,
                        head=away[cut[p] : cut[p + 1]])
        flat.sort()
        z = flat >> tag
        eq = z[1:] == z[:-1]
        shared = np.zeros(len(z), dtype=bool)
        shared[1:] = eq
        shared[:-1] |= eq
        kept.append(flat[shared])
        del flat, z, eq, shared
    flat = kept[0] if len(kept) == 1 else np.concatenate(kept)
    del away, kept
    z = flat >> tag
    owner = (flat & ((1 << tag) - 1)).astype(np.int64)
    del flat  # the blocks below need only z and owner
    step = max(1, _BLOCK // width)
    for lo in range(start, rows, step):
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


def _entries(vals: np.ndarray, n: int, t: int, tag: int, bits: int, lo: int, hi: int,
             moved: bool, head: np.ndarray = ()) -> np.ndarray:
    """head, then the moved or the other columns (_insertion_table at top =
    bits) of the ball table of owner rows lo..hi-1, each tagged with its row
    in the low tag bits, as one array, filled _FILL entries at a time."""
    dt = _word_dtype(n + t + tag)
    cols = sum((c.stop - c.start) * len(tails) for _, tails, c in _kept_patterns(n, t, bits, moved))
    out = np.empty(len(head) + (hi - lo) * cols, dtype=dt)
    out[: len(head)] = head
    table = out[len(head) :].reshape(hi - lo, cols)
    chunk = max(1, _FILL // ball_size_formula(n, t))
    for a in range(lo, hi, chunk):
        part = table[a - lo : a - lo + chunk]
        _insertion_table(vals[a : a + len(part)], n, t, bits, moved, out=part)
        part <<= tag
        part |= np.arange(a, a + len(part)).astype(dt)[:, None]
    return out


def _common_supersequences(x: np.ndarray, y: np.ndarray, n: int, t: int) -> np.ndarray:
    """Exact |I_t(x[k]) cap I_t(y[k])| for every k, for n-bit uint64 words.

    z of length n+t lies in I_t(x) iff greedily embedding x into z (take the
    next symbol of x whenever z shows it) uses up x.  That embedding is
    deterministic, so each z in both balls is one path through (i, j), the
    symbols of x and of y matched so far.  After s symbols of z only
    i >= s - t can still finish, so the state is a pair of offsets
    i - s + t and j - s + t in 0..t.  On symbol b an offset stays if the
    next bit of its word is b and drops by one if not (or if the word is
    used up); a path that drops below 0 ends.  ``cnt[ox, oy]`` counts the
    prefixes of z in each state, and after n + t symbols the paths that
    used up both words are ``cnt[0, 0]``.  No count exceeds |I_t(x)|, so
    they are held in the smallest unsigned type that holds it, and in
    Python ints past 64 bits.
    """
    dt = np.min_scalar_type(ball_size_formula(n, t))

    def bits(words):
        # row t + k holds bit k of every word; 2 marks no bit, before or after
        out = np.full((n + 2 * t, len(words)), 2, dtype=np.uint8)
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)[:, None]
        out[t : t + n] = (words >> shifts) & np.uint64(1)
        return out

    xb, yb = bits(x), bits(y)
    cnt = np.zeros((t + 1, t + 1, len(x)), dtype=dt)
    cnt[t, t] = 1
    for s in range(n + t):
        step = np.zeros_like(cnt)
        for b in (0, 1):
            # the next bit at offset o is bit s - t + o of the word
            mx, my = xb[s : s + t + 1, None] == b, yb[None, s : s + t + 1] == b
            moved = cnt * mx
            moved[:-1] += cnt[1:] * ~mx[1:]
            step += moved * my
            step[:, :-1] += moved[:, 1:] * ~my[:, 1:]
        cnt = step
    return cnt[0, 0]


# Pairs per slice of the banded count; bounds its (t+1, t+1, pairs) arrays.
_PAIRS = 1 << 14


def _counted(keys: np.ndarray, vals: np.ndarray, n: int, t: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(keys, t-overlaps) of the ascending pair keys, by _common_supersequences
    in slices of _PAIRS pairs."""
    for lo in range(0, len(keys), _PAIRS):
        part = keys[lo : lo + _PAIRS]
        a, b = np.divmod(part, len(vals))
        yield part, _common_supersequences(vals[a], vals[b], n, t)


def _close_blocks(vals: np.ndarray, n: int, t: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Like _pair_blocks, restricted to the pairs at d_L <= 1.

    Those pairs come from the engine at t = 1 (in value ranges of its
    table, as for any t), block by block, and are counted by
    _common_supersequences in slices of _PAIRS pairs.
    """
    for close, _ in _pair_blocks(vals, n, 1):
        yield from _counted(close, vals, n, t)


# The ceiling scan (_far_blocks) lists at most _SHARE times as many
# supersequences in all as the full scan's table holds, len(vals) * |I_2(n)|;
# past that, _pair_blocks takes the owners left.  An owner lists about
# n**4 / 16 entries against n**2 / 2 in the full table, so a small code of
# long words goes to the full scan after its first owner's deletions.  vt
# subsets at coverage 5, which never reach 6, take 1.3 (n = 18) to 2
# (n = 14) times as long as the full scan alone with this share.
_SHARE = 0.25


def _far_blocks(vals: np.ndarray, n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Like _pair_blocks at t = 2, by blocks of owners in ascending order,
    with no table of the whole code.

    The blocks double from one owner, so that a worst pair of a small owner
    ends the scan after little work, up to a deletion table of _BLOCK
    entries.  A block lists the 2-insertion balls of its owners' distinct
    2-deletions, _BLOCK entries at a time (_near_keys).  The block that
    would take the entries listed past _SHARE times the full scan's table
    goes, with the owners after it, to _pair_blocks.
    """
    rows, lo, size = len(vals), 0, 1
    budget = _SHARE * rows * ball_size_formula(n, 2)
    most = max(1, _BLOCK // comb(n, 2))
    while lo < rows - 1:  # the last owner has no later codeword
        hi = min(lo + size, rows - 1)
        dels = np.sort(_deletion_table(vals[lo:hi], n, 2), axis=1)
        fresh = _run_starts(dels)
        budget -= int(fresh.sum()) * ball_size_formula(n - 2, 2)
        if budget < 0:
            yield from _pair_blocks(vals, n, 2, lo)
            return
        owner = np.broadcast_to(np.arange(lo, hi)[:, None], dels.shape)[fresh]
        yield from _counted(_near_keys(vals, n, dels[fresh], owner), vals, n, 2)
        lo, size = hi, min(2 * size, most)


def _near_keys(vals: np.ndarray, n: int, dels: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The keys a*rows+b, ascending and distinct, of the pairs a < b whose
    2-insertion balls meet, for the owners a of the distinct 2-deletions
    dels of their words.

    The balls meet iff the words share a 2-deletion, so the b of owner a are
    the codewords in I_2(D_2(vals[a])): the _insertion_table rows of the
    deletions at n - 2, _BLOCK entries at a time, kept where they are
    codewords.
    """
    per = max(1, _BLOCK // ball_size_formula(n - 2, 2))
    keys = []
    for i in range(0, len(dels), per):
        near = _insertion_table(dels[i : i + per], n - 2, 2)
        hit = _among(near, vals)
        a, b = np.broadcast_to(owner[i : i + per, None], near.shape)[hit], np.searchsorted(vals, near[hit])
        keys.append((a * len(vals) + b)[b > a])
    keys = np.sort(np.concatenate(keys))
    return keys[_run_starts(keys)]


def _max_pair(blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
              ceiling: float = float("inf")) -> Tuple[int, int]:
    """(count, key) of the first largest count of ascending-key blocks; (0, 1)
    when no count is positive.

    The blocks stop after the first whose count reaches ceiling, an upper
    bound of every count: each smaller key has come by then.
    """
    best, key = 0, 1
    for keys, counts in blocks:
        i = int(counts.argmax())
        if counts[i] > best:
            best, key = int(counts[i]), int(keys[i])
        if best >= ceiling:
            break
    return best, key


def _worst_pair(code: SeqSet, t: int, bound: int = 0) -> Tuple[int, BitSeq, BitSeq]:
    """(overlap, x, y) for the lexicographically first pair of largest overlap;
    when that overlap is below bound, a pair below bound may come instead.

    When no pair overlaps, that is (0, the two smallest words).  For t = 2
    (and n >= 4) the pairs at d_L <= 1 are counted first: any other pair
    shares at most nplus_ell_formula(n, 2, 2) = 6 supersequences, so a close
    pair above 6 is the worst pair overall.  Only when neither the close
    pairs' maximum nor the bound is above 6 are the other pairs counted, by
    the ceiling scan (_far_blocks), which stops at the first block that
    reaches 6: no pair exceeds it, and every smaller key has been counted.
    Past its budget, the full scan counts the owners left.  Other t (at
    t = 1 only close pairs overlap at all), and n < 4, take the full scan
    (_pair_blocks).
    """
    if len(code) < 2:
        raise ValueError("read coverage needs at least two codewords")
    vals, n = code._array(), code.n
    if t != 2 or n < 4:
        best, key = _max_pair(_pair_blocks(vals, n, t))
    else:
        ceiling = nplus_ell_formula(n, 2, 2)
        best, key = _max_pair(_close_blocks(vals, n, t))
        if max(best, bound) <= ceiling:
            best, key = _max_pair(_far_blocks(vals, n), ceiling)
    a, b = divmod(key, len(vals))
    return best, BitSeq.from_int(int(vals[a]), n), BitSeq.from_int(int(vals[b]), n)


def read_coverage(code: SeqSet, t: int) -> int:
    """Exact max |I_t(x) cap I_t(y)| over distinct codewords."""
    return _worst_pair(code, t)[0]


def coverage_argmax(code: SeqSet, t: int) -> Tuple[int, BitSeq, BitSeq]:
    """(max intersection size, x, y) attaining the read coverage.

    Ties go to the lexicographically smallest (x, y) with x < y.
    """
    return _worst_pair(code, t)


def coverage_at_least(code: SeqSet, t: int, bound: int) -> Optional[Tuple[int, BitSeq, BitSeq]]:
    """The worst pair (overlap, x, y) if the read coverage is >= bound, else None.

    For t = 2 with bound > 6 (and n >= 4), only pairs at d_L <= 1 can reach
    the bound, so only those are counted; with a bound of at most 6 the
    ceiling scan counts the others too, up to the first pair at 6
    (_worst_pair).
    """
    if len(code) < 2 or nplus_formula(code.n, t) < bound:
        return None
    worst = _worst_pair(code, t, bound)
    return worst if worst[0] >= bound else None


def coverage_less_than(code: SeqSet, t: int, bound: int) -> bool:
    """Threshold query: is the read coverage < bound?"""
    return coverage_at_least(code, t, bound) is None
