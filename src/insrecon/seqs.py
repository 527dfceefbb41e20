"""Binary sequence primitives.

Sequences live in ``{0,1}^n`` for ``0 <= n <= MAX_LEN`` and are stored as a
packed machine word (first symbol in the most significant bit), so structural
operations and the periodicity tests reduce to integer shifts and masks.
Public indexing follows the 1-based inclusive convention ``x[l..k]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Union

import numpy as np

MAX_LEN = 64

# Hard ceiling for any 2**n enumeration (code builders, ball tables); counts have none.
ENUM_CAP = 26


class SequenceTooLongError(ValueError):
    """Sequence length exceeds MAX_LEN."""


class EnumerationCapError(ValueError):
    """A 2**n sweep was requested above the enumeration cap."""


def _mask(k: int) -> int:
    return (1 << k) - 1


class BitSeq:
    """An immutable binary sequence of length 0..MAX_LEN.

    ``BitSeq("10110")`` parses a string over {'0','1'}; the empty string is
    the empty sequence.  Concatenation is ``+``, repetition is ``*``, and
    ordering is lexicographic among equal lengths (shorter sorts first).
    """

    __slots__ = ("n", "val")

    def __init__(self, bits: Union[str, Iterable[int]] = "") -> None:
        if isinstance(bits, str):
            if bits and set(bits) - {"0", "1"}:
                raise ValueError(f"not a binary string: {bits!r}")
            n = len(bits)
            val = int(bits, 2) if bits else 0
        else:
            symbols = list(bits)
            if any(s not in (0, 1) for s in symbols):
                raise ValueError("symbols must be 0 or 1")
            n = len(symbols)
            val = 0
            for s in symbols:
                val = (val << 1) | s
        if n > MAX_LEN:
            raise SequenceTooLongError(f"length {n} exceeds MAX_LEN={MAX_LEN}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "val", val)

    @classmethod
    def from_int(cls, val: int, n: int) -> "BitSeq":
        """Wrap a packed value (first symbol = most significant of n bits)."""
        if n < 0 or n > MAX_LEN:
            raise SequenceTooLongError(f"length {n} out of range 0..{MAX_LEN}")
        if val < 0 or val >> n:
            raise ValueError(f"value {val} does not fit in {n} bits")
        obj = cls.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "val", val)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("BitSeq is immutable")

    def __len__(self) -> int:
        return self.n

    def __str__(self) -> str:
        return format(self.val, f"0{self.n}b") if self.n else ""

    def __repr__(self) -> str:
        return f"BitSeq({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BitSeq) and self.n == other.n and self.val == other.val

    def __hash__(self) -> int:
        return hash((self.n, self.val))

    def __lt__(self, other: "BitSeq") -> bool:
        if not isinstance(other, BitSeq):
            return NotImplemented
        return (self.n, self.val) < (other.n, other.val)

    def __iter__(self) -> Iterator[int]:
        for i in range(1, self.n + 1):
            yield self.bit(i)

    def bit(self, i: int) -> int:
        """Symbol at 1-based position i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return (self.val >> (self.n - i)) & 1

    def subword(self, l: int, k: int) -> "BitSeq":
        """The subword x_l ... x_k, 1-based inclusive (requires l <= k)."""
        if not (1 <= l <= k <= self.n):
            raise IndexError(f"subword [{l}:{k}] invalid for length {self.n}")
        width = k - l + 1
        return BitSeq.from_int((self.val >> (self.n - k)) & _mask(width), width)

    def __add__(self, other: "BitSeq") -> "BitSeq":
        if not isinstance(other, BitSeq):
            return NotImplemented
        n = self.n + other.n
        if n > MAX_LEN:
            raise SequenceTooLongError(f"concatenation length {n} exceeds MAX_LEN")
        return BitSeq.from_int((self.val << other.n) | other.val, n)

    def __mul__(self, times: int) -> "BitSeq":
        if times < 0:
            raise ValueError("repetition count must be >= 0")
        n = self.n * times
        if n > MAX_LEN:  # names the first length past MAX_LEN that one copy at a time reaches
            raise SequenceTooLongError(f"concatenation length {self.n * (MAX_LEN // self.n + 1)} exceeds MAX_LEN")
        # val times the sum of 2^(k * self.n) over k < times; the empty word stays empty
        return BitSeq.from_int(self.val * (_mask(n) // (_mask(self.n) or 1)), n)

    def complement(self) -> "BitSeq":
        """Flip every symbol."""
        return BitSeq.from_int(~self.val & _mask(self.n), self.n)

    def reverse(self) -> "BitSeq":
        return BitSeq(tuple(self)[::-1])

    def weight(self) -> int:
        """Number of ones."""
        return self.val.bit_count()


EMPTY = BitSeq("")


def symbol(a: int) -> BitSeq:
    """Length-one sequence for a in {0,1}."""
    if a not in (0, 1):
        raise ValueError("symbol must be 0 or 1")
    return BitSeq.from_int(a, 1)


def alternating(first: int, length: int) -> BitSeq:
    """first, 1-first, first, ... of the given length."""
    return BitSeq([first if i % 2 == 0 else 1 - first for i in range(length)])


@dataclass(frozen=True)
class PeriodReport:
    period: int
    is_alternating: bool


def period(x: BitSeq) -> PeriodReport:
    """Smallest p with x_i = x_{i+p} for all 1 <= i <= n-p.

    Sequences of length <= 1 are assigned period 1 and count as alternating
    by convention.  For n >= 2, alternating means period exactly 2 (adjacent
    symbols all differ); constant runs have period 1 and are not alternating.
    """
    n, v = x.n, x.val
    if n <= 1:
        return PeriodReport(1, True)
    for p in range(1, n + 1):
        if (v ^ (v >> p)) & _mask(n - p) == 0:
            return PeriodReport(p, p == 2)
    raise AssertionError("unreachable: p = n always satisfies the shift identity")


def is_alternating(x: BitSeq) -> bool:
    return period(x).is_alternating


def in_r(x: BitSeq, ell: int, t: int) -> bool:
    """Membership in R(n, ell, t), the one-word call of r_mask."""
    if ell < 1 or t < 1:
        raise ValueError("require ell >= 1 and t >= 1")
    return bool(r_mask(x.val, x.n, ell, t))


def r_mask(vals, n: int, ell: int, t: int):
    """Membership in R(n, ell, t) of packed length-n values (an array, or one
    value as a Python int): every subword of period <= ell has length <= t.

    Equivalent test: no subword of length t+1 has period <= ell.  If n <= t
    there is nothing to violate; if t < ell every length-(t+1) subword
    violates (its period is at most its own length <= ell).
    """
    if ell < 1 or t < 1 or n < 0:
        raise ValueError("require n >= 0, ell >= 1, t >= 1")
    if n <= t or t < ell:
        return np.full(np.shape(vals), n <= t)
    ok = True
    for p in range(1, ell + 1):
        # a run of (t+1-p) agreeing shift-p positions marks a violating window
        run = ~(vals ^ (vals >> p)) & _mask(n - p)
        for _ in range(t - p):
            run = run & (run >> 1)
        ok &= run == 0
    return ok


@lru_cache(maxsize=None)
def _r_automaton(ell: int, t: int) -> np.ndarray:
    """The transition table ``next[state, bit]`` of R(., ell, t), -1 for a
    forbidden step; state 0 is the empty word, and a word is in R(n, ell, t)
    iff its n steps from state 0 are all allowed.

    A state is the last ell bits (fewer while the word is shorter) and, for
    each p <= ell, the length of the current run of positions i with
    x_i = x_{i-p}; a run that reaches t+1-p is a length-(t+1) subword of
    period p.  As in r_mask, a word of length <= t is always in R, and when
    t < ell no longer word is.  States are numbered in breadth-first order.
    """
    if ell < 1 or t < 1:
        raise ValueError("require ell >= 1 and t >= 1")
    states = [((), (0,) * ell)]
    index, rows = {states[0]: 0}, []
    for tail, runs in states:  # the list grows while it is walked
        row = []
        for b in (0, 1):
            runs_b = tuple(runs[p - 1] + 1 if len(tail) >= p and tail[-p] == b else 0
                           for p in range(1, ell + 1))
            if len(tail) == t < ell or any(
                    len(tail) >= p and r > t - p for p, r in enumerate(runs_b, 1)):
                row.append(-1)
                continue
            state = ((*tail, b)[-ell:], runs_b)
            if state not in index:
                index[state] = len(states)
                states.append(state)
            row.append(index[state])
        rows.append(row)
    table = np.array(rows, dtype=np.intp)
    table.flags.writeable = False
    return table


def _walk_counts(child: np.ndarray, n: int) -> np.ndarray:
    """The count of n-bit words that walk from cell 0 to each cell, where
    ``child[c, b]`` is the cell after bit b, or -1 for a forbidden step: a
    step adds every count to each allowed child by the unbuffered np.add.at.
    int64 for the first 62 steps, where no count can pass 2**62; Python ints after."""
    if n < 0:
        raise ValueError(f"length n={n} must be >= 0")
    ok = [child[:, b] >= 0 for b in (0, 1)]
    targets = [child[ok[b], b] for b in (0, 1)]
    counts = np.zeros(len(child), dtype=np.int64)
    counts[0] = 1
    for i in range(n):
        if i == 62:
            counts = counts.astype(object)
        step = np.zeros_like(counts)
        for b in (0, 1):
            np.add.at(step, targets[b], counts[ok[b]])
        counts = step
    return counts


# {0,1}^n is enumerated in blocks of at most 2**_BLOCK_BITS words
_BLOCK_BITS = 16


def _block_bits(n: int) -> int:
    """The block width k = min(n, _BLOCK_BITS) of an n >= 0, after checking n against the cap."""
    if n > ENUM_CAP:
        raise EnumerationCapError(f"2**{n} enumeration exceeds cap n <= {ENUM_CAP}")
    return min(n, _BLOCK_BITS)


def _blocks(n: int) -> Iterator[np.ndarray]:
    """{0,1}^n in ascending blocks of 2**k words that share their top n - k bits:
    block h holds the words h * 2**k + low for low in 0..2**k - 1."""
    k = _block_bits(n)
    low = np.arange(1 << k, dtype=np.uint32)
    for high in range(1 << (n - k)):
        yield low | np.uint32(high << k)


def count_r(n: int, ell: int, t: int) -> int:
    """|R(n, ell, t)| exactly at every n >= 0, by a walk of its automaton.
    As in r_mask, every word of length n <= t is in R: those 2^n are counted
    without the automaton, whose size grows with t."""
    if min(ell, t) >= 1 and 0 <= n <= t:
        return 1 << n
    return int(_walk_counts(_r_automaton(ell, t), n).sum())


def inversions(x: BitSeq) -> int:
    """Number of pairs i < j with x_i > x_j (i.e. x_i = 1, x_j = 0)."""
    ones = total = 0
    for b in x:
        if b:
            ones += 1
        else:
            total += ones
    return total


def hamming_distance(x: BitSeq, y: BitSeq) -> int:
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    return (x.val ^ y.val).bit_count()


def insertion_distance(x: BitSeq, y: BitSeq) -> int:
    """Smallest t with a common length-(n+t) supersequence of x and y.

    For equal lengths this equals n - LCS(x, y): the shortest common
    supersequence has length 2n - LCS.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    a, b = tuple(x), tuple(y)
    n = x.n
    prev = [0] * (n + 1)
    for i in range(1, n + 1):
        cur = [0] * (n + 1)
        ai = a[i - 1]
        for j in range(1, n + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = prev[j] if prev[j] >= cur[j - 1] else cur[j - 1]
        prev = cur
    return n - prev[n]


def indicator(x: BitSeq, a: int, b: int) -> BitSeq:
    """Length-(n-1) marker of positions i where x_i = a and x_{i+1} = b."""
    if x.n < 2:
        raise ValueError("indicator requires length >= 2")
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("a, b must be symbols in {0,1}")
    n, v = x.n, x.val
    av = v if a == 1 else ~v & _mask(n)
    bv = v if b == 1 else ~v & _mask(n)
    out = ((av >> 1) & bv) & _mask(n - 1)
    return BitSeq.from_int(out, n - 1)
