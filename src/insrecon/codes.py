"""Code constructions and their syndromes.

Seven families, all realized as syndrome cosets of an ambient set:

* ``all``      -- the whole space, one coset of a constant zero residue.

* ``vt``       -- the Varshamov-Tenengolts code (position-weighted sum mod n+1).
* ``tworead``  -- inversion + weight parity over R(n, 2, 2P); two reads
                  suffice after a single insertion.
* ``np4``      -- same syndromes over R(n, 3, P/3); N = n+4 reads suffice
                  after two insertions.
* ``np5``      -- same syndromes over R(n, 2, 2P/3); N = n+5 variant.
* ``twoins``   -- higher-order parity checks on the 10/01-indicators; corrects
                  two insertions (or deletions) outright.
* ``fiveread`` -- VT + segmented indicator checks summed over even/odd windows
                  over R(n, 3, P); five reads suffice after two insertions.

Builders materialize codes by exhaustive filtering (refused above the
enumeration cap); the ``*_member`` predicates work at any length.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from . import seqs
from .balls import SeqSet, coverage_at_least, coverage_less_than
from .confusability import ConfusabilityVerdict, classify_pair
from .seqs import MAX_LEN, BitSeq, SequenceTooLongError, indicator, in_r, inversions, r_mask


# ---------------------------------------------------------------------------
# higher-order parity checks


@dataclass(frozen=True)
class WeightVectors:
    """Integer weights (i), (i(i+1)/2), (i(i+1)(2i+1)/6) for i = 1..n-1."""

    m0: Tuple[int, ...]
    m1: Tuple[int, ...]
    m2: Tuple[int, ...]


def weight_vectors(n: int) -> WeightVectors:
    if n < 2:
        raise ValueError("weight vectors need n >= 2")
    idx = range(1, n)
    return WeightVectors(
        m0=tuple(i for i in idx),
        m1=tuple(i * (i + 1) // 2 for i in idx),
        m2=tuple(i * (i + 1) * (2 * i + 1) // 6 for i in idx),
    )


@dataclass(frozen=True)
class ParityVector:
    """f = three residues of the 10-indicator, h = two of the 01-indicator."""

    f: Tuple[int, int, int]
    h: Tuple[int, int]
    moduli: Tuple[int, int, int, int, int]

    def residues(self) -> Tuple[int, int, int, int, int]:
        return (*self.f, *self.h)

    def to_record(self) -> str:
        return ",".join(map(str, self.residues())) + " mod " + ",".join(
            map(str, self.moduli)
        )


_H_WEIGHTS = ("m0", "m1")


def _parity_moduli(n: int) -> Tuple[int, int, int, int, int]:
    """Moduli of the five checks on a length-n word: (2n, n^2, n^3, 3, 2n)."""
    return (2 * n, n * n, n**3, 3, 2 * n)


def _dot(ind: BitSeq, weights: Sequence[int]) -> int:
    total = 0
    L = ind.n
    v = ind.val
    for i in range(1, L + 1):
        if (v >> (L - i)) & 1:
            total += weights[i - 1]
    return total


def _checks(z: BitSeq, moduli: Tuple[int, int, int, int, int], h_second: str) -> ParityVector:
    if h_second not in _H_WEIGHTS:
        raise ValueError(f"h_second must be one of {_H_WEIGHTS}")
    w = weight_vectors(z.n)
    i10 = indicator(z, 1, 0)
    i01 = indicator(z, 0, 1)
    M1, M2, M3, M4, M5 = moduli
    f = (_dot(i10, w.m0) % M1, _dot(i10, w.m1) % M2, _dot(i10, w.m2) % M3)
    hw = w.m1 if h_second == "m1" else w.m0
    h = (i01.weight() % M4, _dot(i01, hw) % M5)
    return ParityVector(f, h, moduli)


def parity_checks(x: BitSeq, h_second: str = "m1") -> ParityVector:
    """Whole-sequence checks, moduli (2n, n^2, n^3, 3, 2n).

    The second h component uses the m1 weights by default; the m0 variant is
    exposed because the windowed checks below use it, and the desk-scale
    tests show only the m1 form preserves the two-insertion correction
    property (see README).
    """
    n = x.n
    if n < 2:
        raise ValueError("parity checks need length >= 2")
    return _checks(x, _parity_moduli(n), h_second)


def segment_checks(x: BitSeq, k: int, m: int, h_second: str = "m0") -> ParityVector:
    """Checks of the window x[km+1 .. km+2m] under moduli (4m, 4m^2, 8m^3, 3, 4m).

    Requires m | n and 0 <= k <= n/m - 2.  Equals parity_checks applied to
    the extracted window (those windows have length 2m, so the whole-sequence
    moduli specialize to exactly these), up to the h_second choice.
    """
    n = x.n
    if m < 1 or n % m != 0:
        raise ValueError(f"segment width {m} must divide n={n}")
    s = n // m
    if not 0 <= k <= s - 2:
        raise ValueError(f"segment index {k} out of range 0..{s - 2}")
    window = x.subword(k * m + 1, k * m + 2 * m)
    return _checks(window, _parity_moduli(2 * m), h_second)


@dataclass(frozen=True)
class TildeSums:
    even: ParityVector
    odd: ParityVector


def tilde_sums(x: BitSeq, m: int, h_second: str = "m0") -> TildeSums:
    """Componentwise modular sums of the window checks over even/odd k."""
    n = x.n
    if m < 1 or n % m != 0:
        raise ValueError(f"segment width {m} must divide n={n}")
    moduli = _parity_moduli(2 * m)
    acc = {0: [0, 0, 0, 0, 0], 1: [0, 0, 0, 0, 0]}
    for k in range(0, n // m - 1):
        res = segment_checks(x, k, m, h_second).residues()
        slot = acc[k % 2]
        for idx in range(5):
            slot[idx] = (slot[idx] + res[idx]) % moduli[idx]
    def pack(slot: List[int]) -> ParityVector:
        return ParityVector((slot[0], slot[1], slot[2]), (slot[3], slot[4]), moduli)

    return TildeSums(even=pack(acc[0]), odd=pack(acc[1]))


# ---------------------------------------------------------------------------
# code parameter records


class _Params:
    """Header fields and residues come from the dataclass fields after ``n``.

    A family declares its ambient set as ``_r(P) -> (ell, t)``, meaning
    R(n, ell, t), or as the whole space by having no ``_r``; and a kernel,
    ``_kernel(vals, n, P, h_second)``, giving the arrays of the
    ``residues()`` of packed words, with their moduli.  A family whose
    residues depend only on the weight w and the position sum S of a word
    declares them as ``_ws(w, S, n, P)`` instead, and its kernel is that of
    ``_weight_and_sum(vals)``.
    """

    _h_second = ""
    _r = None
    _ws = None
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, *r))
    _kernel = classmethod(lambda cls, vals, n, P, h: cls._ws(*_weight_and_sum(vals, n), n, P))

    @classmethod
    def _check(cls, n: int, P: Optional[int]) -> None:
        """The record's own checks of n and P, run before a sweep enumerates."""

    def _residues_equal(self, vals: np.ndarray, h_second: Optional[str] = None) -> np.ndarray:
        residues, _ = self._kernel(vals, self.n, getattr(self, "P", None),
                                   h_second or self._h_second)
        return np.logical_and.reduce([r == want for r, want in zip(residues, self.residues())])

    def _items(self) -> List[Tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)[1:]]

    def params_dict(self) -> Dict[str, str]:
        return {
            k: str(v) if isinstance(v, int) else "|".join(map(str, v))
            for k, v in self._items()
        }

    def residues(self) -> Tuple[int, ...]:
        out: List[int] = []
        for k, v in self._items():
            if k != "P":
                out.extend((v,) if isinstance(v, int) else v)
        return tuple(out)


@dataclass(frozen=True)
class AllParams(_Params):
    """The trivial code: the entire space, one coset of the constant residue 0."""

    n: int

    family = "all"
    _kernel = staticmethod(lambda vals, n, P, h: ([np.zeros(vals.shape, dtype=np.uint8)], (1,)))
    _from_residues = classmethod(lambda cls, n, P, r: cls(n))

    def residues(self) -> Tuple[int, ...]:
        return (0,)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class VTParams(_Params):
    n: int
    a: int

    family = "vt"
    _ws = staticmethod(lambda w, s, n, P: ([_vt_residue(w, s, n)], (n + 1,)))

    def __post_init__(self):
        if not 0 <= self.a <= self.n:
            raise ValueError(f"VT residue a={self.a} out of range 0..{self.n}")


@dataclass(frozen=True)
class _InvWtParams(_Params):
    """Inversions mod 1+P and weight mod 2 over a periodicity-limited ambient."""

    n: int
    P: int
    c: int
    d: int

    _ws = staticmethod(lambda w, s, n, P: (_inv_wt_residues(w, s, P), (P + 1, 2)))
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, P, *r))
    _check = classmethod(lambda cls, n, P: cls(n, P, 0, 0))

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        if not 0 <= self.c <= self.P:
            raise ValueError(f"residue c={self.c} out of range 0..{self.P}")
        if self.d not in (0, 1):
            raise ValueError("parity d must be 0 or 1")


class TwoReadParams(_InvWtParams):
    family = "tworead"
    _r = staticmethod(lambda P: (2, 2 * P))


class Np4Params(_InvWtParams):
    family = "np4"
    _r = staticmethod(lambda P: (3, P // 3))

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("np4 requires n >= 4")
        if self.P < 6 or self.P % 3 != 0:
            raise ValueError("np4 requires P >= 6 with 3 | P")
        super().__post_init__()


class Np5Params(_InvWtParams):
    family = "np5"
    _r = staticmethod(lambda P: (2, 2 * P // 3))

    def __post_init__(self):
        # 2P/3 must be integral; flooring would silently loosen the constraint
        if self.P < 3 or self.P % 3 != 0:
            raise ValueError("np5 requires P >= 3 with 3 | P")
        super().__post_init__()


@dataclass(frozen=True)
class TwoInsertionParams(_Params):
    n: int
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int

    family = "twoins"
    _h_second = "m1"
    _kernel = staticmethod(lambda vals, n, P, h: (_parity_residues(vals, n, h), _parity_moduli(n)))

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("twoins requires n >= 2")
        names = ("a1", "a2", "a3", "a4", "a5")
        for name, val, mod in zip(names, self.residues(), _parity_moduli(self.n)):
            if not 0 <= val < mod:
                raise ValueError(f"residue {name}={val} out of range 0..{mod - 1}")


@dataclass(frozen=True)
class FiveReadParams(_Params):
    n: int
    P: int
    a: int
    avec: Tuple[int, int, int, int, int]
    bvec: Tuple[int, int, int, int, int]

    family = "fiveread"
    _h_second = "m0"
    _r = staticmethod(lambda P: (3, P))
    _kernel = staticmethod(lambda vals, n, P, h: _five_read_residues(vals, n, P, h))
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, P, r[0], r[1:6], r[6:11]))

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        m = 7 * self.P + 1
        if m >= self.n:
            raise ValueError(f"requires segment width m=7P+1={m} < n={self.n}")
        if not 0 <= self.a <= self.n:
            raise ValueError(f"VT residue a={self.a} out of range 0..{self.n}")
        bounds = _parity_moduli(2 * m)
        for label, vec in (("avec", self.avec), ("bvec", self.bvec)):
            if len(vec) != 5:
                raise ValueError(f"{label} must have 5 residues")
            for val, mod in zip(vec, bounds):
                if not 0 <= val < mod:
                    raise ValueError(f"{label} residue {val} out of range 0..{mod - 1}")

    @property
    def m(self) -> int:
        return 7 * self.P + 1


CodeParams = (
    AllParams | VTParams | TwoReadParams | Np4Params | Np5Params | TwoInsertionParams
    | FiveReadParams
)

FAMILIES: Dict[str, Type] = {cls.family: cls for cls in (
    AllParams, VTParams, TwoReadParams, Np4Params, Np5Params, TwoInsertionParams, FiveReadParams)}


# ---------------------------------------------------------------------------
# syndromes and membership


def vt_syndrome(x: BitSeq) -> int:
    """sum_i i * x_i mod (n + 1)."""
    total = 0
    for i, bit in enumerate(x, start=1):
        if bit:
            total += i
    return total % (x.n + 1)


def vt_member(x: BitSeq, a: int) -> bool:
    return vt_syndrome(x) == a


def _inv_wt_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    return inversions(x) % (1 + P) == c and x.weight() % 2 == d


def two_read_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    if P < 1:
        raise ValueError("P must be >= 1")
    return in_r(x, 2, 2 * P) and _inv_wt_member(x, P, c, d)


def np4_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    if P < 6 or P % 3 != 0:
        raise ValueError("np4 requires P >= 6 with 3 | P")
    return in_r(x, 3, P // 3) and _inv_wt_member(x, P, c, d)


def np5_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    if P < 3 or P % 3 != 0:
        raise ValueError("np5 requires P >= 3 with 3 | P")
    return in_r(x, 2, 2 * P // 3) and _inv_wt_member(x, P, c, d)


def two_insertion_syndrome(x: BitSeq, h_second: str = "m1") -> Tuple[int, int, int, int, int]:
    return parity_checks(x, h_second).residues()


def two_insertion_member(x: BitSeq, residues: Sequence[int], h_second: str = "m1") -> bool:
    return two_insertion_syndrome(x, h_second) == tuple(residues)


def _padded(x: BitSeq, m: int) -> BitSeq:
    """x itself when m | n, else x with zeros appended to the next multiple."""
    n = x.n
    if n % m == 0:
        return x
    nbar = (n // m + 1) * m
    return x + BitSeq.from_int(0, nbar - n)


def five_read_syndrome(
    x: BitSeq, P: int, h_second: str = "m0"
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(VT residue of x, even sums, odd sums); the sums run on the padded word."""
    m = 7 * P + 1
    if m >= x.n:
        raise ValueError(f"requires m=7P+1={m} < n={x.n}")
    sums = tilde_sums(_padded(x, m), m, h_second)
    return vt_syndrome(x), sums.even.residues(), sums.odd.residues()


def five_read_member(
    x: BitSeq,
    P: int,
    a: int,
    avec: Sequence[int],
    bvec: Sequence[int],
    h_second: str = "m0",
) -> bool:
    if not in_r(x, 3, P):
        return False
    va, ve, vo = five_read_syndrome(x, P, h_second)
    return va == a and ve == tuple(avec) and vo == tuple(bvec)


# ---------------------------------------------------------------------------
# vectorized syndrome kernels: the exact residues of a whole array of packed
# words, one int array per residue, from weighted bit sums

# _BYTE_BITS[v, j] is bit j (least significant first) of the byte v
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int32)


def _bit_sums(vals: np.ndarray, nbits: int, *weights: Sequence[int]) -> List[np.ndarray]:
    """sum_b w[b] * (bit b of each word) for each weight vector w, LSB first.

    One 256-entry table per byte and weight vector; every sum here is < 2**31.
    """
    sums = [np.zeros(vals.shape, dtype=np.int32) for _ in weights]
    for lo in range(0, nbits, 8):
        byte = (vals >> lo) & 0xFF
        for acc, w in zip(sums, weights):
            part = np.asarray(w[lo : lo + 8], dtype=np.int32)
            acc += (_BYTE_BITS[:, : part.size] @ part)[byte]
    return sums


def _weight_and_sum(vals: np.ndarray, n: int) -> List[np.ndarray]:
    """The weight w and the position sum S = sum_b b * bit_b of every word."""
    return _bit_sums(vals, n, [1] * n, range(n))


def _vt_residue(w: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Bit b is x_{n-b}, so sum_i i * x_i = n*w - S."""
    return (n * w - s) % (n + 1)


def _inv_wt_residues(w: np.ndarray, s: np.ndarray, P: int) -> List[np.ndarray]:
    """[inversions mod P+1, weight mod 2]: the one at bit b precedes b symbols,
    and the ones among them make up w(w-1)/2 pairs, so inversions = S - w(w-1)/2.
    """
    return [(s - w * (w - 1) // 2) % (P + 1), w % 2]


def _parity_residues(vals: np.ndarray, n: int, h_second: str) -> List[np.ndarray]:
    """The five parity_checks residues of every length-n word."""
    if n < 2:
        raise ValueError("parity checks need length >= 2")
    if h_second not in _H_WEIGHTS:
        raise ValueError(f"h_second must be one of {_H_WEIGHTS}")
    # indicator position i = 1..n-1 is bit n-1-i, so the weights run reversed
    m0, m1, m2 = (vec[::-1] for vec in astuple(weight_vectors(n)))
    low = (1 << (n - 1)) - 1
    shifted = vals >> 1
    sums = _bit_sums(shifted & ~vals & low, n - 1, m0, m1, m2)
    sums += _bit_sums(~shifted & vals & low, n - 1, [1] * (n - 1), m1 if h_second == "m1" else m0)
    return [s % mod for s, mod in zip(sums, _parity_moduli(n))]


def _five_read_residues(vals: np.ndarray, n: int, P: int, h_second: str):
    """VT, even and odd window sums of every word; windows of the padded word."""
    m = 7 * P + 1
    if m >= n:
        raise ValueError(f"requires m=7P+1={m} < n={n}")
    nbar = -(-n // m) * m
    if nbar > MAX_LEN:
        raise SequenceTooLongError(f"padded length {nbar} exceeds MAX_LEN")
    moduli = _parity_moduli(2 * m)
    padded = vals.astype(np.uint64) << (nbar - n)
    sums = [[np.zeros(vals.shape, dtype=np.int32)] * 5 for _ in range(2)]
    for k in range(nbar // m - 1):
        window = (padded >> (nbar - (k + 2) * m)) & ((1 << 2 * m) - 1)
        side = sums[k % 2]
        for idx, r in enumerate(_parity_residues(window, 2 * m, h_second)):
            side[idx] = (side[idx] + r) % moduli[idx]
    vt = _vt_residue(*_weight_and_sum(vals, n), n)
    return [vt, *sums[0], *sums[1]], (n + 1, *moduli, *moduli)


def _seqset(n: int, vals: np.ndarray) -> SeqSet:
    return SeqSet._from_vals(n, vals.tolist())


# ---------------------------------------------------------------------------
# builders


def build_code(params: CodeParams, h_second: Optional[str] = None) -> SeqSet:
    """Materialize the coset described by a parameter record."""
    blocks = _keyed_blocks(type(params), params.n, getattr(params, "P", None),
                           h_second or params._h_second)
    return _seqset(params.n, np.concatenate(
        [words[keys == _key(params.residues(), moduli)] for words, keys, moduli in blocks]))


def build_all(n: int) -> SeqSet:
    return build_code(AllParams(n))


def build_vt(n: int, a: int) -> SeqSet:
    """All x of length n with VT syndrome a."""
    return build_code(VTParams(n, a))


def build_two_read_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 2, 2P)."""
    return build_code(TwoReadParams(n, P, c, d))


def build_np4_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 3, P/3); coverage <= n+3 after 2 insertions."""
    return build_code(Np4Params(n, P, c, d))


def build_np5_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 2, 2P/3); coverage <= n+4 after 2 insertions."""
    return build_code(Np5Params(n, P, c, d))


def build_two_insertion_code(n: int, a1: int, a2: int, a3: int, a4: int, a5: int,
                             h_second: str = "m1") -> SeqSet:
    """Coset of the higher-order parity checks over the full space."""
    return build_code(TwoInsertionParams(n, a1, a2, a3, a4, a5), h_second)


def build_five_read_code(n: int, P: int, a: int, avec: Sequence[int], bvec: Sequence[int],
                         h_second: str = "m0") -> SeqSet:
    """VT + even/odd segment-sum coset of R(n, 3, P).

    When 7P+1 does not divide n, the segment sums are evaluated on the
    zero-padded word while the VT and R(n, 3, P) conditions stay on x itself.
    """
    return build_code(FiveReadParams(n, P, a, tuple(avec), tuple(bvec)), h_second)


# ---------------------------------------------------------------------------
# coset search, redundancy, verification


def redundancy(code: SeqSet, n: int) -> float:
    """n - log2 |code|."""
    if len(code) == 0:
        raise ValueError("redundancy of an empty code is undefined")
    return n - math.log2(len(code))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a reconstruction-code check; vacuous when |code| <= 1.

    When the check fails, ``worst`` is (overlap, x, y) for the worst pair of
    codewords, the lexicographically first on ties, and ``verdict`` is
    ``classify_pair(x, y)``.
    """

    ok: bool
    vacuous: bool
    worst: Optional[Tuple[int, BitSeq, BitSeq]] = None
    verdict: Optional[ConfusabilityVerdict] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_reconstruction_code(code: SeqSet, t: int, N: int) -> VerifyResult:
    """True iff the read coverage after t insertions is < N."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(code) < 2:
        return VerifyResult(True, True)
    if coverage_less_than(code, t, N):
        return VerifyResult(True, False)
    worst = coverage_at_least(code, t, N)
    return VerifyResult(False, False, worst, classify_pair(worst[1], worst[2]))


def _key(residues: Sequence, moduli: Sequence[int]):
    """The mixed-radix key of residues, first residue most significant, so that
    ascending keys are ascending residue tuples.  Arrays of residues give one
    key per word: int64, or Python ints when the key space passes 2**63."""
    if isinstance(residues[0], np.ndarray):
        if math.prod(moduli) < 2**63:
            residues = [residues[0].astype(np.int64), *residues[1:]]
        else:
            residues = [r.astype(object) for r in residues]
    key = 0
    for r, m in zip(residues, moduli):
        key = key * m + r
    return key


def _keyed_blocks(cls: Type, n: int, P: Optional[int],
                  h_second: str) -> Iterator[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]]:
    """(ambient words, their keys, the moduli) of each block of {0,1}^n, ascending.

    A ``_ws`` family keys a block without looking at its words: w and S are
    linear in the bits, so a block's sums are those of its low parts, taken
    once from one table, plus the weight w_h and the position sum S_h of its
    high part h, shifted up by the block width k: w = w_low + w_h and
    S = S_low + S_h + k * w_h.  Other families run their kernel on the block.
    """
    cls._check(n, P)
    k = seqs._block_bits(n)
    if cls._ws is not None:
        low_w, low_s = _weight_and_sum(np.arange(1 << k), k)
    for high, words in seqs._blocks(n):
        keep = r_mask(words, n, *cls._r(P)) if cls._r is not None else slice(None)
        words = words[keep]
        if cls._ws is not None:
            w = high.bit_count()
            s = k * w + sum(b for b in range(n - k) if high >> b & 1)
            residues, moduli = cls._ws((low_w + w)[keep], (low_s + s)[keep], n, P)
        elif words.size or high == 0:
            residues, moduli = cls._kernel(words, n, P, h_second)
        else:  # no ambient word in this block, so no kernel call
            residues = [words] * len(moduli)
        yield words, _key(residues, moduli), moduli


class CosetSweep(NamedTuple):
    """The nonempty cosets of one family at one length, from one keyed sweep.

    ``keys`` are the distinct word keys (``_key``) in ascending order, with
    their word counts in ``sizes``; ``params(i)`` is the record of coset i, and
    ``blocks()`` walks the keyed ambient again to collect members.
    ``ambient_size`` stays at index 1, where perfbench/spans.py reads it.
    """

    n: int
    ambient_size: int
    keys: np.ndarray
    sizes: np.ndarray
    params: Callable[[int], CodeParams]
    blocks: Callable[[], Iterator[Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]]]

    def best(self) -> int:
        """The largest coset; ties break to the smallest residues."""
        return int(np.argmax(self.sizes))

    def members(self, i: int) -> SeqSet:
        key = self.keys[i]
        return _seqset(self.n, np.concatenate([w[k == key] for w, k, _ in self.blocks()]))

    def partition(self) -> Dict[CodeParams, SeqSet]:
        if not self.keys.size:
            return {}
        words, keys, _ = zip(*self.blocks())
        keys = np.concatenate(keys)
        order = np.argsort(keys, kind="stable")
        chunks = np.split(np.concatenate(words)[order], np.cumsum(self.sizes)[:-1])
        return {self.params(i): _seqset(self.n, c) for i, c in enumerate(chunks)}


def _merge(parts: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """One sorted (keys, counts) from several sorted ones, adding the counts of
    equal keys; a stable sort merges the sorted runs without sorting them again."""
    keys, counts = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(first)
    return keys[first], np.add.reduceat(counts, first)


def _coset_groups(family: str, n: int, P: Optional[int], h_second: Optional[str]) -> CosetSweep:
    """Count the ambient words per key, one block at a time.

    A key space no larger than a block is counted by bincount; a sparser one
    by the unique keys of each block, merged whenever the unmerged ones
    outnumber both the merged ones and the words of 64 blocks.
    perfbench/spans.py traces sweeps through this name, so the public entry
    point is ``coset_sweep``.
    """
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    if P is None and "P" in cls.__dataclass_fields__:
        raise ValueError(f"family {family} needs P")
    blocks = lambda: _keyed_blocks(cls, n, P, h_second or cls._h_second)
    counts, parts = 0, []
    for words, keys, moduli in blocks():
        if math.prod(moduli) <= 1 << seqs._BLOCK_BITS:
            counts = counts + np.bincount(keys, minlength=math.prod(moduli))
        else:
            parts.append(np.unique(keys, return_counts=True))
            unmerged = sum(len(k) for k, _ in parts[1:])
            if unmerged > max(len(parts[0][0]), 64 << seqs._BLOCK_BITS):
                parts = [_merge(parts)]
    if parts:
        keys, sizes = parts[0] if len(parts) == 1 else _merge(parts)
    else:
        keys = np.flatnonzero(counts)
        sizes = counts[keys]

    def params(i: int) -> CodeParams:
        key, residues = int(keys[i]), []
        for m in reversed(moduli):
            key, r = divmod(key, m)
            residues.insert(0, r)
        return cls._from_residues(n, P, tuple(residues))

    return CosetSweep(n, int(sizes.sum()), keys, sizes, params, blocks)


def coset_sweep(family: str, n: int, P: Optional[int] = None,
                h_second: Optional[str] = None) -> CosetSweep:
    """Every nonempty coset of the family with its size, from one ambient sweep."""
    return _coset_groups(family, n, P, h_second)


def coset_partition(family: str, n: int, P: Optional[int] = None,
                    h_second: Optional[str] = None) -> Dict[CodeParams, SeqSet]:
    """Every nonempty coset of the family, grouped in one ambient sweep."""
    return coset_sweep(family, n, P, h_second).partition()


def best_coset(family: str, n: int, P: Optional[int] = None,
               h_second: Optional[str] = None) -> Tuple[CodeParams, SeqSet]:
    """The largest coset; ties break to the smallest residue tuple."""
    sweep = coset_sweep(family, n, P, h_second)
    if not sweep.keys.size:
        raise ValueError(f"all {family} cosets are empty at n={n}")
    best = sweep.best()
    return sweep.params(best), sweep.members(best)


# ---------------------------------------------------------------------------
# code files


def format_header(params: CodeParams) -> str:
    items = params.params_dict()
    body = ",".join(f"{k}={v}" for k, v in items.items())
    return f"# family={params.family} n={params.n} params={body}"


def parse_header(line: str) -> CodeParams:
    head = dict(chunk.partition("=")[::2] for chunk in line.lstrip("#").split())
    cls = FAMILIES.get(head.get("family"))
    if cls is None:
        raise ValueError(f"unknown code family in header: {head.get('family')!r}")
    kv = dict(item.partition("=")[::2] for item in head.get("params", "").split(",") if item)
    values = []
    for f in fields(cls):
        src = head if f.name == "n" else kv
        if f.name not in src:
            raise ValueError(f"code file header is missing field {f.name!r}")
        raw = src[f.name]
        values.append(tuple(map(int, raw.split("|"))) if f.type.startswith("Tuple") else int(raw))
    return cls(*values)


def write_code_file(path: str, params: CodeParams, code: SeqSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_header(params) + "\n")
        fh.write(code.to_lines())


def read_code_file(path: str) -> Tuple[Optional[CodeParams], SeqSet]:
    """Parse a code file; a missing header yields params=None.

    Under a header, every codeword must lie in the coset it names (with the
    family's default h_second), by the membership test build_code uses.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines(keepends=True)
    params: Optional[CodeParams] = None
    if lines and lines[0].startswith("#"):
        params = parse_header(lines[0])
        lines = lines[1:]
    code = SeqSet.parse_lines("".join(lines), None if params is None else params.n)
    if not 0 <= code.n <= MAX_LEN:
        raise SequenceTooLongError(f"code length {code.n} out of range 0..{MAX_LEN}")
    if params is not None:
        vals = np.fromiter(code.values(), dtype=np.uint64, count=len(code))
        ok = params._residues_equal(vals)
        if params._r is not None:
            ok &= r_mask(vals, code.n, *params._r(params.P))
        if not ok.all():
            word = BitSeq.from_int(int(vals[~ok].min()), code.n)
            raise ValueError(f"codeword {word} is not in the code of its header: "
                             f"{format_header(params)[2:]}")
    return params, code
