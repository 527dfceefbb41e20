"""Code constructions and their syndromes.

Six families, all realized as syndrome cosets of an ambient set:

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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from . import seqs
from .balls import SeqSet, coverage_at_least, coverage_less_than
from .confusability import ConfusabilityVerdict, classify_pair
from .seqs import BitSeq, indicator, in_r, inversions, r_values


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

    A coset family also declares its ambient set, ``_ambient(n, P)``, and a
    kernel, ``_kernel(vals, n, P, h_second)``, giving the arrays of the
    ``residues()`` of packed words, with their moduli.
    """

    _h_second = ""
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, *r))

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
    """The trivial code: the entire space."""

    n: int

    family = "all"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")


@dataclass(frozen=True)
class VTParams(_Params):
    n: int
    a: int

    family = "vt"
    _ambient = staticmethod(lambda n, P: _space(n))
    _kernel = staticmethod(lambda vals, n, P, h: ([_vt_keys(vals, n)], (n + 1,)))

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

    _kernel = staticmethod(lambda vals, n, P, h: (_inv_wt_residues(vals, n, P), (P + 1, 2)))
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, P, *r))

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        if not 0 <= self.c <= self.P:
            raise ValueError(f"residue c={self.c} out of range 0..{self.P}")
        if self.d not in (0, 1):
            raise ValueError("parity d must be 0 or 1")


class TwoReadParams(_InvWtParams):
    family = "tworead"
    _ambient = staticmethod(lambda n, P: r_values(n, 2, 2 * P))


class Np4Params(_InvWtParams):
    family = "np4"

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("np4 requires n >= 4")
        if self.P < 6 or self.P % 3 != 0:
            raise ValueError("np4 requires P >= 6 with 3 | P")
        super().__post_init__()

    @staticmethod
    def _ambient(n: int, P: int) -> np.ndarray:
        Np4Params(n, P, 0, 0)
        return r_values(n, 3, P // 3)


class Np5Params(_InvWtParams):
    family = "np5"

    def __post_init__(self):
        # 2P/3 must be integral; flooring would silently loosen the constraint
        if self.P < 3 or self.P % 3 != 0:
            raise ValueError("np5 requires P >= 3 with 3 | P")
        super().__post_init__()

    @staticmethod
    def _ambient(n: int, P: int) -> np.ndarray:
        Np5Params(n, P, 0, 0)
        return r_values(n, 2, 2 * P // 3)


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
    _ambient = staticmethod(lambda n, P: _space(n))
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
    _ambient = staticmethod(lambda n, P: r_values(n, 3, P))
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


def _vt_keys(vals: np.ndarray, n: int) -> np.ndarray:
    """With w the weight and S = sum_b b * bit_b, sum_i i * x_i = n*w - S."""
    w, s = _bit_sums(vals, n, [1] * n, range(n))
    return (n * w - s) % (n + 1)


def _inv_wt_residues(vals: np.ndarray, n: int, P: int) -> List[np.ndarray]:
    """[inversions mod P+1, weight mod 2]: the one at bit b precedes b symbols,
    and the ones among them make up w(w-1)/2 pairs, so inversions = S - w(w-1)/2.
    """
    w, s = _bit_sums(vals, n, [1] * n, range(n))
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
    moduli = _parity_moduli(2 * m)
    padded = vals.astype(np.uint64) << (nbar - n)
    sums = [[np.zeros(vals.shape, dtype=np.int32)] * 5 for _ in range(2)]
    for k in range(nbar // m - 1):
        window = (padded >> (nbar - (k + 2) * m)) & ((1 << 2 * m) - 1)
        side = sums[k % 2]
        for idx, r in enumerate(_parity_residues(window, 2 * m, h_second)):
            side[idx] = (side[idx] + r) % moduli[idx]
    return [_vt_keys(vals, n), *sums[0], *sums[1]], (n + 1, *moduli, *moduli)


def _space(n: int) -> np.ndarray:
    return seqs._enum_values(n)


def _seqset(n: int, vals: np.ndarray) -> SeqSet:
    return SeqSet._from_vals(n, vals.tolist())


# ---------------------------------------------------------------------------
# builders


def build_all(n: int) -> SeqSet:
    return _seqset(n, _space(n))


def build_code(params: CodeParams, h_second: Optional[str] = None) -> SeqSet:
    """Materialize the coset described by a parameter record."""
    if params.family == "all":
        return build_all(params.n)
    n, P = params.n, getattr(params, "P", None)
    ambient = params._ambient(n, P)
    residues, _ = params._kernel(ambient, n, P, h_second or params._h_second)
    hit = np.logical_and.reduce([r == want for r, want in zip(residues, params.residues())])
    return _seqset(n, ambient[hit])


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
    if N < 1:
        raise ValueError("N must be >= 1")
    if len(code) < 2:
        return VerifyResult(True, True)
    if coverage_less_than(code, t, N):
        return VerifyResult(True, False)
    worst = coverage_at_least(code, t, N)
    return VerifyResult(False, False, worst, classify_pair(worst[1], worst[2]))


class CosetSweep(NamedTuple):
    """The nonempty cosets of one family at one length, from one keyed sweep.

    ``keys`` are the distinct ``word_keys`` in ascending residue order, with
    their word counts in ``sizes``; ``params(i)`` is the record of coset i.
    ``ambient_size`` stays at index 1, where perfbench/spans.py reads it.
    """

    n: int
    ambient_size: int
    ambient: np.ndarray
    word_keys: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    params: Callable[[int], CodeParams]

    def best(self) -> int:
        """The largest coset; ties break to the smallest residues."""
        return int(np.argmax(self.sizes))

    def members(self, i: int) -> SeqSet:
        return _seqset(self.n, self.ambient[self.word_keys == self.keys[i]])

    def partition(self) -> Dict[CodeParams, SeqSet]:
        if not self.keys.size:
            return {}
        order = np.argsort(self.word_keys, kind="stable")
        chunks = np.split(self.ambient[order], np.cumsum(self.sizes)[:-1])
        return {self.params(i): _seqset(self.n, c) for i, c in enumerate(chunks)}


def _coset_groups(family: str, n: int, P: Optional[int], h_second: Optional[str]) -> CosetSweep:
    """Key every ambient word by its residues and count the words per key.

    Mixed-radix int64 keys are counted by bincount when the key space is no
    larger than the ambient, else by unique; residues too wide for one int64
    (fiveread) are grouped as rows.  perfbench/spans.py traces sweeps through
    this name, so the public entry point is ``coset_sweep``.
    """
    cls = FAMILIES.get(family)
    if cls is None or cls is AllParams:
        raise ValueError(f"unknown family {family!r}")
    if P is None and "P" in cls.__dataclass_fields__:
        raise ValueError(f"family {family} needs P")
    ambient = cls._ambient(n, P)
    residues, moduli = cls._kernel(ambient, n, P, h_second or cls._h_second)
    if math.prod(moduli) < 2**63:
        word_keys = np.ravel_multi_index(residues, moduli)
        if math.prod(moduli) <= ambient.size:
            counts = np.bincount(word_keys)
            keys = np.flatnonzero(counts)
            sizes = counts[keys]
        else:
            keys, sizes = np.unique(word_keys, return_counts=True)
        unpack = lambda i: np.unravel_index(keys[i], moduli)
    else:
        rows, word_keys, sizes = np.unique(
            np.column_stack(residues), axis=0, return_inverse=True, return_counts=True
        )
        keys = np.arange(len(rows))
        unpack = lambda i: rows[i]
    make = lambda i: cls._from_residues(n, P, tuple(int(r) for r in unpack(i)))
    return CosetSweep(n, int(ambient.size), ambient, word_keys.ravel(), keys, sizes, make)


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
    """Parse a code file; a missing header yields params=None."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    params: Optional[CodeParams] = None
    body = lines
    if lines and lines[0].startswith("#"):
        params = parse_header(lines[0])
        body = lines[1:]
    n = params.n if params is not None else None
    code = SeqSet.parse_lines("\n".join(body), n)
    return params, code
