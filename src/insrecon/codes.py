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
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from . import seqs
from .balls import SeqSet, coverage_at_least, coverage_less_than
from .seqs import BitSeq, EnumerationCapError, indicator, in_r, inversions, r_values


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
    return _checks(x, (2 * n, n * n, n**3, 3, 2 * n), h_second)


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
    return _checks(window, (4 * m, 4 * m * m, 8 * m**3, 3, 4 * m), h_second)


@dataclass(frozen=True)
class TildeSums:
    even: ParityVector
    odd: ParityVector


def tilde_sums(x: BitSeq, m: int, h_second: str = "m0") -> TildeSums:
    """Componentwise modular sums of the window checks over even/odd k."""
    n = x.n
    if m < 1 or n % m != 0:
        raise ValueError(f"segment width {m} must divide n={n}")
    moduli = (4 * m, 4 * m * m, 8 * m**3, 3, 4 * m)
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


@dataclass(frozen=True)
class AllParams:
    """The trivial code: the entire space."""

    n: int

    family = "all"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")

    def params_dict(self) -> Dict[str, str]:
        return {}


@dataclass(frozen=True)
class VTParams:
    n: int
    a: int

    family = "vt"

    def __post_init__(self):
        if not 0 <= self.a <= self.n:
            raise ValueError(f"VT residue a={self.a} out of range 0..{self.n}")

    def params_dict(self) -> Dict[str, str]:
        return {"a": str(self.a)}


def _check_coset_pair(P: int, c: int, d: int) -> None:
    if P < 1:
        raise ValueError("P must be >= 1")
    if not 0 <= c <= P:
        raise ValueError(f"residue c={c} out of range 0..{P}")
    if d not in (0, 1):
        raise ValueError("parity d must be 0 or 1")


@dataclass(frozen=True)
class TwoReadParams:
    n: int
    P: int
    c: int
    d: int

    family = "tworead"

    def __post_init__(self):
        _check_coset_pair(self.P, self.c, self.d)

    def params_dict(self) -> Dict[str, str]:
        return {"P": str(self.P), "c": str(self.c), "d": str(self.d)}


@dataclass(frozen=True)
class Np4Params:
    n: int
    P: int
    c: int
    d: int

    family = "np4"

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("np4 requires n >= 4")
        if self.P < 6 or self.P % 3 != 0:
            raise ValueError("np4 requires P >= 6 with 3 | P")
        _check_coset_pair(self.P, self.c, self.d)

    def params_dict(self) -> Dict[str, str]:
        return {"P": str(self.P), "c": str(self.c), "d": str(self.d)}


@dataclass(frozen=True)
class Np5Params:
    n: int
    P: int
    c: int
    d: int

    family = "np5"

    def __post_init__(self):
        # 2P/3 must be integral; flooring would silently loosen the constraint
        if self.P < 3 or self.P % 3 != 0:
            raise ValueError("np5 requires P >= 3 with 3 | P")
        _check_coset_pair(self.P, self.c, self.d)

    def params_dict(self) -> Dict[str, str]:
        return {"P": str(self.P), "c": str(self.c), "d": str(self.d)}


@dataclass(frozen=True)
class TwoInsertionParams:
    n: int
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int

    family = "twoins"

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise ValueError("twoins requires n >= 2")
        bounds = (2 * n, n * n, n**3, 3, 2 * n)
        for name, val, mod in zip(
            ("a1", "a2", "a3", "a4", "a5"),
            (self.a1, self.a2, self.a3, self.a4, self.a5),
            bounds,
        ):
            if not 0 <= val < mod:
                raise ValueError(f"residue {name}={val} out of range 0..{mod - 1}")

    def residues(self) -> Tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)

    def params_dict(self) -> Dict[str, str]:
        return {k: str(v) for k, v in zip(("a1", "a2", "a3", "a4", "a5"), self.residues())}


@dataclass(frozen=True)
class FiveReadParams:
    n: int
    P: int
    a: int
    avec: Tuple[int, int, int, int, int]
    bvec: Tuple[int, int, int, int, int]

    family = "fiveread"

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        m = 7 * self.P + 1
        if m >= self.n:
            raise ValueError(f"requires segment width m=7P+1={m} < n={self.n}")
        if not 0 <= self.a <= self.n:
            raise ValueError(f"VT residue a={self.a} out of range 0..{self.n}")
        bounds = (4 * m, 4 * m * m, 8 * m**3, 3, 4 * m)
        for label, vec in (("avec", self.avec), ("bvec", self.bvec)):
            if len(vec) != 5:
                raise ValueError(f"{label} must have 5 residues")
            for val, mod in zip(vec, bounds):
                if not 0 <= val < mod:
                    raise ValueError(f"{label} residue {val} out of range 0..{mod - 1}")

    @property
    def m(self) -> int:
        return 7 * self.P + 1

    def params_dict(self) -> Dict[str, str]:
        return {
            "P": str(self.P),
            "a": str(self.a),
            "avec": "|".join(map(str, self.avec)),
            "bvec": "|".join(map(str, self.bvec)),
        }


CodeParams = (
    AllParams
    | VTParams
    | TwoReadParams
    | Np4Params
    | Np5Params
    | TwoInsertionParams
    | FiveReadParams
)

FAMILIES: Dict[str, Type] = {
    cls.family: cls
    for cls in (
        AllParams,
        VTParams,
        TwoReadParams,
        Np4Params,
        Np5Params,
        TwoInsertionParams,
        FiveReadParams,
    )
}


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
# vectorized enumeration helpers


def _np_weight(vals: np.ndarray, n: int) -> np.ndarray:
    acc = np.zeros(vals.shape, dtype=np.int64)
    for i in range(n):
        acc += (vals >> np.uint32(i)).astype(np.int64) & 1
    return acc


def _np_vt(vals: np.ndarray, n: int) -> np.ndarray:
    acc = np.zeros(vals.shape, dtype=np.int64)
    for i in range(1, n + 1):
        acc += i * ((vals >> np.uint32(n - i)).astype(np.int64) & 1)
    return acc % (n + 1)


def _np_inversions(vals: np.ndarray, n: int) -> np.ndarray:
    ones = np.zeros(vals.shape, dtype=np.int64)
    inv = np.zeros(vals.shape, dtype=np.int64)
    for i in range(1, n + 1):
        bit = (vals >> np.uint32(n - i)).astype(np.int64) & 1
        inv += ones * (1 - bit)
        ones += bit
    return inv


def _space(n: int) -> np.ndarray:
    return seqs._enum_values(n)


def _seqset(n: int, vals: Iterable[int]) -> SeqSet:
    return SeqSet._from_vals(n, (int(v) for v in vals))


# ---------------------------------------------------------------------------
# builders


def build_all(n: int) -> SeqSet:
    return _seqset(n, _space(n))


def build_vt(n: int, a: int) -> SeqSet:
    """All x of length n with VT syndrome a."""
    VTParams(n, a)
    vals = _space(n)
    return _seqset(n, vals[_np_vt(vals, n) == a])


def _build_inv_wt(ambient: np.ndarray, n: int, P: int, c: int, d: int) -> SeqSet:
    if ambient.size == 0:
        return _seqset(n, ())
    mask = (_np_inversions(ambient, n) % (1 + P) == c) & (_np_weight(ambient, n) % 2 == d)
    return _seqset(n, ambient[mask])


def build_two_read_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 2, 2P)."""
    TwoReadParams(n, P, c, d)
    return _build_inv_wt(r_values(n, 2, 2 * P), n, P, c, d)


def build_np4_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 3, P/3); coverage <= n+3 after 2 insertions."""
    Np4Params(n, P, c, d)
    return _build_inv_wt(r_values(n, 3, P // 3), n, P, c, d)


def build_np5_code(n: int, P: int, c: int, d: int) -> SeqSet:
    """Inversion/weight coset of R(n, 2, 2P/3); coverage <= n+4 after 2 insertions."""
    Np5Params(n, P, c, d)
    return _build_inv_wt(r_values(n, 2, 2 * P // 3), n, P, c, d)


def build_two_insertion_code(
    n: int, a1: int, a2: int, a3: int, a4: int, a5: int, h_second: str = "m1"
) -> SeqSet:
    """Coset of the higher-order parity checks over the full space."""
    params = TwoInsertionParams(n, a1, a2, a3, a4, a5)
    want = params.residues()
    vals = _space(n)
    keep = [
        int(v)
        for v in vals
        if two_insertion_syndrome(BitSeq.from_int(int(v), n), h_second) == want
    ]
    return _seqset(n, keep)


def build_five_read_code(
    n: int,
    P: int,
    a: int,
    avec: Sequence[int],
    bvec: Sequence[int],
    h_second: str = "m0",
) -> SeqSet:
    """VT + even/odd segment-sum coset of R(n, 3, P).

    When 7P+1 does not divide n, the segment sums are evaluated on the
    zero-padded word while the VT and R(n, 3, P) conditions stay on x itself.
    """
    params = FiveReadParams(n, P, a, tuple(avec), tuple(bvec))
    keep = []
    for v in r_values(n, 3, P):
        x = BitSeq.from_int(int(v), n)
        va, ve, vo = five_read_syndrome(x, P, h_second)
        if va == params.a and ve == params.avec and vo == params.bvec:
            keep.append(int(v))
    return _seqset(n, keep)


def build_code(params: CodeParams, h_second: Optional[str] = None) -> SeqSet:
    """Materialize the coset described by a parameter record."""
    if isinstance(params, AllParams):
        return build_all(params.n)
    if isinstance(params, VTParams):
        return build_vt(params.n, params.a)
    if isinstance(params, TwoReadParams):
        return build_two_read_code(params.n, params.P, params.c, params.d)
    if isinstance(params, Np4Params):
        return build_np4_code(params.n, params.P, params.c, params.d)
    if isinstance(params, Np5Params):
        return build_np5_code(params.n, params.P, params.c, params.d)
    if isinstance(params, TwoInsertionParams):
        return build_two_insertion_code(
            params.n, *params.residues(), h_second=h_second or "m1"
        )
    if isinstance(params, FiveReadParams):
        return build_five_read_code(
            params.n, params.P, params.a, params.avec, params.bvec,
            h_second=h_second or "m0",
        )
    raise TypeError(f"unknown parameter record {params!r}")


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
    codewords, the lexicographically first on ties.
    """

    ok: bool
    vacuous: bool
    worst: Optional[Tuple[int, BitSeq, BitSeq]] = None

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
    return VerifyResult(False, False, coverage_at_least(code, t, N))


def _coset_groups(family: str, n: int, P: Optional[int], h_second: Optional[str]):
    """(groups keyed by residue tuple, ambient size, params factory)."""
    if family in ("tworead", "np4", "np5"):
        if P is None:
            raise ValueError(f"family {family} needs P")
        if family == "tworead":
            ambient = r_values(n, 2, 2 * P)
            make = lambda key: TwoReadParams(n, P, key[0], key[1])
        elif family == "np4":
            Np4Params(n, P, 0, 0)
            ambient = r_values(n, 3, P // 3)
            make = lambda key: Np4Params(n, P, key[0], key[1])
        else:
            Np5Params(n, P, 0, 0)
            ambient = r_values(n, 2, 2 * P // 3)
            make = lambda key: Np5Params(n, P, key[0], key[1])
        groups: Dict[tuple, List[int]] = {}
        if ambient.size:
            cs = _np_inversions(ambient, n) % (1 + P)
            ds = _np_weight(ambient, n) % 2
            for v, c, d in zip(ambient, cs, ds):
                groups.setdefault((int(c), int(d)), []).append(int(v))
        return groups, int(ambient.size), make
    if family == "vt":
        vals = _space(n)
        syn = _np_vt(vals, n)
        groups = {}
        for v, a in zip(vals, syn):
            groups.setdefault((int(a),), []).append(int(v))
        return groups, int(vals.size), lambda key: VTParams(n, key[0])
    if family == "twoins":
        groups = {}
        hw = h_second or "m1"
        for v in _space(n):
            x = BitSeq.from_int(int(v), n)
            groups.setdefault(two_insertion_syndrome(x, hw), []).append(int(v))
        return groups, 1 << n, lambda key: TwoInsertionParams(n, *key)
    if family == "fiveread":
        if P is None:
            raise ValueError("family fiveread needs P")
        hw = h_second or "m0"
        ambient = r_values(n, 3, P)
        groups = {}
        for v in ambient:
            x = BitSeq.from_int(int(v), n)
            va, ve, vo = five_read_syndrome(x, P, hw)
            groups.setdefault((va, *ve, *vo), []).append(int(v))
        make = lambda key: FiveReadParams(n, P, key[0], tuple(key[1:6]), tuple(key[6:11]))
        return groups, int(ambient.size), make
    raise ValueError(f"unknown family {family!r}")


def coset_partition(
    family: str, n: int, P: Optional[int] = None, h_second: Optional[str] = None
) -> Dict[CodeParams, SeqSet]:
    """Every nonempty coset of the family, grouped in one ambient sweep."""
    groups, _, make = _coset_groups(family, n, P, h_second)
    return {make(key): _seqset(n, vals) for key, vals in sorted(groups.items())}


def best_coset(
    family: str, n: int, P: Optional[int] = None, h_second: Optional[str] = None
) -> Tuple[CodeParams, SeqSet]:
    """The largest coset; ties break to the smallest residue tuple."""
    groups, ambient_size, make = _coset_groups(family, n, P, h_second)
    if not groups:
        raise ValueError(f"all {family} cosets are empty at n={n}")
    best_key = min(groups, key=lambda k: (-len(groups[k]), k))
    return make(best_key), _seqset(n, groups[best_key])


# ---------------------------------------------------------------------------
# code files


def format_header(params: CodeParams) -> str:
    items = params.params_dict()
    body = ",".join(f"{k}={v}" for k, v in items.items())
    return f"# family={params.family} n={params.n} params={body}"


def parse_header(line: str) -> CodeParams:
    fields: Dict[str, str] = {}
    for chunk in line.lstrip("#").split():
        key, _, value = chunk.partition("=")
        fields[key] = value
    family = fields.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown code family in header: {family!r}")
    n = int(fields["n"])
    raw = fields.get("params", "")
    kv: Dict[str, str] = {}
    if raw:
        for item in raw.split(","):
            key, _, value = item.partition("=")
            kv[key] = value
    if family == "all":
        return AllParams(n)
    if family == "vt":
        return VTParams(n, int(kv["a"]))
    if family in ("tworead", "np4", "np5"):
        cls = FAMILIES[family]
        return cls(n, int(kv["P"]), int(kv["c"]), int(kv["d"]))
    if family == "twoins":
        return TwoInsertionParams(n, *(int(kv[f"a{i}"]) for i in range(1, 6)))
    return FiveReadParams(
        n,
        int(kv["P"]),
        int(kv["a"]),
        tuple(int(s) for s in kv["avec"].split("|")),
        tuple(int(s) for s in kv["bvec"].split("|")),
    )


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
