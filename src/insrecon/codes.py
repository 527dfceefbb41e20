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

Each family's residues have one definition, its kernel in ``FAMILIES``, and
their moduli one, its ``_moduli(n, P)``, which also checks n and P.
Builders materialize codes by exhaustive filtering (refused above the
enumeration cap); the coset sizes and members of the families keyed by
weight and position sum come from their cell automaton instead
(``_ws_sizes``, ``_ws_members``).  The
scalar syndromes and the ``*_member`` predicates are one-word calls of the
same kernels, for words of up to ``MAX_LEN`` bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from . import seqs
from .balls import SeqSet, _check_code_length, _run_starts, coverage_at_least
from .confusability import ConfusabilityVerdict, classify_pair
from .seqs import MAX_LEN, BitSeq, SequenceTooLongError, r_mask


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


def _vector(residues: Sequence[int], moduli: Tuple[int, int, int, int, int]) -> ParityVector:
    return ParityVector(tuple(residues[:3]), tuple(residues[3:]), moduli)


def parity_checks(x: BitSeq, h_second: str = "m1") -> ParityVector:
    """Whole-sequence checks, moduli (2n, n^2, n^3, 3, 2n).

    The second h component uses the m1 weights by default; the m0 variant is
    exposed because the windowed checks below use it, and the desk-scale
    tests show only the m1 form preserves the two-insertion correction
    property (see README).
    """
    return _vector(_parity_residues(x.val, x.n, h_second), _parity_moduli(x.n))


def _segments(n: int, m: int) -> int:
    """The number n/m of width-m segments of a length-n word; m must divide n."""
    if m < 1 or n % m != 0:
        raise ValueError(f"segment width {m} must divide n={n}")
    return n // m


def segment_checks(x: BitSeq, k: int, m: int, h_second: str = "m0") -> ParityVector:
    """Checks of the window x[km+1 .. km+2m] under moduli (4m, 4m^2, 8m^3, 3, 4m).

    Requires m | n and 0 <= k <= n/m - 2.  Equals parity_checks applied to
    the extracted window (those windows have length 2m, so the whole-sequence
    moduli specialize to exactly these), up to the h_second choice.
    """
    s = _segments(x.n, m)
    if not 0 <= k <= s - 2:
        raise ValueError(f"segment index {k} out of range 0..{s - 2}")
    window = _window(x.val, x.n, m, k)
    return _vector(_parity_residues(window, 2 * m, h_second), _parity_moduli(2 * m))


@dataclass(frozen=True)
class TildeSums:
    even: ParityVector
    odd: ParityVector


def tilde_sums(x: BitSeq, m: int, h_second: str = "m0") -> TildeSums:
    """Componentwise modular sums of the window checks over even/odd k."""
    _segments(x.n, m)
    sums, moduli = _window_sums(x.val, x.n, m, h_second), _parity_moduli(2 * m)
    return TildeSums(even=_vector(sums[:5], moduli), odd=_vector(sums[5:], moduli))


# ---------------------------------------------------------------------------
# syndrome kernels: the exact residues of packed words, from weighted bit
# sums; each takes an array of words (one int array per residue) or one word
# as a Python int (one int per residue), which runs as a one-word array

# _BYTE_BITS[v, j] is bit j (least significant first) of the byte v
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int32)


@lru_cache(maxsize=64)
def _byte_tables(kind: str, nbits: int) -> Tuple[np.ndarray, ...]:
    """Per byte i of an nbits-bit word, the read-only table of sum_j w[8i + j] * (bit j
    of v) over the 256 bytes v, for the weights w of ``kind``, LSB first: "ones", the
    positions "pos", or the reversed weight_vectors(nbits + 1) field of that name."""
    if kind in ("ones", "pos"):
        weights = (1,) * nbits if kind == "ones" else tuple(range(nbits))
    else:
        weights = getattr(weight_vectors(nbits + 1), kind)[::-1]
    tables = []
    for lo in range(0, nbits, 8):
        part = np.asarray(weights[lo : lo + 8], dtype=np.int32)
        tables.append(_BYTE_BITS[:, : part.size] @ part)
        tables[-1].flags.writeable = False
    return tuple(tables)


def _bit_sums(vals, nbits: int, *kinds: str) -> list:
    """sum_b w[b] * (bit b of each word) for the weights w of each kind (see
    _byte_tables), from one cached table per byte; every sum is < 2**31.
    One word, a Python int, runs as a one-element array and gets Python ints."""
    if isinstance(vals, int):
        return [int(s[0]) for s in _bit_sums(np.array([vals], dtype=np.uint64), nbits, *kinds)]
    tables = [_byte_tables(kind, nbits) for kind in kinds]
    sums = [np.zeros(vals.shape, dtype=np.int32) for _ in kinds]
    for i, lo in enumerate(range(0, nbits, 8)):
        byte = (vals >> lo) & 0xFF
        for acc, arrays in zip(sums, tables):
            acc += arrays[i][byte]
    return sums


def _weight_and_sum(vals, n: int) -> list:
    """The weight w and the position sum S = sum_b b * bit_b of every word."""
    return _bit_sums(vals, n, "ones", "pos")


def _vt_residue(w, s, n: int):
    """Bit b is x_{n-b}, so sum_i i * x_i = n*w - S."""
    return (n * w - s) % (n + 1)


def _inv_wt_residues(w, s, P: int) -> list:
    """[inversions mod P+1, weight mod 2]: the one at bit b precedes b symbols,
    and the ones among them make up w(w-1)/2 pairs, so inversions = S - w(w-1)/2.
    """
    return [(s - w * (w - 1) // 2) % (P + 1), w % 2]


def _check_parity_length(n: int) -> None:
    if n < 2:
        raise ValueError("parity checks need length >= 2")


def _parity_residues(vals, n: int, h_second: str, first_only: bool = False) -> list:
    """The five parity_checks residues of every length-n word, or the first."""
    _check_parity_length(n)
    if h_second not in _H_WEIGHTS:
        raise ValueError(f"h_second must be one of {_H_WEIGHTS}")
    # indicator position i = 1..n-1 is bit n-1-i, so the weights run reversed
    low = (1 << (n - 1)) - 1
    shifted = vals >> 1
    kinds = ("m0",) if first_only else ("m0", "m1", "m2")
    sums = _bit_sums(shifted & ~vals & low, n - 1, *kinds)
    if not first_only:
        sums += _bit_sums(~shifted & vals & low, n - 1, "ones", h_second)
    return [s % mod for s, mod in zip(sums, _parity_moduli(n))]


def _window(vals, n: int, m: int, k: int):
    """The window x[km+1 .. km+2m] of length-n words, as 2m-bit words."""
    return (vals >> (n - (k + 2) * m)) & ((1 << 2 * m) - 1)


def _window_sums(vals, n: int, m: int, h_second: str) -> list:
    """The parity residues of the windows k = 0..n/m-2 of length-n words,
    summed over even k, then over odd k, each mod the moduli of length 2m."""
    moduli = _parity_moduli(2 * m)
    zero = 0 if isinstance(vals, int) else np.zeros(vals.shape, dtype=np.int32)
    sums = [[zero] * 5, [zero] * 5]
    for k in range(n // m - 1):
        side = sums[k % 2]
        for idx, r in enumerate(_parity_residues(_window(vals, n, m, k), 2 * m, h_second)):
            side[idx] = (side[idx] + r) % moduli[idx]
    return sums[0] + sums[1]


def _segment_width(n: int, P: int) -> int:
    """The fiveread segment width m = 7P+1, after checking P >= 1, m < n and
    that the word zero-padded to a multiple of m fits MAX_LEN."""
    if P < 1:
        raise ValueError("P must be >= 1")
    m = 7 * P + 1
    if m >= n:
        raise ValueError(f"requires segment width m=7P+1={m} < n={n}")
    nbar = -(-n // m) * m
    if nbar > MAX_LEN:
        raise SequenceTooLongError(f"padded length {nbar} exceeds MAX_LEN")
    return m


def _five_read_residues(vals, n: int, P: int, first_only: bool = False) -> list:
    """VT, even and odd window sums (m0 weights) of every word, or the VT
    residue alone; windows of the padded word."""
    m = _segment_width(n, P)
    vt = _vt_residue(*_weight_and_sum(vals, n), n)
    if first_only:
        return [vt]
    nbar = -(-n // m) * m
    words = vals if isinstance(vals, int) else vals.astype(np.uint64)
    return [vt, *_window_sums(words << (nbar - n), nbar, m, "m0")]


# ---------------------------------------------------------------------------
# code parameter records


class _Params:
    """Header fields and residues come from the dataclass fields after ``n``.

    A family declares its residue space once, as ``_moduli(n, P)``: the
    modulus of each residue, in field order, after checking n and P.  Every
    record is checked against it when built, and a sweep or a membership
    test calls it before it enumerates or reads a word.  The ambient set is
    ``_r(P) -> (ell, t)``, meaning R(n, ell, t), or the whole space when there
    is no ``_r``.  The kernel ``_kernel(vals, n, P)`` gives the residues of
    packed words, one per modulus.  A family whose residues depend only on
    the weight w and the position sum S of a word declares them as
    ``_ws(w, S, n, P)`` instead, and its kernel is that of
    ``_weight_and_sum(vals)``; they must depend only on w mod 2m and S mod m,
    for the first modulus m, which is what ``_ws_sizes`` counts, and at each
    w the first residue must be a bijection of S mod m (``_ws_members``).
    Any other kernel also takes ``first_only``, for the first residue alone.
    """

    _r = None
    _ws = None
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, *r))
    _kernel = classmethod(lambda cls, vals, n, P: cls._ws(*_weight_and_sum(vals, n), n, P))

    def __post_init__(self):
        moduli = self._moduli(self.n, getattr(self, "P", None))
        if self.n < 0:
            raise ValueError(f"length n={self.n} must be >= 0")
        named = self._named_residues()
        if len(named) != len(moduli):
            raise ValueError(f"{self.family} takes {len(moduli)} residues, got {len(named)}")
        for (name, r), m in zip(named, moduli):
            if not 0 <= r < m:
                raise ValueError(f"residue {name}={r} out of range 0..{m - 1}")

    @classmethod
    def _member(cls, vals, n: int, P: Optional[int], want: Sequence[int]):
        """Which length-n words lie in the coset of the residues ``want``: in
        the ambient set, with the kernel's residues equal to ``want``."""
        if len(want) != len(cls._moduli(n, P)):
            return False
        ok = cls._r is None or r_mask(vals, n, *cls._r(P))
        for r, w in zip(cls._kernel(vals, n, P), want):
            ok = ok & (r == w)
        return ok

    def _items(self) -> List[Tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)[1:]]

    def _named_residues(self) -> List[Tuple[str, int]]:
        """(name, value) of every residue; a tuple field's are avec[0], ..."""
        out: List[Tuple[str, int]] = []
        for k, v in self._items():
            if k != "P":
                out += [(k, v)] if isinstance(v, int) else [
                    (f"{k}[{i}]", r) for i, r in enumerate(v)]
        return out

    def params_dict(self) -> Dict[str, str]:
        return {
            k: str(v) if isinstance(v, int) else "|".join(map(str, v))
            for k, v in self._items()
        }

    def residues(self) -> Tuple[int, ...]:
        return tuple(r for _, r in self._named_residues())


@dataclass(frozen=True)
class AllParams(_Params):
    """The trivial code: the entire space, one coset of the constant residue 0."""

    n: int

    family = "all"
    _moduli = staticmethod(lambda n, P: (1,))
    _ws = staticmethod(lambda w, s, n, P: [w * 0])
    _from_residues = classmethod(lambda cls, n, P, r: cls(n))
    # its one residue is the constant 0, not a field
    _named_residues = lambda self: [("0", 0)]


@dataclass(frozen=True)
class VTParams(_Params):
    n: int
    a: int

    family = "vt"
    _moduli = staticmethod(lambda n, P: (n + 1,))
    _ws = staticmethod(lambda w, s, n, P: [_vt_residue(w, s, n)])


@dataclass(frozen=True)
class _InvWtParams(_Params):
    """Inversions mod 1+P and weight mod 2 over a periodicity-limited ambient."""

    n: int
    P: int
    c: int
    d: int

    _ws = staticmethod(lambda w, s, n, P: _inv_wt_residues(w, s, P))
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, P, *r))
    # (rule, test of n and P), checked in order
    _rules = (("P must be >= 1", lambda n, P: P >= 1),)

    @classmethod
    def _moduli(cls, n: int, P: int) -> Tuple[int, int]:
        for rule, ok in cls._rules:
            if not ok(n, P):
                raise ValueError(rule)
        return (P + 1, 2)


class TwoReadParams(_InvWtParams):
    family = "tworead"
    _r = staticmethod(lambda P: (2, 2 * P))


class Np4Params(_InvWtParams):
    family = "np4"
    _r = staticmethod(lambda P: (3, P // 3))
    _rules = (("np4 requires n >= 4", lambda n, P: n >= 4),
              ("np4 requires P >= 6 with 3 | P", lambda n, P: P >= 6 and P % 3 == 0))


class Np5Params(_InvWtParams):
    family = "np5"
    _r = staticmethod(lambda P: (2, 2 * P // 3))
    # 2P/3 must be integral; flooring would silently loosen the constraint
    _rules = (("np5 requires P >= 3 with 3 | P", lambda n, P: P >= 3 and P % 3 == 0),)


@dataclass(frozen=True)
class TwoInsertionParams(_Params):
    n: int
    a1: int
    a2: int
    a3: int
    a4: int
    a5: int

    family = "twoins"
    _moduli = staticmethod(lambda n, P: _parity_moduli(n))
    _kernel = staticmethod(lambda vals, n, P, first_only=False:
                           _parity_residues(vals, n, "m1", first_only))

    def __post_init__(self):
        _check_parity_length(self.n)
        super().__post_init__()


@dataclass(frozen=True)
class FiveReadParams(_Params):
    n: int
    P: int
    a: int
    avec: Tuple[int, int, int, int, int]
    bvec: Tuple[int, int, int, int, int]

    family = "fiveread"
    _r = staticmethod(lambda P: (3, P))
    # the VT residue, then the even and the odd window sums of length 2m
    _moduli = staticmethod(lambda n, P: (n + 1, *_parity_moduli(2 * _segment_width(n, P)) * 2))
    _kernel = staticmethod(_five_read_residues)
    _from_residues = classmethod(lambda cls, n, P, r: cls(n, P, r[0], r[1:6], r[6:11]))


CodeParams = (
    AllParams | VTParams | TwoReadParams | Np4Params | Np5Params | TwoInsertionParams
    | FiveReadParams
)

FAMILIES: Dict[str, Type] = {cls.family: cls for cls in (
    AllParams, VTParams, TwoReadParams, Np4Params, Np5Params, TwoInsertionParams, FiveReadParams)}


# ---------------------------------------------------------------------------
# syndromes and membership: one-word calls of the family kernels


def vt_syndrome(x: BitSeq) -> int:
    """sum_i i * x_i mod (n + 1)."""
    return VTParams._kernel(x.val, x.n, None)[0]


def vt_member(x: BitSeq, a: int) -> bool:
    return bool(VTParams._member(x.val, x.n, None, (a,)))


def two_read_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    return bool(TwoReadParams._member(x.val, x.n, P, (c, d)))


def np4_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    return bool(Np4Params._member(x.val, x.n, P, (c, d)))


def np5_member(x: BitSeq, P: int, c: int, d: int) -> bool:
    return bool(Np5Params._member(x.val, x.n, P, (c, d)))


def two_insertion_syndrome(x: BitSeq) -> Tuple[int, int, int, int, int]:
    """The five whole-sequence parity_checks residues, with the m1 weights."""
    return tuple(TwoInsertionParams._kernel(x.val, x.n, None))


def two_insertion_member(x: BitSeq, residues: Sequence[int]) -> bool:
    return bool(TwoInsertionParams._member(x.val, x.n, None, tuple(residues)))


def five_read_syndrome(x: BitSeq, P: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(VT residue of x, even sums, odd sums); the sums run on the padded word."""
    a, *sums = _five_read_residues(x.val, x.n, P)
    return a, tuple(sums[:5]), tuple(sums[5:])


def five_read_member(x: BitSeq, P: int, a: int, avec: Sequence[int], bvec: Sequence[int]) -> bool:
    # eleven residues split as 1 + 5 + 5 only if avec and bvec have equal lengths
    want = (a, *avec, *bvec) if len(avec) == len(bvec) else ()
    return bool(FiveReadParams._member(x.val, x.n, P, want))


# ---------------------------------------------------------------------------
# builders


def build_code(params: CodeParams) -> SeqSet:
    """Materialize the coset described by a parameter record."""
    cls, n, P = type(params), params.n, getattr(params, "P", None)
    key = _key(params.residues(), cls._moduli(n, P))
    if cls._ws is None:
        return SeqSet._from_vals(n, np.concatenate(
            [words for words, _ in _keyed_blocks(cls, n, P, key)]))
    seqs._block_bits(n)  # the enumeration cap holds for the members too
    return SeqSet._from_vals(n, _ws_members(cls, n, P, key))


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


def build_two_insertion_code(n: int, a1: int, a2: int, a3: int, a4: int, a5: int) -> SeqSet:
    """Coset of the higher-order parity checks over the full space."""
    return build_code(TwoInsertionParams(n, a1, a2, a3, a4, a5))


def build_five_read_code(n: int, P: int, a: int, avec: Sequence[int],
                         bvec: Sequence[int]) -> SeqSet:
    """VT + even/odd segment-sum coset of R(n, 3, P).

    When 7P+1 does not divide n, the segment sums are evaluated on the
    zero-padded word while the VT and R(n, 3, P) conditions stay on x itself.
    """
    return build_code(FiveReadParams(n, P, a, tuple(avec), tuple(bvec)))


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
    worst = coverage_at_least(code, t, N)
    if worst is None:
        return VerifyResult(True, False)
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
                  key=None) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(ambient words, their keys) of each block of {0,1}^n, ascending; with
    ``key``, which only twoins and fiveread take, only the ambient words of
    that key.

    Every family runs ``r_mask`` on a block, then its kernel on the ambient
    words; with ``key``, it first keeps the words whose first residue
    matches it.
    """
    moduli = cls._moduli(n, P)
    for words in seqs._blocks(n):
        if cls._r is not None:
            words = words[r_mask(words, n, *cls._r(P))]
        if key is not None and words.size:
            first = key // math.prod(moduli[1:])
            words = words[cls._kernel(words, n, P, first_only=True)[0] == first]
        # no ambient word left in this block, so no kernel call
        keys = _key(cls._kernel(words, n, P) if words.size else [words], moduli)
        if key is not None:
            hit = keys == key
            words, keys = words[hit], keys[hit]
        yield words, keys


class CosetSweep(NamedTuple):
    """The nonempty cosets of one family at one length.

    ``keys`` are the distinct word keys (``_key``) in ascending order, with
    their exact word counts in ``sizes``: from ``_ws_sizes`` for a ``_ws``
    family (int64 up to n = 62, Python ints past that), and from one sort
    of the keys of one walk of the blocks for twoins and fiveread.
    ``params(i)`` is the record of coset i, whose members ``build_code``
    collects: from ``_ws_members`` for a ``_ws`` family, from a keyed walk
    of the blocks otherwise.
    ``ambient_size`` stays at index 1, where perfbench/spans.py reads it.
    """

    n: int
    ambient_size: int
    keys: np.ndarray
    sizes: np.ndarray
    params: Callable[[int], CodeParams]

    def best(self) -> int:
        """The largest coset; ties break to the smallest residues."""
        return int(np.argmax(self.sizes))

    def members(self, i: int) -> SeqSet:
        return build_code(self.params(i))


# the ambient automaton of the whole space: one state, every step allowed
_WHOLE_SPACE = np.zeros((1, 2), dtype=np.intp)


def _ws_cells(cls: Type, n: int, P: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The cell automaton of a ``_ws`` family: ``(child, grid)``.

    The residues depend only on w mod 2m and S mod m, for the first modulus
    m: n+1 for vt, P+1 for the inversion/weight families, whose w(w-1)/2
    mod m is fixed by w mod 2m.  A cell is (ambient automaton state,
    w mod 2m, S mod m), numbered in that row-major order, and cell 0 is the
    empty word.  Appending bit b maps S to S + w and w to w + b, so
    ``child[c, b]`` is the cell after bit b, or -1 for a step the ambient
    automaton forbids; both children of a cell are adjacent, so a walk
    gathers them in one take.  ``grid`` holds the key of every
    (w mod 2m, S mod m), from one ``_ws`` call; cell c has the key
    ``grid[c % grid.size]``.  Over 2**ENUM_CAP cells are refused first.
    """
    moduli = cls._moduli(n, P)
    m = moduli[0]
    cells = 2 * m * m
    if cells <= 1 << seqs.ENUM_CAP:  # the grid alone first: a huge P builds no automaton
        table = seqs._r_automaton(*cls._r(P)) if cls._r is not None else _WHOLE_SPACE
        cells *= len(table)
    if cells > 1 << seqs.ENUM_CAP:
        raise seqs.EnumerationCapError(f"cell automaton of {cells} cells exceeds cap 2**{seqs.ENUM_CAP}")
    w, s = np.indices((2 * m, m))
    grid = _key(cls._ws(w, s, n, P), moduli).ravel()
    # the grid entry after bit b of every grid entry, as (entry, bit)
    entry = np.stack([((w + b) % (2 * m) * m + (s + w) % m).ravel() for b in (0, 1)], axis=1)
    # one row per state, of its (entry, bit) pairs: a forbidden step's -1
    # state gives -grid.size + entry < 0, which is clipped to -1
    child = np.tile(table * grid.size, grid.size)
    child += entry.ravel()
    np.maximum(child, -1, out=child)
    return child.reshape(-1, 2), grid


def _ws_sizes(cls: Type, n: int, P: Optional[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(keys, sizes) of the nonempty cosets of a ``_ws`` family, exactly, from
    the word count of every cell of its cell automaton (``_ws_cells``,
    ``seqs._walk_counts``), summed under the keys of the final grid in the
    walk's dtype (Python ints past n = 62); no word is enumerated.
    """
    child, grid = _ws_cells(cls, n, P)
    counts = seqs._walk_counts(child, n)
    sizes = np.zeros(math.prod(cls._moduli(n, P)), dtype=counts.dtype)
    np.add.at(sizes, grid, counts.reshape(-1, grid.size).sum(axis=0))
    keys = np.flatnonzero(sizes)
    return keys, sizes[keys]


# the member walk takes the last _SUFFIX_BITS bits of every word from the
# suffix classes (_suffix_classes) of its cell at depth n - _SUFFIX_BITS
_SUFFIX_BITS = 8
_BIT_PAIR = np.arange(2, dtype=np.uint64)


def _ragged_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[i] + j for each j < counts[i], for each i in order."""
    index = np.repeat(starts - np.cumsum(counts) + counts, counts)
    index += np.arange(index.size)
    return index


@lru_cache(maxsize=None)
def _suffix_classes(r: Optional[Tuple[int, int]], L: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The L-bit suffixes of the ambient automaton R(., *r), or of the whole
    space when r is None, by class: ``(offsets, suffixes)`` in CSR form.

    Appending an L-bit suffix u to a word of weight w and position sum S
    gives weight w + wt(u) and position sum S + L*w + sigma(u), where
    sigma(u) is the sum of the weights of u's proper prefixes.  Class
    (q * (L+1) + wt(u)) * m + sigma(u) % m lists, in ascending order as
    uint64, the suffixes u that the automaton allows from state q;
    ``suffixes[offsets[k]:offsets[k + 1]]`` is class k.
    """
    table = seqs._r_automaton(*r) if r is not None else _WHOLE_SPACE
    # a -1 state steps to the appended row, so it stays -1
    step = np.vstack([table, [-1, -1]])
    u = np.arange(1 << L, dtype=np.uint64)
    # bit j of u is its (j+1)-th appended bit, most significant first
    bits = ((u[:, None] >> np.arange(L - 1, -1, -1, dtype=np.uint64)) & 1).astype(np.intp)
    sigma = np.cumsum(bits, axis=1)[:, :-1].sum(axis=1) % m
    # the state after u from each state q, one row per q
    states = np.arange(len(table))[:, None]
    state = np.broadcast_to(states, (len(table), u.size))
    for j in range(L):
        state = step[state, bits[:, j]]
    allowed = state >= 0
    classes = ((states * (L + 1) + bits.sum(axis=1)) * m + sigma)[allowed]
    order = np.argsort(classes, kind="stable")
    offsets = np.zeros(len(table) * (L + 1) * m + 1, dtype=np.intp)
    np.cumsum(np.bincount(classes, minlength=offsets.size - 1), out=offsets[1:])
    suffixes = np.broadcast_to(u, allowed.shape)[allowed][order]
    offsets.flags.writeable = suffixes.flags.writeable = False
    return offsets, suffixes


def _ws_members(cls: Type, n: int, P: Optional[int], key: int) -> np.ndarray:
    """The ambient words of ``key`` of a ``_ws`` family, strictly ascending,
    as uint64, from its cell automaton (``_ws_cells``).

    The top n - L bits, L = min(n, _SUFFIX_BITS), are walked forward from
    the empty word, keeping every prefix the automaton allows: at most
    2^(n - L) of them.  The last L bits come from the suffix classes
    (``_suffix_classes``): a suffix leads cell (q, w, S) to grid entry
    (w + wt, S + L*w + sigma), and a grid row holds at most one cell of
    ``key``, so each distinct cell at depth n - L takes, per weight, one
    class of its state, joined by one gather and one sort.  Every
    prefix is expanded with its cell's list by one repeat and one gather;
    the words come out ascending, with no sort.
    """
    child, grid = _ws_cells(cls, n, P)
    m = cls._moduli(n, P)[0]
    tail_bits = min(n, _SUFFIX_BITS)
    words = np.zeros(1, dtype=np.uint64)
    cells = np.zeros(1, dtype=np.intp)
    for _ in range(n - tail_bits):
        # every allowed one-bit extension of the words, in order
        words = ((words << 1)[:, None] | _BIT_PAIR).ravel()
        cells = child.take(cells, axis=0).ravel()
        live = cells >= 0
        words, cells = words[live], cells[live]
    # the distinct cells at depth n - L, ascending, and each prefix's rank
    # among them, from a dense rank of all cells
    seen = np.zeros(len(child), dtype=bool)
    seen[cells] = True
    roots = np.flatnonzero(seen)
    root_of = np.cumsum(seen)[cells] - 1
    # landing[w, j]: the S of the key's one cell in grid row w + j, or -1 where
    # it has none (at a fixed w the first residue is a bijection of S mod m)
    hit = grid.reshape(2 * m, m) == key
    row_s = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    landing = row_s[(np.arange(2 * m)[:, None] + np.arange(tail_bits + 1)) % (2 * m)]
    # each (root, j) whose row holds the key's cell s': from (w, S), class
    # (state * (L+1) + j) * m + (s' - S - L*w) % m; their suffixes are sorted
    # by (root, suffix), so that each root's come out ascending
    offsets, suffixes = _suffix_classes(cls._r(P) if cls._r is not None else None, tail_bits, m)
    state, entry = np.divmod(roots, grid.size)
    w, s = np.divmod(entry, m)
    landing = landing.take(w, axis=0).ravel()
    pair = np.flatnonzero(landing >= 0)
    root, j = np.divmod(pair, tail_bits + 1)
    k = (state[root] * (tail_bits + 1) + j) * m + (landing[pair] - (s + tail_bits * w)[root]) % m
    del landing, pair, j  # not held while the members are expanded
    size = offsets[k + 1] - offsets[k]
    owner = np.repeat(root, size)
    tails = owner.astype(np.uint64) << np.uint64(tail_bits)
    tails |= suffixes[_ragged_index(offsets[k], size)]
    tails.sort()
    tails &= np.uint64((1 << tail_bits) - 1)
    per_root = np.bincount(owner, minlength=roots.size)
    first_tail = np.cumsum(per_root) - per_root
    per_word = per_root[root_of]
    ends = np.cumsum(per_word)
    members = np.empty(int(per_word.sum()), dtype=np.uint64)
    # whole prefixes, about a block of members at a time, so that the
    # temporaries stay at a block's size
    block = 1 << seqs._BLOCK_BITS
    bounds = [0, *np.searchsorted(ends, np.arange(block, members.size, block), "right"), words.size]
    at = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        count = per_word[lo:hi]
        # member j of prefix i takes tails[first_tail[root_of[i]] + j]
        index = _ragged_index(first_tail[root_of[lo:hi]], count)
        members[at:at + index.size] = np.repeat(words[lo:hi] << tail_bits, count) | tails[index]
        at += index.size
    return members


def _swept_family(family: str, n: int, P: Optional[int]) -> Type:
    """The record class of a family, once n and P pass its checks: the
    family is known, P is given where it needs one, its moduli exist at n,
    and 0 <= n <= MAX_LEN, in that order; the enumeration cap is left to
    the code that enumerates (``seqs._blocks``, ``build_code``)."""
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    if P is None and "P" in cls.__dataclass_fields__:
        raise ValueError(f"family {family} needs P")
    cls._moduli(n, P)
    if n < 0:
        raise ValueError(f"length n={n} must be >= 0")
    _check_code_length(n)
    return cls


def _coset_params(cls: Type, n: int, P: Optional[int], key: int) -> CodeParams:
    """The record of the coset with this key (_key)."""
    residues = []
    for m in reversed(cls._moduli(n, P)):
        key, r = divmod(key, m)
        residues.insert(0, r)
    return cls._from_residues(n, P, tuple(residues))


def _coset_groups(family: str, n: int, P: Optional[int]) -> CosetSweep:
    """The nonempty cosets of a family and their sizes.

    A ``_ws`` family's sizes come from ``_ws_sizes``, with no word
    enumerated.  twoins and fiveread join the keys of all their ambient
    words from one walk of the blocks and sort them in place; each run of
    equal keys (``_run_starts``) is a coset, and its length the coset's
    size.  Either way the family, P and n are checked first
    (``_swept_family``).  perfbench/spans.py traces sweeps through this
    name, so the public entry point is ``coset_sweep``.
    """
    cls = _swept_family(family, n, P)
    if cls._ws is not None:
        keys, sizes = _ws_sizes(cls, n, P)
    else:
        keys = np.concatenate([k for _, k in _keyed_blocks(cls, n, P)])
        keys.sort()
        starts = np.flatnonzero(_run_starts(keys))
        keys, sizes = keys[starts], np.diff(np.append(starts, len(keys)))
    return CosetSweep(n, int(sizes.sum()), keys, sizes,
                      lambda i: _coset_params(cls, n, P, int(keys[i])))


def coset_sweep(family: str, n: int, P: Optional[int] = None) -> CosetSweep:
    """Every nonempty coset of the family with its size, from one ambient sweep."""
    return _coset_groups(family, n, P)


def coset_partition(family: str, n: int, P: Optional[int] = None) -> Dict[CodeParams, SeqSet]:
    """Every nonempty coset of the family, from one walk of the blocks keyed
    by the family's kernel: one stable argsort of all keys groups the words,
    and the cosets start where the sorted keys change (``_run_starts``)."""
    cls = _swept_family(family, n, P)
    words, keys = (np.concatenate(a) for a in zip(*_keyed_blocks(cls, n, P)))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(_run_starts(keys))
    chunks = np.split(words[order], starts[1:])
    return {_coset_params(cls, n, P, int(keys[i])): SeqSet._from_vals(n, c)
            for i, c in zip(starts, chunks)}


def best_coset(family: str, n: int, P: Optional[int] = None) -> Tuple[CodeParams, SeqSet]:
    """The largest coset; ties break to the smallest residue tuple."""
    _swept_family(family, n, P)
    seqs._block_bits(n)  # its members are enumerated: refuse before any count
    sweep = coset_sweep(family, n, P)
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


def _header_entries(items: Iterable[str], names: List[str]) -> Dict[str, str]:
    """name -> raw value of the ``name=value`` items of a header; a repeated
    name, or one outside names, is refused."""
    out = {}
    for item in items:
        name, _, raw = item.partition("=")
        if name in out or name not in names:
            raise ValueError(f"code file header has {'a repeated' if name in out else 'an unknown'} "
                             f"entry {item!r}")
        out[name] = raw
    return out


def _header_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"code file header field {name!r} has a non-integer value {raw!r}") from None


def parse_header(line: str) -> CodeParams:
    head = _header_entries(line.lstrip("#").split(), ["family", "n", "params"])
    cls = FAMILIES.get(head.get("family"))
    if cls is None:
        raise ValueError(f"unknown code family in header: {head.get('family')!r}")
    kv = _header_entries(filter(None, head.get("params", "").split(",")),
                         [f.name for f in fields(cls)[1:]])
    values = []
    for f in fields(cls):
        src = head if f.name == "n" else kv
        if f.name not in src:
            raise ValueError(f"code file header is missing field {f.name!r}")
        raw = src[f.name]
        values.append(tuple(_header_int(f.name, r) for r in raw.split("|"))
                      if f.type.startswith("Tuple") else _header_int(f.name, raw))
    _check_code_length(values[0])  # n is a code length, before any record rule
    return cls(*values)


def write_code_file(path: str, params: CodeParams, code: SeqSet) -> None:
    """The header line, then the lines of ``code.to_lines()``, formatted and
    written 2^_BLOCK_BITS words at a time as the bytes of their line matrix
    (``SeqSet._line_matrix``), so one block of text is held, not the whole."""
    if code.n != params.n:
        raise ValueError(f"code length {code.n} does not match the header's n={params.n}")
    words, block = code._array(), 1 << seqs._BLOCK_BITS
    with open(path, "wb") as fh:
        fh.write((format_header(params) + "\n").encode("ascii"))
        for lo in range(0, len(words), block):
            fh.write(SeqSet._line_matrix(words[lo : lo + block], code.n))


def read_code_file(path: str) -> Tuple[Optional[CodeParams], SeqSet]:
    """Parse a code file; a missing header yields params=None.

    The file gives the value or error of its reading as text: decoded whole
    as ASCII, split by str.splitlines, a first line that starts with '#'
    parsed as the header, and the other lines by SeqSet.parse_lines.  It is
    read in chunks of whole lines, so it is never held whole: (n+1) * 2^k
    bytes at a time (n = MAX_LEN until the header or a headerless file's
    lines give it), k growing by one a read from _BLOCK_BITS - 4 to
    _BLOCK_BITS, so a small file takes small reads.  Each read is cut after
    its last line break, \n, \v, \f, \x1c, \x1d, \x1e or a \r that is not
    its last byte, which end a line in any reading, and the rest carried
    into the next.  The header is the first line of the first chunk.  A
    chunk that is exactly lines of n bits (SeqSet._line_words), or is once
    its \r\n line ends are \n, is parsed as a byte matrix, any other by
    parse_lines; their words fill one array,
    sorted only when the file was not.  A header or parse error is held
    until the end of the file, since a later non-ASCII byte fails the text
    reading first, with the error that names its position in the file.

    Under a header, every codeword must lie in the coset it names, by the
    record test the ``*_member`` predicates make one word at a time (so a
    ``twoins`` body is checked with the m1 weights, a ``fiveread`` one with m0).
    The test runs on 2^_BLOCK_BITS words at a time in ascending order, and
    the error names the smallest failing word.
    """
    with open(path, "rb") as fh:
        params = error = n = None
        at, words, pending, eof = 0, np.empty(0, np.uint64), [], False
        lines = 1 << max(seqs._BLOCK_BITS - 4, 0)
        while not eof:
            data = fh.read(((MAX_LEN if n is None else n) + 1) * lines)
            lines = min(2 * lines, 1 << seqs._BLOCK_BITS)
            # the ASCII breaks of str.splitlines end a line in any reading, \r once no
            # \n can follow it; the others are sought after the last \n only
            eof, cut = not data, data.rfind(b"\n") + 1
            cut = max(cut, data.rfind(b"\r", cut, len(data) - 1) + 1,
                      *(data.rfind(end, cut) + 1 for end in b"\v\f\x1c\x1d\x1e"))
            if not (eof or cut):
                pending.append(data)
                continue
            chunk = b"".join([*pending, data[:cut]])  # a read that ends a line is not copied
            pending = [data[cut:]] if cut < len(data) else []
            del data  # a read that was copied is not held while its chunk is parsed
            if not at and chunk.startswith(b"#"):
                # the header is the text's first line; a bad byte before the
                # chunk's first \n is the file's first
                head = chunk[: chunk.find(b"\n") + 1 or len(chunk)].decode("ascii")
                line = head.splitlines(keepends=True)[0]
                try:
                    params = parse_header(line)
                except ValueError as exc:
                    error = exc
                else:
                    n = params.n
                chunk, at = chunk[len(line):], len(line)
            part = None
            if error is None and n is not None:
                part = SeqSet._line_words(chunk, n)
                if part is None:  # \r\n line ends split the text into the same lines
                    part = SeqSet._line_words(chunk.replace(b"\r\n", b"\n"), n)
            if part is None:
                if not chunk.isascii():
                    (bytes(at) + chunk).decode("ascii")  # raises, naming the byte's place in the file
                text = chunk.decode()
                # a headerless file's length comes from its first nonblank line, or at its end
                if error is None and (n is not None or text.strip() or eof):
                    try:
                        code = SeqSet.parse_lines(text, n)
                    except ValueError as exc:
                        error = exc
                    else:
                        n, part = code.n, code._array()
            if part is not None:
                # no view of words outlives its statement, so it grows in place
                words.resize(len(words) + len(part), refcheck=False)
                words[len(words) - len(part):] = part
            at += len(chunk)
    if error is not None:
        raise error
    code = SeqSet._from_vals(n, words)
    if params is not None:
        vals, P = code._array(), getattr(params, "P", None)
        # an empty code is one empty slice, still checked, as a whole array is
        for part in np.split(vals, range(1 << seqs._BLOCK_BITS, len(vals), 1 << seqs._BLOCK_BITS)):
            ok = params._member(part, code.n, P, params.residues())
            if not ok.all():
                word = BitSeq.from_int(int(part[~ok][0]), code.n)
                raise ValueError(f"codeword {word} is not in the code of its header: "
                                 f"{format_header(params)[2:]}")
    return params, code
