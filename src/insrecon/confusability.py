"""Pair confusability analysis for single- and double-insertion channels.

Two equal-length sequences are *Type-A confusable* when they differ exactly in
a complemented alternating block (x = u w v, y = u w~ v with w alternating and
nonempty), and *Type-B confusable* when {x, y} = {u a a~ v b w, u a~ v b b~ w}.
Type-A is equivalent to the 1-insertion balls meeting twice, Type-B without
Type-A to their meeting once, and the verdict pins the 2-insertion
intersection size to 2n+4, [n+3, n+5], or <= 6 respectively.

This module also classifies the boundary windows x = a a~ v b, y = a~ v b b~:
their 2-insertion intersection is n'+3, n'+4 or n'+5 (n' = |v|+3), and the
+4/+5 cases are recognized by explicit pattern families over v.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional, Tuple

from .balls import SeqSet, insertion_ball, intersect_balls
from .seqs import (
    EMPTY,
    BitSeq,
    alternating,
    hamming_distance,
    in_r,
    is_alternating,
    symbol,
)


class Confusability(Enum):
    NEITHER = "neither"
    TYPE_A_ONLY = "type-a-only"
    TYPE_B_ONLY = "type-b-only"
    BOTH = "both"

    @property
    def type_a(self) -> bool:
        return self in (Confusability.TYPE_A_ONLY, Confusability.BOTH)

    @property
    def type_b(self) -> bool:
        return self in (Confusability.TYPE_B_ONLY, Confusability.BOTH)


@dataclass(frozen=True)
class TypeAWitness:
    """x = u + w + v and y = u + w.complement() + v, w alternating, |w| >= 1."""

    u: BitSeq
    w: BitSeq
    v: BitSeq

    def assemble(self) -> Tuple[BitSeq, BitSeq]:
        return self.u + self.w + self.v, self.u + self.w.complement() + self.v


@dataclass(frozen=True)
class TypeBWitness:
    """{x, y} = {u a a~ v b w, u a~ v b b~ w}."""

    u: BitSeq
    v: BitSeq
    w: BitSeq
    a: int
    b: int

    def assemble(self) -> Tuple[BitSeq, BitSeq]:
        a, b = symbol(self.a), symbol(self.b)
        first = self.u + a + a.complement() + self.v + b + self.w
        second = self.u + a.complement() + self.v + b + b.complement() + self.w
        return first, second


@dataclass(frozen=True)
class ConfusabilityVerdict:
    kind: Confusability
    type_a_witness: Optional[TypeAWitness]
    type_b_witness: Optional[TypeBWitness]


def _diff_span(x: BitSeq, y: BitSeq) -> Tuple[int, int]:
    """Leftmost and rightmost 1-based positions where x and y differ."""
    d = x.val ^ y.val
    j = x.n - (d & -d).bit_length() + 1
    i = x.n - d.bit_length() + 1
    return i, j


def classify_pair(x: BitSeq, y: BitSeq) -> ConfusabilityVerdict:
    """Full confusability verdict with reassemblable witnesses.

    Any Type-A witness block must cover exactly the differing span (a
    complemented block disagrees everywhere), and in any Type-B witness the
    leading a/a~ and trailing b/b~ sit at the first and last differing
    positions; so both tests reduce to checks on the stripped core.  The
    equivalence with the literal definitional search is covered by
    exhaustive tests.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} != {y.n}")
    if x == y:
        raise ValueError("classification requires distinct sequences")
    n = x.n
    i, j = _diff_span(x, y)
    core_x = x.subword(i, j)
    core_y = y.subword(i, j)

    type_a = False
    a_wit: Optional[TypeAWitness] = None
    if core_x == core_y.complement() and is_alternating(core_x):
        type_a = True
        a_wit = TypeAWitness(
            u=x.subword(1, i - 1) if i > 1 else EMPTY,
            w=core_x,
            v=x.subword(j + 1, n) if j < n else EMPTY,
        )

    type_b = False
    b_wit: Optional[TypeBWitness] = None
    if n >= 3 and j >= i + 2:
        for p, q in ((x, y), (y, x)):
            # p = u a a~ v b w, q = u a~ v b b~ w with the forced anchors
            if p.bit(i + 1) != p.bit(i) and q.bit(j - 1) == p.bit(j):
                shift_ok = (
                    j - 1 < i + 2
                    or p.subword(i + 2, j - 1) == q.subword(i + 1, j - 2)
                )
                if shift_ok:
                    type_b = True
                    b_wit = TypeBWitness(
                        u=p.subword(1, i - 1) if i > 1 else EMPTY,
                        v=p.subword(i + 2, j - 1) if j - 1 >= i + 2 else EMPTY,
                        w=p.subword(j + 1, n) if j < n else EMPTY,
                        a=p.bit(i),
                        b=p.bit(j),
                    )
                    break

    if type_a and type_b:
        kind = Confusability.BOTH
    elif type_a:
        kind = Confusability.TYPE_A_ONLY
    elif type_b:
        kind = Confusability.TYPE_B_ONLY
    else:
        kind = Confusability.NEITHER
    return ConfusabilityVerdict(kind, a_wit, b_wit)


def predict_i1_size(x: BitSeq, y: BitSeq) -> int:
    """Predicted |I_1(x) cap I_1(y)|: 2 if Type-A, 1 if Type-B only, else 0."""
    kind = classify_pair(x, y).kind
    if kind.type_a:
        return 2
    return 1 if kind.type_b else 0


@dataclass(frozen=True)
class I2RangePrediction:
    """Predicted class of |I_2(x) cap I_2(y)| as an inclusive [lo, hi] range."""

    lo: int
    hi: int
    label: str


def predict_i2_range(x: BitSeq, y: BitSeq) -> I2RangePrediction:
    """Trichotomy for the 2-insertion intersection size (requires n >= 4)."""
    n = x.n
    if n < 4:
        raise ValueError("the trichotomy requires n >= 4")
    kind = classify_pair(x, y).kind
    if kind.type_a:
        return I2RangePrediction(2 * n + 4, 2 * n + 4, "2n+4")
    if kind.type_b:
        return I2RangePrediction(n + 3, n + 5, "n+3..n+5")
    return I2RangePrediction(0, 6, "<=6")


def excluded_by_rsv(a: int, b: int, v: BitSeq) -> bool:
    """Degenerate windows where a a~ v = v b b~ (the pair turns Type-A).

    True iff a = b and v = (a a~)^m, or a = b~ and v = (a a~)^m a, m >= 0.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("a, b must be symbols in {0,1}")
    if a == b:
        return v.n % 2 == 0 and v == alternating(a, v.n)
    return v.n % 2 == 1 and v == alternating(a, v.n)


class SizeOffset(IntEnum):
    """Window intersection size minus n' (n' = |v| + 3)."""

    PLUS3 = 3
    PLUS4 = 4
    PLUS5 = 5


@dataclass(frozen=True)
class WindowClass:
    offset: SizeOffset
    matched_form: Optional[str]


# Window forms, in report order: (name, holds when a == b, pattern over the
# letters A = a and B = a~ of v).  The four +5 alternating-core families
# come first, then the eight +4 periodic rows; the first match is reported.
_FORMS = (
    ("alt-family-1", True, "(AB)*A(AB)*"),
    ("alt-family-2", True, "(AB)*(BA)*B"),
    ("alt-family-3", False, "(AB)*(BA)*"),
    ("alt-family-4", False, "(AB)*AA(BA)*"),
    ("row-1", True, "(AB)*BB+(AB)*"),
    ("row-2", True, "(AB)*AA+(AB)*"),
    ("row-3", True, "(AB)*(BAB)+(BA)*B"),
    ("row-4", True, "(AB)*A(ABA)+(AB)*"),
    ("row-5", False, "(AB)*B+(BA)*"),
    ("row-6", False, "(AB)*AAA+(BA)*"),
    ("row-7", False, "(AB)*(BAB)+(BA)*"),
    ("row-8", False, "(AB)*A(ABA)+(AB)*A"),
)


def classify_window(a: int, b: int, v: BitSeq) -> WindowClass:
    """Predict |I_2(a a~ v b) cap I_2(a~ v b b~)| - n' without enumeration.

    Returns +5 when v lies in one of the four alternating-core families,
    +4 when v matches one of the eight periodic rows for its a-b relation,
    and +3 otherwise.  Degenerate (a, b, v) windows are rejected.
    """
    if excluded_by_rsv(a, b, v):
        raise ValueError("degenerate window: pair would be Type-A confusable")
    word = "".join("A" if bit == a else "B" for bit in v)
    for name, same, pattern in _FORMS:
        if same == (a == b) and re.fullmatch(pattern, word):
            offset = SizeOffset.PLUS5 if name.startswith("alt") else SizeOffset.PLUS4
            return WindowClass(offset, name)
    return WindowClass(SizeOffset.PLUS3, None)


def window_pair(a: int, b: int, v: BitSeq) -> Tuple[BitSeq, BitSeq]:
    """The window sequences x = a a~ v b and y = a~ v b b~."""
    sa, sb = symbol(a), symbol(b)
    x = sa + sa.complement() + v + sb
    y = sa.complement() + v + sb + sb.complement()
    return x, y


@dataclass(frozen=True)
class WindowSplit:
    """x = u + core_x + w and y = u + core_y + w with maximal u, w stripped."""

    u: BitSeq
    core_x: BitSeq
    core_y: BitSeq
    w: BitSeq
    i: int
    j: int


def locate_window(x: BitSeq, y: BitSeq) -> WindowSplit:
    """Strip the maximal common prefix and suffix (requires d_H >= 2)."""
    if hamming_distance(x, y) < 2:
        raise ValueError("window location requires Hamming distance >= 2")
    n = x.n
    i, j = _diff_span(x, y)
    return WindowSplit(
        u=x.subword(1, i - 1) if i > 1 else EMPTY,
        core_x=x.subword(i, j),
        core_y=y.subword(i, j),
        w=x.subword(j + 1, n) if j < n else EMPTY,
        i=i,
        j=j,
    )


def localization_bound_holds(x: BitSeq, y: BitSeq, P: int) -> bool:
    """Check that a small 2-insertion overlap forces a short differing core.

    Preconditions: x, y in R(n, 3, P) and |I_2(x) cap I_2(y)| in {5, 6}.
    Under them the differing core has length at most 7P+1; this operation
    exists to test that claim, so it measures rather than assumes it.
    """
    if not (in_r(x, 3, P) and in_r(y, 3, P)):
        raise ValueError(f"both sequences must lie in R(n, 3, {P})")
    size = len(intersect_balls(x, y, 2))
    if size not in (5, 6):
        raise ValueError(f"|I_2 cap I_2| = {size}, expected 5 or 6")
    split = locate_window(x, y)
    return split.core_x.n <= 7 * P + 1


def intersect2_decomposed(u: BitSeq, a: int, v: BitSeq, b: int, w: BitSeq) -> SeqSet:
    """I_2(x) cap I_2(y) for x = u a a~ v b w, y = u a~ v b b~ w, assembled
    as the disjoint union I_1(z) + u (I_2(a a~ v b) cap I_2(a~ v b b~)
    minus I_1(a a~ v b b~)) w with z = u a a~ v b b~ w.

    Rejects Type-A confusable pairs (there the decomposition does not apply).
    """
    sa, sb = symbol(a), symbol(b)
    x = u + sa + sa.complement() + v + sb + w
    y = u + sa.complement() + v + sb + sb.complement() + w
    if classify_pair(x, y).kind.type_a:
        raise ValueError("pair is Type-A confusable; decomposition requires otherwise")
    z = u + sa + sa.complement() + v + sb + sb.complement() + w
    core_x, core_y = window_pair(a, b, v)
    core_z = sa + sa.complement() + v + sb + sb.complement()
    inner = (intersect_balls(core_x, core_y, 2)) - insertion_ball(core_z, 1)
    outer = insertion_ball(z, 1)
    wrapped = SeqSet(outer.n, (u + s + w for s in inner))
    if not outer.isdisjoint(wrapped):
        raise AssertionError("decomposition parts overlap; implementation bug")
    return outer | wrapped
