"""Independent brute-force oracles, all over plain strings.

Everything here is written from the definitions with no shortcuts so that the
library's packed-word implementations have something honest to be checked
against: balls by repeated single insertions plus dedup, confusability by
literal split scans, parity checks by running-sum weights and direct dot
products, five-read window sums from explicitly padded and sliced strings.
"""

from itertools import accumulate, combinations
from math import gcd


def insertion_ball(s: str, t: int) -> frozenset:
    cur = {s}
    for _ in range(t):
        cur = {w[:i] + c + w[i:] for w in cur for i in range(len(w) + 1) for c in "01"}
    return frozenset(cur)


def deletion_ball(s: str, t: int) -> frozenset:
    out = set()
    for keep in combinations(range(len(s)), len(s) - t):
        out.add("".join(s[i] for i in keep))
    return frozenset(out)


def ball_growth_distance(x: str, y: str, cap: int = 16) -> int:
    for t in range(cap + 1):
        if insertion_ball(x, t) & insertion_ball(y, t):
            return t
    raise AssertionError(f"no common supersequence within {cap} insertions")


def period(s: str) -> int:
    n = len(s)
    if n <= 1:
        return 1
    for p in range(1, n + 1):
        if all(s[i] == s[i + p] for i in range(n - p)):
            return p
    raise AssertionError("unreachable")


def is_alternating(s: str) -> bool:
    return all(s[i] != s[i + 1] for i in range(len(s) - 1))


def in_r(s: str, ell: int, t: int) -> bool:
    n = len(s)
    for lo in range(n):
        for hi in range(lo + 1, n):
            sub = s[lo : hi + 1]
            if len(sub) > t and period(sub) <= ell:
                return False
    return True


def count_r_by_windows(n: int, ell: int, t: int) -> int:
    """|R(n, ell, t)| by extending the words of length t one symbol at a time.
    A subword longer than t of period <= ell has a prefix of length t + 1 of
    period <= ell, so a word longer than t is in R iff every length-(t+1)
    window is."""
    if n <= t:
        return 2**n
    allowed = {w for w in all_seqs(t + 1) if period(w) > ell}
    counts = dict.fromkeys(all_seqs(t), 1)
    for _ in range(n - t):
        step = {}
        for s, c in counts.items():
            for w in (s + "0", s + "1"):
                if w in allowed:
                    step[w[1:]] = step.get(w[1:], 0) + c
        counts = step
    return sum(counts.values())


def count_r1(n: int, t: int) -> int:
    """|R(n, 1, t)|: the binary words with no run longer than t.  A nonempty
    word is its first symbol and the composition of n into its run lengths,
    each part in 1..t."""
    comps = [1]  # comps[k]: compositions of k with parts <= t
    for k in range(1, n + 1):
        comps.append(sum(comps[k - j] for j in range(1, min(k, t) + 1)))
    return 2 * comps[n] if n else 1


def _totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _mobius(m: int) -> int:
    sign, p = 1, 2
    while m > 1:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


def vt_coset_size(n: int, a: int) -> int:
    """|VT_a(n)| by the closed form (Ginzburg 1967; Stanley & Yoder 1973):
    1/(2(n+1)) * sum over odd d | n+1 of phi(d) mu(d/g) / phi(d/g) * 2^((n+1)/d),
    with g = gcd(d, a)."""
    total = 0
    for d in range(1, n + 2, 2):
        if (n + 1) % d == 0:
            e = d // gcd(d, a)
            total += _totient(d) // _totient(e) * _mobius(e) * 2 ** ((n + 1) // d)
    size, rest = divmod(total, 2 * (n + 1))
    assert rest == 0, (n, a, total)
    return size


def inversions(s: str) -> int:
    return sum(
        1
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if s[i] == "1" and s[j] == "0"
    )


def vt_syndrome(s: str) -> int:
    return sum(i for i, c in enumerate(s, start=1) if c == "1") % (len(s) + 1)


def type_a_confusable(x: str, y: str) -> bool:
    """Literal definition: x = u w v, y = u w~ v, w alternating, |w| >= 1."""
    n = len(x)
    for s in range(n):
        for e in range(s + 1, n + 1):
            w = x[s:e]
            if (
                x[:s] == y[:s]
                and x[e:] == y[e:]
                and all(a != b for a, b in zip(w, y[s:e]))
                and is_alternating(w)
            ):
                return True
    return False


def type_b_confusable(x: str, y: str) -> bool:
    """Literal definition: {x, y} = {u a a~ v b w, u a~ v b b~ w}."""
    n = len(x)
    if n < 3:
        return False
    flip = {"0": "1", "1": "0"}
    for p, q in ((x, y), (y, x)):
        for s in range(n - 2):
            for lv in range(n - s - 2):
                a = p[s]
                b = p[s + 2 + lv]
                if (
                    p[:s] == q[:s]
                    and p[s + 1] == flip[a]
                    and q[s] == flip[a]
                    and p[s + 2 : s + 2 + lv] == q[s + 1 : s + 1 + lv]
                    and q[s + 1 + lv] == b
                    and q[s + 2 + lv] == flip[b]
                    and p[s + 3 + lv :] == q[s + 3 + lv :]
                ):
                    return True
    return False


def parity_checks(s: str, moduli, h_second: str = "m1"):
    """Direct dot products; weights built by running sums, not closed forms."""
    n = len(s)
    ind10 = [1 if s[i] == "1" and s[i + 1] == "0" else 0 for i in range(n - 1)]
    ind01 = [1 if s[i] == "0" and s[i + 1] == "1" else 0 for i in range(n - 1)]
    m0 = list(range(1, n))
    m1 = list(accumulate(m0))
    m2 = list(accumulate(i * i for i in range(1, n)))
    M1, M2, M3, M4, M5 = moduli
    f = (
        sum(a * b for a, b in zip(ind10, m0)) % M1,
        sum(a * b for a, b in zip(ind10, m1)) % M2,
        sum(a * b for a, b in zip(ind10, m2)) % M3,
    )
    hw = m1 if h_second == "m1" else m0
    h = (sum(ind01) % M4, sum(a * b for a, b in zip(ind01, hw)) % M5)
    return f, h


def all_seqs(n: int):
    return [format(v, f"0{n}b") if n else "" for v in range(1 << n)]


def five_read_sums(s: str, P: int, h_second: str = "m0"):
    """Even and odd window sums of the five-read code, from the definitions.

    s is padded with zeros to a multiple of m = 7P + 1; window k is
    padded[km : km + 2m] for k = 0 .. len/m - 2, checked by parity_checks
    under the moduli of a length-2m word, (4m, 4m^2, 8m^3, 3, 4m); the
    residues are summed over even k and over odd k, componentwise.
    """
    m = 7 * P + 1
    padded = s + "0" * (-len(s) % m)
    moduli = (4 * m, 4 * m * m, 8 * m**3, 3, 4 * m)
    sums = ([0] * 5, [0] * 5)
    for k in range(len(padded) // m - 1):
        f, h = parity_checks(padded[k * m : k * m + 2 * m], moduli, h_second)
        side = sums[k % 2]
        for i, r in enumerate(f + h):
            side[i] = (side[i] + r) % moduli[i]
    return tuple(sums[0]), tuple(sums[1])
