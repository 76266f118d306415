"""Series iteration on a cyclic quotient: p^[n] evaluated in R[Z_m].

Identifying t^k with t^(k mod m) turns iterated composition into a
dynamical system on the simplex of Z_m.  Its limit behaviour is decided
by two pieces of integer data: the subgroup <g> of Z_m generated by the
offsets of p, g = gcd(m, offsets), and the eventual cycle of r^n mod m
where r is the minimal exponent of p.  The limit (when the coset
criterion grants one) and the Cesaro average mix uniform measures on
cosets res + <g>, named by res mod g, plus a term in the extinction
value a of p.  A point is named by its weight map {j: w_j} on those
cosets alone, never as m Fractions: it is sum_j w_j c_(j + <g>) +
a (delta_0 - c_<g>).  A pure power t^r has subgroup (0,) and a = 0.

a is found in exact arithmetic only: bisection on dyadics by the sign of
an integer polynomial, then one rational-root candidate checked by
p(a) == a.  A rational a comes out exact; an irrational one as a dyadic
within 2^-65 of it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .errors import InternalConsistencyError
from .record import Record
from .poly import ProbPoly

# Bisection width 2^-EXTINCTION_BITS: an irrational a is returned within
# 2^-65, below half the float64 spacing of every a >= 2^-11, so float(a)
# is the double nearest a unless a lies that close to a rounding boundary.
EXTINCTION_BITS = 64


class ResidueCycle(Record):
    """Eventual cycle of the sequence r^n mod m, n counted from 1.

    residues[i] is r^(preperiod+1+i) mod m, the cycle in order of first
    appearance; a trace index n > preperiod belongs to class
    (n - preperiod - 1) mod d.
    """

    _fields = ("modulus", "base", "preperiod", "residues")

    def __init__(self, modulus: int, base: int, preperiod: int,
                 residues: tuple[int, ...]) -> None:
        m, r = modulus, base
        if m < 1:
            raise ValueError("modulus must be >= 1")
        if r < 0 or preperiod < 0 or not residues:
            raise ValueError("malformed residue cycle")
        if len(set(residues)) != len(residues):
            raise ValueError("cycle residues must be pairwise distinct")
        d = len(residues)
        for i, res in enumerate(residues):
            n = preperiod + 1 + i
            if pow(r, n, m) != res or pow(r, n + d, m) != res:
                raise ValueError(f"residue {res} at slot {i} breaks the cycle")
        if preperiod and pow(r, preperiod, m) == pow(r, preperiod + d, m):
            raise ValueError("preperiod is not minimal")
        self._set(modulus=modulus, base=base, preperiod=preperiod, residues=residues)

    @property
    def d(self) -> int:
        return len(self.residues)


def residue_cycle(r: int, m: int) -> ResidueCycle:
    """Detect the eventual cycle of r^n mod m by first-repeat search."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if r < 0:
        raise ValueError("base must be >= 0")
    seen: dict[int, int] = {}
    seq = []
    value = r % m
    while value not in seen:
        seen[value] = len(seq)
        seq.append(value)
        value = (value * r) % m
    start = seen[value]
    return ResidueCycle(modulus=m, base=r, preperiod=start,
                        residues=tuple(seq[start:]))


def series_group(p: ProbPoly, m: int) -> tuple[int, ...]:
    """Residues of the subgroup of Z_m generated by the offsets of p.

    Equals the multiples of g = gcd(q_1, ..., q_{l-1}, m), (0,) for a pure
    power; cross-checked against the residues reached from 0 by adding
    offsets (the zero offset alone would only ever reach 0).
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    steps = [q % m for q in p.offsets if q]
    members = tuple(range(0, m, math.gcd(m, *steps)))
    closure = _closure(steps, m)
    if closure != members:
        raise InternalConsistencyError(
            f"gcd subgroup {members} disagrees with closure {closure}")
    return members


def _closure(steps: list[int], m: int) -> tuple[int, ...]:
    """Sorted residues reached from 0 by adding steps mod m, in O(m * len(steps))."""
    seen = [True] + [False] * (m - 1)
    queue = [0]
    for res in queue:
        for q in steps:
            nxt = (res + q) % m
            if not seen[nxt]:
                seen[nxt] = True
                queue.append(nxt)
    return tuple(i for i in range(m) if seen[i])


class ModMReport(Record):
    """Limit data of p^[n] on R[Z_m]: the coset j + <g> of series_group
    each accumulation point lies on (classes, in order of first
    appearance), the Cesaro weight of each class and the exact extinction value a."""

    _fields = ("m", "series_group", "cycle", "classes", "cesaro", "a")

    def __init__(self, m: int, series_group: tuple[int, ...], cycle: ResidueCycle,
                 classes: tuple[int, ...], cesaro: tuple[Fraction, ...],
                 a: Fraction) -> None:
        if cycle.modulus != m:
            raise ValueError("cycle modulus disagrees with report modulus")
        # a > 0 only happens when the minimal exponent is 0, so on the
        # single class 0, where (1 - a) c_G + a delta_0 >= 0 needs a <= 1.
        if (len(cesaro) != len(classes) or min(cesaro, default=0) < 0
                or sum(cesaro) != 1 or not 0 <= a <= 1 or (a and classes != (0,))):
            raise InternalConsistencyError(
                f"class weights {dict(zip(classes, cesaro))} with a = {a} "
                f"are off the simplex of Z_{m}")
        self._set(m, series_group, cycle, classes, cesaro, a)

    @property
    def exists(self) -> bool:
        return len(self.classes) == 1

    @property
    def weights(self) -> list[dict[int, Fraction]]:
        """The weight map of each accumulation point, then the Cesaro point's."""
        return [*({j: Fraction(1)} for j in self.classes), dict(zip(self.classes, self.cesaro))]

    def masses(self, weights: dict[int, Fraction]) -> tuple[Fraction, ...]:
        """The m residue masses of the point of a weight map."""
        size = len(self.series_group)
        per = [Fraction(weights.get(j, 0), size) for j in range(self.m // size)]
        per[0] -= self.a / size
        out = per * size  # residue r lies on the coset r mod g
        out[0] += self.a
        return tuple(out)


def extinction_fraction(p: ProbPoly) -> Fraction:
    """Extinction value a, the smallest fixed point of p in [0, 1].

    Shifted series (no constant term) have value 0, and series with mean
    exponent <= 1 have value 1 (their only fixed point in [a_0, 1] is 1).
    A supercritical series has q = D * (p(t) - t) > 0 on [0, a) and
    q < 0 on (a, 1), since p - id is convex with roots a and 1 (Harris,
    The Theory of Branching Processes, 1963).  So a is bisected on
    dyadics n / 2^k by the sign of q, taken in integers: D is the common
    denominator of p, and 2^(k deg) q(n / 2^k) comes from Horner's rule.
    Bisection stops below width 2^-64 and below 1 / (2 L^2), L the
    leading coefficient of q.  A rational root of q has a denominator
    dividing L, and two such rationals lie at least 1 / L^2 apart, so
    limit_denominator(L) of the midpoint is the only rational candidate.
    It is returned when it lies below 1 (1 is the other root) and p fixes
    it exactly; otherwise a is irrational and the midpoint, within 2^-65
    of a, is returned.
    """
    if p.shift >= 1:
        return Fraction(0)
    if p.mean_exponent <= 1:
        return Fraction(1)
    den = math.lcm(*(c.denominator for _, c in p.terms))
    q = {e: c.numerator * (den // c.denominator) for e, c in p.terms}
    q[1] = q.get(1, 0) - den
    terms = sorted(q.items(), reverse=True)
    deg, lead = terms[0]
    bits = max(EXTINCTION_BITS, (2 * lead * lead).bit_length())
    lo = 0
    for k in range(1, bits + 1):
        n = 2 * lo + 1
        value, prev = 0, deg
        for e, c in terms:
            value = value * n ** (prev - e) + (c << k * (deg - e))
            prev = e
        lo = n if value > 0 else 2 * lo
    mid = Fraction(2 * lo + 1, 2 ** (bits + 1))
    candidate = mid.limit_denominator(lead)
    if candidate < 1 and p.evaluate(candidate) == candidate:
        return candidate
    return mid


def regularity_mod_m(p: ProbPoly, m: int) -> ModMReport:
    """Decide lim p^[n](t mod t^m - 1) and name its points by coset weights.

    Subsequence class i lands on the coset residues[i] + <g> of the series
    group, named by residues[i] mod g.  The limit exists iff all d classes
    land on one coset; the distinct cosets, in order of first appearance,
    are the accumulation points, and the Cesaro point weights each by its
    share of the d classes.
    """
    sub = series_group(p, m)
    cycle = residue_cycle(p.shift, m)
    classes = Counter(res % (m // len(sub)) for res in cycle.residues)
    return ModMReport(m, sub, cycle, tuple(classes),
                      tuple(Fraction(n, cycle.d) for n in classes.values()), extinction_fraction(p))
