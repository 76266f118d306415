"""Series iteration on a cyclic quotient: p^[n] evaluated in R[Z_m].

Identifying t^k with t^(k mod m) turns iterated composition into a
dynamical system on the simplex of Z_m.  Its limit behaviour is decided
by two pieces of integer data: the subgroup of Z_m generated by the
offsets of p, and the eventual cycle of r^n mod m where r is the minimal
exponent of p.  The limit (when the coset criterion grants one) and the
Cesaro average both have closed forms built from the uniform measure on
that subgroup.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import SimplexPoint
from .dynamics import AccumulationSet
from .errors import InternalConsistencyError, PurePowerError
from .groups import ElementSet, generated_subgroup, make_cyclic
from .record import Record
from .series import ProbPoly, extinction_value

EXTINCTION_SNAP_DENOMINATOR = 10 ** 6


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

    def class_of(self, n: int) -> int:
        """Cycle slot of trace index n (n > preperiod)."""
        if n <= self.preperiod:
            raise ValueError(f"index {n} precedes the cycle")
        return (n - self.preperiod - 1) % self.d


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


def series_group(p: ProbPoly, m: int) -> ElementSet:
    """Subgroup of Z_m generated by the offsets of p.

    Equals the multiples of gcd(q_1, ..., q_{l-1}, m); cross-checked
    against breadth-first closure seeded with every offset (the zero
    offset alone would only ever generate the trivial subgroup).
    """
    if p.is_pure_power:
        raise PurePowerError("a pure power has no offset subgroup; "
                             "use the pure-power prediction path")
    if m < 1:
        raise ValueError("modulus must be >= 1")
    g = math.gcd(m, *[q for q in p.offsets if q])
    group = make_cyclic(m)
    members = tuple(range(0, m, g))
    closure = generated_subgroup(group, [q % m for q in p.offsets if q])
    expected = ElementSet(group=group, members=members)
    if closure.members != expected.members:
        raise InternalConsistencyError(
            f"gcd subgroup {expected.members} disagrees with closure {closure.members}")
    return expected


class ModMReport(Record):
    """Limit data of p^[n] on R[Z_m]: existence, limit, accumulation, Cesaro,
    and the exact extinction value a that every closed form carries."""

    _fields = ("m", "series_group", "cycle", "exists", "limit", "accumulation",
               "cesaro", "a")

    def __init__(self, m: int, series_group: ElementSet, cycle: ResidueCycle,
                 exists: bool, limit: SimplexPoint | None,
                 accumulation: AccumulationSet, cesaro: SimplexPoint,
                 a: Fraction) -> None:
        if exists != (limit is not None):
            raise ValueError("limit must be present exactly when the limit exists")
        if cycle.modulus != m:
            raise ValueError("cycle modulus disagrees with report modulus")
        if exists and len(accumulation) != 1:
            raise ValueError("a convergent trace has a single accumulation point")
        self._set(m=m, series_group=series_group, cycle=cycle, exists=exists,
                  limit=limit, accumulation=accumulation, cesaro=cesaro, a=a)


def extinction_correction(coeffs: list[Fraction], identity: int,
                          members: tuple[int, ...], a: Fraction) -> list[Fraction]:
    """Add (delta_e - c_H) * a to coeffs in place, c_H uniform on members.

    Every closed form carries this term, on the quotient Z_m (H the
    series group) and on the group (H the support group of the
    stabilized point).  a > 0 only happens when the minimal exponent is
    0, and then the mass already sitting on H is at least a, so the
    subtracted a/|H| per member never drives a coefficient negative.
    """
    if a:
        coeffs[identity] += a
        for g in members:
            coeffs[g] -= a / len(members)
    return coeffs


def extinction_fraction(p: ProbPoly) -> Fraction:
    """Extinction value for the closed forms, embedded as an exact rational.

    Shifted series (no constant term) have value 0, and series with mean
    exponent <= 1 have value 1 (their only fixed point in [a_0, 1] is 1);
    both classifications are exact rational arithmetic.  At exact
    criticality the fixed-point iteration slows to steps of order 1/n^2
    and would exhaust any fixed budget, so this shortcut is what keeps
    the closed forms total.  The remaining (supercritical) case iterates
    in floats; when a nearby small-denominator rational is verified to be
    an exact fixed point it is returned (p - id is convex, so [0, 1) holds
    at most one fixed point and the snap is unambiguous), otherwise the
    float converts without rounding (floats are dyadic), clamped into
    [0, 1] so endpoint rounding can never push a coefficient negative.
    """
    if p.shift >= 1:
        return Fraction(0)
    if p.mean_exponent <= 1:
        return Fraction(1)
    approx = Fraction(extinction_value(p))
    candidate = approx.limit_denominator(EXTINCTION_SNAP_DENOMINATOR)
    if candidate < 1 and p.evaluate(candidate) == candidate:
        return candidate
    return min(max(approx, Fraction(0)), Fraction(1))


def regularity_mod_m(p: ProbPoly, m: int) -> ModMReport:
    """Decide lim p^[n](t mod t^m - 1) and build the closed forms.

    The limit exists iff all cosets residues[i] + G coincide; it is then
    delta_{t^(m_0)} * c_G + (delta_e - c_G) * a.  Otherwise the distinct
    coset points form the accumulation set, one per subsequence class.
    The Cesaro point is the mean of the d class points.
    """
    if p.is_pure_power:
        raise PurePowerError("pure powers follow the support rotation only; "
                             "use the pure-power prediction path")
    sub = series_group(p, m)
    group = sub.group
    cycle = residue_cycle(p.shift, m)
    members = set(sub.members)
    base = cycle.residues[0]
    exists = all((res - base) % m in members for res in cycle.residues)
    a = extinction_fraction(p)
    size = len(sub.members)
    points = []
    for res in cycle.residues:
        coeffs = [Fraction(0)] * m
        for g in sub.members:
            coeffs[(res + g) % m] += Fraction(1, size)
        extinction_correction(coeffs, group.identity, sub.members, a)
        points.append(SimplexPoint(group=group, coeffs=tuple(coeffs)))
    distinct = {pt.coeffs: pt for pt in points}
    accumulation = AccumulationSet(points=tuple(distinct.values()),
                                   source="closed_form")
    # Repeated cosets keep their multiplicity: the average weights each
    # subsequence class equally, not each distinct limit point.
    d = cycle.d
    cesaro = SimplexPoint(group=group, coeffs=tuple(
        sum(col) / d for col in zip(*(pt.coeffs for pt in points))))
    return ModMReport(m=m, series_group=sub, cycle=cycle, exists=exists,
                      limit=points[0] if exists else None,
                      accumulation=accumulation, cesaro=cesaro, a=a)


