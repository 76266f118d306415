"""Dynamical invariants of convolution powers of a simplex point.

For x in the simplex of R[G] the power sequence x, x^2, x^3, ... does
not converge in general; it settles onto a finite cycle.  The three
integers and one idempotent computed here describe that cycle exactly:

  return_time    least k >= 1 with the identity in Supp(x^k)
  support_group  subgroup generated by Supp(x^{return_time})
  period         least k >= 1 with Supp(x^k) inside support_group;
                 always divides return_time
  idempotent     uniform distribution on support_group; commutes with x

The accumulation set of the powers is {idempotent * x^r : 0 <= r < period},
and idempotent * x^r is uniform on the coset s^r H of H = support_group,
for any s in Supp(x).  Every analysis of x takes the DynamicsProfile that
profile(x) returns; it lists those cosets (cosets) and builds the chain
from them with no product (cycle), once each, on first use.  The
absorption step x -> x * idempotent lands on the uniform point of the
coset s H, so reduce_to_stable reads it off the cosets too.
limit_set returns that set as an AccumulationSet of exact points.
empirical_limit_set recovers it from the floats of x and the group table
alone, never reading the profile: the period divides |G|, so the squares
of x^|G| settle on the idempotent, and the walk from there by x returns
to it after one period.  `limit-set` and `verify` compare its rows, in
class order, with the closed form within the fixed DEFAULT_MATCH_TOL.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from . import algebra
from .algebra import SimplexPoint, multiply, support, uniform_on
from .errors import InconclusiveError, InternalConsistencyError
from .groups import ElementSet, generated_subgroup
from .poly import _power_sum
from .record import Record

# No power oracle reads a horizon; bench/traced_cli.py imports this one.
DEFAULT_HORIZON = 600
# The sup distance within which empirical_limit_set's squares settle and its walk closes.
POWER_ORACLE_TOL = 1e-9
# Squarings of x^|G| before empirical_limit_set gives up.  (x^|G| - c)^(2^k)
# falls like lambda^(|G| 2^k), lambda the walk's largest eigenvalue modulus
# below 1.  A gap 1 - lambda below float64 resolution (2^-52) cannot show
# in the floats of x, and 64 squarings outrun any gap above it.
SQUARING_CAP = 64
DEFAULT_MATCH_TOL = 1e-8


class DynamicsProfile(Record):
    """The cycle invariants of the point x (see the module doc)."""

    _fields = ("return_time", "period", "support_group", "idempotent", "point")

    def __init__(self, return_time: int, period: int, support_group: ElementSet,
                 idempotent: SimplexPoint, point: SimplexPoint) -> None:
        if return_time % period:
            raise InternalConsistencyError(
                f"period {period} does not divide return time {return_time}")
        self._set(return_time=return_time, period=period,
                  support_group=support_group, idempotent=idempotent, point=point)

    def __repr__(self) -> str:
        return self._format(self._fields[:-1])  # the point itself stays out

    @cached_property
    def cosets(self) -> np.ndarray:
        """The period x |H| array of element indices whose row r is the
        coset s^r H of H = support_group, s the first element of Supp(x):
        idempotent * x^r is uniform on row r (Kawada and Ito 1940, finite
        case).  With n the return time and S = Supp(x), e is in S^n, inside
        H, so for s, s' in S and t in S^(n-1) both st and s't lie in H:
        s s'^-1 and likewise s^-1 s' are in H.  s S^n lies in S^(n+1),
        inside Hs, so s normalizes H, S lies in sH = Hs and S^r in s^r H.
        The rows are distinct, as the period is the least k with s^k in H.
        """
        g = self.point.group
        s = int(self.point.numerators[0][0])
        heads = [g.identity]
        for _ in range(1, self.period):
            heads.append(g.mul(heads[-1], s))
        rows = g.table[np.ix_(heads, self.support_group.members)]
        rows.setflags(write=False)
        return rows

    @cached_property
    def cycle(self) -> tuple[SimplexPoint, ...]:
        """idempotent * x^r for r = 0 .. period-1, uniform on cosets[r]."""
        return tuple(uniform_on(ElementSet(self.point.group, row))
                     for row in self.cosets.tolist())


class AccumulationSet(Record):
    """The closed-form limit points of an iteration: pairwise distinct
    exact elements, checked by hashing their numerators (support, u, D),
    which determine the exact coefficients.  The power oracle's rows are
    a plain tuple of vectors (empirical_limit_set).
    """

    _fields = ("points",)

    def __init__(self, points: tuple[SimplexPoint, ...]) -> None:
        first: dict[tuple, int] = {}
        for j, pt in enumerate(points):
            supp, u, den = pt.numerators
            i = first.setdefault((supp.tobytes(), u, den), j)
            if i != j:
                raise InternalConsistencyError(
                    f"accumulation points {i} and {j} coincide")
        self._set(points=points)

    def __len__(self) -> int:
        return len(self.points)


def _support_powers(x: SimplexPoint) -> list[frozenset[int]]:
    """Supports of x^1, x^2, ... up to the first power containing the identity.

    Supports of powers are built as elementwise product sets, which is
    exact for nonnegative coefficients: no cancellation can remove a
    product from the support.
    """
    g = x.group
    base = np.array(support(x).members)
    cur = frozenset(base.tolist())
    powers = [cur]
    for _ in range(g.order):
        if g.identity in cur:
            return powers
        cur = frozenset(g.table.take(list(cur), axis=0).take(base, axis=1).ravel().tolist())
        powers.append(cur)
    raise InternalConsistencyError(
        f"no power up to {g.order} has the identity in its support")


def profile(x: SimplexPoint) -> DynamicsProfile:
    """Compute the return time, support group, period and idempotent of x."""
    g = x.group
    powers = _support_powers(x)
    return_time = len(powers)
    subgroup = generated_subgroup(g, powers[-1])
    inside = subgroup._member_set
    period = next(k for k, supp in enumerate(powers, start=1) if supp <= inside)
    return DynamicsProfile(
        return_time=return_time,
        period=period,
        support_group=subgroup,
        idempotent=uniform_on(subgroup),
        point=x,
    )


def limit_set(prof: DynamicsProfile) -> AccumulationSet:
    """The exact accumulation set {idempotent * x^r : 0 <= r < period}.

    Also verifies that the idempotent commutes with x; the returned
    points are pairwise distinct.
    """
    c, x = prof.idempotent, prof.point
    if multiply(c, x) != multiply(x, c):
        raise InternalConsistencyError("idempotent fails to commute with x")
    return AccumulationSet(prof.cycle)


def empirical_limit_set(x: SimplexPoint) -> tuple[np.ndarray, ...]:
    """The float power cycle of x: read-only rows c * x^r, r = 0, 1, ..
    up to the period, in class order, c the idempotent.

    The period divides |G|, so x^|G| = c + E with cE = Ec = 0 and each
    squaring squares E (Knuth, TAOCP vol. 2, 4.6.3).  x^|G| comes by
    square-and-multiply, then squares, each divided by its mass, until
    two successive ones agree within POWER_ORACLE_TOL; the last is c.
    The walk c * x^r = x * (c * x^(r-1)) stops at its first return to c
    within that tolerance.  Every product is algebra._product.  Raises
    InconclusiveError when SQUARING_CAP squarings do not settle or the
    walk does not return within |G| steps.
    """
    g = x.group
    mul = partial(algebra._product, g)
    one = np.zeros(g.order)
    one[g.identity] = 1.0
    c = _power_sum(((g.order, 1.0),), one, x.floats, mul)
    for _ in range(SQUARING_CAP):
        prev, c = c, mul(c, c)
        c /= c.sum()
        if np.abs(c - prev).max() <= POWER_ORACLE_TOL:
            break
    else:
        raise InconclusiveError(
            f"the squares of x^{g.order} still move by more than {POWER_ORACLE_TOL:g} "
            f"after the cap of {SQUARING_CAP} squarings", iterations=SQUARING_CAP)
    c.setflags(write=False)
    rows = [c]
    for _ in range(g.order):
        row = mul(x.floats, rows[-1])
        if np.abs(row - c).max() <= POWER_ORACLE_TOL:
            return tuple(rows)
        row.setflags(write=False)
        rows.append(row)
    raise InconclusiveError(f"c * x^r did not return to c within {POWER_ORACLE_TOL:g} "
                            f"by r = {g.order}", iterations=g.order)


def exact_rank(rows: list[list]) -> int:
    """Row rank by Gaussian elimination over exact rationals."""
    rows = [list(row) for row in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / head[col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], head)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def power_rank(prof: DynamicsProfile) -> int:
    """Rank over the rationals of the vectors e, x, x^2, .., x^(n-1),
    where n is the return time.  These are always independent, so the
    value equals the return time; exposed for the verification suites."""
    x = prof.point
    rows = []
    cur = algebra.delta(x.group, x.group.identity)
    for k in range(prof.return_time):
        if k:
            cur = multiply(cur, x)
        rows.append(list(cur.coeffs))
    return exact_rank(rows)


def reduce_to_stable(prof: DynamicsProfile) -> tuple[DynamicsProfile, int]:
    """(stable, steps): the profile of the point where the absorption
    steps x -> x * idempotent stop lowering the return time, and the
    number of steps, 0 or 1.

    Supp(x) lies in the coset s H (see cosets), so x * idempotent is
    uniform on cosets[1 % period]: its return time and period are both
    the period of x, and it shares the support group and idempotent.
    """
    m = prof.period
    if prof.return_time == m:
        return prof, 0
    y = uniform_on(ElementSet(prof.point.group, prof.cosets[1 % m].tolist()))
    return DynamicsProfile(m, m, prof.support_group, prof.idempotent, y), 1
