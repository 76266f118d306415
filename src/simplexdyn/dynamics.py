"""Dynamical invariants of convolution powers of a simplex point.

For x in the simplex of R[G] the power sequence x, x^2, x^3, ... does
not converge in general; it settles onto a finite cycle.  The three
integers and one idempotent computed here describe that cycle exactly:

  return_time    least k >= 1 with the identity in Supp(x^k)
  support_group  subgroup generated by Supp(x^{return_time})
  period         least k >= 1 with Supp(x^k) inside support_group;
                 always divides return_time
  idempotent     uniform distribution on support_group; commutes with x

The accumulation set of the powers is {idempotent * x^r : 0 <= r < period}.
Every analysis of x takes the DynamicsProfile that profile(x) returns; it
walks that chain (cycle) and takes the absorption step x -> x * idempotent
(absorbed) once each, on first use.  empirical_limit_set recovers the set
from a float trace for cross-checking.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import algebra
from .algebra import (ITERATION_SLACK_RATE, ApproxElement, SimplexPoint, multiply,
                      support, uniform_on)
from .errors import InconclusiveError, InternalConsistencyError
from .groups import ElementSet, generated_subgroup
from .record import Record

DEFAULT_HORIZON = 600
MERGE_TOL = 1e-9
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
    def cycle(self) -> tuple[SimplexPoint, ...]:
        """idempotent * x^r for r = 0 .. period-1, one multiply per step."""
        points = [self.idempotent]
        for _ in range(1, self.period):
            points.append(multiply(points[-1], self.point))
        return tuple(points)

    @cached_property
    def absorbed(self) -> DynamicsProfile:
        """The profile of x * idempotent, x after one absorption step."""
        return profile(multiply(self.point, self.idempotent))


class AccumulationSet(Record):
    """Limit points of an iteration, exact (closed_form) or float (empirical).

    Closed-form points are pairwise distinct, checked by hashing their
    exact coefficients.
    """

    _fields = ("points", "source")

    def __init__(self, points: tuple, source: str) -> None:
        if source == "closed_form":
            first: dict[tuple, int] = {}
            for j, pt in enumerate(points):
                i = first.setdefault(pt.coeffs, j)
                if i != j:
                    raise InternalConsistencyError(
                        f"accumulation points {i} and {j} coincide")
        self._set(points=points, source=source)

    def __len__(self) -> int:
        return len(self.points)


def _support_powers(x: SimplexPoint) -> list[frozenset[int]]:
    """Supports of x^1, x^2, ... up to the first power containing the identity.

    Supports of powers are built as elementwise product sets, which is
    exact for nonnegative coefficients: no cancellation can remove a
    product from the support.
    """
    g = x.group
    base = support(x).members
    cur = frozenset(base)
    powers = [cur]
    for _ in range(g.order):
        if g.identity in cur:
            return powers
        cur = frozenset(g.table[np.ix_(list(cur), base)].ravel().tolist())
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
    return AccumulationSet(points=prof.cycle, source="closed_form")


def _within(rows: np.ndarray, among: np.ndarray, vec: np.ndarray,
            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The indices i in among, in order, with max_g |rows[i, g] - vec_g| <= tol,
    and those sup distances.

    A row within tol of vec is within tol of it at every coordinate, so
    only the rows within tol at one coordinate get compared in full.  The
    largest coordinate of vec is the one that sets apart sparse states,
    such as the point masses of a long cycle.
    """
    g = int(np.argmax(vec))
    among = among[np.abs(rows[among, g] - vec[g]) <= tol]
    dists = np.abs(rows[among] - vec).max(axis=1)
    return among[dists <= tol], dists[dists <= tol]


def empirical_limit_set(x: SimplexPoint,
                        horizon: int = DEFAULT_HORIZON) -> AccumulationSet:
    """Brute-force oracle: cluster the cycle that the float powers close.

    Multiplies out x, x^2, .. in floating point up to the first power
    that repeats an earlier one bit for bit (algebra._float_orbit).  The
    step is deterministic, so from there on the powers replay the states
    between the two occurrences forever: that cycle is the whole float
    orbit past its transient.  Its states are merged greedily, in order:
    a state within MERGE_TOL (sup distance) of an earlier cluster joins
    it, any other starts a new one.  If no power up to x^horizon repeats,
    raises InconclusiveError rather than returning a guess.
    """
    g = x.group
    right = algebra.float_coeffs(x)[g.conv_index]
    one = np.zeros(g.order)
    one[g.identity] = 1.0
    # states[k - 1] is x^k; from x^(j + 1) on the powers cycle through states[j:].
    states, j = algebra._float_orbit(lambda vec: vec @ right, one, horizon)
    if j == len(states):
        raise InconclusiveError(
            f"no power repeated an earlier one bit for bit by step {horizon} "
            f"({len(states)} distinct powers)", iterations=horizon)
    cycle = np.array(states[j:])
    reps: list[int] = []
    for i, vec in enumerate(cycle):
        if not len(_within(cycle, np.array(reps, dtype=int), vec, MERGE_TOL)[0]):
            reps.append(i)
    points = tuple(ApproxElement(g, cycle[i], slack=ITERATION_SLACK_RATE * (j + 1 + i))
                   for i in reps)
    return AccumulationSet(points=points, source="empirical")


def match_accumulation_sets(expected: AccumulationSet,
                            observed: AccumulationSet,
                            tol: float = DEFAULT_MATCH_TOL) -> bool:
    """Greedy nearest-neighbor matching of two accumulation sets.

    True when the sets have equal cardinality and each observed point,
    in order, is within tol (sup distance) of the nearest (first on a
    tie) expected point not matched yet.
    """
    if len(expected) != len(observed):
        return False
    rows = np.array([algebra.float_coeffs(q) for q in expected.points])
    remaining = np.arange(len(rows))
    for pt in observed.points:
        near, dists = _within(rows, remaining, algebra.float_coeffs(pt), tol)
        if not len(near):
            return False
        remaining = remaining[remaining != near[np.argmin(dists)]]
    return True


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
    """Follow the absorption steps x -> x * idempotent until the return
    time survives one more.

    Returns (stable, steps) where stable profiles a point y with
    return_time(y * idempotent(y)) = return_time(y).  Each step strictly
    lowers the return time, so at most |G| steps can occur; the cap
    raises InternalConsistencyError.
    """
    order = prof.point.group.order
    for steps in range(order + 1):
        nxt = prof.absorbed
        if nxt.return_time > prof.period:
            raise InternalConsistencyError(
                f"absorption raised the return time above the period "
                f"({nxt.return_time} > {prof.period})")
        if nxt.return_time == prof.return_time:
            return prof, steps
        prof = nxt
    raise InternalConsistencyError(
        f"absorption chain exceeded {order} steps without stabilizing")
