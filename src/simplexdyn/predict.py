"""Closed-form limit prediction for series iteration on a group simplex.

analyze(p, profile(x)) makes one pass for a series p and a starting
point x:

1. reduce x to its stable point y: x itself when its return time is its
   period m, else x * c_x, the uniform point on the coset s H of Supp(x)
   (reduce_to_stable).  y has the period m, the support group H, the
   idempotent c_y = c_x and the cosets of x, so x is profiled once and
   no product is made.
2. solve the same series once on the cyclic quotient Z_m, where the
   limit coefficient at residue r is exactly the scalar limit
   L_r = lim_n sum_k a^[n]_{k m + r}; the same solve yields the exact
   extinction value a, every accumulation point and the Cesaro point
   (the mean of the d subsequence-class points).
3. pull every quotient answer back to the group along the chain
   c_y * y^r, r < m, to c_y * sum_r y^r L_r + (e - c_y) * a.  Each
   c_y * y^r is uniform on the coset prof.cosets[r] of the support
   group, so this writes one share L_r / |H| per coset, with no product.

The last term vanishes identically when c_y is the point mass at the
identity, so one formula covers both branches.  The limit, when it
exists, is the single accumulation point.  Divergence is decided by the
exact coset criterion on the quotient, never by failed numerics; a
float-iteration oracle is provided separately for cross-checking.  The
pure-power report of t^r makes steps 2 and 3 and reports the unreduced
profile: on Z_m its cosets are single residues and a = 0, so its points
are entries of the profile's cycle, each uniform on one coset.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import numpy as np

from . import algebra
from .algebra import (ITERATION_SLACK_RATE, OrbitTrace, SimplexPoint,
                      element_to_map)
from .dynamics import (AccumulationSet, DynamicsProfile, profile,
                       reduce_to_stable)
from .errors import InternalConsistencyError, PurePowerError
from .modm import ModMReport, extinction_correction, regularity_mod_m
from .record import Record
from .poly import ProbPoly, _numerators

REGULAR_HORIZON = 500
CESARO_HORIZON = 2000
SCALAR_SUM_TOL = 1e-10


class LimitReport(Record):
    """Everything the closed forms say about lim p^[n](x).

    scalar_limits holds the per-residue mass limits L_0 .. L_{m-1} (the
    Cesaro versions for a Cesaro report); they are present only when the
    reported limit exists.
    """

    _fields = ("digest", "profile", "reduction_steps", "exists", "limit",
               "accumulation", "cesaro", "a", "scalar_limits", "diagnostics")

    def __init__(self, digest: dict, profile: DynamicsProfile, reduction_steps: int,
                 exists: bool, limit: SimplexPoint | None,
                 accumulation: AccumulationSet, cesaro: SimplexPoint, a: float,
                 scalar_limits: tuple[float, ...] | None, diagnostics: dict) -> None:
        if exists != (limit is not None):
            raise ValueError("limit must be present exactly when exists is true")
        if scalar_limits is not None:
            total = sum(scalar_limits)
            if abs(total - 1.0) > SCALAR_SUM_TOL:
                raise ValueError(f"scalar limits sum to {total}, not 1")
        self._set(digest, profile, reduction_steps, exists, limit, accumulation, cesaro,
                  a, scalar_limits, diagnostics)


def _digest(series_label: str, x: SimplexPoint) -> dict:
    return {
        "group_order": x.group.order,
        "element": element_to_map(x),
        "series": series_label,
    }


def _synthesize(prof: DynamicsProfile,
                quotients: list[tuple[Fraction, ...]],
                a: Fraction) -> list[SimplexPoint]:
    """c_y * sum_r y^r * L_r + (e - c_y) * a for every L in quotients,
    exactly, where y is the point prof describes.  c_y * y^r is uniform
    on the coset prof.cosets[r] of the support group H, and the cosets
    are disjoint, so the sum puts L_r / |H| on each member of row r, and
    each point is built from H and its rows of nonzero share alone."""
    group = prof.point.group
    members = prof.support_group.members
    rows = prof.cosets.tolist()
    points = []
    for L in quotients:
        coeffs = dict.fromkeys(members, Fraction(0))
        for row, share in zip(rows, L):
            if share:
                coeffs.update(dict.fromkeys(row, share / len(members)))
        extinction_correction(coeffs, group.identity, members, a)
        try:
            points.append(SimplexPoint._of(group, *_numerators(sorted(coeffs.items()))))
        except ValueError as exc:
            raise InternalConsistencyError(
                f"synthesized limit left the simplex: {exc}") from exc
    return points


def _diagnostics(rep: ModMReport, horizon: int) -> dict:
    return {
        "quotient_modulus": rep.m,
        "cycle_preperiod": rep.cycle.preperiod,
        "cycle_d": rep.cycle.d,
        "cycle_residues": list(rep.cycle.residues),
        "extinction_value": float(rep.a),
        "oracle_horizon": horizon,
    }


def analyze(p: ProbPoly, prof: DynamicsProfile) -> tuple[LimitReport, LimitReport]:
    """The regular and the Cesaro report of lim p^[n](x), from one pass,
    where x is the point prof describes.

    The regular verdict comes from the exact coset criterion on the
    cyclic quotient of the stabilized point; its accumulation set lists
    the distinct subsequential limits either way.  The Cesaro limit
    exists for every series and every x.
    """
    if p.is_pure_power:
        raise PurePowerError(
            "pure powers t^r follow the support rotation alone; "
            "use pure_power_report")
    # The stable point shares the period and cosets of x, so only the
    # printed profile and the step count come from it.
    stable, steps = reduce_to_stable(prof)
    rep = regularity_mod_m(p, prof.period)
    *points, cesaro = _synthesize(prof, [*rep.accumulation, rep.cesaro], rep.a)
    shared = {"digest": _digest(str(p), prof.point), "profile": stable,
              "reduction_steps": steps, "cesaro": cesaro, "a": float(rep.a)}
    regular = LimitReport(
        **shared,
        exists=rep.exists,
        limit=points[0] if rep.exists else None,
        accumulation=AccumulationSet(tuple(points)),
        scalar_limits=(tuple(map(float, rep.limit)) if rep.exists else None),
        diagnostics=_diagnostics(rep, REGULAR_HORIZON),
    )
    ces = LimitReport(
        **shared,
        exists=True,
        limit=cesaro,
        accumulation=AccumulationSet((cesaro,)),
        scalar_limits=tuple(map(float, rep.cesaro)),
        diagnostics=_diagnostics(rep, CESARO_HORIZON),
    )
    return regular, ces


def regular_limit(p: ProbPoly, x: SimplexPoint) -> LimitReport:
    """Decide lim_n p^[n](x) and produce its closed form when it exists."""
    return analyze(p, profile(x))[0]


def cesaro_limit(p: ProbPoly, x: SimplexPoint) -> LimitReport:
    """Cesaro limit of p^[n](x); exists for every series and every x."""
    return analyze(p, profile(x))[1]


def pure_power_report(r: int, prof: DynamicsProfile) -> LimitReport:
    """Accumulation set of x^(r^n): {c_x * x^(m_i)} over the cycle of
    r^n mod m_x, with the divisibility test for it being a singleton,
    where x is the point prof describes.

    The quotient solve of t^r on Z_(m_x) and the synthesis are those of
    analyze, on the unreduced profile.  The singleton criterion (m_x
    divides r^k (r - 1) for some k <= m_x) is evaluated independently
    and must agree with d = 1.
    """
    if r < 2:
        raise ValueError(f"pure-power exponent must be >= 2, got {r}")
    m = prof.period
    rep = regularity_mod_m(ProbPoly.pure_power(r), m)
    cycle = rep.cycle
    divisible = any(r ** k * (r - 1) % m == 0 for k in range(m + 1))
    if divisible != (cycle.d == 1):
        raise InternalConsistencyError(
            f"divisibility test ({divisible}) disagrees with cycle length "
            f"d={cycle.d} for r={r}, m={m}")
    *points, cesaro = _synthesize(prof, [*rep.accumulation, rep.cesaro], rep.a)
    return LimitReport(
        digest=_digest(f"pure-power:{r}", prof.point), profile=prof,
        reduction_steps=0, exists=rep.exists,
        limit=points[0] if rep.exists else None,
        accumulation=AccumulationSet(tuple(points)),
        cesaro=cesaro, a=float(rep.a), scalar_limits=None,
        diagnostics={"cycle_preperiod": cycle.preperiod, "cycle_d": cycle.d,
                     "cycle_residues": list(cycle.residues),
                     "divisibility_singleton": divisible},
    )


def iterate_map(p: ProbPoly, x: SimplexPoint, n: int) -> OrbitTrace:
    """Float oracle trace p^[1](x) .. p^[n](x); accepts pure powers too.

    A read-only view of n steps over the orbit's distinct states
    (algebra.series_trace)."""
    terms = [(e, float(c)) for e, c in p.terms]
    return algebra.series_trace(x.group, terms, x.floats, n)


def empirical_cesaro(trace: OrbitTrace, burn_in: int) -> np.ndarray:
    """Average of an oracle trace of n steps over steps burn_in+1 .. n, as
    a read-only float64 vector checked by algebra._float_point at slack
    ITERATION_SLACK_RATE * n.

    A burn-in window discards the transient; choosing the window length
    as a multiple of the cycle length d balances the subsequence classes
    exactly, which the plain from-the-start average cannot do at any
    horizon reachable in tests.

    The window is summed in step order into one running vector, so
    memory does not grow with the window.  numpy reduces axis 0 of a
    C-contiguous array row by row, so the result is the mean of the
    stacked window bit for bit.
    """
    n = len(trace)
    if not 0 <= burn_in < n:
        raise ValueError(f"need 0 <= burn_in < n, got {burn_in}, {n}")
    window = islice(trace, burn_in, None)
    total = next(window).copy()
    for y in window:
        total += y
    return algebra._float_point(total / (n - burn_in), ITERATION_SLACK_RATE * n)
