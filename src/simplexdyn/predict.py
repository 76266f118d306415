"""Closed-form limit prediction for series iteration on a group simplex.

analyze(p, x) makes one pass for a series p and a starting point x:

1. reduce x along x -> x * c_x until the return time is stable; call the
   stabilized point y, profile it once and let m be its period.
2. solve the same series once on the cyclic quotient Z_m, where the
   limit coefficient at residue r is exactly the scalar limit
   L_r = lim_n sum_k a^[n]_{k m + r}; the same solve yields the exact
   extinction value a, every accumulation point and the Cesaro point
   (the mean of the d subsequence-class points).
3. pull every quotient answer back to the group in one walk of the
   chain c_y * y^r, r < m, adding each step into a running sum per
   answer: c_y * sum_r y^r L_r + (e - c_y) * a.

dynamics.cycle_points is the one walker of that chain; the pure-power
report indexes the same walk by cycle residue.

The last term vanishes identically when c_y is the point mass at the
identity, so one formula covers both branches.  The limit, when it
exists, is the single accumulation point.  Divergence is decided by the
exact coset criterion on the quotient, never by failed numerics; a
float-iteration oracle is provided separately for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import (ITERATION_SLACK_RATE, ApproxElement, SimplexPoint,
                      element_to_map)
from .dynamics import (AccumulationSet, DynamicsProfile, cycle_points, profile,
                       reduce_to_stable)
from .errors import InternalConsistencyError, PurePowerError
from .modm import (ModMReport, extinction_correction, regularity_mod_m,
                   residue_cycle)
from .series import ProbPoly

REGULAR_HORIZON = 500
CESARO_HORIZON = 2000
SCALAR_SUM_TOL = 1e-10


@dataclass(frozen=True)
class LimitReport:
    """Everything the closed forms say about lim p^[n](x).

    scalar_limits holds the per-residue mass limits L_0 .. L_{m-1} (the
    Cesaro versions for a Cesaro report); they are present only when the
    reported limit exists.
    """

    digest: dict
    profile: DynamicsProfile
    reduction_steps: int
    exists: bool
    limit: SimplexPoint | None
    accumulation: AccumulationSet
    cesaro: SimplexPoint
    a: float
    scalar_limits: tuple[float, ...] | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.exists != (self.limit is not None):
            raise ValueError("limit must be present exactly when exists is true")
        if self.scalar_limits is not None:
            total = sum(self.scalar_limits)
            if abs(total - 1.0) > SCALAR_SUM_TOL:
                raise ValueError(f"scalar limits sum to {total}, not 1")


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
    exactly, where y is the point prof describes.

    One walk of the chain c_y * y^r, r < m, adds each step into the
    running sum of every quotient point that weights it, so no chain
    point outlives its step.
    """
    group = prof.point.group
    sums = [[Fraction(0)] * group.order for _ in quotients]
    for r, cur in enumerate(cycle_points(prof)):
        terms = [(g, c) for g, c in enumerate(cur.coeffs) if c]
        for L, acc in zip(quotients, sums):
            if L[r]:
                for g, c in terms:
                    acc[g] += L[r] * c
    members = prof.support_group.members
    try:
        return [SimplexPoint(group=group, coeffs=tuple(
                    extinction_correction(acc, group.identity, members, a)))
                for acc in sums]
    except ValueError as exc:
        raise InternalConsistencyError(
            f"synthesized limit left the simplex: {exc}") from exc


def _diagnostics(rep: ModMReport, horizon: int) -> dict:
    return {
        "quotient_modulus": rep.m,
        "cycle_preperiod": rep.cycle.preperiod,
        "cycle_d": rep.cycle.d,
        "cycle_residues": list(rep.cycle.residues),
        "extinction_value": float(rep.a),
        "oracle_horizon": horizon,
    }


def analyze(p: ProbPoly, x: SimplexPoint) -> tuple[LimitReport, LimitReport]:
    """The regular and the Cesaro report of lim p^[n](x), from one pass.

    The regular verdict comes from the exact coset criterion on the
    cyclic quotient of the stabilized point; its accumulation set lists
    the distinct subsequential limits either way.  The Cesaro limit
    exists for every series and every x.
    """
    if p.is_pure_power:
        raise PurePowerError(
            "pure powers t^r follow the support rotation alone; "
            "use pure_power_report")
    y, steps = reduce_to_stable(x)
    prof = profile(y)
    rep = regularity_mod_m(p, prof.period)
    *points, cesaro = _synthesize(
        prof, [pt.coeffs for pt in rep.accumulation.points] + [rep.cesaro.coeffs],
        rep.a)
    shared = {"digest": _digest(str(p), x), "profile": prof,
              "reduction_steps": steps, "cesaro": cesaro, "a": float(rep.a)}
    regular = LimitReport(
        **shared,
        exists=rep.exists,
        limit=points[0] if rep.exists else None,
        accumulation=AccumulationSet(points=tuple(points), source="closed_form"),
        scalar_limits=(tuple(float(c) for c in rep.limit.coeffs)
                       if rep.exists else None),
        diagnostics=_diagnostics(rep, REGULAR_HORIZON),
    )
    ces = LimitReport(
        **shared,
        exists=True,
        limit=cesaro,
        accumulation=AccumulationSet(points=(cesaro,), source="closed_form"),
        scalar_limits=tuple(float(c) for c in rep.cesaro.coeffs),
        diagnostics=_diagnostics(rep, CESARO_HORIZON),
    )
    return regular, ces


def regular_limit(p: ProbPoly, x: SimplexPoint) -> LimitReport:
    """Decide lim_n p^[n](x) and produce its closed form when it exists."""
    return analyze(p, x)[0]


def cesaro_limit(p: ProbPoly, x: SimplexPoint) -> LimitReport:
    """Cesaro limit of p^[n](x); exists for every series and every x."""
    return analyze(p, x)[1]


def pure_power_report(r: int, x: SimplexPoint,
                      prof: DynamicsProfile | None = None,
                      chain: Sequence[SimplexPoint] | None = None) -> LimitReport:
    """Accumulation set of x^(r^n): {c_x * x^(m_i)} over the cycle of
    r^n mod m_x, with the divisibility test for it being a singleton.

    prof, the profile of x, and chain, its cycle_points, are computed
    here unless a caller that already holds them passes them in.  The
    singleton criterion (m_x divides r^k (r - 1) for some k <= m_x) is
    evaluated independently and must agree with d = 1.
    """
    if r < 2:
        raise ValueError(f"pure-power exponent must be >= 2, got {r}")
    if prof is None:
        prof = profile(x)
    if chain is None:
        chain = list(cycle_points(prof))
    m = prof.period
    cycle = residue_cycle(r, m)
    points = tuple(chain[res] for res in cycle.residues)
    divisible = any(r ** k * (r - 1) % m == 0 for k in range(m + 1))
    if divisible != (cycle.d == 1):
        raise InternalConsistencyError(
            f"divisibility test ({divisible}) disagrees with cycle length "
            f"d={cycle.d} for r={r}, m={m}")
    d = cycle.d
    coeffs = [sum(pt.coeffs[g] for pt in points) / d
              for g in range(x.group.order)]
    cesaro = SimplexPoint(group=x.group, coeffs=tuple(coeffs))
    exists = d == 1
    return LimitReport(
        digest=_digest(f"pure-power:{r}", x),
        profile=prof,
        reduction_steps=0,
        exists=exists,
        limit=points[0] if exists else None,
        accumulation=AccumulationSet(points=points, source="closed_form"),
        cesaro=cesaro,
        a=0.0,
        scalar_limits=None,
        diagnostics={
            "cycle_preperiod": cycle.preperiod,
            "cycle_d": d,
            "cycle_residues": list(cycle.residues),
            "divisibility_singleton": divisible,
        },
    )


def iterate_map(p: ProbPoly, x: SimplexPoint, n: int) -> list[ApproxElement]:
    """Float oracle trace p^[1](x) .. p^[n](x); accepts pure powers too."""
    terms = [(e, float(c)) for e, c in p.terms]
    return algebra.series_trace(x.group, terms, algebra.float_coeffs(x), n)


def empirical_cesaro(trace: list[ApproxElement], burn_in: int) -> ApproxElement:
    """Average of an oracle trace of n steps over steps burn_in+1 .. n.

    A burn-in window discards the transient; choosing the window length
    as a multiple of the cycle length d balances the subsequence classes
    exactly, which the plain from-the-start average cannot do at any
    horizon reachable in tests.
    """
    n = len(trace)
    if not 0 <= burn_in < n:
        raise ValueError(f"need 0 <= burn_in < n, got {burn_in}, {n}")
    window = np.mean([t.coeffs for t in trace[burn_in:]], axis=0)
    return ApproxElement(group=trace[0].group, coeffs=window,
                         slack=ITERATION_SLACK_RATE * n)
