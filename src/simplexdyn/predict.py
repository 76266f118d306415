"""Closed-form limit prediction for series iteration on a group simplex.

analyze(p, profile(x)) makes one pass for a series p and a starting
point x:

1. follow the profile's absorption steps x -> x * c_x until the return
   time is stable; call the stabilized point y and let m be its period.
   Each point on the way is profiled once.
2. solve the same series once on the cyclic quotient Z_m, where the
   limit coefficient at residue r is exactly the scalar limit
   L_r = lim_n sum_k a^[n]_{k m + r}; the same solve yields the exact
   extinction value a, every accumulation point and the Cesaro point
   (the mean of the d subsequence-class points).
3. pull every quotient answer back to the group from the chain
   c_y * y^r, r < m (the profile's cycle, walked once per point),
   adding each point into a running sum per answer:
   c_y * sum_r y^r L_r + (e - c_y) * a.

The last term vanishes identically when c_y is the point mass at the
identity, so one formula covers both branches.  The limit, when it
exists, is the single accumulation point.  Divergence is decided by the
exact coset criterion on the quotient, never by failed numerics; a
float-iteration oracle is provided separately for cross-checking.  The
pure-power report indexes the same cycle by residue.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import numpy as np

from . import algebra
from .algebra import (ITERATION_SLACK_RATE, ApproxElement, OrbitTrace,
                      SimplexPoint, element_to_map)
from .dynamics import (AccumulationSet, DynamicsProfile, profile,
                       reduce_to_stable)
from .errors import InternalConsistencyError, PurePowerError
from .modm import (ModMReport, extinction_correction, regularity_mod_m,
                   residue_cycle)
from .record import Record
from .series import ProbPoly, _int_dtype, _numerators

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
        self._set(digest=digest, profile=profile, reduction_steps=reduction_steps,
                  exists=exists, limit=limit, accumulation=accumulation,
                  cesaro=cesaro, a=a, scalar_limits=scalar_limits,
                  diagnostics=diagnostics)


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

    On integers: the quotient points give the rows w of W, numerators
    over one common denominator, the chain c_y * y^r, r < m (prof.cycle)
    the rows of U over another, and every sum is one vector-matrix
    product w @ U, in int64 unless a sum of m products could overflow it.
    """
    group = prof.point.group
    chain = [pt.numerators for pt in prof.cycle]
    weights = [_numerators(L) for L in quotients]
    den_u = math.lcm(*(d for _, _, d in chain))
    den_w = math.lcm(*(d for _, _, d in weights))
    u_rows = [(s, [k * (den_u // d) for k in u]) for s, u, d in chain]
    w_rows = [(s, [k * (den_w // d) for k in w]) for s, w, d in weights]
    dtype = _int_dtype(max(abs(k) for _, w in w_rows for k in w),
                       max(abs(k) for _, u in u_rows for k in u), len(chain))
    u_mat = _dense(u_rows, group.order, dtype)
    den, zero = den_w * den_u, Fraction(0)
    members = prof.support_group.members
    try:
        return [SimplexPoint(group=group, coeffs=tuple(extinction_correction(
                    [Fraction(k, den) if k else zero for k in (w @ u_mat).tolist()],
                    group.identity, members, a)))
                for w in _dense(w_rows, len(chain), dtype)]
    except ValueError as exc:
        raise InternalConsistencyError(
            f"synthesized limit left the simplex: {exc}") from exc


def _dense(rows: list[tuple[np.ndarray, list[int]]], width: int, dtype) -> np.ndarray:
    """The matrix whose row i holds the values rows[i][1] at the indices
    rows[i][0] and zeros elsewhere."""
    out = np.zeros((len(rows), width), dtype=dtype)
    for i, (index, values) in enumerate(rows):
        out[i, index] = values
    return out


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
    stable, steps = reduce_to_stable(prof)
    rep = regularity_mod_m(p, stable.period)
    *points, cesaro = _synthesize(
        stable, [pt.coeffs for pt in rep.accumulation.points] + [rep.cesaro.coeffs],
        rep.a)
    shared = {"digest": _digest(str(p), prof.point), "profile": stable,
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
    return analyze(p, profile(x))[0]


def cesaro_limit(p: ProbPoly, x: SimplexPoint) -> LimitReport:
    """Cesaro limit of p^[n](x); exists for every series and every x."""
    return analyze(p, profile(x))[1]


def pure_power_report(r: int, prof: DynamicsProfile) -> LimitReport:
    """Accumulation set of x^(r^n): {c_x * x^(m_i)} over the cycle of
    r^n mod m_x, with the divisibility test for it being a singleton,
    where x is the point prof describes.

    The points are read from prof.cycle.  The singleton criterion (m_x
    divides r^k (r - 1) for some k <= m_x) is evaluated independently
    and must agree with d = 1.
    """
    if r < 2:
        raise ValueError(f"pure-power exponent must be >= 2, got {r}")
    x = prof.point
    m = prof.period
    cycle = residue_cycle(r, m)
    points = tuple(prof.cycle[res] for res in cycle.residues)
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


def iterate_map(p: ProbPoly, x: SimplexPoint, n: int) -> OrbitTrace:
    """Float oracle trace p^[1](x) .. p^[n](x); accepts pure powers too.

    A read-only view of n steps over the orbit's distinct states
    (algebra.series_trace)."""
    terms = [(e, float(c)) for e, c in p.terms]
    return algebra.series_trace(x.group, terms, algebra.float_coeffs(x), n)


def empirical_cesaro(trace: OrbitTrace, burn_in: int) -> ApproxElement:
    """Average of an oracle trace of n steps over steps burn_in+1 .. n.

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
    total = next(window).coeffs.copy()
    for y in window:
        total += y.coeffs
    return ApproxElement(group=trace[0].group, coeffs=total / (n - burn_in),
                         slack=ITERATION_SLACK_RATE * n)
