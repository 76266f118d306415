"""The float oracles and the commands that run them, limit-set, iterate,
cesaro and verify: cli imports this module for those commands only."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .cli import (EXIT_INCONCLUSIVE, EXIT_OK, EXIT_VERIFY_FAILED, _decimal_map, _emit,
                  _emit_csv, _emit_json, _json_rows, _point_record, _report_record)
from .config import ConfigError, ExperimentConfig
from .errors import InconclusiveError

if TYPE_CHECKING:
    from .dynamics import AccumulationSet
    from .predict import LimitReport

# The exit code of each oracle verdict.  The codes rise with severity, so
# the worst of several verdicts is the one with the largest code.
_EXIT_CODES = {"pass": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE,
               "fail": EXIT_VERIFY_FAILED}

REGULAR_ORACLE_TOL = 1e-7
CESARO_ORACLE_TOL = 1e-4


def _cesaro_burn_in(horizon: int, d: int) -> int:
    """Burn-in that leaves the largest whole number of d-cycles within
    the second half of the horizon (at least one cycle, if it holds one)."""
    window = max(d, (horizon // 2 // d) * d)
    return max(0, horizon - window)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _check(name: str, status: str, detail: str) -> dict:
    """One verify line: a check's name, verdict and detail."""
    return {"name": name, "status": status, "detail": detail}


def _power_rows(x):
    """The float power cycle of x (dynamics.empirical_limit_set), or the
    InconclusiveError it raised."""
    from .dynamics import empirical_limit_set

    try:
        return empirical_limit_set(x)
    except InconclusiveError as exc:
        return exc


def _power_oracle(closed: AccumulationSet, rows, r: int | None = None) -> tuple:
    """The float power cycle rows of x (_power_rows) against a closed set
    within DEFAULT_MATCH_TOL: (verdict, detail).

    For the powers of x (r None), row k must match closed.points[k].  For
    x -> x^r, the rows at the oracle's own residues r^n mod m, m <= n < 2m
    with m = len(rows), must match the closed set, each point a distinct
    row.  Rows lie on disjoint cosets, at least 1/|G| apart, so the row
    nearest a point at its largest coordinate is the only candidate.
    """
    from .algebra import sup_distance
    from .dynamics import DEFAULT_MATCH_TOL

    if isinstance(rows, InconclusiveError):
        return "inconclusive", str(rows)
    points = closed.points
    if r is None:
        picked, near = rows, range(len(points))
    else:
        m = len(rows)
        picked = np.array([rows[k] for k in sorted({pow(r, n, m) for n in range(m, 2 * m)})])
        peaks = [int(np.argmax(q.floats)) for q in points]
        near = [int(np.argmin(np.abs(picked[:, g] - q.floats[g]))) for g, q in zip(peaks, points)]
    ok = len(set(near)) == len(points) == len(picked) and all(
        sup_distance(picked[j], q) <= DEFAULT_MATCH_TOL for j, q in zip(near, points))
    return _verdict(ok), f"{len(picked)} empirical clusters"


def _cesaro_oracle(cfg: ExperimentConfig, p, x, rep: LimitReport) -> tuple:
    """The mean of the float orbit p^[n](x), n the Cesaro horizon, over its
    last whole cycles against rep's Cesaro limit: (verdict, detail, a dict
    of the orbit, the burn-in, the mean and its sup deviation).  The
    verdict is inconclusive when the window starts inside the preperiod or
    holds fewer than d steps, as its steps then miss some class."""
    from .algebra import sup_distance
    from .predict import CESARO_HORIZON, empirical_cesaro, iterate_map

    trace = iterate_map(p, x, cfg.horizon or CESARO_HORIZON)
    n = len(trace)
    d, pre = rep.diagnostics["cycle_d"], rep.diagnostics["cycle_preperiod"]
    burn_in = _cesaro_burn_in(n, d)
    avg = empirical_cesaro(trace, burn_in)
    dev = sup_distance(avg, rep.cesaro)
    evidence = {"trace": trace, "burn_in": burn_in, "average": avg, "deviation": dev}
    if burn_in < pre or n - burn_in < d:
        return "inconclusive", (f"{d} subsequence classes need a window of whole "
                                f"cycles past preperiod {pre}, got steps "
                                f"{burn_in + 1}..{n}"), evidence
    return _verdict(dev <= CESARO_ORACLE_TOL), f"sup deviation {dev:.2e}", evidence


def _regular_oracle(cfg: ExperimentConfig, trace, reg: LimitReport) -> tuple:
    """The float orbit at the regular horizon against reg's limit, or its
    last d steps against reg's accumulation set, where each step must lie
    within REGULAR_ORACLE_TOL of its nearest point and every point must be
    the nearest of some step: (verdict, detail).

    After the preperiod pre, step n belongs to subsequence class
    (n - pre - 1) % d, so d consecutive steps past pre hold the last step
    of each class by the horizon; the verdict is inconclusive when they
    do not all lie past pre."""
    from .algebra import sup_distance
    from .predict import REGULAR_HORIZON

    horizon = cfg.horizon or REGULAR_HORIZON
    if reg.exists:
        dev = sup_distance(trace[horizon - 1], reg.limit)
        return _verdict(dev <= REGULAR_ORACLE_TOL), f"sup deviation {dev:.2e}"
    d = reg.diagnostics["cycle_d"]
    pre = reg.diagnostics["cycle_preperiod"]
    if horizon - d + 1 <= pre:
        return "inconclusive", (f"{d} subsequence classes need horizon {pre + d} "
                                f"for a step each, got {horizon}")
    points = reg.accumulation.points
    dists = [[sup_distance(trace[n - 1], q) for q in points]
             for n in range(horizon - d + 1, horizon + 1)]
    ok = (all(min(row) <= REGULAR_ORACLE_TOL for row in dists)
          and len({row.index(min(row)) for row in dists}) == len(points))
    return _verdict(ok), f"{d} subsequence classes vs {len(points)} points"


def cmd_limit_set(cfg: ExperimentConfig, args) -> int:
    from .dynamics import limit_set, profile

    x = cfg.require_element()
    closed = limit_set(profile(x))
    rows = _power_rows(x)
    status, detail = _power_oracle(closed, rows)
    record = partial(_point_record, x.group.labels)
    payload = {"closed_form": [record(pt) for pt in closed.points]}
    if status == "inconclusive":
        payload.update(status=status, detail=detail)
    else:
        payload.update(empirical=[record(vec) for vec in rows],
                       matched=status == "pass",
                       status="ok" if status == "pass" else "mismatch")
    _emit_json(args, payload)
    return _EXIT_CODES[status]


def cmd_iterate(cfg: ExperimentConfig, args) -> int:
    from .algebra import sup_distance
    from .predict import REGULAR_HORIZON, iterate_map

    x = cfg.require_element()
    p = cfg.require_series()
    trace = iterate_map(p, x, cfg.horizon or REGULAR_HORIZON)

    def rows():
        prev = x
        for k, t in enumerate(trace, start=1):
            yield k, t, sup_distance(t, prev)
            prev = t

    if args.format == "json":
        _emit(args, _json_rows("trace", (
            {"step": k, "coeffs": _decimal_map(x.group.labels, t), "sup_delta": delta}
            for k, t, delta in rows())))
    else:
        _emit_csv(args, ["step", *x.group.labels, "sup_delta"],
                  ([k, *map(repr, t.tolist()), repr(delta)]
                   for k, t, delta in rows()))
    return EXIT_OK


def cmd_cesaro(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile
    from .predict import analyze

    x = cfg.require_element()
    p = cfg.require_series()
    if p.is_pure_power:
        raise ConfigError("series: the Cesaro oracle needs at least two terms; "
                          "`predict` reports the Cesaro point of a pure power")
    _, rep = analyze(p, profile(x))
    _, _, evidence = _cesaro_oracle(cfg, p, x, rep)
    _emit_json(args, {
        "report": _report_record(rep),
        "empirical": _decimal_map(x.group.labels, evidence["average"]),
        "sup_distance": evidence["deviation"],
        "horizon": len(evidence["trace"]),
        "burn_in": evidence["burn_in"],
    })
    return EXIT_OK


def _verify_checks(cfg: ExperimentConfig) -> list[dict]:
    from .algebra import multiply, support
    from .dynamics import AccumulationSet, power_rank, profile
    from .predict import analyze, pure_power_report
    from .series import compose, initial_state, recursion_coeffs

    x = cfg.require_element()
    prof = profile(x)
    c = prof.idempotent
    prof_y = profile(multiply(x, c))
    closed = AccumulationSet(prof.cycle)
    # x * c is uniform on the coset s H (DynamicsProfile.cosets).
    reduction = (prof_y.point == closed.points[1 % prof.period]
                 and prof_y.return_time <= prof.period <= prof.return_time)
    if prof_y.return_time == prof.return_time:
        reduction = reduction and prof.return_time == prof.period == prof_y.period
    inside = all(i in prof.support_group for i in support(x).members)
    checks = [_check(name, _verdict(ok), detail) for name, ok, detail in (
        # prof_y.point is x * c: c * x == x * c is limit_set's commutation check.
        ("profile-consistency",
         prof.return_time % prof.period == 0 and multiply(c, c) == c
         and multiply(c, x) == prof_y.point,
         f"return_time={prof.return_time} period={prof.period}"),
        ("power-independence", power_rank(prof) == prof.return_time,
         f"rank of {prof.return_time} power vectors"),
        ("limit-cycle-wraps", multiply(closed.points[-1], x) == closed.points[0],
         f"{len(closed)} points on the cycle"),
        ("reduction-inequalities", reduction,
         f"absorbed return_time={prof_y.return_time}"),
        ("singleton-criterion", (len(closed) == 1) == inside,
         f"support inside group: {inside}"))]
    rows = _power_rows(x)
    checks.append(_check("limit-set-oracle", *_power_oracle(closed, rows)))

    p = cfg.series
    if p is None:
        return checks
    if p.is_pure_power:
        if p.shift < 2:
            raise ConfigError(
                f"series: pure-power verification needs exponent >= 2, got {p.shift}")
        rep = pure_power_report(p.shift, prof)
        checks.append(_check("power-accumulation-oracle",
                             *_power_oracle(rep.accumulation, rows, p.shift)))
        return checks
    reg, ces = analyze(p, prof)
    if p.shift == 0 and p.mean_exponent == 1:
        checks += [
            _check("regular-oracle", "inconclusive",
                   "mean exponent is exactly 1; iterates approach the "
                   "limit at rate 1/n, beyond any fixed float horizon"),
            _check("cesaro-oracle", "inconclusive",
                   "averages of a 1/n-converging trace need horizons "
                   "beyond the float budget")]
    else:
        status, detail, evidence = _cesaro_oracle(cfg, p, x, ces)
        trace = evidence["trace"]  # never shorter than the regular horizon
        checks += [_check("regular-oracle", *_regular_oracle(cfg, trace, reg)),
                   _check("cesaro-oracle", status, detail)]

    # Kept coefficients are exact at any truncation (series module doc), so
    # K = 8 checks the same coefficients k <= 8 as a larger K would.
    st, ok = initial_state(p, max(p.degree, 8), mode="exact"), True
    for _ in range(2):
        nxt = compose(p, st)
        ok = ok and all(recursion_coeffs(p, st, k) == nxt.coeffs[k] for k in range(9))
        st = nxt
    checks.append(_check("scalar-recursion", _verdict(ok),
                         "composition vs derivative recursion, exact"))
    return checks


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    checks = _verify_checks(cfg)
    overall = max((c["status"] for c in checks), key=_EXIT_CODES.__getitem__)
    if args.format == "json":
        _emit_json(args, {"checks": checks, "status": overall})
    else:
        _emit(args, (f"{c['status'].upper()} {c['name']}"
                     + (f" ({c['detail']})" if c["detail"] else "") + "\n"
                     for c in checks))
    return _EXIT_CODES[overall]


