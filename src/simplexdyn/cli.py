"""Batch experiment runner.

Subcommands: profile | limit-set | predict | iterate | cesaro | scalar |
verify.  Each reads a JSON config (see config.py) naming a group, a
starting element and/or a series, runs the requested computation, and
writes JSON or CSV to --out or stdout.

Exit codes: 0 success, 1 invalid input, 2 inconclusive numerics
(iteration budget exhausted before the tolerance was met), 3
verification failure (an oracle contradicted a closed form).

main() is the process entry point.  Its first act is gc.freeze(): every
object alive by then, numpy and this package included, moves into the
collector's permanent generation, so neither the collections during the
command nor the full ones at interpreter exit traverse it again.  The
collector stays enabled; what the command itself allocates is collected
as usual.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys

from . import algebra, dynamics, series as scalar
from .algebra import ApproxElement, element_to_map, multiply, sup_distance
from .config import ConfigError, ExperimentConfig
from .dynamics import (DEFAULT_HORIZON, DEFAULT_MATCH_TOL, AccumulationSet,
                       empirical_limit_set, limit_set, match_accumulation_sets,
                       power_rank, profile)
from .errors import InconclusiveError, InternalConsistencyError
from .predict import (CESARO_HORIZON, REGULAR_HORIZON, LimitReport, analyze,
                      empirical_cesaro, iterate_map, pure_power_report)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAILED = 3

DEFAULT_SCALAR_HORIZON = 200
REGULAR_ORACLE_TOL = 1e-7
CESARO_ORACLE_TOL = 1e-4


def _decimal_map(x) -> dict:
    vec = algebra.float_coeffs(x)
    return {label: float(v) for label, v in zip(x.group.labels, vec) if v}


def _point_record(x) -> dict:
    if isinstance(x, ApproxElement):
        return {"decimal": _decimal_map(x)}
    return {"exact": element_to_map(x), "decimal": _decimal_map(x)}


def _profile_record(prof: dynamics.DynamicsProfile) -> dict:
    return {
        "return_time": prof.return_time,
        "period": prof.period,
        "support_group": list(prof.support_group.label_list()),
        "idempotent": element_to_map(prof.idempotent),
    }


def _report_record(rep: LimitReport) -> dict:
    return {
        "digest": rep.digest,
        "profile": _profile_record(rep.profile),
        "reduction_steps": rep.reduction_steps,
        "exists": rep.exists,
        "limit": _point_record(rep.limit) if rep.limit is not None else None,
        "accumulation": [_point_record(pt) for pt in rep.accumulation.points],
        "cesaro": _point_record(rep.cesaro),
        "a": rep.a,
        "scalar_limits": list(rep.scalar_limits) if rep.scalar_limits else None,
        "diagnostics": rep.diagnostics,
    }


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(args, header: list, rows: list) -> None:
    import csv as csv_mod
    buf = io.StringIO()
    writer = csv_mod.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(args, buf.getvalue())


def _cesaro_burn_in(horizon: int, d: int) -> int:
    """Burn-in that leaves the largest whole number of d-cycles within
    the second half of the horizon (at least one cycle)."""
    window = max(d, (horizon // 2 // d) * d)
    return max(0, horizon - window)


def cmd_profile(cfg: ExperimentConfig, args) -> int:
    prof = profile(cfg.require_element())
    _emit_json(args, _profile_record(prof))
    return EXIT_OK


def cmd_limit_set(cfg: ExperimentConfig, args) -> int:
    x = cfg.require_element()
    closed = limit_set(profile(x))
    payload = {"closed_form": [_point_record(pt) for pt in closed.points]}
    try:
        observed = empirical_limit_set(x, horizon=cfg.horizon or DEFAULT_HORIZON)
    except InconclusiveError as exc:
        payload["status"] = "inconclusive"
        payload["detail"] = str(exc)
        _emit_json(args, payload)
        return EXIT_INCONCLUSIVE
    matched = match_accumulation_sets(closed, observed,
                                      tol=cfg.tol or DEFAULT_MATCH_TOL)
    payload["empirical"] = [_point_record(pt) for pt in observed.points]
    payload["matched"] = matched
    payload["status"] = "ok" if matched else "mismatch"
    _emit_json(args, payload)
    return EXIT_OK if matched else EXIT_VERIFY_FAILED


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    x = cfg.require_element()
    p = cfg.require_series()
    if p.is_pure_power:
        r = p.shift
        if r < 2:
            raise ConfigError(
                f"series: pure-power prediction needs exponent >= 2, got {r}")
        rep = pure_power_report(r, profile(x))
        _emit_json(args, {"kind": "pure-power", "report": _report_record(rep)})
        return EXIT_OK
    regular, cesaro = analyze(p, profile(x))
    _emit_json(args, {
        "kind": "series",
        "regular": _report_record(regular),
        "cesaro": _report_record(cesaro),
    })
    return EXIT_OK


def cmd_iterate(cfg: ExperimentConfig, args) -> int:
    x = cfg.require_element()
    p = cfg.require_series()
    trace = iterate_map(p, x, cfg.horizon or REGULAR_HORIZON)
    rows = [(k, t, sup_distance(t, prev))
            for k, (t, prev) in enumerate(zip(trace, [x, *trace]), start=1)]
    if args.format == "json":
        _emit_json(args, {"trace": [
            {"step": k, "coeffs": _decimal_map(t), "sup_delta": delta}
            for k, t, delta in rows]})
    else:
        _emit_csv(args, ["step", *x.group.labels, "sup_delta"],
                  [[k, *map(repr, t.coeffs.tolist()), repr(delta)]
                   for k, t, delta in rows])
    return EXIT_OK


def cmd_cesaro(cfg: ExperimentConfig, args) -> int:
    x = cfg.require_element()
    p = cfg.require_series()
    _, rep = analyze(p, profile(x))
    horizon = cfg.horizon or CESARO_HORIZON
    burn_in = _cesaro_burn_in(horizon, rep.diagnostics["cycle_d"])
    avg = empirical_cesaro(iterate_map(p, x, horizon), burn_in)
    _emit_json(args, {
        "report": _report_record(rep),
        "empirical": _decimal_map(avg),
        "sup_distance": sup_distance(avg, rep.cesaro),
        "horizon": horizon,
        "burn_in": burn_in,
    })
    return EXIT_OK


def cmd_scalar(cfg: ExperimentConfig, args) -> int:
    p = cfg.require_series()
    if p.is_pure_power:
        raise ConfigError("series: the scalar trace needs at least two terms; "
                          "pure powers keep all mass on one exponent")
    horizon = cfg.horizon or DEFAULT_SCALAR_HORIZON
    states = scalar.iterate_coeffs(p, horizon, cfg.truncation, mode="float")
    rows = [{"n": st.n, "a0": float(st.a0), "sup": float(st.sup_nonconstant()),
             "tail_mass": float(st.tail_mass), "avg_a0": float(av.a0),
             "avg_sup": float(av.sup_nonconstant()),
             "avg_tail_mass": float(av.tail_mass)}
            for st, av in zip(states, scalar.cesaro_coeffs(states))]
    if args.format == "json":
        _emit_json(args, {"trace": rows})
    else:
        _emit_csv(args, list(rows[0]),
                  [[repr(v) for v in row.values()] for row in rows])
    return EXIT_OK


def _verify_checks(cfg: ExperimentConfig, args) -> list[dict]:
    x = cfg.require_element()
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "detail": detail})

    prof = profile(x)
    c = prof.idempotent
    prof_y = prof.absorbed
    record("profile-consistency",
           prof.return_time % prof.period == 0
           and multiply(c, c) == c
           and multiply(c, x) == prof_y.point,
           f"return_time={prof.return_time} period={prof.period}")
    record("power-independence", power_rank(prof) == prof.return_time,
           f"rank of {prof.return_time} power vectors")
    closed = AccumulationSet(points=prof.cycle, source="closed_form")
    wrapped = multiply(closed.points[-1], x)
    record("limit-cycle-wraps", wrapped == closed.points[0],
           f"{len(closed)} points on the cycle")
    ok4 = prof_y.return_time <= prof.period <= prof.return_time
    if prof_y.return_time == prof.return_time:
        ok4 = ok4 and prof.return_time == prof.period == prof_y.period
    record("reduction-inequalities", ok4,
           f"absorbed return_time={prof_y.return_time}")
    inside = all(i in prof.support_group for i in algebra.support(x).members)
    record("singleton-criterion", (len(closed) == 1) == inside,
           f"support inside group: {inside}")

    try:
        observed = empirical_limit_set(x, horizon=cfg.horizon or DEFAULT_HORIZON)
        record("limit-set-oracle",
               match_accumulation_sets(closed, observed,
                                       tol=cfg.tol or DEFAULT_MATCH_TOL),
               f"{len(observed)} empirical clusters")
    except InconclusiveError as exc:
        checks.append({"name": "limit-set-oracle", "status": "inconclusive",
                       "detail": str(exc)})

    p = cfg.series
    if p is None:
        return checks
    if p.is_pure_power:
        if p.shift < 2:
            raise ConfigError(
                f"series: pure-power verification needs exponent >= 2, got {p.shift}")
        rep = pure_power_report(p.shift, prof)
        hits = [False] * len(rep.accumulation)
        for approx in iterate_map(p, x, max(12, 3 * prof.period)):
            dists = [sup_distance(approx, pt) for pt in rep.accumulation.points]
            best = min(range(len(dists)), key=dists.__getitem__)
            if dists[best] <= (cfg.tol or DEFAULT_MATCH_TOL):
                hits[best] = True
        record("power-accumulation-oracle", all(hits),
               f"{sum(hits)}/{len(hits)} predicted points visited")
        return checks

    critical = p.shift == 0 and p.mean_exponent == 1
    reg, ces = analyze(p, prof)
    if critical:
        checks.append({
            "name": "regular-oracle", "status": "inconclusive",
            "detail": "mean exponent is exactly 1; iterates approach the "
                      "limit at rate 1/n, beyond any fixed float horizon"})
        checks.append({
            "name": "cesaro-oracle", "status": "inconclusive",
            "detail": "averages of a 1/n-converging trace need horizons "
                      "beyond the float budget"})
    else:
        reg_h = cfg.horizon or REGULAR_HORIZON
        ces_h = cfg.horizon or CESARO_HORIZON
        trace = iterate_map(p, x, max(reg_h, ces_h))
        tol = cfg.tol or REGULAR_ORACLE_TOL
        if reg.exists:
            dev = sup_distance(trace[reg_h - 1], reg.limit)
            record("regular-oracle", dev <= tol, f"sup deviation {dev:.2e}")
        else:
            d = reg.diagnostics["cycle_d"]
            pre = reg.diagnostics["cycle_preperiod"]
            ok = True
            for i in range(d):
                n = reg_h
                while n > pre and (n - pre - 1) % d != i:
                    n -= 1
                pt = trace[n - 1]
                dists = [sup_distance(pt, q) for q in reg.accumulation.points]
                if min(dists) > tol:
                    ok = False
            record("regular-oracle", ok,
                   f"{d} subsequence classes vs {len(reg.accumulation)} points")
        burn_in = _cesaro_burn_in(ces_h, ces.diagnostics["cycle_d"])
        avg = empirical_cesaro(trace[:ces_h], burn_in)
        dev = sup_distance(avg, ces.cesaro)
        record("cesaro-oracle", dev <= CESARO_ORACLE_TOL, f"sup deviation {dev:.2e}")

    # Kept coefficients are exact at any truncation (series module doc), so
    # K = 8 checks the same coefficients k <= 8 as a larger K would.
    exact_states = scalar.iterate_coeffs(p, 3, max(p.degree, 8), mode="exact")
    ok = True
    for st, nxt in zip(exact_states, exact_states[1:]):
        for k in range(9):
            if scalar.recursion_coeffs(p, st, k) != nxt.coeffs[k]:
                ok = False
    record("scalar-recursion", ok, "composition vs derivative recursion, exact")
    return checks


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    checks = _verify_checks(cfg, args)
    statuses = {c["status"] for c in checks}
    if args.format == "json":
        overall = ("fail" if "fail" in statuses
                   else "inconclusive" if "inconclusive" in statuses else "pass")
        _emit_json(args, {"checks": checks, "status": overall})
    else:
        lines = []
        for c in checks:
            tag = {"pass": "PASS", "fail": "FAIL",
                   "inconclusive": "INCONCLUSIVE"}[c["status"]]
            detail = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"{tag} {c['name']}{detail}\n")
        _emit(args, "".join(lines))
    if "fail" in statuses:
        return EXIT_VERIFY_FAILED
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_COMMANDS = {
    "profile": cmd_profile,
    "limit-set": cmd_limit_set,
    "predict": cmd_predict,
    "iterate": cmd_iterate,
    "cesaro": cmd_cesaro,
    "scalar": cmd_scalar,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexdyn",
        description="Exact and empirical limit analysis of simplex dynamics "
                    "on finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True,
                         help="path to a JSON experiment config")
        cmd.add_argument("--out", help="output file (default stdout)")
        cmd.add_argument("--horizon", type=int, help="iteration horizon")
        cmd.add_argument("--tol", type=float, help="comparison tolerance")
        cmd.add_argument("--truncation", type=int,
                         help="scalar truncation degree K")
        cmd.add_argument("--seed", type=int,
                         help="override the interior-random element seed")
        cmd.add_argument("--format", choices=("json", "csv"),
                         help="output format where a choice exists")
    return parser


def _load_config(args) -> ExperimentConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if args.seed is not None:
        element = raw.get("element")
        if not (isinstance(element, str) and element.startswith("interior-random:")):
            raise ConfigError("--seed: only an 'interior-random:<seed>' element "
                              "takes a seed")
        raw["element"] = f"interior-random:{args.seed}"
    for name in ("horizon", "tol", "truncation"):
        value = getattr(args, name)
        if value is not None:
            raw[name] = value
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InternalConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
