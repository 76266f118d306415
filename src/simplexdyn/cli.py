"""Batch experiment runner.

Subcommands: profile | limit-set | predict | iterate | cesaro | scalar |
verify.  Each reads a JSON config (see config.py) naming a group, a
starting element and/or a series, runs the requested computation, and
writes JSON or CSV to --out or stdout.

Exit codes: 0 success, 1 invalid input, 2 inconclusive numerics
(iteration budget exhausted before the tolerance was met), 3
verification failure (an oracle contradicted a closed form).

Every command runs in a fresh process, which compiles each module it
imports when no bytecode cache is at hand.  So this module imports only
the standard library, config and errors at its top, and each command
imports the modules it runs at the top of its own body: `scalar` loads
none of algebra, dynamics, predict and modm (config loads algebra only
to build an element), and `profile` and `limit-set` load neither
predict nor modm.

main() is the process entry point.  Its first act is gc.freeze(): every
object alive by then, numpy and this package's top-level imports
included, moves into the collector's permanent generation, so neither
the collections during the command nor the full ones at interpreter exit
traverse it again.  The collector stays enabled; what the command itself
allocates, and the modules it imports, are collected as usual.  Those
modules add about 0.3 ms to a full collection, and a second freeze after
them gained nothing measurable, so main() freezes once.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from typing import TYPE_CHECKING

from .config import ConfigError, ExperimentConfig, read_config
from .errors import InconclusiveError, InternalConsistencyError

if TYPE_CHECKING:
    from .dynamics import AccumulationSet, DynamicsProfile
    from .predict import LimitReport

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAILED = 3
# The exit code of each oracle verdict.  The codes rise with severity, so
# the worst of several verdicts is the one with the largest code.
_EXIT_CODES = {"pass": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE,
               "fail": EXIT_VERIFY_FAILED}

DEFAULT_SCALAR_HORIZON = 200
REGULAR_ORACLE_TOL = 1e-7
CESARO_ORACLE_TOL = 1e-4


def _decimal_map(x) -> dict:
    from .algebra import float_coeffs

    vec = float_coeffs(x)
    return {label: float(v) for label, v in zip(x.group.labels, vec) if v}


def _point_record(x) -> dict:
    from .algebra import ApproxElement, element_to_map

    if isinstance(x, ApproxElement):
        return {"decimal": _decimal_map(x)}
    return {"exact": element_to_map(x), "decimal": _decimal_map(x)}


def _profile_record(prof: DynamicsProfile) -> dict:
    from .algebra import element_to_map

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


def _emit_csv(args, header: list, rows) -> None:
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


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _check(name: str, status: str, detail: str) -> dict:
    """One verify line: a check's name, verdict and detail."""
    return {"name": name, "status": status, "detail": detail}


def _power_oracle(cfg: ExperimentConfig, x, closed: AccumulationSet) -> tuple:
    """The float powers of x, clustered, against the closed-form limit set:
    (verdict, detail, the clusters, or None when inconclusive)."""
    from .dynamics import (DEFAULT_HORIZON, DEFAULT_MATCH_TOL,
                           empirical_limit_set, match_accumulation_sets)

    try:
        observed = empirical_limit_set(x, horizon=cfg.horizon or DEFAULT_HORIZON)
    except InconclusiveError as exc:
        return "inconclusive", str(exc), None
    matched = match_accumulation_sets(closed, observed,
                                      tol=cfg.tol or DEFAULT_MATCH_TOL)
    return _verdict(matched), f"{len(observed)} empirical clusters", observed


def _cesaro_oracle(cfg: ExperimentConfig, p, x, rep: LimitReport) -> tuple:
    """The mean of the float orbit p^[n](x), n the Cesaro horizon, over its
    last whole cycles against rep's Cesaro limit: (verdict, detail, a dict
    of the orbit, the burn-in, the mean and its sup deviation)."""
    from .algebra import sup_distance
    from .predict import CESARO_HORIZON, empirical_cesaro, iterate_map

    trace = iterate_map(p, x, cfg.horizon or CESARO_HORIZON)
    burn_in = _cesaro_burn_in(len(trace), rep.diagnostics["cycle_d"])
    avg = empirical_cesaro(trace, burn_in)
    dev = sup_distance(avg, rep.cesaro)
    return (_verdict(dev <= CESARO_ORACLE_TOL), f"sup deviation {dev:.2e}",
            {"trace": trace, "burn_in": burn_in, "average": avg, "deviation": dev})


def _regular_oracle(cfg: ExperimentConfig, trace, reg: LimitReport) -> tuple:
    """The float orbit at the regular horizon against reg's limit, or its
    last d steps against reg's accumulation set: (verdict, detail).

    After the preperiod pre, step n belongs to subsequence class
    (n - pre - 1) % d, so d consecutive steps past pre hold the last step
    of each class by the horizon; the verdict is inconclusive when they
    do not all lie past pre."""
    from .algebra import sup_distance
    from .predict import REGULAR_HORIZON

    horizon = cfg.horizon or REGULAR_HORIZON
    tol = cfg.tol or REGULAR_ORACLE_TOL
    if reg.exists:
        dev = sup_distance(trace[horizon - 1], reg.limit)
        return _verdict(dev <= tol), f"sup deviation {dev:.2e}"
    d = reg.diagnostics["cycle_d"]
    pre = reg.diagnostics["cycle_preperiod"]
    if horizon - d + 1 <= pre:
        return "inconclusive", (f"{d} subsequence classes need horizon {pre + d} "
                                f"for a step each, got {horizon}")
    ok = all(min(sup_distance(trace[n - 1], q) for q in reg.accumulation.points) <= tol
             for n in range(horizon - d + 1, horizon + 1))
    return _verdict(ok), f"{d} subsequence classes vs {len(reg.accumulation)} points"


def cmd_profile(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile

    prof = profile(cfg.require_element())
    _emit_json(args, _profile_record(prof))
    return EXIT_OK


def cmd_limit_set(cfg: ExperimentConfig, args) -> int:
    from .dynamics import limit_set, profile

    x = cfg.require_element()
    closed = limit_set(profile(x))
    status, detail, observed = _power_oracle(cfg, x, closed)
    payload = {"closed_form": [_point_record(pt) for pt in closed.points]}
    if observed is None:
        payload.update(status=status, detail=detail)
    else:
        payload.update(empirical=[_point_record(pt) for pt in observed.points],
                       matched=status == "pass",
                       status="ok" if status == "pass" else "mismatch")
    _emit_json(args, payload)
    return _EXIT_CODES[status]


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile
    from .predict import analyze, pure_power_report

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
        _emit_json(args, {"trace": [
            {"step": k, "coeffs": _decimal_map(t), "sup_delta": delta}
            for k, t, delta in rows()]})
    else:
        _emit_csv(args, ["step", *x.group.labels, "sup_delta"],
                  ([k, *map(repr, t.coeffs.tolist()), repr(delta)]
                   for k, t, delta in rows()))
    return EXIT_OK


def cmd_cesaro(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile
    from .predict import analyze

    x = cfg.require_element()
    p = cfg.require_series()
    _, rep = analyze(p, profile(x))
    _, _, evidence = _cesaro_oracle(cfg, p, x, rep)
    _emit_json(args, {
        "report": _report_record(rep),
        "empirical": _decimal_map(evidence["average"]),
        "sup_distance": evidence["deviation"],
        "horizon": len(evidence["trace"]),
        "burn_in": evidence["burn_in"],
    })
    return EXIT_OK


def cmd_scalar(cfg: ExperimentConfig, args) -> int:
    from .series import cesaro_coeffs, iterate_coeffs

    p = cfg.require_series()
    if p.is_pure_power:
        raise ConfigError("series: the scalar trace needs at least two terms; "
                          "pure powers keep all mass on one exponent")
    horizon = cfg.horizon or DEFAULT_SCALAR_HORIZON
    states = iterate_coeffs(p, horizon, cfg.truncation, mode="float")
    rows = [{"n": st.n, "a0": float(st.a0), "sup": float(st.sup_nonconstant()),
             "tail_mass": float(st.tail_mass), "avg_a0": float(av.a0),
             "avg_sup": float(av.sup_nonconstant()),
             "avg_tail_mass": float(av.tail_mass)}
            for st, av in zip(states, cesaro_coeffs(states))]
    if args.format == "json":
        _emit_json(args, {"trace": rows})
    else:
        _emit_csv(args, list(rows[0]),
                  [[repr(v) for v in row.values()] for row in rows])
    return EXIT_OK


def _verify_checks(cfg: ExperimentConfig) -> list[dict]:
    from .algebra import multiply, sup_distance, support
    from .dynamics import DEFAULT_MATCH_TOL, AccumulationSet, power_rank, profile
    from .predict import analyze, iterate_map, pure_power_report
    from .series import iterate_coeffs, recursion_coeffs

    x = cfg.require_element()
    prof = profile(x)
    c = prof.idempotent
    prof_y = prof.absorbed
    closed = AccumulationSet(points=prof.cycle, source="closed_form")
    reduction = prof_y.return_time <= prof.period <= prof.return_time
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
    status, detail, _ = _power_oracle(cfg, x, closed)
    checks.append(_check("limit-set-oracle", status, detail))

    p = cfg.series
    if p is None:
        return checks
    if p.is_pure_power:
        if p.shift < 2:
            raise ConfigError(
                f"series: pure-power verification needs exponent >= 2, got {p.shift}")
        rep = pure_power_report(p.shift, prof)
        tol = cfg.tol or DEFAULT_MATCH_TOL
        hits = [False] * len(rep.accumulation)
        for approx in iterate_map(p, x, max(12, 3 * prof.period)):
            dists = [sup_distance(approx, pt) for pt in rep.accumulation.points]
            best = min(range(len(dists)), key=dists.__getitem__)
            if dists[best] <= tol:
                hits[best] = True
        checks.append(_check("power-accumulation-oracle", _verdict(all(hits)),
                             f"{sum(hits)}/{len(hits)} predicted points visited"))
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
    exact_states = iterate_coeffs(p, 3, max(p.degree, 8), mode="exact")
    ok = all(recursion_coeffs(p, st, k) == nxt.coeffs[k]
             for st, nxt in zip(exact_states, exact_states[1:]) for k in range(9))
    checks.append(_check("scalar-recursion", _verdict(ok),
                         "composition vs derivative recursion, exact"))
    return checks


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    checks = _verify_checks(cfg)
    overall = max((c["status"] for c in checks), key=_EXIT_CODES.__getitem__)
    if args.format == "json":
        _emit_json(args, {"checks": checks, "status": overall})
    else:
        _emit(args, "".join(
            f"{c['status'].upper()} {c['name']}"
            + (f" ({c['detail']})" if c["detail"] else "") + "\n"
            for c in checks))
    return _EXIT_CODES[overall]


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
    raw = read_config(args.config)
    if isinstance(raw, dict):  # from_dict rejects anything else
        if args.seed is not None:
            element = raw.get("element")
            if not (isinstance(element, str)
                    and element.startswith("interior-random:")):
                raise ConfigError("--seed: only an 'interior-random:<seed>' "
                                  "element takes a seed")
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
    except (OSError, ValueError) as exc:
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
