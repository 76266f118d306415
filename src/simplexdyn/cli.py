"""Batch experiment runner.

Subcommands: profile | limit-set | predict | iterate | cesaro | scalar |
verify.  Each reads a JSON config (see config.py) naming a group, a
starting element and/or a series, runs the requested computation, and
writes JSON or CSV to --out or stdout.

Exit codes: 0 success or -h/--help, 1 invalid input or command line, 2
inconclusive numerics (iteration budget exhausted before the tolerance
was met), 3 verification failure (an oracle contradicted a closed form).

Every command runs in a fresh process, which compiles each module it
imports when no bytecode cache is at hand.  So this module imports only
the standard library, config and errors at its top, and each command
imports the modules it runs at the top of its own body: `scalar` loads
none of algebra, dynamics, predict and modm (config loads algebra only
to build an element), and `profile` and `limit-set` load neither
predict nor modm.  parse_args reads the command line: argparse, with
the gettext and locale it loads, cost each process 4-7 ms and 0.5 MB.

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

import gc
import io
import json
import sys
from functools import partial
from types import SimpleNamespace
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


def _decimal_map(labels: tuple[str, ...], vec) -> dict:
    return {label: float(v) for label, v in zip(labels, vec) if v}


def _point_record(labels: tuple[str, ...], x) -> dict:
    """An exact element's map and decimals, or a float vector's decimals."""
    from .algebra import AlgebraElement, element_to_map

    if isinstance(x, AlgebraElement):
        return {"exact": element_to_map(x), "decimal": _decimal_map(labels, x.floats)}
    return {"decimal": _decimal_map(labels, x)}


def _profile_record(prof: DynamicsProfile) -> dict:
    from .algebra import element_to_map

    return {
        "return_time": prof.return_time,
        "period": prof.period,
        "support_group": list(prof.support_group.label_list()),
        "idempotent": element_to_map(prof.idempotent),
    }


def _report_record(rep: LimitReport) -> dict:
    record = partial(_point_record, rep.profile.point.group.labels)
    return {
        "digest": rep.digest,
        "profile": _profile_record(rep.profile),
        "reduction_steps": rep.reduction_steps,
        "exists": rep.exists,
        "limit": record(rep.limit) if rep.limit is not None else None,
        "accumulation": [record(pt) for pt in rep.accumulation.points],
        "cesaro": record(rep.cesaro),
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
    the second half of the horizon (at least one cycle, if it holds one)."""
    window = max(d, (horizon // 2 // d) * d)
    return max(0, horizon - window)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _check(name: str, status: str, detail: str) -> dict:
    """One verify line: a check's name, verdict and detail."""
    return {"name": name, "status": status, "detail": detail}


def _power_oracle(cfg: ExperimentConfig, closed: AccumulationSet, clusters) -> tuple:
    """clusters(horizon=...), the clustered float orbit of the powers of x
    or of x -> x^r (dynamics._clustered_cycle), against the closed set:
    (verdict, detail, the clusters, or None when inconclusive)."""
    from .dynamics import DEFAULT_HORIZON, DEFAULT_MATCH_TOL, match_accumulation_sets

    try:
        observed = clusters(horizon=cfg.horizon or DEFAULT_HORIZON)
    except InconclusiveError as exc:
        return "inconclusive", str(exc), None
    matched = match_accumulation_sets(closed, observed, DEFAULT_MATCH_TOL)
    return _verdict(matched), f"{len(observed)} empirical clusters", observed


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


def cmd_profile(cfg: ExperimentConfig, args) -> int:
    from .dynamics import profile

    prof = profile(cfg.require_element())
    _emit_json(args, _profile_record(prof))
    return EXIT_OK


def cmd_limit_set(cfg: ExperimentConfig, args) -> int:
    from .dynamics import empirical_limit_set, limit_set, profile

    x = cfg.require_element()
    closed = limit_set(profile(x))
    status, detail, observed = _power_oracle(cfg, closed, partial(empirical_limit_set, x))
    record = partial(_point_record, x.group.labels)
    payload = {"closed_form": [record(pt) for pt in closed.points]}
    if observed is None:
        payload.update(status=status, detail=detail)
    else:
        payload.update(empirical=[record(vec) for vec in observed],
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
            {"step": k, "coeffs": _decimal_map(x.group.labels, t), "sup_delta": delta}
            for k, t, delta in rows()]})
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


def cmd_scalar(cfg: ExperimentConfig, args) -> int:
    from .series import SCALAR_COLUMNS, scalar_trace

    p = cfg.require_series()
    if p.is_pure_power:
        raise ConfigError("series: the scalar trace needs at least two terms; "
                          "pure powers keep all mass on one exponent")
    trace = scalar_trace(p, cfg.horizon or DEFAULT_SCALAR_HORIZON, cfg.truncation)
    header = ["n", *SCALAR_COLUMNS]
    rows = [[n, *row] for n, row in enumerate(trace.tolist(), start=1)]
    if args.format == "json":
        _emit_json(args, {"trace": [dict(zip(header, row)) for row in rows]})
    else:
        _emit_csv(args, header, [[repr(v) for v in row] for row in rows])
    return EXIT_OK


def _verify_checks(cfg: ExperimentConfig) -> list[dict]:
    from .algebra import multiply, support
    from .dynamics import (AccumulationSet, _clustered_cycle, empirical_limit_set,
                           power_rank, profile)
    from .predict import analyze, iterate_map, pure_power_report
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
    status, detail, _ = _power_oracle(cfg, closed, partial(empirical_limit_set, x))
    checks.append(_check("limit-set-oracle", status, detail))

    p = cfg.series
    if p is None:
        return checks
    if p.is_pure_power:
        if p.shift < 2:
            raise ConfigError(
                f"series: pure-power verification needs exponent >= 2, got {p.shift}")
        rep = pure_power_report(p.shift, prof)
        status, detail, _ = _power_oracle(
            cfg, rep.accumulation, lambda horizon: _clustered_cycle(iterate_map(p, x, horizon)))
        checks.append(_check("power-accumulation-oracle", status, detail))
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


# Each option's type or choices, placeholder and help; every command takes all.
_OPTIONS = {
    "--config": (str, "PATH", "path to a JSON experiment config (required)"),
    "--out": (str, "FILE", "output file (default stdout)"),
    "--horizon": (int, "N", "iteration horizon"),
    "--truncation": (int, "K", "scalar truncation degree K"),
    "--seed": (int, "S", "override the interior-random element seed"),
    "--format": (("json", "csv"), "json|csv", "output format where a choice exists"),
}
_USAGE = ("usage: simplexdyn COMMAND --config PATH [--option VALUE | --option=VALUE ...]\n\n"
          "Exact and empirical limit analysis of simplex dynamics on finite groups.\n\n"
          f"commands: {', '.join(_COMMANDS)}\n\noptions (the last of a repeated one wins):\n"
          + "".join(f"  {f + ' ' + m:<20}{h}\n" for f, (_, m, h) in _OPTIONS.items())
          + f"  {'-h, --help':<20}print this text and exit\n")


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command and options of a command line, or None when it asks
    for help; raises ConfigError on a usage error."""
    if {"-h", "--help"} & set(argv):
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ConfigError(f"the first argument must be a command: {', '.join(_COMMANDS)}")
    args = SimpleNamespace(command=argv[0], **{flag[2:]: None for flag in _OPTIONS})
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in _OPTIONS:
            raise ConfigError(f"unrecognized argument {token!r}")
        value = value if eq else next(tokens, None)
        if value is None:
            raise ConfigError(f"{flag}: expected a value")
        kind = _OPTIONS[flag][0]
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{flag}: expected one of {', '.join(kind)}, got {value!r}")
        try:
            setattr(args, flag[2:], value if isinstance(kind, tuple) else kind(value))
        except ValueError:
            raise ConfigError(f"{flag}: expected {kind.__name__}, got {value!r}") from None
    if args.config is None:
        raise ConfigError("--config is required")
    return args


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
        for name in ("horizon", "truncation"):
            value = getattr(args, name)
            if value is not None:
                raw[name] = value
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    gc.freeze()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_USAGE)
            return EXIT_OK
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
