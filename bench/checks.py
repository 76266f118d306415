"""Output checks: compare each CLI result with the reference answers.

check(op, exit_code, stdout) returns (outcome, detail) where outcome is
"ok", "inconclusive" (exit 2 with consistent output) or "fail" (crash,
invalid input, exit 3, or any field that disagrees with the reference).
Numeric fields are compared at TOL; structural fields exactly.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import reference as ref
from workloads import Op

TOL = 1e-12
DEFAULT_SCALAR_HORIZON = 200


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _point_values(record: dict) -> dict[str, float]:
    if "exact" in record:
        exact = {k: Fraction(v) for k, v in record["exact"].items()}
        _expect(sum(exact.values()) == 1, "exact point does not sum to 1")
        return {k: float(v) for k, v in exact.items()}
    return dict(record["decimal"])


def _same_point(record: dict, expected: dict, what: str) -> None:
    got = _point_values(record)
    for lab in set(got) | set(expected):
        diff = abs(got.get(lab, 0.0) - float(expected.get(lab, 0.0)))
        _expect(diff <= TOL, f"{what}: coefficient {lab} off by {diff:.3g}")


def _same_profile(record: dict, grp: ref.RefGroup, st: ref.Structure, what: str) -> None:
    _expect(record["return_time"] == st.return_time,
            f"{what}: return_time {record['return_time']} != {st.return_time}")
    _expect(record["period"] == st.period, f"{what}: period {record['period']} != {st.period}")
    _expect(sorted(record["support_group"]) == sorted(grp.labels[i] for i in st.subgroup),
            f"{what}: support group differs")
    idem = {k: Fraction(v) for k, v in record["idempotent"].items()}
    _expect(idem == ref.uniform(grp, st.subgroup), f"{what}: idempotent differs")


def _same_floats(got, expected, what: str) -> None:
    _expect(len(got) == len(expected), f"{what}: length {len(got)} != {len(expected)}")
    worst = max((abs(x - float(y)) for x, y in zip(got, expected)), default=0.0)
    _expect(worst <= TOL, f"{what}: off by {worst:.3g}")


def _check_profile(op: Op, out: str) -> None:
    cfg = op.config
    _same_profile(json.loads(out), cfg.group, ref.structure(cfg.group, cfg.support), "profile")


def _check_limit_set(op: Op, out: str, code: int) -> None:
    cfg = op.config
    st = ref.structure(cfg.group, cfg.support)
    rec = json.loads(out)
    closed = rec["closed_form"]
    _expect(len(closed) == st.period, f"limit-set: {len(closed)} points, period {st.period}")
    for r, pt in enumerate(closed):
        _same_point(pt, ref.uniform(cfg.group, st.coset(cfg.group, r)), f"limit-set point {r}")
    if code == 0:
        _expect(rec["matched"] and len(rec["empirical"]) == st.period,
                "limit-set: oracle clusters do not match the period")


def _check_series_report(rec: dict, cfg, exp: dict, kind: str) -> None:
    st = exp["structure"]
    _same_profile(rec["profile"], cfg.group, st, kind)
    _expect(rec["reduction_steps"] == exp["steps"], f"{kind}: reduction steps differ")
    a_err = abs(rec["a"] - float(exp["a"]))
    _expect(a_err <= TOL, f"{kind}: extinction value a off by {a_err:.3g}")
    diag = rec["diagnostics"]
    for key, value in exp["cycle"].items():
        _expect(diag[key] == value, f"{kind}: diagnostics {key} {diag[key]} != {value}")
    _expect(abs(diag["extinction_value"] - float(exp["a"])) <= TOL,
            f"{kind}: diagnostics extinction value off")
    _same_point(rec["cesaro"], exp["cesaro"], f"{kind} cesaro")
    if kind == "regular":
        _expect(rec["exists"] == exp["exists"], "regular: exists differs")
        points = exp["points"]
        scalar = exp["limit_q"]
    else:
        _expect(rec["exists"], "cesaro: exists must be true")
        points = [exp["cesaro"]]
        scalar = exp["cesaro_q"]
    _expect(len(rec["accumulation"]) == len(points), f"{kind}: accumulation count differs")
    for i, (got, want) in enumerate(zip(rec["accumulation"], points)):
        _same_point(got, want, f"{kind} accumulation point {i}")
    if rec["exists"]:
        _same_point(rec["limit"], points[0], f"{kind} limit")
        _same_floats(rec["scalar_limits"], scalar, f"{kind} scalar limits")
    else:
        _expect(rec["limit"] is None and rec["scalar_limits"] is None,
                f"{kind}: limit given for a divergent series")


def _check_predict(op: Op, out: str) -> None:
    cfg = op.config
    rec = json.loads(out)
    series = cfg.raw["series"]
    if isinstance(series, str):
        r = int(series.split(":")[1])
        exp = ref.pure_power_prediction(cfg.group, cfg.support, r)
        rep = rec["report"]
        _expect(rec["kind"] == "pure-power", "predict: kind should be pure-power")
        _same_profile(rep["profile"], cfg.group, exp["structure"], "pure-power")
        d = exp["cycle"]["cycle_d"]
        _expect(rep["exists"] == (d == 1), "pure-power: exists differs")
        _expect(rep["a"] == 0.0 and rep["scalar_limits"] is None, "pure-power: a must be 0")
        for key, value in exp["cycle"].items():
            _expect(rep["diagnostics"][key] == value, f"pure-power: diagnostics {key} differs")
        _expect(len(rep["accumulation"]) == d, "pure-power: accumulation count differs")
        for i, (got, want) in enumerate(zip(rep["accumulation"], exp["points"])):
            _same_point(got, want, f"pure-power point {i}")
        _same_point(rep["cesaro"], exp["cesaro"], "pure-power cesaro")
        return
    exp = ref.series_prediction(cfg.group, cfg.support, cfg.terms)
    _expect(rec["kind"] == "series", "predict: kind should be series")
    _check_series_report(rec["regular"], cfg, exp, "regular")
    _check_series_report(rec["cesaro"], cfg, exp, "cesaro")


STRUCTURAL = ("profile-consistency", "power-independence", "limit-cycle-wraps",
              "reduction-inequalities", "singleton-criterion")


def _check_verify(op: Op, out: str, code: int) -> None:
    cfg = op.config
    grp = cfg.group
    st = ref.structure(grp, cfg.support)
    absorbed = ref.structure(grp, ref.set_mul(grp, cfg.support, st.subgroup))
    details = {
        "profile-consistency": f"return_time={st.return_time} period={st.period}",
        "power-independence": f"rank of {st.return_time} power vectors",
        "limit-cycle-wraps": f"{st.period} points on the cycle",
        "reduction-inequalities": f"absorbed return_time={absorbed.return_time}",
        "singleton-criterion": f"support inside group: {cfg.support <= st.subgroup}",
    }
    names = list(STRUCTURAL) + ["limit-set-oracle"]
    series = cfg.raw.get("series")
    if isinstance(series, str):
        names.append("power-accumulation-oracle")
    elif series is not None:
        names += ["regular-oracle", "cesaro-oracle", "scalar-recursion"]
    lines = out.splitlines()
    _expect(len(lines) == len(names), f"verify: {len(lines)} lines, expected {len(names)}")
    statuses = set()
    for line, name in zip(lines, names):
        tag, _, rest = line.partition(" ")
        got_name, _, detail = rest.partition(" ")
        _expect(got_name == name, f"verify: line {got_name!r}, expected {name!r}")
        detail = detail[1:-1] if detail.startswith("(") else detail
        statuses.add(tag)
        if name in details:
            _expect(tag == "PASS" and detail == details[name],
                    f"verify: {name} reads {tag} ({detail}), expected PASS ({details[name]})")
        elif name == "scalar-recursion":
            _expect(tag == "PASS", "verify: exact scalar recursion must pass")
        elif name == "limit-set-oracle" and tag == "PASS":
            _expect(detail == f"{st.period} empirical clusters",
                    f"verify: oracle reports {detail!r}, period is {st.period}")
    want = 3 if "FAIL" in statuses else 2 if "INCONCLUSIVE" in statuses else 0
    _expect(code == want, f"verify: exit code {code} does not match its checks ({want})")


def _check_scalar(op: Op, out: str) -> None:
    terms = op.config.terms
    n = op.horizon or DEFAULT_SCALAR_HORIZON
    rows = list(csv.reader(io.StringIO(out)))
    _expect(rows[0] == ["n", "a0", "sup", "tail_mass", "avg_a0", "avg_sup", "avg_tail_mass"],
            "scalar: unexpected header")
    body = rows[1:]
    _expect(len(body) == n, f"scalar: {len(body)} rows, expected {n}")
    a0 = ref.a0_sequence(terms, n)
    limit = float(ref.extinction(terms))
    running = 0.0
    for k, (row, want) in enumerate(zip(body, a0), start=1):
        step, got_a0, sup, tail, avg_a0, avg_sup, avg_tail = row
        running += float(want)
        _expect(int(step) == k, f"scalar: row {k} labelled {step}")
        _expect(abs(float(got_a0) - float(want)) <= TOL, f"scalar: a0 at n={k} off")
        _expect(abs(float(avg_a0) - running / k) <= TOL, f"scalar: avg_a0 at n={k} off")
        _expect(float(got_a0) <= limit + TOL, f"scalar: a0 at n={k} above the extinction value")
        for name, v in (("sup", sup), ("tail_mass", tail), ("avg_sup", avg_sup),
                        ("avg_tail_mass", avg_tail)):
            _expect(-TOL <= float(v) <= 1 + TOL, f"scalar: {name} at n={k} outside [0, 1]")


def check(op: Op, code: int, out: str) -> tuple[str, str]:
    if code not in (0, 2, 3):
        return "fail", f"exit code {code}"
    if code == 2 and not out.strip():
        return "inconclusive", "exit code 2 with no output"
    try:
        if op.cmd == "profile":
            _check_profile(op, out)
        elif op.cmd == "limit-set":
            _check_limit_set(op, out, code)
        elif op.cmd == "predict":
            _check_predict(op, out)
        elif op.cmd == "verify":
            _check_verify(op, out, code)
        elif op.cmd == "scalar":
            _check_scalar(op, out)
        else:
            raise Mismatch(f"no check for command {op.cmd!r}")
    except Mismatch as exc:
        return "fail", str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "fail", f"unreadable output: {exc!r}"
    if code == 3:
        return "fail", "exit code 3 (an oracle contradicted a closed form)"
    if code == 2:
        return "inconclusive", "exit code 2"
    return "ok", ""
