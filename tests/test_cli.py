"""Command-line entry points: outputs, exit codes, determinism."""

import csv
import gc
import io
import json
import random
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from simplexdyn import (AccumulationSet, DynamicsProfile, ElementSet, LimitReport, delta,
                        dynamics, make_cyclic, parse_rational, predict, uniform_on)
from simplexdyn.cli import main
from simplexdyn.config import build_group
from simplexdyn.oracles import _regular_oracle

from conftest import WEIGHT_MAX, build_zoo, count_calls

EXAMPLE_12 = {
    "group": {"kind": "cyclic", "n": 12},
    "element": "point-mass:t^1",
    "series": {"3": "1/2", "7": "1/2"},
}
EXAMPLE_10 = {
    "group": {"kind": "cyclic", "n": 10},
    "element": "point-mass:t^1",
    "series": {"3": "1/2", "7": "1/2"},
}
GOLDEN = Path(__file__).parent / "golden"
S4_INTERIOR = {
    "group": {"kind": "symmetric", "n": 4},
    "element": "interior-random:3",
    "series": {"0": "1/6", "1": "1/3", "2": "1/2"},
}
TRIVIAL = {
    "group": {"kind": "cyclic", "n": 1},
    "element": "point-mass:t^0",
    "series": {"0": "1/3", "2": "2/3"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_divergent_example(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "predict", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    regular = payload["regular"]
    assert regular["exists"] is False
    assert regular["diagnostics"]["cycle_d"] == 2
    assert regular["diagnostics"]["cycle_residues"] == [3, 9]
    assert len(regular["accumulation"]) == 2
    assert payload["cesaro"]["cesaro"]["exact"]["t^1"] == "1/6"


def test_predict_regular_example(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_10)
    code, out, _ = run(capsys, "predict", "--config", cfg)
    assert code == 0
    regular = json.loads(out)["regular"]
    assert regular["exists"] is True
    exact = regular["limit"]["exact"]
    assert exact == {f"t^{i}": "1/5" for i in (1, 3, 5, 7, 9)}
    for label, text in exact.items():
        assert parse_rational(text) == parse_rational("1/5")


def test_all_commands_accept_trivial_group(tmp_path, capsys):
    cfg = write_config(tmp_path, TRIVIAL)
    for cmd in ("profile", "limit-set", "predict", "iterate", "cesaro",
                "scalar", "verify"):
        code, out, err = run(capsys, cmd, "--config", cfg)
        assert code == 0, (cmd, err)
        assert out


def test_profile_output(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "profile", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["return_time"] == 12
    assert payload["period"] == 12
    assert payload["support_group"] == ["t^0"]


def test_limit_set_matches_oracle(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "limit-set", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["matched"] is True
    assert len(payload["closed_form"]) == 12


def test_limit_set_short_window_is_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "limit-set", "--config", cfg, "--horizon", "12")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


def test_limit_set_empty_window_is_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 12},
        "element": {"t^1": "1/2", "t^3": "1/2"},
    })
    code, out, _ = run(capsys, "limit-set", "--config", cfg, "--horizon", "1")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


D60_PAIR = {"group": {"kind": "dihedral", "n": 30},
            "element": {"r1": "1/2", "s0": "1/2"}}
# Points whose powers close their float cycle only after hundreds of
# steps, or whose cycle is longer than a third of the budget.
SLOW_CYCLES = [
    ({"group": {"kind": "dihedral", "n": 12},
      "element": {"r1": "1/3", "s0": "2/3"}}, [], 2),
    ({"group": {"kind": "cyclic", "n": 12},
      "element": {"t^1": "1/16", "t^9": "15/16"}}, [], 4),
    ({"group": {"kind": "cyclic", "n": 501}, "element": "point-mass:t^1"}, [], 501),
    (D60_PAIR, ["--horizon", "2000"], 2),
]


@pytest.mark.parametrize("config, flags, clusters", SLOW_CYCLES,
                         ids=["D24", "Z12", "C501", "D60 long"])
def test_limit_set_reads_the_cycle_the_orbit_closes(config, flags, clusters,
                                                    tmp_path, capsys):
    cfg = write_config(tmp_path, config)
    code, out, _ = run(capsys, "limit-set", "--config", cfg, *flags)
    assert code == 0
    payload = json.loads(out)
    assert payload["matched"] is True
    assert len(payload["empirical"]) == clusters


def test_a_limit_set_mismatch_fails_limit_set_and_verify(capsys, monkeypatch):
    # No float cluster of the S4 interior orbit lies within 1e-300 of the
    # closed form, so both commands report the power oracle's failure.
    monkeypatch.setattr(dynamics, "DEFAULT_MATCH_TOL", 1e-300)
    config = str(GOLDEN / "s4-supercritical.json")
    code, out, _ = run(capsys, "limit-set", "--config", config)
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["matched"] is False
    assert len(payload["empirical"]) == 1
    code, out, _ = run(capsys, "verify", "--config", config)
    assert code == 3
    assert "FAIL limit-set-oracle (1 empirical clusters)\n" in out
    code, out, _ = run(capsys, "verify", "--config", config, "--format", "json")
    assert code == 3
    assert json.loads(out)["status"] == "fail"


def test_an_orbit_that_outlasts_the_budget_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, D60_PAIR)
    code, out, _ = run(capsys, "limit-set", "--config", cfg)
    assert code == 2
    assert json.loads(out)["detail"] == (
        "no power repeated an earlier one bit for bit by step 600 "
        "(600 distinct powers)")


@pytest.mark.parametrize("command", ["predict", "verify"])
def test_series_commands_solve_the_quotient_once(command, tmp_path, capsys,
                                                 monkeypatch):
    cfg = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 6},
        "element": "point-mass:t^1",
        "series": {"0": "1/6", "1": "1/3", "2": "1/2"},
    })
    counts = count_calls(monkeypatch, "modm.regularity_mod_m",
                         "modm.extinction_fraction")
    code, _, _ = run(capsys, command, "--config", cfg)
    assert code == 0
    assert counts == {"modm.regularity_mod_m": 1, "modm.extinction_fraction": 1}


def test_verify_builds_each_object_once(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, S4_INTERIOR)
    counts = count_calls(monkeypatch, "predict.iterate_map", "series.compose",
                         "algebra.multiply", "dynamics.profile")
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0, out
    assert counts["predict.iterate_map"] == 1
    assert counts["series.compose"] == 2
    assert counts["algebra.multiply"] <= 6
    # x and its absorbed point x * c_x, each profiled once.
    assert counts["dynamics.profile"] <= 2


def test_predict_profiles_each_point_once(tmp_path, capsys, monkeypatch):
    # d6-reduced takes one reduction step; its stable point is read off
    # the cosets of x, not profiled again.
    counts = count_calls(monkeypatch, "dynamics.profile")
    for command, cfg in (("predict", write_config(tmp_path, S4_INTERIOR)),
                         ("predict", str(GOLDEN / "d6-reduced.json")),
                         ("cesaro", str(GOLDEN / "d6-reduced.json"))):
        counts["dynamics.profile"] = 0
        code, out, _ = run(capsys, command, "--config", cfg)
        assert code == 0, out
        assert counts["dynamics.profile"] == 1, (command, cfg)


def test_pure_power_verify_walks_the_cycle_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, "algebra.multiply", "dynamics.profile")
    code, out, _ = run(capsys, "verify", "--config",
                       str(GOLDEN / "c12-pure-power.json"))
    assert code == 0, out
    # Return time 4, period 2: 3 multiplies for profile consistency and
    # the absorption step, 3 for the power rank and 1 for the cycle's wrap
    # check.  The cycle itself is read off the support group's cosets, so
    # building it takes no product.
    assert counts["algebra.multiply"] == 7
    assert counts["dynamics.profile"] <= 2


def test_predict_reads_the_cycle_off_its_cosets(tmp_path, capsys, monkeypatch):
    # The generator of C200 has period 200; a walk of the cycle would
    # make 199 products.  The reduction step of d6-reduced is read off
    # the cosets too.
    cfg = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 200},
                                  "element": "point-mass:t^1",
                                  "series": {"2": "1/2", "5": "1/2"}})
    counts = count_calls(monkeypatch, "algebra.multiply")
    for cfg in (cfg, str(GOLDEN / "d6-reduced.json")):
        code, out, _ = run(capsys, "predict", "--config", cfg)
        assert code == 0, out
        assert counts["algebra.multiply"] == 0, cfg


def test_verify_fails_a_rotated_cycle(capsys, monkeypatch):
    # The mutant's row r is s^(r+1) H.  Its cycle still wraps under x and
    # matches the float powers as a set, so only the reduction check,
    # x * c == cycle[1], tells it apart from the true cycle.
    built = DynamicsProfile.__dict__["cosets"].func
    monkeypatch.setattr(DynamicsProfile, "cosets",
                        property(lambda prof: np.roll(built(prof), -1, axis=0)))
    code, out, _ = run(capsys, "verify", "--config",
                       str(GOLDEN / "s6-odd-support.json"))
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL reduction-inequalities (absorbed return_time=2)"]


C46_SQUARING = {"group": {"kind": "cyclic", "n": 46}, "element": "point-mass:t^25",
                "series": "pure-power:2"}


def _with_accumulation(rep, points):
    """rep with its accumulation set replaced by points."""
    fields = {name: getattr(rep, name) for name in LimitReport._fields}
    fields["accumulation"] = AccumulationSet(points)
    return LimitReport(**fields)


def test_verify_fails_a_pure_power_report_missing_a_point(tmp_path, capsys, monkeypatch):
    # t^25 generates C46, and 2^n mod 46 cycles through 11 residues, so
    # x -> x^2 settles on 11 point masses.  A report that drops one of them
    # is still visited at each of its points; the float orbit's cycle has 11.
    original = predict.pure_power_report
    monkeypatch.setattr(predict, "pure_power_report", lambda r, prof: _with_accumulation(
        original(r, prof), original(r, prof).accumulation.points[:-1]))
    code, out, _ = run(capsys, "verify", "--config", write_config(tmp_path, C46_SQUARING))
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL power-accumulation-oracle (11 empirical clusters)"]


def test_pure_power_oracle_spends_the_horizon_it_is_given(tmp_path, capsys):
    # Three steps of x -> x^2 close no cycle, so no budget of the oracle's
    # own may stand in for the horizon.
    cfg = write_config(tmp_path, C46_SQUARING)
    code, out, _ = run(capsys, "verify", "--config", cfg, "--horizon", "3")
    assert code == 2
    assert ("INCONCLUSIVE power-accumulation-oracle (no power repeated an earlier "
            "one bit for bit by step 3 (3 distinct powers))\n") in out
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 0
    assert "PASS power-accumulation-oracle (11 empirical clusters)\n" in out


def test_verify_fails_a_regular_report_with_an_unreached_point(capsys, monkeypatch):
    # Every step of the C12 divergent orbit lies near one of its two
    # accumulation points; a third point that no step comes near must fail.
    original = predict.analyze

    def analyze(p, prof):
        reg, ces = original(p, prof)
        g = prof.point.group
        bogus = uniform_on(ElementSet(g, tuple(range(g.order))))
        return _with_accumulation(reg, (*reg.accumulation.points, bogus)), ces

    monkeypatch.setattr(predict, "analyze", analyze)
    code, out, _ = run(capsys, "verify", "--config", str(GOLDEN / "c12-divergent.json"))
    assert code == 3
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL regular-oracle (2 subsequence classes vs 3 points)"]


def test_no_option_or_config_field_sets_a_tolerance(tmp_path, capsys):
    # The oracles compare at fixed tolerances, so a FAIL never comes from
    # a tolerance the caller chose.
    good = GOLDEN / "c10-regular.json"
    code, out, err = run(capsys, "verify", "--config", str(good), "--tol", "1e-8")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized argument '--tol'\n"
    loose = write_config(tmp_path, {**json.loads(good.read_text()), "tol": 1e-8})
    code, out, err = run(capsys, "verify", "--config", loose)
    assert (code, out) == (1, "")
    assert err == "error: config: unknown fields ['tol']\n"


def test_iterate_csv_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_10)
    code, out, _ = run(capsys, "iterate", "--config", cfg, "--horizon", "7")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["step"] + [f"t^{i}" for i in range(10)] + ["sup_delta"]
    assert len(rows) == 8
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(1, 8)]
    total = sum(float(v) for v in rows[3][1:11])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_scalar_csv_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_10)
    code, out, _ = run(capsys, "scalar", "--config", cfg, "--horizon", "12")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "a0", "sup", "tail_mass",
                       "avg_a0", "avg_sup", "avg_tail_mass"]
    assert len(rows) == 13
    assert float(rows[1][1]) == 0.0  # shifted series keeps a0 at zero


def test_scalar_json_is_written_in_row_batches_as_one_dump_would_be(capsys):
    # 600 rows span three batches of 256 in cli._json_rows.
    argv = ["--config", str(GOLDEN / "c6-irrational.json"), "--horizon", "600"]
    code, out, _ = run(capsys, "scalar", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _, csv_out, _ = run(capsys, "scalar", *argv)
    header, *rows = csv.reader(io.StringIO(csv_out))
    assert [[repr(row[k]) for k in header] for row in payload["trace"]] == rows


def test_scalar_makes_no_product_of_a_vanished_power(tmp_path, capsys, monkeypatch):
    # The state of p^[n] of the shifted series starts at t^(2^n), so from
    # n = 9 it is zero below K = 384: the last 191 of 200 steps form no
    # product.  c12-divergent's first power is odd and never squared a
    # zero state.
    shifted = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 2},
                                      "series": {"2": "11/39", "4": "1/3", "6": "5/13"}})
    calls = []
    convolve = np.convolve

    def counting_convolve(a, b):
        calls.append(1)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", counting_convolve)
    for cfg in (shifted, str(GOLDEN / "c12-divergent.json")):
        calls.clear()
        code, _, _ = run(capsys, "scalar", "--config", cfg)
        assert code == 0
        assert len(calls) == 21


def test_cesaro_reports_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "cesaro", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["sup_distance"] < 1e-4
    assert payload["report"]["cesaro"]["exact"]["t^3"] == "1/6"


def test_cesaro_on_a_pure_power_names_the_series_and_predict(capsys):
    code, out, err = run(capsys, "cesaro", "--config",
                         str(GOLDEN / "c12-pure-power.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error: series: ")
    assert "`predict`" in err and "pure_power_report" not in err


def test_verify_passes_on_examples(tmp_path, capsys):
    for example in (EXAMPLE_10, EXAMPLE_12):
        cfg = write_config(tmp_path, example)
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == 0
        assert "FAIL" not in out
        assert "PASS regular-oracle" in out
    code, out, _ = run(capsys, "verify", "--config",
                       write_config(tmp_path, EXAMPLE_10), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_critical_series_is_inconclusive(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"kind": "symmetric", "n": 3},
        "element": "interior-random:4",
        "series": {"0": "1/2", "2": "1/2"},
    })
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 2
    assert "INCONCLUSIVE regular-oracle" in out
    assert "FAIL" not in out


ZOO_SPECS = {**{f"cyclic-{n}": {"kind": "cyclic", "n": n} for n in range(2, 13)},
             "klein": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 2},
             "sym-3": {"kind": "symmetric", "n": 3},
             "dihedral-4": {"kind": "dihedral", "n": 4}}


def _weights(rng, keys):
    """keys -> "w/total" for integer weights w in 1..20."""
    weights = [rng.randint(1, WEIGHT_MAX) for _ in keys]
    return {key: f"{w}/{sum(weights)}" for key, w in zip(keys, weights)}


def test_verify_census_never_fails_a_closed_form(tmp_path, capsys):
    # 150 seeded configs on the zoo: elements of 1-3 points, series of 2-3
    # terms at exponents 0..6.  Every closed form is right, so an oracle
    # may run out of budget (exit 2) but must never FAIL (exit 3).
    zoo = build_zoo()
    assert {name: build_group(spec) for name, spec in ZOO_SPECS.items()} == zoo
    rng = random.Random(7)
    for i in range(150):
        name = rng.choice(sorted(zoo))
        labels = zoo[name].labels
        element = _weights(rng, rng.sample(labels, min(len(labels), rng.randint(1, 3))))
        exponents = rng.sample(range(7), rng.randint(2, 3))
        config = {"group": ZOO_SPECS[name], "element": element,
                  "series": _weights(rng, [str(e) for e in exponents])}
        code, out, _ = run(capsys, "verify", "--config",
                           write_config(tmp_path, config, f"census-{i}.json"))
        assert code in (0, 2), (config, out)


def old_class_step(horizon, pre, d, i):
    """The last step n <= horizon of subsequence class i, the steps n > pre
    with (n - pre - 1) % d == i; at most pre when the class has none."""
    n = horizon
    while n > pre and (n - pre - 1) % d != i:
        n -= 1
    return n


class RecordingTrace:
    """A stand-in orbit whose every step is point; read records the step
    n = index + 1 of each read."""

    def __init__(self, point):
        self.point = point
        self.read = []

    def __getitem__(self, m):
        self.read.append(m + 1)
        return self.point


def test_regular_oracle_reads_the_last_step_of_each_class():
    point = delta(make_cyclic(1), 0)
    closed = AccumulationSet((point,))
    for horizon in range(1, 25):
        for pre in range(0, 8):
            for d in range(1, 9):
                report = SimpleNamespace(
                    exists=False, accumulation=closed,
                    diagnostics={"cycle_d": d, "cycle_preperiod": pre})
                trace = RecordingTrace(point)
                status, _ = _regular_oracle(SimpleNamespace(horizon=horizon),
                                            trace, report)
                want = [old_class_step(horizon, pre, d, i) for i in range(d)]
                if min(want) <= pre:
                    # Some class has no step by horizon.
                    assert status == "inconclusive" and trace.read == []
                else:
                    assert status == "pass"
                    assert sorted(trace.read) == sorted(want)


def test_verify_class_without_a_step_is_inconclusive(capsys):
    # C12 worked example: preperiod 0 and d = 2, so at horizon 1 the second
    # subsequence class has no step yet; it needs horizon 2.
    code, out, _ = run(capsys, "verify", "--config",
                       str(GOLDEN / "c12-divergent.json"), "--horizon", "1",
                       "--format", "json")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["regular-oracle"] == {
        "name": "regular-oracle", "status": "inconclusive",
        "detail": "2 subsequence classes need horizon 2 for a step each, got 1"}
    code, out, _ = run(capsys, "verify", "--config",
                       str(GOLDEN / "c12-divergent.json"), "--horizon", "2")
    assert "INCONCLUSIVE regular-oracle" not in out


@pytest.mark.parametrize("config, horizon, code", [
    ("c12-divergent", 1, 2), ("c10-regular", 1, 3), ("c10-regular", 3, 3)])
def test_a_cesaro_window_short_of_a_cycle_is_inconclusive(config, horizon, code, capsys):
    # Both have preperiod 0; C12 has d = 2 and C10 d = 4, so the window of
    # every step up to the horizon holds fewer than d steps.  The C10
    # regular oracle still fails at these horizons, so its verify exits 3.
    path = str(GOLDEN / f"{config}.json")
    got, out, _ = run(capsys, "verify", "--config", path, "--horizon", str(horizon),
                      "--format", "json")
    assert got == code
    d = 2 if config == "c12-divergent" else 4
    assert {c["name"]: c for c in json.loads(out)["checks"]}["cesaro-oracle"] == {
        "name": "cesaro-oracle", "status": "inconclusive",
        "detail": f"{d} subsequence classes need a window of whole cycles past "
                  f"preperiod 0, got steps 1..{horizon}"}
    # The cesaro command still prints the mean of that window.
    assert run(capsys, "cesaro", "--config", path, "--horizon", str(horizon))[0] == 0


def test_a_cesaro_window_of_whole_cycles_is_compared(capsys):
    # At horizons 2 and 3 the C12 window is one whole cycle past preperiod
    # 0: too short for the tolerance, but its classes are balanced, so the
    # oracle compares it.
    path = str(GOLDEN / "c12-divergent.json")
    for horizon, dev in (("2", "1.67e-01"), ("3", "2.02e-02")):
        code, out, _ = run(capsys, "verify", "--config", path, "--horizon", horizon)
        assert code == 3 and f"FAIL cesaro-oracle (sup deviation {dev})" in out


def test_verify_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    # The orbit of this C24 interior point repeats bit for bit within a few
    # dozen steps, so past that repeat a longer horizon adds only steps read
    # from the stored cycle, and the Cesaro window is summed in blocks.
    cfg = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 24},
        "element": "interior-random:5",
        "series": {"0": "5/59", "1": "15/59", "5": "20/59", "6": "19/59"},
    })
    peaks = {}
    for horizon in ("10000", "10000", "100000"):
        tracemalloc.start()
        code, out, _ = run(capsys, "verify", "--config", cfg, "--horizon", horizon)
        peaks[horizon] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 0, out
    assert abs(peaks["100000"] - peaks["10000"]) < 64 * 1024, peaks


def test_exit_code_invalid_inputs(tmp_path, capsys):
    bad = write_config(tmp_path, {"group": {"kind": "cyclic", "n": 0}})
    assert run(capsys, "profile", "--config", bad)[0] == 1
    assert run(capsys, "profile", "--config",
               str(tmp_path / "missing.json"))[0] == 1
    pure1 = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 5},
        "element": "point-mass:t^1",
        "series": "pure-power:1"}, "pure1.json")
    assert run(capsys, "predict", "--config", pure1)[0] == 1
    pure2 = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 5},
        "element": "point-mass:t^1",
        "series": "pure-power:2"}, "pure2.json")
    assert run(capsys, "scalar", "--config", pure2)[0] == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert run(capsys, "profile", "--config", str(notjson))[0] == 1
    # Usage errors are invalid input too, never the "inconclusive" 2.
    good = str(GOLDEN / "c10-regular.json")
    for argv in ([], ["bogus", "--config", good], ["profile"],
                 ["profile", "--config", good, "--horizon", "abc"],
                 ["verify", "--config", good, "--seed", "x"],
                 ["iterate", "--config", good, "--format", "xml"],
                 ["profile", "--config", good, "--bogus", "1"],
                 ["profile", "--config", good, "--out"],
                 ["profile", "--conf", good]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_help_and_the_accepted_option_forms(capsys):
    for argv in (["--help"], ["-h"], ["predict", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: simplexdyn COMMAND --config PATH")
        assert all(name in out for name in ("limit-set", "--truncation K",
                                            "scalar truncation degree K"))
    good = str(GOLDEN / "c10-regular.json")
    spaced = run(capsys, "verify", "--config", good, "--horizon", "97")
    assert spaced[0] == 0
    assert run(capsys, "verify", f"--config={good}", "--horizon=97") == spaced
    assert run(capsys, "verify", "--config", good, "--horizon", "5",
               "--horizon", "97") == spaced
    assert run(capsys, "verify", "--config", good)[1] != spaced[1]


def test_config_read_errors_name_the_config(tmp_path, capsys):
    notjson = tmp_path / "bad.json"
    notjson.write_text("{oops")
    code, out, err = run(capsys, "profile", "--config", str(notjson))
    assert (code, out) == (1, "")
    assert err.startswith(
        f"error: config: {notjson} is not valid JSON: Expecting property name")
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "profile", "--config", str(missing))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: config: cannot read {missing}: [Errno 2]")
    listed = write_config(tmp_path, [EXAMPLE_10], "listed.json")
    for flags in ([], ["--seed", "3"], ["--horizon", "3"]):
        code, out, err = run(capsys, "predict", "--config", listed, *flags)
        assert (code, out, err) == (1, "", "error: config: expected a JSON object\n")


def test_pure_power_predict(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 5},
        "element": "point-mass:t^1",
        "series": "pure-power:2"})
    code, out, _ = run(capsys, "predict", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "pure-power"
    assert payload["report"]["exists"] is False
    assert len(payload["report"]["accumulation"]) == 4


def test_output_files_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["predict", "--config", cfg, "--out", str(first)]) == 0
    assert main(["predict", "--config", cfg, "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    reparsed = json.loads(first.read_text())
    assert reparsed == json.loads(json.dumps(reparsed))


def test_seed_override_changes_interior_element(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "group": {"kind": "cyclic", "n": 5},
        "element": "interior-random:7",
        "series": {"0": "1/2", "2": "1/2"},
    })
    _, base, _ = run(capsys, "iterate", "--config", cfg, "--horizon", "2")
    _, same, _ = run(capsys, "iterate", "--config", cfg, "--horizon", "2")
    _, other, _ = run(capsys, "iterate", "--config", cfg, "--horizon", "2",
                      "--seed", "9")
    assert base == same
    assert base != other


def test_seed_reseeds_only_an_interior_random_element(tmp_path, capsys):
    code, out, err = run(capsys, "predict", "--config",
                         str(GOLDEN / "c10-regular.json"), "--seed", "9")
    assert (code, out) == (1, "")
    assert "--seed: only an 'interior-random:<seed>' element takes a seed" in err
    cfg = write_config(tmp_path, {**EXAMPLE_10, "seed": 9})
    code, out, err = run(capsys, "predict", "--config", cfg)
    assert (code, out) == (1, "")
    assert "unknown fields ['seed']" in err


def test_iterate_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_10)
    code, out, _ = run(capsys, "iterate", "--config", cfg,
                       "--horizon", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [row["step"] for row in payload["trace"]] == [1, 2, 3]
    assert payload["trace"][0]["coeffs"] == {"t^3": 0.5, "t^7": 0.5}


def test_main_freezes_the_imported_heap_and_keeps_collecting(capsys):
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    code, _, _ = run(capsys, "profile", "--config", str(GOLDEN / "c10-regular.json"))
    assert code == 0
    assert gc.isenabled()
    assert gc.get_freeze_count() > 0

    class Node:
        pass

    a, b = Node(), Node()
    a.other, b.other = b, a
    alive = weakref.ref(a)
    del a, b
    gc.collect()
    assert alive() is None
