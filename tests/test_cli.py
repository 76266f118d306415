"""Command-line entry points: outputs, exit codes, determinism."""

import csv
import gc
import io
import json
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from simplexdyn import AccumulationSet, delta, make_cyclic, parse_rational
from simplexdyn.cli import _regular_oracle, main

from conftest import count_calls

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


def test_a_limit_set_mismatch_fails_limit_set_and_verify(capsys):
    # No float cluster of the S4 interior orbit lies within 1e-300 of the
    # closed form, so both commands report the power oracle's failure.
    config = str(GOLDEN / "s4-supercritical.json")
    code, out, _ = run(capsys, "limit-set", "--config", config, "--tol", "1e-300")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "mismatch"
    assert payload["matched"] is False
    assert len(payload["empirical"]) == 1
    code, out, _ = run(capsys, "verify", "--config", config, "--tol", "1e-300")
    assert code == 3
    assert "FAIL limit-set-oracle (1 empirical clusters)\n" in out
    code, out, _ = run(capsys, "verify", "--config", config, "--tol", "1e-300",
                       "--format", "json")
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
    cfg = write_config(tmp_path, S4_INTERIOR)
    counts = count_calls(monkeypatch, "dynamics.profile")
    code, out, _ = run(capsys, "predict", "--config", cfg)
    assert code == 0, out
    assert counts["dynamics.profile"] <= 2


def test_pure_power_verify_walks_the_cycle_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, "algebra.multiply", "dynamics.profile")
    code, out, _ = run(capsys, "verify", "--config",
                       str(GOLDEN / "c12-pure-power.json"))
    assert code == 0, out
    # Return time 4, period 2: 3 multiplies for profile consistency and
    # the absorption step, 3 for the power rank, 1 for the cycle and 1 for
    # its wrap check.  A second walk of the cycle would make 9.
    assert counts["algebra.multiply"] == 8
    assert counts["dynamics.profile"] <= 2


def test_verify_rejects_a_nan_tolerance(capsys):
    # Every deviation compares False against NaN, so a NaN tol once made
    # the regular oracle fail while the limit-set oracle passed.
    code, out, err = run(capsys, "verify", "--config",
                         str(GOLDEN / "c10-regular.json"), "--tol", "nan")
    assert code == 1
    assert out == ""
    assert "tol: must be positive and finite, got nan" in err


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


def test_cesaro_reports_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, EXAMPLE_12)
    code, out, _ = run(capsys, "cesaro", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["sup_distance"] < 1e-4
    assert payload["report"]["cesaro"]["exact"]["t^3"] == "1/6"


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
    closed = AccumulationSet(points=(point,), source="closed_form")
    for horizon in range(1, 25):
        for pre in range(0, 8):
            for d in range(1, 9):
                report = SimpleNamespace(
                    exists=False, accumulation=closed,
                    diagnostics={"cycle_d": d, "cycle_preperiod": pre})
                trace = RecordingTrace(point)
                status, _ = _regular_oracle(SimpleNamespace(horizon=horizon, tol=None),
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
