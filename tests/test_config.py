"""Experiment config parsing and validation."""

import json
from fractions import Fraction

import pytest

from simplexdyn import ConfigError, ExperimentConfig, ProbPoly, delta
from simplexdyn.config import (build_element, build_group, build_series,
                               random_interior_point)


def test_build_group_kinds():
    assert build_group({"kind": "cyclic", "n": 5}).order == 5
    assert build_group({"kind": "dihedral", "n": 3}).order == 6
    assert build_group({"kind": "symmetric", "n": 3}).order == 6
    prod = build_group({"kind": "product", "factors": [
        {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2},
        {"kind": "cyclic", "n": 3}]})
    assert prod.order == 12


def test_build_group_errors_name_the_field():
    with pytest.raises(ConfigError, match="group.kind"):
        build_group({"kind": "alien"})
    with pytest.raises(ConfigError, match="group.factors"):
        build_group({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}]})
    with pytest.raises(ConfigError, match="missing field"):
        build_group({"kind": "cyclic"})
    with pytest.raises(ConfigError):
        build_group("cyclic")


def test_build_group_table_file(tmp_path):
    path = tmp_path / "z2.csv"
    path.write_text("e,a\ne,a\na,e\n")
    g = build_group({"kind": "table-file", "path": str(path)})
    assert g.order == 2


def test_random_interior_point_is_deterministic():
    g = build_group({"kind": "cyclic", "n": 6})
    x = random_interior_point(g, 42)
    y = random_interior_point(g, 42)
    z = random_interior_point(g, 43)
    assert x == y
    assert x != z
    assert sum(x.coeffs) == 1
    assert all(c > 0 for c in x.coeffs)


def test_build_element_forms():
    g = build_group({"kind": "cyclic", "n": 4})
    assert build_element(g, "point-mass:t^2") == delta(g, 2)
    assert build_element(g, {"t^0": "1/2", "t^1": "1/2"}).coeffs[0] == Fraction(1, 2)
    assert build_element(g, "interior-random:5") == random_interior_point(g, 5)
    with pytest.raises(ConfigError, match="element"):
        build_element(g, "point-mass:t^9")
    with pytest.raises(ConfigError):
        build_element(g, "interior-random:x")
    with pytest.raises(ConfigError):
        build_element(g, 3)


def test_build_series_forms():
    assert build_series("pure-power:3") == ProbPoly.pure_power(3)
    p = build_series({"0": "1/3", "2": "2/3"})
    assert dict(p.terms) == {0: Fraction(1, 3), 2: Fraction(2, 3)}
    with pytest.raises(ConfigError):
        build_series("pure-power:-1")
    with pytest.raises(ConfigError):
        build_series({"0": "1/3", "2": "1/3"})
    with pytest.raises(ConfigError):
        build_series("mystery")


def test_from_dict_full_round():
    cfg = ExperimentConfig.from_dict({
        "group": {"kind": "cyclic", "n": 12},
        "element": "point-mass:t^1",
        "series": {"3": "1/2", "7": "1/2"},
        "horizon": 100,
        "tol": 1e-6,
    })
    assert cfg.group.order == 12
    assert cfg.require_element() == delta(cfg.group, 1)
    assert cfg.require_series().shift == 3
    assert cfg.horizon == 100 and cfg.tol == 1e-6


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown"):
        ExperimentConfig.from_dict({
            "group": {"kind": "cyclic", "n": 2}, "surprise": 1})
    # The power oracle reads the cycle its orbit closes; it has no burn-in.
    with pytest.raises(ConfigError, match="unknown fields \\['burn_in'\\]"):
        ExperimentConfig.from_dict({
            "group": {"kind": "cyclic", "n": 2}, "burn_in": 100})


def test_from_dict_validates_numbers():
    base = {"group": {"kind": "cyclic", "n": 2}}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**base, "horizon": 0})
    for tol in (-1.0, 0.0, "nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="tol"):
            ExperimentConfig.from_dict({**base, "tol": tol})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({**base, "truncation": 0})
    # Bools and fractional or non-finite floats are not integers.
    for name, value in (("horizon", 2.5), ("horizon", True), ("horizon", float("inf")),
                        ("truncation", 64.5), ("truncation", False)):
        with pytest.raises(ConfigError, match=f"{name}: expected an integer"):
            ExperimentConfig.from_dict({**base, name: value})
    for n in (True, 2.5, float("nan")):
        with pytest.raises(ConfigError, match="group.n: expected an integer"):
            ExperimentConfig.from_dict({"group": {"kind": "cyclic", "n": n}})
    with pytest.raises(ConfigError, match="tol: expected a number"):
        ExperimentConfig.from_dict({**base, "tol": True})
    assert ExperimentConfig.from_dict({**base, "horizon": 3.0}).horizon == 3


def test_require_helpers_raise_without_sections():
    cfg = ExperimentConfig.from_dict({"group": {"kind": "cyclic", "n": 2}})
    with pytest.raises(ConfigError):
        cfg.require_element()
    with pytest.raises(ConfigError):
        cfg.require_series()


def test_from_file_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(str(path))
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"group": {"kind": "cyclic", "n": 3}}))
    assert ExperimentConfig.from_file(str(good)).group.order == 3
