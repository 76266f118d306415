"""The immutable record types: frozen fields, equality, hashing and repr.

Each case builds a fresh instance per call, so two calls give equal but
distinct objects.  Value records compare equal only to an instance of
the same class with the same field tuple and hash as that tuple;
CoeffState compares by identity; FiniteGroup compares its table.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import simplexdyn
from simplexdyn import (AccumulationSet, AlgebraElement, CoeffState,
                        DynamicsProfile, ElementSet, ExperimentConfig,
                        FiniteGroup, LimitReport, ModMReport, ProbPoly,
                        ResidueCycle, SimplexPoint, limit_set, make_cyclic,
                        profile, regularity_mod_m, residue_cycle)
from simplexdyn.predict import analyze

C3 = "FiniteGroup(order=3, identity='t^0')"


def _point() -> SimplexPoint:
    return SimplexPoint(make_cyclic(3), (Fraction(1, 2), 0, Fraction(1, 2)))


def _series() -> ProbPoly:
    return ProbPoly(((2, Fraction(1, 2)), (0, "1/2")))


# (class, factory, fields, repr, equality: "value" | "identity" | "table")
CASES = [
    (AlgebraElement,
     lambda: AlgebraElement(make_cyclic(3), (Fraction(1, 2), 0, Fraction(1, 2))),
     ("group", "support", "u", "den"), "AlgebraElement(t^0: 1/2, t^2: 1/2)", "value"),
    (SimplexPoint, _point, ("group", "support", "u", "den"),
     "SimplexPoint(t^0: 1/2, t^2: 1/2)", "value"),
    (FiniteGroup, lambda: make_cyclic(3),
     ("order", "labels", "table", "identity", "inverses"), C3, "table"),
    (ElementSet, lambda: ElementSet(make_cyclic(3), (2, 0)), ("group", "members"),
     f"ElementSet(group={C3}, members=(0, 2))", "value"),
    (ProbPoly, _series, ("terms",),
     "ProbPoly(terms=((0, Fraction(1, 2)), (2, Fraction(1, 2))))", "value"),
    (CoeffState,
     lambda: CoeffState(n=1, coeffs=np.array([Fraction(1, 2), Fraction(1, 2),
                                              Fraction(0)], dtype=object),
                        tail_mass=Fraction(0)),
     ("n", "coeffs", "tail_mass"),
     "CoeffState(n=1, coeffs=array([Fraction(1, 2), Fraction(1, 2), Fraction(0, 1)], "
     "dtype=object), tail_mass=Fraction(0, 1))", "identity"),
    (DynamicsProfile, lambda: profile(_point()),
     ("return_time", "period", "support_group", "idempotent", "point"),
     f"DynamicsProfile(return_time=1, period=1, support_group=ElementSet(group={C3}, "
     "members=(0, 1, 2)), idempotent=SimplexPoint(t^0: 1/3, t^1: 1/3, t^2: 1/3))",
     "value"),
    (AccumulationSet, lambda: limit_set(profile(_point())), ("points",),
     "AccumulationSet(points=(SimplexPoint(t^0: 1/3, t^1: 1/3, t^2: 1/3),))", "value"),
    (ResidueCycle, lambda: residue_cycle(2, 6),
     ("modulus", "base", "preperiod", "residues"),
     "ResidueCycle(modulus=6, base=2, preperiod=0, residues=(2, 4))", "value"),
    (ModMReport, lambda: regularity_mod_m(_series(), 2),
     ("m", "series_group", "cycle", "classes", "cesaro", "a"),
     "ModMReport(m=2, series_group=(0,), cycle=ResidueCycle(modulus=2, base=0, "
     "preperiod=0, residues=(0,)), classes=(0,), cesaro=(Fraction(1, 1),), "
     "a=Fraction(1, 1))",
     "value"),
    (LimitReport, lambda: analyze(_series(), profile(_point()))[0],
     ("digest", "profile", "reduction_steps", "exists", "limit", "accumulation",
      "cesaro", "a", "scalar_limits", "diagnostics"),
     "LimitReport(digest={'group_order': 3, 'element': {'t^0': '1/2', 't^2': '1/2'}, "
     "'series': '1/2*t^0 + 1/2*t^2'}, profile=DynamicsProfile(return_time=1, "
     f"period=1, support_group=ElementSet(group={C3}, members=(0, 1, 2)), "
     "idempotent=SimplexPoint(t^0: 1/3, t^1: 1/3, t^2: 1/3)), reduction_steps=0, "
     "exists=True, limit=SimplexPoint(t^0: 1), accumulation=AccumulationSet("
     "points=(SimplexPoint(t^0: 1),)), "
     "cesaro=SimplexPoint(t^0: 1), a=1.0, scalar_limits=(1.0,), "
     "diagnostics={'quotient_modulus': 1, 'cycle_preperiod': 0, 'cycle_d': 1, "
     "'cycle_residues': [0], 'extinction_value': 1.0, 'oracle_horizon': 500})",
     "value"),
    (ExperimentConfig,
     lambda: ExperimentConfig.from_dict({"group": {"kind": "cyclic", "n": 3},
                                         "element": "point-mass:t^1", "horizon": 5}),
     ("group", "element", "series", "horizon", "truncation"),
     f"ExperimentConfig(group={C3}, element=SimplexPoint(t^1: 1), series=None, "
     "horizon=5, truncation=None)", "value"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, make, fields, text, equality", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make, fields, text, equality):
    obj = make()
    assert type(obj) is cls
    for name in fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


@pytest.mark.parametrize("cls, make, fields, text, equality", CASES, ids=IDS)
def test_equality_and_hashing(cls, make, fields, text, equality):
    a, b = make(), make()
    assert a is not b and a == a
    assert a.__eq__(object()) is NotImplemented
    if equality == "identity":
        assert a != b
        assert hash(a) == object.__hash__(a)
    elif equality == "table":
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.order, a.identity, a.labels))
    else:
        assert a == b and not a != b
        if cls is LimitReport:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@pytest.mark.parametrize("cls, make, fields, text, equality", CASES, ids=IDS)
def test_repr_is_unchanged(cls, make, fields, text, equality):
    assert repr(make()) == text


def test_a_simplex_point_never_equals_an_algebra_element():
    x = SimplexPoint(make_cyclic(2), (Fraction(1, 2), Fraction(1, 2)))
    y = AlgebraElement(x.group, x.coeffs)
    assert x.coeffs == y.coeffs and x.group is y.group
    assert x != y and y != x
    assert x == SimplexPoint(x.group, x.coeffs)


def test_records_differ_by_any_field():
    g = make_cyclic(3)
    assert ElementSet(g, (0,)) != ElementSet(g, (0, 1))
    assert ElementSet(g, (0,)) != ElementSet(make_cyclic(4), (0,))
    assert residue_cycle(2, 6) != residue_cycle(4, 6)
    assert _series() != ProbPoly.pure_power(2)


def test_importing_the_cli_does_not_load_dataclasses():
    # The package imports its modules on first use, so the star import
    # loads every one of them next to the cli.
    package = Path(simplexdyn.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, simplexdyn.cli, simplexdyn.oracles\nfrom simplexdyn import *\n"
            "print(*sorted(name for name in sys.modules\n"
            "              if name.startswith('simplexdyn.')))\n"
            "print('dataclasses' in sys.modules)\n")
    loaded, dataclasses = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True,
        text=True).stdout.splitlines()
    assert loaded.split() == sorted(f"simplexdyn.{path.stem}"
                                    for path in package.glob("*.py")
                                    if path.stem != "__init__")
    assert dataclasses == "False"
