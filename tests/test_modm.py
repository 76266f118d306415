"""Cyclic-quotient analysis: residue cycles, existence, Cesaro averages."""

import itertools
from fractions import Fraction

import pytest

from simplexdyn import (InternalConsistencyError, ModMReport, ProbPoly,
                        SimplexPoint, add, delta, extinction_fraction,
                        generated_subgroup, iterate_map, make_cyclic, power,
                        regularity_mod_m, residue_cycle, scale, series_group,
                        sup_distance)
from simplexdyn import modm

HALF = Fraction(1, 2)
EXAMPLE_SERIES = ProbPoly(((3, HALF), (7, HALF)))


def test_residue_cycle_pinned_values():
    c = residue_cycle(3, 12)
    assert (c.preperiod, c.residues) == (0, (3, 9))
    c = residue_cycle(3, 10)
    assert (c.preperiod, c.residues) == (0, (3, 9, 7, 1))
    c = residue_cycle(2, 12)
    assert (c.preperiod, c.residues) == (1, (4, 8))
    c = residue_cycle(1, 7)
    assert (c.preperiod, c.residues) == (0, (1,))
    c = residue_cycle(5, 1)
    assert (c.preperiod, c.residues) == (0, (0,))


def test_residue_cycle_class_of():
    # Past the preperiod, trace index n lies in subsequence class
    # (n - preperiod - 1) % d, the formula the regular oracle uses.
    c = residue_cycle(2, 12)  # 2, 4, 8, 4, 8, ...
    assert c.d == 2
    for n in range(c.preperiod + 1, 20):
        assert pow(2, n, 12) == c.residues[(n - c.preperiod - 1) % c.d]


def test_series_group_examples():
    assert series_group(EXAMPLE_SERIES, 12) == (0, 4, 8)
    assert series_group(EXAMPLE_SERIES, 10) == (0, 2, 4, 6, 8)
    assert series_group(ProbPoly.pure_power(3), 12) == (0,)


# Offset sets of p0 = p / t^shift; the first offset is always 0, and (0,)
# is a pure power.
OFFSET_SETS = [(0,), (0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 2, 3),
               (0, 4, 6), (0, 6, 10, 15), (0, 12), (0, 9, 21), (0, 40), (0, 57)]


def _series(offsets, shift=0):
    if len(offsets) == 1:
        return ProbPoly.pure_power(shift + 2)
    w = Fraction(1, len(offsets))
    return ProbPoly(tuple((shift + q, w) for q in offsets))


@pytest.mark.parametrize("offsets", OFFSET_SETS, ids=str)
def test_series_group_is_the_closure_in_the_cayley_table(offsets):
    p = _series(offsets)
    for m in range(1, 41):
        sub = generated_subgroup(make_cyclic(m), [q % m for q in offsets])
        assert series_group(p, m) == sub.members, m


def _parent_points(p, m):
    """The quotient points as the Cayley-table construction built them: for
    each cycle residue, uniform on res + G plus (delta_0 - c_G) * a; the
    distinct ones in order, and the column means over all d of them."""
    members = generated_subgroup(make_cyclic(m),
                                 [q % m for q in p.offsets]).members
    a = extinction_fraction(p)
    points = []
    for res in residue_cycle(p.shift, m).residues:
        coeffs = [Fraction(0)] * m
        for g in members:
            coeffs[(res + g) % m] += Fraction(1, len(members))
        coeffs[0] += a
        for g in members:
            coeffs[g] -= a / len(members)
        points.append(tuple(coeffs))
    distinct = tuple(dict.fromkeys(points))
    cesaro = tuple(sum(col) / len(points) for col in zip(*points))
    return distinct, cesaro


def _points(rep):
    """The m residue masses of each accumulation point."""
    return tuple(map(rep.masses, rep.weights[:-1]))


def _cesaro(rep):
    return rep.masses(rep.weights[-1])


@pytest.mark.parametrize("offsets", OFFSET_SETS, ids=str)
def test_quotient_points_match_the_coset_construction(offsets):
    if len(offsets) == 1:
        series = [ProbPoly.pure_power(r) for r in (2, 3, 4)]
    else:
        # uniform weights, and for two terms also 1/4, 3/4 (a = 1/3 unshifted)
        series = [_series(offsets, shift) for shift in range(4)]
        if len(offsets) == 2:
            series += [ProbPoly(((shift, Fraction(1, 4)),
                                 (shift + offsets[1], Fraction(3, 4))))
                       for shift in range(4)]
    for p, m in itertools.product(series, (1, 5, 9, 12, 24, 35)):
        rep = regularity_mod_m(p, m)
        accumulation, cesaro = _parent_points(p, m)
        assert _points(rep) == accumulation, (str(p), m)
        assert _cesaro(rep) == cesaro, (str(p), m)
        assert rep.exists == (len(accumulation) == 1)


def test_a_closure_that_disagrees_is_a_consistency_failure(monkeypatch):
    monkeypatch.setattr(modm, "_closure", lambda steps, m: tuple(range(m)))
    with pytest.raises(InternalConsistencyError, match="disagrees with closure"):
        series_group(EXAMPLE_SERIES, 12)


def test_an_off_simplex_quotient_point_is_a_consistency_failure(monkeypatch):
    # a above 1 pushes the coefficients off the identity's coset negative
    monkeypatch.setattr(modm, "extinction_fraction", lambda p: Fraction(2))
    with pytest.raises(InternalConsistencyError, match="off the simplex"):
        regularity_mod_m(ProbPoly(((0, HALF), (2, HALF))), 4)
    monkeypatch.undo()
    rep = regularity_mod_m(EXAMPLE_SERIES, 2)
    assert rep.exists and rep.classes == (1,)
    fields = dict(zip(rep._fields, rep._values()))
    # a weight per class, nonnegative, summing to 1, and a > 0 only on the
    # single class 0
    for classes, cesaro, a in (((1, 0), (Fraction(1),), 0),
                               ((0, 1), (Fraction(3, 2), -HALF), 0),
                               ((0, 1), (HALF, Fraction(1)), 0),
                               ((1,), (Fraction(1),), HALF)):
        with pytest.raises(InternalConsistencyError, match="off the simplex"):
            ModMReport(**{**fields, "classes": classes, "cesaro": cesaro, "a": a})
    half = ModMReport(**{**fields, "classes": (0, 1), "cesaro": (HALF, HALF)})
    assert _cesaro(half) == (HALF, HALF)
    assert ModMReport(**{**fields, "classes": (0,), "a": HALF}).masses({0: 1}) == (1, 0)


def test_divergent_example_mod_12():
    rep = regularity_mod_m(EXAMPLE_SERIES, 12)
    assert not rep.exists
    assert rep.cycle.residues == (3, 9)
    assert len(rep.classes) == 2
    first, second = _points(rep)
    for residue, pt in ((3, first), (9, second)):
        expected = {residue % 12, (residue + 4) % 12, (residue + 8) % 12}
        assert {i for i, c in enumerate(pt) if c} == expected
        assert all(c in (Fraction(0), Fraction(1, 3)) for c in pt)
    assert rep.a == 0
    assert _cesaro(rep) == tuple(Fraction(1, 6) if i % 2 else Fraction(0)
                                 for i in range(12))


def test_regular_example_mod_10():
    rep = regularity_mod_m(EXAMPLE_SERIES, 10)
    assert rep.exists
    assert rep.cycle.residues == (3, 9, 7, 1)
    assert _points(rep) == (tuple(Fraction(1, 5) if i % 2 else Fraction(0)
                                  for i in range(10)),)


def test_trivial_modulus():
    rep = regularity_mod_m(EXAMPLE_SERIES, 1)
    assert rep.exists
    assert _points(rep) == ((Fraction(1),),)


def test_subcritical_series_dies_out():
    p = ProbPoly(((0, Fraction(3, 4)), (2, Fraction(1, 4))))
    rep = regularity_mod_m(p, 6)
    assert rep.a == 1
    assert rep.exists
    assert _points(rep) == (delta(make_cyclic(6), 0).coeffs,)


def test_supercritical_extinction_mass_sits_at_identity():
    # p = 1/4 + 3t^2/4 has extinction value 1/3; mod 4 the survivors
    # spread over the even residues while a third of the mass dies at 0
    p = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    rep = regularity_mod_m(p, 4)
    assert rep.a == pytest.approx(1 / 3, abs=1e-15)
    assert rep.exists
    (limit,) = _points(rep)
    assert limit[0] == Fraction(1, 3) + Fraction(1, 3)
    assert limit[2] == Fraction(1, 3)
    assert limit[1] == limit[3] == 0


def test_duplicate_cosets_are_deduplicated():
    # offsets generate {0, 3, 6} mod 9 while the residues of 2^n walk
    # through six classes that cover only two distinct cosets
    p = ProbPoly(((2, HALF), (5, HALF)))
    rep = regularity_mod_m(p, 9)
    assert rep.cycle.d == 6
    assert not rep.exists
    assert len(rep.classes) == 2
    assert _cesaro(rep) == tuple(Fraction(0) if i % 3 == 0 else Fraction(1, 6)
                                 for i in range(9))


def test_extinction_fraction_branches():
    assert extinction_fraction(ProbPoly(((1, HALF), (3, HALF)))) == 0
    assert extinction_fraction(ProbPoly(((0, HALF), (2, HALF)))) == 1
    assert extinction_fraction(ProbPoly(((0, HALF), (1, HALF)))) == 1
    sup = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    assert extinction_fraction(sup) == Fraction(1, 3)


def test_iterate_mod_m_matches_exact_composition():
    p = EXAMPLE_SERIES
    g = make_cyclic(10)
    y = delta(g, 1)
    trace = iterate_map(p, y, 6)
    for k in range(6):
        y = add(scale(HALF, power(y, 3)), scale(HALF, power(y, 7)))
        assert sup_distance(y, trace[k]) < 1e-12


def test_oracle_confirms_mod_10_limit():
    rep = regularity_mod_m(EXAMPLE_SERIES, 10)
    g = make_cyclic(10)
    trace = iterate_map(EXAMPLE_SERIES, delta(g, 1), 500)
    (limit,) = _points(rep)
    assert sup_distance(trace[-1], SimplexPoint(g, limit)) < 1e-8

