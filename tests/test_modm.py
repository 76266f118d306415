"""Cyclic-quotient analysis: residue cycles, existence, Cesaro averages."""

from fractions import Fraction

import pytest

from simplexdyn import (ProbPoly, PurePowerError, cesaro_mod_m, delta,
                        extinction_fraction, iterate_mod_m, make_cyclic,
                        power, regularity_mod_m, residue_cycle, scale, add,
                        series_group, sup_distance)

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
    c = residue_cycle(2, 12)  # 2, 4, 8, 4, 8, ...
    assert c.d == 2
    assert c.class_of(2) == 0 and c.class_of(3) == 1 and c.class_of(4) == 0
    with pytest.raises(ValueError):
        c.class_of(1)  # preperiod indices have no cycle class


def test_series_group_examples():
    assert sorted(series_group(EXAMPLE_SERIES, 12).members) == [0, 4, 8]
    assert sorted(series_group(EXAMPLE_SERIES, 10).members) == [0, 2, 4, 6, 8]
    with pytest.raises(PurePowerError):
        series_group(ProbPoly.pure_power(3), 12)


def test_divergent_example_mod_12():
    rep = regularity_mod_m(EXAMPLE_SERIES, 12)
    assert not rep.exists
    assert rep.limit is None
    assert rep.cycle.residues == (3, 9)
    assert len(rep.accumulation) == 2
    first, second = rep.accumulation.points
    for residue, pt in ((3, first), (9, second)):
        expected = {residue % 12, (residue + 4) % 12, (residue + 8) % 12}
        assert {i for i, c in enumerate(pt.coeffs) if c} == expected
        assert all(c in (Fraction(0), Fraction(1, 3)) for c in pt.coeffs)
    assert rep.a == 0
    ces = cesaro_mod_m(EXAMPLE_SERIES, 12)
    assert ces.coeffs == tuple(Fraction(1, 6) if i % 2 else Fraction(0)
                               for i in range(12))


def test_regular_example_mod_10():
    rep = regularity_mod_m(EXAMPLE_SERIES, 10)
    assert rep.exists
    assert rep.cycle.residues == (3, 9, 7, 1)
    assert rep.limit.coeffs == tuple(Fraction(1, 5) if i % 2 else Fraction(0)
                                     for i in range(10))
    assert len(rep.accumulation) == 1


def test_trivial_modulus():
    rep = regularity_mod_m(EXAMPLE_SERIES, 1)
    assert rep.exists
    assert rep.limit.coeffs == (Fraction(1),)


def test_subcritical_series_dies_out():
    p = ProbPoly(((0, Fraction(3, 4)), (2, Fraction(1, 4))))
    rep = regularity_mod_m(p, 6)
    assert rep.a == 1
    assert rep.exists
    assert rep.limit == delta(make_cyclic(6), 0)


def test_supercritical_extinction_mass_sits_at_identity():
    # p = 1/4 + 3t^2/4 has extinction value 1/3; mod 4 the survivors
    # spread over the even residues while a third of the mass dies at 0
    p = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    rep = regularity_mod_m(p, 4)
    assert rep.a == pytest.approx(1 / 3, abs=1e-15)
    assert rep.exists
    assert rep.limit.coeffs[0] == Fraction(1, 3) + Fraction(1, 3)
    assert rep.limit.coeffs[2] == Fraction(1, 3)
    assert rep.limit.coeffs[1] == rep.limit.coeffs[3] == 0


def test_duplicate_cosets_are_deduplicated():
    # offsets generate {0, 3, 6} mod 9 while the residues of 2^n walk
    # through six classes that cover only two distinct cosets
    p = ProbPoly(((2, HALF), (5, HALF)))
    rep = regularity_mod_m(p, 9)
    assert rep.cycle.d == 6
    assert not rep.exists
    assert len(rep.accumulation) == 2
    ces = cesaro_mod_m(p, 9)
    assert ces.coeffs == tuple(Fraction(0) if i % 3 == 0 else Fraction(1, 6)
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
    trace = iterate_mod_m(p, 10, 6)
    y = delta(g, 1)
    for k in range(6):
        y = add(scale(HALF, power(y, 3)), scale(HALF, power(y, 7)))
        assert sup_distance(y, trace[k]) < 1e-12


def test_oracle_confirms_mod_10_limit():
    rep = regularity_mod_m(EXAMPLE_SERIES, 10)
    trace = iterate_mod_m(EXAMPLE_SERIES, 10, 500)
    assert sup_distance(trace[-1], rep.limit) < 1e-8

