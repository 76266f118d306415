"""Whole-group limit prediction and its brute-force confirmation."""

import random
from fractions import Fraction

import numpy as np
import pytest

from simplexdyn import (InternalConsistencyError, ProbPoly, PurePowerError,
                        SimplexPoint, analyze,
                        cesaro_limit, delta, empirical_cesaro, iterate_map,
                        make_cyclic, make_dihedral, make_symmetric, multiply, power,
                        profile, pure_power_report, regular_limit,
                        residue_cycle, simplex_from_map, sup_distance,
                        uniform_on)
from simplexdyn.algebra import ITERATION_SLACK_RATE, OrbitTrace
from simplexdyn.groups import generated_subgroup
from simplexdyn.modm import ModMReport, regularity_mod_m
from simplexdyn import predict
from simplexdyn.predict import _synthesize

from conftest import (count_calls, random_prob_poly, random_simplex_point,
                      recorded_mass_checks)
from test_modm import _parent_points

HALF = Fraction(1, 2)
EXAMPLE_SERIES = ProbPoly(((3, HALF), (7, HALF)))


def test_regular_example_cyclic_10():
    g = make_cyclic(10)
    rep = regular_limit(EXAMPLE_SERIES, delta(g, 1))
    assert rep.exists
    assert rep.limit.coeffs == tuple(Fraction(1, 5) if i % 2 else Fraction(0)
                                     for i in range(10))
    trace = iterate_map(EXAMPLE_SERIES, delta(g, 1), 500)
    assert sup_distance(trace[-1], rep.limit) < 1e-8
    assert rep.scalar_limits == pytest.approx(
        [0.0, 0.2, 0.0, 0.2, 0.0, 0.2, 0.0, 0.2, 0.0, 0.2])


def test_divergent_example_cyclic_12():
    g = make_cyclic(12)
    x = delta(g, 1)
    rep = regular_limit(EXAMPLE_SERIES, x)
    assert not rep.exists and rep.limit is None
    assert rep.diagnostics["cycle_d"] == 2
    assert rep.diagnostics["cycle_residues"] == [3, 9]
    assert len(rep.accumulation) == 2
    trace = iterate_map(EXAMPLE_SERIES, x, 500)
    # odd steps approach one accumulation point, even steps the other
    d0 = min(sup_distance(trace[-1], pt) for pt in rep.accumulation.points)
    d1 = min(sup_distance(trace[-2], pt) for pt in rep.accumulation.points)
    assert d0 < 1e-7 and d1 < 1e-7
    assert sup_distance(trace[-1], trace[-2]) > 1e-3


def test_cesaro_example_cyclic_12():
    g = make_cyclic(12)
    x = delta(g, 1)
    rep = cesaro_limit(EXAMPLE_SERIES, x)
    assert rep.exists
    assert rep.cesaro.coeffs == tuple(Fraction(1, 6) if i % 2 else Fraction(0)
                                      for i in range(12))
    avg = empirical_cesaro(iterate_map(EXAMPLE_SERIES, x, 2000), burn_in=1000)
    assert sup_distance(avg, rep.cesaro) < 1e-5


def test_full_support_interior_limit():
    g = make_symmetric(3)
    x = random_simplex_point(g, random.Random(7), support_size=6)
    p = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    rep = regular_limit(p, x)
    assert rep.exists
    # limit = (1 - a) uniform + a at the identity, a = 1/3
    third = Fraction(1, 3)
    want = tuple(Fraction(2, 3) * Fraction(1, 6)
                 + (third if i == g.identity else Fraction(0))
                 for i in range(6))
    assert rep.limit.coeffs == want
    trace = iterate_map(p, x, 400)
    assert sup_distance(trace[-1], rep.limit) < 1e-9


def test_critical_series_dies_out_slowly():
    # mean exponent exactly 1: the closed form is exact while float
    # iterates crawl toward it at rate 1/n, so the oracle only checks
    # the direction of travel
    g = make_symmetric(3)
    x = random_simplex_point(g, random.Random(11), support_size=6)
    p = ProbPoly(((0, HALF), (2, HALF)))
    rep = regular_limit(p, x)
    assert rep.exists
    assert rep.limit == delta(g, g.identity)
    assert rep.diagnostics["extinction_value"] == 1.0
    trace = iterate_map(p, x, 2000)
    d500 = sup_distance(trace[499], rep.limit)
    d2000 = sup_distance(trace[-1], rep.limit)
    assert d2000 < 3e-3
    assert d2000 < d500


def test_subcritical_series_on_point_mass():
    g = make_cyclic(6)
    p = ProbPoly(((0, Fraction(3, 4)), (3, Fraction(1, 4))))
    rep = regular_limit(p, delta(g, 1))
    assert rep.exists
    assert rep.limit == delta(g, 0)
    trace = iterate_map(p, delta(g, 1), 300)
    assert sup_distance(trace[-1], rep.limit) < 1e-9


def test_reduction_step_recorded():
    # support {t^1, t^2} in Z_4 is unstable (return time 2, period 1);
    # one absorption step lands on the uniform point
    g = make_cyclic(4)
    x = simplex_from_map(g, {"t^1": "1/2", "t^2": "1/2"})
    p = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    rep = regular_limit(p, x)
    assert rep.reduction_steps == 1
    assert rep.exists
    want = tuple(Fraction(2, 3) * Fraction(1, 4)
                 + (Fraction(1, 3) if i == 0 else Fraction(0))
                 for i in range(4))
    assert rep.limit.coeffs == want
    trace = iterate_map(p, x, 400)
    assert sup_distance(trace[-1], rep.limit) < 1e-7


def test_pure_power_cycle_on_cyclic_5():
    g = make_cyclic(5)
    rep = pure_power_report(2, profile(delta(g, 1)))
    # powers of 2 mod 5 cycle through 2, 4, 3, 1
    assert [pt for pt in rep.accumulation.points] == [
        delta(g, 2), delta(g, 4), delta(g, 3), delta(g, 1)]
    assert rep.cesaro.coeffs == (Fraction(0), Fraction(1, 4), Fraction(1, 4),
                                 Fraction(1, 4), Fraction(1, 4))
    assert not rep.exists
    assert rep.diagnostics["divisibility_singleton"] is False


def test_pure_power_singleton_on_cyclic_3():
    g = make_cyclic(3)
    rep = pure_power_report(4, profile(delta(g, 1)))
    assert rep.exists
    assert rep.limit == delta(g, 1)
    assert rep.diagnostics["divisibility_singleton"] is True


def test_pure_power_interior_point():
    g = make_symmetric(3)
    x = random_simplex_point(g, random.Random(3), support_size=6)
    rep = pure_power_report(3, profile(x))
    assert rep.exists
    assert rep.limit == uniform_on(generated_subgroup(g, tuple(range(6))))


def test_the_quotient_solve_builds_no_group(monkeypatch):
    g = make_cyclic(60)
    x = simplex_from_map(g, {"t^1": "1/2", "t^7": "1/2"})
    prof = profile(x)
    counts = count_calls(monkeypatch, "groups._validate_group")
    analyze(ProbPoly(((0, Fraction(1, 3)), (3, Fraction(2, 3)))), prof)
    analyze(EXAMPLE_SERIES, profile(delta(g, 1)))
    pure_power_report(7, prof)
    assert counts == {"groups._validate_group": 0}


def _pure_power_by_indexing(r, prof):
    """The points and Cesaro point as pure_power_report built them before it
    shared the quotient solve: the profile's cycle indexed by the residues
    of r^n, and their Fraction mean."""
    points = tuple(prof.cycle[res] for res in residue_cycle(r, prof.period).residues)
    g = prof.point.group
    cesaro = tuple(sum(pt.coeffs[i] for pt in points) / len(points)
                   for i in range(g.order))
    return points, SimplexPoint(group=g, coeffs=cesaro)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_pure_power_report_matches_cycle_indexing(zoo, r):
    rng = random.Random(r)
    for name, g in sorted(zoo.items()):
        for size in sorted({1, 2, min(3, g.order), g.order}):
            prof = profile(random_simplex_point(g, rng, support_size=size))
            rep = pure_power_report(r, prof)
            points, cesaro = _pure_power_by_indexing(r, prof)
            assert rep.accumulation.points == points, (name, size)
            assert rep.cesaro == cesaro, (name, size)
            assert rep.limit == (points[0] if len(points) == 1 else None)


def test_pure_power_requires_square_or_higher():
    g = make_cyclic(5)
    with pytest.raises(ValueError):
        pure_power_report(1, profile(delta(g, 1)))
    with pytest.raises(PurePowerError):
        regular_limit(ProbPoly.pure_power(2), delta(g, 1))


def test_pure_power_matches_power_dynamics():
    # iterating p = t^2 squares the element each step, so step k holds
    # x^(2^k); compare against exact convolution powers
    g = make_cyclic(7)
    x = simplex_from_map(g, {"t^1": "1/3", "t^6": "2/3"})
    trace = iterate_map(ProbPoly.pure_power(2), x, 6)
    for k, t in enumerate(trace, start=1):
        assert sup_distance(t, power(x, 2 ** k)) < 1e-12


def test_iterate_map_matches_exact_composition():
    from simplexdyn import add, scale
    g = make_symmetric(3)
    x = random_simplex_point(g, random.Random(19), support_size=4)
    p = EXAMPLE_SERIES
    trace = iterate_map(p, x, 5)
    y = x
    for k in range(5):
        y = add(scale(HALF, power(y, 3)), scale(HALF, power(y, 7)))
        assert sup_distance(y, trace[k]) < 1e-11


def test_empirical_cesaro_validates_burn_in():
    trace = iterate_map(EXAMPLE_SERIES, delta(make_cyclic(4), 1), 100)
    with pytest.raises(ValueError):
        empirical_cesaro(trace, burn_in=100)
    with pytest.raises(ValueError):
        empirical_cesaro(trace, burn_in=-1)


def synthetic_orbit(g, transient, period, n, seed):
    """An OrbitTrace of n steps over transient + period random simplex
    states, the last period of which repeat."""
    rng = np.random.default_rng(seed)
    rows = rng.random((transient + period, g.order))
    rows /= rows.sum(axis=1, keepdims=True)
    rows.setflags(write=False)
    return OrbitTrace(tuple(rows), transient, n)


ORBIT_GROUPS = {1: make_cyclic(1), 2: make_cyclic(2), 24: make_cyclic(24),
                720: make_symmetric(6)}


@pytest.mark.parametrize("order", sorted(ORBIT_GROUPS))
@pytest.mark.parametrize("window", [1, 170, 596],
                         ids=["one row", "one block", "several blocks"])
def test_empirical_cesaro_is_the_stacked_mean_bit_for_bit(order, window):
    g = ORBIT_GROUPS[order]
    # 12 distinct states: a window from step 3 reads the transient, one
    # from step 15 only the cycle.
    for burn_in in (3, 15):
        trace = synthetic_orbit(g, 5, 7, burn_in + window, seed=order + window)
        want = np.mean(np.stack(list(trace)[burn_in:]), axis=0)
        got = empirical_cesaro(trace, burn_in)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("offset", [(0, 2), (2, -2)], ids=["leak", "negative"])
def test_a_cesaro_mean_off_the_simplex_raises(offset):
    # Steps 3 and 4 of a 4-step orbit that alternates between (1, 0) and
    # (1, 0) + scale * slack * offset: their mean leaks scale * slack of
    # mass or has a coefficient of -scale * slack.  It is checked once, at
    # slack ITERATION_SLACK_RATE * 4, not at that of its 2-step window.
    slack = ITERATION_SLACK_RATE * 4
    base = np.array([1.0, 0.0])
    for scale in (0.99, 1.01):
        trace = OrbitTrace((base, base + scale * slack * np.array(offset)), 0, 4)
        if scale < 1:
            with recorded_mass_checks() as checks:
                empirical_cesaro(trace, 2)
            assert [s for _, s in checks] == [slack]
        else:
            with pytest.raises(ValueError, match="outside 1|below -slack"):
                empirical_cesaro(trace, 2)


def test_orbit_trace_reads_steps_from_the_cycle():
    g = make_cyclic(3)
    trace = synthetic_orbit(g, 2, 3, 20, seed=1)
    steps = [trace.states[m if m < 5 else 2 + (m - 2) % 3] for m in range(20)]
    assert list(trace) == steps
    assert [trace[m] for m in range(-20, 20)] == steps + steps
    with pytest.raises(IndexError):
        trace[20]


def test_report_digest_identifies_instance():
    g = make_cyclic(10)
    rep = regular_limit(EXAMPLE_SERIES, delta(g, 1))
    assert rep.digest["group_order"] == 10
    assert rep.digest["element"] == {"t^1": "1"}
    assert "t^3" in rep.digest["series"] and "t^7" in rep.digest["series"]


def test_cesaro_equals_average_of_accumulation_points():
    g = make_cyclic(12)
    rep = regular_limit(EXAMPLE_SERIES, delta(g, 1))
    ces = cesaro_limit(EXAMPLE_SERIES, delta(g, 1))
    avg = [Fraction(0)] * 12
    for pt in rep.accumulation.points:
        for i, c in enumerate(pt.coeffs):
            avg[i] += Fraction(c) / len(rep.accumulation)
    assert tuple(avg) == ces.cesaro.coeffs


def _synthesize_by_fractions(prof, quotients):
    """The pair-by-pair Fraction sum over the chain c * x^r, walked by
    exact products."""
    group = prof.point.group
    sums = [[Fraction(0)] * group.order for _ in quotients]
    cur = prof.idempotent
    for r in range(prof.period):
        for L, acc in zip(quotients, sums):
            for g, c in enumerate(cur.coeffs):
                acc[g] += L[r] * c
        cur = multiply(cur, prof.point)
    return [tuple(acc) for acc in sums]


@pytest.mark.parametrize("top", [20, 2 ** 62], ids=["int64", "python-int"])
def test_synthesis_matches_the_fraction_sums(top):
    # Random weights on random classes of a random series group <step> of
    # Z_m: small ones, and ones up to 2^62 over a common denominator.  The
    # quotient point of {j: w_j} puts w_j / |<step>| on each residue of
    # j + <step>.
    rng = random.Random(top)
    for g in (make_cyclic(12), make_dihedral(6), make_symmetric(4)):
        for size in (1, 2, g.order):
            prof = profile(random_simplex_point(g, rng, support_size=size))
            m = prof.period
            step = rng.choice([k for k in range(1, m + 1) if m % k == 0])
            weights = []
            for _ in range(3):
                classes = rng.sample(range(step), rng.randint(1, step))
                w = [rng.randint(0, top) for _ in classes]
                w[0] += 1
                weights.append({j: Fraction(k, sum(w)) for j, k in zip(classes, w)})
            rep = ModMReport(m, tuple(range(0, m, step)), residue_cycle(1, m),
                             tuple(weights[0]), tuple(weights[0].values()), Fraction(0))
            quotients = [[w.get(r % step, Fraction(0)) * step / m for r in range(m)]
                         for w in weights]
            got = _synthesize(prof, rep, weights)
            assert [pt.coeffs for pt in got] == _synthesize_by_fractions(prof, quotients)


@pytest.mark.parametrize("mutant", ["unbalanced", "negative"])
def test_a_synthesized_point_off_the_simplex_is_an_internal_error(monkeypatch, mutant):
    # 1/4 + 3/4 t^2 has extinction value 1/3.  Two quotient reports forged
    # past ModMReport's own check: Cesaro weights summing to 4/3 leave mass
    # 4/3, and a = 4/3 leaves (1 - a) / |H| < 0 on each member of H but e.
    # Both points are built through the same SimplexPoint checks as every
    # synthesized point.
    def forged(p, m):
        rep = regularity_mod_m(p, m)
        fields = dict(zip(rep._fields, rep._values()))
        if mutant == "unbalanced":
            fields["cesaro"] = (Fraction(4, 3),)
        else:
            fields["a"] = 4 * rep.a
        return ModMReport._of(*fields.values())

    monkeypatch.setattr(predict, "regularity_mod_m", forged)
    g = make_cyclic(4)
    x = simplex_from_map(g, {"t^0": "1/2", "t^2": "1/2"})
    p = ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4))))
    with pytest.raises(InternalConsistencyError,
                       match="synthesized limit left the simplex: simplex point "
                             + ("coefficients sum to 4/3" if mutant == "unbalanced"
                                else "has a negative coefficient")):
        analyze(p, profile(x))


def test_every_synthesized_point_pushes_forward_to_its_quotient_point(zoo):
    # Row r of prof.cosets is the fibre of residue r under the map
    # c_x * x^r -> t^r, so each closed-form point of the group, summed over
    # row r, is coefficient r of its point on Z_m as the Cayley-table
    # construction builds it, and it puts no mass outside <Supp x>.
    rng = random.Random(59)
    fixed = (ProbPoly(((0, Fraction(1, 4)), (2, Fraction(3, 4)))),  # a = 1/3
             ProbPoly(((0, Fraction(1, 3)), (3, Fraction(2, 3)))))  # a irrational
    for name, g in sorted(zoo.items()):
        for size in sorted({1, 2, min(3, g.order), g.order}):
            prof = profile(random_simplex_point(g, rng, support_size=size))
            inside = set(generated_subgroup(g, prof.point.support).members)
            for p in (*fixed, random_prob_poly(rng), ProbPoly.pure_power(rng.randint(2, 5))):
                rep = (pure_power_report(p.shift, prof) if p.is_pure_power
                       else analyze(p, prof)[0])
                points, cesaro = _parent_points(p, prof.period)
                got = (*rep.accumulation.points, rep.cesaro)
                assert len(got) == len(points) + 1, (name, str(p))
                for pt, want in zip(got, (*points, cesaro)):
                    mass = dict(zip(pt.support, (Fraction(n, pt.den) for n in pt.u)))
                    assert [sum(mass.get(i, Fraction(0)) for i in row)
                            for row in prof.cosets.tolist()] == list(want), (name, str(p))
                    assert set(mass) <= inside, (name, str(p))
