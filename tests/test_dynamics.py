"""Convolution-power dynamics: invariants, limit cycles, reduction."""

import random
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations

import pytest

from simplexdyn import (DynamicsProfile, InconclusiveError, InternalConsistencyError,
                        ProbPoly, delta, dynamics, empirical_limit_set, iterate_map,
                        limit_set, make_cyclic, make_dihedral, make_symmetric,
                        multiply, power, power_rank, profile, reduce_to_stable,
                        simplex_from_map, sup_distance, support, uniform_on)
from simplexdyn.algebra import SimplexPoint
from simplexdyn.dynamics import DEFAULT_MATCH_TOL, AccumulationSet, exact_rank
from simplexdyn.oracles import _power_oracle

from simplexdyn.modm import regularity_mod_m
from simplexdyn.predict import _synthesize, pure_power_report

from conftest import build_zoo, random_prob_poly, random_simplex_point


def test_point_mass_profile():
    g = make_cyclic(5)
    prof = profile(delta(g, 1))
    assert prof.return_time == 5
    assert prof.period == 5
    assert prof.support_group.members == (0,)
    assert prof.idempotent == delta(g, 0)


def test_identity_profile():
    g = make_symmetric(3)
    prof = profile(delta(g, g.identity))
    assert prof.return_time == 1 and prof.period == 1
    assert len(limit_set(prof)) == 1


def test_two_step_profile():
    # x spreads on {t^1, t^3} in Z_6: x^2 covers {2, 4, 0}, so the walk
    # returns at time 2 and cycles between the even and odd cosets.
    g = make_cyclic(6)
    x = simplex_from_map(g, {"t^1": "1/2", "t^3": "1/2"})
    prof = profile(x)
    assert prof.return_time == 2
    assert sorted(prof.support_group.members) == [0, 2, 4]
    assert prof.period == 2
    pts = limit_set(prof)
    assert len(pts) == 2
    even = uniform_on(prof.support_group)
    assert pts.points[0] == even
    assert pts.points[1] == multiply(even, x)


def test_full_support_point_mixes_to_uniform():
    g = make_dihedral(4)
    rng = random.Random(2)
    x = random_simplex_point(g, rng, support_size=g.order)
    prof = profile(x)
    assert prof.return_time == 1 and prof.period == 1
    pts = limit_set(prof)
    assert len(pts) == 1
    assert pts.points[0].coeffs == tuple([Fraction(1, 8)] * 8)


def assert_rows_are_the_cycle(x, points):
    """The power oracle's rows are read-only and match points, the exact
    closed cycle, one by one in class order."""
    rows = empirical_limit_set(x)
    assert len(rows) == len(points)
    assert all(not row.flags.writeable for row in rows)
    assert max(sup_distance(row, q) for row, q in zip(rows, points)) <= DEFAULT_MATCH_TOL


def test_limit_set_matches_oracle_on_zoo():
    rng = random.Random(17)
    zoo = build_zoo()
    for name in sorted(zoo):
        g = zoo[name]
        for support_size in (1, 2, 3, g.order):
            x = random_simplex_point(g, rng, support_size=min(support_size, g.order))
            assert_rows_are_the_cycle(x, limit_set(profile(x)).points)


def _c12_coset():
    return simplex_from_map(make_cyclic(12), {"t^1": "1/3", "t^5": "2/3"})


def _d60_pair():
    return simplex_from_map(make_dihedral(30), {"r1": "1/2", "s0": "1/2"})


# Points whose float powers repeat bit for bit late or never: the
# spectral gap of a two-point walk on a large group is small.
SLOW_POWER_CYCLES = {
    # Within 1e-8 of its cycle at x^713, a bitwise repeat only at x^1545.
    "D60 pair": _d60_pair,
    # Period 3, support group of order 171.
    "C513 pair": lambda: simplex_from_map(make_cyclic(513), {"t^1": "1/2", "t^4": "1/2"}),
    # Period 4; the second eigenvalue is cos(4 pi / 2000), about 1 - 2e-5.
    "C2000 pair": lambda: simplex_from_map(make_cyclic(2000), {"t^1": "1/2", "t^5": "1/2"}),
    "C12 coset": _c12_coset,
    "D24 pair": lambda: simplex_from_map(make_dihedral(12), {"r1": "1/3", "s0": "2/3"}),
    "Z12 lopsided pair": lambda: simplex_from_map(
        make_cyclic(12), {"t^1": "1/16", "t^9": "15/16"}),
    "C44 point mass": lambda: delta(make_cyclic(44), 1),
}


@pytest.mark.parametrize("case", sorted(SLOW_POWER_CYCLES))
def test_power_rows_are_the_closed_cycle_in_class_order(case):
    x = SLOW_POWER_CYCLES[case]()
    assert_rows_are_the_cycle(x, limit_set(profile(x)).points)


def test_the_power_oracle_reads_neither_profile_nor_cosets(monkeypatch):
    def refuse(*args):
        raise AssertionError("the power oracle read the profile")

    points = {}
    for case in ("D60 pair", "C12 coset"):
        x = SLOW_POWER_CYCLES[case]()
        points[case] = (x, limit_set(profile(x)).points)
    monkeypatch.setattr(dynamics, "profile", refuse)
    monkeypatch.setattr(DynamicsProfile, "cosets", property(refuse))
    for x, closed in points.values():
        assert_rows_are_the_cycle(x, closed)


def test_pure_power_rows_are_the_closed_set():
    # 2^n mod 46 cycles through 11 residues, so x -> x^2 settles on the
    # 11 point masses of the cycle of t^25 at those residues.
    x = delta(make_cyclic(46), 25)
    closed = pure_power_report(2, profile(x)).accumulation
    rows = empirical_limit_set(x)
    residues = sorted({pow(2, n, 46) for n in range(46, 92)})
    assert len(rows) == 46 and len(residues) == len(closed) == 11
    matches = [[k for k in residues if sup_distance(rows[k], q) <= DEFAULT_MATCH_TOL]
               for q in closed.points]
    assert sorted(k for near in matches for k in near) == residues
    assert _power_oracle(closed, rows, 2) == ("pass", "11 empirical clusters")


def test_match_rejects_perturbed_sets():
    # The powers of x match the closed cycle in class order; x -> x^3
    # matches its closed set, the points at t^1 and t^3, in any order.
    g = make_cyclic(4)
    x = delta(g, 1)
    prof = profile(x)
    rows = empirical_limit_set(x)
    blur = simplex_from_map(g, {"t^0": "9/10", "t^1": "1/10"})
    for r, closed in ((None, limit_set(prof)), (3, pure_power_report(3, prof).accumulation)):
        assert _power_oracle(closed, rows, r) == ("pass", f"{len(closed)} empirical clusters")
        shifted = AccumulationSet(tuple(multiply(pt, blur) for pt in closed.points))
        assert _power_oracle(shifted, rows, r)[0] == "fail"
        assert _power_oracle(AccumulationSet(closed.points[:-1]), rows, r)[0] == "fail"
        rotated = AccumulationSet(closed.points[1:] + closed.points[:1])
        assert _power_oracle(rotated, rows, r)[0] == ("fail" if r is None else "pass")
    inconclusive = InconclusiveError("no return", iterations=4)
    assert _power_oracle(closed, inconclusive) == ("inconclusive", "no return")


def test_closed_form_points_must_be_distinct():
    g = make_cyclic(3)
    a, b = delta(g, 0), delta(g, 1)
    with pytest.raises(InternalConsistencyError, match="points 0 and 2 coincide"):
        AccumulationSet(points=(a, b, a))
    twin = SimplexPoint(g, a.coeffs)
    with pytest.raises(InternalConsistencyError, match="points 0 and 2 coincide"):
        AccumulationSet(points=(a, b, twin))
    # Closed sets compare and hash by the values of their points.
    pair, twins = AccumulationSet((a, b)), AccumulationSet((twin, delta(g, 1)))
    assert pair == twins and hash(pair) == hash(twins)
    assert pair != AccumulationSet((b, a))


@pytest.mark.parametrize("horizon", [0, -3])
def test_a_horizon_below_one_is_an_input_error_for_the_series_map(horizon):
    with pytest.raises(ValueError, match=f"need n >= 1, got {horizon}$"):
        iterate_map(ProbPoly.pure_power(2), _c12_coset(), horizon)


def test_reduction_shrinks_return_time():
    # In Z_4, support {t^1, t^2} reaches the identity at time 2 but the
    # support group is everything, so the period is 1 and one absorption
    # step lands on the stable uniform point.
    g = make_cyclic(4)
    x = simplex_from_map(g, {"t^1": "1/2", "t^2": "1/2"})
    prof = profile(x)
    assert (prof.return_time, prof.period) == (2, 1)
    absorbed = profile(multiply(x, prof.idempotent))
    assert absorbed.return_time == 1
    stable, steps = reduce_to_stable(prof)
    assert steps == 1
    assert stable == absorbed
    assert stable.return_time == stable.period
    assert stable.point == uniform_on(prof.support_group)


def test_reduce_to_stable_is_idempotent_on_stable_points():
    g = make_cyclic(6)
    x = simplex_from_map(g, {"t^1": "1/2", "t^3": "1/2"})
    prof = profile(x)
    stable, steps = reduce_to_stable(prof)
    assert steps == 0
    assert stable is prof


def absorb_until_stable(prof):
    """The absorption loop: x -> x * idempotent, by exact products, until
    the return time survives one more step; (stable profile, steps)."""
    for steps in range(prof.point.group.order + 1):
        nxt = profile(multiply(prof.point, prof.idempotent))
        assert nxt.return_time <= prof.period
        if nxt.return_time == prof.return_time:
            return prof, steps
        prof = nxt
    raise AssertionError("no stable point within |G| absorption steps")


def test_closed_form_reduction_matches_the_absorption_loop():
    # Every support of 1 to 3 elements in the zoo, with random weights:
    # only 16 of these 1,225 supports take a step with period > 1, where
    # x * c differs from c, so random supports would rarely reach one.
    rng = random.Random(47)
    seen = set()
    for name, g in sorted(build_zoo().items()):
        for supp in chain.from_iterable(combinations(range(g.order), k)
                                        for k in (1, 2, 3)):
            weights = {i: rng.randint(1, 20) for i in supp}
            total = sum(weights.values())
            x = SimplexPoint(g, tuple(Fraction(weights.get(i, 0), total)
                                      for i in range(g.order)))
            prof = profile(x)
            stable, steps = reduce_to_stable(prof)
            want, want_steps = absorb_until_stable(prof)
            assert steps == want_steps, (name, supp)
            assert ((stable.return_time, stable.period, stable.support_group,
                     stable.idempotent, stable.point)
                    == (want.return_time, want.period, want.support_group,
                        want.idempotent, want.point)), (name, supp)
            seen.add((steps, prof.period > 1))
            # analyze synthesizes on x's own profile and prints stable.
            rep = regularity_mod_m(random_prob_poly(rng), prof.period)
            assert (_synthesize(prof, rep, rep.weights)
                    == _synthesize(stable, rep, rep.weights)), (name, supp)
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_exact_rank():
    one = Fraction(1)
    assert exact_rank([]) == 0
    assert exact_rank([[one, one], [one, one]]) == 1
    assert exact_rank([[Fraction(0), one], [one, Fraction(0)]]) == 2
    assert exact_rank([[one, Fraction(2)], [Fraction(2), Fraction(4)]]) == 1


def test_power_rank_equals_return_time():
    rng = random.Random(23)
    zoo = build_zoo()
    for name in sorted(zoo):
        x = random_simplex_point(zoo[name], rng)
        prof = profile(x)
        assert power_rank(prof) == prof.return_time, name


def test_singleton_iff_support_inside_group():
    rng = random.Random(31)
    zoo = build_zoo()
    for _ in range(60):
        name = rng.choice(sorted(zoo))
        x = random_simplex_point(zoo[name], rng)
        prof = profile(x)
        inside = all(i in prof.support_group for i in support(x).members)
        assert (len(limit_set(prof)) == 1) == inside


def test_limit_points_live_on_cosets():
    g = make_cyclic(9)
    x = simplex_from_map(g, {"t^3": "2/5", "t^6": "3/5"})
    prof = profile(x)
    pts = limit_set(prof)
    assert len(pts) == prof.period
    for r, pt in enumerate(pts.points):
        assert pt == multiply(power(x, r), pts.points[0])


def test_profile_walks_its_cycle_and_absorption_once():
    g = make_cyclic(9)
    x = simplex_from_map(g, {"t^1": "1/2", "t^4": "1/2"})
    prof = profile(x)
    assert prof.cycle is prof.cycle
    assert prof.cycle == tuple(multiply(prof.idempotent, power(x, r))
                               for r in range(prof.period))
    # One absorption step lands on the cycle's point on the coset s H.
    assert multiply(x, prof.idempotent) == prof.cycle[1 % prof.period]


def test_cycle_is_uniform_on_the_cosets_of_the_support_group():
    # The reference walks the chain c * x^r by exact products.
    rng = random.Random(41)
    zoo = build_zoo()
    for _ in range(120):
        name = rng.choice(sorted(zoo))
        g = zoo[name]
        x = random_simplex_point(g, rng, support_size=rng.randint(1, min(3, g.order)))
        first = profile(x)
        for prof in (first, reduce_to_stable(first)[0]):
            pts = [prof.idempotent]
            for _ in range(1, prof.period):
                pts.append(multiply(pts[-1], prof.point))
            assert prof.cycle == tuple(pts), name
            assert prof.cosets is prof.cosets
            h = prof.support_group.members
            assert prof.cosets.shape == (prof.period, len(h)), name
            rows = [set(row) for row in prof.cosets.tolist()]
            assert all(len(row) == len(h) for row in rows), name
            assert len(set().union(*rows)) == prof.period * len(h), name
            for r, row in enumerate(rows):
                supp = support(power(prof.point, r)).members
                assert row == {g.mul(s, k) for s in supp for k in h}, (name, r)


def test_the_c2000_point_mass_cycle_is_held_in_under_4_mib():
    # 2,000 points, each uniform on one coset of the trivial group: one
    # index, one numerator and one denominator apiece, no dense tuple.
    g = make_cyclic(2000)
    x = delta(g, 1)
    tracemalloc.start()
    try:
        closed = limit_set(profile(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(closed) == 2000 and closed.points[7] == delta(g, 7)
    assert peak < 4 * 2 ** 20
