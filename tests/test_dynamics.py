"""Convolution-power dynamics: invariants, limit cycles, reduction."""

import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from simplexdyn import (InconclusiveError, InternalConsistencyError, ProbPoly,
                        delta, direct_product, empirical_limit_set, iterate_map,
                        limit_set, make_cyclic, make_dihedral, make_symmetric,
                        match_accumulation_sets, multiply, power, power_rank,
                        profile, reduce_to_stable, simplex_from_map,
                        sup_distance, support, uniform_on)
from simplexdyn.algebra import SimplexPoint, evaluate_series_floats
from simplexdyn.dynamics import MERGE_TOL, AccumulationSet, _clustered_cycle, exact_rank

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


def test_limit_set_matches_oracle_on_zoo():
    rng = random.Random(17)
    zoo = build_zoo()
    for name in sorted(zoo):
        g = zoo[name]
        x = random_simplex_point(g, rng)
        closed = limit_set(profile(x))
        observed = empirical_limit_set(x, horizon=3100)
        assert match_accumulation_sets(closed, observed, tol=1e-8), name


def test_match_rejects_perturbed_sets():
    g = make_cyclic(4)
    x = delta(g, 1)
    closed = limit_set(profile(x))
    blur = simplex_from_map(g, {"t^0": "9/10", "t^1": "1/10"})
    shifted = tuple(multiply(pt, blur).floats for pt in closed.points)
    assert not match_accumulation_sets(closed, shifted, tol=1e-8)
    dropped = tuple(pt.floats for pt in closed.points[:-1])
    assert not match_accumulation_sets(closed, dropped, tol=1e-8)
    assert match_accumulation_sets(closed, tuple(pt.floats for pt in closed.points))


def plain_match(expected, observed, tol):
    """Greedy matching as a plain loop: each observed point takes the
    nearest expected point left (the first on a tie) or fails."""
    if len(expected) != len(observed):
        return False
    remaining = list(expected.points)
    for pt in observed:
        dists = [sup_distance(pt, q) for q in remaining]
        best = min(range(len(dists)), key=dists.__getitem__)
        if dists[best] > tol:
            return False
        remaining.pop(best)
    return True


def test_match_accumulation_sets_matches_a_plain_loop():
    # Points 3 and 4 lie within tol of each other, so which of them an
    # observed point takes decides the later matches (taking the first
    # within tol instead of the nearest changes 10 of these verdicts);
    # observed points are moved by up to 1.5 tol, at coordinate 0, at
    # their largest coordinate or elsewhere.
    g = make_cyclic(6)
    rng = random.Random(2)
    tol = 1e-8
    outcomes = set()
    for _ in range(300):
        points = [random_simplex_point(g, rng, support_size=6) for _ in range(4)]
        # Point 4 moves 0.7 tol of point 3's mass from its largest
        # coordinate to coordinate 0 (or 1, when 0 is the largest).
        coeffs = list(points[3].coeffs)
        top = int(np.argmax(points[3].floats))
        coeffs[top] -= Fraction(7, 10 ** 9)
        coeffs[1 if top == 0 else 0] += Fraction(7, 10 ** 9)
        points.append(SimplexPoint(g, tuple(coeffs)))
        expected = AccumulationSet(tuple(points))
        base = [pt.floats for pt in points]
        moved = []
        for i in rng.sample(range(5), 5):
            v = base[i].copy()
            v[rng.choice([0, int(np.argmax(v)), rng.randrange(6)])] += \
                rng.choice([-1, 1]) * rng.choice([0.2, 0.5, 0.9, 1.5]) * tol
            moved.append(v)
        observed = tuple(moved)
        want = plain_match(expected, observed, tol)
        assert match_accumulation_sets(expected, observed, tol) == want
        outcomes.add(want)
    assert outcomes == {True, False}


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


def test_empirical_limit_set_inconclusive_window():
    # x^13 repeats x^1, one step past the budget.
    g = make_cyclic(12)
    with pytest.raises(InconclusiveError, match="by step 12 "):
        empirical_limit_set(delta(g, 1), horizon=12)


def plain_clustered_cycle(step, vec, horizon):
    """A clustered float cycle as a plain loop: one step per iteration and
    a bytes dict to find the first state that repeats, then greedy
    clusters of the cycle's states.  Returns the coefficient bytes of
    each cluster, or the message and iteration count of the
    InconclusiveError it would raise."""
    first, states = {}, []
    for k in range(1, horizon + 1):
        vec = step(vec)
        if vec.tobytes() in first:
            cycle = range(first[vec.tobytes()], len(states))
            break
        first[vec.tobytes()] = len(states)
        states.append(vec)
    else:
        return (f"no power repeated an earlier one bit for bit by step {horizon} "
                f"({len(states)} distinct powers)", horizon)
    reps = []
    for i in cycle:
        if all(np.abs(states[r] - states[i]).max() > MERGE_TOL for r in reps):
            reps.append(i)
    return [states[i].tobytes() for i in reps]


def plain_limit_set(x, horizon):
    """The power oracle's clusters as a plain loop: one multiply per power."""
    g = x.group
    right = x.floats[g.conv_index]
    vec = np.zeros(g.order)
    vec[g.identity] = 1.0
    return plain_clustered_cycle(lambda vec: vec @ right, vec, horizon)


def _interior(g, seed):
    return random_simplex_point(g, random.Random(seed), support_size=g.order)


def _c12_coset():
    return simplex_from_map(make_cyclic(12), {"t^1": "1/3", "t^5": "2/3"})


def _d60_pair():
    return simplex_from_map(make_dihedral(30), {"r1": "1/2", "s0": "1/2"})


# Each case: the point, the horizon, and the number of clusters (None when
# the oracle is inconclusive).
POWER_ORACLE_CASES = {
    "D4 interior": (lambda: _interior(make_dihedral(4), 3), 600, 1),
    "C2xC2 interior": (lambda: _interior(
        direct_product(make_cyclic(2), make_cyclic(2)), 4), 600, 1),
    # Period 4 on the cosets of <t^4>; x^73 repeats x^69.
    "C12 coset": (_c12_coset, 600, 4),
    "C12 coset, short": (_c12_coset, 60, None),
    # x^45 repeats x^1, so a budget of 45 suffices although the period is
    # most of it.
    "C44 point mass": (lambda: delta(make_cyclic(44), 1), 600, 44),
    "C44 point mass, repeat at the budget": (
        lambda: delta(make_cyclic(44), 1), 45, 44),
    "C44 point mass, one step short": (lambda: delta(make_cyclic(44), 1), 44, None),
    # x^1545 repeats x^1543, so the default budget of 600 is too short.
    "D60 pair": (_d60_pair, 600, None),
    "D60 pair, long": (_d60_pair, 2000, 2),
    # x^543 repeats x^541.
    "D24 pair": (lambda: simplex_from_map(
        make_dihedral(12), {"r1": "1/3", "s0": "2/3"}), 600, 2),
    # A lopsided pair that mixes slowly; x^375 repeats x^371.
    "Z12 lopsided pair": (lambda: simplex_from_map(
        make_cyclic(12), {"t^1": "1/16", "t^9": "15/16"}), 600, 4),
    "one-step budget": (lambda: _interior(make_dihedral(4), 3), 1, None),
}


@pytest.mark.parametrize("case", sorted(POWER_ORACLE_CASES))
def test_empirical_limit_set_matches_a_plain_loop(case):
    build, horizon, clusters = POWER_ORACLE_CASES[case]
    x = build()
    want = plain_limit_set(x, horizon)
    assert isinstance(want, tuple) if clusters is None else len(want) == clusters
    try:
        got = empirical_limit_set(x, horizon=horizon)
    except InconclusiveError as exc:
        assert (str(exc), exc.iterations) == want
    else:
        assert [pt.tobytes() for pt in got] == want
        assert match_accumulation_sets(limit_set(profile(x)), got)


def _plain_pure_power(x, r, horizon):
    """The clusters of x -> x^r as a plain loop, each step renormalized as
    iterate_map's is."""
    g = x.group

    def step(vec):
        vec = evaluate_series_floats(g, [(r, 1.0)], vec)
        return vec / vec.sum()

    return plain_clustered_cycle(step, x.floats, horizon)


# Each case: the point, the exponent r, the horizon, and the number of
# clusters (None when the oracle is inconclusive).
PURE_POWER_CASES = {
    # Squaring walks t^25 to t^4, t^8, .., t^2 and back to t^4 at step 12.
    "C46 point mass": (lambda: delta(make_cyclic(46), 25), 2, 600, 11),
    "C46 point mass, one step short": (lambda: delta(make_cyclic(46), 25), 2, 11, None),
    # Cubing alternates between the cosets t^3<t^4> and t^1<t^4>.
    "C12 coset": (_c12_coset, 3, 600, 2),
}


@pytest.mark.parametrize("case", sorted(PURE_POWER_CASES))
def test_pure_power_clusters_match_a_plain_loop(case):
    build, r, horizon, clusters = PURE_POWER_CASES[case]
    x = build()
    want = _plain_pure_power(x, r, horizon)
    assert isinstance(want, tuple) if clusters is None else len(want) == clusters
    trace = iterate_map(ProbPoly.pure_power(r), x, horizon)
    try:
        got = _clustered_cycle(trace)
    except InconclusiveError as exc:
        assert (str(exc), exc.iterations) == want
    else:
        assert [pt.tobytes() for pt in got] == want
        assert all(any(pt is y for y in trace.states) for pt in got)
        closed = pure_power_report(r, profile(x)).accumulation
        assert match_accumulation_sets(closed, got)


@pytest.mark.parametrize("horizon", [0, -3])
def test_a_horizon_below_one_is_an_input_error_for_both_maps(horizon):
    x = _c12_coset()
    with pytest.raises(ValueError, match=f"need n >= 1, got {horizon}$"):
        empirical_limit_set(x, horizon=horizon)
    with pytest.raises(ValueError, match=f"need n >= 1, got {horizon}$"):
        iterate_map(ProbPoly.pure_power(2), x, horizon)


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
            quotients = [*rep.accumulation, rep.cesaro]
            assert (_synthesize(prof, quotients, rep.a)
                    == _synthesize(stable, quotients, rep.a)), (name, supp)
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
