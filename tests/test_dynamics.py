"""Convolution-power dynamics: invariants, limit cycles, reduction."""

import random
from fractions import Fraction

import numpy as np
import pytest

from simplexdyn import (InconclusiveError, InternalConsistencyError, delta,
                        direct_product, empirical_limit_set,
                        limit_set, make_cyclic, make_dihedral, make_symmetric,
                        match_accumulation_sets, multiply, power, power_rank,
                        profile, reduce, reduce_to_stable, simplex_from_map,
                        support, sup_distance, to_approx, uniform_on)
from simplexdyn.algebra import ITERATION_SLACK_RATE, float_coeffs
from simplexdyn.dynamics import DEFAULT_MERGE_TOL, AccumulationSet, exact_rank

from conftest import build_zoo, random_simplex_point


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
    assert len(limit_set(delta(g, g.identity))) == 1


def test_two_step_profile():
    # x spreads on {t^1, t^3} in Z_6: x^2 covers {2, 4, 0}, so the walk
    # returns at time 2 and cycles between the even and odd cosets.
    g = make_cyclic(6)
    x = simplex_from_map(g, {"t^1": "1/2", "t^3": "1/2"})
    prof = profile(x)
    assert prof.return_time == 2
    assert sorted(prof.support_group.members) == [0, 2, 4]
    assert prof.period == 2
    pts = limit_set(x)
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
    pts = limit_set(x)
    assert len(pts) == 1
    assert pts.points[0].coeffs == tuple([Fraction(1, 8)] * 8)


def test_limit_set_matches_oracle_on_zoo():
    rng = random.Random(17)
    zoo = build_zoo()
    for name in sorted(zoo):
        g = zoo[name]
        x = random_simplex_point(g, rng)
        closed = limit_set(x)
        observed = empirical_limit_set(x, burn_in=2500, horizon=3100)
        assert match_accumulation_sets(closed, observed, tol=1e-8), name


def test_match_rejects_perturbed_sets():
    g = make_cyclic(4)
    x = delta(g, 1)
    closed = limit_set(x)
    shifted = AccumulationSet(points=tuple(
        to_approx(multiply(pt, simplex_from_map(
            g, {"t^0": "9/10", "t^1": "1/10"}))) for pt in closed.points),
        source="empirical")
    assert not match_accumulation_sets(closed, shifted, tol=1e-8)
    dropped = AccumulationSet(points=closed.points[:-1], source="empirical")
    assert not match_accumulation_sets(closed, dropped, tol=1e-8)


def test_closed_form_points_must_be_distinct():
    g = make_cyclic(3)
    a, b = delta(g, 0), delta(g, 1)
    with pytest.raises(InternalConsistencyError, match="points 0 and 2 coincide"):
        AccumulationSet(points=(a, b, a), source="closed_form")
    assert len(AccumulationSet(points=(a, b, a), source="empirical")) == 3


def test_empirical_limit_set_inconclusive_window():
    g = make_cyclic(12)
    with pytest.raises(InconclusiveError):
        empirical_limit_set(delta(g, 1), burn_in=4, horizon=12)


def plain_limit_set(x, burn_in, horizon):
    """The power oracle as one multiply and one cluster scan per step:
    returns (coefficient bytes, slack) per cluster, or the message and
    iteration count of the InconclusiveError it would raise."""
    g = x.group
    xv = float_coeffs(x)
    right = xv[g.conv_index]
    vec = xv
    reps, rep_steps, labels = [], [], []
    for k in range(2, horizon + 1):
        vec = vec @ right
        if k <= burn_in:
            continue
        for idx, rep in enumerate(reps):
            if np.abs(rep - vec).max() <= DEFAULT_MERGE_TOL:
                labels.append(idx)
                break
        else:
            reps.append(vec)
            rep_steps.append(k)
            labels.append(len(reps) - 1)
    d = len(reps)
    window = len(labels)
    periodic = all(labels[i + d] == labels[i] for i in range(window - d))
    if not reps or window < 3 * d or not periodic:
        return (f"power trace did not stabilize into clusters by step {horizon} "
                f"({d} clusters over a window of {window})", horizon)
    return [(rep.tobytes(), ITERATION_SLACK_RATE * step)
            for rep, step in zip(reps, rep_steps)]


def _interior(g, seed):
    return random_simplex_point(g, random.Random(seed), support_size=g.order)


def _c12_coset():
    return simplex_from_map(make_cyclic(12), {"t^1": "1/3", "t^5": "2/3"})


def _d60_pair():
    return simplex_from_map(make_dihedral(30), {"r1": "1/2", "s0": "1/2"})


# Each case: the point, burn-in, horizon, and the number of clusters (None
# when the oracle is inconclusive).
POWER_ORACLE_CASES = {
    "D4 interior": (lambda: _interior(make_dihedral(4), 3), 200, 600, 1),
    "C2xC2 interior": (lambda: _interior(
        direct_product(make_cyclic(2), make_cyclic(2)), 4), 200, 600, 1),
    # Period 4 on the cosets of <t^4>.
    "C12 coset": (_c12_coset, 200, 600, 4),
    # x^46 repeats x^2 bit for bit, long before the burn-in ends.
    "C44 point mass": (lambda: delta(make_cyclic(44), 1), 200, 600, 44),
    # The powers first repeat at step 1,545 (a 2-cycle from step 1,543), so
    # at 600 steps every step is multiplied out and the oracle stays
    # inconclusive; past the repeat it finds the two clusters.
    "D60 pair": (_d60_pair, 200, 600, None),
    "D60 pair, long": (_d60_pair, 2500, 3100, 2),
    "no burn-in": (lambda: delta(make_cyclic(44), 1), 0, 200, 44),
    "no burn-in, short": (_c12_coset, 0, 60, None),
    "one-step window": (lambda: _interior(make_dihedral(4), 3), 30, 31, None),
}


@pytest.mark.parametrize("case", sorted(POWER_ORACLE_CASES))
def test_empirical_limit_set_matches_a_plain_loop(case):
    build, burn_in, horizon, clusters = POWER_ORACLE_CASES[case]
    x = build()
    want = plain_limit_set(x, burn_in, horizon)
    assert isinstance(want, tuple) if clusters is None else len(want) == clusters
    try:
        got = empirical_limit_set(x, burn_in=burn_in, horizon=horizon)
    except InconclusiveError as exc:
        assert (str(exc), exc.iterations) == want
    else:
        assert [(pt.coeffs.tobytes(), pt.slack) for pt in got.points] == want


def test_reduction_shrinks_return_time():
    # In Z_4, support {t^1, t^2} reaches the identity at time 2 but the
    # support group is everything, so the period is 1 and one absorption
    # step lands on the stable uniform point.
    g = make_cyclic(4)
    x = simplex_from_map(g, {"t^1": "1/2", "t^2": "1/2"})
    prof = profile(x)
    assert (prof.return_time, prof.period) == (2, 1)
    y = reduce(x)
    prof_y = profile(y)
    assert prof_y.return_time == 1
    stable, steps = reduce_to_stable(x)
    assert steps == 1
    assert profile(stable).return_time == profile(stable).period
    assert stable == uniform_on(prof.support_group)


def test_reduce_to_stable_is_idempotent_on_stable_points():
    g = make_cyclic(6)
    x = simplex_from_map(g, {"t^1": "1/2", "t^3": "1/2"})
    stable, steps = reduce_to_stable(x)
    assert steps == 0
    assert stable == x


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
        assert power_rank(x) == profile(x).return_time, name


def test_singleton_iff_support_inside_group():
    rng = random.Random(31)
    zoo = build_zoo()
    for _ in range(60):
        name = rng.choice(sorted(zoo))
        x = random_simplex_point(zoo[name], rng)
        prof = profile(x)
        inside = all(i in prof.support_group for i in support(x).members)
        assert (len(limit_set(x)) == 1) == inside


def test_limit_points_live_on_cosets():
    g = make_cyclic(9)
    x = simplex_from_map(g, {"t^3": "2/5", "t^6": "3/5"})
    prof = profile(x)
    pts = limit_set(x)
    assert len(pts) == prof.period
    for r, pt in enumerate(pts.points):
        assert pt == multiply(power(x, r), pts.points[0])
