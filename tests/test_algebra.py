"""Exact group-algebra arithmetic and its float mirror."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simplexdyn import (ProbPoly, add, delta, direct_product, make_cyclic,
                        make_dihedral, make_symmetric, multiply, parse_rational,
                        power, profile, scale, simplex_from_map, sup_distance,
                        support, uniform_on, element_to_map)
from simplexdyn import algebra
from simplexdyn.algebra import (ITERATION_SLACK_RATE, AlgebraElement,
                                SimplexPoint, evaluate_series_floats,
                                series_trace)
from simplexdyn.groups import ElementSet, generated_subgroup
from simplexdyn.predict import analyze

from conftest import (build_zoo, count_calls, prob_poly, prob_polys,
                      random_simplex_point, recorded_mass_checks, signed_coeff_lists)


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == Fraction(2)
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert parse_rational(str(Fraction(-7, 12))) == Fraction(-7, 12)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("abc")


def test_point_mass_products():
    g = make_symmetric(3)
    for i in range(6):
        for j in range(6):
            assert multiply(delta(g, i), delta(g, j)) == delta(g, g.mul(i, j))


def test_power_matches_repeated_multiply():
    g = make_cyclic(7)
    x = simplex_from_map(g, {"t^1": "1/3", "t^2": "2/3"})
    acc = delta(g, g.identity)
    for n in range(5):
        assert power(x, n) == acc
        acc = multiply(acc, x)
    with pytest.raises(ValueError):
        power(x, -1)


def test_support_product_law():
    rng = random.Random(11)
    g = make_dihedral(4)
    for _ in range(40):
        x = random_simplex_point(g, rng)
        y = random_simplex_point(g, rng)
        expected = {g.mul(i, j)
                    for i in support(x).members for j in support(y).members}
        assert set(support(multiply(x, y)).members) == expected


def test_uniform_on_is_idempotent():
    g = make_cyclic(12)
    sub = generated_subgroup(g, (4,))
    c = uniform_on(sub)
    assert multiply(c, c) == c
    assert c.coeffs[0] == Fraction(1, 3)
    assert uniform_on(generated_subgroup(g, (0,))) == delta(g, 0)


def test_simplex_from_map_validation():
    g = make_cyclic(3)
    x = simplex_from_map(g, {"t^0": "1/2", "t^2": "1/2"})
    assert x.coeffs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        simplex_from_map(g, {"t^0": "1/2"})
    with pytest.raises(ValueError):
        simplex_from_map(g, {"t^0": "3/2", "t^1": "-1/2"})
    with pytest.raises(ValueError):
        simplex_from_map(g, {"nope": "1"})


def test_simplex_point_checks_sign_and_sum_exactly():
    g = make_cyclic(3)
    half, tiny = Fraction(1, 2), Fraction(1, 10 ** 30)
    with pytest.raises(ValueError, match="negative coefficient"):
        SimplexPoint(g, (Fraction(3, 2), -half, 0))
    with pytest.raises(ValueError, match="sum to 1/3, not 1"):
        SimplexPoint(g, (Fraction(1, 3), 0, 0))
    with pytest.raises(ValueError, match="sum to 0, not 1"):
        SimplexPoint(g, (0, 0, 0))
    with pytest.raises(ValueError, match="not 1"):
        SimplexPoint(g, (half, half + tiny, 0))
    assert SimplexPoint(g, (half - tiny, half + tiny, 0)).coeffs[2] == 0


def test_element_map_round_trip():
    g = make_symmetric(3)
    rng = random.Random(5)
    x = random_simplex_point(g, rng)
    assert simplex_from_map(g, element_to_map(x)) == x


def test_add_scale():
    g = make_cyclic(4)
    x = delta(g, 1)
    y = delta(g, 2)
    z = add(scale(Fraction(1, 4), x), scale(Fraction(3, 4), y))
    assert z.coeffs[1] == Fraction(1, 4) and z.coeffs[2] == Fraction(3, 4)


def test_sup_distance_mixed_kinds():
    g = make_cyclic(4)
    x = simplex_from_map(g, {"t^0": "1/2", "t^1": "1/2"})
    y = simplex_from_map(g, {"t^0": "1/4", "t^1": "3/4"})
    assert sup_distance(x, y) == 0.25
    assert sup_distance(x, x.floats) == 0.0
    assert sup_distance(x.floats, y.floats) == pytest.approx(0.25)


def test_sup_distance_rejects_vectors_of_different_shapes():
    # numpy would broadcast the length-1 vector against the other.
    x = simplex_from_map(make_cyclic(4), {"t^0": "1/2", "t^1": "1/2"})
    for a, b in ((np.ones(1), x.floats), (x.floats, np.ones(1)), (np.ones(1), x)):
        with pytest.raises(ValueError, match="shapes"):
            sup_distance(a, b)


def test_floats_of_an_exact_element_is_one_read_only_vector():
    x = random_simplex_point(make_dihedral(5), random.Random(11))
    vec = x.floats
    assert x.floats is vec
    assert vec.dtype == np.float64 and not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 0.0
    assert vec.tobytes() == np.array([float(c) for c in x.coeffs]).tobytes()


ZOO_GROUPS = [g for _, g in sorted(build_zoo().items())]


def _floats_match_each_fraction(z) -> bool:
    return z.floats.tobytes() == np.array([float(c) for c in z.coeffs]).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_floats_from_numerators_match_float_of_each_fraction(data):
    g = data.draw(st.sampled_from(ZOO_GROUPS))
    x = AlgebraElement(g, tuple(data.draw(signed_coeff_lists(g.order))))
    y = AlgebraElement(g, tuple(data.draw(signed_coeff_lists(g.order))))
    w = data.draw(st.sampled_from([Fraction(-1), Fraction(-3, 2 ** 60 + 7)]))
    for z in (x, add(x, y), scale(w, y), add(scale(w, x), y)):
        assert _floats_match_each_fraction(z)


def test_floats_round_quotients_above_two_to_the_53_like_fractions():
    # Numerators and denominators beyond 2^53, whose int64 or float64
    # forms would round before the division; the lcm D is above 2^150.
    g = make_cyclic(4)
    x = AlgebraElement(g, (Fraction(1, 2 ** 53 + 1), Fraction(-(2 ** 60 + 1), 3 ** 40),
                           0, Fraction(2 ** 80 + 3, 5 ** 30)))
    assert x.den > 2 ** 150
    for z in (x, add(x, scale(Fraction(-1, 7), x)), scale(Fraction(0), x)):
        assert _floats_match_each_fraction(z)


def series_by_definition(p, x) -> AlgebraElement:
    """p(x) with x^e from e - 1 successive exact products."""
    powers = [delta(x.group, x.group.identity), x]
    while len(powers) <= p.degree:
        powers.append(multiply(powers[-1], x))
    total = scale(0, x)
    for e, c in p.terms:
        total = add(total, scale(c, powers[e]))
    return total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ZOO_GROUPS), prob_polys(max_exponent=130, max_shift=0),
       st.integers(0, 2 ** 32))
@example(make_cyclic(6),
         prob_poly({0: "1/4", 2: "1/2", 3: "1/4"}), 9)
def test_evaluate_series_floats_matches_exact(g, p, seed):
    x = random_simplex_point(g, random.Random(seed))
    terms = [(e, float(c)) for e, c in p.terms]
    got = evaluate_series_floats(g, terms, x.floats)
    exact = series_by_definition(p, x).floats
    assert np.max(np.abs(got - exact)) < 1e-14


def test_series_trace_stays_on_simplex():
    g = make_cyclic(5)
    x = delta(g, 1)
    terms = [(2, 0.5), (3, 0.5)]
    trace = series_trace(g, terms, x.floats, 300)
    assert len(trace) == 300
    for t in trace:
        assert abs(float(t.sum()) - 1.0) < 1e-9
    with pytest.raises(ValueError):
        series_trace(g, terms, x.floats, 0)


def test_series_trace_matches_exact_composition():
    g = make_symmetric(3)
    rng = random.Random(21)
    x = random_simplex_point(g, rng)
    half = Fraction(1, 2)
    trace = series_trace(g, [(0, 0.5), (2, 0.5)], x.floats, 6)
    y = x
    for k in range(6):
        y = add(scale(half, power(y, 0)), scale(half, power(y, 2)))
        assert np.max(np.abs(y.floats - trace[k])) < 1e-12


def plain_series_trace(g, terms, start, n) -> list[tuple[np.ndarray, float]]:
    """(coefficients, slack) of y_1 .. y_n, one evaluation of p per step;
    the slack is that of the first step k with the same state bit for bit."""
    vec, out, first = start, [], {}
    for k in range(1, n + 1):
        vec = evaluate_series_floats(g, terms, vec)
        vec = vec / vec.sum()
        out.append((vec, ITERATION_SLACK_RATE * first.setdefault(vec.tobytes(), k)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ZOO_GROUPS),
       st.one_of(prob_polys(), st.integers(0, 6).map(ProbPoly.pure_power)),
       st.integers(0, 2 ** 32), st.integers(1, 400))
@example(make_cyclic(6), prob_poly({0: "4999/10000", 2: "5001/10000"}),
         5, 400)
def test_series_trace_matches_a_plain_loop(g, p, seed, n):
    # The near-critical example never repeats a state within 400 steps, so
    # it evaluates every step; most other orbits repeat within a few dozen.
    start = random_simplex_point(g, random.Random(seed)).floats
    terms = [(e, float(c)) for e, c in p.terms]
    with recorded_mass_checks() as checks:
        got = series_trace(g, terms, start, n)
    want = plain_series_trace(g, terms, start, n)
    assert len(got) == n
    for y, (coeffs, _) in zip(got, want):
        assert y.tobytes() == coeffs.tobytes()
        assert y.dtype == np.float64 and not y.flags.writeable
    # Each distinct state is checked once, at the slack of its first step.
    assert checks == list({coeffs.tobytes(): slack for coeffs, slack in want}.items())


def test_series_trace_stops_evaluating_at_the_first_repeat(monkeypatch):
    # The C12 worked example: t^1 under (t^3 + t^7)/2 falls, bit for bit,
    # onto the cycle between the uniform points on the cosets t^3<t^4> and
    # t^1<t^4> by step 6.
    g = make_cyclic(12)
    counts = count_calls(monkeypatch, "algebra.evaluate_series_floats")
    with recorded_mass_checks() as checks:
        trace = series_trace(g, [(3, 0.5), (7, 0.5)], delta(g, 1).floats, 10_000)
    assert counts["algebra.evaluate_series_floats"] < 20
    assert len(trace) == 10_000
    # One row per distinct state: y_5 and y_6 alternate from step 5 on,
    # and every step that replays one shares its row and its one check.
    assert len({id(y) for y in trace}) == 6
    assert trace[-1] is trace[5] and trace[-2] is trace[4]
    assert [slack for _, slack in checks] == [ITERATION_SLACK_RATE * k for k in range(1, 7)]
    assert trace[-1].tobytes() != trace[-2].tobytes()


def _orbit_with(k, state, n=10):
    """algebra._float_orbit of n steps on two coordinates whose step k
    (1-based) returns state and whose step i != k returns (1 - i/64, i/64),
    so that no step repeats."""
    steps = iter(range(1, n + 1))

    def step(vec):
        i = next(steps)
        return np.array(state if i == k else [1 - i / 64, i / 64])

    return algebra._float_orbit(step, np.zeros(2), n)


@pytest.mark.parametrize("k", [1, 3, 10])
def test_a_state_may_leak_the_slack_of_its_first_step(k):
    # slack = ITERATION_SLACK_RATE * k, not that of the budget n = 10 or
    # of the 0-based index k - 1.
    slack = ITERATION_SLACK_RATE * k
    for leak in (slack, -slack):
        trace = _orbit_with(k, [1 - k / 64 + 0.99 * leak, k / 64])
        assert abs(float(trace[k - 1].sum()) - 1) > 0.98 * slack
        with pytest.raises(ValueError, match=f"outside 1 \\+/- {slack}$"):
            _orbit_with(k, [1 - k / 64 + 1.01 * leak, k / 64])


@pytest.mark.parametrize("k", [1, 3, 10])
def test_a_state_may_not_fall_below_minus_the_slack(k):
    slack = ITERATION_SLACK_RATE * k
    assert _orbit_with(k, [1 + 0.5 * slack, -0.5 * slack])[k - 1][1] < 0
    with pytest.raises(ValueError, match=f"below -slack {-slack}$"):
        _orbit_with(k, [1 + 1.5 * slack, -1.5 * slack])


# Cyclic, dihedral and symmetric groups up to S5, and products of them.
KERNEL_GROUPS = (
    [make_cyclic(n) for n in (1, 2, 5, 12)]
    + [make_dihedral(n) for n in (2, 3, 6)]
    + [make_symmetric(n) for n in (3, 4, 5)]
    + [direct_product(make_cyclic(2), make_cyclic(6)),
       direct_product(make_symmetric(3), make_cyclic(4)),
       direct_product(make_dihedral(4), make_symmetric(3))])


def definition_product(x, y) -> tuple:
    """(xy)_g = sum over h*k = g of x_h * y_k, pair by pair in Fractions."""
    g = x.group
    out = [Fraction(0)] * g.order
    for h, xh in enumerate(x.coeffs):
        for k, yk in enumerate(y.coeffs):
            out[g.mul(h, k)] += xh * yk
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiply_matches_the_definition(data):
    g = data.draw(st.sampled_from(KERNEL_GROUPS))
    x = AlgebraElement(g, tuple(data.draw(signed_coeff_lists(g.order))))
    y = AlgebraElement(g, tuple(data.draw(signed_coeff_lists(g.order))))
    got = multiply(x, y)
    assert type(got) is AlgebraElement
    assert got.coeffs == definition_product(x, y)
    assert all(type(c) is Fraction for c in got.coeffs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KERNEL_GROUPS), st.integers(0, 2 ** 32))
def test_multiply_of_simplex_points_matches_the_definition(g, seed):
    rng = random.Random(seed)
    x = random_simplex_point(g, rng)
    y = random_simplex_point(g, rng)
    got = multiply(x, y)
    assert isinstance(got, SimplexPoint)
    assert got.coeffs == definition_product(x, y)


def test_an_exact_element_stores_its_support_numerators_and_denominator():
    x = AlgebraElement(make_cyclic(6), ("0", "-1/4", "0", "2/3", "0", "5/6"))
    assert (x.support, x.u, x.den) == ((1, 3, 5), (-3, 8, 10), 12)
    assert "coeffs" not in vars(x)  # the dense view is built on first use only
    assert x.coeffs is x.coeffs and x[3] == Fraction(2, 3)
    zero = AlgebraElement(make_cyclic(6), (0,) * 6)
    assert (zero.support, zero.u, zero.den) == ((), (), 1)
    assert multiply(x, x).coeffs == definition_product(x, x)
    assert multiply(x, zero) == zero
    # The product's u / (Du * Dv) is stored in lowest terms.
    half = uniform_on(generated_subgroup(make_cyclic(2), [1]))
    assert half.u == (1, 1) and half.den == 2
    assert multiply(half, half) == half and multiply(half, half).den == 2


def test_exact_products_build_no_gather_table():
    # exact products gather the table rows of the inverses they need; only
    # the float oracles build the n x n intp conv_index
    g = make_symmetric(5)
    x = random_simplex_point(g, random.Random(5))
    profile(x)
    assert multiply(x, x).coeffs == definition_product(x, x)
    assert "conv_index" not in g.__dict__
    assert g.inverse_index.tolist() == list(g.inverses)


@pytest.mark.parametrize("b", [2 ** 30 - 1, 2 ** 30])
def test_multiply_at_the_int64_boundary(b):
    # Every entry of the product is 4ab: 2^63 - 2^33 fits int64, 2^63 does not.
    g = make_cyclic(4)
    a = 2 ** 31
    x = AlgebraElement(g, (Fraction(-a),) * 4)
    y = AlgebraElement(g, (Fraction(-b),) * 4)
    assert multiply(x, y).coeffs == (Fraction(4 * a * b),) * 4
    assert multiply(y, x).coeffs == (Fraction(4 * a * b),) * 4


def _assert_lowest_terms(z) -> None:
    assert z.support == tuple(sorted(set(z.support)))
    assert len(z.u) == len(z.support) and all(z.u)
    assert z.den >= 1 and math.gcd(z.den, *z.u) == 1
    assert z.coeffs == tuple(
        Fraction(z.u[z.support.index(i)], z.den) if i in z.support else Fraction(0)
        for i in range(z.group.order))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_construction_gives_the_canonical_form(data):
    # Dense Fractions, a product by the identity, uniform_on and delta, and
    # the synthesized limit points all store (support, u, den) in lowest
    # terms, so two elements of one class compare and hash equal exactly
    # when their coefficients do.
    g = data.draw(st.sampled_from(ZOO_GROUPS))
    e = delta(g, g.identity)
    subset = data.draw(st.sets(st.integers(0, g.order - 1), min_size=1))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=g.order, max_size=g.order)
                        .filter(any))
    x = SimplexPoint(g, tuple(Fraction(w, sum(weights)) for w in weights))
    signed = AlgebraElement(g, tuple(data.draw(signed_coeff_lists(g.order))))
    regular, cesaro = analyze(data.draw(prob_polys()), profile(x))
    built = [x, signed, e, delta(g, data.draw(st.integers(0, g.order - 1))),
             uniform_on(ElementSet(g, tuple(subset))), multiply(x, e),
             multiply(signed, e), multiply(x, x), *regular.accumulation.points,
             cesaro.cesaro]
    built += [type(z)(g, z.coeffs) for z in built]
    for z in built:
        _assert_lowest_terms(z)
    for a in built:
        for b in built:
            if type(a) is type(b):
                assert (a == b) == (a.coeffs == b.coeffs)
                assert a != b or hash(a) == hash(b)
