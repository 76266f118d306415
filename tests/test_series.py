"""Scalar coefficient dynamics: composition, recursion, extinction."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from simplexdyn import (ProbPoly, PurePowerError, compose,
                        composition_sum_check, default_truncation,
                        extinction_fraction, initial_state, iterate_coeffs,
                        recursion_coeffs)
from simplexdyn.series import (_BLOCK_ENTRIES, SCALAR_COLUMNS, CoeffState, _compositions,
                               _power_sum, _trunc_mul_exact, scalar_trace)

from conftest import (cesaro_coeffs, prob_poly, prob_polys, random_prob_poly,
                      signed_coeff_lists)

HALF = Fraction(1, 2)


def geometric_poly():
    return ProbPoly(((0, HALF), (1, HALF)))


def two_type_poly():
    return ProbPoly(((0, HALF), (2, HALF)))


def test_prob_poly_validation():
    with pytest.raises(ValueError):
        ProbPoly(((0, HALF), (1, Fraction(1, 3))))  # sum != 1
    with pytest.raises(ValueError):
        ProbPoly(((0, Fraction(-1, 2)), (1, Fraction(3, 2))))
    with pytest.raises(ValueError):
        ProbPoly(((1, HALF), (1, HALF)))  # duplicate exponent
    with pytest.raises(ValueError):
        ProbPoly(((-1, HALF), (1, HALF)))
    assert ProbPoly(((np.int64(2), HALF), (0, HALF))) == two_type_poly()


@pytest.mark.parametrize("exponent", [2.5, 3.9, True, np.float32(2.5)])
def test_prob_poly_rejects_fractional_and_bool_exponents(exponent):
    # int() would truncate these to valid exponents (2.5 -> 2, True -> 1)
    message = re.escape(f"expected an integer, got {exponent!r}")
    with pytest.raises(ValueError, match=message):
        ProbPoly(((exponent, HALF), (3, HALF)))
    with pytest.raises(ValueError, match=message):
        prob_poly({exponent: "1/2", 4: "1/2"})


def test_prob_poly_accessors():
    p = ProbPoly(((2, Fraction(1, 4)), (5, Fraction(3, 4))))
    assert p.shift == 2
    assert p.offsets == (0, 3)
    assert p.degree == 5
    assert p.mean_exponent == Fraction(17, 4)
    assert not p.is_pure_power
    assert p.evaluate(Fraction(1)) == 1
    assert str(p) == "1/4*t^2 + 3/4*t^5"
    q = ProbPoly.pure_power(3)
    assert q.is_pure_power and q.shift == 3
    assert prob_poly({"0": "1/2", "2": "1/2"}) == two_type_poly()


def test_taylor_coefficient():
    p = two_type_poly()
    at = Fraction(1, 3)
    # p(x + h) = p(x) + p'(x) h + (1/2) p''(x) h^2 with p = 1/2 + t^2/2
    assert p.taylor_coefficient(0, at) == p.evaluate(at)
    assert p.taylor_coefficient(1, at) == at  # p'(t) = t
    assert p.taylor_coefficient(2, at) == HALF
    assert p.taylor_coefficient(3, at) == 0


def test_default_truncation_bounds():
    assert default_truncation(geometric_poly()) == 64
    big = ProbPoly(((0, HALF), (200, HALF)))
    assert default_truncation(big) == 4096


def test_initial_state_requires_room():
    with pytest.raises(ValueError):
        initial_state(two_type_poly(), truncation=1)


def test_compose_geometric_closed_form():
    # For p = (1 + t)/2 the n-th composition is 1 - 2^{-n} + 2^{-n} t.
    p = geometric_poly()
    states = iterate_coeffs(p, 8, truncation=4, mode="exact")
    for st in states:
        assert st.a0 == 1 - Fraction(1, 2 ** st.n)
        assert st.coeffs[1] == Fraction(1, 2 ** st.n)
        assert all(c == 0 for c in st.coeffs[2:])
        assert st.tail_mass == 0


def test_compose_two_type_second_step():
    p = two_type_poly()
    st2 = compose(p, initial_state(p, truncation=8, mode="exact"))
    # p(p(t)) = 1/2 + (1/2)(1/2 + t^2/2)^2 = 5/8 + t^2/4 + t^4/8
    assert st2.coeffs[0] == Fraction(5, 8)
    assert st2.coeffs[2] == Fraction(1, 4)
    assert st2.coeffs[4] == Fraction(1, 8)
    assert st2.tail_mass == 0


def test_truncation_keeps_low_coefficients_exact():
    p = two_type_poly()
    wide = iterate_coeffs(p, 5, truncation=40, mode="exact")
    narrow = iterate_coeffs(p, 5, truncation=6, mode="exact")
    for w, n in zip(wide, narrow):
        assert list(w.coeffs[:7]) == list(n.coeffs)
        assert n.tail_mass == 1 - sum(n.coeffs, Fraction(0))


def test_float_mode_tracks_exact():
    rng = random.Random(13)
    for _ in range(10):
        p = random_prob_poly(rng, max_degree=4)
        exact = iterate_coeffs(p, 4, truncation=12, mode="exact")
        approx = iterate_coeffs(p, 4, truncation=12, mode="float")
        for e, a in zip(exact, approx):
            for c_exact, c_float in zip(e.coeffs, a.coeffs):
                assert abs(float(c_exact) - float(c_float)) < 1e-13


# Exponents below 7 over up to 5 steps, and 8-bit exponents (up to 130)
# over one composition, where exact denominators stay small.
SERIES_CASES = st.one_of(
    st.tuples(prob_polys(), st.integers(0, 12), st.integers(1, 5)),
    st.tuples(prob_polys(max_exponent=130, max_shift=0), st.integers(0, 12),
              st.just(2)))


def sequential_compose(p, s) -> list:
    """p(s) by the definition: s^e from e - 1 successive truncated products."""
    one = np.full_like(s, Fraction(0))
    one[0] = Fraction(1)
    powers = [one, s]
    while len(powers) <= p.degree:
        powers.append(_trunc_mul_exact(powers[-1], s))
    return sum((c * powers[e] for e, c in p.terms), start=0 * s).tolist()


@settings(max_examples=100, deadline=None)
@given(SERIES_CASES)
def test_exact_and_float_modes_agree(case):
    p, extra, n = case
    exact = iterate_coeffs(p, n, truncation=p.degree + extra, mode="exact")
    approx = iterate_coeffs(p, n, truncation=p.degree + extra, mode="float")
    for prev, nxt in zip(exact, exact[1:]):
        assert nxt.coeffs.tolist() == sequential_compose(p, prev.coeffs)
    exact += cesaro_coeffs(exact)
    approx += cesaro_coeffs(approx)
    for e, a in zip(exact, approx):
        assert (e.mode, a.mode, e.n) == ("exact", "float", a.n)
        assert all(isinstance(c, Fraction) for c in e.coeffs)
        assert e.tail_mass == 1 - sum(e.coeffs, Fraction(0))
        assert np.max(np.abs(e.coeffs.astype(np.float64) - a.coeffs)) <= 1e-12
        assert abs(float(e.tail_mass) - a.tail_mass) <= 1e-12


def test_power_sum_stops_at_the_first_vanished_power():
    calls = []

    def mul(a, b):  # truncated at degree 4
        calls.append((a, b))
        return np.convolve(a, b)[:5]

    one = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    x = np.array([0.0, 0.0, 1.0, 0.0, 0.0])  # t^2
    out = _power_sum([(1, 0.5), (2, 0.25), (9, 0.25)], one, x, mul)
    assert out.tolist() == [0.0, 0.0, 0.5, 0.0, 0.25]
    assert len(calls) == 2  # t^4, then t^8, which vanishes
    calls.clear()
    out = _power_sum([(0, 0.5), (2, 0.5)], one, 0 * x, mul)
    assert out.tolist() == [0.5, 0.0, 0.0, 0.0, 0.0]
    assert not calls  # x itself vanished: x^2 is never formed


def test_power_sum_builds_powers_by_squaring(monkeypatch):
    p = prob_poly({0: "5/13", 1: "17/52", 64: "15/52"})
    state = initial_state(p, truncation=4096)
    calls = []
    convolve = np.convolve

    def counting_convolve(a, b):
        calls.append(1)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", counting_convolve)
    compose(p, state)
    assert len(calls) <= 7  # x^64 is six squarings


@st.composite
def trace_cases(draw):
    """A series of degree <= 9, shifted or not, a truncation K from its
    degree to 4096, and a horizon of one step or up to three blocks of
    rows and more."""
    p = draw(prob_polys(max_exponent=7, max_shift=2))
    K = draw(st.one_of(st.integers(p.degree, p.degree + 12), st.integers(p.degree, 4096)))
    rows = max(1, _BLOCK_ENTRIES // (K + 1))
    n = draw(st.one_of(st.just(1), st.integers(1, 3 * rows + 2)))
    return p, K, n


@settings(max_examples=40, deadline=None)
@given(trace_cases())
def test_scalar_trace_is_the_columns_of_the_states_and_their_means(case):
    p, K, n = case
    states = iterate_coeffs(p, n, truncation=K, mode="float")
    state = states[0]
    for nxt in states[1:]:  # block boundaries move no state
        state = compose(p, state)
        assert state.coeffs.tobytes() == nxt.coeffs.tobytes()
    want = np.array([[st.a0, st.sup_nonconstant(), st.tail_mass,
                      av.a0, av.sup_nonconstant(), av.tail_mass]
                     for st, av in zip(states, cesaro_coeffs(states))])
    got = scalar_trace(p, n, truncation=K)
    assert got.shape == (n, len(SCALAR_COLUMNS))
    assert got.tobytes() == want.tobytes()


def test_scalar_trace_memory_does_not_grow_with_the_horizon():
    # Beyond its (n, 6) result the trace holds one block of rows and the
    # running sums, whatever the horizon; each state held would cost
    # K + 1 = 129 floats, and its running mean as many again.
    p = prob_poly({0: "1/3", 3: "2/3"})
    scalar_trace(p, 10, truncation=128)
    extra = {}
    for n in (2000, 20000):
        tracemalloc.start()
        trace = scalar_trace(p, n, truncation=128)
        extra[n] = tracemalloc.get_traced_memory()[1] - trace.nbytes
        tracemalloc.stop()
    assert abs(extra[20000] - extra[2000]) < 16 * 1024, extra


def recursion_by_compositions(p, state, k):
    """recursion_coeffs with its inner sum enumerated over the ordered
    compositions of k into i positive parts."""
    a0 = state.a0
    if k == 0:
        return p.evaluate(a0)
    return sum((p.taylor_coefficient(i, a0)
                * sum((math.prod((state.coeffs[j] for j in parts), start=Fraction(1))
                       for parts in _compositions(k, i)), Fraction(0))
                for i in range(1, min(k, p.degree) + 1)), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(prob_polys(max_exponent=6, max_shift=2), st.integers(1, 3))
def test_recursion_equals_the_composition_enumeration(p, n):
    state = iterate_coeffs(p, n, truncation=max(p.degree, 8), mode="exact")[-1]
    for k in range(state.truncation + 1):
        assert recursion_coeffs(p, state, k) == recursion_by_compositions(p, state, k)


def cauchy_product(a, b) -> list:
    """sum over i + j = k of a_i * b_j for k <= K, in Fractions."""
    K = len(a) - 1
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(K + 1)]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 40))
def test_truncated_product_matches_the_cauchy_product(data, K):
    a = np.array(data.draw(signed_coeff_lists(K + 1)), dtype=object)
    b = np.array(data.draw(signed_coeff_lists(K + 1)), dtype=object)
    got = _trunc_mul_exact(a, b)
    assert got.dtype == object
    assert got.tolist() == cauchy_product(a, b)
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("b", [2 ** 30 - 1, 2 ** 30])
def test_truncated_product_at_the_int64_boundary(b):
    # The degree-3 coefficient is 4ab: 2^63 - 2^33 fits int64, 2^63 does not.
    a = 2 ** 31
    u = np.array([Fraction(a)] * 4, dtype=object)
    v = np.array([Fraction(b)] * 4, dtype=object)
    expected = [Fraction((k + 1) * a * b) for k in range(4)]
    assert _trunc_mul_exact(u, v).tolist() == expected
    assert _trunc_mul_exact(v, u).tolist() == expected


def test_shifted_series_has_no_extinction_mass():
    p = ProbPoly(((1, HALF), (3, HALF)))
    states = iterate_coeffs(p, 6, truncation=10, mode="exact")
    assert all(st.a0 == 0 for st in states)


def test_recursion_matches_compose_exactly():
    rng = random.Random(29)
    for _ in range(10):
        p = random_prob_poly(rng, max_degree=5)
        states = iterate_coeffs(p, 3, truncation=max(p.degree, 10), mode="exact")
        for st in states[:-1]:
            nxt = compose(p, st)
            for k in range(min(8, st.truncation) + 1):
                assert recursion_coeffs(p, st, k) == nxt.coeffs[k]


def test_recursion_on_float_state():
    p = two_type_poly()
    st = iterate_coeffs(p, 3, truncation=12, mode="float")[-1]
    nxt = compose(p, st)
    for k in range(6):
        assert abs(recursion_coeffs(p, st, k) - nxt.coeffs[k]) < 1e-12


EPS = Fraction(1, 2 ** 64)


def assert_certified_extinction(p: ProbPoly) -> Fraction:
    """a lies in (0, 1) and is either a fixed point of p or within 2^-64
    of one: p - id changes sign from + to - across [a - 2^-64, a + 2^-64],
    checked in exact arithmetic."""
    a = extinction_fraction(p)
    assert 0 < a < 1
    if p.evaluate(a) != a:
        assert p.evaluate(a - EPS) > a - EPS
        assert p.evaluate(a + EPS) < a + EPS
    return a


@st.composite
def supercritical_polys(draw) -> ProbPoly:
    """A constant term plus 1 to 4 terms of degree 1..8, mean exponent > 1,
    weights up to 10^6 so denominators vary widely."""
    exponents = [0] + draw(st.lists(st.integers(1, 8), min_size=1, max_size=4,
                                    unique=True))
    weights = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(exponents),
                            max_size=len(exponents)))
    p = ProbPoly(tuple((e, Fraction(w, sum(weights)))
                       for e, w in zip(exponents, weights)))
    assume(p.mean_exponent > 1)
    return p


@settings(max_examples=200, deadline=None)
@given(supercritical_polys())
def test_extinction_fraction_is_certified(p):
    assert_certified_extinction(p)


def test_extinction_fraction_named_cases():
    near = prob_poly({0: Fraction(4999, 10000), 2: Fraction(5001, 10000)})
    assert assert_certified_extinction(near) == Fraction(4999, 5001)
    assert assert_certified_extinction(
        prob_poly({0: Fraction(1, 3), 2: Fraction(2, 3)})) == HALF
    # a sits near 1, where limit_denominator rounds to the other root 1
    assert_certified_extinction(prob_poly(
        {0: Fraction(20, 31), 1: Fraction(6, 31), 6: Fraction(5, 31)}))
    # irrational: (sqrt 3 - 1) / 2, (sqrt 17 - 3) / 4 and a degree-6 root
    for series in ({0: "1/3", 3: "2/3"}, {0: "1/4", 2: "1/4", 3: "1/2"},
                   {0: "5/11", 1: "13/44", 5: "5/44", 6: "3/22"}):
        p = prob_poly(series)
        a = assert_certified_extinction(p)
        assert p.evaluate(a) != a


def test_pure_power_rejected():
    with pytest.raises(PurePowerError):
        iterate_coeffs(ProbPoly.pure_power(2), 5)


def test_cesaro_coeffs_are_running_means():
    p = two_type_poly()
    states = iterate_coeffs(p, 4, truncation=8, mode="exact")
    averages = cesaro_coeffs(states)
    assert isinstance(averages[0], CoeffState)
    for n, avg in enumerate(averages, start=1):
        for k in range(9):
            want = sum((states[i].coeffs[k] for i in range(n)),
                       Fraction(0)) / n
            assert avg.coeffs[k] == want
        assert avg.n == n


def test_composition_sum_pinned_cases():
    # mass all on the first entry: the only composition of 2 into two
    # parts is (1, 1), so the sum hits the bound exactly
    a = (Fraction(1), Fraction(0), Fraction(0))
    lhs, rhs = composition_sum_check(a, k=2, i=2)
    assert lhs == 1 and rhs == 1
    # for k = 3 every composition into two parts includes a zero entry
    lhs, rhs = composition_sum_check(a, k=3, i=2)
    assert lhs == 0 and rhs == 1
    # uniform mass over three entries: bound met with equality at i = 2
    u = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    lhs, rhs = composition_sum_check(u, k=3, i=2)
    assert lhs == Fraction(2, 9) and rhs == Fraction(2, 9)
    lhs, rhs = composition_sum_check(u, k=3, i=3)
    assert lhs == Fraction(1, 27) and rhs == Fraction(2, 9)


def test_composition_sum_validation():
    u = (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        composition_sum_check(u, k=11, i=2)
    with pytest.raises(ValueError):
        composition_sum_check(u, k=2, i=3)
    with pytest.raises(ValueError):
        composition_sum_check((Fraction(1, 2),), k=1, i=1)  # sum != 1


def test_composition_sum_random_bounds():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(1, 6)
        length = k + rng.randint(0, 2)
        weights = [rng.randint(0, 8) for _ in range(length)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        a = tuple(Fraction(w, total) for w in weights)
        sup = max(a)
        for i in range(1, k + 1):
            lhs, rhs = composition_sum_check(a, k=k, i=i)
            assert lhs <= sup
            if i >= 2:
                assert lhs <= rhs
