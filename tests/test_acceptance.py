"""End-to-end acceptance checks.

Nine scenarios cover the two worked cyclic examples, the oracle-backed
random suites for power dynamics, scalar coefficient decay, the exact
recursion and composition-sum identities, Cesaro totality, pure-power
accumulation, and the structural property suites.  Each test prints a
single pass/fail summary line outside the capture so the verdicts are
visible in any pytest run.
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from simplexdyn import (ProbPoly, cesaro_limit, composition_sum_check, compose,
                        delta, empirical_cesaro, empirical_limit_set,
                        iterate_coeffs, iterate_map, limit_set, make_cyclic,
                        match_accumulation_sets, multiply, power, power_rank,
                        profile, pure_power_report, recursion_coeffs,
                        reduce_to_stable, regular_limit, residue_cycle,
                        series_group, simplex_from_map, sup_distance, support)

from conftest import build_zoo, random_prob_poly, random_simplex_point

HALF = Fraction(1, 2)
EXAMPLE_SERIES = ProbPoly(((3, HALF), (7, HALF)))


@pytest.fixture
def announce(capsys):
    @contextlib.contextmanager
    def _announce(number: int, label: str):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            elapsed = time.perf_counter() - start
            with capsys.disabled():
                print(f"acceptance {number}: FAIL  {label}  [{elapsed:.1f}s]")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"acceptance {number}: PASS  {label}  [{elapsed:.1f}s]")
    return _announce


def test_divergent_worked_example_cyclic_12(announce):
    with announce(1, "cyclic-12 example: no limit, two alternating points"):
        start = time.perf_counter()
        g = make_cyclic(12)
        x = delta(g, 1)
        assert EXAMPLE_SERIES.shift == 3
        assert series_group(EXAMPLE_SERIES, 12) == (0, 4, 8)
        rep = regular_limit(EXAMPLE_SERIES, x)
        assert not rep.exists
        assert rep.diagnostics["cycle_d"] == 2
        assert rep.diagnostics["cycle_residues"] == [3, 9]
        cosets = [frozenset((r + s) % 12 for s in (0, 4, 8)) for r in (3, 9)]
        assert cosets[0].isdisjoint(cosets[1])
        points = rep.accumulation.points
        assert len(points) == 2
        assert sup_distance(points[0], points[1]) > 1e-3
        trace = iterate_map(EXAMPLE_SERIES, x, 500)
        for n in range(495, 501):
            predicted = points[(n - 1) % 2]
            assert sup_distance(trace[n - 1], predicted) < 1e-7
        assert time.perf_counter() - start < 1.0


def test_regular_worked_example_cyclic_10(announce):
    with announce(2, "cyclic-10 example: limit is 1/5 on each odd residue"):
        start = time.perf_counter()
        g = make_cyclic(10)
        x = delta(g, 1)
        assert series_group(EXAMPLE_SERIES, 10) == (0, 2, 4, 6, 8)
        cycle = residue_cycle(3, 10)
        assert cycle.residues == (3, 9, 7, 1)
        rep = regular_limit(EXAMPLE_SERIES, x)
        assert rep.exists
        assert rep.limit.coeffs == tuple(
            Fraction(1, 5) if i % 2 else Fraction(0) for i in range(10))
        trace = iterate_map(EXAMPLE_SERIES, x, 500)
        assert sup_distance(trace[-1], rep.limit) < 1e-8
        assert time.perf_counter() - start < 1.0


def test_power_limit_sets_match_oracle(announce):
    with announce(3, "100 random points: closed-form power limit sets "
                     "match empirical clusters to 1e-8"):
        start = time.perf_counter()
        rng = random.Random(1003)
        zoo = build_zoo()
        names = sorted(zoo)
        for trial in range(100):
            g = zoo[names[trial % len(names)]]
            x = random_simplex_point(g, rng)
            closed = limit_set(profile(x))
            observed = empirical_limit_set(x, horizon=4800)
            assert match_accumulation_sets(closed, observed, tol=1e-8), trial
        assert time.perf_counter() - start < 30.0


def test_scalar_coefficients_decay_monotonically(announce):
    with announce(4, "50 random series: extinction mass never dips, "
                     "positive-degree sup never rises"):
        start = time.perf_counter()
        rng = random.Random(42)
        inconclusive = 0
        for trial in range(50):
            p = random_prob_poly(rng, max_degree=8)
            exact = iterate_coeffs(p, 4, truncation=max(p.degree, 16),
                                   mode="exact")
            for a, b in zip(exact, exact[1:]):
                assert b.a0 >= a.a0
                assert b.sup_nonconstant() <= a.sup_nonconstant()
            states = iterate_coeffs(p, 2000, truncation=256, mode="float")
            for a, b in zip(states, states[1:]):
                assert float(b.a0) >= float(a.a0)
                assert b.sup_nonconstant() <= a.sup_nonconstant()
            final_sup = states[-1].sup_nonconstant()
            if final_sup >= 1e-6:
                st = states[-1]
                for _ in range(3000):
                    st = compose(p, st)
                final_sup = st.sup_nonconstant()
                if final_sup >= 1e-6:
                    inconclusive += 1
        assert inconclusive == 0
        assert time.perf_counter() - start < 60.0


def test_recursion_formula_matches_composition(announce):
    with announce(5, "20 random series: derivative recursion equals "
                     "composition coefficients exactly"):
        rng = random.Random(1005)
        for _ in range(20):
            p = random_prob_poly(rng, max_degree=5)
            states = iterate_coeffs(p, 3, truncation=max(p.degree, 8),
                                    mode="exact")
            for st in states:
                nxt = compose(p, st)
                for k in range(min(8, st.truncation) + 1):
                    assert recursion_coeffs(p, st, k) == nxt.coeffs[k]


def test_composition_sum_bounds(announce):
    with announce(6, "composition sums: exhaustive k <= 8 bounds hold "
                     "for 100 random sequences"):
        rng = random.Random(1006)
        for _ in range(100):
            length = rng.randint(1, 10)
            weights = [rng.randint(0, 9) for _ in range(length)]
            if sum(weights) == 0:
                weights[-1] = 1
            total = sum(weights)
            seq = tuple(Fraction(w, total) for w in weights)
            sup = max(seq)
            for k in range(1, 9):
                for i in range(1, k + 1):
                    lhs, rhs = composition_sum_check(seq, k=k, i=i)
                    assert lhs <= sup
                    if i >= 2:
                        assert lhs <= rhs


def test_cesaro_always_converges(announce):
    with announce(7, "100 series/point pairs: Cesaro closed form total and "
                     "confirmed at n=2000 to 1e-4"):
        start = time.perf_counter()
        rng = random.Random(1007)
        zoo = build_zoo()
        names = sorted(zoo)
        pairs = []
        for trial in range(90):
            g = zoo[names[trial % len(names)]]
            pairs.append((random_prob_poly(rng, max_degree=8,
                                           allow_critical=False),
                          random_simplex_point(g, rng)))
        g12 = make_cyclic(12)
        for w in range(5, 15):
            p = ProbPoly(((3, Fraction(w, 20)), (7, Fraction(20 - w, 20))))
            pairs.append((p, delta(g12, 1)))
        assert len(pairs) == 100
        divergent = 0
        for p, x in pairs:
            ces = cesaro_limit(p, x)
            assert ces.cesaro is not None
            reg = regular_limit(p, x)
            if not reg.exists:
                divergent += 1
            d = ces.diagnostics["cycle_d"]
            window = max(d, (1000 // d) * d)
            avg = empirical_cesaro(iterate_map(p, x, 2000), burn_in=2000 - window)
            assert sup_distance(avg, ces.cesaro) < 1e-4, (str(p), x)
        assert divergent >= 10
        assert time.perf_counter() - start < 60.0


def test_pure_power_accumulation_sets(announce):
    with announce(8, "200 random squaring-type maps: accumulation points "
                     "and singleton verdicts agree with the closed form"):
        rng = random.Random(1008)
        zoo = build_zoo()
        names = sorted(zoo)
        for trial in range(200):
            g = zoo[names[trial % len(names)]]
            x = random_simplex_point(g, rng)
            r = rng.randint(2, 7)
            prof = profile(x)
            rep = pure_power_report(r, prof)
            m = prof.period
            c = prof.idempotent
            expected = []
            for n in range(m + 1, 2 * m + 1):
                pt = multiply(c, power(x, pow(r, n, m)))
                if pt not in expected:
                    expected.append(pt)
            got = list(rep.accumulation.points)
            assert len(got) == len(expected)
            for pt in expected:
                assert pt in got
            singleton = any((r ** k * (r - 1)) % m == 0 for k in range(m + 1))
            assert (len(got) == 1) == singleton
            assert rep.exists == singleton


def test_structural_property_suites(announce):
    with announce(9, "structure suites: support products, power rank, "
                     "full-support criterion, absorption inequalities "
                     "(200 cases each)"):
        rng = random.Random(1009)
        zoo = build_zoo()
        names = sorted(zoo)

        def draw(trial):
            return zoo[names[trial % len(names)]]

        # products of supports
        for trial in range(200):
            g = draw(trial)
            x = random_simplex_point(g, rng)
            y = random_simplex_point(g, rng)
            want = {g.mul(i, j) for i in support(x).members
                    for j in support(y).members}
            assert set(support(multiply(x, y)).members) == want

        # the first return_time powers stay linearly independent
        for trial in range(200):
            x = random_simplex_point(draw(trial), rng)
            prof = profile(x)
            assert power_rank(prof) == prof.return_time

        # with the identity in the support, the walk eventually fills the
        # group exactly when the support generates it
        for trial in range(200):
            g = draw(trial)
            x = random_simplex_point(g, rng)
            if g.identity not in support(x).members:
                x = simplex_from_map(g, {
                    **{g.labels[i]: c / 2
                       for i, c in enumerate(x.coeffs) if c},
                    g.labels[g.identity]: HALF})
            generates = len(profile(x).support_group) == g.order
            supp = frozenset(support(x).members)
            filled = False
            for _ in range(g.order * g.order):
                if len(supp) == g.order:
                    filled = True
                    break
                supp = frozenset(g.mul(i, j) for i in supp
                                 for j in support(x).members)
            filled = filled or len(supp) == g.order
            assert generates == filled

        # absorbing against the idempotent shrinks the return time to at
        # most the period, and stabilizes in finitely many steps
        for trial in range(200):
            x = random_simplex_point(draw(trial), rng)
            prof = profile(x)
            prof_y = profile(multiply(x, prof.idempotent))
            assert prof_y.return_time <= prof.period <= prof.return_time
            if prof_y.return_time == prof.return_time:
                assert prof.return_time == prof.period
            stable, steps = reduce_to_stable(prof)
            assert stable.return_time == stable.period
            assert steps <= x.group.order
