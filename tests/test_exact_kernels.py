"""Exact rational kernels: sequences, Lucasnomial rows and the deformed rows built on them.

Over the rationals, with c = lcm(den s, den t), the scaled sequence
U_n = {n} c^(n-1) satisfies U_n = (c s) U_(n-1) + (c^2 t) U_(n-2) over the
integers, and each Lucasnomial is an integer polynomial in s and t.  These
tests pin the exact results on grids chosen to stress that form (large and
coprime denominators, negative t, the repeated root, vanishing {k}) and
check the integer layer against a symbolic oracle.
"""

import hashlib
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lucascalc import (
    DeformedPowerWeights,
    DeformedZeroWeights,
    DivisionByZeroFactor,
    FnKind,
    GaussianRational,
    LucasError,
    SERIES_KINDS,
    VanishingFactor,
    binom2,
    binomial_series2,
    deformed_power_coeffs,
    fn_series,
    lucas_u,
    lucas_v,
    lucasnomial,
    lucasnomial_row,
    lucastorial,
    make_params,
    multinomial_series,
)
from lucascalc.deformed import power_coefficient


def _outcome(call, *args):
    try:
        return call(*args)
    except LucasError as exc:
        return f"{type(exc).__name__}: {exc}"


def _big(rng):
    """A rational with a large numerator and denominator, either sign."""
    return F(rng.randint(1, 10**6) * rng.choice((-1, 1)), rng.randint(10**5, 10**6))


def _exact_grid():
    """Seeded rational parameter points, each with deformations (u, v) and a point (x, y)."""
    rng = random.Random(71)
    pairs = [
        (F(1), F(1)),  # Fibonacci, c = 1
        (F(1), F(-1)),  # {3} = s^2 + t = 0
        (F(2, 3), F(-4, 9)),  # {3} = 0 with c = 9
        (F(2, 3), F(-2, 9)),  # {4} = s (s^2 + 2t) = 0
        (F(3, 7), F(-9, 196)),  # repeated root: s^2 + 4t = 0
        (F(-5, 6), F(-25, 144)),  # repeated root, negative s
        (F(7, 11), F(-13, 17)),  # coprime denominators, negative t
    ]
    pairs += [(_big(rng), _big(rng)) for _ in range(3)]
    pairs += [(_big(rng), -abs(_big(rng))) for _ in range(2)]
    deformations = [
        (F(0), F(1)),
        (F(1), F(0)),
        (F(-1), F(2, 3)),
        (F(123457, 99991), F(-99989, 100003)),
    ]
    deformations += [(_big(rng), _big(rng)) for _ in range(2)]
    grid = []
    for s, t in pairs:
        p = make_params(s, t)
        for u, v in deformations:
            grid.append((p, u, v, _big(rng), F(rng.randint(-9, 9), rng.randint(1, 9))))
    return pairs, grid


class TestExactRowDigest:
    # sha256 over repr() of Lucasnomial rows and entries, deformed power rows,
    # deformed-power and deformed-zero weights, the series of all nine series
    # kinds, multinomial series and bivariate series (or the error text where a
    # call fails) on the rational grid above, computed with the Fraction
    # product chains before the rational kernels ran on scaled integers;
    # every value, type and message must stay.
    GOLDEN_SHA256 = "652468b42bf307e18a1553061d447bb00645f9cfc1ca5ace4663230bdae5325d"

    def test_exact_results_match_golden_digest(self):
        assert _exact_digest() == self.GOLDEN_SHA256


def _exact_digest():
    pairs, grid = _exact_grid()
    digest = hashlib.sha256()

    def feed(tag, value):
        digest.update(f"{tag}:{value!r};".encode())

    for s, t in pairs:
        p = make_params(s, t)
        for n in range(19):
            feed("row", _outcome(lucasnomial_row, n, p))
        for n in (5, 12, 18):
            for k in range(n + 1):
                feed("entry", _outcome(lucasnomial, n, k, p))
    for p, u, v, x, y in grid:
        for n in range(9):
            coeffs = _outcome(deformed_power_coeffs, n, u, v, p)
            feed("coeffs", coeffs if isinstance(coeffs, str) else coeffs.coeffs)
        power = DeformedPowerWeights(x, y, u, v, p)
        zero = DeformedZeroWeights(u, v, p)
        for n in range(8):
            feed("power", _outcome(power, n))
            feed("zero", _outcome(zero, n))
        for kind in sorted(SERIES_KINDS):
            feed(kind.value, _outcome(lambda: fn_series(kind, u, p, 9).coeffs))
        for us in ((u,), (u, v), (v, x, u)):
            for kind in (FnKind.EXP, FnKind.COS, FnKind.TANH):
                feed("multi", _outcome(lambda: multinomial_series(kind, us, p, 8).coeffs))
        for kind in (FnKind.EXP, FnKind.SIN, FnKind.COSH, FnKind.TAN):
            series = _outcome(binomial_series2, kind, u, v, p, 9)
            feed("bivariate", series if isinstance(series, str) else sorted(series.coeffs.items()))
    return digest.hexdigest()


def _gaussian_grid():
    """Seeded Gaussian parameter points, each with deformations (u, v) and a point (x, y)."""
    rng = random.Random(73)

    def gauss(re, im=0):
        return GaussianRational(re, im)

    def small():
        return gauss(F(rng.randint(-30, 30), rng.randint(1, 12)), F(rng.randint(-30, 30), rng.randint(1, 12)))

    pairs = [
        (gauss(1), gauss(1)),  # real Fibonacci: real factorials
        (gauss(F(2, 3)), gauss(F(-4, 9))),  # real, {3} = s^2 + t = 0
        (gauss(F(7, 11)), gauss(F(-13, 17))),  # real, coprime denominators
        (gauss(1, 1), gauss(0, -2)),  # non-real, {3} = s^2 + t = 0
        (gauss(F(1, 2), -1), gauss(F(3, 5), F(2, 7))),  # non-real factorials
        (gauss(0, 1), gauss(1)),  # s = i
    ]
    pairs += [(small(), small()) for _ in range(2)]
    deformations = [
        (gauss(0), gauss(1)),
        (gauss(1), gauss(0)),
        (gauss(F(-1, 2)), gauss(F(2, 3))),  # real deformations
        (gauss(F(3, 4), F(-1, 3)), gauss(0, F(5, 7))),
        (small(), small()),
    ]
    grid = []
    for s, t in pairs:
        p = make_params(s, t)
        for u, v in deformations:
            grid.append((p, u, v, small(), small()))
    return grid


class TestGaussianRowDigest:
    # sha256 over repr() of the series of all nine series kinds, bivariate
    # series, deformed power rows, deformed-power and deformed-zero weights and
    # multinomial series (or the error text where a call fails) on the Gaussian
    # grid above: real and non-real s and t, vanishing {3} among them; computed
    # while each Gaussian row entry was a chain of scalar products.  Every
    # value, type and message must stay.
    GOLDEN_SHA256 = "6dd46e102dfee70a89863c9877efd322964d3753d5e40777b3d1dc6c59a905b2"

    def test_gaussian_results_match_golden_digest(self):
        assert _gaussian_digest() == self.GOLDEN_SHA256


def _gaussian_digest():
    digest = hashlib.sha256()

    def feed(tag, value):
        digest.update(f"{tag}:{value!r};".encode())

    for p, u, v, x, y in _gaussian_grid():
        for n in range(9):
            coeffs = _outcome(deformed_power_coeffs, n, u, v, p)
            feed("coeffs", coeffs if isinstance(coeffs, str) else coeffs.coeffs)
        power = DeformedPowerWeights(x, y, u, v, p)
        zero = DeformedZeroWeights(u, v, p)
        for n in range(8):
            feed("power", _outcome(power, n))
            feed("zero", _outcome(zero, n))
        for kind in sorted(SERIES_KINDS):
            feed(kind.value, _outcome(lambda: fn_series(kind, u, p, 9).coeffs))
        for us in ((u,), (u, v), (v, x, u)):
            for kind in (FnKind.EXP, FnKind.SIN, FnKind.TANH):
                feed("multi", _outcome(lambda: multinomial_series(kind, us, p, 8).coeffs))
        for kind in (FnKind.EXP, FnKind.SIN, FnKind.COS, FnKind.SINH, FnKind.COSH):
            series = _outcome(binomial_series2, kind, u, v, p, 8)
            feed("bivariate", series if isinstance(series, str) else sorted(series.coeffs.items()))
    return digest.hexdigest()


@pytest.mark.parametrize("grid", ["rational", "gaussian"])
def test_power_coefficient_is_the_signed_quotient_of_one_normalisation(grid):
    # against u^T(m) / {m}! formed as Fraction or Gaussian operations, negated after;
    # a vanishing {k} raises the factorial's error at the same degree
    points = _exact_grid()[1] if grid == "rational" else _gaussian_grid()
    exact = F if grid == "rational" else GaussianRational
    for p, u, *_ in points[::3]:
        for m in range(12):
            for negative in (False, True):
                try:
                    expect = exact(u) ** binom2(m) / lucastorial(m, p)
                except VanishingFactor as error:
                    with pytest.raises(VanishingFactor) as raised:
                        power_coefficient(u, p, m, negative)
                    assert raised.value.index == error.index and str(raised.value) == str(error)
                    continue
                got = power_coefficient(u, p, m, negative)
                assert type(got) is exact and got == (-expect if negative else expect)


def test_power_coefficient_on_the_floats_is_the_power_over_the_factorial():
    p = make_params(1.5, -0.5)
    for u in (0.0, 0.7, -1.3, 0.5 - 0.25j):
        for m in range(12):
            expect = u ** binom2(m) / lucastorial(m, p)
            assert repr(power_coefficient(u, p, m)) == repr(expect)
            assert repr(power_coefficient(u, p, m, True)) == repr(-expect)


# ---------------------------------------------------------------------------
# the integer layer against an independent oracle
# ---------------------------------------------------------------------------

N_MAX = 24
_S, _T = sympy.symbols("s t")


def _symbolic_terms(seeds):
    """Coefficient dicts of the recurrence a_n = s a_(n-1) + t a_(n-2) in sympy, n <= N_MAX."""
    exprs = list(seeds)
    while len(exprs) <= N_MAX:
        exprs.append(sympy.expand(_S * exprs[-1] + _T * exprs[-2]))
    return [sympy.Poly(e, _S, _T).terms() for e in exprs]


SYMBOLIC_U = _symbolic_terms((sympy.Integer(0), sympy.Integer(1)))
SYMBOLIC_V = _symbolic_terms((sympy.Integer(2), _S))


def _evaluate(terms, s, t):
    return sum(int(coeff) * s**i * t**j for (i, j), coeff in terms)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=10**4).filter(bool)
ORACLE = settings(
    derandomize=True, max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@ORACLE
@given(rationals, rationals)
def test_scaled_sequences_match_symbolic_recurrence(s, t):
    p = make_params(s, t)
    c = math.lcm(s.denominator, t.denominator)
    big_s, big_t = c * s, c * c * t
    assert big_s.denominator == big_t.denominator == 1
    big_s, big_t = int(big_s), int(big_t)
    lucas_u(N_MAX, p)
    cache = p.cache
    assert cache._scale == c
    scaled_fact = 1
    first_zero = None
    for n in range(N_MAX + 1):
        u_n, v_n = _evaluate(SYMBOLIC_U[n], s, t), _evaluate(SYMBOLIC_V[n], s, t)
        assert lucas_u(n, p) == u_n and type(lucas_u(n, p)) is F
        assert lucas_v(n, p) == v_n and type(lucas_v(n, p)) is F
        # the same recurrence over the integers S = c s, T = c^2 t
        assert cache._scaled_u[n] == _evaluate(SYMBOLIC_U[n], big_s, big_t) == u_n * c ** max(n - 1, 0)
        if n:
            scaled_fact *= cache._scaled_u[n]
            if first_zero is None and u_n == 0:
                first_zero = n
        if first_zero is None:  # the running product, read through the public factorial
            assert lucastorial(n, p) * c ** (n * (n - 1) // 2) == scaled_fact
        else:
            with pytest.raises(VanishingFactor) as err:
                lucastorial(n, p)
            assert err.value.index == first_zero


@ORACLE
@given(rationals, rationals)
def test_integer_row_steps_divide_exactly(s, t):
    p = make_params(s, t)
    lucas_u(N_MAX + 1, p)
    su, c = p.cache._scaled_u, p.cache._scale
    for n in range(N_MAX + 1):
        zeros = [k for k in range(1, n + 1) if su[k] == 0]
        if zeros:
            with pytest.raises(DivisionByZeroFactor, match=rf"^\{{{zeros[0]}\}} = 0 in the denominator$"):
                lucasnomial_row(n, p)
            continue
        row = lucasnomial_row(n, p)
        scaled = 1  # every step of the whole row, no mirroring
        for k in range(1, n + 1):
            assert scaled * su[n - k + 1] % su[k] == 0
            scaled = scaled * su[n - k + 1] // su[k]
            assert row[k] * c ** (k * (n - k)) == scaled
            assert type(row[k]) is F
        assert row == row[::-1]


# first vanishing {k} for t = -r^2 / m: {3} = s^2 + t, {4} = s (s^2 + 2t), {6} = s (s^2 + t)(s^2 + 3t)
VANISHING = {1: 3, 2: 4, 3: 6}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(rationals, st.sampled_from(sorted(VANISHING)))
def test_vanishing_factor_indices_and_texts(r, m):
    p = make_params(r, -r * r / m)
    k = VANISHING[m]
    assert lucastorial(k - 1, p) != 0
    for n in (k, k + 1, 11):
        with pytest.raises(VanishingFactor) as err:
            lucastorial(n, p)
        assert err.value.index == k
        assert str(err.value) == f"sequence term {{{k}}} vanishes"
        with pytest.raises(DivisionByZeroFactor) as err:
            lucasnomial_row(n, p)
        assert str(err.value) == f"{{{k}}} = 0 in the denominator"
        for j in range(n + 1):
            if j < k:
                assert type(lucasnomial(n, j, p)) is F
            else:
                with pytest.raises(DivisionByZeroFactor) as err:
                    lucasnomial(n, j, p)
                assert str(err.value) == f"{{{k}}} = 0 in the denominator"


def test_concurrent_scaled_extension():
    # on every backend, threads racing to extend one cache, factorials included, must all
    # read what a lone caller reads; the rationals scale by c = 77 > 1
    pairs = {
        "rational": (F(3, 7), F(-5, 11)),
        "gaussian": (GaussianRational(F(3, 7), 1), GaussianRational(F(-5, 11), F(1, 2))),
        "float": (3 / 7, -5 / 11),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for backend, (s, t) in pairs.items():
            reference = make_params(s, t)
            expect = [
                ([lucas_u(n, reference) for n in range(60)], [lucas_v(n, reference) for n in range(60)]),
                [lucasnomial_row(n, reference) for n in range(0, 60, 5)],
                [lucastorial(n, reference) for n in range(60)],
            ]
            for _ in range(3):
                p = make_params(s, t)
                barrier = threading.Barrier(6)
                results = []

                def worker(offset):
                    barrier.wait()
                    out = [None, None, None]
                    if offset % 2:
                        out[2] = [lucastorial(n, p) for n in range(60)]
                        out[1] = [lucasnomial_row(n, p) for n in range(0, 60, 5)]
                    else:
                        out[1] = [lucasnomial_row(n, p) for n in range(0, 60, 5)]
                        out[2] = [lucastorial(n, p) for n in range(60)]
                    out[0] = ([lucas_u(n, p) for n in range(60)], [lucas_v(n, p) for n in range(60)])
                    results.append(out)

                threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert len(results) == 6
                assert all(r == expect for r in results), backend
    finally:
        sys.setswitchinterval(interval)
