"""Derivative and integral operators against closed-form oracles."""

import random
from fractions import Fraction as F

import pytest

from lucascalc import (
    Backend,
    DivisionByZeroValue,
    NonContractingNodes,
    NonConvergent,
    OrderMismatch,
    TruncatedSeries,
    TruncatedSeries2,
    VanishingFactor,
    antiderivative_series,
    antiderivative_series2,
    derivative_series,
    derivative_series2,
    derivative_value,
    integral_value,
    integration_by_parts_residual,
    lucas_u,
    lucastorial,
    make_params,
    params_from_roots,
)

RAT = Backend.RATIONAL


def rational_series(rng, order):
    return TruncatedSeries([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], RAT)


class TestDerivativeValue:
    def test_power_rule_square(self):
        p = make_params(1.0, 1.0)
        # D x^2 = {2} x = x, so the value at 3 is 3
        assert derivative_value(lambda x: x * x, 3.0, p) == pytest.approx(3.0, rel=1e-12)

    def test_constant_function(self):
        p = make_params(2.0, 1.0)
        assert derivative_value(lambda x: 7.5, 1.3, p) == 0.0

    def test_power_rule_pell(self):
        p = make_params(2.0, 1.0)
        assert derivative_value(lambda x: x**5, 1.0, p) == pytest.approx(29.0, rel=1e-12)

    def test_power_rule_random_points(self):
        rng = random.Random(3)
        p = make_params(1.5, 0.8)
        for n in range(1, 9):
            expect = lucas_u(n, p)
            for _ in range(20):
                x = rng.uniform(0.2, 1.5) * rng.choice((-1, 1))
                got = derivative_value(lambda w, n=n: w**n, x, p)
                assert got == pytest.approx(expect * x ** (n - 1), rel=1e-10)

    def test_origin_uses_difference_quotient(self):
        p = make_params(1.0, 1.0)
        assert derivative_value(lambda x: 3.0 * x + x * x, 0.0, p) == pytest.approx(3.0, rel=1e-9)

    def test_exact_backend_origin_rejected(self):
        p = params_from_roots(F(2), F(-1))
        with pytest.raises(ZeroDivisionError):
            derivative_value(lambda x: x, F(0), p)

    def test_repeated_root_has_no_divided_difference(self):
        # s = 2, t = -1: phi = phi' = 1, so (f(phi x) - f(phi' x)) / ((phi - phi') x) is 0/0
        for p in (make_params(F(2), F(-1)), make_params(2.0, -1.0)):
            with pytest.raises(DivisionByZeroValue):
                derivative_value(lambda x: x * x, p.s / 3, p)
        # the float stand-in at the origin needs no second root
        assert derivative_value(lambda x: 3.0 * x + x * x, 0.0, make_params(2.0, -1.0)) == pytest.approx(3.0)


class TestSeriesOperators:
    def test_derivative_example(self):
        p = make_params(F(1), F(1))
        f = TruncatedSeries([F(1), F(1), F(1)], RAT)
        assert derivative_series(f, p).coeffs == (F(1), F(1))

    def test_derivative_of_constant(self):
        p = make_params(F(1), F(1))
        f = TruncatedSeries.constant(F(5), 4)
        assert derivative_series(f, p) == TruncatedSeries.zero(3, RAT)

    def test_order_zero_derivative_rejected(self):
        # an order-0 series knows only a_0; its derivative would start at a_1
        p = make_params(F(1), F(1))
        with pytest.raises(OrderMismatch):
            derivative_series(TruncatedSeries.constant(F(5), 0), p)
        for var in (0, 1):
            with pytest.raises(OrderMismatch):
                derivative_series2(TruncatedSeries2({(0, 0): F(5)}, 0, RAT), p, var=var)

    def test_iterated_derivative_of_power(self):
        p = make_params(F(2), F(3))
        n, order = 7, 9
        f = TruncatedSeries.from_terms({n: F(1)}, order, RAT)
        for k in range(1, n + 1):
            f = derivative_series(f, p)
            expect = lucastorial(n, p) / lucastorial(n - k, p)
            assert f.coeffs[n - k] == expect

    def test_antiderivative_examples(self):
        p = make_params(F(1), F(1))
        one = TruncatedSeries.constant(F(1), 3)
        assert antiderivative_series(one, p).coeffs[1] == 1
        cubed = TruncatedSeries.from_terms({3: F(1)}, 3, RAT)
        assert antiderivative_series(cubed, p).coeffs[4] == F(1, 3)

    def test_derivative_inverts_antiderivative(self):
        rng = random.Random(5)
        p = make_params(F(2), F(1))
        for _ in range(6):
            f = rational_series(rng, 8)
            assert derivative_series(antiderivative_series(f, p), p) == f

    def test_antiderivative_vanishing_factor(self):
        p = make_params(F(1), F(-1))  # {3} = 0
        f = TruncatedSeries.from_terms({2: F(1)}, 4, RAT)
        with pytest.raises(VanishingFactor):
            antiderivative_series(f, p)

    def test_linearity(self):
        rng = random.Random(7)
        p = make_params(F(1), F(2))
        f, g = rational_series(rng, 8), rational_series(rng, 8)
        c = F(3, 5)
        assert derivative_series(f + g, p) == derivative_series(f, p) + derivative_series(g, p)
        assert derivative_series(f.scale(c), p) == derivative_series(f, p).scale(c)

    def test_bivariate_partial_derivatives(self):
        p = make_params(F(1), F(1))
        # F = x^2 y: D_x -> {2} x y, D_y -> x^2 {1}
        G = TruncatedSeries2({(2, 1): F(1)}, 4, RAT)
        dx = derivative_series2(G, p, var=0)
        dy = derivative_series2(G, p, var=1)
        assert dx.coefficient(1, 1) == lucas_u(2, p)
        assert dy.coefficient(2, 0) == 1

    def test_bivariate_antiderivative_inverts(self):
        p = make_params(F(2), F(3))
        G = TruncatedSeries2({(2, 1): F(5), (0, 3): F(-2), (1, 0): F(7)}, 4, RAT)
        for var in (0, 1):
            assert derivative_series2(antiderivative_series2(G, p, var), p, var) == G

    @pytest.mark.parametrize("var", [0, 1])
    def test_bivariate_antiderivative_vanishing_factor(self, var):
        p = make_params(F(1), F(-1))  # {3} = 0
        G = TruncatedSeries2({(2, 0) if var == 0 else (0, 2): F(1)}, 4, RAT)
        with pytest.raises(VanishingFactor) as err:
            antiderivative_series2(G, p, var)
        assert err.value.index == 3

    @pytest.mark.parametrize("operator", [derivative_series2, antiderivative_series2])
    @pytest.mark.parametrize("var", [2, -1, 3])
    def test_bivariate_var_outside_x_and_y_rejected(self, operator, var):
        # var 2 used to give the empty series (derivative) or integrate in y (antiderivative)
        p = make_params(F(1), F(1))
        G = TruncatedSeries2({(2, 1): F(1), (0, 2): F(3)}, 4, RAT)
        with pytest.raises(ValueError, match="var must be 0"):
            operator(G, p, var=var)


class TestIntegral:
    def test_linear_integrand(self):
        p = make_params(1.0, 1.0)
        # antiderivative of x is x^2/{2} = x^2
        assert integral_value(lambda x: x, 0.0, 1.0, p) == pytest.approx(1.0, rel=1e-10)

    def test_cubic_integrand(self):
        p = make_params(1.0, 1.0)
        assert integral_value(lambda x: x**3, 0.0, 1.0, p) == pytest.approx(1 / 3, rel=1e-10)

    def test_equal_endpoints(self):
        p = make_params(1.0, 1.0)
        assert integral_value(lambda x: x * x, 0.7, 0.7, p) == 0.0

    def test_fundamental_theorem_over_powers(self):
        p = make_params(1.0, 1.0)
        for n in range(7):
            for b in (0.5, 1.0):
                expect = b ** (n + 1) / lucas_u(n + 1, p)
                got = integral_value(lambda x, n=n: x**n, 0.0, b, p, eps=1e-13)
                assert got == pytest.approx(expect, rel=1e-9)

    def test_additivity_in_endpoints(self):
        p = make_params(2.0, 1.0)
        f = lambda x: 1.0 + x + 0.5 * x**3
        full = integral_value(f, 0.0, 1.0, p, eps=1e-13)
        split = integral_value(f, 0.0, 0.4, p, eps=1e-13) + integral_value(f, 0.4, 1.0, p, eps=1e-13)
        assert full == pytest.approx(split, rel=1e-10)

    def test_linearity(self):
        p = make_params(1.0, 1.0)
        f = lambda x: x
        g = lambda x: x * x
        lhs = integral_value(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 1.0, p, eps=1e-13)
        rhs = 2.0 * integral_value(f, 0.0, 1.0, p, eps=1e-13) + 3.0 * integral_value(
            g, 0.0, 1.0, p, eps=1e-13
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_non_contracting_nodes(self):
        # complex conjugate roots have equal magnitude; at t = -2.5 (roots 0.5 ± 1.5i)
        # |phi' / phi| rounds to 0.9999999999999999, which must not count as contracting
        for t in (-1.0, -2.5):
            with pytest.raises(NonContractingNodes):
                integral_value(lambda x: x, 0.0, 1.0, make_params(1.0, t))

    def test_exact_backend_rejected(self):
        p = params_from_roots(F(2), F(-1))
        with pytest.raises(NonContractingNodes):
            integral_value(lambda x: x, F(0), F(1), p)

    def test_ratio_too_close_to_one_stops_before_the_first_term(self):
        # |ratio| = 0.99999999293: even the bound at term 10^6 stays far above eps
        calls = []

        def f(x):
            calls.append(x)
            return 8.0 * x

        with pytest.raises(NonConvergent, match="too close to 1"):
            integral_value(f, 0.0, 3 / 7, make_params(1e-8, 2.0))
        assert calls == []

    def test_non_finite_partial_sum_stops_at_once(self):
        # b * f(b * node) = 1e10 * 1e308 overflows on the first node; the loop
        # used to run its whole 10^6-term budget before reporting "no decay"
        calls = []

        def f(x):
            calls.append(x)
            return 1e308

        with pytest.raises(NonConvergent, match="not finite"):
            integral_value(f, 0.0, 1e10, make_params(1.0, 1.0))
        assert len(calls) <= 4


class TestIntegrationByParts:
    def test_linear_pair(self):
        p = make_params(1.0, 1.0)
        residual = integration_by_parts_residual(lambda x: x, lambda x: x, 0.0, 1.0, p, eps=1e-13)
        assert abs(residual) < 1e-9

    def test_constant_first_factor(self):
        p = make_params(1.0, 1.0)
        residual = integration_by_parts_residual(
            lambda x: 2.0, lambda x: x * x, 0.0, 1.0, p, eps=1e-13
        )
        assert abs(residual) < 1e-9

    def test_square_cube_pair_on_half_interval(self):
        p = make_params(1.0, 1.0)
        residual = integration_by_parts_residual(
            lambda x: x * x, lambda x: x**3, 0.0, 0.5, p, eps=1e-13
        )
        assert abs(residual) < 1e-9

    def test_random_polynomials(self):
        rng = random.Random(11)
        p = make_params(1.6, 0.9)
        for _ in range(5):
            fc = [rng.uniform(-2, 2) for _ in range(4)]
            gc = [rng.uniform(-2, 2) for _ in range(4)]
            f = lambda x, c=fc: sum(ci * x**i for i, ci in enumerate(c))
            g = lambda x, c=gc: sum(ci * x**i for i, ci in enumerate(c))
            assert abs(integration_by_parts_residual(f, g, 0.0, 1.0, p, eps=1e-13)) < 1e-9


class TestRules:
    def test_product_rule_series_exact(self):
        rng = random.Random(13)
        p = params_from_roots(F(3, 2), F(-1, 3))
        phi, psi = p.phi, p.phi_prime
        for _ in range(5):
            f = rational_series(rng, 10)
            g = rational_series(rng, 10)
            lhs = derivative_series(f * g, p)
            rhs = f.dilate(phi) * derivative_series(g, p) + g.dilate(psi) * derivative_series(f, p)
            swapped = f.dilate(psi) * derivative_series(g, p) + g.dilate(phi) * derivative_series(
                f, p
            )
            assert lhs == rhs
            assert lhs == swapped

    def test_quotient_rule_numeric(self):
        rng = random.Random(17)
        p = make_params(1.7, 0.6)
        phi, psi = p.phi, p.phi_prime
        f = lambda x: 1.0 + 2.0 * x + 0.5 * x**3
        g = lambda x: 2.0 - x + 0.25 * x * x
        for _ in range(10):
            x = rng.uniform(0.1, 0.6) * rng.choice((-1, 1))
            dh = derivative_value(lambda w: f(w) / g(w), x, p)
            df = derivative_value(f, x, p)
            dg = derivative_value(g, x, p)
            den = g(phi * x) * g(psi * x)
            form1 = (g(phi * x) * df - f(phi * x) * dg) / den
            form2 = (g(psi * x) * df - f(psi * x) * dg) / den
            assert dh == pytest.approx(form1, rel=1e-8)
            assert dh == pytest.approx(form2, rel=1e-8)
