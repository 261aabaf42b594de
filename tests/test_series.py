"""Truncated series arithmetic against direct convolution oracles."""

import operator
import random
from fractions import Fraction as F

import pytest

from lucascalc import (
    Backend,
    BackendMismatch,
    GaussianRational,
    NonUnitConstantTerm,
    OrderMismatch,
    TruncatedSeries,
    TruncatedSeries2,
    outer,
    promote_series,
)

RAT = Backend.RATIONAL


def series(*coeffs):
    return TruncatedSeries([F(c) for c in coeffs], RAT)


def random_series(rng, order):
    return TruncatedSeries(
        [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)], RAT
    )


def convolution_oracle(a, b, order):
    out = [F(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1]):
            if i + j <= order:
                out[i + j] += x * y
    return out


class TestUnivariate:
    def test_one_plus_z_times_one_minus_z(self):
        a = series(1, 1, 0, 0, 0)
        b = series(1, -1, 0, 0, 0)
        assert (a * b).coeffs == tuple(F(c) for c in (1, 0, -1, 0, 0))

    def test_scale(self):
        assert series(1, 1, 1).scale(F(3)).coeffs == (F(3), F(3), F(3))

    def test_mul_matches_convolution_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            a = random_series(rng, 8)
            b = random_series(rng, 8)
            assert list((a * b).coeffs) == convolution_oracle(a.coeffs, b.coeffs, 8)

    def test_ring_axioms(self):
        rng = random.Random(29)
        for _ in range(8):
            a, b, c = (random_series(rng, 8) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_add_requires_equal_orders(self):
        with pytest.raises(OrderMismatch):
            series(1, 2) + series(1, 2, 3)
        with pytest.raises(OrderMismatch):
            series(1, 2, 3) - series(1, 2)

    def test_mul_truncates_to_min_order(self):
        product = series(1, 1, 1) * series(1, 1, 1, 1, 1)
        assert product.order == 2

    def test_backend_mismatch(self):
        f = series(1, 2, 3)
        g = TruncatedSeries([0.0, 1.0, 2.0], Backend.COMPLEX)
        with pytest.raises(BackendMismatch):
            f + g
        with pytest.raises(BackendMismatch):
            f.scale(0.5)

    def test_equality_on_common_order(self):
        assert series(1, 2, 3) == series(1, 2, 3, 99)
        assert series(1, 2, 3) != series(1, 2, 4, 99)

    def test_dilate(self):
        assert series(1, 1, 1).dilate(F(2)).coeffs == (F(1), F(2), F(4))
        f = series(3, 1, 4, 1, 5)
        assert f.dilate(F(1)) == f

    def test_dilate_composes(self):
        rng = random.Random(31)
        f = random_series(rng, 8)
        a, b = F(2, 3), F(-5, 7)
        assert f.dilate(a).dilate(b) == f.dilate(a * b)

    def test_reciprocal_geometric(self):
        f = series(1, -1, 0, 0)
        assert f.reciprocal().coeffs == (F(1), F(1), F(1), F(1))

    def test_reciprocal_inverts(self):
        rng = random.Random(37)
        for _ in range(6):
            f = random_series(rng, 8)
            if f.coeffs[0] == 0:
                continue
            assert f * f.reciprocal() == TruncatedSeries.constant(F(1), 8)

    def test_reciprocal_needs_unit(self):
        with pytest.raises(NonUnitConstantTerm):
            series(0, 1, 2).reciprocal()

    def test_eval_at(self):
        f = TruncatedSeries([F(1), F(1), F(1, 2)], RAT)
        assert f.eval_at(F(0)) == 1
        assert f.eval_at(F(1)) == F(5, 2)

    def test_eval_matches_power_sum_oracle(self):
        rng = random.Random(41)
        f = random_series(rng, 8)
        x = F(3, 7)
        direct = sum(c * x**n for n, c in enumerate(f.coeffs))
        assert f.eval_at(x) == direct

    def test_promote_series(self):
        f = series(1, 2)
        g = promote_series(f, Backend.GAUSSIAN)
        assert g.coeffs[1] == GaussianRational(2)


def random_series2(rng, order):
    entries = {}
    for j in range(order + 1):
        for k in range(order + 1 - j):
            entries[(j, k)] = F(rng.randint(-9, 9), rng.randint(1, 9))
    return TruncatedSeries2(entries, order, RAT)


class TestBivariate:
    def test_diagonal_of_x_plus_y_at_minus_one(self):
        f = TruncatedSeries2({(1, 0): F(1), (0, 1): F(1)}, 3, RAT)
        assert f.substitute_diagonal(F(-1)) == TruncatedSeries.zero(3, RAT)

    def test_diagonal_of_xy(self):
        f = TruncatedSeries2({(1, 1): F(1)}, 3, RAT)
        expected = TruncatedSeries.from_terms({2: F(1)}, 3, RAT)
        assert f.substitute_diagonal(F(1)) == expected

    def test_keys_must_fit_triangle(self):
        with pytest.raises(OrderMismatch):
            TruncatedSeries2({(2, 2): F(1)}, 3, RAT)

    def test_mul_then_diagonal_equals_diagonal_then_pointwise(self):
        rng = random.Random(43)
        for _ in range(5):
            A = random_series2(rng, 6)
            B = random_series2(rng, 6)
            c = F(rng.randint(-4, 4), rng.randint(1, 4))
            left = (A * B).substitute_diagonal(c)
            right = A.substitute_diagonal(c) * B.substitute_diagonal(c)
            assert left == right

    def test_dilate_per_variable(self):
        f = TruncatedSeries2({(1, 0): F(1), (0, 2): F(1)}, 3, RAT)
        g = f.dilate(F(2), F(3))
        assert g.coefficient(1, 0) == F(2)
        assert g.coefficient(0, 2) == F(9)

    def test_outer_product(self):
        f = series(1, 2, 0)
        g = series(1, 0, 3)
        h = outer(f, g)
        assert h.coefficient(0, 0) == 1
        assert h.coefficient(1, 0) == 2
        assert h.coefficient(0, 2) == 3
        assert h.coefficient(1, 2) == 0  # beyond the triangle

    def test_equality_on_common_order(self):
        a = TruncatedSeries2({(1, 1): F(1)}, 4, RAT)
        b = TruncatedSeries2({(1, 1): F(1), (3, 2): F(7)}, 5, RAT)
        assert a == b


def bivariate(order=1, backend=RAT):
    one = F(1) if backend is RAT else 1.0
    return TruncatedSeries2({(0, 0): one}, order, backend)


# each guard of the series classes that no other test reaches, by the call that trips it;
# a scalar product is spelled .scale(c), so * with a scalar and unary - raise TypeError
SERIES_GUARDS = {
    "empty series": (lambda: TruncatedSeries([]), ValueError),
    "mixed coefficients": (lambda: TruncatedSeries([F(1), 1.0]), BackendMismatch),
    "series + scalar": (lambda: series(1, 2) + 1, TypeError),
    "series * scalar": (lambda: series(1, 2) * 2, TypeError),
    "scalar * series": (lambda: 2 * series(1, 2), TypeError),
    "-series": (lambda: -series(1, 2), TypeError),
    "dilate by another backend": (lambda: series(1, 2).dilate(0.5), BackendMismatch),
    "truncate upward": (lambda: series(1, 2).truncate(2), OrderMismatch),
    "empty bivariate series": (lambda: TruncatedSeries2({}, -1, RAT), ValueError),
    "mixed bivariate coefficients": (
        lambda: TruncatedSeries2({(0, 0): F(1), (1, 0): 1.0}, 1, RAT),
        BackendMismatch,
    ),
    "float bivariate + rational": (lambda: bivariate(1, Backend.COMPLEX) + bivariate(), BackendMismatch),
    "float bivariate + other order": (
        lambda: bivariate(1, Backend.COMPLEX) + bivariate(2, Backend.COMPLEX),
        OrderMismatch,
    ),
    "exact bivariate - other order": (lambda: bivariate(1) - bivariate(2), OrderMismatch),
    "bivariate + scalar": (lambda: bivariate() + 1, TypeError),
    "bivariate - scalar": (lambda: bivariate() - 1, TypeError),
    "bivariate * scalar": (lambda: bivariate() * 2, TypeError),
    "scalar * bivariate": (lambda: 2 * bivariate(), TypeError),
    "bivariate scale by another backend": (lambda: bivariate().scale(0.5), BackendMismatch),
    "bivariate dilate by another backend": (lambda: bivariate().dilate(F(1), 0.5), BackendMismatch),
    "diagonal at another backend": (lambda: bivariate().substitute_diagonal(0.5), BackendMismatch),
    "outer of two backends": (
        lambda: outer(series(1, 2), promote_series(series(1, 2), Backend.COMPLEX)),
        BackendMismatch,
    ),
}


@pytest.mark.parametrize("name", sorted(SERIES_GUARDS))
def test_series_guards(name):
    call, error = SERIES_GUARDS[name]
    with pytest.raises(error):
        call()


TRIANGLE_KEYS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
GAUSS = GaussianRational(F(1, 2), -3)


@pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "backend, good, foreign",
    [
        (RAT, F(1, 2), 0.5),
        (RAT, 3, GAUSS),
        (Backend.GAUSSIAN, GAUSS, F(1, 2)),
        (Backend.GAUSSIAN, GAUSS, True),
        (Backend.COMPLEX, 0.5, True),
        (Backend.COMPLEX, 0.5 - 1j, GAUSS),
    ],
    ids=["rational-float", "rational-gaussian", "gaussian-fraction", "gaussian-bool", "float-bool", "complex-gaussian"],
)
def test_constructors_check_every_coefficient(backend, good, foreign, position):
    coeffs = [good] * 5
    coeffs[position] = foreign
    with pytest.raises(BackendMismatch, match="^series coefficients must share one backend$"):
        TruncatedSeries(coeffs, backend)
    with pytest.raises(BackendMismatch, match="^series coefficients must share one backend$"):
        TruncatedSeries2(dict(zip(TRIANGLE_KEYS, coeffs)), 2, backend)
    if position:  # the first coefficient names the backend when none is given
        with pytest.raises(BackendMismatch, match="^series coefficients must share one backend$"):
            TruncatedSeries(coeffs)


def test_constructors_take_ints_bools_and_subclasses_on_the_rationals():
    class Sub(F):
        pass

    coeffs = [1, F(1, 2), True, Sub(3, 4), -2]
    for backend in (RAT, None):
        f = TruncatedSeries(coeffs, backend)
        assert f.backend is RAT and f.coeffs == tuple(coeffs)
    g = TruncatedSeries2(dict(zip(TRIANGLE_KEYS, coeffs)), 2, RAT)
    assert g.backend is RAT and g.coeffs == dict(zip(TRIANGLE_KEYS, coeffs))


def test_bivariate_constructor_reports_the_first_bad_coefficient_in_order():
    # a key outside the triangle before a coefficient of another backend, and after it
    with pytest.raises(OrderMismatch, match=r"^key \(3,0\) outside triangle of order 2$"):
        TruncatedSeries2({(0, 0): F(1), (3, 0): F(1), (1, 0): 0.5}, 2, RAT)
    with pytest.raises(BackendMismatch, match="^series coefficients must share one backend$"):
        TruncatedSeries2({(0, 0): F(1), (1, 0): 0.5, (3, 0): F(1)}, 2, RAT)


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["+", "-"])
@pytest.mark.parametrize("backend", [RAT, Backend.COMPLEX], ids=["exact", "float"])
def test_bivariate_sum_and_difference_check_backend_and_order_once(backend, op):
    other_backend = Backend.COMPLEX if backend is RAT else RAT
    with pytest.raises(BackendMismatch, match="^series backends differ$"):
        op(bivariate(1, backend), bivariate(1, other_backend))
    with pytest.raises(OrderMismatch, match="^addition and subtraction require equal truncation orders$"):
        op(bivariate(1, backend), bivariate(2, backend))


def test_equality_across_types_and_backends_is_false():
    f = series(1, 2)
    assert f != 1 and f != promote_series(f, Backend.GAUSSIAN)
    assert bivariate() != 1 and bivariate() != bivariate(1, Backend.COMPLEX)
