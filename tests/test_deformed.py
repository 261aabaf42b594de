"""Deformed binomial powers, the deformed zero, and multinomial numbers."""

import itertools
import random
from fractions import Fraction as F

import pytest

from lucascalc import (
    BackendMismatch,
    DeformedPowerWeights,
    DeformedZeroWeights,
    IndexOutOfRange,
    MultinomialWeights,
    PowerWeights,
    binom2,
    deformed_power_coeffs,
    deformed_power_value,
    deformed_zero,
    lucas_u,
    lucas_v,
    lucasnomial,
    lucastorial,
    make_params,
    multinomial_number,
    params_from_roots,
    phi_product_power,
)


def _frac(rng):
    return F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _roots(rng):
    while True:
        a, b = _frac(rng), _frac(rng)
        if a != b and a + b != 0:
            return params_from_roots(a, b)


def direct_power_sum(n, x, y, u, v, params):
    """Independent oracle: term-by-term summation from the definition."""
    total = F(0)
    for k in range(n + 1):
        total += (
            lucasnomial(n, k, params) * u ** binom2(n - k) * v ** binom2(k) * x ** (n - k) * y**k
        )
    return total


class TestCoefficientRows:
    """Rows n = 0..4 of the expansion, checked symbolically at random (s,t)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_first_five_rows(self, seed):
        rng = random.Random(seed)
        s, t, u, v = _frac(rng), _frac(rng), _frac(rng), _frac(rng)
        p = make_params(s, t)
        two, three, four = lucas_u(2, p), lucas_u(3, p), lucas_u(4, p)
        companion_two = lucas_v(2, p)
        rows = {
            0: [F(1)],
            1: [F(1), F(1)],
            2: [u, two, v],
            3: [u**3, three * u, three * v, v**3],
            4: [u**6, four * u**3, three * companion_two * u * v, four * v**3, v**6],
        }
        for n, expected in rows.items():
            assert list(deformed_power_coeffs(n, u, v, p).coeffs) == expected

    def test_middle_coefficient_of_row_four_is_binomial_times_uv(self):
        rng = random.Random(99)
        s, t, u, v = _frac(rng), _frac(rng), _frac(rng), _frac(rng)
        p = make_params(s, t)
        assert lucas_u(3, p) * lucas_v(2, p) == lucasnomial(4, 2, p)
        assert deformed_power_coeffs(4, u, v, p).coeffs[2] == lucasnomial(4, 2, p) * u * v

    def test_boundary_evaluations(self):
        rng = random.Random(7)
        u, v = _frac(rng), _frac(rng)
        p = make_params(F(2), F(3))
        for n in range(7):
            assert deformed_power_value(n, F(1), F(0), u, v, p) == u ** binom2(n)
            assert deformed_power_value(n, F(0), F(1), u, v, p) == v ** binom2(n)


class TestValues:
    def test_degree_one_is_plain_sum(self):
        p = make_params(F(1), F(1))
        assert deformed_power_value(1, F(2), F(5), F(7), F(9), p) == 7

    def test_degree_three_pure_x(self):
        p = make_params(F(1), F(1))
        u = F(5, 3)
        assert deformed_power_value(3, F(1), F(0), u, F(4), p) == u**3

    def test_matches_direct_sum_oracle(self):
        rng = random.Random(13)
        p = make_params(F(1), F(1))
        assert deformed_power_value(4, F(1), F(1), F(1), F(1), p) == direct_power_sum(
            4, F(1), F(1), F(1), F(1), p
        )
        for _ in range(15):
            u, v, x, y = (_frac(rng) for _ in range(4))
            n = rng.randint(0, 8)
            assert deformed_power_value(n, x, y, u, v, p) == direct_power_sum(n, x, y, u, v, p)

    def test_zero_deformation_limits(self):
        # 0^0 = 1 keeps the k in {0,1} terms alive when u = 0
        p = make_params(F(1), F(1))
        assert deformed_power_value(2, F(1), F(1), F(0), F(0), p) == lucas_u(2, p)
        row = deformed_power_coeffs(3, F(0), F(5), p).coeffs
        assert row[0] == 0 and row[1] == 0 and row[2] != 0 and row[3] != 0

    @pytest.mark.parametrize(
        "x, y, u, v, expect",
        [
            (0.0, 0.5, 1e100, 0.5, 0.5**15 * 0.5**6),  # k = 6 alone: v^T(6) y^6
            (0.5, 0.0, 0.5, 1e100, 0.5**15 * 0.5**6),  # k = 0 alone: u^T(6) x^6
            (0j, 0.5, 1e100, 0.5, 0.5**15 * 0.5**6),
            (0.0, 0.0, 1e100, 1e100, 0.0),
        ],
        ids=["x=0", "y=0", "complex x=0", "x=y=0"],
    )
    def test_zero_coordinate_sums_only_the_surviving_term(self, x, y, u, v, expect):
        # 1e100^T(6) overflows to inf, and inf times a vanishing power of 0 is NaN
        p = make_params(1.0, 1.0)
        assert deformed_power_value(6, x, y, u, v, p) == expect
        assert deformed_power_value(0, x, y, u, v, p) == 1.0

    def test_slot_takes_a_deformation_or_a_weight_family(self):
        p = make_params(F(3, 2), F(-1, 2))
        x, y, u, v = F(2, 3), F(-1, 4), F(1, 2), F(3)
        family = MultinomialWeights((F(1, 2), F(2)), p)
        mixed = DeformedPowerWeights(x, y, family, v, p)
        by_family = DeformedPowerWeights(x, y, PowerWeights(u), PowerWeights(v), p)
        for n in range(8):
            assert by_family(n) == deformed_power_value(n, x, y, u, v, p)
            assert mixed(n) == sum(
                lucasnomial(n, k, p) * family(n - k) * v ** binom2(k) * x ** (n - k) * y**k
                for k in range(n + 1)
            )


class TestPhiProduct:
    def test_empty_product(self):
        p = params_from_roots(F(2), F(-1))
        assert phi_product_power(0, F(3), F(4), p) == 1

    def test_degree_one(self):
        p = params_from_roots(F(2), F(-1))
        assert phi_product_power(1, F(3), F(4), p) == 7

    def test_jacobsthal_example(self):
        p = params_from_roots(F(2), F(-1))
        assert phi_product_power(3, F(1), F(1), p) == 10
        assert deformed_power_value(3, F(1), F(1), F(2), F(-1), p) == 10

    def test_equals_deformed_value_at_roots(self):
        rng = random.Random(17)
        for _ in range(10):
            p = _roots(rng)
            x, y = _frac(rng), _frac(rng)
            for n in range(11):
                assert phi_product_power(n, x, y, p) == deformed_power_value(
                    n, x, y, p.phi, p.phi_prime, p
                )


class TestDeformedZero:
    def test_degree_one_vanishes(self):
        p = make_params(F(1), F(1))
        assert deformed_zero(1, F(5), F(7), p) == 0

    def test_degree_two_formula(self):
        rng = random.Random(19)
        u, v = _frac(rng), _frac(rng)
        p = make_params(F(2), F(3))
        assert deformed_zero(2, u, v, p) == u - p.s + v

    def test_vanishes_at_roots(self):
        rng = random.Random(23)
        for _ in range(8):
            p = _roots(rng)
            for n in range(1, 9):
                assert deformed_zero(n, p.phi, p.phi_prime, p) == 0


class TestNegationTheorem:
    def test_even_and_odd_sign_patterns(self):
        rng = random.Random(29)
        for _ in range(10):
            p = _roots(rng)
            u, v = _frac(rng), _frac(rng)
            for n in range(9):
                even = deformed_power_coeffs(2 * n, -u, -v, p).coeffs
                base = deformed_power_coeffs(2 * n, u, v, p).coeffs
                sign = (-1) ** n
                assert even == tuple(sign * (-1) ** k * c for k, c in enumerate(base))
                odd = deformed_power_coeffs(2 * n + 1, -u, -v, p).coeffs
                base = deformed_power_coeffs(2 * n + 1, u, v, p).coeffs
                assert odd == tuple(sign * c for c in base)


class TestMultinomial:
    def test_two_part_degree_two(self):
        p = make_params(F(1), F(1))
        u1, u2 = F(5), F(7)
        assert multinomial_number([u1, u2], 2, p) == u1 + p.s + u2

    def test_degree_zero_is_one(self):
        p = make_params(F(2), F(5))
        for m in range(1, 5):
            assert multinomial_number([F(3)] * m, 0, p) == 1

    def test_single_part_reduces_to_weight(self):
        p = make_params(F(1), F(1))
        u = F(3, 2)
        for n in range(8):
            assert multinomial_number([u], n, p) == u ** binom2(n)
        assert multinomial_number([F(1)], 6, p) == 1

    def test_direct_sum_matches_composition_enumeration(self):
        """Independent oracle: explicit composition enumeration via itertools."""
        rng = random.Random(31)
        p = make_params(F(1), F(2))
        for m in range(2, 6):
            us = [_frac(rng) for _ in range(m)]
            for n in range(9):
                assert multinomial_number(us, n, p) == composition_sum(us, n, p)

    def test_float_values_match_composition_enumeration(self):
        rng = random.Random(33)
        exact = make_params(F(1), F(2))
        p = make_params(1.0, 2.0)
        for m in range(1, 6):
            us = [float(_frac(rng)) for _ in range(m)]
            for n in range(13):
                expected = composition_sum([F(u) for u in us], n, exact)
                assert multinomial_number(us, n, p) == pytest.approx(float(expected), rel=1e-13)

    def test_inductive_composition_cross_check(self):
        """Appending one part equals the weight-1 binomial combination."""
        rng = random.Random(37)
        p = make_params(F(2), F(1))
        for m in range(1, 4):
            us = [_frac(rng) for _ in range(m)]
            extra = _frac(rng)
            inner = MultinomialWeights(tuple(us), p)
            for n in range(9):
                composed = sum(
                    lucasnomial(n, k, p) * extra ** binom2(k) * inner(n - k)
                    for k in range(n + 1)
                )
                assert multinomial_number(us + [extra], n, p) == composed

    def test_zero_weight_allowed(self):
        p = make_params(F(1), F(1))
        value = multinomial_number([F(0), F(2)], 3, p)
        assert value == direct_zero_oracle(p)


def composition_sum(us, n, p):
    """Multinomial number by explicit composition enumeration via itertools."""
    m = len(us)
    total = F(0)
    for cuts in itertools.combinations(range(n + m - 1), m - 1):
        parts = []
        prev = -1
        for cut in cuts:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(n + m - 2 - prev)
        term = lucastorial(n, p)
        for ui, ki in zip(us, parts):
            term = term / lucastorial(ki, p) * ui ** binom2(ki)
        total += term
    return total


def direct_zero_oracle(p):
    # compositions of 3 into 2 parts with first weight 0: 0^T(k1) kills k1 >= 2
    total = F(0)
    for k1 in range(4):
        k2 = 3 - k1
        total += (
            lucastorial(3, p)
            / (lucastorial(k1, p) * lucastorial(k2, p))
            * F(0) ** binom2(k1)
            * F(2) ** binom2(k2)
        )
    return total


ROOTS = make_params(F(1), F(2))  # roots 2 and -1


def _warm(weights):
    """The weight family after a call at degree 3, so -1 would index its cache."""
    weights(3)
    return weights


# each guard of the deformed layer that no other test reaches, by the call that trips it
DEFORMED_GUARDS = {
    "deformed_power_coeffs at -1": (lambda: deformed_power_coeffs(-1, F(1), F(2), ROOTS), IndexOutOfRange),
    "deformed_power_value at -1": (
        lambda: deformed_power_value(-1, F(1), F(1), F(1), F(2), ROOTS),
        IndexOutOfRange,
    ),
    "deformed_zero at -1": (lambda: deformed_zero(-1, F(1), F(2), ROOTS), IndexOutOfRange),
    "phi_product_power at -1": (lambda: phi_product_power(-1, F(1), F(1), ROOTS), IndexOutOfRange),
    "multinomial_number at -1": (lambda: multinomial_number([F(1)], -1, ROOTS), IndexOutOfRange),
    "no deformation parameter": (lambda: MultinomialWeights((), ROOTS), ValueError),
    "warm PowerWeights at -1": (lambda: _warm(PowerWeights(F(2)))(-1), IndexOutOfRange),
    "warm DeformedPowerWeights at -1": (
        lambda: _warm(DeformedPowerWeights(F(1), F(2), F(1), F(2), ROOTS))(-1),
        IndexOutOfRange,
    ),
    "warm DeformedZeroWeights at -1": (
        lambda: _warm(DeformedZeroWeights(F(1), F(2), ROOTS))(-1),
        IndexOutOfRange,
    ),
    # backends are checked once, when the family is built, not per degree
    "DeformedPowerWeights built at a float point": (
        lambda: DeformedPowerWeights(0.5, F(2), F(1), F(2), ROOTS),
        BackendMismatch,
    ),
    "DeformedPowerWeights built with a float deformation": (
        lambda: DeformedPowerWeights(F(1), F(2), F(1), 0.5, ROOTS),
        BackendMismatch,
    ),
    "DeformedZeroWeights built on float parameters": (
        lambda: DeformedZeroWeights(F(1), F(2), make_params(1.0, 2.0)),
        BackendMismatch,
    ),
}


@pytest.mark.parametrize("name", sorted(DEFORMED_GUARDS))
def test_deformed_guards(name):
    call, error = DEFORMED_GUARDS[name]
    with pytest.raises(error):
        call()
