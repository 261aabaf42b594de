"""Function families: series coefficients, adaptive values, and the sine zero."""

import hashlib
import inspect
import itertools
import math
import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction as F

import pytest

import lucascalc.deformed
import lucascalc.functions
from lucascalc import (
    Backend,
    BackendMismatch,
    DivisionByZeroValue,
    EvalInfo,
    FnKind,
    GaussianRational,
    LucasError,
    MultinomialWeights,
    NegativeNormalizer,
    NoRootFound,
    PiU,
    PoleAtOrigin,
    PowerWeights,
    SERIES_KINDS,
    SeriesDiverging,
    TruncatedSeries,
    VanishingFactor,
    binom2,
    binomial_series2,
    binomial_value,
    deformed_power_value,
    deformed_zero_series,
    deformed_zero_value,
    find_pi_u,
    fn_series,
    fn_value,
    fn_value_info,
    integral_value,
    integration_by_parts_residual,
    lucastorial,
    make_params,
    multinomial_number,
    multinomial_series,
    multinomial_value,
    outer,
    params_from_roots,
    tilde_value,
    weighted_binomial_value,
    weighted_fn_series,
    weighted_fn_value,
)

EXP, SIN, COS, TAN, COT = FnKind.EXP, FnKind.SIN, FnKind.COS, FnKind.TAN, FnKind.COT
SEC, CSC, SINH, COSH = FnKind.SEC, FnKind.CSC, FnKind.SINH, FnKind.COSH

FIB = make_params(F(1), F(1))


def _exact_draws(backend):
    """Four seeded (params, u, v) in an exact backend whose {1}..{16} are all nonzero."""
    rng = random.Random(67)

    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    def scalar():
        return rational() if backend is Backend.RATIONAL else GaussianRational(rational(), rational())

    draws = []
    while len(draws) < 4:
        s, t = scalar(), scalar()
        if s == 0 or t == 0:
            continue
        params = make_params(s, t)
        try:
            lucastorial(16, params)
        except VanishingFactor:
            continue
        draws.append((params, scalar(), scalar()))
    return draws


# each primary kind's first degree, degree step and alternating sign
PRIMARY = {EXP: (0, 1, False), SIN: (1, 2, True), COS: (0, 2, True), SINH: (1, 2, False), COSH: (0, 2, False)}

# the quotient kinds tan, sec, tanh and sech, and the kinds they are quotients of
QUOTIENT_PARTS = (TAN, SEC, SIN, COS, FnKind.TANH, FnKind.SECH, SINH, COSH)


class TestSeries:
    def test_exp_constant_term(self):
        for u in (F(3), F(0), F(-2, 5)):
            assert fn_series(EXP, u, FIB, 6).coeffs[0] == 1

    def test_exp_cubic_coefficient(self):
        u = F(4, 7)
        s = fn_series(EXP, u, FIB, 6)
        assert s.coeffs[3] == u**3 / 2  # weight exponent T(3) = 3, {3}! = 2

    def test_exp_zero_deformation_limit(self):
        s = fn_series(EXP, F(0), FIB, 6)
        assert s == TruncatedSeries.from_terms({0: F(1), 1: F(1)}, 6, Backend.RATIONAL)

    def test_trig_zero_deformation_limits(self):
        zero, one = F(0), F(1)
        assert fn_series(SIN, zero, FIB, 6) == TruncatedSeries.from_terms({1: one}, 6, Backend.RATIONAL)
        assert fn_series(COS, zero, FIB, 6) == TruncatedSeries.constant(one, 6)
        assert fn_series(TAN, zero, FIB, 6) == TruncatedSeries.from_terms({1: one}, 6, Backend.RATIONAL)
        assert fn_series(SINH, zero, FIB, 6) == TruncatedSeries.from_terms({1: one}, 6, Backend.RATIONAL)
        assert fn_series(COSH, zero, FIB, 6) == TruncatedSeries.constant(one, 6)

    def test_general_coefficients(self):
        u = F(2, 3)
        s = fn_series(SIN, u, FIB, 9)
        for j in range(5):
            m = 2 * j + 1
            if m > 9:
                break
            expect = (-1) ** j * u ** binom2(m) / lucastorial(m, FIB)
            assert s.coeffs[m] == expect
        assert all(s.coeffs[m] == 0 for m in range(0, 10, 2))

    def test_tan_is_sin_times_sec(self):
        u = F(1, 2)
        tan = fn_series(TAN, u, FIB, 10)
        sin = fn_series(SIN, u, FIB, 10)
        sec = fn_series(SEC, u, FIB, 10)
        assert tan == sin * sec

    @pytest.mark.parametrize("backend", [Backend.RATIONAL, Backend.GAUSSIAN])
    def test_quotients_times_denominator_give_numerator(self, backend):
        # checked through * alone, without the reciprocal the quotients are built with
        one = F(1) if backend is Backend.RATIONAL else GaussianRational(1)
        for params, u, v in _exact_draws(backend):
            for order in range(17):
                series = {kind: fn_series(kind, u, params, order) for kind in QUOTIENT_PARTS}
                unit = TruncatedSeries.constant(one, order)
                assert series[TAN] * series[COS] == series[SIN]
                assert series[SEC] * series[COS] == unit
                assert series[FnKind.TANH] * series[COSH] == series[SINH]
                assert series[FnKind.SECH] * series[COSH] == unit
                tan, cos, sin = (multinomial_series(kind, (u, v), params, order) for kind in (TAN, COS, SIN))
                assert tan * cos == sin

    def test_series_kinds_are_the_kinds_without_a_pole(self):
        assert SERIES_KINDS == set(FnKind) - {COT, CSC, FnKind.COTH, FnKind.CSCH}

    def test_pole_kinds_have_no_series(self):
        for kind in (COT, CSC, FnKind.COTH, FnKind.CSCH):
            assert kind not in SERIES_KINDS
            with pytest.raises(PoleAtOrigin):
                fn_series(kind, F(1), FIB, 6)


class TestValues:
    def test_sin_cos_at_origin(self):
        p = make_params(1.0, 1.0)
        assert fn_value(SIN, 0.0, 1.0, p) == 0.0
        assert fn_value(COS, 0.0, 1.0, p) == 1.0

    def test_exp_matches_50_term_exact_oracle(self):
        total = F(0)
        for n in range(51):
            total += F(1) / lucastorial(n, FIB)
        p = make_params(1.0, 1.0)
        info = fn_value_info(EXP, 1.0, 1.0, p)
        assert info.value == pytest.approx(float(total), rel=1e-12)
        assert info.terms_used < 40

    def test_values_match_high_order_series(self):
        rng = random.Random(3)
        p = make_params(1.0, 1.0)
        exact = fn_series(EXP, F(1, 2), FIB, 40)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0)
            expect = sum(float(c) * x**n for n, c in enumerate(exact.coeffs))
            assert fn_value(EXP, x, 0.5, p) == pytest.approx(expect, rel=1e-11)

    def test_pole_kind_at_origin(self):
        p = make_params(1.0, 1.0)
        with pytest.raises(DivisionByZeroValue):
            fn_value(COT, 0.0, 1.0, p)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: fn_value(CSC, 5e-324, 1.0, p),
            lambda p: fn_value(COT, 1e-310, 1.0, p),
            lambda p: tilde_value(CSC, 5e-324, 1.0, p),
            lambda p: multinomial_value(CSC, (1.0,), 5e-324, p),
        ],
        ids=["csc", "cot", "tilde-csc", "multinomial-csc"],
    )
    def test_infinite_quotient_raises(self, call):
        # sin x is finite and nonzero, but 1 / sin x overflows: inf is no value
        with pytest.raises(DivisionByZeroValue, match="not finite"):
            call(make_params(1.0, 1.0))

    def test_divergence_detected(self):
        p = make_params(1.0, 1.0)
        with pytest.raises(SeriesDiverging):
            fn_value(EXP, 2.0, 4.0, p)

    def test_non_finite_term_or_partial_sum_raises(self):
        # beside inf every later term would look small
        with pytest.raises(SeriesDiverging):
            fn_value_info(EXP, F(10) ** 400, F(1, 2), FIB)  # float(10^400) overflows
        with pytest.raises(SeriesDiverging):
            fn_value_info(EXP, 1e308, 1e-308, make_params(1.0, 1.0))  # 1 + 1e308 + 1e308
        # float powers that overflow while a term is drawn: u ** 3, then x ** 2 and u ** 3
        p = make_params(1.0, 1.0)
        with pytest.raises(SeriesDiverging, match="non-finite"):
            fn_value_info(TAN, 1e-200, 1e200, p)
        with pytest.raises(SeriesDiverging, match="non-finite"):
            binomial_value(EXP, 1e200, 0.5, 0.5, 0.5, p)
        with pytest.raises(SeriesDiverging, match="non-finite"):
            multinomial_value(SIN, (1e200,), 1e-200, p)

    def test_sum_that_stops_before_an_overflowing_power(self):
        # sin at u = 1e25 settles after four terms, whose ratios take u**3, u**7
        # and u**11; the next, u**15, overflows.  The ratio table forms it only
        # for a sum that reaches it, and keeps no step for it
        p = make_params(1.0, 1.0)
        assert fn_value_info(SIN, 1e-100, 1e25, p) == EvalInfo(1e-100, 4)
        with pytest.raises(SeriesDiverging, match="non-finite"):
            fn_value_info(SIN, 1e-80, 1e25, p)
        assert fn_value_info(SIN, 1e-100, 1e25, p) == EvalInfo(1e-100, 4)

    def test_divisor_that_underflows_is_diverging(self):
        # s = t = 1e-200: {2} = {3} = 1e-200, but the sine's first divisor
        # {2}{3} underflows to 0; it is raised before it is kept or divided by
        p = make_params(1e-200, 1e-200)
        for kind in (SIN, SINH, CSC, COT):
            with pytest.raises(SeriesDiverging, match="non-finite"):
                fn_value_info(kind, 0.5, 0.5, p)
        assert lucascalc.functions._value_tables(0.5, p)[1] == ()
        with pytest.raises(NoRootFound, match="series diverges at x=0.05"):
            find_pi_u(p, 1e-101)

    @pytest.mark.parametrize("kind", [EXP, SIN, COS, SINH, COSH])
    def test_origin_draws_only_the_first_term(self, kind):
        # u ** 3 would overflow, and s = 1, t = -1 has {3} = 0: neither is reached at 0
        expect = 1 if kind in (EXP, COS, COSH) else 0
        for p, zero, u in (
            (make_params(1.0, 1.0), 0.0, 1e200),
            (make_params(1.0, -1.0), 0.0, 0.5),
            (make_params(F(1), F(-1)), F(0), F(10) ** 50),
        ):
            info = fn_value_info(kind, zero, u, p)
            assert (info.value, info.terms_used) == (expect, 1)
            assert type(info.value) is type(zero)

    @pytest.mark.parametrize("kind", [EXP, SIN, COS, TAN, SINH])
    def test_vanishing_factor_index(self, kind):
        # s = 1, t = -1: {n} = 0, 1, 1, 0, ...; exp meets {3} as its divisor,
        # sin as the second factor of its first ratio, cos as the first of its second
        for p, x, u in ((make_params(1.0, -1.0), 0.5, 0.5), (make_params(F(1), F(-1)), F(1, 2), F(1, 2))):
            with pytest.raises(VanishingFactor) as err:
                fn_value_info(kind, x, u, p)
            assert err.value.index == 3

    def test_exact_value_evaluation(self):
        # adaptive summation terminates on exact backends too
        value = fn_value_info(EXP, F(1, 3), F(1, 2), FIB, eps=1e-15).value
        series = fn_series(EXP, F(1, 2), FIB, 30)
        assert float(value) == pytest.approx(float(series.eval_at(F(1, 3))), rel=1e-13)


class TestBivariate:
    # sha256 over str() of every coefficient, computed with one telescoped
    # lucasnomial product per entry; the O(n) rows must reproduce it exactly.
    GOLDEN_SHA256 = "be08513a6b353283d36c806f19da7f50495a985a0a55ef60350fc554c288f78c"

    def test_exact_coefficients_match_golden_digest(self):
        G = GaussianRational
        points = [
            (params_from_roots(F(3, 2), F(-1, 3)), F(2, 3), F(-5, 4)),
            (make_params(F(1), F(1)), F(1, 2), F(3)),
            (params_from_roots(G(1, 1), G(F(1, 2), -2)), G(F(1, 3), 1), G(-2, F(1, 5))),
            (make_params(G(2, -1), G(0, 3)), G(1, F(-1, 2)), G(F(3, 4), 0)),
        ]
        digest = hashlib.sha256()
        for params, u, v in points:
            for kind in (EXP, SIN, COS):
                series = binomial_series2(kind, u, v, params, 16)
                for key in sorted(series.coeffs):
                    digest.update(f"{key}:{series.coeffs[key]};".encode())
        assert digest.hexdigest() == self.GOLDEN_SHA256

    # sha256 over repr() of the float and complex coefficients, frozen while the
    # rows over the fields were the deformed row times the signed 1/{n}!.  The
    # last two points have complex factorials with a zero real or imaginary
    # part, where 1/(-z) and -1/z differ in the sign of a zero part.
    FLOAT_SHA256 = "61d6d5870a8c0d8f48a94fd69ea0e6ec18ee93033bb0f916858d9d3bffcb1713"

    def test_float_coefficients_match_golden_digest(self):
        points = [
            (make_params(1.0, 1.0), 0.5, 0.75),
            (make_params(1.5, -0.5), -0.3, 1.2),
            (make_params(1 + 0.5j, -0.5 + 1j), 0.6 - 0.2j, 0.3 + 0.4j),
            (make_params(1.0, 0.5j), 0.5, -0.75),
            (make_params(2j, 1.0), 0.5 + 0.1j, -0.75j),
        ]
        digest = hashlib.sha256()
        for params, u, v in points:
            for kind in (EXP, SIN, COS, SINH, COSH):
                for order in (12, 16):
                    series = binomial_series2(kind, u, v, params, order)
                    for key in sorted(series.coeffs):
                        digest.update(f"{key}:{series.coeffs[key]!r};".encode())
        assert digest.hexdigest() == self.FLOAT_SHA256

    def test_exp_bivariate_equals_outer_product(self):
        u, v = F(2, 3), F(-1, 2)
        lhs = binomial_series2(EXP, u, v, FIB, 8)
        rhs = outer(fn_series(EXP, u, FIB, 8), fn_series(EXP, v, FIB, 8))
        assert lhs == rhs

    def test_constant_coefficient(self):
        assert binomial_series2(EXP, F(1), F(1), FIB, 6).coefficient(0, 0) == 1
        assert binomial_series2(SIN, F(1), F(1), FIB, 6).coefficient(0, 0) == 0

    def test_bivariate_value_matches_series(self):
        p = make_params(1.0, 1.0)
        u, v = 0.5, 0.75
        series = binomial_series2(EXP, F(1, 2), F(3, 4), FIB, 20)
        x, y = 0.3, -0.2
        expect = sum(float(c) * x**j * y**k for (j, k), c in series.coeffs.items())
        assert binomial_value(EXP, x, y, u, v, p) == pytest.approx(expect, rel=1e-10)

    def test_bivariate_weights_are_deformed_powers(self):
        # degree-n slice of the exp combination is the deformed power over {n}!
        u, v = F(1, 2), F(2)
        S = binomial_series2(EXP, u, v, FIB, 6)
        x, y = F(2, 3), F(-1, 3)
        for n in range(7):
            slice_value = sum(
                S.coefficient(j, n - j) * x**j * y ** (n - j) for j in range(n + 1)
            )
            expect = deformed_power_value(n, x, y, u, v, FIB) / lucastorial(n, FIB)
            assert slice_value == expect


class TestWeightedPath:
    """Every weight family and kind runs through weighted_fn_value / weighted_fn_series."""

    # sha256 over repr() of float results on a seeded grid covering all 13
    # kinds, computed before the weighted families shared one evaluator;
    # the shared path must reproduce every bit and every term count.
    GOLDEN_SHA256 = "99423c35872a4933e1a0566f3190f1e4bf79d2fa2a631e5e9167dc7e3f9df1b5"

    def test_float_results_match_golden_digest(self):
        rng = random.Random(41)
        digest = hashlib.sha256()
        for s, t in ((1.0, 1.0), (2.0, 1.0), (1.5, -0.5)):
            p = make_params(s, t)
            for _ in range(4):
                u, v = rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9)
                x = rng.uniform(0.1, 0.9) * rng.choice((-1, 1))
                y = rng.uniform(-0.5, 0.5)
                for kind in FnKind:
                    info = fn_value_info(kind, x, u, p)
                    results = [
                        info.value,
                        info.terms_used,
                        binomial_value(kind, x, y, u, v, p),
                        weighted_binomial_value(kind, PowerWeights(v), PowerWeights(u), y, x, p),
                    ]
                    if kind in (EXP, SIN, COS, SINH, COSH):
                        results.append(deformed_zero_value(kind, u, v, x, p))
                    digest.update(f"{kind.value}:{results!r};".encode())
        assert digest.hexdigest() == self.GOLDEN_SHA256

    # sha256 over repr() of deformed_zero_value, binomial_value and
    # weighted_binomial_value results (or the error) for every kind, at complex
    # deformations and points with zero parts of both signs, on real and
    # complex s and t; computed while the rows called their weight families
    # entry by entry.  The real-only digest above cannot see the sign of a
    # zero part.
    COMPLEX_SHA256 = "ec171893e30230f8ed902bab782cdf15956cd569e2575fd708f24a6110144a53"

    def test_complex_results_match_golden_digest(self):
        assert _complex_row_digest() == self.COMPLEX_SHA256

    @pytest.mark.parametrize("kind", [EXP, SIN, COS])
    def test_weighted_binomial_calls_each_family_once_per_degree(self, kind):
        p = make_params(1.5, -0.5)
        calls = {"x": [], "y": []}

        def counting(name, weights):
            def family(n):
                calls[name].append(n)
                return weights(n)

            return family

        x_weights, y_weights = counting("x", PowerWeights(0.6)), counting("y", PowerWeights(-0.4))
        value = weighted_binomial_value(kind, x_weights, y_weights, 0.7, 0.3, p)
        expect = weighted_binomial_value(kind, PowerWeights(0.6), PowerWeights(-0.4), 0.7, 0.3, p)
        assert repr(value) == repr(expect)
        assert len(calls["x"]) > 10
        assert calls["x"] == calls["y"] == list(range(len(calls["x"])))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: multinomial_value(COS, (1e100,), 0.0, p),
            lambda p: deformed_zero_value(COS, 1e100, 1e100, 0.0, p),
            lambda p: tilde_value(COS, 0.0, 1e100, p),
            lambda p: binomial_value(COS, 0.0, 0.0, 1e100, 1e100, p),
        ],
        ids=["multinomial", "deformed-zero", "tilde", "binomial"],
    )
    def test_origin_draws_only_the_first_weight(self, call):
        # the degree-4 weight u^T(4) = 1e600 overflows; at x = 0 it is never drawn,
        # and a row at (x, y) = (0, 0) sums no term past degree 0
        assert call(make_params(1.0, 1.0)) == 1.0

    @pytest.mark.parametrize(
        "kind, slot, x, y, expect",
        [
            (COS, 0, 0.0, 0.0, 1.0),
            (COS, 1, 0.5, 0.0, 0.7603516221112298),
            (SIN, 0, 0.0, 0.5, 0.43853916353696454),
        ],
        ids=["x-family-at-origin", "y-family-at-y-zero", "x-family-at-x-zero"],
    )
    def test_zero_coordinate_grows_no_family_it_does_not_read(self, kind, slot, x, y, expect):
        # the family's float power u^T(4) = 1e100**6 overflows; the row of a zero
        # coordinate is read at degree 0 alone, so the family is asked for nothing more
        p = make_params(1.0, 1.0)
        family, asked = MultinomialWeights((1e100,), p), []

        def recording(n):
            asked.append(n)
            return family(n)

        families = [PowerWeights(1.0), PowerWeights(1.0)]
        families[slot] = recording
        value = weighted_binomial_value(kind, *families, x, y, p)
        plain = weighted_binomial_value(kind, PowerWeights(1.0), PowerWeights(1.0), x, y, p)
        assert repr(value) == repr(plain) == repr(expect)
        assert asked == [0]

    def test_origin_value_on_the_exact_backend(self):
        # s = 1, t = -1 has {3} = 0, which the second cos term would divide by
        p = make_params(F(1), F(-1))
        for weights in (PowerWeights(F(10) ** 50), MultinomialWeights((F(2), F(-3)), p)):
            assert weighted_fn_value(COS, weights, F(0), p) == 1
            assert weighted_fn_value(SIN, weights, F(0), p) == 0

    RATIONAL_P = make_params(F(1), F(1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: binomial_value(EXP, 0.5, 0.5, F(1, 2), F(1, 3), p),
            lambda p: binomial_value(EXP, F(1, 2), F(1, 2), 0.5, F(1, 3), p),
            lambda p: binomial_value(EXP, F(1, 2), F(1, 2), F(1, 2), 0.25, p),
            lambda p: weighted_binomial_value(EXP, PowerWeights(F(1, 2)), PowerWeights(F(1, 2)), 0.5, F(1), p),
            lambda p: weighted_binomial_value(COS, PowerWeights(F(1, 2)), PowerWeights(F(1, 2)), F(1), 0.5, p),
            lambda p: weighted_binomial_value(EXP, PowerWeights(0.5), PowerWeights(F(1, 2)), F(1), F(1), p),
            lambda p: weighted_binomial_value(SIN, PowerWeights(F(1, 2)), PowerWeights(0.5), F(1), F(1), p),
            lambda p: deformed_zero_value(EXP, F(1, 2), F(1, 3), 0.5, p),
            lambda p: deformed_zero_value(EXP, 0.5, F(1, 3), F(1, 2), p),
            lambda p: deformed_zero_value(COS, F(1, 2), 0.5, F(1, 2), p),
            lambda p: multinomial_value(EXP, (F(1, 2),), 0.5, p),
            lambda p: weighted_fn_value(EXP, PowerWeights(F(1, 2)), 0.5, p),
            lambda p: weighted_fn_value(EXP, PowerWeights(0.5), F(1, 2), p),
            lambda p: weighted_fn_series(TAN, PowerWeights(0.5), p, 4),
            lambda p: fn_series(EXP, 0.5, p, 4),
        ],
        ids=[
            "binomial-xy",
            "binomial-u",
            "binomial-v",
            "weighted-binomial-x",
            "weighted-binomial-y",
            "weighted-binomial-x-weights",
            "weighted-binomial-y-weights",
            "deformed-zero-x",
            "deformed-zero-u",
            "deformed-zero-v",
            "multinomial-x",
            "weighted-x",
            "weighted-weights",
            "weighted-series-weights",
            "fn-series-u",
        ],
    )
    def test_mixed_backends_rejected(self, call):
        with pytest.raises(BackendMismatch, match=r"mixed scalar backends: \['complex-float', 'rational'\]"):
            call(self.RATIONAL_P)

    @pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
    def test_power_weighted_series_is_fn_series(self, kind):
        gaussian = [(u, p) for p, u, _ in _exact_draws(Backend.GAUSSIAN)[:2]]
        floats = [(0.7, make_params(1.5, -0.5)), (0.5 - 0.25j, make_params(1.0, 1.0))]
        for u, p in [(F(2, 3), FIB), (F(-1, 2), make_params(F(2), F(-3)))] + gaussian + floats:
            assert weighted_fn_series(kind, PowerWeights(u), p, 10) == fn_series(kind, u, p, 10)

    # a quotient forms its denominator's degrees, then its numerator's
    @pytest.mark.parametrize(
        "kind, parts", [(EXP, [EXP]), (SIN, [SIN]), (COS, [COS]), (TAN, [COS, SIN]), (FnKind.SECH, [COSH])]
    )
    @pytest.mark.parametrize("backend", [Backend.RATIONAL, Backend.GAUSSIAN])
    def test_exact_series_forms_only_the_degrees_its_kind_reads(self, kind, parts, backend, monkeypatch):
        formed, builder = [], lucascalc.functions.power_coefficient

        def recording(u, params, m, negative=False):
            formed.append((m, negative))
            return builder(u, params, m, negative)

        monkeypatch.setattr(lucascalc.functions, "power_coefficient", recording)
        p, u, _ = _exact_draws(backend)[0]
        fn_series(kind, u, p, 9)
        expect = []
        for part in parts:
            first, step, alternating = PRIMARY[part]
            expect += [(m, alternating and j % 2 == 1) for j, m in enumerate(range(first, 10, step))]
        assert formed == expect

    def test_exact_series_checks_type_kind_and_backend_in_order(self):
        gaussian = make_params(GaussianRational(1, 1), GaussianRational(2))
        with pytest.raises(TypeError, match="^unsupported scalar type: str$"):
            fn_series(COT, "1/2", gaussian, 4)
        with pytest.raises(PoleAtOrigin):
            fn_series(COT, F(1, 2), gaussian, 4)
        with pytest.raises(BackendMismatch, match=re.escape("mixed scalar backends: ['gaussian-rational', 'rational']")):
            fn_series(EXP, F(1, 2), gaussian, 4)
        with pytest.raises(BackendMismatch, match=re.escape("mixed scalar backends: ['gaussian-rational', 'rational']")):
            fn_series(EXP, GaussianRational(1, 2), FIB, 4)

    @pytest.mark.parametrize("kind", list(FnKind))
    def test_power_weighted_value_is_fn_value(self, kind):
        rng = random.Random(43)
        p = make_params(1.0, 1.0)
        for _ in range(5):
            u, x = rng.uniform(0.2, 0.9), rng.uniform(0.1, 0.9)
            expect = fn_value(kind, x, u, p)
            assert weighted_fn_value(kind, PowerWeights(u), x, p) == pytest.approx(expect, rel=1e-12)


def _complex_row_digest():
    rng = random.Random(89)

    def part():
        return complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))

    digest = hashlib.sha256()
    for s, t in ((1.0, 1.0), (1.5, -0.5), (1 + 0.5j, 0.5 - 0.25j), (2j, 1.0)):
        p = make_params(s, t)
        deformations = [(0j, complex(-0.0, 0.5)), (complex(0.5, -0.0), -0.25j), (0.6, complex(0.0, -0.7))]
        points = [(complex(0.3, -0.0), complex(-0.0, 0.2)), (complex(-0.0, -0.4), 0.25), (-0.5, 0j)]
        deformations.append((part(), part()))
        points.append((part(), part() / 2))
        for u, v in deformations:
            for x, y in points:
                for kind in FnKind:
                    x_weights, y_weights = MultinomialWeights((u, v), p), PowerWeights(v)
                    results = [
                        _outcome(deformed_zero_value, kind, u, v, x, p),
                        _outcome(binomial_value, kind, x, y, u, v, p),
                        _outcome(weighted_binomial_value, kind, x_weights, y_weights, x, y, p),
                    ]
                    digest.update(f"{u!r}:{v!r}:{x!r}:{y!r}:{kind.value}:{results!r};".encode())
    return digest.hexdigest()


def _pi_range_params(rng):
    """Float parameters from the ranges the pi_u records draw: phi in
    +-[1.25, 2.4], phi' in +-[0.08, 0.75] |phi|, redrawn near s = 0 or t = 0."""
    while True:
        phi = rng.uniform(1.25, 2.4) * rng.choice((-1.0, 1.0))
        psi = rng.uniform(0.08, 0.75) * abs(phi) * rng.choice((-1.0, 1.0))
        if abs(phi + psi) >= 0.05 and abs(phi * psi) >= 0.02:
            return params_from_roots(phi, psi)


def _outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except LucasError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestFloatPointDigest:
    """Float point evaluation far from the origin, where many terms are summed."""

    # sha256 over repr() of fn_value_info (value and terms used, or the error)
    # at |x| in [0.05, 8] and |u| up to 0.95 |phi|, computed before the float
    # path was streamlined; every bit, term count and message must stay.  And
    # of find_pi_u (value and residual, or the error) with x_max 8 and 10,
    # computed when Illinois regula falsi replaced bisection: all 35 roots
    # moved, each closer to the mpmath root (largest distance 4.1e-14 before,
    # 8.5e-16 after), and every error stayed.
    VALUE_SHA256 = "70e8501a1a00219194d5845056450b19b78d019a96c7d7ceb0b1d091fe3a6752"
    PIU_SHA256 = "3c57def0982fc128a5c67fe9fd5fe7b1e1aed52beb685348a9719b720f5115df"

    def test_values_match_golden_digest(self):
        rng = random.Random(53)
        digest = hashlib.sha256()
        for _ in range(15):
            p = _pi_range_params(rng)
            for _ in range(10):
                u = rng.uniform(0.05, 0.95) * abs(p.phi) * rng.choice((-1.0, 1.0))
                x = rng.uniform(0.05, 8.0) * rng.choice((-1.0, 1.0))
                for kind in FnKind:
                    info = _outcome(fn_value_info, kind, x, u, p)
                    if not isinstance(info, str):
                        info = (info.value, info.terms_used)
                    digest.update(f"{kind.value}:{info!r};".encode())
        assert digest.hexdigest() == self.VALUE_SHA256

    def test_pi_u_matches_golden_digest(self):
        rng = random.Random(59)
        digest = hashlib.sha256()
        for _ in range(40):
            p = _pi_range_params(rng)
            u = rng.uniform(0.2, 1.0) * min(1.0, 0.95 * abs(p.phi))
            for x_max in (8.0, 10.0):
                root = _outcome(find_pi_u, p, u, x_max=x_max)
                if not isinstance(root, str):
                    root = (root.value, root.residual)
                digest.update(f"{x_max}:{root!r};".encode())
        assert digest.hexdigest() == self.PIU_SHA256


class TestComplexPointDigest:
    """Complex point evaluation, with ±0.0 parts in s, t, u and x."""

    # sha256 over the type, the repr of the real and imaginary parts and the
    # terms used of fn_value_info, or the error, for every kind at seeded
    # complex points; computed before the adaptive summer's loop was
    # streamlined, and every bit, zero sign, term count and message must stay
    VALUE_SHA256 = "bd84058f8fa12e69f05aac68517ce5de48cb88fb33749637488cf29de4c7e3c4"

    def test_values_match_golden_digest(self):
        rng = random.Random(61)

        def part(scale):
            return rng.choice((0.0, -0.0, rng.uniform(-scale, scale), rng.uniform(-scale, scale)))

        def draw(scale):
            z = complex(part(scale), part(scale))
            return z if z else complex(scale / 2, part(scale))  # s and t are nonzero

        digest = hashlib.sha256()
        for _ in range(12):
            p = make_params(draw(2.0), draw(1.5))
            for _ in range(6):
                u, x = draw(1.0), draw(4.0)
                for kind in FnKind:
                    info = _outcome(fn_value_info, kind, x, u, p)
                    if not isinstance(info, str):
                        v = info.value
                        info = f"{type(v).__name__} {v.real!r} {v.imag!r} {info.terms_used}"
                    digest.update(f"{kind.value}:{info};".encode())
        assert digest.hexdigest() == self.VALUE_SHA256


def _bits(info) -> str:
    """An outcome of :func:`_outcome` as text that tells every value apart, -0.0 from 0.0 too."""
    if isinstance(info, str):
        return info
    return f"{type(info.value).__name__} {info.value!r} {info.terms_used}"


def _fresh_bits(kind, x, u, s, t) -> str:
    """The point value on new parameters, whose cache holds no ratio table yet."""
    return _bits(_outcome(fn_value_info, kind, x, u, make_params(s, t)))


G = GaussianRational
COMPLEX_XS = (complex(-0.3, -0.0), complex(-0.0, -0.4))


class TestSharedTables:
    """Every point value at one (params, u) shares the ratio tables in the cache's slot."""

    @pytest.mark.parametrize(
        "s, t, us, xs",
        [
            (1.0, 1.0, (0.6, -1.2), (0.3, 2.5)),
            # equal u whose zero parts differ in sign: u ** k keeps the sign, and
            # at these complex x some kinds carry it into a zero part of the value
            (-1.0, 2.0, (0.0, -0.0), (complex(0.3, -0.0), complex(-0.0, 2.0))),
            (-1.0, 2.0, (-0.0, 0.0), (complex(0.3, -0.0), complex(-0.0, 2.0))),
            (1.0, 1.0, (1 + 0j, complex(1, -0.0), -1 + 0j, complex(-1, -0.0)), COMPLEX_XS),
            (1.0, 1.0, (complex(-1, -0.0), -1 + 0j, complex(1, -0.0), 1 + 0j), COMPLEX_XS),
            # an int and a Fraction u of one value are not the same u
            (F(1), F(1), (F(1, 2), 1, F(1)), (F(1, 3), F(5, 2))),
            (G(1), G(1), (G(1, 2), G(F(1, 2), 1)), (G(F(1, 3)), G(F(5, 2), F(-1, 2)))),
        ],
    )
    def test_values_are_bit_identical_to_fresh_tables(self, s, t, us, xs):
        # every kind, small x before large and large before small, each u in turn
        for order in (xs, xs[::-1]):
            p = make_params(s, t)
            for u in us:
                for kind in FnKind:
                    for x in order:
                        got = _bits(_outcome(fn_value_info, kind, x, u, p))
                        assert got == _fresh_bits(kind, x, u, s, t), (kind, x, u)

    def test_a_repeated_call_and_a_sibling_kind_read_no_new_term(self):
        p = make_params(1.0, 1.0)
        read, reads = p.cache.u, []
        p.cache.u = lambda n: reads.append(n) or read(n)
        first = fn_value_info(SIN, 1.5, 0.7, p)
        assert reads
        reads.clear()
        assert fn_value_info(SIN, 1.5, 0.7, p) == first
        assert fn_value_info(SINH, 1.5, 0.7, p) == fn_value_info(SINH, 1.5, 0.7, make_params(1.0, 1.0))
        assert fn_value_info(CSC, 1.5, 0.7, p) == fn_value_info(CSC, 1.5, 0.7, make_params(1.0, 1.0))
        assert reads == []

    def test_a_u_of_another_backend_leaves_the_slot_alone(self):
        # the backends are checked before the slot is read
        p = make_params(1.0, 1.0)
        fn_value_info(SIN, 1.0, 0.7, p)
        tables = lucascalc.functions._value_tables(0.7, p)
        held = tuple(tables)
        assert held[1]
        mixed = "mixed scalar backends: ['complex-float', 'rational']"
        with pytest.raises(BackendMismatch, match=re.escape(mixed)):
            fn_value_info(SIN, 1.0, F(7, 10), p)
        assert lucascalc.functions._value_tables(0.7, p) is tables and tuple(tables) == held

    @pytest.mark.parametrize("kind", [EXP, SIN, COS])
    def test_a_sum_goes_on_from_its_snapshot_when_the_table_grows(self, kind):
        # the interleaving a thread switch can make, in one thread: a sum has
        # read its snapshot of the table when another sum grows the table
        p, u = make_params(1.0, 1.0), 0.7
        fn_value_info(kind, 0.5, u, p)
        terms = lucascalc.functions._primary_value_terms(kind, 2.0, u, p, lucascalc.functions._value_tables(u, p))
        drawn = [next(terms), next(terms)]
        fn_value_info(kind, 4.0, u, p)
        value, used = lucascalc.functions._adaptive_sum(itertools.chain(drawn, terms), 1e-12)
        assert _bits(EvalInfo(value, used)) == _fresh_bits(kind, 2.0, u, 1.0, 1.0)
        alone = make_params(1.0, 1.0)
        for x in (0.5, 4.0, 2.0):
            fn_value_info(kind, x, u, alone)
        assert lucascalc.functions._value_tables(u, p) == lucascalc.functions._value_tables(u, alone)

    def test_threads_grow_one_table(self):
        # each thread walks the points in its own order, so one thread grows a
        # table while others read it or grow it too; each round starts empty
        u, xs, workers = 0.7, [0.2 * k for k in range(1, 21)], 8
        points = [(kind, x) for x in xs for kind in FnKind]
        alone = make_params(1.0, 1.0)
        expect = {point: _bits(_outcome(fn_value_info, *point, u, alone)) for point in points}
        for round_no in range(4):
            shared, results = make_params(1.0, 1.0), []
            start = threading.Barrier(workers, timeout=60)

            def work(seed):
                order = random.Random(seed).sample(points, len(points))
                start.wait()
                for point in order:
                    results.append((point, _bits(_outcome(fn_value_info, *point, u, shared))))

            threads = [
                threading.Thread(target=work, args=(round_no * workers + i,), daemon=True)
                for i in range(workers)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == workers * len(points)
            assert all(bits == expect[point] for point, bits in results)
            assert lucascalc.functions._value_tables(u, shared) == lucascalc.functions._value_tables(u, alone)


class TestMultinomial:
    def test_single_weight_reduces_to_plain(self):
        p = make_params(1.0, 1.0)
        x = 0.4
        assert multinomial_value(EXP, (0.5,), x, p) == pytest.approx(
            fn_value(EXP, x, 0.5, p), rel=1e-12
        )

    def test_cos_multinomial_at_origin(self):
        p = make_params(1.0, 1.0)
        assert multinomial_value(COS, (0.5, 0.25), 0.0, p) == 1.0

    def test_series_coefficients_are_multinomial_numbers(self):
        # multinomial_series multiplies the parts' rows with *, and
        # multinomial_number grows the lazy per-degree product: two routes
        rng = random.Random(79)
        for params, u, v in _exact_draws(Backend.RATIONAL) + _exact_draws(Backend.GAUSSIAN):
            for parts in range(1, 5):
                us = tuple(rng.sample((u, v, params.s, params.t, u * v), parts))
                numbers = [multinomial_number(us, m, params) / lucastorial(m, params) for m in range(17)]
                for order in range(17):
                    series = {kind: multinomial_series(kind, us, params, order) for kind in (*PRIMARY, TAN)}
                    for kind in PRIMARY:
                        first, step, alternating = PRIMARY[kind]
                        expect = [0] * (order + 1)
                        for j, m in enumerate(range(first, order + 1, step)):
                            expect[m] = -numbers[m] if alternating and j % 2 else numbers[m]
                        assert list(series[kind].coeffs) == expect
                    assert series[TAN] * series[COS] == series[SIN]
        # {3} = 0 at (1, -1), past the last degree cos reads at order 3: {2}! = 1,
        # and the degree-2 multinomial number of (u1, u2) is u1 + s + u2
        p = make_params(F(1), F(-1))
        expect = TruncatedSeries([F(1), F(0), -F(10, 3), F(0)], Backend.RATIONAL)
        assert multinomial_series(COS, (F(2), F(1, 3)), p, 3) == expect
        with pytest.raises(VanishingFactor, match=re.escape("{3}")):
            multinomial_series(SIN, (F(2), F(1, 3)), p, 3)

    def test_series_errors(self):
        # the kind is refused before any row is formed, so a vanishing {3} is never met
        with pytest.raises(PoleAtOrigin, match="cot has a pole at 0"):
            multinomial_series(COT, (F(2),), make_params(F(1), F(-1)), 8)
        with pytest.raises(ValueError, match="at least one deformation parameter is required"):
            multinomial_series(COT, (), FIB, 4)
        with pytest.raises(BackendMismatch, match=re.escape("mixed scalar backends: ['complex-float', 'rational']")):
            multinomial_series(EXP, (F(1), 0.5), FIB, 4)
        for kind in (EXP, SIN, TAN):
            with pytest.raises(ValueError, match="a series needs at least the constant coefficient"):
                multinomial_series(kind, (F(1), F(2)), FIB, -1)

    # |float c_m - exact c_m| <= SERIES_ROUNDINGS * 2^-53 * sum of |Cauchy terms|
    SERIES_ROUNDINGS = 1024

    def test_float_series_against_exact_series(self):
        """Float multinomial_series of the primary kinds against the exact series
        of the same s, t and parts, read as dyadic Fractions.

        Coefficient m is checked against the sum of the magnitudes of its
        Cauchy terms, the degree-m coefficient of the product of the rows
        |u^T(k) / {k}!|, since a cancelled coefficient has no meaningful
        relative error.  Over these 40 draws (order 12, 1-4 parts, real and
        complex) the largest multiple of 2^-53 seen was 320.0.  It comes from
        the float rows, not from their product: {k}! of a real s and t of
        mixed sign inherits the cancellation in {k}.  The bound keeps a margin
        of about three.
        """
        rng = random.Random(83)

        def draw(lo, hi, cplx):
            value = rng.uniform(lo, hi) * rng.choice((-1, 1))
            return complex(value, rng.uniform(-1, 1)) if cplx else value

        def exact(z):
            return GaussianRational(F(z.real), F(z.imag)) if isinstance(z, complex) else F(z)

        order, worst = 12, 0.0
        for i in range(40):
            s, t = draw(0.5, 2.0, i % 2), draw(0.2, 1.5, i % 2)
            us = tuple(draw(0.1, 1.2, i % 2) for _ in range(1 + i % 4))
            p = make_params(s, t)
            product = multinomial_series(EXP, [exact(u) for u in us], make_params(exact(s), exact(t)), order)
            rows = [[abs(u ** binom2(k) / lucastorial(k, p)) for k in range(order + 1)] for u in us]
            scale = rows[0]
            for row in rows[1:]:
                scale = [sum(row[k] * scale[m - k] for k in range(m + 1)) for m in range(order + 1)]
            for kind, (first, step, alternating) in PRIMARY.items():
                series = multinomial_series(kind, us, p, order)
                for j, m in enumerate(range(first, order + 1, step)):
                    expect = -product.coeffs[m] if alternating and j % 2 else product.coeffs[m]
                    error = abs(complex(exact(series.coeffs[m]) - expect))
                    worst = max(worst, error / (2.0**-53 * scale[m]))
        assert worst <= self.SERIES_ROUNDINGS

    # sha256 over repr() of float multinomial_value results (or the error)
    # for 1-5 parts and every kind on a seeded grid, computed before the
    # identity records dropped their weights cache and MultinomialWeights
    # kept a running product for its last part; every bit must stay.
    VALUE_SHA256 = "8fb3bb9b7695f36968e4c54c02e8a557bf0b14fb9acbaa5754414597eb55a367"

    def test_float_values_match_golden_digest(self):
        rng = random.Random(61)
        digest = hashlib.sha256()
        for s, t in ((1.0, 1.0), (2.0, 1.0), (1.5, -0.5)):
            p = make_params(s, t)
            for parts in range(1, 6):
                for _ in range(3):
                    us = tuple(rng.uniform(-0.8, 0.8) for _ in range(parts))
                    x = rng.uniform(0.1, 2.5) * rng.choice((-1, 1))
                    for kind in FnKind:
                        value = _outcome(multinomial_value, kind, us, x, p)
                        digest.update(f"{parts}:{kind.value}:{value!r};".encode())
        assert digest.hexdigest() == self.VALUE_SHA256

    # sha256 over repr() of MultinomialWeights values for n <= 12 and float
    # multinomial_value results (or the error) for every kind, on complex
    # deformation tuples: zero parts, mixed real and complex tuples, and real
    # and complex s, t and x; computed while MultinomialWeights summed its
    # products with _cauchy.  The real-only VALUE_SHA256 above cannot see the
    # sign of a zero part or a degree-0 weight of 1.0 becoming (1+0j).
    COMPLEX_VALUE_SHA256 = "1748890922b47cbede21cc774662c65861da1d154daaaed1c896aed4f83c181c"

    def test_complex_parts_match_golden_digest(self):
        assert _complex_multinomial_digest() == self.COMPLEX_VALUE_SHA256


def _complex_multinomial_digest():
    rng = random.Random(73)

    def part():
        return complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))

    digest = hashlib.sha256()
    for s, t in ((1.0, 1.0), (1.5, -0.5), (1 + 0.5j, 0.5 - 0.25j)):
        p = make_params(s, t)
        tuples = [(0j,), (0.0, part()), (0.5, -0.25j), (part(), -0.0, 0.75), (complex(0.0, -0.5),)]
        tuples += [tuple(part() for _ in range(parts)) for parts in range(1, 5)]
        for us in tuples:
            weights = MultinomialWeights(us, p)
            digest.update(f"{us!r}:{[_outcome(weights, n) for n in range(13)]!r};".encode())
            for x in (rng.uniform(-2.0, 2.0), part() * 2):
                for kind in FnKind:
                    value = _outcome(multinomial_value, kind, us, x, p)
                    digest.update(f"{kind.value}:{x!r}:{value!r};".encode())
    return digest.hexdigest()


class TestDeformedZeroSeries:
    @pytest.mark.parametrize("kind", [COS, COSH, SIN, SINH])
    def test_value_forms_only_the_rows_its_kind_reads(self, kind, monkeypatch):
        # the one even row a sine forms is degree 0, which weighted_fn_value
        # reads to check the weights' backend; a cosine reads it again from the memo
        formed, row_value = [], lucascalc.deformed.row_value

        def recording(n, *args):
            formed.append(n)
            return row_value(n, *args)

        monkeypatch.setattr(lucascalc.deformed, "row_value", recording)
        p = params_from_roots(1.8, -0.9)
        first, step, _ = PRIMARY[kind]
        for value in (
            lambda: deformed_zero_value(kind, 0.7, 0.7, 2.5, p),
            lambda: binomial_value(kind, 2.0, 0.5, 0.95, 0.9, p),
        ):
            formed.clear()
            value()
            assert formed[0] == 0 and len(formed) > 10
            assert formed[1:] == list(range(first or step, formed[-1] + 1, step))

    def test_cos_kind_at_origin(self):
        p = make_params(1.0, 1.0)
        assert deformed_zero_value(COS, 0.5, 0.75, 0.0, p) == 1.0

    def test_sin_kind_vanishes_at_roots(self):
        p = params_from_roots(2.0, -1.0)
        for x in (0.1, 0.4, 0.9):
            assert deformed_zero_value(SIN, 2.0, -1.0, x, p) == pytest.approx(0.0, abs=1e-14)

    def test_pythagorean_value_oracle(self):
        p = make_params(1.0, 1.0)
        x = 0.4
        lhs = fn_value(SIN, x, 1.0, p) ** 2 + fn_value(COS, x, 1.0, p) ** 2
        rhs = deformed_zero_value(COS, 1.0, 1.0, x, p)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_exact_series_matches_weights(self):
        u, v = F(1, 3), F(-2)
        S = deformed_zero_series(COS, u, v, FIB, 8)
        from lucascalc import deformed_zero

        for j in range(5):
            m = 2 * j
            expect = (-1) ** j * deformed_zero(m, u, v, FIB) / lucastorial(m, FIB)
            assert S.coeffs[m] == expect


class TestTilde:
    def test_values_at_origin(self):
        p = make_params(1.0, 1.0)
        assert tilde_value(COS, 0.0, 1.0, p) == 1.0
        assert tilde_value(SIN, 0.0, 1.0, p) == 0.0

    @pytest.mark.parametrize("s,t,u", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (2.0, 1.0, 1 / 3)])
    def test_unit_circle(self, s, t, u):
        p = make_params(s, t)
        for x in (-0.5, -0.2, 0.1, 0.3, 0.5):
            total = tilde_value(SIN, x, u, p) ** 2 + tilde_value(COS, x, u, p) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_secant_form(self):
        p = make_params(1.0, 1.0)
        x, u = 0.3, 0.5
        assert tilde_value(TAN, x, u, p) ** 2 + 1.0 == pytest.approx(
            tilde_value(SEC, x, u, p) ** 2, rel=1e-10
        )

    def test_rejects_exact_backend(self):
        with pytest.raises(NegativeNormalizer):
            tilde_value(SIN, F(1, 4), F(1), FIB)


def _golden_pi_draws():
    """The 80 (params, u, x_max) searches of the pi_u golden digest."""
    rng = random.Random(59)
    for _ in range(40):
        p = _pi_range_params(rng)
        u = rng.uniform(0.2, 1.0) * min(1.0, 0.95 * abs(p.phi))
        for x_max in (8.0, 10.0):
            yield p, u, x_max


def _grid_scan_pi_u(params, u, x_max):
    """The first zero of sin by summing every point of the 0.05 grid, then
    Illinois regula falsi: the search find_pi_u made before it skipped
    stretches it proves zero-free, kept as the reference its skips must
    reproduce bit for bit, errors and their texts included."""

    def s(x):
        return fn_value(SIN, x, u, params)

    prev_x = prev_val = None
    x = 0.05
    while x <= x_max + 1e-12:
        try:
            val = s(x)
        except SeriesDiverging:
            raise NoRootFound(f"series diverges at x={x:.4g} before any sign change") from None
        if val == 0.0:
            return PiU(params, u, x, 0.0)
        if prev_val is not None and (val < 0) != (prev_val < 0):
            break
        prev_x, prev_val = x, val
        x += 0.05
    else:
        raise NoRootFound(f"no sign change of sin on (0, {x_max}]")
    lo, hi, f_lo, f_hi = prev_x, x, prev_val, val
    w_lo, w_hi, kept = f_lo, f_hi, None
    while hi - lo > 1e-13:
        mid = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        mid = min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < mid < hi:
            break
        f_mid = s(mid)
        if f_mid == 0.0:
            return PiU(params, u, mid, 0.0)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo, w_lo = mid, f_mid, f_mid
            if kept == "hi":
                w_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, w_hi = mid, f_mid, f_mid
            if kept == "lo":
                w_lo *= 0.5
            kept = "lo"
    root, f_root = (hi, f_hi) if abs(f_hi) < abs(f_lo) else (lo, f_lo)
    return PiU(params, u, root, abs(f_root))


class TestPiU:
    def test_fibonacci_unit_root(self):
        p = make_params(1.0, 1.0)
        root = find_pi_u(p, 1.0)
        assert 1.5 < root.value < 1.6
        assert root.residual < 1e-10

    def test_pell_root(self):
        p = make_params(2.0, 1.0)
        root = find_pi_u(p, 1.0)
        assert root.value > 0
        assert root.residual < 1e-10

    def test_no_root_when_series_diverges(self):
        p = make_params(1.0, 1.0)
        with pytest.raises(NoRootFound):
            find_pi_u(p, 3.0)

    def test_leftmost_root_wins(self):
        p = make_params(1.0, 1.0)
        root = find_pi_u(p, 1.0)
        # no sign change on a finer grid before the reported root
        prev = None
        x = 0.01
        while x < root.value - 1e-6:
            val = fn_value(SIN, x, 1.0, p)
            if prev is not None:
                assert (val < 0) == (prev < 0)
            prev = val
            x += 0.01

    # the first three scan points, accumulated as the scan does
    X1 = 0.05
    X2 = X1 + 0.05
    X3 = X2 + 0.05

    @staticmethod
    def _fake_sine(monkeypatch, sine):
        """Make find_pi_u's sums return sine(x), and log every x it sums at.

        The ratio tables do not describe the fake, so the majorant that
        certifies skips gives no bound, and the scan sums every grid point.
        """
        seen = []

        def terms(kind, x, u, params, tables):
            seen.append(x)
            return itertools.chain((sine(x),), itertools.repeat(0.0))

        monkeypatch.setattr(lucascalc.functions, "_primary_value_terms", terms)
        monkeypatch.setattr(lucascalc.functions, "_sine_majorant", lambda u, params, tables: None)
        return seen

    def test_exact_zero_at_a_scan_point(self, monkeypatch):
        self._fake_sine(monkeypatch, lambda x: 0.0 if x > 0.12 else 1.0)
        p = make_params(1.0, 1.0)
        assert find_pi_u(p, 1.0) == PiU(p, 1.0, self.X3, 0.0)

    def test_exact_zero_at_a_refinement_point(self, monkeypatch):
        # the sign changes on (X2, X3), and the sine is zero everywhere
        # strictly inside, so the first refinement point is a zero
        seen = self._fake_sine(
            monkeypatch, lambda x: 1.0 if x <= self.X2 else -1.0 if x >= self.X3 else 0.0
        )
        p = make_params(1.0, 1.0)
        root = find_pi_u(p, 1.0)
        assert seen[:3] == [self.X1, self.X2, self.X3] and len(seen) == 4
        assert self.X2 < seen[3] < self.X3
        assert root == PiU(p, 1.0, seen[3], 0.0)

    def test_a_sign_change_after_a_skip_brackets_at_the_last_skipped_point(self, monkeypatch):
        # the fake sine 0.97 - x, with 1 for the majorant of its slope: from
        # 0.05 the scan skips to 0.85 and from 0.9 over 0.95, and 1.0 has the
        # other sign, so 0.95 is summed after it and the bracket is the grid's
        seen = self._fake_sine(monkeypatch, lambda x: 0.97 - x)
        majorant = [1.0, 0.95, 0.0]  # M, then the tails from its second and third terms
        monkeypatch.setattr(lucascalc.functions, "_sine_majorant", lambda u, params, tables: lambda X: majorant)
        p = make_params(1.0, 1.0)
        grid = list(itertools.accumulate([0.05] * 20))  # the scan's floats
        root = find_pi_u(p, 1.0)
        assert seen[:4] == [grid[0], grid[17], grid[19], grid[18]]
        assert root == _grid_scan_pi_u(p, 1.0, 10.0)

    @staticmethod
    def _log_points(monkeypatch):
        """Wrap the term generator find_pi_u sums so that every x it sums at is logged."""
        xs = []
        terms = lucascalc.functions._primary_value_terms

        def logging(kind, x, *args):
            xs.append(x)
            return terms(kind, x, *args)

        monkeypatch.setattr(lucascalc.functions, "_primary_value_terms", logging)
        return xs

    def test_no_point_is_evaluated_twice(self, monkeypatch):
        # the bracket's ends reuse the scan's and the refinement's values
        xs = self._log_points(monkeypatch)
        root = find_pi_u(make_params(1.0, 1.0), 1.0)
        seen = Counter(xs)
        assert max(seen.values()) == 1
        assert seen[root.value] == 1

    def test_refinement_takes_at_most_half_of_bisection_sums(self, monkeypatch):
        # a count, not a time: over the roots the golden digest's draws find,
        # Illinois regula falsi needs at most half of the 39 midpoints that
        # bisecting a 0.05 bracket to 1e-13 takes
        xs = self._log_points(monkeypatch)
        rng = random.Random(59)
        roots = refinement_sums = 0
        for _ in range(40):
            p = _pi_range_params(rng)
            u = rng.uniform(0.2, 1.0) * min(1.0, 0.95 * abs(p.phi))
            for x_max in (8.0, 10.0):
                xs.clear()
                try:
                    find_pi_u(p, u, x_max=x_max)
                except NoRootFound:
                    continue
                roots += 1
                # the scan's points rise, and every refinement point lies below its last
                refinement_sums += len(xs) - 1 - xs.index(max(xs))
        assert roots == 35
        assert refinement_sums <= roots * 39 / 2

    def test_skips_cut_the_golden_draws_sums_to_a_third(self, monkeypatch):
        # summing every grid point took 11,353 sine sums over these 80 searches
        xs = self._log_points(monkeypatch)
        roots = 0
        for p, u, x_max in _golden_pi_draws():
            try:
                find_pi_u(p, u, x_max=x_max)
            except NoRootFound:
                continue
            roots += 1
        assert roots == 35
        assert len(xs) <= 11_353 / 3

    def test_every_majorant_pass_serves_one_fixed_window(self, monkeypatch):
        # a search's first pass bounds |sin'| on [0.05, 0.05 + H], and a new
        # pass comes only once a summed point leaves the last window, so
        # passes are at least H apart
        window = lucascalc.functions._PI_WINDOW
        majorant = lucascalc.functions._sine_majorant
        passes = []

        def logging(u, params, tables):
            tails = majorant(u, params, tables)
            if tails is None:
                return None

            def logged(X):
                passes.append(X)
                return tails(X)

            return logged

        monkeypatch.setattr(lucascalc.functions, "_sine_majorant", logging)
        searches = 0
        for p, u, x_max in _golden_pi_draws():
            passes.clear()
            try:
                find_pi_u(p, u, x_max=x_max)
            except NoRootFound:
                pass
            if passes:
                searches += 1
                assert passes[0] == 0.05 + window
                assert all(b - a >= window - 1e-9 for a, b in itertools.pairwise(passes)), passes
        assert searches > 0

    # members where the majorant gives no bound, or none past some window:
    # the classical member (a repeated root), |u| >= |phi|, complex roots, and
    # u near phi, where eight steps grow in a row before x = 10
    UNCERTIFIED = [
        (make_params(2.0, -1.0), 1.0, 10.0),
        (make_params(2.0, -1.0), 0.5, 10.0),
        (make_params(2.0, -1.0), 1.2, 6.0),
        (make_params(1.0, 1.0), 1.618033988749895, 10.0),
        (make_params(1.0, 1.0), -1.7, 10.0),
        (make_params(-1.5, 1.0), 2.5, 10.0),
        (make_params(1.0, -0.5), 0.6, 10.0),
        (make_params(1.0, 1.0), 1.45, 10.0),
        (make_params(1.0, 1.0), 1.55, 10.0),
        (make_params(2.5, -1.0), 1.9, 10.0),
    ]

    def test_skips_reproduce_the_grid_scan(self, monkeypatch):
        # every search gives what summing every grid point gives, root, residual
        # or error text alike, and sums no point past x_max; the golden draws
        # with a root are also cut off just before it and just after it
        xs = self._log_points(monkeypatch)
        cases = list(_golden_pi_draws()) + self.UNCERTIFIED + [(make_params(1.0, 1.0), 1.0, 0.03)]
        for p, u, x_max in list(cases):
            root = _outcome(_grid_scan_pi_u, p, u, x_max)
            if isinstance(root, PiU) and x_max == 8.0:
                cases += [(p, u, root.value - 0.01), (p, u, root.value + 0.01)]
        for p, u, x_max in cases:
            expected = _outcome(_grid_scan_pi_u, p, u, x_max)
            xs.clear()
            assert _outcome(find_pi_u, p, u, x_max=x_max) == expected, (p, u, x_max)
            assert max(xs, default=0.0) <= x_max + 1e-12

    def test_error_paths(self):
        with pytest.raises(VanishingFactor, match=re.escape("sequence term {3} vanishes")):
            find_pi_u(make_params(1.0, -1.0), 1.0)
        with pytest.raises(NoRootFound, match="series diverges at x=0.05 before any sign change"):
            find_pi_u(make_params(1.0, 1.0), 1e200)

    # each input find_pi_u refuses before its first sum, by the error and text it raises
    GUARDS = {
        "rational u on float parameters": (
            make_params(1.0, 1.0), F(1), BackendMismatch, "mixed scalar backends: ['complex-float', 'rational']"
        ),
        "exact parameters": (FIB, F(1), NoRootFound, "root scanning runs on the float backend"),
        "complex u": (make_params(1.0, 1.0), 1 + 0j, NoRootFound, "needs a real u, s and t"),
        "complex s": (make_params(1 + 1j, 1.0), 1.0, NoRootFound, "needs a real u, s and t"),
        "complex t": (make_params(1.0, 1 - 1j), 1.0, NoRootFound, "needs a real u, s and t"),
    }

    @pytest.mark.parametrize("name", sorted(GUARDS))
    def test_guards_raise_before_any_sum(self, monkeypatch, name):
        p, u, error, text = self.GUARDS[name]
        xs = self._log_points(monkeypatch)
        with pytest.raises(error, match=re.escape(text)):
            find_pi_u(p, u)
        assert xs == []

    def test_scan_cap(self):
        # 100,000 points of 0.05: a larger x_max is refused
        p = make_params(1.0, 1.0)
        assert find_pi_u(p, 1.0, x_max=5000.0) == find_pi_u(p, 1.0)
        for x_max in (5000.01, 1e6, 1e300):
            with pytest.raises(ValueError, match="5000"):
                find_pi_u(p, 0.0, x_max=x_max)


class TestParitySeries:
    def test_odd_even_structure(self):
        u = F(3, 4)
        sin = fn_series(SIN, u, FIB, 11)
        cos = fn_series(COS, u, FIB, 11)
        tan = fn_series(TAN, u, FIB, 11)
        sec = fn_series(SEC, u, FIB, 11)
        assert all(sin.coeffs[m] == 0 for m in range(0, 12, 2))
        assert all(cos.coeffs[m] == 0 for m in range(1, 12, 2))
        assert all(tan.coeffs[m] == 0 for m in range(0, 12, 2))
        assert all(sec.coeffs[m] == 0 for m in range(1, 12, 2))


# each guard of the function layer that no other test reaches, by the call that trips it
FUNCTION_GUARDS = {
    "tilde of a kind with no normalized form": (
        lambda: tilde_value(EXP, 0.5, 1.0, make_params(1.0, 1.0)),
        ValueError,
        "no normalized form for exp",
    ),
    # complex s gives a complex deformed-zero cosine, which has no square root to divide by
    "tilde with a complex normalizer": (
        lambda: tilde_value(SIN, 1.0, 1.0, make_params(1 + 1j, 1 + 0j)),
        NegativeNormalizer,
        "deformed-zero cosine at 1.0 is",
    ),
    "pi_u on an exact backend": (
        lambda: find_pi_u(FIB, F(1)),
        NoRootFound,
        "root scanning runs on the float backend",
    ),
    "a bivariate series of order -1": (
        lambda: binomial_series2(EXP, F(1), F(2), FIB, -1),
        ValueError,
        "a series needs at least the constant coefficient",
    ),
    "a sum that never settles": (
        lambda: lucascalc.functions._adaptive_sum(itertools.repeat(1.0), 1e-12),
        SeriesDiverging,
        "did not settle within the term budget",
    ),
}


def _one_then_overflow():
    yield 1.0
    raise OverflowError("a float power of u overflows")


_HUGE = F(17 * 10**307)  # above half the largest float, so twice it is past float range
_NON_FINITE = "SeriesDiverging: non-finite term or partial sum encountered"
_GREW = "SeriesDiverging: terms grew for 8 consecutive orders"
_BUDGET = "SeriesDiverging: series did not settle within the term budget"

# name: (terms, or a function that makes them; eps; the (sum, terms drawn) or the error)
ADAPTIVE_SUM_CASES = {
    "no terms": ([], 1e-12, (None, 0)),
    "a zero first term starts a run": ([0.0, 0.0, -0.0, 5.0], 1e-12, (0.0, 3)),
    "three small terms in a row stop": ([1.0, 1e-13, 1e-13, 1e-13, 7.0], 1e-12, (1.0 + 1e-13 + 1e-13 + 1e-13, 4)),
    # scale stays 4 and tol = 1: a term of magnitude 1 is at the bound, and so small
    "terms at eps * scale are small": ([4.0, -1.0, 1.0, -1.0, 9.0], 0.25, (3.0, 4)),
    "a larger term resets the run": ([4.0, -1.0, 1.0, -2.0, 1.0, -1.0, 1.0, 9.0], 0.25, (3.0, 7)),
    # seven growing terms above the bound, then -129 grows but is at or below 0.9 * 214
    "growth at or below the bound is not growth": (
        [1.0, -2.0, 4.0, -8.0, 16.0, -32.0, 64.0, -128.0, -129.0, 0.0, 0.0, 9.0],
        0.9,
        (-214.0, 11),
    ),
    "seven growing terms then a drop": ([2.0**k for k in range(8)] + [1.0, 0.0, 0.0, 0.0], 1e-12, (256.0, 12)),
    "eight growing terms": ([2.0**k for k in range(9)] + [0.0, 0.0, 0.0], 1e-12, _GREW),
    "an inf term": ([1.0, 2.0, math.inf, 0.0], 1e-12, _NON_FINITE),
    "a NaN term": ([1.0, math.nan, 0.0], 1e-12, _NON_FINITE),
    "a NaN first term": ([math.nan, 0.0], 1e-12, _NON_FINITE),
    "finite terms whose sum overflows": ([1e308, 1e308, 0.0], 1e-12, _NON_FINITE),
    "an inf complex part": ([1j, complex(math.inf, 0.0)], 1e-12, _NON_FINITE),
    "an OverflowError while drawing": (_one_then_overflow, 1e-12, _NON_FINITE),
    "511 terms that never settle": ([1.0] * 511, 1e-12, (511.0, 511)),
    "the 512-term budget": ([1.0] * 512, 1e-12, _BUDGET),
    "fractions are sized by magnitude": (
        [F(1), F(1, 10**13), F(-1, 10**13), F(1, 10**13), F(5)],
        1e-12,
        (F(10**13 + 1, 10**13), 4),
    ),
    "a fraction past float range": ([F(1), _HUGE * 10, F(0)], 1e-12, _NON_FINITE),
    "a fraction past float range with a finite sum": ([-_HUGE, 2 * _HUGE, F(0)], 1e-12, _NON_FINITE),
    "gaussian terms": (
        [GaussianRational(0, 1), GaussianRational(F(1, 10**13)), GaussianRational(0), GaussianRational(0)],
        1e-12,
        (GaussianRational(F(1, 10**13), 1), 4),
    ),
}


@pytest.mark.parametrize("name", sorted(ADAPTIVE_SUM_CASES))
def test_adaptive_sum_decisions(name):
    terms, eps, expect = ADAPTIVE_SUM_CASES[name]
    got = _outcome(lucascalc.functions._adaptive_sum, terms() if callable(terms) else iter(terms), eps)
    assert repr(got) == repr(expect)


@pytest.mark.parametrize("name", sorted(FUNCTION_GUARDS))
def test_function_guards(name):
    call, error, text = FUNCTION_GUARDS[name]
    with pytest.raises(error, match=re.escape(text)):
        call()


def _public_callables():
    """Every function ``lucascalc`` exports, and the constructor, ``__call__``
    and public methods of every class it exports."""
    for name, obj in vars(lucascalc).items():
        if name.startswith("_") or not getattr(obj, "__module__", "").startswith("lucascalc."):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if (not attr.startswith("_") or attr in ("__init__", "__call__")) and (
                    inspect.isfunction(member) or inspect.ismethod(member)
                ):
                    yield f"{name}.{attr}", member


def test_only_the_callers_tolerances_take_eps():
    # every point value sums to one tolerance; eps stays only where a caller
    # sets it: the CLI's --eps on eval, table and integrate, and the calculus identities
    takes_eps = {
        name: inspect.signature(fn).parameters["eps"].default
        for name, fn in _public_callables()
        if "eps" in inspect.signature(fn).parameters
    }
    assert takes_eps == {"fn_value_info": 1e-12, "integral_value": 1e-12, "integration_by_parts_residual": 1e-12}


# each caller-set tolerance or scan bound, as a call of the bad value
BOUNDED_CALLS = {
    "fn_value_info eps": lambda bad: fn_value_info(SIN, 1.0, 0.5, make_params(1.0, 1.0), eps=bad),
    "integral_value eps": lambda bad: integral_value(lambda x: x, 0.0, 1.0, make_params(1.0, 1.0), eps=bad),
    "integration_by_parts_residual eps": lambda bad: integration_by_parts_residual(
        lambda x: x, lambda x: x, 0.0, 1.0, make_params(1.0, 1.0), eps=bad
    ),
    "find_pi_u x_max": lambda bad: find_pi_u(make_params(1.0, 1.0), 0.5, x_max=bad),
}


@pytest.mark.parametrize("bad", [0.0, -1e-12, math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("name", sorted(BOUNDED_CALLS))
def test_a_bound_that_is_not_a_finite_number_above_0_is_refused(monkeypatch, name, bad):
    # no such value gives a true verdict: a NaN eps runs the integral's whole term
    # budget, a zero eps calls the node ratio too close to 1, an inf eps stops
    # after three terms, and a NaN x_max finds "no sign change"; so each is
    # refused before any sum
    xs = TestPiU._log_points(monkeypatch)
    with pytest.raises(ValueError, match="finite number above 0|past the scan cap"):
        BOUNDED_CALLS[name](bad)
    assert xs == []
