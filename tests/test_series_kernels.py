"""Series kernels: float bits frozen, exact kernels against plain scalar loops.

The exact backends hold a series as integer numerators over one denominator
that is not reduced, and run ``*``, ``dilate`` in one variable and two,
``+``, ``-``, ``scale``, ``outer``, ``substitute_diagonal`` and ``==`` on
those integers; the float backend keeps its scalar loops, and
``reciprocal`` is one scalar loop on every backend.  The digest pins every float and complex output bit
for bit, and the oracle tests compare each exact kernel with the scalar loop
it replaced, on series made from coefficients and on integer forms made from
columns, whose common factors are not reduced.
"""

import copy
import fractions
import hashlib
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucascalc import (
    GAUSSIAN_I,
    Backend,
    FnKind,
    GaussianRational,
    TruncatedSeries,
    TruncatedSeries2,
    backend_of,
    binomial_series2,
    fn_series,
    make_params,
    outer,
)
from lucascalc import scalars, series as series_module
from lucascalc.scalars import exact_triple

RAT, GAUSS, FLOAT = Backend.RATIONAL, Backend.GAUSSIAN, Backend.COMPLEX


# ---------------------------------------------------------------------------
# float and complex outputs, bit for bit
# ---------------------------------------------------------------------------


def _float_scalar(rng, complex_valued):
    roll = rng.random()
    if roll < 0.2:
        return 0.0
    if roll < 0.25:
        value = rng.choice((1e-200, -3e-180, 7e250, -2e300))  # under- and overflowing products
    else:
        value = rng.uniform(-3.0, 3.0)
    if complex_valued and rng.random() < 0.8:
        return complex(value, rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0))))
    return value


def _float_series(rng, order, complex_valued):
    coeffs = [_float_scalar(rng, complex_valued) for _ in range(order + 1)]
    if coeffs[0] == 0:
        coeffs[0] = rng.uniform(0.5, 2.0)
    return TruncatedSeries(coeffs, FLOAT)


def _float_series2(rng, order, complex_valued):
    entries = {
        (j, k): _float_scalar(rng, complex_valued)
        for j in range(order + 1)
        for k in range(order + 1 - j)
    }
    return TruncatedSeries2(entries, order, FLOAT)


def _float_series_digest():
    rng = random.Random(4242)
    digest = hashlib.sha256()

    def feed(tag, value):
        if isinstance(value, TruncatedSeries2):
            value = (value.order, sorted(value.coeffs.items()))
        elif isinstance(value, TruncatedSeries):
            value = value.coeffs
        digest.update(f"{tag}:{value!r};".encode())

    factors = [0.0, -1.0, 2.0, -0.75, 1e-160, 1e155, 1j, -1j, complex(0.5, -1.25)]
    for trial in range(40):
        complex_valued = trial % 2 == 1
        a = _float_series(rng, rng.randint(0, 9), complex_valued)
        b = _float_series(rng, rng.randint(0, 9), complex_valued)
        feed("mul", a * b)
        feed("recip", a.reciprocal())
        for c in factors:
            feed("dilate", a.dilate(c))
        A = _float_series2(rng, rng.randint(0, 6), complex_valued)
        B = _float_series2(rng, rng.randint(0, 6), complex_valued)
        feed("mul2", A * B)
        feed("neg2", -A)
        if A.order == B.order:
            feed("add2", A + B)
            feed("sub2", A - B)
        for cx in factors[::2]:
            for cy in factors[1::2]:
                feed("dilate2", A.dilate(cx, cy))
        feed("outer", outer(a, b))
    return digest.hexdigest()


class TestFloatSeriesDigest:
    # sha256 over repr() of float and complex TruncatedSeries products,
    # reciprocals and dilations, and TruncatedSeries2 products, sums,
    # differences, negations, dilations and outer products on seeded inputs
    # (zeros, signed zeros, under- and overflowing products), computed with
    # the scalar loops before the exact kernels moved to integer numerators.
    GOLDEN_SHA256 = "256ed71fd76f0921c8354f8751b3a9098c1f3dcb7c7e0f3906df92beb68d0159"

    def test_float_series_match_golden_digest(self):
        assert _float_series_digest() == self.GOLDEN_SHA256


def test_float_operations_outside_the_digest_are_scalar_loops():
    # the float forks the integer form left to floats alone: univariate +, -, scale and
    # truncate, bivariate substitute_diagonal and ==, each one scalar op per coefficient
    rng = random.Random(4243)
    for trial in range(40):
        complex_valued = trial % 2 == 1
        order = rng.randint(0, 7)
        a, b = _float_series(rng, order, complex_valued), _float_series(rng, order, complex_valued)
        c = _float_scalar(rng, complex_valued)
        assert repr((a + b).coeffs) == repr(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        assert repr((a - b).coeffs) == repr(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
        assert repr(a.scale(c).coeffs) == repr(tuple(x * c for x in a.coeffs))
        assert a.truncate(order // 2).coeffs == a.coeffs[: order // 2 + 1]
        A = _float_series2(rng, order, complex_valued)
        powers = [1.0]
        for _ in range(order):
            powers.append(powers[-1] * c)
        diagonal = [0.0] * (order + 1)
        for (j, k), v in A.coeffs.items():
            diagonal[j + k] = diagonal[j + k] + v * powers[k]
        assert repr(A.substitute_diagonal(c).coeffs) == repr(tuple(diagonal))
        assert A == TruncatedSeries2(dict(A.coeffs), order, FLOAT)
        if A.coeffs:
            key = next(iter(A.coeffs))
            other = 0.125 if A.coeffs[key] != 0.125 else 0.25
            assert A != TruncatedSeries2({**A.coeffs, key: other}, order, FLOAT)
            assert (A == TruncatedSeries2(A.coeffs, order + 1, FLOAT)) is True


# ---------------------------------------------------------------------------
# exact kernels against the plain scalar loops
# ---------------------------------------------------------------------------

G = GaussianRational
ONE = {RAT: F(1), GAUSS: G(1)}

_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=60)
_zeros = st.sampled_from([0, F(0)])
RATIONAL_COEFFS = st.one_of(_zeros, st.integers(-7, 7), _fractions)
GAUSSIAN_COEFFS = st.one_of(
    st.just(G(0)), st.builds(G, st.one_of(_zeros, _fractions), st.one_of(_zeros, _fractions))
)
COEFFS = {RAT: RATIONAL_COEFFS, GAUSS: GAUSSIAN_COEFFS}
FACTORS = {
    RAT: st.one_of(st.sampled_from([0, F(0), -1, F(-1), 1, F(-3, 2)]), st.integers(-4, 4), _fractions),
    GAUSS: st.one_of(st.sampled_from([GAUSSIAN_I, -GAUSSIAN_I, G(0), G(-1), G(1)]), GAUSSIAN_COEFFS),
}
EXACT = settings(derandomize=True, max_examples=60, deadline=None)


def _series(data, backend, min_order=0, max_order=7, unit=False):
    coeffs = data.draw(st.lists(COEFFS[backend], min_size=min_order + 1, max_size=max_order + 1))
    if unit and coeffs[0] == 0:
        coeffs[0] = data.draw(COEFFS[backend].filter(bool))
    return TruncatedSeries(coeffs, backend)


def _series2(data, backend, order):
    keys = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return TruncatedSeries2({key: data.draw(COEFFS[backend]) for key in chosen}, order, backend)


def mul_loop(a, b):
    order = min(len(a), len(b)) - 1
    out = [0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def reciprocal_loop(a, one):
    out = [one / a[0]]
    for n in range(1, len(a)):
        acc = 0
        for k in range(1, n + 1):
            acc = acc + a[k] * out[n - k]
        out.append(-acc / a[0])
    return out


def dilate_loop(a, c):
    return [x * c**n for n, x in enumerate(a)]


def nonzero(entries):
    return {key: v for key, v in entries.items() if v != 0}


def mul2_loop(A, B, order):
    out = {}
    for (j1, k1), a in A.items():
        for (j2, k2), b in B.items():
            if j1 + j2 + k1 + k2 <= order:
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + a * b
    return nonzero(out)


def dilate2_loop(A, cx, cy):
    return nonzero({(j, k): v * cx**j * cy**k for (j, k), v in A.items()})


def outer_loop(a, b):
    order = min(len(a), len(b)) - 1
    return nonzero(
        {(j, k): a[j] * b[k] for j in range(order + 1) for k in range(order + 1 - j)}
    )


def merge_loop(A, B, sign):
    out = dict(A)
    for key, v in B.items():
        out[key] = out.get(key, 0) + sign * v
    return nonzero(out)


def assert_series(result, expected, backend):
    assert isinstance(result.coeffs, tuple)
    assert result.backend is backend
    assert list(result.coeffs) == expected
    assert all(backend_of(c) is backend for c in result.coeffs)


def assert_series2(result, expected, order, backend):
    # the same stored entries: no zero, no key outside the triangle
    assert result.backend is backend and result.order == order
    assert result.coeffs == expected
    assert all(c != 0 and backend_of(c) is backend for c in result.coeffs.values())
    assert all(j >= 0 and k >= 0 and j + k <= order for j, k in result.coeffs)


@pytest.mark.parametrize("backend", [RAT, GAUSS])
class TestExactKernels:
    @EXACT
    @given(data=st.data())
    def test_univariate_kernels_match_scalar_loops(self, backend, data):
        a = _series(data, backend)
        b = _series(data, backend)  # orders differ freely
        assert_series(a * b, mul_loop(a.coeffs, b.coeffs), backend)
        c = data.draw(FACTORS[backend])
        assert_series(a.dilate(c), dilate_loop(a.coeffs, c), backend)
        f = _series(data, backend, unit=True)
        assert_series(f.reciprocal(), reciprocal_loop(f.coeffs, ONE[backend]), backend)

    @EXACT
    @given(data=st.data())
    def test_bivariate_kernels_match_scalar_loops(self, backend, data):
        order = data.draw(st.integers(0, 5))
        A = _series2(data, backend, order)
        B = _series2(data, backend, order)
        C = _series2(data, backend, data.draw(st.integers(0, 5)))
        assert_series2(A * C, mul2_loop(A.coeffs, C.coeffs, min(order, C.order)), min(order, C.order), backend)
        cx, cy = data.draw(FACTORS[backend]), data.draw(FACTORS[backend])
        assert_series2(A.dilate(cx, cy), dilate2_loop(A.coeffs, cx, cy), order, backend)
        assert_series2(A + B, merge_loop(A.coeffs, B.coeffs, 1), order, backend)
        assert_series2(A - B, merge_loop(A.coeffs, B.coeffs, -1), order, backend)
        assert_series2(A - A, {}, order, backend)
        assert_series2(-A, {key: -v for key, v in A.coeffs.items()}, order, backend)
        assert_series2(A.scale(0 * ONE[backend]), {}, order, backend)
        a, b = _series(data, backend), _series(data, backend)
        expected_order = min(a.order, b.order)
        assert_series2(outer(a, b), outer_loop(a.coeffs, b.coeffs), expected_order, backend)

    def test_bivariate_product_stores_no_cancelled_term(self, backend):
        # (1 + x + y)(1 - x - y) = 1 - x^2 - 2xy - y^2: the x and y terms cancel
        one = ONE[backend]
        A = TruncatedSeries2({(0, 0): one, (1, 0): one, (0, 1): one}, 2, backend)
        B = TruncatedSeries2({(0, 0): one, (1, 0): -one, (0, 1): -one}, 2, backend)
        assert_series2(A * B, mul2_loop(A.coeffs, B.coeffs, 2), 2, backend)


def test_gaussian_triple_round_trip():
    z = G(F(-3, 4), F(5, 6))
    assert z.as_triple() == (-9, 10, 12)
    assert G.from_triple(*z.as_triple()) == z
    assert G.from_triple(18, -20, -24) == z  # one gcd, sign moved to the numerator
    assert G.from_triple(0, 0, 7).as_triple() == (0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        G.from_triple(1, 1, 0)


# ---------------------------------------------------------------------------
# the integer form: kernels on numerators over one denominator, not reduced
# ---------------------------------------------------------------------------

_NUMERATORS = st.one_of(st.just(0), st.integers(-(10**6), 10**6))
_DENOMINATORS = st.integers(1, 10**4).flatmap(lambda d: st.sampled_from([d, -d]))


def _columns(data, backend, length):
    """Integer columns (re, im, dens) of a length, scaled by one common factor that is not reduced."""
    re = data.draw(st.lists(_NUMERATORS, min_size=length, max_size=length))
    im = None
    if backend is GAUSS and data.draw(st.booleans()):
        im = data.draw(st.lists(_NUMERATORS, min_size=length, max_size=length))
    dens = data.draw(st.lists(_DENOMINATORS, min_size=length, max_size=length))
    factor = data.draw(st.sampled_from([1, 6, -35, 2**70]))
    return [a * factor for a in re], im and [b * factor for b in im], [d * factor for d in dens]


def _values(backend, re, im, dens):
    if backend is RAT:
        return [F(a, d) for a, d in zip(re, dens)]
    return [G(F(a, d), F(b, d)) for a, b, d in zip(re, im or [0] * len(re), dens)]


def _form_series(data, backend, order=None):
    if order is None:
        order = data.draw(st.integers(0, 7))
    re, im, dens = _columns(data, backend, order + 1)
    return TruncatedSeries.from_columns(re, im, dens, backend), _values(backend, re, im, dens)


def _form_series2(data, backend, order):
    keys = [(j, k) for j in range(order + 1) for k in range(order + 1 - j)]
    keys = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    re, im, dens = _columns(data, backend, len(keys))
    series = TruncatedSeries2.from_columns(keys, re, im, dens, order, backend)
    return series, nonzero(dict(zip(keys, _values(backend, re, im, dens))))


def assert_canonical(result, expected, backend):
    # canonical values and the repr of the series made from the same values
    values = list(result.coeffs.values()) if isinstance(result, TruncatedSeries2) else list(result.coeffs)
    for c in values:
        a, b, d = exact_triple(c)
        assert d > 0 and math.gcd(a, b, d) == 1
        assert type(c) is (F if backend is RAT else G)
    if isinstance(result, TruncatedSeries2):
        same = TruncatedSeries2({key: ONE[backend] * v for key, v in expected.items()}, result.order, backend)
    else:
        same = TruncatedSeries([ONE[backend] * v for v in expected], backend)
    assert repr(result) == repr(same)


@pytest.mark.parametrize("backend", [RAT, GAUSS])
class TestIntegerForm:
    @EXACT
    @given(data=st.data())
    def test_univariate_kernels_on_forms_match_scalar_loops(self, backend, data):
        a, av = _form_series(data, backend)
        b, bv = _form_series(data, backend)  # orders differ freely
        assert list(a.coeffs) == av
        c = data.draw(FACTORS[backend])
        for result, expected in (
            (a * b, mul_loop(av, bv)),
            (a.dilate(c), dilate_loop(av, c)),
            (a.scale(c), [x * c for x in av]),
            (a.scale(0 * ONE[backend]), [0] * len(av)),
        ):
            assert_series(result, expected, backend)
            assert_canonical(result, expected, backend)
        same, sv = _form_series(data, backend, a.order)
        assert_series(a + same, [x + y for x, y in zip(av, sv)], backend)
        assert_series(a - same, [x - y for x, y in zip(av, sv)], backend)
        assert_series(a - a, [0] * len(av), backend)
        common = min(len(av), len(bv))
        assert (a == b) is (av[:common] == bv[:common])
        assert a == TruncatedSeries(av, backend) and TruncatedSeries(av, backend) == a
        assert a == a.scale(ONE[backend] * 3).scale(ONE[backend] / 3)

    @EXACT
    @given(data=st.data())
    def test_bivariate_kernels_on_forms_match_scalar_loops(self, backend, data):
        order = data.draw(st.integers(0, 5))
        A, Av = _form_series2(data, backend, order)
        B, Bv = _form_series2(data, backend, order)
        assert A.coeffs == Av
        cx, cy = data.draw(FACTORS[backend]), data.draw(FACTORS[backend])
        assert_series2(A.dilate(cx, cy), dilate2_loop(Av, cx, cy), order, backend)
        assert_series2(A + B, merge_loop(Av, Bv, 1), order, backend)
        assert_series2(A - B, merge_loop(Av, Bv, -1), order, backend)
        assert_series2(A - A, {}, order, backend)
        assert_series2(-A, {key: -v for key, v in Av.items()}, order, backend)
        c = data.draw(FACTORS[backend])
        assert_series2(A.scale(c), nonzero({key: v * c for key, v in Av.items()}), order, backend)
        assert_series2(A.scale(0 * ONE[backend]), {}, order, backend)
        diagonal = [0] * (order + 1)
        for (j, k), v in Av.items():
            diagonal[j + k] = diagonal[j + k] + v * c**k
        assert_series(A.substitute_diagonal(c), diagonal, backend)
        assert_canonical(A.substitute_diagonal(c), diagonal, backend)
        a, av = _form_series(data, backend)
        b, bv = _form_series(data, backend)
        expected = outer_loop(av, bv)
        assert_series2(outer(a, b), expected, min(a.order, b.order), backend)
        assert_canonical(outer(a, b), expected, backend)
        assert (A == B) is (Av == Bv)
        assert A == TruncatedSeries2(Av, order, backend) and TruncatedSeries2(Av, order, backend) == A
        C, Cv = _form_series2(data, backend, order + 1)
        common = {key: v for key, v in Cv.items() if sum(key) <= order}
        assert (A == C) is (Av == common) and (C == A) is (Av == common)

    def test_order_zero_and_zero_series(self, backend):
        one = ONE[backend]
        a = TruncatedSeries.from_columns([6], None, [-4], backend)  # -3/2, not reduced
        assert a.order == 0 and a.coeffs == (-3 * one / 2,)
        assert (a * a).coeffs == (9 * one / 4,) and a.dilate(5 * one) == a
        zero = TruncatedSeries.from_columns([0] * 5, None, [7, -3, 1, 2, 9], backend)
        assert zero.coeffs == (0 * one,) * 5 and zero == TruncatedSeries.zero(4, backend)
        f = fn_series(FnKind.EXP, one / 2, make_params(one, one), 4)
        assert f * zero == zero and f + zero == f and zero.dilate(3 * one) == zero
        assert outer(f, zero).coeffs == {} and outer(zero, f) == TruncatedSeries2({}, 4, backend)
        Z = TruncatedSeries2.from_columns([(1, 0), (0, 1)], [0, 0], None, [5, -5], 3, backend)
        assert Z.coeffs == {} and Z.substitute_diagonal(one) == TruncatedSeries.zero(3, backend)
        for series in (a, zero, Z):
            assert repr(series) == repr(type(series)(series.coeffs, *((series.order,) if series is Z else ()), backend))

    def test_kernels_between_produced_series_build_no_scalar(self, backend, monkeypatch):
        # ==, *, dilate and outer on the integer forms the producers hand over form no
        # Fraction and reduce no GaussianRational
        one = ONE[backend]
        p = make_params(one * F(7, 11), one * F(-13, 17)) if backend is RAT else make_params(G(F(1, 2), -1), G(F(3, 5), F(2, 7)))
        u, v = one * F(-3, 2), one * F(5, 7) if backend is RAT else G(F(1, 2), 1)
        minus = -one  # every scalar is made before the counting starts
        f, g = fn_series(FnKind.EXP, u, p, 12), fn_series(FnKind.COS, v, p, 12)
        F2, G2 = binomial_series2(FnKind.SIN, u, v, p, 8), binomial_series2(FnKind.SIN, v, u, p, 8)
        counts = {"fractions": 0, "reductions": 0}
        new, reduced = fractions.Fraction.__dict__["__new__"], scalars._reduced

        def counted_new(*args, **kwargs):
            counts["fractions"] += 1
            return new.__func__(*args, **kwargs)

        def counted_reduced(*args):
            counts["reductions"] += 1
            return reduced(*args)

        monkeypatch.setattr(scalars, "_reduced", counted_reduced)
        fractions.Fraction.__new__ = counted_new
        try:
            results = [
                f == g, f == f.dilate(one), f * g, g * f * f, f.dilate(u), g.dilate(minus),
                outer(f, g), F2 == G2, F2 == F2.dilate(one, one), F2.dilate(u, v), F2.dilate(minus, one),
            ]
        finally:
            fractions.Fraction.__new__ = new
        assert counts == {"fractions": 0, "reductions": 0}
        assert results[0] is False and results[1] is True and results[8] is True

    def test_a_chain_of_products_keeps_its_denominator_bounded(self, backend, monkeypatch):
        # twenty products of one exp series: the content gcd keeps den within
        # _GROWTH times the bits of the series' own denominator
        reductions = []
        reduced = series_module._reduced
        monkeypatch.setattr(series_module, "_reduced", lambda *form: reductions.append(1) or reduced(*form))
        one = ONE[backend]
        p = make_params(one * F(3, 2), one * F(-1, 2))
        f = fn_series(FnKind.EXP, one * F(2, 3), p, 16)
        bits = f.columns()[2].bit_length()
        power, expected = f, list(f.coeffs)
        for _ in range(20):
            power, expected = power * f, mul_loop(expected, f.coeffs)
            assert power.columns()[2].bit_length() <= series_module._GROWTH * bits
        assert reductions
        assert_series(power, expected, backend)


def test_gaussian_equality_reads_a_missing_imaginary_column_as_zero():
    real = TruncatedSeries.from_columns([2, 4], None, [2, 2], GAUSS)
    A = TruncatedSeries2.from_columns([(0, 0), (1, 0)], [2, 4], None, [2, 2], 1, GAUSS)
    for im, equal in (([0, 0], True), ([0, 3], False), ([5, 0], False)):
        other = TruncatedSeries.from_columns([1, 2], im, [1, 1], GAUSS)
        assert (real == other) is equal and (other == real) is equal
        B = TruncatedSeries2.from_columns([(0, 0), (1, 0)], [1, 2], im, [1, 1], 1, GAUSS)
        assert (A == B) is equal and (B == A) is equal


def test_series_copy_and_pickle_with_or_without_a_built_view():
    p = make_params(F(3, 2), F(-1, 2))
    exact = fn_series(FnKind.EXP, F(1, 2), p, 4)
    bivariate = binomial_series2(FnKind.SIN, F(1, 2), F(1, 3), p, 3)
    floats = [TruncatedSeries([0.5, 1.0]), TruncatedSeries2({(0, 1): 2.0}, 2, FLOAT)]
    for series in (exact, bivariate, *floats, exact * exact, outer(exact, exact)):
        for clone in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
            assert clone(series) == series and repr(clone(series)) == repr(series)
    with pytest.raises(TypeError, match="a float series has no integer form"):
        floats[0].columns()
    with pytest.raises(TypeError, match="a float series has no integer form"):
        floats[1].columns()
