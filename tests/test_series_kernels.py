"""Series kernels: float bits frozen, exact kernels against plain scalar loops.

The exact backends multiply and dilate on integer numerators with one
normalisation per output coefficient; the float backend keeps its scalar
loops, and ``reciprocal`` and ``outer`` are one scalar loop on every backend.
The digest pins every float and complex output bit for bit, and the oracle
tests compare each exact kernel with the scalar loop it replaced, and the one
loop of ``reciprocal`` and ``outer`` with its reference loop.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucascalc import (
    GAUSSIAN_I,
    Backend,
    GaussianRational,
    TruncatedSeries,
    TruncatedSeries2,
    backend_of,
    outer,
)

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
