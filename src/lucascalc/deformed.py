"""Deformed binomial powers, the deformed zero, and multinomial numbers.

The degree-n deformed power of (x, y) with deformation pair (u, v) is the
polynomial sum over k of  C(n,k) * u^T(n-k) * v^T(k) * x^(n-k) * y^k,
where C is the Lucasnomial and T(m) = m(m-1)/2.  Zero deformations follow
the limit convention 0^0 = 1, so the k in {0, 1} terms survive u = 0.

Each degree-n row is built in O(n): the Lucasnomials come from one
telescoped pass (``SeqCache.lucasnomial_parts``), and the weights u^T(n-k),
v^T(k) are read from two rows indexed by degree.  The row builders call no
weight family: their callers grow the rows once, from one
:class:`PowerWeights` per deformation parameter or from the families they are
given, and hold them for every degree they build.  Over the exact backends
each entry is normalised once, from integer parts.  Every point value of a
row is one degree of :class:`DeformedPowerWeights`, whose slots take a
deformation or a weight family and which forms only the degrees it is asked
for.  :func:`power_coefficient` builds the one-parameter coefficient
u^T(m) / {m}! the same way, for the exact function series and the parts'
rows of a multinomial series.  Multinomial numbers multiply the parts' rows
u_i^T(k) / {k}! one degree at a time, the lazy product the point path reads
term by term; a multinomial series multiplies the same rows with the series
``*`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Callable, Sequence

from .errors import IndexOutOfRange
from .scalars import (
    Backend,
    GaussianRational,
    LucasParams,
    Scalar,
    backend_of,
    backend_one,
    backend_zero,
    binom2,
    common_backend,
)

Weights = Callable[[int], Scalar]


@dataclass(frozen=True)
class DeformedBinomial:
    """Coefficient vector of a degree-n deformed power in the x^(n-k) y^k basis."""

    n: int
    u: Scalar
    v: Scalar
    coeffs: tuple


def _rational_parts(
    n: int, u_row: Sequence, v_row: Sequence, params: LucasParams, scale: Scalar = 1
) -> tuple:
    """Integer numerators and denominators of the rational row entries times scale, k = 0..n."""
    nums, dens = params.cache.lucasnomial_parts(n, n)
    p, q = scale.as_integer_ratio()
    out_nums, out_dens = [], []
    for k, (num, den) in enumerate(zip(nums, dens)):
        a, c = u_row[n - k].as_integer_ratio()
        b, d = v_row[k].as_integer_ratio()
        out_nums.append(num * a * b * p)
        out_dens.append(den * c * d * q)
    return out_nums, out_dens


def _gaussian_product(*triples: tuple) -> tuple[int, int, int]:
    """The product of integer triples (a, b, d), each meaning (a+bi)/d, not reduced."""
    a, b, d = 1, 0, 1
    for p, q, r in triples:
        a, b, d = a * p - b * q, a * q + b * p, d * r
    return a, b, d


def _gaussian_power(a: int, b: int, n: int) -> tuple[int, int]:
    """(a+bi)^n for n >= 0 over the Gaussian integers, by squaring."""
    ra, rb = 1, 0
    while n:
        if n & 1:
            ra, rb = ra * a - rb * b, ra * b + rb * a
        n >>= 1
        if n:
            a, b = a * a - b * b, 2 * a * b
    return ra, rb


def power_coefficient(u: Scalar, params: LucasParams, m: int, negative: bool = False) -> Scalar:
    """The degree-m coefficient u^T(m) / {m}! of the one-parameter functions, negated if asked.

    Over the exact backends it is built with one normalisation, a Fraction
    or a ``GaussianRational.from_triple``, from u's integer parts raised to
    T(m) and the parts of {m}!, the sign folded into the numerator.  Over
    the floats it is u ** T(m) / {m}!.  A vanishing {k}, k <= m, raises
    VanishingFactor(k) as the factorial does.
    """
    power = binom2(m)
    backend = params.backend
    if backend is Backend.COMPLEX:
        value = u**power / params.cache.factorial(m)
        return -value if negative else value
    if backend is Backend.RATIONAL:
        a, c = u.as_integer_ratio()
        p, q = params.cache.factorial(m).as_integer_ratio()
        num = a**power * q
        return Fraction(-num if negative else num, c**power * p)
    a, b, d = u.as_triple()
    a, b = _gaussian_power(a, b, power)
    p, q, e = params.cache.factorial(m).as_triple()
    # (a+bi)/d^T over (p+qi)/e is (a+bi)(p-qi) e / (d^T (p^2 + q^2))
    a, b, d = _gaussian_product((a, b, d**power), (p * e, -q * e, p * p + q * q))
    return GaussianRational.from_triple(-a if negative else a, -b if negative else b, d)


def deformed_row(
    n: int, u_row: Sequence, v_row: Sequence, params: LucasParams, scale: Scalar | None = None
) -> list:
    """c_k = C(n,k) * u_row[n-k] * v_row[k] * scale, k = 0..n, in O(n).

    The weights are rows indexed by degree, each longer than n: with the
    powers u^T(m) and v^T(m) of :class:`PowerWeights` these are the deformed
    power coefficients; other weight families give the weighted binomial rows.
    Over the rationals each entry is one Fraction from the row's integer parts
    and the scale's; over the Gaussian rationals one ``from_triple`` of the
    product of the Lucasnomial's, the weights' and the scale's integer
    triples; over the floats the row is multiplied by the scale last.  A
    scale of None leaves the row as it is: over the complex floats even
    ``c * 1.0`` can flip the sign of a zero part.
    """
    backend = params.backend
    if backend is Backend.RATIONAL:
        parts = _rational_parts(n, u_row, v_row, params, 1 if scale is None else scale)
        return list(map(Fraction, *parts))
    nums, _ = params.cache.lucasnomial_parts(n, n)
    if backend is Backend.GAUSSIAN:
        factor = (1, 0, 1) if scale is None else scale.as_triple()
        return [
            GaussianRational.from_triple(
                *_gaussian_product(c.as_triple(), u_row[n - k].as_triple(), v_row[k].as_triple(), factor)
            )
            for k, c in enumerate(nums)
        ]
    row = [c * u_row[n - k] * v_row[k] for k, c in enumerate(nums)]
    return row if scale is None else [c * scale for c in row]


def row_value(
    n: int, u_row: Sequence, v_row: Sequence, x: Scalar, y: Scalar, params: LucasParams
) -> Scalar:
    """The degree-n row at (x, y): sum over k of C(n,k) u_row[n-k] v_row[k] x^(n-k) y^k.

    Read by :class:`DeformedPowerWeights` alone.  Over the fields each term
    is formed left to right and added in one pass, the same products in the
    same order as :func:`deformed_row`'s entries times x^(n-k) y^k; at a zero
    coordinate only the terms that do not vanish are summed (k = n at x = 0,
    k = 0 at y = 0, none past degree 0 at both), so a weight that overflows
    to inf meets no vanishing power of 0.  Over the rationals the terms are
    summed as integers over one common denominator, lcm(entry denominators) *
    (den x * den y)^n, from the row's integer parts, and reduced once; no
    entry is built as a Fraction.
    """
    if params.backend is not Backend.RATIONAL:
        nums, _ = params.cache.lucasnomial_parts(n, n)
        total = backend_zero(params.backend)
        for k in range(n if x == 0 else 0, 1 if y == 0 else n + 1):
            total = total + nums[k] * u_row[n - k] * v_row[k] * x ** (n - k) * y**k
        return total
    nums, dens = _rational_parts(n, u_row, v_row, params)
    den = math.lcm(*dens)
    # term k is its numerator * (den / dens[k]) * p^(n-k) * q^k over den * (den x * den y)^n
    p = x.numerator * y.denominator
    q = y.numerator * x.denominator
    total, q_pow = 0, 1
    for num, d in zip(nums, dens):
        total = total * p + num * (den // d) * q_pow
        q_pow *= q
    return Fraction(total, den * (x.denominator * y.denominator) ** n)


def deformed_power_coeffs(n: int, u: Scalar, v: Scalar, params: LucasParams) -> DeformedBinomial:
    """Exact coefficients c_k = C(n,k) u^T(n-k) v^T(k), k = 0..n."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    common_backend(u, v, params.s)
    u_row, v_row = (list(map(PowerWeights(w), range(n + 1))) for w in (u, v))
    return DeformedBinomial(n, u, v, tuple(deformed_row(n, u_row, v_row, params)))


def deformed_power_value(
    n: int, x: Scalar, y: Scalar, u: Scalar, v: Scalar, params: LucasParams
) -> Scalar:
    """Evaluate the degree-n deformed power at the point (x, y)."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    return DeformedPowerWeights(x, y, u, v, params)(n)


def phi_product_power(n: int, x: Scalar, y: Scalar, params: LucasParams) -> Scalar:
    """Product of (phi^k x + phi'^k y) over k < n; equals the deformed power at (phi, phi')."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    phi, phi_prime = params.require_roots()
    common_backend(x, y, params.s)
    result = backend_one(params.backend)
    px = backend_one(params.backend)
    py = backend_one(params.backend)
    for _ in range(n):
        result = result * (px * x + py * y)
        px = px * phi
        py = py * phi_prime
    return result


def deformed_zero(n: int, u: Scalar, v: Scalar, params: LucasParams) -> Scalar:
    """The alternating deformed power at (1, -1); vanishes for n >= 1 at (u,v) = roots."""
    return DeformedZeroWeights(u, v, params)(n)


def multinomial_number(us: Sequence[Scalar], n: int, params: LucasParams) -> Scalar:
    """Multinomial sum over the compositions of n into len(us) parts.

    Each composition (k_1, ..., k_m) contributes
    {n}! / ({k_1}! ... {k_m}!) * prod_i u_i^T(k_i).
    """
    return MultinomialWeights(tuple(us), params)(n)


class PowerWeights:
    """Weight family w(n) = u^T(n) used by the plain one-deformation functions.

    Grows by w(m+1) = w(m) * u^m, keeping the running power u^m; over the
    rationals w(n) = u ** T(n) directly, since a Fraction power needs no gcd.
    """

    def __init__(self, u: Scalar):
        self.u = u
        backend = backend_of(u)
        one = backend_one(backend)
        self._values = [one]
        self._power = one
        self._rational = Fraction(u) if backend is Backend.RATIONAL else None

    def __call__(self, n: int) -> Scalar:
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        values = self._values
        if self._rational is not None:
            u = self._rational
            while len(values) <= n:
                values.append(u ** binom2(len(values)))
            return values[n]
        while len(values) <= n:
            values.append(values[-1] * self._power)
            self._power = self._power * self.u
        return values[n]


class MultinomialWeights:
    """Memoized multinomial numbers for a fixed deformation tuple.

    {n}! times the degree-n coefficient of the product of the parts' rows
    sum_k u_i^T(k) z^k / {k}!.  Each degree costs O(parts * n): it adds the
    degree-n entry u_i^T(n) / {n}! to every row and the degree-n coefficient
    to the product of the rows up to each part after the first, summed as
    row[k] * product[n-k] for k = 0..n, the order in which ``row * product``
    adds the same terms in :func:`multinomial_series`.  The degree-0 weight is
    the backend's one.
    """

    def __init__(self, us: Sequence[Scalar], params: LucasParams):
        if not us:
            raise ValueError("at least one deformation parameter is required")
        self.us = tuple(us)
        self.params = params
        common_backend(params.s, *self.us)
        self._rows: list[list[Scalar]] = [[] for _ in self.us]
        self._products: list[list[Scalar]] = [[] for _ in self.us[1:]]
        self._values: list[Scalar] = []

    def __call__(self, n: int) -> Scalar:
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        values = self._values
        while len(values) <= n:
            m = len(values)
            fact, zero = self.params.cache.factorial(m), backend_zero(self.params.backend)
            # every entry is formed before a row grows: a float power that overflows
            # raises with the rows and products still in step
            for row, entry in zip(self._rows, [u ** binom2(m) / fact for u in self.us]):
                row.append(entry)
            product = self._rows[0]
            for row, partial in zip(self._rows[1:], self._products):
                # reduce, not sum(): from Python 3.12 on sum() compensates float rounding
                partial.append(reduce(add, map(mul, row, reversed(product)), zero))
                product = partial
            values.append(product[m] * fact if m else backend_one(self.params.backend))
        return values[n]


class DeformedPowerWeights:
    """Memoized weights w(n) = sum over k of C(n,k) U(n-k) V(k) x^(n-k) y^k (:func:`row_value`).

    Each slot takes a deformation parameter u, read as the powers u^T(m) of
    one :class:`PowerWeights` (w(n) is then the deformed power of (x, y)), or
    a weight family, any callable of the degree.  Each call forms the row of
    its own degree alone, so a sum that reads every other degree forms half
    the rows, and each family is asked for each degree once, as the two rows
    grow to the highest degree asked for.  Over the fields the row of a zero
    coordinate stays at degree 0, the one entry :func:`row_value` reads from
    it there, so a family that would overflow past it is never asked.  Each
    row starts with its family's degree-0 value; the point, those values and
    the parameters must share one backend.
    """

    def __init__(self, x: Scalar, y: Scalar, u: Scalar | Weights, v: Scalar | Weights, params: LucasParams):
        self.x, self.y, self.u, self.v = x, y, u, v
        self.params = params
        self._u_weights = u if callable(u) else PowerWeights(u)
        self._v_weights = v if callable(v) else PowerWeights(v)
        self._u_row, self._v_row = [self._u_weights(0)], [self._v_weights(0)]
        common_backend(x, y, self._u_row[0], self._v_row[0], params.s)
        # over the fields row_value reads the row of a zero coordinate at degree 0 alone
        exact = params.backend is Backend.RATIONAL
        self._growing = [
            (row, weights)
            for row, weights, coordinate in ((self._u_row, self._u_weights, x), (self._v_row, self._v_weights, y))
            if exact or coordinate != 0
        ]
        self._values: dict[int, Scalar] = {}

    def __call__(self, n: int) -> Scalar:
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        if n not in self._values:
            for row, weights in self._growing:
                row.extend(map(weights, range(len(row), n + 1)))
            self._values[n] = row_value(n, self._u_row, self._v_row, self.x, self.y, self.params)
        return self._values[n]


class DeformedZeroWeights(DeformedPowerWeights):
    """Memoized weights w(n) = deformed zero of degree n for a fixed (u, v)."""

    def __init__(self, u: Scalar, v: Scalar, params: LucasParams):
        one = backend_one(params.backend)
        super().__init__(one, -one, u, v, params)
