"""Deformed binomial powers, the deformed zero, and multinomial numbers.

The degree-n deformed power of (x, y) with deformation pair (u, v) is the
polynomial sum over k of  C(n,k) * u^T(n-k) * v^T(k) * x^(n-k) * y^k,
where C is the Lucasnomial and T(m) = m(m-1)/2.  Zero deformations follow
the limit convention 0^0 = 1, so the k in {0, 1} terms survive u = 0.

Each degree-n row is built in O(n): the Lucasnomials come from one
telescoped pass (``SeqCache.lucasnomial_parts``), and the weights u^T(n-k),
v^T(k) from two rows indexed by degree that the callers hold for every
degree they build.  Over the exact backends a row is integer columns of
``scalars``' triples, and one :class:`PowerWeights` per deformation keeps
its own.  The series producers of ``functions`` take their coefficients as
those columns, not normalised: :func:`deformed_row_columns` for a bivariate
row and :func:`coefficient_columns` for a function series' w(m) / {m}! at
the degrees its kind reads.  What leaves as values, :func:`deformed_row`,
:func:`row_value` and :func:`power_coefficient`, is normalised once per
value by ``scalars.exact_column``; each is written once for both exact
backends.  Every point value of a row is one degree of
:class:`DeformedPowerWeights`.  Multinomial numbers multiply the parts' rows
u_i^T(k) / {k}! one degree at a time; a multinomial series multiplies the
same rows with the series ``*`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    exact_column,
    exact_triple,
    gaussian_integer_power,
    power_columns,
    times_columns,
)

Weights = Callable[[int], Scalar]


@dataclass(frozen=True)
class DeformedBinomial:
    """Coefficient vector of a degree-n deformed power in the x^(n-k) y^k basis."""

    n: int
    u: Scalar
    v: Scalar
    coeffs: tuple


def _columns(triples) -> tuple:
    """Integer triples as the columns (re, im, den); im is None when every imaginary part is 0."""
    re, im, den = zip(*triples)
    return re, (im if any(im) else None), den


def _row_columns(n: int, u_row: tuple, v_row: tuple, params: LucasParams, negative: bool | None) -> tuple:
    """C(n,k) u_row[n-k] v_row[k], k = 0..n, as columns; divided by {n}! and negated as asked.

    Over the rationals C(n,k) is Ĉ(n,k) / c^(k(n-k)) and {n}! is F_n / c^T(n)
    (``SeqCache``'s parts), so a series entry is ±Ĉ(n,k) c^(T(n-k)+T(k)) / F_n
    times the weights; over the Gaussian rationals both are field values,
    read as triples.  The weights' small products are formed first and meet
    the large Lucasnomial factors once.  A vanishing {k}, k <= n, raises
    VanishingFactor in a series row before the Lucasnomial's DivisionByZeroFactor.
    """
    (ur, ui, ud), (vr, vi, vd) = u_row, v_row
    re, im = times_columns(ur[n::-1], ui and ui[n::-1], vr, vi)
    den = list(map(mul, ud[n::-1], vd))
    if negative is not None:
        fact, fact_den = params.cache.factorial_parts(n)  # fact_den is None over the fields
    nums, dens = params.cache.lucasnomial_parts(n, n)
    cr, ci = nums, None
    if dens is None:
        cr, ci, dens = _columns(map(exact_triple, nums))
        if negative is not None:
            p, q, e = exact_triple(fact)  # ±1/{n}! = ±e (p - qi) / (p^2 + q^2), not reduced
            a, b = (-e * p, e * q) if negative else (e * p, -e * q)
            cr, ci = times_columns(cr, ci, [a] * (n + 1), [b] * (n + 1) if b else None)
            dens = [f * (p * p + q * q) for f in dens]
    elif negative is not None:
        scale = -fact_den if negative else fact_den
        cr, dens = [num * (scale // d) for num, d in zip(nums, dens)], [fact] * (n + 1)
    re, im = times_columns(re, im, cr, ci)
    return re, im, list(map(mul, den, dens))


def coefficient_columns(u: Scalar | Weights, params: LucasParams, degrees, negatives) -> tuple | None:
    """Integer columns (re, im, dens) of the function-series coefficients ±w(m) / {m}! at the degrees.

    Entry j is the degree degrees[j], negated where negatives[j] is true.  The
    weight is w(m) = u^T(m) for a deformation parameter u, or u(m) for a
    weight family u, any callable of the degree.  Each entry is the weight's
    triple raised to T(m) (to 1 for a family) over {m}!'s
    (``SeqCache.factorial_parts``), the sign in the numerator, and nothing is
    normalised; im is None where every imaginary part is 0.  Over the exact
    backends only: a weight outside the parameters' exact backend (a float,
    or a Gaussian rational over the rationals) gives None, and
    :func:`power_coefficient` divides it as a value.  A vanishing {k}, k <= m,
    raises VanishingFactor(k) at the first degree m past it, as the factorial does.
    """
    family = callable(u)
    rational = params.backend is Backend.RATIONAL
    cache = params.cache
    parts = None if family else exact_triple(u)
    if not family and (parts is None or (rational and isinstance(u, GaussianRational))):
        return None
    re, im, dens = [], [], []
    for m, negative in zip(degrees, negatives):
        power = m * (m - 1) // 2  # T(m)
        if family:
            weight, power = u(m), 1
            parts = exact_triple(weight)
            if parts is None or (rational and isinstance(weight, GaussianRational)):
                return None
        a, b, d = parts
        a, b = gaussian_integer_power(a, b, power)
        fact, fact_den = cache.factorial_parts(m)
        if fact_den is None:  # over the Gaussian rationals (a+bi)/d over (p+qi)/e is (a+bi)(p-qi) e / (d (p^2 + q^2))
            p, q, e = exact_triple(fact)
            a, b, d = (a * p + b * q) * e, (b * p - a * q) * e, d**power * (p * p + q * q)
        else:
            a, d = a * fact_den, d**power * fact
        re.append(-a if negative else a)
        im.append(-b if negative else b)
        dens.append(d)
    return re, (im if any(im) else None), dens


def power_coefficient(
    u: Scalar | Weights, params: LucasParams, m: int, negative: bool = False
) -> Scalar:
    """The degree-m coefficient w(m) / {m}! of a function series, negated if asked.

    Over the exact backends it is one normalisation of the entry of
    :func:`coefficient_columns`.  Over the floats, and for a family value
    outside the parameters' exact backend, it is w(m) / {m}!.  A vanishing
    {k}, k <= m, raises VanishingFactor(k) as the factorial does.
    """
    backend = params.backend
    if backend is not Backend.COMPLEX:
        columns = coefficient_columns(u, params, (m,), (negative,))
        if columns is not None:
            return exact_column(backend, *columns)[0]
    weight = u(m) if callable(u) else u ** binom2(m)
    value = weight / params.cache.factorial(m)
    return -value if negative else value


def deformed_row_columns(
    n: int,
    u_weights: PowerWeights,
    v_weights: PowerWeights,
    params: LucasParams,
    negative: bool | None = None,
) -> tuple:
    """Over the exact backends: the row of :func:`deformed_row` as integer columns (re, im, dens).

    Entry k is (re[k] + i im[k]) / dens[k], not normalised; im is None where
    every imaginary part is 0.
    """
    return _row_columns(n, u_weights._columns(n), v_weights._columns(n), params, negative)


def deformed_row(
    n: int,
    u_weights: PowerWeights,
    v_weights: PowerWeights,
    params: LucasParams,
    negative: bool | None = None,
) -> list:
    """c_k = C(n,k) u^T(n-k) v^T(k), k = 0..n, in O(n); divided by {n}! and negated as asked.

    With negative None this is the degree-n deformed power; with False or
    True it is row n of a bivariate function series, ±c_k / {n}!.  The slots
    take the deformations' :class:`PowerWeights`, which the caller holds for
    every degree it builds, so each power is formed once per series.  Over
    the floats the row is multiplied by the scale ±1/{n}! last, and a
    deformed power not at all: even ``c * 1.0`` can flip a zero's sign.
    """
    backend = params.backend
    if backend is not Backend.COMPLEX:
        return exact_column(backend, *deformed_row_columns(n, u_weights, v_weights, params, negative))
    if negative is not None:
        scale = (-1 if negative else 1) / params.cache.factorial(n)
    u_weights(n), v_weights(n)  # grow the value rows to degree n
    u_row, v_row = u_weights._values, v_weights._values
    nums, _ = params.cache.lucasnomial_parts(n, n)
    row = [c * u_row[n - k] * v_row[k] for k, c in enumerate(nums)]
    return row if negative is None else [c * scale for c in row]


def row_value(n: int, u_row, v_row, x: Scalar, y: Scalar, params: LucasParams) -> Scalar:
    """The degree-n row at (x, y): sum over k of C(n,k) u_row[n-k] v_row[k] x^(n-k) y^k.

    Read by :class:`DeformedPowerWeights` alone.  Over the exact backends
    the rows are integer columns; with x = X/dx and y = Y/dy, x^(n-k) y^k is
    P^(n-k) Q^k / (dx dy)^n for P = X dy and Q = Y dx, so the terms are summed
    as integers over lcm(entry denominators) * (dx dy)^n.  Over the floats
    each term is formed left to right, as :func:`deformed_row`'s entries
    times x^(n-k) y^k, and at a zero coordinate only the terms that do not
    vanish are summed, so a weight that overflows to inf meets no 0 power.
    """
    backend = params.backend
    if backend is Backend.COMPLEX:
        nums, _ = params.cache.lucasnomial_parts(n, n)
        total = 0.0
        for k in range(n if x == 0 else 0, 1 if y == 0 else n + 1):
            total = total + nums[k] * u_row[n - k] * v_row[k] * x ** (n - k) * y**k
        return total
    re, im, dens = _row_columns(n, u_row, v_row, params, None)
    den = math.lcm(*dens)
    xa, xb, xd = exact_triple(x)
    ya, yb, yd = exact_triple(y)
    pr, pi = power_columns(xa * yd, xb * yd, n)
    qr, qi = power_columns(ya * xd, yb * xd, n)
    pr, pi = times_columns(pr[::-1], pi and pi[::-1], qr, qi)  # P^(n-k) Q^k, before the row's large entries
    pr, pi = times_columns(pr, pi, [den // d for d in dens], None)
    re, im = times_columns(re, im, pr, pi)
    return exact_column(backend, (sum(re),), (sum(im or ()),), (den * (xd * yd) ** n,))[0]


def deformed_power_coeffs(n: int, u: Scalar, v: Scalar, params: LucasParams) -> DeformedBinomial:
    """Exact coefficients c_k = C(n,k) u^T(n-k) v^T(k), k = 0..n."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    common_backend(u, v, params.s)
    return DeformedBinomial(n, u, v, tuple(deformed_row(n, PowerWeights(u), PowerWeights(v), params)))


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

    Over the floats it grows by w(m+1) = w(m) * u^m, keeping the running
    power u^m.  Over the exact backends it keeps the integer columns of the
    triples u^T(m), which the deformed rows read directly; w(n) is one
    normalisation of its entry.
    """

    def __init__(self, u: Scalar):
        self.u = u
        backend = backend_of(u)
        self._values = [backend_one(backend)]
        self._power = self._values[0]
        self._backend = backend
        self._triple = None if backend is Backend.COMPLEX else exact_triple(u)
        self._row = ([], [], [])

    def __call__(self, n: int) -> Scalar:
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        if self._triple is not None:
            re, im, den = self._columns(n)
            return exact_column(self._backend, (re[n],), (im[n] if im else 0,), (den[n],))[0]
        values = self._values
        while len(values) <= n:
            values.append(values[-1] * self._power)
            self._power = self._power * self.u
        return values[n]

    def _columns(self, n: int) -> tuple:
        """Over the exact backends: the columns of w(m), m = 0..n at least; im is None for a real u."""
        (re, im, den), (a, b, d) = self._row, self._triple
        for m in range(len(re), n + 1):
            p, q = gaussian_integer_power(a, b, binom2(m))
            re.append(p)
            im.append(q)
            den.append(d ** binom2(m))
        return re, (im if b else None), den


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
    grow to the highest degree asked for.  Each row starts with its
    family's degree-0 value; the point, those values and the parameters
    must share one backend.
    """

    def __init__(self, x: Scalar, y: Scalar, u: Scalar | Weights, v: Scalar | Weights, params: LucasParams):
        self.x, self.y, self.u, self.v = x, y, u, v
        self.params = params
        slots = [(w if callable(w) else PowerWeights(w), coordinate) for w, coordinate in ((u, x), (v, y))]
        firsts = [weights(0) for weights, _ in slots]
        common_backend(x, y, *firsts, params.s)
        exact = params.backend is not Backend.COMPLEX
        self._rows = [
            _slot_row(weights, first, exact, exact or coordinate != 0)
            for (weights, coordinate), first in zip(slots, firsts)
        ]
        self._values: dict[int, Scalar] = {}

    def __call__(self, n: int) -> Scalar:
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        if n not in self._values:
            u_row, v_row = self._rows
            self._values[n] = row_value(n, u_row(n), v_row(n), self.x, self.y, self.params)
        return self._values[n]


def _slot_row(weights: Weights, first: Scalar, exact: bool, grows: bool) -> Callable[[int], Sequence]:
    """A :class:`DeformedPowerWeights` slot's reader: degree n -> its row to degree n at least.

    Over the exact backends a :class:`PowerWeights` slot's row is its own
    columns, and another family's holds each value's triple.  Over the
    floats the row of a zero coordinate stays at degree 0, the one entry
    :func:`row_value` reads there, so a family that would overflow past it
    is never asked.
    """
    if exact and isinstance(weights, PowerWeights):
        return weights._columns
    row = [exact_triple(first) if exact else first]

    def grow(n: int) -> Sequence:
        if grows and len(row) <= n:
            new = map(weights, range(len(row), n + 1))
            row.extend(map(exact_triple, new) if exact else new)
        return _columns(row) if exact else row

    return grow


class DeformedZeroWeights(DeformedPowerWeights):
    """Memoized weights w(n) = deformed zero of degree n for a fixed (u, v)."""

    def __init__(self, u: Scalar, v: Scalar, params: LucasParams):
        one = backend_one(params.backend)
        super().__init__(one, -one, u, v, params)
