"""Truncated formal power series in one and two variables.

Coefficients live in a single scalar backend.  All arithmetic is exact
truncated ring arithmetic; equality compares coefficient-wise on the
common truncation order.

Over the exact backends the kernels, the univariate ``*`` and ``dilate`` and
the bivariate ``dilate``, run on integers, the way FLINT's ``fmpq_poly`` does:
an operand whose coefficients are summed is brought to integer numerators
over one common denominator (Gaussian ones to pairs of integers, read with
``GaussianRational.as_triple``), the sums run on those integers, and each
output coefficient is built with one normalisation, a ``Fraction`` or a
``GaussianRational.from_triple``.  Each kernel is written once over integer
triples (a, b, d) meaning (a+bi)/d: a rational is (a, 0, d), and the
imaginary products are skipped when every imaginary part is 0.  A coefficient
multiplied by 1 or -1 needs no normalisation.  The float backend keeps its
scalar loops, and ``reciprocal``, :func:`outer`, the bivariate ``*``,
negation and ``scale`` are one scalar loop on every backend.  A kernel's
result, and that of ``reciprocal``, :func:`outer` and ``scale``, skips the
constructor's backend check, which the operands passed.  The exact bivariate
``+`` and ``-`` do one scalar operation per shared key and skip that check
too.  Elsewhere both constructors check every coefficient in one pass over
the coefficients' types, against the backend's own scalar types; only when
another type is among them (``bool``, a subclass, another backend's scalar)
does each coefficient take ``backend_of`` in turn, so every error and its
text stay the same.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Mapping

from .errors import BackendMismatch, NonUnitConstantTerm, OrderMismatch
from .scalars import (
    Backend,
    GaussianRational,
    Scalar,
    backend_of,
    backend_one,
    backend_zero,
    promote,
)


# the scalar types of each backend: a coefficient of another type (bool, a subclass,
# another backend's) takes the constructors' per-coefficient backend_of check
_TYPES = {
    Backend.RATIONAL: frozenset((int, Fraction)),
    Backend.GAUSSIAN: frozenset((GaussianRational,)),
    Backend.COMPLEX: frozenset((float, complex)),
}


class TruncatedSeries:
    """Series sum of a_n z^n for n <= order, coefficients in one backend."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Iterable[Scalar], backend: Backend | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if backend is None:
            backend = backend_of(coeffs[0])
        if not _TYPES[backend].issuperset(map(type, coeffs)):
            for c in coeffs:
                if backend_of(c) is not backend:
                    raise BackendMismatch("series coefficients must share one backend")
        self.coeffs = coeffs
        self.backend = backend

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int, backend: Backend) -> "TruncatedSeries":
        z = backend_zero(backend)
        return cls((z,) * (order + 1), backend)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        backend = backend_of(value)
        z = backend_zero(backend)
        return cls((value,) + (z,) * order, backend)

    @classmethod
    def from_terms(cls, terms: Mapping[int, Scalar], order: int, backend: Backend) -> "TruncatedSeries":
        z = backend_zero(backend)
        coeffs = [z] * (order + 1)
        for n, c in terms.items():
            if 0 <= n <= order:
                coeffs[n] = c
        return cls(coeffs, backend)

    def _check_backend(self, other):
        if self.backend is not other.backend:
            raise BackendMismatch("series backends differ")

    def __add__(self, other):
        return self._elementwise(other, add)

    def __sub__(self, other):
        return self._elementwise(other, sub)

    def _elementwise(self, other, op) -> "TruncatedSeries":
        """self op other, one scalar op per coefficient."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition and subtraction require equal truncation orders")
        return TruncatedSeries(tuple(map(op, self.coeffs, other.coeffs)), self.backend)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        order = min(self.order, other.order)
        a, b = self.coeffs[: order + 1], other.coeffs[: order + 1]
        if self.backend is not Backend.COMPLEX:
            return _series(_mul(a, b, self.backend), self.backend)
        out = [0.0] * (order + 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j in range(order + 1 - i):
                y = b[j]
                if y != 0:
                    out[i + j] = out[i + j] + x * y
        return TruncatedSeries(out, Backend.COMPLEX)

    def scale(self, c: Scalar) -> "TruncatedSeries":
        """Every coefficient times the scalar c, the one product of a series and a scalar."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        return _series(tuple(a * c for a in self.coeffs), self.backend)

    def dilate(self, c: Scalar) -> "TruncatedSeries":
        """Substitute z -> c z, i.e. a_n -> c^n a_n."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        if self.backend is Backend.COMPLEX:
            out = [self.coeffs[0]]
            acc = c
            for a in self.coeffs[1:]:
                out.append(a * acc)
                acc = acc * c
            return TruncatedSeries(out, Backend.COMPLEX)
        parts, make = _EXACT[self.backend]
        powers = _power_parts(c, self.order, parts)
        return _series(
            tuple(_scaled(a, *p, parts, make) for a, p in zip(self.coeffs, powers)), self.backend
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], self.backend)

    def reciprocal(self) -> "TruncatedSeries":
        """Series g with f*g = 1 + O(z^(order+1)); needs f(0) != 0.

        Each g_n = -(a_1 g_(n-1) + ... + a_n g_0) / a_0, one scalar loop on
        every backend.
        """
        f0 = self.coeffs[0]
        if f0 == 0:
            raise NonUnitConstantTerm("reciprocal needs a nonzero constant term")
        zero = backend_zero(self.backend)
        out = [backend_one(self.backend) / f0]
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                if self.coeffs[k] != 0:
                    acc = acc + self.coeffs[k] * out[n - k]
            out.append(-acc / f0)
        return _series(tuple(out), self.backend)

    def eval_at(self, x: Scalar) -> Scalar:
        """Horner evaluation of the truncated polynomial."""
        if backend_of(x) is not self.backend:
            raise BackendMismatch("point backend differs from series backend")
        coeffs = reversed(self.coeffs)
        acc = next(coeffs)
        for a in coeffs:
            acc = acc * x + a
        return acc

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.backend is not other.backend:
            return False
        common = min(self.order, other.order)
        return all(self.coeffs[n] == other.coeffs[n] for n in range(common + 1))

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"


class TruncatedSeries2:
    """Bivariate series over the triangle j + k <= order, stored sparsely."""

    __slots__ = ("coeffs", "order", "backend")

    def __init__(self, coeffs: Mapping[tuple[int, int], Scalar], order: int, backend: Backend):
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        store = {}
        mixed = not _TYPES[backend].issuperset(map(type, coeffs.values()))
        for (j, k), c in coeffs.items():
            if j < 0 or k < 0 or j + k > order:
                raise OrderMismatch(f"key ({j},{k}) outside triangle of order {order}")
            if mixed and backend_of(c) is not backend:
                raise BackendMismatch("series coefficients must share one backend")
            if c != 0:
                store[(j, k)] = c
        self.coeffs = store
        self.order = order
        self.backend = backend

    def coefficient(self, j: int, k: int) -> Scalar:
        return self.coeffs.get((j, k), backend_zero(self.backend))

    def _check_backend(self, other):
        if self.backend is not other.backend:
            raise BackendMismatch("series backends differ")

    def __add__(self, other):
        return self._merge(other, add)

    def __sub__(self, other):
        return self._merge(other, sub)

    def _merge(self, other, op) -> "TruncatedSeries2":
        """self op other.  Floats add the other's coefficients, negated by
        ``scale(-1.0)`` for op sub (a zero part's sign, which the float series
        digest pins); the exact backends do one scalar op per shared key and
        drop zeros."""
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition and subtraction require equal truncation orders")
        out = dict(self.coeffs)
        if self.backend is Backend.COMPLEX:
            for key, c in (other if op is add else other.scale(-1.0)).coeffs.items():
                out[key] = out.get(key, 0.0) + c
            return TruncatedSeries2(out, self.order, Backend.COMPLEX)
        for key, c in other.coeffs.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c if op is add else -c
                continue
            value = op(prev, c)
            if value:
                out[key] = value
            else:
                del out[key]
        return _series2(out, self.order, self.backend)

    def __neg__(self):
        return self.scale(-backend_one(self.backend))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        self._check_backend(other)
        order = min(self.order, other.order)
        out: dict[tuple[int, int], Scalar] = {}
        for (j1, k1), a in self.coeffs.items():
            if j1 + k1 > order:
                continue
            for (j2, k2), b in other.coeffs.items():
                j, k = j1 + j2, k1 + k2
                if j + k > order:
                    continue
                key = (j, k)
                prev = out.get(key)
                out[key] = a * b if prev is None else prev + a * b
        return TruncatedSeries2(out, order, self.backend)

    def scale(self, c: Scalar) -> "TruncatedSeries2":
        """Every coefficient times the scalar c, the one product of a series and a scalar."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        products = ((key, v * c) for key, v in self.coeffs.items())
        return _series2({key: p for key, p in products if p != 0}, self.order, self.backend)

    def dilate(self, cx: Scalar, cy: Scalar) -> "TruncatedSeries2":
        """Substitute x -> cx*x and y -> cy*y."""
        if backend_of(cx) is not self.backend or backend_of(cy) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        n = self.order
        if self.backend is Backend.COMPLEX:
            px = _powers(cx, n)
            py = _powers(cy, n)
            return TruncatedSeries2(
                {(j, k): v * px[j] * py[k] for (j, k), v in self.coeffs.items()}, n, Backend.COMPLEX
            )
        parts, make = _EXACT[self.backend]
        px, py = _power_parts(cx, n, parts), _power_parts(cy, n, parts)
        out = {}
        for (j, k), v in self.coeffs.items():
            a1, b1, d1 = px[j]
            a2, b2, d2 = py[k]
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            if a or b:  # a zero factor's powers vanish, and no zero is stored
                out[(j, k)] = _scaled(v, a, b, d1 * d2, parts, make)
        return _series2(out, n, self.backend)

    def substitute_diagonal(self, c: Scalar) -> TruncatedSeries:
        """Set y = c*x, producing a univariate series of the same order."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        zero = backend_zero(self.backend)
        out = [zero] * (self.order + 1)
        py = _powers(c, self.order)
        for (j, k), v in self.coeffs.items():
            out[j + k] = out[j + k] + v * py[k]
        return TruncatedSeries(out, self.backend)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        if self.backend is not other.backend:
            return False
        common = min(self.order, other.order)
        keys = {key for key in self.coeffs if sum(key) <= common}
        keys |= {key for key in other.coeffs if sum(key) <= common}
        zero = backend_zero(self.backend)
        return all(self.coeffs.get(key, zero) == other.coeffs.get(key, zero) for key in keys)

    def __repr__(self):
        return f"TruncatedSeries2(order={self.order}, terms={len(self.coeffs)})"


def _powers(c: Scalar, n: int) -> list[Scalar]:
    out = [backend_one(backend_of(c))]
    for _ in range(n):
        out.append(out[-1] * c)
    return out


def outer(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries2:
    """Bivariate series f(x) * g(y), truncated to the triangle j + k <= the smaller order."""
    if f.backend is not g.backend:
        raise BackendMismatch("series backends differ")
    order = min(f.order, g.order)
    products = (
        ((j, k), a * b)
        for j, a in enumerate(f.coeffs[: order + 1]) if a != 0
        for k, b in enumerate(g.coeffs[: order + 1 - j]) if b != 0
    )
    return _series2({key: p for key, p in products if p != 0}, order, f.backend)


def promote_series(f: TruncatedSeries, backend: Backend) -> TruncatedSeries:
    return TruncatedSeries(tuple(promote(c, backend) for c in f.coeffs), backend)


def promote_series2(F: TruncatedSeries2, backend: Backend) -> TruncatedSeries2:
    return TruncatedSeries2({key: promote(c, backend) for key, c in F.coeffs.items()}, F.order, backend)


# ---------------------------------------------------------------------------
# the integer kernels of the exact backends
# ---------------------------------------------------------------------------


def _series(coeffs: tuple, backend: Backend) -> TruncatedSeries:
    """A series of coefficients already known to be in ``backend``."""
    out = object.__new__(TruncatedSeries)
    out.coeffs, out.backend = coeffs, backend
    return out


def _series2(coeffs: dict, order: int, backend: Backend) -> TruncatedSeries2:
    """A bivariate series of nonzero coefficients on the triangle, already in ``backend``."""
    out = object.__new__(TruncatedSeries2)
    out.coeffs, out.order, out.backend = coeffs, order, backend
    return out


def _rational_parts(c) -> tuple[int, int, int]:
    return c.numerator, 0, c.denominator


def _rational_make(a: int, b: int, d: int) -> Fraction:
    return Fraction(a, d)  # b is 0: a rational kernel's imaginary parts all vanish


# per exact backend: read a coefficient as its integer triple (a, b, d), meaning
# (a+bi)/d, and build a coefficient from a triple with one normalisation
_EXACT = {
    Backend.RATIONAL: (_rational_parts, _rational_make),
    Backend.GAUSSIAN: (GaussianRational.as_triple, GaussianRational.from_triple),
}


def _power_parts(c: Scalar, n: int, parts) -> list[tuple[int, int, int]]:
    """c^m, m = 0..n, as integer triples (a, b, d) meaning (a+bi)/d, not reduced."""
    p, q, r = parts(c)
    out = [(1, 0, 1)]
    for _ in range(n):
        a, b, d = out[-1]
        out.append((a * p - b * q, a * q + b * p, d * r))
    return out


def _scaled(v, a: int, b: int, d: int, parts, make):
    """v * (a+bi)/d with one normalisation, or none when (a+bi)/d is 1 or -1."""
    if d == 1 and b == 0 and (a == 1 or a == -1):
        return v if a == 1 else -v
    x, y, e = parts(v)
    return make(x * a - y * b, x * b + y * a, e * d)


def _over_lcm(coeffs, parts) -> tuple[list[int], list[int] | None, int]:
    """Real and imaginary integer numerators over the least common denominator.

    The imaginary list is None when every imaginary part is 0, so the kernels
    skip its products; on the rationals it always is.
    """
    triples = list(map(parts, coeffs))
    den = math.lcm(*[d for _, _, d in triples])
    re = [a * (den // d) for a, _, d in triples]
    im = [b * (den // d) for _, b, d in triples]
    return re, (im if any(im) else None), den


def _product(ar, ai, br, bi) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of the convolution of (ar + i ai) and (br + i bi).

    A part that is None is 0 and costs no convolution.
    """
    re, im = _convolve(ar, br), None
    if ai is not None:
        im = _convolve(ai, br)
        if bi is not None:
            re = list(map(sub, re, _convolve(ai, bi)))
    if bi is not None:
        t = _convolve(ar, bi)
        im = t if im is None else list(map(add, im, t))
    return re, ([0] * len(re) if im is None else im)


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """sum over i of a_i b_(n-i), n = 0..order, for two lists of length order + 1."""
    order = len(a) - 1
    rb = b[::-1]
    return [sum(map(mul, a[: n + 1], rb[order - n :])) for n in range(order + 1)]


def _mul(a: tuple, b: tuple, backend: Backend) -> tuple:
    """Coefficients of the product of two series of equal order: one convolution per part."""
    parts, make = _EXACT[backend]
    ar, ai, ad = _over_lcm(a, parts)
    br, bi, bd = _over_lcm(b, parts)
    re, im = _product(ar, ai, br, bi)
    return tuple(map(make, re, im, repeat(ad * bd)))
