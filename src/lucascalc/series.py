"""Truncated formal power series in one and two variables.

Coefficients live in a single scalar backend.  All arithmetic is exact
truncated ring arithmetic; equality compares coefficient-wise on the
common truncation order.

Over the exact backends a series is held the way FLINT's ``fmpq_poly`` holds
a rational polynomial: in integer form, numerators over one positive
denominator that is not reduced.  Coefficient n, or key (j, k), is
(re + i im) / den, and the imaginary numerators are None where all of them
are 0, as on the rationals.  ``coeffs`` is a view of the form: the canonical
``Fraction``s or ``GaussianRational``s are built on its first read, by
``scalars.exact_column``, and kept.  The producers of ``functions`` hand
their integer columns to ``from_columns``, which puts them over their least
common denominator, and a series made from coefficients takes its form, over
the coefficients' lcm, when a kernel first reads it.  The kernels, ``*``,
``dilate`` in one variable and two, ``+``, ``-``, ``scale``, :func:`outer`,
``substitute_diagonal`` and ``==`` (which cross-multiplies), run on the
integers, build no scalar, and are each written once for both exact
backends.  A result whose denominator passes ``_GROWTH`` times its operands'
bit length is divided by its content gcd.  ``reciprocal``, ``eval_at``,
``truncate`` and the bivariate ``*`` are scalar loops over the view, and so
is every operation on the float backend, whose ``coeffs`` is a plain slot.
Both constructors check every coefficient in one pass over the coefficients'
types, against the backend's own scalar types; only when another type is
among them (``bool``, a subclass, another backend's scalar) does each
coefficient take ``backend_of`` in turn, so every error and its text stay
the same.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, eq, mul, sub
from typing import Iterable, Mapping

from .errors import BackendMismatch, NonUnitConstantTerm, OrderMismatch
from .scalars import (
    Backend,
    GaussianRational,
    Scalar,
    backend_of,
    backend_one,
    backend_zero,
    exact_column,
    exact_triple,
    power_columns,
    promote,
    times_columns,
)


# the scalar types of each backend: a coefficient of another type (bool, a subclass,
# another backend's) takes the constructors' per-coefficient backend_of check
_TYPES = {
    Backend.RATIONAL: frozenset((int, Fraction)),
    Backend.GAUSSIAN: frozenset((GaussianRational,)),
    Backend.COMPLEX: frozenset((float, complex)),
}

# a kernel divides its result by the content gcd once the denominator has more
# than this many times the bits of its operands' (the form's size)
_GROWTH = 4


class TruncatedSeries:
    """Series sum of a_n z^n for n <= order, coefficients in one backend."""

    __slots__ = ("coeffs", "backend", "order", "_form")

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
        self.order = len(coeffs) - 1

    def __getattr__(self, name):
        # reached for an unset slot alone: an exact series' view or form not built yet;
        # a float series has no form, so copy and pickle, which read every slot, skip it
        if name == "coeffs":
            re, im, den, _ = self._form
            self.coeffs = tuple(exact_column(self.backend, re, im, repeat(den)))
            return self.coeffs
        if name == "_form" and self.backend is not Backend.COMPLEX:
            self._form = _form_of(self.coeffs)
            return self._form
        raise AttributeError(name)

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

    @classmethod
    def from_columns(cls, re: list, im: list | None, dens: list, backend: Backend) -> "TruncatedSeries":
        """The exact series of the coefficients (re[n] + i im[n]) / dens[n], n = 0..len(re) - 1.

        The columns hold integers, im None being 0 and every dens[n] != 0.
        They go over their least common denominator, and no coefficient is
        normalised before ``coeffs`` is read.
        """
        if not re:
            raise ValueError("a series needs at least the constant coefficient")
        return _exact(_over_lcm(re, im, dens), backend)

    def columns(self) -> tuple:
        """The integer form (re, im, den) of an exact series: coefficient n is (re[n] + i im[n]) / den.

        den > 0 and is not reduced; im is a list or None, which is 0.
        """
        if self.backend is Backend.COMPLEX:
            raise TypeError("a float series has no integer form")
        re, im, den, _ = self._form
        return re, im, den

    def _check_backend(self, other):
        if self.backend is not other.backend:
            raise BackendMismatch("series backends differ")

    def __add__(self, other):
        return self._elementwise(other, add)

    def __sub__(self, other):
        return self._elementwise(other, sub)

    def _elementwise(self, other, op) -> "TruncatedSeries":
        """self op other, one op per coefficient."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition and subtraction require equal truncation orders")
        if self.backend is Backend.COMPLEX:
            return TruncatedSeries(tuple(map(op, self.coeffs, other.coeffs)), self.backend)
        return _exact(_sum(self._form, other._form, op), self.backend)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        order = min(self.order, other.order)
        if self.backend is not Backend.COMPLEX:
            (ar, ai, ad, asize), (br, bi, bd, bsize) = self._form, other._form
            n = order + 1
            re, im = _product(ar[:n], ai and ai[:n], br[:n], bi and bi[:n])
            return _exact(_held(re, im, ad * bd, max(asize, bsize)), self.backend)
        a, b = self.coeffs[: order + 1], other.coeffs[: order + 1]
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
        if self.backend is Backend.COMPLEX:
            return _series(tuple(a * c for a in self.coeffs), self.backend)
        return _exact(_scaled(self._form, c), self.backend)

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
        re, im, den, size = self._form
        pr, pi, d = _powers_over(c, self.order)
        re, im = times_columns(re, im, pr, pi)
        return _exact(_held(re, im, den * d, size), self.backend)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], self.backend)

    def reciprocal(self) -> "TruncatedSeries":
        """Series g with f*g = 1 + O(z^(order+1)); needs f(0) != 0.

        Each g_n = -(a_1 g_(n-1) + ... + a_n g_0) / a_0, one scalar loop on
        every backend.
        """
        coeffs = self.coeffs
        f0 = coeffs[0]
        if f0 == 0:
            raise NonUnitConstantTerm("reciprocal needs a nonzero constant term")
        zero = backend_zero(self.backend)
        out = [backend_one(self.backend) / f0]
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                if coeffs[k] != 0:
                    acc = acc + coeffs[k] * out[n - k]
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
        if self.backend is Backend.COMPLEX:
            return all(self.coeffs[n] == other.coeffs[n] for n in range(common + 1))
        (ar, ai, ad, _), (br, bi, bd, _) = self._form, other._form
        n = common + 1
        return _same(ar[:n], br[:n], ad, bd) and _same(ai and ai[:n], bi and bi[:n], ad, bd)

    def __repr__(self):
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"


class TruncatedSeries2:
    """Bivariate series over the triangle j + k <= order, stored sparsely."""

    __slots__ = ("coeffs", "order", "backend", "_form")

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

    def __getattr__(self, name):
        # reached for an unset slot alone: an exact series' view or form not built yet;
        # a float series has no form, so copy and pickle, which read every slot, skip it
        if name == "coeffs":
            re, im, den, _ = self._form
            values = exact_column(self.backend, re.values(), None if im is None else im.values(), repeat(den))
            self.coeffs = dict(zip(re, values))
            return self.coeffs
        if name == "_form" and self.backend is not Backend.COMPLEX:
            self._form = _stored(list(self.coeffs), _form_of(self.coeffs.values()))
            return self._form
        raise AttributeError(name)

    @classmethod
    def from_columns(
        cls, keys: list, re: list, im: list | None, dens: list, order: int, backend: Backend
    ) -> "TruncatedSeries2":
        """The exact series of the coefficients (re[i] + i im[i]) / dens[i] at keys[i], on the triangle of order.

        The columns hold integers, im None being 0 and every dens[i] != 0, and
        the keys are distinct and on the triangle.  The columns go over their
        least common denominator, a zero coefficient is not stored, and none
        is normalised before ``coeffs`` is read.
        """
        if order < 0:
            raise ValueError("a series needs at least the constant coefficient")
        return _exact2(_stored(keys, _over_lcm(re, im, dens)), order, backend)

    def columns(self) -> tuple:
        """The integer form (keys, re, im, den) of an exact series: key keys[i] holds (re[i] + i im[i]) / den.

        No zero is held; den > 0 and is not reduced; im is a list or None, which is 0.
        """
        if self.backend is Backend.COMPLEX:
            raise TypeError("a float series has no integer form")
        keys = list(self._form[0])
        re, im, den, _ = _gathered(self._form, keys)
        return keys, re, im, den

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
        digest pins); the exact backends run one op per key on the integer
        form and drop zeros."""
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition and subtraction require equal truncation orders")
        if self.backend is Backend.COMPLEX:
            out = dict(self.coeffs)
            for key, c in (other if op is add else other.scale(-1.0)).coeffs.items():
                out[key] = out.get(key, 0.0) + c
            return TruncatedSeries2(out, self.order, Backend.COMPLEX)
        a, b = self._form, other._form
        keys = list(dict.fromkeys(chain(a[0], b[0])))
        return _exact2(_stored(keys, _sum(_gathered(a, keys), _gathered(b, keys), op)), self.order, self.backend)

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
        if self.backend is Backend.COMPLEX:
            products = ((key, v * c) for key, v in self.coeffs.items())
            return _series2({key: p for key, p in products if p != 0}, self.order, self.backend)
        keys = list(self._form[0])
        return _exact2(_stored(keys, _scaled(_gathered(self._form, keys), c)), self.order, self.backend)

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
        keys = list(self._form[0])
        re, im, den, size = _gathered(self._form, keys)
        xr, xi, xd = _powers_over(cx, n)
        yr, yi, yd = _powers_over(cy, n)
        fr, fi = times_columns(
            [xr[j] for j, _ in keys], xi and [xi[j] for j, _ in keys],
            [yr[k] for _, k in keys], yi and [yi[k] for _, k in keys],
        )
        re, im = times_columns(re, im, fr, fi)  # a zero factor's powers vanish, and no zero is stored
        return _exact2(_stored(keys, _held(re, im, den * xd * yd, size)), n, self.backend)

    def substitute_diagonal(self, c: Scalar) -> TruncatedSeries:
        """Set y = c*x, producing a univariate series of the same order."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        n = self.order
        if self.backend is Backend.COMPLEX:
            out = [0.0] * (n + 1)
            py = _powers(c, n)
            for (j, k), v in self.coeffs.items():
                out[j + k] = out[j + k] + v * py[k]
            return TruncatedSeries(out, Backend.COMPLEX)
        keys = list(self._form[0])
        re, im, den, size = _gathered(self._form, keys)
        pr, pi, d = _powers_over(c, n)
        re, im = times_columns(re, im, [pr[k] for _, k in keys], pi and [pi[k] for _, k in keys])
        sums = [[0] * (n + 1) for _ in range(1 if im is None else 2)]
        for column, total in zip((re, im), sums):
            for (j, k), a in zip(keys, column):
                total[j + k] += a
        return _exact(_held(sums[0], sums[1] if im is not None else None, den * d, size), self.backend)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        if self.backend is not other.backend:
            return False
        common = min(self.order, other.order)
        if self.backend is Backend.COMPLEX:
            keys = {key for key in self.coeffs if sum(key) <= common}
            keys |= {key for key in other.coeffs if sum(key) <= common}
            zero = backend_zero(self.backend)
            return all(self.coeffs.get(key, zero) == other.coeffs.get(key, zero) for key in keys)
        # no zero is stored, so equal series hold the same keys on the common triangle
        a, b = self._form, other._form
        keys = [key for key in a[0] if key[0] + key[1] <= common]
        if set(keys) != {key for key in b[0] if key[0] + key[1] <= common}:
            return False
        (ar, ai, ad, _), (br, bi, bd, _) = _gathered(a, keys), _gathered(b, keys)
        return _same(ar, br, ad, bd) and _same(ai, bi, ad, bd)

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
    if f.backend is Backend.COMPLEX:
        products = (
            ((j, k), a * b)
            for j, a in enumerate(f.coeffs[: order + 1]) if a != 0
            for k, b in enumerate(g.coeffs[: order + 1 - j]) if b != 0
        )
        return _series2({key: p for key, p in products if p != 0}, order, f.backend)
    (fr, fi, fd, fsize), (gr, gi, gd, gsize) = f._form, g._form
    rows = [j for j in range(order + 1) if fr[j] or (fi and fi[j])]
    keys = [(j, k) for j in rows for k in range(order + 1 - j)]
    re, im = times_columns(
        [fr[j] for j, _ in keys], fi and [fi[j] for j, _ in keys],
        [gr[k] for _, k in keys], gi and [gi[k] for _, k in keys],
    )
    return _exact2(_stored(keys, _held(re, im, fd * gd, max(fsize, gsize))), order, f.backend)


def promote_series(f: TruncatedSeries, backend: Backend) -> TruncatedSeries:
    return TruncatedSeries(tuple(promote(c, backend) for c in f.coeffs), backend)


def promote_series2(F: TruncatedSeries2, backend: Backend) -> TruncatedSeries2:
    return TruncatedSeries2({key: promote(c, backend) for key, c in F.coeffs.items()}, F.order, backend)


# ---------------------------------------------------------------------------
# the integer form of the exact backends
# ---------------------------------------------------------------------------
#
# A form is (re, im, den, size): lists of numerators in one variable, dicts by
# key in two, im None where every imaginary part is 0, den > 0 and size the
# bit length its operands' denominators had when they were made (or last
# reduced).  Every form passes _held, and every kernel forms lists first.


def _series(coeffs: tuple, backend: Backend) -> TruncatedSeries:
    """A series of coefficients already known to be in ``backend``."""
    out = object.__new__(TruncatedSeries)
    out.coeffs, out.backend, out.order = coeffs, backend, len(coeffs) - 1
    return out


def _series2(coeffs: dict, order: int, backend: Backend) -> TruncatedSeries2:
    """A bivariate series of nonzero coefficients on the triangle, already in ``backend``."""
    out = object.__new__(TruncatedSeries2)
    out.coeffs, out.order, out.backend = coeffs, order, backend
    return out


def _exact(form: tuple, backend: Backend) -> TruncatedSeries:
    """The exact series of a form in one variable; its view is built when read."""
    out = object.__new__(TruncatedSeries)
    out._form, out.backend, out.order = form, backend, len(form[0]) - 1
    return out


def _exact2(form: tuple, order: int, backend: Backend) -> TruncatedSeries2:
    """The exact bivariate series of a form by key; its view is built when read."""
    out = object.__new__(TruncatedSeries2)
    out._form, out.order, out.backend = form, order, backend
    return out


def _held(re: list, im: list | None, den: int, size: int) -> tuple:
    """The form (re, im, den, size), divided by its content gcd once den passes _GROWTH times size."""
    if den.bit_length() > _GROWTH * size:
        return _reduced(re, im, den, size)
    return re, im, den, size


def _reduced(re: list, im: list | None, den: int, size: int) -> tuple:
    """The form divided by the gcd of den and every numerator; its size is then at least den's bits."""
    g = math.gcd(den, *re, *(im or ()))
    if g > 1:
        re, den = [a // g for a in re], den // g
        im = None if im is None else [b // g for b in im]
    return re, im, den, max(size, den.bit_length())


def _over_lcm(re, im, dens) -> tuple:
    """Integer columns with one denominator each, as a form over their least common denominator."""
    den = math.lcm(*dens)
    scales = [den // d for d in dens]
    im = None if im is None else list(map(mul, im, scales))
    return _held(list(map(mul, re, scales)), im, den, den.bit_length())


def _form_of(values) -> tuple:
    """The form of exact values, in order, over their least common denominator."""
    triples = list(map(exact_triple, values))
    im = [b for _, b, _ in triples]
    return _over_lcm([a for a, _, _ in triples], im if any(im) else None, [d for _, _, d in triples])


def _stored(keys: list, form: tuple) -> tuple:
    """A form of lists over the keys as the bivariate form of dicts, its zero coefficients dropped."""
    re, im, den, size = form
    if im is None:
        return {key: a for key, a in zip(keys, re) if a}, None, den, size
    kept = [(key, a, b) for key, a, b in zip(keys, re, im) if a or b]
    re = {key: a for key, a, _ in kept}
    im = {key: b for key, _, b in kept} if any(b for _, _, b in kept) else None
    return re, im, den, size


def _gathered(form: tuple, keys: list) -> tuple:
    """A bivariate form's numerators at the keys as lists, 0 where a key is not stored."""
    re, im, den, size = form
    return [re.get(key, 0) for key in keys], (None if im is None else [im.get(key, 0) for key in keys]), den, size


def _sum(a: tuple, b: tuple, op) -> tuple:
    """a op b of two forms of lists of one length, over the lcm of their denominators."""
    (ar, ai, ad, asize), (br, bi, bd, bsize) = a, b
    if ad != bd:
        g = math.gcd(ad, bd)
        sa, sb = bd // g, ad // g
        ar, ai = times_columns(ar, ai, repeat(sa), None)
        br, bi = times_columns(br, bi, repeat(sb), None)
        ad *= sa
    re = list(map(op, ar, br))
    im = None if ai is None and bi is None else list(map(op, ai or repeat(0), bi or repeat(0)))
    return _held(re, im, ad, max(asize, bsize))


def _scaled(form: tuple, c: Scalar) -> tuple:
    """A form of lists times the scalar c."""
    re, im, den, size = form
    p, q, r = exact_triple(c)
    re, im = times_columns(re, im, repeat(p), repeat(q) if q else None)
    return _held(re, im, den * r, size)


def _same(x: list | None, y: list | None, dx: int, dy: int) -> bool:
    """x[i] / dx == y[i] / dy for every i of two columns of one length, a None column being 0."""
    if x is None or y is None:
        rest = y if x is None else x
        return rest is None or not any(rest)
    if dx == dy:
        return x == y
    return all(map(eq, map(mul, x, repeat(dy)), map(mul, y, repeat(dx))))


def _powers_over(c: Scalar, n: int) -> tuple:
    """c^k, k = 0..n, over one denominator: (re, im, d) with c^k = (re[k] + i im[k]) / d, im None for a real c."""
    p, q, r = exact_triple(c)
    re, im = power_columns(p, q, n)
    if r == 1:
        return re, im, 1
    rs = power_columns(r, 0, n)[0][::-1]  # r^(n-k)
    re, im = times_columns(re, im, rs, None)
    return re, im, rs[0]


def _product(ar, ai, br, bi) -> tuple[list[int], list[int] | None]:
    """Real and imaginary parts of the convolution of (ar + i ai) and (br + i bi).

    A part that is None is 0 and costs no convolution; im is None when both are.
    """
    re, im = _convolve(ar, br), None
    if ai is not None:
        im = _convolve(ai, br)
        if bi is not None:
            re = list(map(sub, re, _convolve(ai, bi)))
    if bi is not None:
        t = _convolve(ar, bi)
        im = t if im is None else list(map(add, im, t))
    return re, im


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """sum over i of a_i b_(n-i), n = 0..order, for two lists of length order + 1."""
    order = len(a) - 1
    rb = b[::-1]
    return [sum(map(mul, a[: n + 1], rb[order - n :])) for n in range(order + 1)]
