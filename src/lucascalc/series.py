"""Truncated formal power series in one and two variables.

Coefficients live in a single scalar backend.  All arithmetic is exact
truncated ring arithmetic; equality compares coefficient-wise on the
common truncation order.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import BackendMismatch, NonUnitConstantTerm, OrderMismatch
from .scalars import Backend, Scalar, backend_of, backend_one, backend_zero, promote


class TruncatedSeries:
    """Series sum of a_n z^n for n <= order, coefficients in one backend."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Iterable[Scalar], backend: Backend | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if backend is None:
            backend = backend_of(coeffs[0])
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

    def coefficient(self, n: int) -> Scalar:
        if not 0 <= n <= self.order:
            raise OrderMismatch(f"coefficient index {n} exceeds order {self.order}")
        return self.coeffs[n]

    def _check_backend(self, other):
        if self.backend is not other.backend:
            raise BackendMismatch("series backends differ")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition requires equal truncation orders")
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.backend)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("subtraction requires equal truncation orders")
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.backend)

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs), self.backend)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_backend(other)
            order = min(self.order, other.order)
            zero = backend_zero(self.backend)
            out = [zero] * (order + 1)
            for i, a in enumerate(self.coeffs[: order + 1]):
                if a == 0:
                    continue
                for j in range(order + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] = out[i + j] + a * b
            return TruncatedSeries(out, self.backend)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "TruncatedSeries":
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        return TruncatedSeries(tuple(a * c for a in self.coeffs), self.backend)

    def dilate(self, c: Scalar) -> "TruncatedSeries":
        """Substitute z -> c z, i.e. a_n -> c^n a_n."""
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        out = [self.coeffs[0]]
        acc = c
        for a in self.coeffs[1:]:
            out.append(a * acc)
            acc = acc * c
        return TruncatedSeries(out, self.backend)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderMismatch("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], self.backend)

    def reciprocal(self) -> "TruncatedSeries":
        """Series g with f*g = 1 + O(z^(order+1)); needs f(0) != 0."""
        f0 = self.coeffs[0]
        if f0 == 0:
            raise NonUnitConstantTerm("reciprocal needs a nonzero constant term")
        g0 = backend_one(self.backend) / f0
        out = [g0]
        for n in range(1, self.order + 1):
            acc = backend_zero(self.backend)
            for k in range(1, n + 1):
                if k <= self.order and self.coeffs[k] != 0:
                    acc = acc + self.coeffs[k] * out[n - k]
            out.append(-acc / f0)
        return TruncatedSeries(out, self.backend)

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
        store = {}
        for (j, k), c in coeffs.items():
            if j < 0 or k < 0 or j + k > order:
                raise OrderMismatch(f"key ({j},{k}) outside triangle of order {order}")
            if backend_of(c) is not backend:
                raise BackendMismatch("series coefficients must share one backend")
            if c != 0:
                store[(j, k)] = c
        self.coeffs = store
        self.order = order
        self.backend = backend

    @classmethod
    def zero(cls, order: int, backend: Backend) -> "TruncatedSeries2":
        return cls({}, order, backend)

    def coefficient(self, j: int, k: int) -> Scalar:
        return self.coeffs.get((j, k), backend_zero(self.backend))

    def _check_backend(self, other):
        if self.backend is not other.backend:
            raise BackendMismatch("series backends differ")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        self._check_backend(other)
        if self.order != other.order:
            raise OrderMismatch("addition requires equal truncation orders")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, backend_zero(self.backend)) + c
        return TruncatedSeries2(out, self.order, self.backend)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries2):
            return NotImplemented
        return self + other.scale(-backend_one(self.backend))

    def __neg__(self):
        return self.scale(-backend_one(self.backend))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries2):
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
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: Scalar) -> "TruncatedSeries2":
        if backend_of(c) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        return TruncatedSeries2({key: v * c for key, v in self.coeffs.items()}, self.order, self.backend)

    def dilate(self, cx: Scalar, cy: Scalar) -> "TruncatedSeries2":
        """Substitute x -> cx*x and y -> cy*y."""
        if backend_of(cx) is not self.backend or backend_of(cy) is not self.backend:
            raise BackendMismatch("scalar backend differs from series backend")
        n = self.order
        px = _powers(cx, n)
        py = _powers(cy, n)
        return TruncatedSeries2(
            {(j, k): v * px[j] * py[k] for (j, k), v in self.coeffs.items()},
            n,
            self.backend,
        )

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
    out = {}
    for j in range(order + 1):
        a = f.coeffs[j]
        if a == 0:
            continue
        for k in range(order + 1 - j):
            b = g.coeffs[k]
            if b != 0:
                out[(j, k)] = a * b
    return TruncatedSeries2(out, order, f.backend)


def promote_series(f: TruncatedSeries, backend: Backend) -> TruncatedSeries:
    return TruncatedSeries(tuple(promote(c, backend) for c in f.coeffs), backend)


def promote_series2(F: TruncatedSeries2, backend: Backend) -> TruncatedSeries2:
    return TruncatedSeries2({key: promote(c, backend) for key, c in F.coeffs.items()}, F.order, backend)
