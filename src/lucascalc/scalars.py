"""Scalar backends, Lucas parameters, and the core sequence machinery.

Three backends are supported and never mix implicitly:

* exact rationals (``fractions.Fraction``, plain ``int`` accepted),
* exact Gaussian rationals (:class:`GaussianRational`),
* double-precision floats/complex.

Promotion between backends is explicit (:func:`promote`).  All derived
values (sequences, factorials, binomial analogues) are computed in the
backend of their parameters.

The exact backends share one integer format, the triple (a, b, d) meaning
(a+bi)/d; a rational n/d is (n, 0, d).  Triples go by columns: re, im and
den, each a sequence of integers, im None where every b is 0.
:func:`exact_triple` reads a value's canonical triple, :func:`exact_column`
builds the values of integer columns with one normalisation each,
:func:`gaussian_integer_power` raises a+bi to a power and
:func:`power_columns` to every power up to n, and :func:`times_columns`
multiplies two columns entry by entry.  The integer kernels of ``series``,
``deformed`` and ``calculus`` read and build exact scalars through these
alone; they multiply triples unreduced, normalise only what leaves as
values, and skip the imaginary products where every b is 0.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Optional, Union

from .errors import (
    BackendMismatch,
    DivisionByZeroFactor,
    IndexOutOfRange,
    RootsUnavailable,
    VanishingFactor,
    ZeroParameter,
)


class Backend(enum.Enum):
    RATIONAL = "rational"
    GAUSSIAN = "gaussian-rational"
    COMPLEX = "complex-float"

    __hash__ = object.__hash__  # members compare by identity; Enum.__hash__ is a Python call per lookup


class GaussianRational:
    """Exact element of Q(i), stored as an integer triple (a, b, d) meaning (a+bi)/d.

    The triple is canonical (d > 0 and gcd(a, b, d) = 1), so equality
    compares integers and each operation reduces with one ``math.gcd``.
    The real and imaginary parts are available as the Fractions ``re`` and
    ``im``.  Arithmetic with ints and Fractions is supported; floats and
    complex numbers are rejected so the exact backends cannot silently
    degrade.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussianRational):
            if im:
                raise TypeError("imaginary part must be rational")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // math.gcd(p, q)
        self._a, self._b, self._d = re.numerator * (d // p), im.numerator * (d // q), d

    @classmethod
    def from_triple(cls, a: int, b: int, d: int) -> "GaussianRational":
        """(a+bi)/d for integers a, b and d != 0, reduced by one gcd."""
        if d <= 0:
            if d == 0:
                raise ZeroDivisionError("Gaussian rational with denominator 0")
            a, b, d = -a, -b, -d
        return _reduced(a, b, d)

    def as_triple(self) -> tuple[int, int, int]:
        """The canonical integer triple (a, b, d): d > 0, gcd(a, b, d) = 1, value (a+bi)/d."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, -o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self._a, -self._b, self._d)

    def __mul__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        return _reduced(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return _quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._a, self._b, self._d)

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self if exponent >= 0 else _quotient(1, 0, 1, self._a, self._b, self._d)
        n = abs(exponent)
        return _reduced(*gaussian_integer_power(base._a, base._b, n), base._d**n)

    def __eq__(self, other):
        o = exact_triple(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The GaussianRational with an already canonical triple."""
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = a, b, d
    return out


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a+bi)/d for d > 0, reduced by one gcd."""
    g = math.gcd(a, b, d)
    if g == 1:
        return _triple(a, b, d)
    return _triple(a // g, b // g, d // g)


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """(a1+b1 i)/d1 + (a2+b2 i)/d2 for d1, d2 > 0; equal denominators skip the cross products."""
    if d1 == d2:
        return _reduced(a1 + a2, b1 + b2, d1)
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _quotient(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> GaussianRational:
    """((a1+b1 i)/d1) / ((a2+b2 i)/d2) = (a1+b1 i)(a2-b2 i) d2 / (d1 (a2^2+b2^2))."""
    norm = a2 * a2 + b2 * b2
    if norm == 0:
        raise ZeroDivisionError("division by Gaussian zero")
    return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * norm)


def exact_triple(value) -> Optional[tuple[int, int, int]]:
    """The integer triple (a, b, d), meaning (a+bi)/d, of an exact scalar; None for any other type.

    A GaussianRational gives its canonical triple and an int or a Fraction
    n/d gives (n, 0, d), so d > 0 and gcd(a, b, d) = 1.
    """
    if isinstance(value, GaussianRational):
        return value._a, value._b, value._d
    # an exact Fraction skips the isinstance check, which asks Fraction's ABC metaclass
    if type(value) is Fraction or isinstance(value, (int, Fraction)):
        a, d = value.as_integer_ratio()
        return a, 0, d
    return None


def exact_column(backend: Backend, re, im, den) -> list:
    """The values (re_k + i im_k) / den_k of integer columns in an exact backend, one normalisation each.

    The columns are iterables of integers with every den_k != 0, and im None
    is 0.  Over the rationals, whose im is 0, each value is Fraction(re_k,
    den_k); over the Gaussian rationals it is :meth:`GaussianRational.from_triple`.
    """
    if backend is Backend.GAUSSIAN:
        return list(map(GaussianRational.from_triple, re, repeat(0) if im is None else im, den))
    return list(map(Fraction, re, den))


def times_columns(xr, xi, yr, yi) -> tuple:
    """Entrywise (xr + i xi)(yr + i yi) of integer columns, to the shorter, as lists (re, im).

    A None column is 0 and costs no product; im is None when xi and yi are.
    """
    re, im = list(map(operator.mul, xr, yr)), None
    if xi is not None:
        im = list(map(operator.mul, xi, yr))
        if yi is not None:
            re = list(map(operator.sub, re, map(operator.mul, xi, yi)))
    if yi is not None:
        t = map(operator.mul, xr, yi)
        im = list(t) if im is None else list(map(operator.add, im, t))
    return re, im


def power_columns(a: int, b: int, n: int) -> tuple:
    """(a+bi)^j, j = 0..n, as integer columns (re, im); im is None for b = 0."""
    if not b:
        return list(accumulate(repeat(a, n), operator.mul, initial=1)), None
    re, im = [1], [0]
    for _ in range(n):
        x, y = re[-1], im[-1]
        re.append(x * a - y * b)
        im.append(x * b + y * a)
    return re, im


def gaussian_integer_power(a: int, b: int, n: int) -> tuple[int, int]:
    """(a+bi)^n for n >= 0 over the Gaussian integers, by squaring; a real base is one int power."""
    if not b:
        return a**n, 0
    ra, rb = 1, 0
    while n:
        if n & 1:
            ra, rb = ra * a - rb * b, ra * b + rb * a
        n >>= 1
        if n:
            a, b = a * a - b * b, 2 * a * b
    return ra, rb


Scalar = Union[int, Fraction, GaussianRational, float, complex]

GAUSSIAN_I = GaussianRational(0, 1)


# exact types first; bool, subclasses and unsupported types take the isinstance chain
_BACKEND_OF_TYPE = {
    int: Backend.RATIONAL,
    Fraction: Backend.RATIONAL,
    GaussianRational: Backend.GAUSSIAN,
    float: Backend.COMPLEX,
    complex: Backend.COMPLEX,
}


def backend_of(value: Scalar) -> Backend:
    backend = _BACKEND_OF_TYPE.get(type(value))
    if backend is not None:
        return backend
    if isinstance(value, (int, Fraction)):
        return Backend.RATIONAL
    if isinstance(value, GaussianRational):
        return Backend.GAUSSIAN
    if isinstance(value, (float, complex)):
        return Backend.COMPLEX
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def common_backend(*values: Scalar) -> Backend:
    if values:
        backend = backend_of(values[0])
        for value in values[1:]:
            if backend_of(value) is not backend:
                break
        else:
            return backend
    names = sorted({backend_of(v).value for v in values})
    raise BackendMismatch(f"mixed scalar backends: {names}")


_ORDER = {Backend.RATIONAL: 0, Backend.GAUSSIAN: 1, Backend.COMPLEX: 2}


def promote(value: Scalar, backend: Backend) -> Scalar:
    """Convert ``value`` into ``backend``.  Only upward promotion is allowed."""
    have = backend_of(value)
    if _ORDER[have] > _ORDER[backend]:
        raise BackendMismatch(f"cannot demote {have.value} to {backend.value}")
    if backend is Backend.RATIONAL:
        return Fraction(value)
    if backend is Backend.GAUSSIAN:
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return float(value.re)
        return complex(value)
    if isinstance(value, (int, Fraction)):
        return float(value)
    return _tidy_complex(value)


# both exact scalar types are immutable, so one instance per backend serves every caller
_ZERO = {Backend.RATIONAL: Fraction(0), Backend.GAUSSIAN: GaussianRational(0), Backend.COMPLEX: 0.0}
_ONE = {Backend.RATIONAL: Fraction(1), Backend.GAUSSIAN: GaussianRational(1), Backend.COMPLEX: 1.0}


def backend_zero(backend: Backend) -> Scalar:
    return _ZERO[backend]


def backend_one(backend: Backend) -> Scalar:
    return _ONE[backend]


def magnitude(value: Scalar) -> float:
    """Absolute value as a float; exact values that overflow map to inf."""
    if type(value) is float:
        return abs(value)
    try:
        if isinstance(value, GaussianRational):
            return abs(complex(value)) if value else 0.0
        return abs(float(value)) if not isinstance(value, complex) else abs(value)
    except OverflowError:
        return math.inf


def _tidy_complex(value):
    if isinstance(value, complex) and value.imag == 0:
        return value.real
    return value


def rational_sqrt(value: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(value: GaussianRational) -> Optional[GaussianRational]:
    """Exact square root within Q(i), or None if no such element exists."""
    a, b = value.re, value.im
    if b == 0:
        r = rational_sqrt(a if a >= 0 else -a)
        if r is None:
            return None
        return GaussianRational(r) if a >= 0 else GaussianRational(0, r)
    norm_root = rational_sqrt(a * a + b * b)
    if norm_root is None:
        return None
    x = rational_sqrt((a + norm_root) / 2)
    if x is None or x == 0:
        return None
    y = b / (2 * x)
    root = GaussianRational(x, y)
    return root if root * root == value else None


class SeqCache:
    """Grow-only cache of one parameter pair's sequence {n}, its factorials and Lucasnomials.

    The recurrence runs on numerators.  With a scale c, S = c s and T = c^2 t,

        U_n = S U_(n-1) + T U_(n-2),  U_0 = 0, U_1 = 1,   {n} = U_n / c^(n-1),

    since multiplying {n} = s {n-1} + t {n-2} through by c^(n-1) gives it.
    So {n}! = F_n / c^T(n) with F_n = U_1 ... U_n and T(n) = n(n-1)/2.
    Over the rationals c = lcm(den s, den t): the numerators U_n and F_n are
    integers, the recurrence needs no gcd, and :meth:`factorial_parts` hands
    out {n}! as the unreduced pair (F_n, c^T(n)), from which a caller builds
    each coefficient with one normalisation.  The Fractions {n} and {n}! are
    built only when :meth:`u` or :meth:`factorial` reads them, each once from
    its numerator and power of c.  The Gaussian and float backends are the
    case c = 1: their numerator lists are the value lists.  The Lucasnomial
    rows come from the same numerators (:meth:`lucasnomial_parts`), and the
    companion from {n} itself (:meth:`v`).

    Growth happens under a lock.  Extension grows the numerators U_n alone;
    F_n grows, up to the first vanishing {k}, only when a factorial is read,
    so reading {n} costs no product of n terms.  A series producer grows the
    sequence to its top degree before its loop, so it takes the lock for the
    sequence once.  Lists are append-only, so concurrent readers always
    observe a consistent prefix.
    """

    def __init__(self, s: Scalar, t: Scalar, backend: Backend):
        self._backend = backend
        self._t = t
        self._first_zero: Optional[int] = None
        self._lock = threading.Lock()
        one = backend_one(backend)
        self._value_slot: tuple = (None, None)  # functions' ratio tables of one u, never read here
        if backend is Backend.RATIONAL:
            c = math.lcm(s.denominator, t.denominator)
            self._scale = c
            self._scaled_s = s.numerator * (c // s.denominator)
            self._scaled_t = t.numerator * (c // t.denominator) * c
            self._scaled_u, self._scaled_fact = [0, 1], [1]
            self._u, self._fact = [backend_zero(backend), one], [one]
        else:
            self._scale = 1
            self._scaled_s, self._scaled_t = s, t
            self._scaled_u, self._scaled_fact = [backend_zero(backend), one], [one]
            self._u, self._fact = self._scaled_u, self._scaled_fact

    def _extend(self, n: int) -> None:
        with self._lock:
            s, t, su = self._scaled_s, self._scaled_t, self._scaled_u
            while len(su) <= n:
                term = s * su[-1] + t * su[-2]
                # set before the append: a reader that sees {k} must see a zero at k
                if self._first_zero is None and term == 0:
                    self._first_zero = len(su)
                su.append(term)

    def _fractions(self, values: list, nums: list, exponent, n: int) -> None:
        """Over the rationals: append Fraction(nums[k], c ** exponent(k)) to values, k up to n."""
        with self._lock:
            c = self._scale
            while len(values) <= n:
                k = len(values)
                values.append(Fraction(nums[k], c ** exponent(k)))

    def u(self, n: int) -> Scalar:
        values = self._u
        if not 0 <= n < len(values):
            if n < 0:
                raise IndexOutOfRange("n must be nonnegative")
            if n >= len(self._scaled_u):
                self._extend(n)
            if n >= len(values):  # over the rationals: the Fractions of the new numerators
                self._fractions(values, self._scaled_u, lambda k: k - 1, n)
        return values[n]

    def v(self, n: int) -> Scalar:
        """The companion <n> = {n+1} + t {n-1} (E. Lucas, Amer. J. Math. 1, 1878), <0> = 2."""
        if n == 0:
            one = backend_one(self._backend)
            return one + one
        return self.u(n + 1) + self._t * self.u(n - 1)

    def u_triple(self, n: int) -> tuple[int, int, int]:
        """Over the exact backends: {n} as an integer triple (a, b, d), meaning (a+bi)/d.

        Over the rationals it is (U_n, 0, c^(n-1)), not reduced ((0, 0, 1) at
        n = 0); over the Gaussian rationals it is the canonical triple of {n}.
        """
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        if n >= len(self._scaled_u):
            self._extend(n)
        if self._backend is Backend.RATIONAL:
            return self._scaled_u[n], 0, self._scale ** max(n - 1, 0)
        return exact_triple(self._scaled_u[n])

    def factorial_parts(self, n: int) -> tuple:
        """{n}! as the unreduced pair (F_n, c^T(n)), F_n = U_1 ... U_n and T(n) = n(n-1)/2.

        Over the rationals both are integers and {n}! = F_n / c^T(n); the
        fields, where c = 1, give ({n}!, None).  The first vanishing {k},
        k <= n, raises VanishingFactor(k), as :meth:`factorial` does, and a
        negative n raises IndexOutOfRange.
        """
        if n < 0:
            raise IndexOutOfRange("n must be nonnegative")
        sf = self._scaled_fact
        if n >= len(sf):
            self._grow_factorial(n)
        if self._backend is not Backend.RATIONAL:
            return sf[n], None
        return sf[n], self._scale ** (n * (n - 1) // 2)

    def factorial(self, n: int) -> Scalar:
        fact = self._fact
        if not 0 <= n < len(fact):
            if n < 0:
                raise IndexOutOfRange("n must be nonnegative")
            if n >= len(self._scaled_fact):
                self._grow_factorial(n)
            if n >= len(fact):  # over the rationals: the Fractions of the new parts
                self._fractions(fact, self._scaled_fact, binom2, n)
        return fact[n]

    def _grow_factorial(self, n: int) -> None:
        """Grow F_k to k = n; the first vanishing {k}, k <= n, raises VanishingFactor(k).

        F_k exists below the first vanishing {k} only.
        """
        if n >= len(self._scaled_u):
            self._extend(n)
        zero = self._first_zero
        top = n if zero is None or zero > n else zero - 1
        sf = self._scaled_fact
        if top >= len(sf):
            with self._lock:
                su = self._scaled_u
                while len(sf) <= top:
                    sf.append(sf[-1] * su[len(sf)])
        if top < n:
            raise VanishingFactor(zero)

    def lucasnomial_parts(self, n: int, k: int) -> tuple[list, Optional[list]]:
        """Numerators Ĉ(n,0..k) and denominators c^(j(n-j)) of C(n,0..k).

        Ĉ(n,0) = 1 and Ĉ(n,j) = Ĉ(n,j-1) U_(n-j+1) / U_j: the telescoped
        product of {n-j+1} / {j} on the numerators.  Over the rationals Ĉ(n,j)
        is the Lucasnomial of the integer sequence U, an integer polynomial in
        S and T (Sagan and Savage, Integers 10, 2010), so Ĉ(n,j-1) U_(n-j+1) =
        Ĉ(n,j) U_j and the step is an exact ``//``; the fields divide with ``/``
        and, as c = 1, form no denominators (None).  The exact backends multiply
        out j <= n/2 only and mirror the rest, C(n,j) = C(n,n-j); floats run the
        whole product.  The first vanishing {j}, j <= k, raises DivisionByZeroFactor.
        """
        if n >= len(self._scaled_u):
            self._extend(n)
        zero = self._first_zero
        if zero is not None and zero <= k:
            raise DivisionByZeroFactor(f"{{{zero}}} = 0 in the denominator")
        backend = self._backend
        divide = operator.floordiv if backend is Backend.RATIONAL else operator.truediv
        last = k if backend is Backend.COMPLEX else min(k, n // 2)
        su, c = self._scaled_u, self._scale
        nums = [su[1]]  # the empty product, 1 in the numerators' type
        for j in range(1, last + 1):
            nums.append(divide(nums[-1] * su[n - j + 1], su[j]))
        for j in range(last + 1, k + 1):
            nums.append(nums[n - j])
        if backend is not Backend.RATIONAL:
            return nums, None
        dens = [c ** (j * (n - j)) for j in range(last + 1)]
        return nums, dens + dens[n - k : n - last][::-1]  # dens[n - j] for j = last+1..k


@dataclass(frozen=True)
class LucasParams:
    """Parameter pair (s, t) with the roots of x^2 - s x - t when available."""

    s: Scalar
    t: Scalar
    disc: Scalar
    phi: Optional[Scalar]
    phi_prime: Optional[Scalar]
    backend: Backend
    cache: SeqCache = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cache", SeqCache(self.s, self.t, self.backend))

    @property
    def roots_available(self) -> bool:
        return self.phi is not None

    def require_roots(self) -> tuple[Scalar, Scalar]:
        if self.phi is None:
            raise RootsUnavailable(
                f"discriminant {self.disc} has no exact square root in the {self.backend.value} backend"
            )
        return self.phi, self.phi_prime

    def __str__(self):
        return f"(s={self.s}, t={self.t})"


def make_params(s: Scalar, t: Scalar) -> LucasParams:
    """Build parameters from (s, t); both must be nonzero and share a backend.

    In the exact backends the roots are stored only when the discriminant
    s^2 + 4t is a perfect square of a field element; otherwise operations
    that need roots raise RootsUnavailable.
    """
    backend = common_backend(s, t)
    s = promote(s, backend)
    t = promote(t, backend)
    if s == 0 or t == 0:
        raise ZeroParameter("both s and t must be nonzero")
    disc = s * s + 4 * t
    if backend is Backend.COMPLEX:
        if isinstance(disc, complex):
            root = cmath.sqrt(disc)
        elif disc >= 0:
            root = math.sqrt(disc)
        else:
            root = cmath.sqrt(disc)
        phi = _tidy_complex((s + root) / 2)
        phi_prime = _tidy_complex((s - root) / 2)
    else:
        root = (rational_sqrt if backend is Backend.RATIONAL else gaussian_sqrt)(disc)
        if root is None:
            phi = phi_prime = None
        else:
            two = backend_one(backend) + backend_one(backend)
            phi = (s + root) / two
            phi_prime = (s - root) / two
    return LucasParams(s, t, disc, phi, phi_prime, backend)


def params_from_roots(phi: Scalar, phi_prime: Scalar) -> LucasParams:
    """Build parameters from a root pair, storing the roots exactly.

    s = phi + phi', t = -phi*phi'; rejects pairs giving s = 0 or t = 0.
    """
    backend = common_backend(phi, phi_prime)
    phi = promote(phi, backend)
    phi_prime = promote(phi_prime, backend)
    s = phi + phi_prime
    t = -(phi * phi_prime)
    if s == 0 or t == 0:
        raise ZeroParameter("root pair yields zero s or t")
    diff = phi - phi_prime
    return LucasParams(promote(s, backend), promote(t, backend), diff * diff, phi, phi_prime, backend)


def promote_params(params: LucasParams, backend: Backend) -> LucasParams:
    """Re-express parameters in a wider backend, keeping roots when possible."""
    if backend is params.backend:
        return params
    if params.roots_available:
        return params_from_roots(promote(params.phi, backend), promote(params.phi_prime, backend))
    return make_params(promote(params.s, backend), promote(params.t, backend))


def lucas_u(n: int, params: LucasParams) -> Scalar:
    """Term {n} of the two-parameter recurrence 0, 1, s, s^2+t, ..."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    return params.cache.u(n)


def lucas_v(n: int, params: LucasParams) -> Scalar:
    """Companion term <n> = {n+1} + t {n-1}: seeds 2, s and the same recurrence."""
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    return params.cache.v(n)


_DEGENERATE_REL = 1e-12


def binet(n: int, params: LucasParams) -> Scalar:
    """Closed form (phi^n - phi'^n) / (phi - phi'), with the repeated-root branch.

    When the discriminant vanishes (exactly, or relatively below 1e-12 for
    floats) the limit n*(s/2)^(n-1) is returned instead.
    """
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    if params.backend is Backend.COMPLEX:
        scale = max(magnitude(params.s) ** 2, 4 * magnitude(params.t))
        degenerate = magnitude(params.disc) < _DEGENERATE_REL * scale
    else:
        degenerate = params.disc == 0
    if degenerate:
        if n == 0:
            return backend_zero(params.backend)
        half_s = params.s / 2
        return n * half_s ** (n - 1)
    phi, phi_prime = params.require_roots()
    return (phi**n - phi_prime**n) / (phi - phi_prime)


def lucastorial(n: int, params: LucasParams) -> Scalar:
    """Product {1}{2}...{n}; the empty product for n = 0.

    Raises VanishingFactor(k) if some {k} = 0 for k <= n, which marks the
    parameter point as outside the domain of factorial-based series.
    """
    if n < 0:
        raise IndexOutOfRange("n must be nonnegative")
    return params.cache.factorial(n)


def lucasnomial(n: int, k: int, params: LucasParams) -> Scalar:
    """Binomial analogue C(n,k), the entry k of the telescoped row of :func:`lucasnomial_row`.

    The product form is defined at more parameter points than the factorial
    quotient; a vanishing denominator factor {j}, j <= k, raises
    DivisionByZeroFactor.  Only the row up to k is multiplied out.
    """
    if k < 0 or n < 0 or k > n:
        raise IndexOutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    nums, dens = params.cache.lucasnomial_parts(n, k)
    if params.backend is Backend.RATIONAL:
        return Fraction(nums[k], dens[k])
    return nums[k]


def lucasnomial_row(n: int, params: LucasParams) -> list:
    """The row C(n,0..n) in O(n), by C(n,k) = C(n,k-1) * {n-k+1} / {k}.

    A telescoped product shared along the row (not the Pascal rule, which the
    suite verifies), from :meth:`SeqCache.lucasnomial_parts`; the first
    vanishing denominator {k} raises DivisionByZeroFactor as
    ``lucasnomial(n, k)`` does, and each entry equals ``lucasnomial(n, k)``
    exactly, floats included.  Over the rationals each entry is one Fraction
    of the kernel's parts, which already mirror C(n,k) = C(n,n-k).
    """
    if n < 0:
        raise IndexOutOfRange(f"need n >= 0, got n={n}")
    nums, dens = params.cache.lucasnomial_parts(n, n)
    if params.backend is not Backend.RATIONAL:
        return nums
    return list(map(Fraction, nums, dens))


def binom2(n: int) -> int:
    """n(n-1)/2 over the integers (valid for negative n as well)."""
    if not isinstance(n, int):
        raise TypeError("binom2 takes an integer")
    return n * (n - 1) // 2
