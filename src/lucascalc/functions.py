"""Deformed exponential, trigonometric, and hyperbolic function families.

Every family is a power series whose degree-m coefficient carries a
deformation weight w(m) divided by the factorial analogue {m}!:

* exp:   all m,       sign +1
* sin:   m = 2j+1,    sign (-1)^j         sinh: same without signs
* cos:   m = 2j,      sign (-1)^j         cosh: same without signs

With power weights w(m) = u^T(m) these are the one-parameter functions;
the multinomial, deformed-zero and binomial-combination variants swap in
another weight family and share one path, :func:`weighted_fn_series` and
:func:`weighted_fn_value`.  tan/sec (and tanh/sech) are series quotients;
cot/csc/coth/csch have a pole at 0 and exist as values only.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .deformed import (
    DeformedZeroWeights,
    MultinomialWeights,
    PowerWeights,
    Weights,
    deformed_row,
    row_value,
)
from .errors import (
    DivisionByZeroValue,
    NegativeNormalizer,
    NoRootFound,
    PoleAtOrigin,
    SeriesDiverging,
    VanishingFactor,
)
from .scalars import (
    Backend,
    LucasParams,
    Scalar,
    backend_one,
    backend_zero,
    common_backend,
    magnitude,
)
from .series import TruncatedSeries, TruncatedSeries2


class FnKind(str, enum.Enum):
    EXP = "exp"
    SIN = "sin"
    COS = "cos"
    TAN = "tan"
    COT = "cot"
    SEC = "sec"
    CSC = "csc"
    SINH = "sinh"
    COSH = "cosh"
    TANH = "tanh"
    COTH = "coth"
    SECH = "sech"
    CSCH = "csch"


# primary kinds: (first degree, degree step, alternating sign?)
_PRIMARY = {
    FnKind.EXP: (0, 1, False),
    FnKind.SIN: (1, 2, True),
    FnKind.COS: (0, 2, True),
    FnKind.SINH: (1, 2, False),
    FnKind.COSH: (0, 2, False),
}

# quotient kinds expressed over the primary ones: (numerator, denominator)
_QUOTIENTS = {
    FnKind.TAN: (FnKind.SIN, FnKind.COS),
    FnKind.COT: (FnKind.COS, FnKind.SIN),
    FnKind.SEC: (None, FnKind.COS),
    FnKind.CSC: (None, FnKind.SIN),
    FnKind.TANH: (FnKind.SINH, FnKind.COSH),
    FnKind.COTH: (FnKind.COSH, FnKind.SINH),
    FnKind.SECH: (None, FnKind.COSH),
    FnKind.CSCH: (None, FnKind.SINH),
}

#: kinds whose series expansion exists: the primary kinds and the quotients over
#: a denominator that starts at degree 0 (one over sin or sinh has a pole at the origin)
SERIES_KINDS = set(_PRIMARY) | {
    kind for kind, (_, denominator) in _QUOTIENTS.items() if _PRIMARY[denominator][0] == 0
}

_GROWTH_LIMIT = 8
_SMALL_RUN = 3
_MAX_VALUE_TERMS = 512

# find_pi_u: scan step, bisection width, and the most scan points one call takes
_PI_SCAN_STEP = 0.05
_PI_BISECT_TOL = 1e-13
_PI_MAX_SCAN_POINTS = 100_000


@dataclass(frozen=True)
class EvalInfo:
    """Adaptive evaluation result with the number of series terms consumed."""

    value: Scalar
    terms_used: int


def _adaptive_sum(terms, eps: float) -> EvalInfo:
    """Sum terms until three consecutive magnitudes drop below eps * scale.

    scale is the running maximum magnitude of the partial sums.  Eight
    consecutive strictly growing term magnitudes raise SeriesDiverging, as
    do exhausting the term budget, a non-finite term or partial sum, and an
    OverflowError while drawing a term (float powers of a large u or x).
    """
    inf = math.inf
    total = None
    scale = 0.0
    small_run = 0
    grow_run = 0
    prev_mag = inf  # the first term never counts as growth
    count = 0
    try:
        for term in terms:
            count += 1
            total = term if total is None else total + term
            mag = magnitude(term)
            total_mag = magnitude(total)
            if not (mag < inf and total_mag < inf):  # inf or NaN: every later term looks small
                raise SeriesDiverging("non-finite term or partial sum encountered")
            if total_mag > scale:
                scale = total_mag
            tol = eps * scale
            if mag <= tol:
                small_run += 1
                if small_run >= _SMALL_RUN:
                    return EvalInfo(total, count)
            else:
                small_run = 0
            if mag > prev_mag and mag > tol:
                grow_run += 1
                if grow_run >= _GROWTH_LIMIT:
                    raise SeriesDiverging(
                        f"terms grew for {_GROWTH_LIMIT} consecutive orders"
                    )
            else:
                grow_run = 0
            prev_mag = mag
            if count >= _MAX_VALUE_TERMS:
                raise SeriesDiverging("series did not settle within the term budget")
    except OverflowError:
        raise SeriesDiverging("non-finite term or partial sum encountered") from None
    return EvalInfo(total, count)


def weighted_fn_series(
    kind: FnKind, weights: Weights, params: LucasParams, order: int
) -> TruncatedSeries:
    """Series of a kind with an arbitrary weight family.

    Quotient kinds multiply the numerator series by the reciprocal of the
    denominator series, both with the same weights.
    """
    if kind not in SERIES_KINDS:
        raise PoleAtOrigin(f"{kind.value} has a pole at 0; evaluate it pointwise instead")
    common_backend(weights(0), params.s)
    if kind in _QUOTIENTS:
        numerator, denominator = _QUOTIENTS[kind]
        recip = weighted_fn_series(denominator, weights, params, order).reciprocal()
        if numerator is None:
            return recip
        return weighted_fn_series(numerator, weights, params, order) * recip
    first, step, alternating = _PRIMARY[kind]
    coeffs = [backend_zero(params.backend)] * (order + 1)
    for j, m in enumerate(range(first, order + 1, step)):
        c = weights(m) / params.cache.factorial(m)
        coeffs[m] = -c if alternating and j % 2 else c
    return TruncatedSeries(coeffs, params.backend)


def fn_series(kind: FnKind, u: Scalar, params: LucasParams, order: int) -> TruncatedSeries:
    """Power-series expansion of a one-parameter function family member.

    The u = 0 limits come out of the same formula via the 0^0 = 1
    convention: only the degree 0 and 1 weights survive.
    """
    return weighted_fn_series(kind, PowerWeights(u), params, order)


def _primary_value_terms(kind: FnKind, x: Scalar, u: Scalar, params: LucasParams):
    """Incremental term generator; consecutive-term ratios avoid huge powers.

    At x = 0 every term after the first vanishes, so only the first is drawn:
    the ratios that would follow can overflow a float power of u or meet a
    vanishing {k}.
    """
    seq = params.cache.u
    one = backend_one(params.backend)
    first, _, alternating = _PRIMARY[kind]
    term = x if first == 1 else one
    if x == 0:
        yield term
        return
    if kind is FnKind.EXP:
        u_pow = one
        for n in itertools.count(1):
            yield term
            d = seq(n)
            if d == 0:
                raise VanishingFactor(n)
            term = term * u_pow * x / d
            u_pow = u_pow * u
    xx = x * x
    for m in itertools.count(first, 2):
        yield term
        d1 = seq(m + 1)
        if d1 == 0:
            raise VanishingFactor(m + 1)
        d2 = seq(m + 2)
        if d2 == 0:
            raise VanishingFactor(m + 2)
        factor = xx / (d1 * d2) * u ** (2 * m + 1)
        term = term * (-factor if alternating else factor)


def _weighted_terms(kind: FnKind, weights: Weights, x: Scalar, params: LucasParams):
    """Terms w(m) x^m / {m}! of a primary kind, signed per its pattern.

    At x = 0 every term after the first vanishes, so only the first is drawn,
    as in :func:`_primary_value_terms`: a later weight can overflow a float
    power of a large deformation or meet a vanishing {k}.
    """
    first, step, alternating = _PRIMARY[kind]
    x_pow, x_step = x**first, x**step
    degrees = itertools.count(first, step) if x != 0 else (first,)
    for j, m in enumerate(degrees):
        term = weights(m) * x_pow / params.cache.factorial(m)
        yield -term if alternating and j % 2 else term
        x_pow = x_pow * x_step


def _value_info(kind: FnKind, terms: Callable, eps: float, *args) -> EvalInfo:
    """Adaptive value of any kind from the term generator ``terms(primary kind, *args)``.

    A quotient kind sums its denominator first, and a zero one raises
    DivisionByZeroValue, as does a float quotient that is not finite (a
    denominator so small that the quotient overflows); a missing numerator
    is 1.  The terms of both parts add up.
    """
    if kind in _PRIMARY:
        return _adaptive_sum(terms(kind, *args), eps)
    numerator, denominator = _QUOTIENTS[kind]
    den = _adaptive_sum(terms(denominator, *args), eps)
    if den.value == 0:
        raise DivisionByZeroValue(f"{denominator.value} vanished in a quotient")
    if numerator is None:
        value, used = 1 / den.value, den.terms_used
    else:
        num = _adaptive_sum(terms(numerator, *args), eps)
        value, used = num.value / den.value, num.terms_used + den.terms_used
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise DivisionByZeroValue(f"{kind.value} is not finite: {denominator.value} is too small")
    return EvalInfo(value, used)


def fn_value_info(
    kind: FnKind, x: Scalar, u: Scalar, params: LucasParams, eps: float = 1e-12
) -> EvalInfo:
    """Adaptive point evaluation, reporting the value and terms consumed."""
    common_backend(x, u, params.s)
    return _value_info(kind, _primary_value_terms, eps, x, u, params)


def fn_value(kind: FnKind, x: Scalar, u: Scalar, params: LucasParams, eps: float = 1e-12) -> Scalar:
    return fn_value_info(kind, x, u, params, eps).value


def weighted_fn_value(
    kind: FnKind, weights: Weights, x: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    """Adaptive evaluation of any kind with an arbitrary weight family at a point.

    The point and the weights' degree-0 value must share the parameters' backend.
    """
    common_backend(x, weights(0), params.s)
    return _value_info(kind, _weighted_terms, eps, weights, x, params).value


def multinomial_series(
    kind: FnKind, us: Sequence[Scalar], params: LucasParams, order: int
) -> TruncatedSeries:
    return weighted_fn_series(kind, MultinomialWeights(tuple(us), params), params, order)


def multinomial_value(
    kind: FnKind, us: Sequence[Scalar], x: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    """Point value of the multinomial-weighted family member."""
    return weighted_fn_value(kind, MultinomialWeights(tuple(us), params), x, params, eps)


def deformed_zero_series(
    kind: FnKind, u: Scalar, v: Scalar, params: LucasParams, order: int
) -> TruncatedSeries:
    return weighted_fn_series(kind, DeformedZeroWeights(u, v, params), params, order)


def deformed_zero_value(
    kind: FnKind, u: Scalar, v: Scalar, x: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    return weighted_fn_value(kind, DeformedZeroWeights(u, v, params), x, params, eps)


def binomial_series2(
    kind: FnKind, u: Scalar, v: Scalar, params: LucasParams, order: int
) -> TruncatedSeries2:
    """Bivariate series built from the deformed powers of (x, y).

    Entry (n-k, k) is ±C(n,k) u^T(n-k) v^T(k) / {n}!: row n is the deformed
    row scaled by ±1/{n}!.
    """
    if kind not in _PRIMARY:
        raise PoleAtOrigin(f"{kind.value} has no bivariate series form")
    common_backend(u, v, params.s)
    first, step, alternating = _PRIMARY[kind]
    # every row reads its weights entry by entry: list lookups cost less than PowerWeights calls
    u_weights = list(map(PowerWeights(u), range(order + 1))).__getitem__
    v_weights = list(map(PowerWeights(v), range(order + 1))).__getitem__
    out: dict[tuple[int, int], Scalar] = {}
    for j, n in enumerate(range(first, order + 1, step)):
        fact = params.cache.factorial(n)
        scale = -1 / fact if alternating and j % 2 else 1 / fact
        for k, c in enumerate(deformed_row(n, u_weights, v_weights, params, scale)):
            out[(n - k, k)] = c
    return TruncatedSeries2(out, order, params.backend)


def weighted_binomial_value(
    kind: FnKind,
    x_weights: Weights,
    y_weights: Weights,
    x: Scalar,
    y: Scalar,
    params: LucasParams,
    eps: float = 1e-12,
) -> Scalar:
    """Point value of a binomial combination with weight families on both slots.

    This is the weighted family at 1 whose degree-N weight is the sum over k
    of C(N,k) xw(N-k) yw(k) x^(N-k) y^k.  The points and the weights' degree-0
    values must share the parameters' backend.
    """
    common_backend(x, y, x_weights(0), y_weights(0), params.s)

    def weights(n: int) -> Scalar:
        return row_value(n, x_weights, y_weights, x, y, params)

    return weighted_fn_value(kind, weights, backend_one(params.backend), params, eps)


def binomial_value(
    kind: FnKind,
    x: Scalar,
    y: Scalar,
    u: Scalar,
    v: Scalar,
    params: LucasParams,
    eps: float = 1e-12,
) -> Scalar:
    """Point value of the two-deformation binomial combination of (x, y)."""
    return weighted_binomial_value(kind, PowerWeights(u), PowerWeights(v), x, y, params, eps)


_TILDE_KINDS = {FnKind.SIN, FnKind.COS, FnKind.SEC, FnKind.CSC, FnKind.TAN, FnKind.COT}


def tilde_value(
    kind: FnKind, x: Scalar, u: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    """Normalized trigonometric value; sin and cos are divided by the square
    root of the deformed-zero cosine, sec and csc multiplied by it, and
    tan and cot pass through unchanged.

    Restricted to the float backend with a positive normalizer.
    """
    if kind not in _TILDE_KINDS:
        raise ValueError(f"no normalized form for {kind.value}")
    if params.backend is not Backend.COMPLEX:
        raise NegativeNormalizer("normalized functions run on the float backend")
    if kind in (FnKind.TAN, FnKind.COT):
        return fn_value(kind, x, u, params, eps)
    normalizer = deformed_zero_value(FnKind.COS, u, u, x, params, eps)
    if isinstance(normalizer, complex) or normalizer <= 0:
        raise NegativeNormalizer(f"deformed-zero cosine at {x} is {normalizer}")
    root = normalizer**0.5
    value = fn_value(kind, x, u, params, eps)
    return value / root if kind in _PRIMARY else value * root


@dataclass(frozen=True)
class PiU:
    """First positive zero of the sine family member, with its residual."""

    params: LucasParams
    u: Scalar
    value: float
    residual: float


def find_pi_u(params: LucasParams, u: Scalar, x_max: float = 10.0) -> PiU:
    """Scan (0, x_max] in steps of 0.05 for the first sign change of sin and
    bisect it to a width of 1e-13.

    Raises NoRootFound when no sign change appears before x_max or before
    the series starts diverging, and ValueError for an x_max past the scan
    cap of 100,000 points (5,000).
    """
    if params.backend is not Backend.COMPLEX:
        raise NoRootFound("root scanning runs on the float backend")
    if x_max > _PI_MAX_SCAN_POINTS * _PI_SCAN_STEP:
        raise ValueError(f"x_max {x_max:g} is past the scan cap {_PI_MAX_SCAN_POINTS * _PI_SCAN_STEP:g}")

    def s(x: float) -> float:
        return fn_value(FnKind.SIN, x, u, params)

    prev_x = prev_val = None
    x = _PI_SCAN_STEP
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
        x += _PI_SCAN_STEP
    else:
        raise NoRootFound(f"no sign change of sin on (0, {x_max}]")
    lo, hi, f_lo = prev_x, x, prev_val
    while hi - lo > _PI_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = s(mid)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return PiU(params, u, root, abs(s(root)))
