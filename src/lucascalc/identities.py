"""Declarative catalog of the library's verifiable identities.

Each record pairs a mathematical statement with a deterministic check:
exact checks compare truncated series coefficient-for-coefficient over
exact backends (sampled rational root pairs, zero tolerance); numeric
checks compare point evaluations against an independent route within a
stated tolerance.  ``run_suite`` executes any selection reproducibly
from a seed and reports per-identity outcomes with counterexample
parameters on failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

from .calculus import (
    antiderivative_series,
    antiderivative_series2,
    derivative_series,
    derivative_series2,
    derivative_value,
    integral_value,
    integration_by_parts_residual,
)
from .deformed import (
    DeformedPowerWeights,
    MultinomialWeights,
    PowerWeights,
    deformed_power_coeffs,
    deformed_power_value,
)
from .errors import (
    DivisionByZeroValue,
    NegativeNormalizer,
    NoRootFound,
    SeriesDiverging,
    UnknownIdentityId,
)
from .functions import (
    FnKind,
    binomial_series2,
    binomial_value,
    deformed_zero_series,
    deformed_zero_value,
    find_pi_u,
    fn_series,
    fn_value,
    multinomial_series,
    multinomial_value,
    tilde_value,
    weighted_binomial_value,
    weighted_fn_series,
    weighted_fn_value,
)
from .scalars import (
    Backend,
    GAUSSIAN_I,
    GaussianRational,
    LucasParams,
    Scalar,
    binom2,
    lucas_u,
    lucasnomial,
    magnitude,
    make_params,
    params_from_roots,
    promote_params,
)
from .series import TruncatedSeries, TruncatedSeries2, outer

UNIVARIATE_ORDER = 16
BIVARIATE_ORDER = 12
NUMERIC_TOL = 1e-10
PI_TOL = 1e-8
QUOTIENT_TOL = 1e-8
INTEGRAL_TOL = 1e-9

SERIES_EXACT = "series-exact"
BIVARIATE_EXACT = "bivariate-exact"
NUMERIC = "numeric-residual"

EXP, SIN, COS, TAN, COT = FnKind.EXP, FnKind.SIN, FnKind.COS, FnKind.TAN, FnKind.COT
SEC, CSC = FnKind.SEC, FnKind.CSC
SINH, COSH, TANH = FnKind.SINH, FnKind.COSH, FnKind.TANH

_RETRIES = 300


@dataclass(frozen=True)
class Failure:
    """Reproducible counterexample: sampled parameters and both sides."""

    params: dict
    lhs: str
    rhs: str
    delta: Optional[float]

    def to_dict(self):
        return {"params": self.params, "lhs": self.lhs, "rhs": self.rhs, "delta": self.delta}


CheckFn = Callable[[random.Random, int], Optional[Failure]]


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    group: str
    anchor: str
    check_kind: str
    sampler: str
    tolerance: Optional[float]
    fn: CheckFn


CATALOG: dict[str, IdentityRecord] = {}


def _identity(id: str, group: str, anchor: str, kind: str, sampler: str, tolerance=None):
    def wrap(fn: CheckFn):
        if id in CATALOG:
            raise ValueError(f"duplicate identity id {id}")
        CATALOG[id] = IdentityRecord(id, group, anchor, kind, sampler, tolerance, fn)
        return fn

    return wrap


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------


def _frac(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(1, span) * rng.choice((-1, 1)), rng.randint(1, span))


def _root_params(rng: random.Random) -> LucasParams:
    while True:
        a, b = _frac(rng), _frac(rng)
        if a == b or a + b == 0:
            continue
        return params_from_roots(a, b)


def _gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(_frac(rng), _frac(rng))


def _gauss_params(rng: random.Random) -> LucasParams:
    return promote_params(_root_params(rng), Backend.GAUSSIAN)


def _float_params(
    rng: random.Random, ratio_max: float = 0.85, phi_min: float = 1.05, phi_max: float = 3.0
) -> LucasParams:
    while True:
        phi = rng.uniform(phi_min, phi_max) * rng.choice((-1.0, 1.0))
        psi = rng.uniform(0.08, ratio_max) * abs(phi) * rng.choice((-1.0, 1.0))
        if abs(phi + psi) < 0.05 or abs(phi * psi) < 0.02:
            continue
        return params_from_roots(phi, psi)


def _float_u(rng: random.Random, params: LucasParams, cap: float = 0.8, lo: float = 0.05) -> float:
    phi_mag = abs(params.phi)
    return rng.uniform(lo, cap * phi_mag) * rng.choice((-1.0, 1.0))


def _x(rng: random.Random, lo: float = 0.05, hi: float = 0.5) -> float:
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def _poly_series(rng: random.Random, degree: int, order: int) -> TruncatedSeries:
    coeffs = [_frac(rng) if n <= degree else Fraction(0) for n in range(order + 1)]
    return TruncatedSeries(coeffs, Backend.RATIONAL)


def _poly_fn(coeffs: Sequence[float]):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return f


@lru_cache(maxsize=512)
def _multi_weights(us: tuple, params: LucasParams) -> MultinomialWeights:
    return MultinomialWeights(us, params)


@lru_cache(maxsize=256)
def _pi_root(params: LucasParams, u: float):
    return find_pi_u(params, u)


# --------------------------------------------------------------------------
# comparison helpers
# --------------------------------------------------------------------------


def _series_check(lhs: TruncatedSeries, rhs: TruncatedSeries, ctx: dict) -> Optional[Failure]:
    if lhs == rhs:
        return None
    common = min(lhs.order, rhs.order)
    for n in range(common + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return Failure(ctx, f"coeff[{n}]={lhs.coeffs[n]}", f"coeff[{n}]={rhs.coeffs[n]}", None)
    return Failure(ctx, repr(lhs), repr(rhs), None)


def _series2_check(lhs: TruncatedSeries2, rhs: TruncatedSeries2, ctx: dict) -> Optional[Failure]:
    if lhs == rhs:
        return None
    common = min(lhs.order, rhs.order)
    keys = {k for k in (*lhs.coeffs, *rhs.coeffs) if sum(k) <= common}
    for key in sorted(keys):
        a, b = lhs.coefficient(*key), rhs.coefficient(*key)
        if a != b:
            return Failure(ctx, f"coeff[{key}]={a}", f"coeff[{key}]={b}", None)
    return Failure(ctx, repr(lhs), repr(rhs), None)


def _tuple_check(lhs: Sequence, rhs: Sequence, ctx: dict) -> Optional[Failure]:
    for n, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            return Failure(ctx, f"coeff[{n}]={a}", f"coeff[{n}]={b}", None)
    if len(lhs) != len(rhs):
        return Failure(ctx, f"len={len(lhs)}", f"len={len(rhs)}", None)
    return None


def _close(lhs: Scalar, rhs: Scalar, tol: float, ctx: dict) -> Optional[Failure]:
    delta = magnitude(lhs - rhs)
    scale = max(1.0, magnitude(lhs), magnitude(rhs))
    if delta <= tol * scale:
        return None
    return Failure(ctx, str(lhs), str(rhs), delta)


def _exhausted(name: str) -> Failure:
    return Failure({}, f"sampler for {name}", "no admissible draw found", None)


def _ctx(**kwargs) -> dict:
    return {key: str(value) for key, value in kwargs.items()}


def _deformed_series2(
    n: int,
    u: Scalar,
    v: Scalar,
    params: LucasParams,
    x_scale: Optional[Scalar] = None,
    y_scale: Optional[Scalar] = None,
    minus: bool = False,
) -> TruncatedSeries2:
    """Degree-n deformed power as a bivariate polynomial, with optionally
    scaled slots (x -> x_scale x, y -> y_scale y) or a negated second slot."""
    row = deformed_power_coeffs(n, u, v, params).coeffs
    entries = {}
    for k, c in enumerate(row):
        value = c
        if minus and k % 2 == 1:
            value = -value
        if x_scale is not None:
            value = value * x_scale ** (n - k)
        if y_scale is not None:
            value = value * y_scale**k
        entries[(n - k, k)] = value
    return TruncatedSeries2(entries, n, params.backend)


# --------------------------------------------------------------------------
# sequence-level identities
# --------------------------------------------------------------------------


@_identity(
    "pascal-1",
    "pascal",
    "C(n+1,k) = phi^k C(n,k) + phi'^(n+1-k) C(n,k-1)",
    SERIES_EXACT,
    "rational-roots",
)
def _pascal_1(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    n = rng.randint(2, 12)
    k = rng.randint(1, n - 1)
    lhs = lucasnomial(n + 1, k, params)
    rhs = phi**k * lucasnomial(n, k, params) + psi ** (n + 1 - k) * lucasnomial(n, k - 1, params)
    ctx = _ctx(phi=phi, phi_prime=psi, n=n, k=k)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "pascal-2",
    "pascal",
    "C(n+1,k) = phi'^k C(n,k) + phi^(n+1-k) C(n,k-1)",
    SERIES_EXACT,
    "rational-roots",
)
def _pascal_2(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    n = rng.randint(2, 12)
    k = rng.randint(1, n - 1)
    lhs = lucasnomial(n + 1, k, params)
    rhs = psi**k * lucasnomial(n, k, params) + phi ** (n + 1 - k) * lucasnomial(n, k - 1, params)
    ctx = _ctx(phi=phi, phi_prime=psi, n=n, k=k)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


# --------------------------------------------------------------------------
# deformed binomial identities
# --------------------------------------------------------------------------


@_identity(
    "binom-neg-even",
    "binom-neg",
    "power(2n; -u,-v) = (-1)^n minus-power(2n; u,v)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_neg_even(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(0, 8)
    lhs = deformed_power_coeffs(2 * n, -u, -v, params).coeffs
    base = deformed_power_coeffs(2 * n, u, v, params).coeffs
    sign = 1 if n % 2 == 0 else -1
    rhs = tuple(c * sign * (-1) ** k for k, c in enumerate(base))
    return _tuple_check(lhs, rhs, _ctx(params=params, u=u, v=v, n=n))


@_identity(
    "binom-neg-odd",
    "binom-neg",
    "power(2n+1; -u,-v) = (-1)^n power(2n+1; u,v)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_neg_odd(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(0, 8)
    lhs = deformed_power_coeffs(2 * n + 1, -u, -v, params).coeffs
    base = deformed_power_coeffs(2 * n + 1, u, v, params).coeffs
    sign = 1 if n % 2 == 0 else -1
    rhs = tuple(c * sign for c in base)
    return _tuple_check(lhs, rhs, _ctx(params=params, u=u, v=v, n=n))


@_identity(
    "binom-props-1",
    "binom-props",
    "power(n+1; x,y) = x power(n; ux, phi y) + y power(n; phi' x, vy)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_props_1(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    u, v, x, y = (_frac(rng) for _ in range(4))
    n = rng.randint(0, 8)
    lhs = deformed_power_value(n + 1, x, y, u, v, params)
    rhs = x * deformed_power_value(n, u * x, phi * y, u, v, params) + y * deformed_power_value(
        n, psi * x, v * y, u, v, params
    )
    ctx = _ctx(params=params, u=u, v=v, x=x, y=y, n=n)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "binom-props-2",
    "binom-props",
    "power(n+1; x,y) = x power(n; ux, phi' y) + y power(n; phi x, vy)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_props_2(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    u, v, x, y = (_frac(rng) for _ in range(4))
    n = rng.randint(0, 8)
    lhs = deformed_power_value(n + 1, x, y, u, v, params)
    rhs = x * deformed_power_value(n, u * x, psi * y, u, v, params) + y * deformed_power_value(
        n, phi * x, v * y, u, v, params
    )
    ctx = _ctx(params=params, u=u, v=v, x=x, y=y, n=n)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "binom-props-3",
    "binom-props",
    "power(n; x,y; au,av) over (as, a^2 t) = a^T(n) power(n; x,y; u,v) over (s,t)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_props_3(rng, order):
    # Scaling the deformation pair alone changes interior coefficients by
    # a^(-k(n-k)); the identity is exact when the sequence parameters scale
    # along with it, (s,t) -> (as, a^2 t), which multiplies the binomial
    # analogue C(n,k) by exactly a^(k(n-k)).
    params = _root_params(rng)
    u, v, x, y, a = (_frac(rng) for _ in range(5))
    n = rng.randint(0, 8)
    scaled = make_params(a * params.s, a * a * params.t)
    lhs = deformed_power_value(n, x, y, a * u, a * v, scaled)
    rhs = a ** binom2(n) * deformed_power_value(n, x, y, u, v, params)
    ctx = _ctx(params=params, u=u, v=v, x=x, y=y, a=a, n=n)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "binom-props-4",
    "binom-props",
    "power(n; x,y; u,v) = power(n; y,x; v,u)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_props_4(rng, order):
    params = _root_params(rng)
    u, v, x, y = (_frac(rng) for _ in range(4))
    n = rng.randint(0, 8)
    lhs = deformed_power_value(n, x, y, u, v, params)
    rhs = deformed_power_value(n, y, x, v, u, params)
    ctx = _ctx(params=params, u=u, v=v, x=x, y=y, n=n)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "binom-props-5",
    "binom-props",
    "z^n power(n; x,y) = power(n; zx, zy)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_props_5(rng, order):
    params = _root_params(rng)
    u, v, x, y, z = (_frac(rng) for _ in range(5))
    n = rng.randint(0, 8)
    lhs = z**n * deformed_power_value(n, x, y, u, v, params)
    rhs = deformed_power_value(n, z * x, z * y, u, v, params)
    ctx = _ctx(params=params, u=u, v=v, x=x, y=y, z=z, n=n)
    return None if lhs == rhs else Failure(ctx, str(lhs), str(rhs), None)


@_identity(
    "binom-derivative-1",
    "binom-derivative",
    "D_x power(n; x,a) = {n} power(n-1; ux, a)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_derivative_1(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(1, 8)
    P = _deformed_series2(n, u, v, params)
    lhs = derivative_series2(P, params, var=0)
    rhs = _deformed_series2(n - 1, u, v, params, x_scale=u).scale(lucas_u(n, params))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, n=n))


@_identity(
    "binom-derivative-2",
    "binom-derivative",
    "D_y power(n; a,y) = {n} power(n-1; a, vy)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_derivative_2(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(1, 8)
    P = _deformed_series2(n, u, v, params)
    lhs = derivative_series2(P, params, var=1)
    rhs = _deformed_series2(n - 1, u, v, params, y_scale=v).scale(lucas_u(n, params))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, n=n))


@_identity(
    "binom-derivative-3",
    "binom-derivative",
    "D_y minus-power(n; a,y) = -{n} minus-power(n-1; a, vy)",
    SERIES_EXACT,
    "rational-roots",
)
def _binom_derivative_3(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(1, 8)
    P = _deformed_series2(n, u, v, params, minus=True)
    lhs = derivative_series2(P, params, var=1)
    rhs = _deformed_series2(n - 1, u, v, params, y_scale=v, minus=True).scale(-lucas_u(n, params))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, n=n))


# --------------------------------------------------------------------------
# exponential identities
# --------------------------------------------------------------------------


@_identity(
    "exp-pantograph-ode",
    "exp-pantograph",
    "D exp(z,u) = exp(uz,u): the proportional-delay equation",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_ode(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    e = fn_series(EXP, u, params, order)
    lhs = derivative_series(e, params)
    rhs = e.dilate(u)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "exp-dk",
    "exp-dk",
    "D^k exp(az,u) = a^k u^T(k) exp(a u^k z, u)",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_dk(rng, order):
    params = _root_params(rng)
    u, a = _frac(rng), _frac(rng)
    k = rng.randint(1, 4)
    e = fn_series(EXP, u, params, order)
    lhs = e.dilate(a)
    for _ in range(k):
        lhs = derivative_series(lhs, params)
    rhs = e.dilate(a * u**k).scale(a**k * u ** binom2(k))
    return _series_check(lhs, rhs, _ctx(params=params, u=u, a=a, k=k))


@_identity(
    "exp-product",
    "exp-product",
    "exp of the binomial combination equals exp(x,u) exp(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_product(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(EXP, u, v, params, border)
    rhs = outer(fn_series(EXP, u, params, border), fn_series(EXP, v, params, border))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "exp-recip-pair",
    "exp-recip",
    "exp(z,phi) exp(-z,phi') = 1",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_recip_pair(rng, order):
    params = _root_params(rng)
    one = TruncatedSeries.constant(Fraction(1), order)
    lhs = fn_series(EXP, params.phi, params, order) * fn_series(
        EXP, params.phi_prime, params, order
    ).dilate(Fraction(-1))
    return _series_check(lhs, one, _ctx(params=params))


@_identity(
    "exp-recip-general",
    "exp-recip",
    "exp(-x,u) exp(x,v) = deformed-zero exp series with weights (v,u)",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_recip_general(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = fn_series(EXP, u, params, order).dilate(Fraction(-1)) * fn_series(EXP, v, params, order)
    rhs = deformed_zero_series(EXP, v, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "exp-binom-deriv-1",
    "exp-binom-calculus",
    "D_x exp(ax (+) c) = a exp(aux (+) c)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_binom_deriv_1(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v, a = _frac(rng), _frac(rng), _frac(rng)
    one = Fraction(1)
    F = binomial_series2(EXP, u, v, params, border)
    lhs = derivative_series2(F.dilate(a, one), params, var=0)
    rhs = F.dilate(a * u, one).scale(a)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, a=a))


@_identity(
    "exp-binom-deriv-2",
    "exp-binom-calculus",
    "D_y exp(a (+) cy) = c exp(a (+) cvy)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_binom_deriv_2(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v, c = _frac(rng), _frac(rng), _frac(rng)
    one = Fraction(1)
    F = binomial_series2(EXP, u, v, params, border)
    lhs = derivative_series2(F.dilate(one, c), params, var=1)
    rhs = F.dilate(one, c * v).scale(c)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, c=c))


def _strip_slice(F: TruncatedSeries2, var: int) -> TruncatedSeries2:
    keep = {key: val for key, val in F.coeffs.items() if key[var] != 0}
    return TruncatedSeries2(keep, F.order, F.backend)


@_identity(
    "exp-binom-int-1",
    "exp-binom-calculus",
    "int exp(ax (+) c) dx = (u/a)[exp((a/u)x (+) c) minus its x-constant slice]",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_binom_int_1(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v, a = _frac(rng), _frac(rng), _frac(rng)
    one = Fraction(1)
    F = binomial_series2(EXP, u, v, params, border)
    lhs = antiderivative_series2(F.dilate(a, one), params, var=0)
    G = binomial_series2(EXP, u, v, params, border + 1).dilate(a / u, one)
    rhs = _strip_slice(G, 0).scale(u / a)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, a=a))


@_identity(
    "exp-binom-int-2",
    "exp-binom-calculus",
    "int exp(a (+) cy) dy = (v/c)[exp(a (+) (c/v)y) minus its y-constant slice]",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_binom_int_2(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v, c = _frac(rng), _frac(rng), _frac(rng)
    one = Fraction(1)
    F = binomial_series2(EXP, u, v, params, border)
    lhs = antiderivative_series2(F.dilate(one, c), params, var=1)
    G = binomial_series2(EXP, u, v, params, border + 1).dilate(one, c / v)
    rhs = _strip_slice(G, 1).scale(v / c)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v, c=c))


@_identity(
    "exp-alpha-beta-functional",
    "exp-alpha-beta",
    "D f = alpha f(phi x) + beta f(phi' x) for the weighted-pair exp series",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_alpha_beta_functional(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    u, v, alpha, beta = (_frac(rng) for _ in range(4))
    ctx = _ctx(params=params, u=u, v=v, alpha=alpha, beta=beta)
    # general splitting of the weight recurrence
    S = weighted_fn_series(EXP, DeformedPowerWeights(alpha, beta, u, v, params), params, order)
    lhs = derivative_series(S, params)
    rhs = weighted_fn_series(
        EXP, DeformedPowerWeights(alpha * u, beta * phi, u, v, params), params, order
    ).scale(alpha) + weighted_fn_series(
        EXP, DeformedPowerWeights(alpha * psi, beta * v, u, v, params), params, order
    ).scale(beta)
    failure = _series_check(lhs, rhs, ctx)
    if failure is not None:
        return failure
    # root deformations solve the proportional functional equation
    S2 = weighted_fn_series(EXP, DeformedPowerWeights(alpha, beta, phi, psi, params), params, order)
    lhs2 = derivative_series(S2, params)
    rhs2 = S2.dilate(phi).scale(alpha) + S2.dilate(psi).scale(beta)
    return _series_check(lhs2, rhs2, ctx)


@_identity(
    "exp-alpha-beta-integral",
    "exp-alpha-beta",
    "int exp((alpha (+) beta)x) = phi phi'/(alpha phi' + beta phi) exp((alpha/phi (+) beta/phi')x) + C",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)
def _exp_alpha_beta_integral(rng, order):
    # Constant follows from solving I = (phi/alpha) E - (phi beta / alpha phi') I
    # for I: the prefactor is phi phi' / (alpha phi' + beta phi).
    for _ in range(_RETRIES):
        params = _float_params(rng, ratio_max=0.8, phi_min=1.1, phi_max=2.5)
        phi, psi = params.phi, params.phi_prime
        alpha = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        beta = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
        denom = alpha * psi + beta * phi
        if abs(denom) < 0.05 * (abs(alpha * psi) + abs(beta * phi)):
            continue
        b = rng.uniform(0.1, 0.3)
        weights = DeformedPowerWeights(alpha, beta, phi, psi, params)
        closed = DeformedPowerWeights(alpha / phi, beta / psi, phi, psi, params)
        c = phi * psi / denom
        try:
            integral = integral_value(
                lambda x: weighted_fn_value(EXP, weights, x, params), 0.0, b, params, eps=5e-13
            )
            rhs = c * weighted_fn_value(EXP, closed, b, params) - c
        except (SeriesDiverging, DivisionByZeroValue):
            continue
        ctx = _ctx(params=params, alpha=alpha, beta=beta, b=b)
        return _close(integral, rhs, NUMERIC_TOL, ctx)
    return _exhausted("exp-alpha-beta-integral")


@_identity(
    "exp-multinomial-product",
    "exp-multinomial",
    "product of exp(x,u_k) equals the multinomial-weighted exp value",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)
def _exp_multinomial_product(rng, order):
    for _ in range(_RETRIES):
        params = _float_params(rng)
        m = rng.randint(1, 3)
        us = tuple(_float_u(rng, params, cap=0.7) for _ in range(m))
        x = _x(rng)
        try:
            lhs = multinomial_value(EXP, us, x, params, weights=_multi_weights(us, params))
            rhs = 1.0
            for u in us:
                rhs *= fn_value(EXP, x, u, params)
        except SeriesDiverging:
            continue
        return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, us=us, x=x))
    return _exhausted("exp-multinomial-product")


@_identity(
    "exp-antiderivative",
    "exp-antiderivative",
    "antiderivative of exp(z,u) is u exp(z/u, u) minus its constant",
    SERIES_EXACT,
    "rational-roots",
)
def _exp_antiderivative(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    e = fn_series(EXP, u, params, order)
    lhs = antiderivative_series(e, params)
    big = fn_series(EXP, u, params, order + 1).dilate(1 / u).scale(u)
    rhs = big - TruncatedSeries.constant(big.coeffs[0], order + 1)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


# --------------------------------------------------------------------------
# Euler-type identities
# --------------------------------------------------------------------------


@_identity("euler-i", "euler", "exp(iz,u) = cos(z,u) + i sin(z,u)", SERIES_EXACT, "gaussian")
def _euler_i(rng, order):
    params = _gauss_params(rng)
    u = _gauss(rng)
    lhs = fn_series(EXP, u, params, order).dilate(GAUSSIAN_I)
    rhs = fn_series(COS, u, params, order) + fn_series(SIN, u, params, order).scale(GAUSSIAN_I)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("euler-neg", "euler", "exp(z,-u) = cos(z,u) + sin(z,u)", SERIES_EXACT, "rational-roots")
def _euler_neg(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = fn_series(EXP, -u, params, order)
    rhs = fn_series(COS, u, params, order) + fn_series(SIN, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "exp-x-plus-iy-1",
    "exp-x-plus-iy",
    "exp(x (+) iy) = exp(x,u)(cos(y,v) + i sin(y,v))",
    BIVARIATE_EXACT,
    "gaussian",
)
def _exp_x_plus_iy_1(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _gauss_params(rng)
    u, v = _gauss(rng), _gauss(rng)
    one = GaussianRational(1)
    lhs = binomial_series2(EXP, u, v, params, border).dilate(one, GAUSSIAN_I)
    rhs = outer(
        fn_series(EXP, u, params, border),
        fn_series(COS, v, params, border) + fn_series(SIN, v, params, border).scale(GAUSSIAN_I),
    )
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "exp-x-plus-iy-2",
    "exp-x-plus-iy",
    "exp(x (+)_{u,-v} y) = exp(x,u)(cos(y,v) + sin(y,v))",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_x_plus_iy_2(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(EXP, u, -v, params, border)
    rhs = outer(
        fn_series(EXP, u, params, border),
        fn_series(COS, v, params, border) + fn_series(SIN, v, params, border),
    )
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "exp-binom-neg-uv",
    "exp-binom-neg-uv",
    "exp(x (+)_{-u,-v} y) = cos(x (-) y) + sin(x (+) y)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _exp_binom_neg_uv(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    one = Fraction(1)
    lhs = binomial_series2(EXP, -u, -v, params, border)
    rhs = binomial_series2(COS, u, v, params, border).dilate(one, -one) + binomial_series2(
        SIN, u, v, params, border
    )
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "rep-sin",
    "rep",
    "sin(x (+) y) = [exp(ix (+) iy) - exp(-ix (+) -iy)] / 2i",
    BIVARIATE_EXACT,
    "gaussian",
)
def _rep_sin(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _gauss_params(rng)
    u, v = _gauss(rng), _gauss(rng)
    E = binomial_series2(EXP, u, v, params, border)
    i = GAUSSIAN_I
    lhs = binomial_series2(SIN, u, v, params, border)
    rhs = (E.dilate(i, i) - E.dilate(-i, -i)).scale(GaussianRational(1) / (2 * i))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "rep-cos",
    "rep",
    "cos(x (+) y) = [exp(ix (+) iy) + exp(-ix (+) -iy)] / 2",
    BIVARIATE_EXACT,
    "gaussian",
)
def _rep_cos(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _gauss_params(rng)
    u, v = _gauss(rng), _gauss(rng)
    E = binomial_series2(EXP, u, v, params, border)
    i = GAUSSIAN_I
    lhs = binomial_series2(COS, u, v, params, border)
    rhs = (E.dilate(i, i) + E.dilate(-i, -i)).scale(GaussianRational(Fraction(1, 2)))
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


# --------------------------------------------------------------------------
# parity
# --------------------------------------------------------------------------


def _parity_series(kind: FnKind, odd: bool):
    def check(rng, order):
        params = _root_params(rng)
        u = _frac(rng)
        S = fn_series(kind, u, params, order)
        lhs = S.dilate(Fraction(-1))
        rhs = S.scale(Fraction(-1)) if odd else S
        return _series_check(lhs, rhs, _ctx(params=params, u=u))

    return check


def _parity_value(kind: FnKind, odd: bool):
    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            u = _float_u(rng, params)
            x = _x(rng, lo=0.1)
            try:
                lhs = fn_value(kind, -x, u, params)
                rhs = -fn_value(kind, x, u, params) if odd else fn_value(kind, x, u, params)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, u=u, x=x))
        return _exhausted(f"parity {kind.value}")

    return check


_identity("parity-1", "parity", "sin(-z,u) = -sin(z,u)", SERIES_EXACT, "rational-roots")(
    _parity_series(SIN, True)
)
_identity("parity-2", "parity", "cos(-z,u) = cos(z,u)", SERIES_EXACT, "rational-roots")(
    _parity_series(COS, False)
)
_identity("parity-3", "parity", "tan(-z,u) = -tan(z,u)", SERIES_EXACT, "rational-roots")(
    _parity_series(TAN, True)
)
_identity(
    "parity-4", "parity", "cot(-z,u) = -cot(z,u) (odd, from cos/sin)", NUMERIC, "float", NUMERIC_TOL
)(_parity_value(COT, True))
_identity("parity-5", "parity", "sec(-z,u) = sec(z,u)", SERIES_EXACT, "rational-roots")(
    _parity_series(SEC, False)
)
_identity("parity-6", "parity", "csc(-z,u) = -csc(z,u)", NUMERIC, "float", NUMERIC_TOL)(
    _parity_value(CSC, True)
)


# --------------------------------------------------------------------------
# addition theorems
# --------------------------------------------------------------------------


def _addition_series(kind_lhs: FnKind, minus: bool, combo):
    def check(rng, order):
        border = min(order, BIVARIATE_ORDER)
        params = _root_params(rng)
        u, v = _frac(rng), _frac(rng)
        one = Fraction(1)
        lhs = binomial_series2(kind_lhs, u, v, params, border)
        if minus:
            lhs = lhs.dilate(one, -one)
        sin_u = fn_series(SIN, u, params, border)
        cos_u = fn_series(COS, u, params, border)
        sin_v = fn_series(SIN, v, params, border)
        cos_v = fn_series(COS, v, params, border)
        rhs = combo(sin_u, cos_u, sin_v, cos_v)
        return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))

    return check


_identity(
    "add-sin-plus",
    "add-sin",
    "sin(x (+) y) = sin(x,u)cos(y,v) + cos(x,u)sin(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_addition_series(SIN, False, lambda su, cu, sv, cv: outer(su, cv) + outer(cu, sv)))
_identity(
    "add-sin-minus",
    "add-sin",
    "sin(x (-) y) = sin(x,u)cos(y,v) - cos(x,u)sin(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_addition_series(SIN, True, lambda su, cu, sv, cv: outer(su, cv) - outer(cu, sv)))
_identity(
    "add-cos-plus",
    "add-cos",
    "cos(x (+) y) = cos(x,u)cos(y,v) - sin(x,u)sin(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_addition_series(COS, False, lambda su, cu, sv, cv: outer(cu, cv) - outer(su, sv)))
_identity(
    "add-cos-minus",
    "add-cos",
    "cos(x (-) y) = cos(x,u)cos(y,v) + sin(x,u)sin(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_addition_series(COS, True, lambda su, cu, sv, cv: outer(cu, cv) + outer(su, sv)))


def _tan_addition(minus: bool, hyperbolic: bool):
    kind = TANH if hyperbolic else TAN
    sign = -1.0 if minus else 1.0

    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            u, v = _float_u(rng, params, cap=0.7), _float_u(rng, params, cap=0.7)
            x, y = _x(rng), _x(rng)
            try:
                tx = fn_value(kind, x, u, params)
                ty = fn_value(kind, y, v, params)
                if hyperbolic:
                    den = 1.0 + sign * tx * ty
                else:
                    den = 1.0 - sign * tx * ty
                if abs(den) < 0.1:
                    continue
                lhs = binomial_value(kind, x, sign * y, u, v, params)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            rhs = (tx + sign * ty) / den
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, u=u, v=v, x=x, y=y))
        return _exhausted("tangent addition")

    return check


_identity(
    "add-tan-plus",
    "add-tan",
    "tan(x (+) y) = (tan x + tan y) / (1 - tan x tan y)",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_tan_addition(False, False))
_identity(
    "add-tan-minus",
    "add-tan",
    "tan(x (-) y) = (tan x - tan y) / (1 + tan x tan y)",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_tan_addition(True, False))


@_identity(
    "coro4-1",
    "coro4",
    "sin(x,u)cos(x,v) - cos(x,u)sin(x,v) = deformed-zero sine series",
    SERIES_EXACT,
    "rational-roots",
)
def _coro4_1(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    ctx = _ctx(params=params, u=u, v=v)
    lhs = fn_series(SIN, u, params, order) * fn_series(COS, v, params, order) - fn_series(
        COS, u, params, order
    ) * fn_series(SIN, v, params, order)
    rhs = deformed_zero_series(SIN, u, v, params, order)
    failure = _series_check(lhs, rhs, ctx)
    if failure is not None:
        return failure
    # the y = -x diagonal of the bivariate sine is the same series
    diag = binomial_series2(SIN, u, v, params, border).substitute_diagonal(Fraction(-1))
    return _series_check(diag, deformed_zero_series(SIN, u, v, params, border), ctx)


@_identity(
    "coro4-2",
    "coro4",
    "sin(x,phi)cos(x,phi') - cos(x,phi)sin(x,phi') = 0",
    SERIES_EXACT,
    "rational-roots",
)
def _coro4_2(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    lhs = fn_series(SIN, phi, params, order) * fn_series(COS, psi, params, order) - fn_series(
        COS, phi, params, order
    ) * fn_series(SIN, psi, params, order)
    rhs = TruncatedSeries.zero(order, params.backend)
    return _series_check(lhs, rhs, _ctx(params=params))


# --------------------------------------------------------------------------
# Pythagorean identities
# --------------------------------------------------------------------------


@_identity(
    "pytha-1",
    "pytha",
    "sin(x,u)sin(x,v) + cos(x,u)cos(x,v) = deformed-zero cosine series",
    SERIES_EXACT,
    "rational-roots",
)
def _pytha_1(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = fn_series(SIN, u, params, order) * fn_series(SIN, v, params, order) + fn_series(
        COS, u, params, order
    ) * fn_series(COS, v, params, order)
    rhs = deformed_zero_series(COS, u, v, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "pytha-2",
    "pytha",
    "sin^2(x,u) + cos^2(x,u) = deformed-zero cosine series at (u,u)",
    SERIES_EXACT,
    "rational-roots",
)
def _pytha_2(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    s = fn_series(SIN, u, params, order)
    c = fn_series(COS, u, params, order)
    lhs = s * s + c * c
    rhs = deformed_zero_series(COS, u, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "pytha-3",
    "pytha",
    "sin(x,phi)sin(x,phi') + cos(x,phi)cos(x,phi') = 1",
    SERIES_EXACT,
    "rational-roots",
)
def _pytha_3(rng, order):
    params = _root_params(rng)
    phi, psi = params.phi, params.phi_prime
    lhs = fn_series(SIN, phi, params, order) * fn_series(SIN, psi, params, order) + fn_series(
        COS, phi, params, order
    ) * fn_series(COS, psi, params, order)
    rhs = TruncatedSeries.constant(Fraction(1), order)
    return _series_check(lhs, rhs, _ctx(params=params))


def _tilde_pytha(items):
    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            u = _float_u(rng, params, cap=0.7)
            x = _x(rng, lo=0.1)
            try:
                lhs, rhs = items(params, u, x)
            except (SeriesDiverging, DivisionByZeroValue, NegativeNormalizer):
                continue
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, u=u, x=x))
        return _exhausted("tilde pythagorean")

    return check


_identity(
    "tilde-pytha-1", "tilde-pytha", "normalized sin^2 + cos^2 = 1", NUMERIC, "float", NUMERIC_TOL
)(
    _tilde_pytha(
        lambda p, u, x: (tilde_value(SIN, x, u, p) ** 2 + tilde_value(COS, x, u, p) ** 2, 1.0)
    )
)
_identity(
    "tilde-pytha-2",
    "tilde-pytha",
    "normalized tan^2 + 1 = normalized sec^2",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(
    _tilde_pytha(
        lambda p, u, x: (tilde_value(TAN, x, u, p) ** 2 + 1.0, tilde_value(SEC, x, u, p) ** 2)
    )
)
_identity(
    "tilde-pytha-3",
    "tilde-pytha",
    "1 + normalized cot^2 = normalized csc^2",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(
    _tilde_pytha(
        lambda p, u, x: (1.0 + tilde_value(COT, x, u, p) ** 2, tilde_value(CSC, x, u, p) ** 2)
    )
)


# --------------------------------------------------------------------------
# double-angle identities
# --------------------------------------------------------------------------


@_identity(
    "double-angle-1",
    "double-angle",
    "two-part sine series = sin(x,u)cos(x,v) + cos(x,u)sin(x,v)",
    SERIES_EXACT,
    "rational-roots",
)
def _double_angle_1(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = multinomial_series(SIN, (u, v), params, order)
    rhs = fn_series(SIN, u, params, order) * fn_series(COS, v, params, order) + fn_series(
        COS, u, params, order
    ) * fn_series(SIN, v, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "double-angle-2",
    "double-angle",
    "two-part sine series at (u,u) = 2 sin(x,u)cos(x,u)",
    SERIES_EXACT,
    "rational-roots",
)
def _double_angle_2(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = multinomial_series(SIN, (u, u), params, order)
    rhs = (fn_series(SIN, u, params, order) * fn_series(COS, u, params, order)).scale(Fraction(2))
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "double-angle-3",
    "double-angle",
    "two-part cosine series = cos(x,u)cos(x,v) - sin(x,u)sin(x,v)",
    SERIES_EXACT,
    "rational-roots",
)
def _double_angle_3(rng, order):
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = multinomial_series(COS, (u, v), params, order)
    rhs = fn_series(COS, u, params, order) * fn_series(COS, v, params, order) - fn_series(
        SIN, u, params, order
    ) * fn_series(SIN, v, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "double-angle-4",
    "double-angle",
    "two-part cosine series at (u,u) = cos^2 - sin^2",
    SERIES_EXACT,
    "rational-roots",
)
def _double_angle_4(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    s = fn_series(SIN, u, params, order)
    c = fn_series(COS, u, params, order)
    lhs = multinomial_series(COS, (u, u), params, order)
    rhs = c * c - s * s
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


def _double_angle_tan(same_u: bool):
    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            u = _float_u(rng, params, cap=0.7)
            v = u if same_u else _float_u(rng, params, cap=0.7)
            x = _x(rng)
            us = (u, v)
            try:
                weights = _multi_weights(us, params)
                lhs = multinomial_value(TAN, us, x, params, weights=weights)
                tu = fn_value(TAN, x, u, params)
                tv = fn_value(TAN, x, v, params)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            den = 1.0 - tu * tv
            if abs(den) < 0.1:
                continue
            rhs = (tu + tv) / den
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, u=u, v=v, x=x))
        return _exhausted("double-angle tangent")

    return check


_identity(
    "double-angle-5",
    "double-angle",
    "two-part tangent = (tan(x,u) + tan(x,v)) / (1 - tan(x,u)tan(x,v))",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_double_angle_tan(False))
_identity(
    "double-angle-6",
    "double-angle",
    "two-part tangent at (u,u) = 2 tan / (1 - tan^2)",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_double_angle_tan(True))


# --------------------------------------------------------------------------
# multinomial identities
# --------------------------------------------------------------------------


@_identity(
    "multi-euler",
    "multi-euler",
    "exp of multinomial weights at ix = cos + i sin of the same weights",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)
def _multi_euler(rng, order):
    for _ in range(_RETRIES):
        params = _float_params(rng)
        m = rng.randint(1, 3)
        us = tuple(_float_u(rng, params, cap=0.7) for _ in range(m))
        x = _x(rng)
        try:
            weights = _multi_weights(us, params)
            lhs = multinomial_value(EXP, us, complex(0.0, x), params, weights=weights)
            rhs = multinomial_value(COS, us, x, params, weights=weights) + 1j * multinomial_value(
                SIN, us, x, params, weights=weights
            )
        except SeriesDiverging:
            continue
        return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, us=us, x=x))
    return _exhausted("multi-euler")


def _multi_add_n1(item: int):
    # item 1: sin(+), 2: sin(-), 3: cos(+), 4: cos(-)
    kind = SIN if item in (1, 2) else COS
    sign = 1.0 if item in (1, 3) else -1.0

    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            n = rng.randint(1, 3)
            u = _float_u(rng, params, cap=0.7)
            us = (u,) * n
            x, y = _x(rng), _x(rng)
            try:
                weights = _multi_weights(us, params)
                lhs = weighted_binomial_value(kind, weights, PowerWeights(u), x, sign * y, params)
                sm = multinomial_value(SIN, us, x, params, weights=weights)
                cm = multinomial_value(COS, us, x, params, weights=weights)
                sy = fn_value(SIN, y, u, params)
                cy = fn_value(COS, y, u, params)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            if kind is SIN:
                rhs = sm * cy + sign * cm * sy
            else:
                rhs = cm * cy - sign * sm * sy
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, n=n, u=u, x=x, y=y))
        return _exhausted("multinomial addition")

    return check


for _item, _desc in (
    (1, "sin(multi x (+)_{1,u} y) = sin(multi x)cos(y,u) + cos(multi x)sin(y,u)"),
    (2, "sin(multi x (-)_{1,u} y) = sin(multi x)cos(y,u) - cos(multi x)sin(y,u)"),
    (3, "cos(multi x (+)_{1,u} y) = cos(multi x)cos(y,u) - sin(multi x)sin(y,u)"),
    (4, "cos(multi x (-)_{1,u} y) = cos(multi x)cos(y,u) + sin(multi x)sin(y,u)"),
):
    _identity(f"multi-add-n1-{_item}", "multi-add-n1", _desc, NUMERIC, "float", NUMERIC_TOL)(
        _multi_add_n1(_item)
    )


def _multi_add_nm(item: int):
    kind = SIN if item in (1, 2) else COS
    sign = 1.0 if item in (1, 3) else -1.0

    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            n, m = rng.randint(1, 2), rng.randint(1, 2)
            u = _float_u(rng, params, cap=0.7)
            v = _float_u(rng, params, cap=0.7)
            us, vs = (u,) * n, (v,) * m
            x, y = _x(rng), _x(rng)
            try:
                wu = _multi_weights(us, params)
                wv = _multi_weights(vs, params)
                lhs = weighted_binomial_value(kind, wu, wv, x, sign * y, params)
                sn = multinomial_value(SIN, us, x, params, weights=wu)
                cn = multinomial_value(COS, us, x, params, weights=wu)
                sm = multinomial_value(SIN, vs, y, params, weights=wv)
                cm = multinomial_value(COS, vs, y, params, weights=wv)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            if kind is SIN:
                rhs = sn * cm + sign * cn * sm
            else:
                rhs = cn * cm - sign * sn * sm
            return _close(lhs, rhs, NUMERIC_TOL, _ctx(params=params, n=n, m=m, u=u, v=v, x=x, y=y))
        return _exhausted("multinomial pair addition")

    return check


for _item, _desc in (
    (1, "sin(n-multi x (+)_{1,1} m-multi y): sine addition for two weight tuples"),
    (2, "sin(n-multi x (-)_{1,1} m-multi y): sine difference for two weight tuples"),
    (3, "cos(n-multi x (+)_{1,1} m-multi y): cosine addition for two weight tuples"),
    (4, "cos(n-multi x (-)_{1,1} m-multi y): cosine difference for two weight tuples"),
):
    _identity(f"multi-add-nm-{_item}", "multi-add-nm", _desc, NUMERIC, "float", NUMERIC_TOL)(
        _multi_add_nm(_item)
    )


# --------------------------------------------------------------------------
# first sine zero and periodicity
# --------------------------------------------------------------------------


def _draw_pi_setup(rng):
    for _ in range(_RETRIES):
        params = _float_params(rng, ratio_max=0.75, phi_min=1.25, phi_max=2.4)
        u = rng.uniform(0.35, min(1.0, 0.8 * abs(params.phi)))
        try:
            root = _pi_root(params, u)
        except NoRootFound:
            continue
        if root.residual > 1e-10 or root.value > 8.0:
            continue
        try:
            c0 = deformed_zero_value(COS, u, u, root.value, params)
        except SeriesDiverging:
            continue
        if not c0 > 0.05:
            continue
        return params, u, root, c0
    return None


@_identity(
    "piu-special-1",
    "piu-special",
    "sine of the n-fold multinomial at its first zero vanishes, n <= 4",
    NUMERIC,
    "float",
    PI_TOL,
)
def _piu_special_1(rng, order):
    setup = _draw_pi_setup(rng)
    if setup is None:
        return _exhausted("piu-special-1")
    params, u, root, _ = setup
    for n in range(1, 5):
        us = (u,) * n
        try:
            value = multinomial_value(SIN, us, root.value, params, weights=_multi_weights(us, params))
        except SeriesDiverging:
            return Failure(_ctx(params=params, u=u, n=n), "sin diverged", "0", None)
        failure = _close(value, 0.0, PI_TOL, _ctx(params=params, u=u, piu=root.value, n=n))
        if failure is not None:
            return failure
    return None


@_identity(
    "piu-special-2",
    "piu-special",
    "|cos of the n-fold multinomial at the zero| = normalizer^(n/2)",
    NUMERIC,
    "float",
    PI_TOL,
)
def _piu_special_2(rng, order):
    setup = _draw_pi_setup(rng)
    if setup is None:
        return _exhausted("piu-special-2")
    params, u, root, c0 = setup
    for n in range(1, 5):
        us = (u,) * n
        try:
            value = multinomial_value(COS, us, root.value, params, weights=_multi_weights(us, params))
        except SeriesDiverging:
            return Failure(_ctx(params=params, u=u, n=n), "cos diverged", "", None)
        failure = _close(
            abs(value), c0 ** (n / 2.0), PI_TOL, _ctx(params=params, u=u, piu=root.value, n=n)
        )
        if failure is not None:
            return failure
    return None


@_identity(
    "piu-special-3",
    "piu-special",
    "tangent of the n-fold multinomial at the zero vanishes, n <= 4",
    NUMERIC,
    "float",
    PI_TOL,
)
def _piu_special_3(rng, order):
    setup = _draw_pi_setup(rng)
    if setup is None:
        return _exhausted("piu-special-3")
    params, u, root, _ = setup
    for n in range(1, 5):
        us = (u,) * n
        try:
            value = multinomial_value(TAN, us, root.value, params, weights=_multi_weights(us, params))
        except (SeriesDiverging, DivisionByZeroValue):
            return Failure(_ctx(params=params, u=u, n=n), "tan not evaluable", "0", None)
        failure = _close(value, 0.0, PI_TOL, _ctx(params=params, u=u, piu=root.value, n=n))
        if failure is not None:
            return failure
    return None


def _periodic(item: int):
    # item 1: sin, 2: cos, 3: tan, 4: cot
    def check(rng, order):
        for _ in range(_RETRIES):
            setup = _draw_pi_setup(rng)
            if setup is None:
                return _exhausted(f"periodic-{item}")
            params, u, root, _ = setup
            n = rng.randint(1, 4)
            us = (u,) * n
            v = _float_u(rng, params, cap=0.7)
            x = _x(rng, lo=0.1)
            weights = _multi_weights(us, params)
            try:
                cos_n = multinomial_value(COS, us, root.value, params, weights=weights)
                if item in (1, 2):
                    kind = SIN if item == 1 else COS
                    lhs = weighted_binomial_value(
                        kind, weights, PowerWeights(v), root.value, x, params
                    )
                    rhs = cos_n * fn_value(kind, x, v, params)
                else:
                    kind = TAN if item == 3 else COT
                    lhs = weighted_binomial_value(
                        kind, weights, PowerWeights(v), root.value, x, params
                    )
                    rhs = fn_value(kind, x, v, params)
            except (SeriesDiverging, DivisionByZeroValue):
                continue
            return _close(lhs, rhs, PI_TOL, _ctx(params=params, u=u, v=v, n=n, x=x, piu=root.value))
        return _exhausted(f"periodic-{item}")

    return check


for _item, _desc in (
    (1, "sin(n-fold zero-multiple (+)_{1,v} x) = cos(n-fold at zero) sin(x,v)"),
    (2, "cos(n-fold zero-multiple (+)_{1,v} x) = cos(n-fold at zero) cos(x,v)"),
    (3, "tan(n-fold zero-multiple (+)_{1,v} x) = tan(x,v)"),
    (4, "cot(n-fold zero-multiple (+)_{1,v} x) = cot(x,v)"),
):
    _identity(f"periodic-{_item}", "periodic", _desc, NUMERIC, "float", PI_TOL)(_periodic(_item))


# --------------------------------------------------------------------------
# hyperbolic identities
# --------------------------------------------------------------------------


@_identity("hyp-bridge-1", "hyp-bridge", "sin(ix,u) = i sinh(x,u)", SERIES_EXACT, "gaussian")
def _hyp_bridge_1(rng, order):
    params = _gauss_params(rng)
    u = _gauss(rng)
    lhs = fn_series(SIN, u, params, order).dilate(GAUSSIAN_I)
    rhs = fn_series(SINH, u, params, order).scale(GAUSSIAN_I)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("hyp-bridge-2", "hyp-bridge", "sin(x,-u) = sinh(x,u)", SERIES_EXACT, "rational-roots")
def _hyp_bridge_2(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = fn_series(SIN, -u, params, order)
    rhs = fn_series(SINH, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("hyp-bridge-3", "hyp-bridge", "cos(ix,u) = cosh(x,u)", SERIES_EXACT, "gaussian")
def _hyp_bridge_3(rng, order):
    params = _gauss_params(rng)
    u = _gauss(rng)
    lhs = fn_series(COS, u, params, order).dilate(GAUSSIAN_I)
    rhs = fn_series(COSH, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("hyp-bridge-4", "hyp-bridge", "cos(x,-u) = cosh(x,u)", SERIES_EXACT, "rational-roots")
def _hyp_bridge_4(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = fn_series(COS, -u, params, order)
    rhs = fn_series(COSH, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("hyp-bridge-5", "hyp-bridge", "tan(ix,u) = i tanh(x,u)", SERIES_EXACT, "gaussian")
def _hyp_bridge_5(rng, order):
    params = _gauss_params(rng)
    u = _gauss(rng)
    lhs = fn_series(TAN, u, params, order).dilate(GAUSSIAN_I)
    rhs = fn_series(TANH, u, params, order).scale(GAUSSIAN_I)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("hyp-bridge-6", "hyp-bridge", "tan(x,-u) = tanh(x,u)", SERIES_EXACT, "rational-roots")
def _hyp_bridge_6(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = fn_series(TAN, -u, params, order)
    rhs = fn_series(TANH, u, params, order)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "hyp-binom-bridge-1",
    "hyp-binom-bridge",
    "sin(x (+)_{-u,-v} y) = sinh(x (+)_{u,v} y)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _hyp_binom_bridge_1(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(SIN, -u, -v, params, border)
    rhs = binomial_series2(SINH, u, v, params, border)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


@_identity(
    "hyp-binom-bridge-2",
    "hyp-binom-bridge",
    "cos(x (+)_{-u,-v} y) = cosh(x (-)_{u,v} y)",
    BIVARIATE_EXACT,
    "rational-roots",
)
def _hyp_binom_bridge_2(rng, order):
    border = min(order, BIVARIATE_ORDER)
    params = _root_params(rng)
    u, v = _frac(rng), _frac(rng)
    one = Fraction(1)
    lhs = binomial_series2(COS, -u, -v, params, border)
    rhs = binomial_series2(COSH, u, v, params, border).dilate(one, -one)
    return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))


def _hyp_addition(kind_lhs: FnKind, minus: bool, combo):
    def check(rng, order):
        border = min(order, BIVARIATE_ORDER)
        params = _root_params(rng)
        u, v = _frac(rng), _frac(rng)
        one = Fraction(1)
        lhs = binomial_series2(kind_lhs, u, v, params, border)
        if minus:
            lhs = lhs.dilate(one, -one)
        sh_u = fn_series(SINH, u, params, border)
        ch_u = fn_series(COSH, u, params, border)
        sh_v = fn_series(SINH, v, params, border)
        ch_v = fn_series(COSH, v, params, border)
        rhs = combo(sh_u, ch_u, sh_v, ch_v)
        return _series2_check(lhs, rhs, _ctx(params=params, u=u, v=v))

    return check


_identity(
    "hyp-add-1",
    "hyp-add",
    "sinh(x (+) y) = sinh(x,u)cosh(y,v) + cosh(x,u)sinh(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_hyp_addition(SINH, False, lambda su, cu, sv, cv: outer(su, cv) + outer(cu, sv)))
_identity(
    "hyp-add-2",
    "hyp-add",
    "sinh(x (-) y) = sinh(x,u)cosh(y,v) - cosh(x,u)sinh(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_hyp_addition(SINH, True, lambda su, cu, sv, cv: outer(su, cv) - outer(cu, sv)))
_identity(
    "hyp-add-3",
    "hyp-add",
    "cosh(x (+) y) = cosh(x,u)cosh(y,v) + sinh(x,u)sinh(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_hyp_addition(COSH, False, lambda su, cu, sv, cv: outer(cu, cv) + outer(su, sv)))
_identity(
    "hyp-add-4",
    "hyp-add",
    "cosh(x (-) y) = cosh(x,u)cosh(y,v) - sinh(x,u)sinh(y,v)",
    BIVARIATE_EXACT,
    "rational-roots",
)(_hyp_addition(COSH, True, lambda su, cu, sv, cv: outer(cu, cv) - outer(su, sv)))

_identity(
    "tanh-add-1",
    "tanh-add",
    "tanh(x (+) y) = (tanh x + tanh y) / (1 + tanh x tanh y)",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_tan_addition(False, True))
_identity(
    "tanh-add-2",
    "tanh-add",
    "tanh(x (-) y) = (tanh x - tanh y) / (1 - tanh x tanh y)",
    NUMERIC,
    "float",
    NUMERIC_TOL,
)(_tan_addition(True, True))


# --------------------------------------------------------------------------
# trigonometric derivatives
# --------------------------------------------------------------------------


@_identity("trig-deriv-1", "trig-deriv", "D sin(x,u) = cos(ux,u)", SERIES_EXACT, "rational-roots")
def _trig_deriv_1(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = derivative_series(fn_series(SIN, u, params, order), params)
    rhs = fn_series(COS, u, params, order).dilate(u)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity("trig-deriv-2", "trig-deriv", "D cos(x,u) = -sin(ux,u)", SERIES_EXACT, "rational-roots")
def _trig_deriv_2(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = derivative_series(fn_series(COS, u, params, order), params)
    rhs = fn_series(SIN, u, params, order).dilate(u).scale(Fraction(-1))
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


def _trig_deriv_quotient(item: int):
    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            phi, psi = params.phi, params.phi_prime
            u = _float_u(rng, params, cap=0.7)
            x = _x(rng, lo=0.12, hi=0.4)
            try:
                if item == 3:
                    lhs = derivative_value(lambda w: fn_value(TAN, w, u, params), x, params)
                    ca = fn_value(COS, phi * x, u, params)
                    rhs = fn_value(COS, u * x, u, params) / ca + fn_value(
                        TAN, psi * x, u, params
                    ) * fn_value(SIN, u * x, u, params) / ca
                elif item == 4:
                    lhs = derivative_value(lambda w: fn_value(COT, w, u, params), x, params)
                    sa = fn_value(SIN, phi * x, u, params)
                    rhs = -fn_value(SIN, u * x, u, params) / sa - fn_value(
                        COT, psi * x, u, params
                    ) * fn_value(COS, u * x, u, params) / sa
                elif item == 5:
                    lhs = derivative_value(lambda w: fn_value(SEC, w, u, params), x, params)
                    rhs = fn_value(SIN, u * x, u, params) / (
                        fn_value(COS, phi * x, u, params) * fn_value(COS, psi * x, u, params)
                    )
                else:
                    lhs = derivative_value(lambda w: fn_value(CSC, w, u, params), x, params)
                    rhs = -fn_value(COS, u * x, u, params) / (
                        fn_value(SIN, phi * x, u, params) * fn_value(SIN, psi * x, u, params)
                    )
            except (SeriesDiverging, DivisionByZeroValue, ZeroDivisionError):
                continue
            return _close(lhs, rhs, QUOTIENT_TOL, _ctx(params=params, u=u, x=x))
        return _exhausted(f"trig-deriv-{item}")

    return check


for _item, _desc in (
    (3, "D tan(x,u) = cos(ux,u)/cos(phi x,u) + tan(phi' x,u) sin(ux,u)/cos(phi x,u)"),
    (4, "D cot(x,u) = -sin(ux,u)/sin(phi x,u) - cot(phi' x,u) cos(ux,u)/sin(phi x,u)"),
    (5, "D sec(x,u) = sin(ux,u) / (cos(phi x,u) cos(phi' x,u))"),
    (6, "D csc(x,u) = -cos(ux,u) / (sin(phi x,u) sin(phi' x,u))"),
):
    _identity(f"trig-deriv-{_item}", "trig-deriv", _desc, NUMERIC, "float", QUOTIENT_TOL)(
        _trig_deriv_quotient(_item)
    )


@_identity(
    "trig-d2-1", "trig-d2", "D^2 sin(x,u) = -u sin(u^2 x, u)", SERIES_EXACT, "rational-roots"
)
def _trig_d2_1(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = derivative_series(derivative_series(fn_series(SIN, u, params, order), params), params)
    rhs = fn_series(SIN, u, params, order).dilate(u * u).scale(-u)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


@_identity(
    "trig-d2-2", "trig-d2", "D^2 cos(x,u) = -u cos(u^2 x, u)", SERIES_EXACT, "rational-roots"
)
def _trig_d2_2(rng, order):
    params = _root_params(rng)
    u = _frac(rng)
    lhs = derivative_series(derivative_series(fn_series(COS, u, params, order), params), params)
    rhs = fn_series(COS, u, params, order).dilate(u * u).scale(-u)
    return _series_check(lhs, rhs, _ctx(params=params, u=u))


# --------------------------------------------------------------------------
# operator calculus
# --------------------------------------------------------------------------


def _product_rule(swapped: bool):
    def check(rng, order):
        params = _root_params(rng)
        phi, psi = params.phi, params.phi_prime
        f = _poly_series(rng, 5, order)
        g = _poly_series(rng, 5, order)
        first, second = (psi, phi) if swapped else (phi, psi)
        lhs = derivative_series(f * g, params)
        rhs = f.dilate(first) * derivative_series(g, params) + g.dilate(second) * derivative_series(
            f, params
        )
        ctx = _ctx(params=params, f=f.coeffs[:6], g=g.coeffs[:6])
        failure = _series_check(lhs, rhs, ctx)
        if failure is not None:
            return failure
        # numeric spot check of the same statement
        fparams = promote_params(params, Backend.COMPLEX)
        fc = [float(c) for c in f.coeffs[:6]]
        gc = [float(c) for c in g.coeffs[:6]]
        ff, gg = _poly_fn(fc), _poly_fn(gc)
        x = _x(rng, lo=0.1)
        lhs_n = derivative_value(lambda w: ff(w) * gg(w), x, fparams)
        a, b = (fparams.phi_prime, fparams.phi) if swapped else (fparams.phi, fparams.phi_prime)
        rhs_n = ff(a * x) * derivative_value(gg, x, fparams) + gg(b * x) * derivative_value(
            ff, x, fparams
        )
        return _close(lhs_n, rhs_n, QUOTIENT_TOL, ctx)

    return check


_identity(
    "calc-product-rule-1",
    "calc-product-rule",
    "D(fg)(x) = f(phi x)(Dg)(x) + g(phi' x)(Df)(x)",
    SERIES_EXACT,
    "rational-roots",
)(_product_rule(False))
_identity(
    "calc-product-rule-2",
    "calc-product-rule",
    "D(fg)(x) = f(phi' x)(Dg)(x) + g(phi x)(Df)(x)",
    SERIES_EXACT,
    "rational-roots",
)(_product_rule(True))


def _quotient_rule(form: int):
    def check(rng, order):
        for _ in range(_RETRIES):
            params = _float_params(rng)
            phi, psi = params.phi, params.phi_prime
            fc = [rng.uniform(-2, 2) for _ in range(4)]
            gc = [rng.uniform(-2, 2) for _ in range(4)]
            gc[0] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            f, g = _poly_fn(fc), _poly_fn(gc)
            x = _x(rng, lo=0.1, hi=0.4)
            g_phi, g_psi = g(phi * x), g(psi * x)
            if abs(g_phi) < 0.1 or abs(g_psi) < 0.1:
                continue
            lhs = derivative_value(lambda w: f(w) / g(w), x, params)
            df = derivative_value(f, x, params)
            dg = derivative_value(g, x, params)
            if form == 1:
                num = g_phi * df - f(phi * x) * dg
            else:
                num = g_psi * df - f(psi * x) * dg
            rhs = num / (g_phi * g_psi)
            return _close(lhs, rhs, QUOTIENT_TOL, _ctx(params=params, f=fc, g=gc, x=x))
        return _exhausted("quotient rule")

    return check


_identity(
    "calc-quotient-rule-1",
    "calc-quotient-rule",
    "D(f/g) = [g(phi x)Df - f(phi x)Dg] / (g(phi x) g(phi' x))",
    NUMERIC,
    "float",
    QUOTIENT_TOL,
)(_quotient_rule(1))
_identity(
    "calc-quotient-rule-2",
    "calc-quotient-rule",
    "D(f/g) = [g(phi' x)Df - f(phi' x)Dg] / (g(phi x) g(phi' x))",
    NUMERIC,
    "float",
    QUOTIENT_TOL,
)(_quotient_rule(2))


@_identity(
    "calc-fundamental",
    "calc-fundamental",
    "integral of x^n from 0 to b = b^(n+1) / {n+1}",
    NUMERIC,
    "float",
    INTEGRAL_TOL,
)
def _calc_fundamental(rng, order):
    params = _float_params(rng, ratio_max=0.8)
    n = rng.randint(0, 6)
    b = rng.choice((0.5, 1.0))
    lhs = integral_value(lambda x: x**n, 0.0, b, params, eps=1e-13)
    rhs = b ** (n + 1) / lucas_u(n + 1, params)
    return _close(lhs, rhs, INTEGRAL_TOL, _ctx(params=params, n=n, b=b))


@_identity(
    "calc-parts",
    "calc-parts",
    "int (Df) g(phi' x) = [fg] - int f(phi x) (Dg): residual vanishes",
    NUMERIC,
    "float",
    INTEGRAL_TOL,
)
def _calc_parts(rng, order):
    params = _float_params(rng, ratio_max=0.8)
    fc = [rng.uniform(-2, 2) for _ in range(4)]
    gc = [rng.uniform(-2, 2) for _ in range(4)]
    residual = integration_by_parts_residual(
        _poly_fn(fc), _poly_fn(gc), 0.0, 1.0, params, eps=1e-13
    )
    return _close(residual, 0.0, INTEGRAL_TOL, _ctx(params=params, f=fc, g=gc))


# --------------------------------------------------------------------------
# runner
# --------------------------------------------------------------------------


@dataclass
class IdentityOutcome:
    id: str
    group: str
    anchor: str
    status: str
    trials: int
    seed: int
    failures: list
    wall_time_s: float

    def to_dict(self):
        return {
            "id": self.id,
            "group": self.group,
            "anchor": self.anchor,
            "status": self.status,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [f.to_dict() for f in self.failures],
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class SuiteReport:
    seed: int
    trials: int
    order: int
    results: list
    wall_time_s: float

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "order": self.order,
            "status": "pass" if self.all_passed else "fail",
            "wall_time_s": self.wall_time_s,
            "results": [r.to_dict() for r in self.results],
        }


def _resolve(selection) -> list[IdentityRecord]:
    if selection is None or selection == "all":
        return list(CATALOG.values())
    tokens = [selection] if isinstance(selection, str) else list(selection)
    if not tokens:
        raise UnknownIdentityId("empty selection")
    chosen: dict[str, IdentityRecord] = {}
    for token in tokens:
        if token == "all":
            return list(CATALOG.values())
        matches = [r for r in CATALOG.values() if r.id == token or r.group == token]
        if not matches:
            raise UnknownIdentityId(f"no identity or group named {token!r}")
        for record in matches:
            chosen[record.id] = record
    return list(chosen.values())


def run_suite(
    selection: Union[str, Iterable[str], None] = "all",
    trials: int = 25,
    order: int = UNIVARIATE_ORDER,
    seed: int = 7,
) -> SuiteReport:
    """Run the selected identities for the given number of parameter draws.

    Identical (selection, trials, order, seed) produce identical outcomes;
    each record draws from its own stream seeded by (seed, id).
    Raises ValueError when ``trials`` is below 1: a pass needs evidence.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    records = _resolve(selection)
    started = time.perf_counter()
    results = []
    for record in records:
        rng = random.Random(f"{seed}|{record.id}")
        failures = []
        t0 = time.perf_counter()
        for _ in range(trials):
            failure = record.fn(rng, order)
            if failure is not None:
                failures.append(failure)
        elapsed = time.perf_counter() - t0
        status = "pass" if not failures else "fail"
        results.append(
            IdentityOutcome(
                record.id, record.group, record.anchor, status, trials, seed, failures, elapsed
            )
        )
    return SuiteReport(seed, trials, order, results, time.perf_counter() - started)
