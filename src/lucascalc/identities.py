"""Declarative catalog of the library's verifiable identities.

Each record pairs a mathematical statement with a deterministic check:
exact checks compare truncated series coefficient-for-coefficient over
exact backends (sampled rational root pairs, zero tolerance); numeric
checks compare point evaluations against an independent route within a
stated tolerance.  ``run_suite`` executes any selection reproducibly
from a seed and reports per-identity outcomes with counterexample
parameters on failure.

A record declares its parameter sampler and a ``sides(rng, params, order)``
generator.  The generator draws the record's remaining variables from
``rng`` and yields ``(context, lhs, rhs)`` triples; it rejects an
inadmissible draw by raising ``_Reject`` before its first triple.
``run_suite`` owns everything else: drawing and retrying, skipping the
domain errors of numeric records, comparing, the bivariate order clamp
and timing.
"""

from __future__ import annotations

import operator
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Union

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
    SERIES_KINDS,
    FnKind,
    binomial_series2,
    binomial_value,
    deformed_zero_series,
    deformed_zero_value,
    find_pi_u,
    fn_series,
    fn_value,
    multinomial_series,
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


class _Reject(Exception):
    """An inadmissible draw: ``run_suite`` draws the record's variables again."""


# A numeric record's draw is also rejected when its evaluation leaves the
# domain; exact records retry only on _Reject.
_NUMERIC_REJECTS = (
    _Reject,
    SeriesDiverging,
    DivisionByZeroValue,
    NegativeNormalizer,
    NoRootFound,
    ZeroDivisionError,
)


@dataclass(frozen=True)
class Failure:
    """Reproducible counterexample: sampled parameters and both sides."""

    params: dict
    lhs: str
    rhs: str
    delta: Optional[float]


Sides = Callable[[random.Random, LucasParams, int], Iterator[tuple]]


@dataclass(frozen=True)
class IdentityRecord:
    """A catalogued statement and how to check it.

    ``draw`` samples the sequence parameters, ``sides`` draws the rest and
    yields the triples to compare, and ``min_order`` is the lowest series
    order at which every coefficient the check compares is known.
    """

    id: str
    group: str
    anchor: str
    check_kind: str
    tolerance: Optional[float]
    draw: Callable[[random.Random], LucasParams]
    sides: Sides
    min_order: int = 0

    @property
    def sampler(self) -> str:
        """Name of the parameter sampler: rational-roots, gaussian or float."""
        return _SAMPLER_NAMES[getattr(self.draw, "func", self.draw)]


CATALOG: dict[str, IdentityRecord] = {}


def _identity(id: str, group: str, anchor: str, kind: str, draw, tolerance=None, min_order=0):
    def wrap(sides: Sides):
        if id in CATALOG:
            raise ValueError(f"duplicate identity id {id}")
        CATALOG[id] = IdentityRecord(id, group, anchor, kind, tolerance, draw, sides, min_order)
        return sides

    return wrap


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def _root_params(rng: random.Random) -> LucasParams:
    a, b = _frac(rng), _frac(rng)
    if a == b or a + b == 0:
        raise _Reject
    return params_from_roots(a, b)


def _gauss(rng: random.Random) -> GaussianRational:
    return GaussianRational(_frac(rng), _frac(rng))


def _gauss_params(rng: random.Random) -> LucasParams:
    return promote_params(_root_params(rng), Backend.GAUSSIAN)


def _float_params(
    rng: random.Random, ratio_max: float = 0.85, phi_min: float = 1.05, phi_max: float = 3.0
) -> LucasParams:
    phi = rng.uniform(phi_min, phi_max) * rng.choice((-1.0, 1.0))
    psi = rng.uniform(0.08, ratio_max) * abs(phi) * rng.choice((-1.0, 1.0))
    if abs(phi + psi) < 0.05 or abs(phi * psi) < 0.02:
        raise _Reject
    return params_from_roots(phi, psi)


_SAMPLER_NAMES = {_root_params: "rational-roots", _gauss_params: "gaussian", _float_params: "float"}
_pi_params = partial(_float_params, ratio_max=0.75, phi_min=1.25, phi_max=2.4)


def _float_u(rng: random.Random, params: LucasParams, cap: float = 0.8) -> float:
    phi_mag = abs(params.phi)
    return rng.uniform(0.05, cap * phi_mag) * rng.choice((-1.0, 1.0))


def _x(rng: random.Random, lo: float = 0.05, hi: float = 0.5) -> float:
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def _poly_series(rng: random.Random, degree: int, order: int) -> TruncatedSeries:
    coeffs = [_frac(rng) if n <= degree else Fraction(0) for n in range(order + 1)]
    return TruncatedSeries(coeffs, Backend.RATIONAL)


def _pi_root(params: LucasParams, u: float):
    # _pi_setup rejects a zero above 8, so the scan stops there
    return find_pi_u(params, u, x_max=8.0)


def _pi_setup(rng: random.Random, params: LucasParams):
    """A deformation u whose sine has a sharp first zero pi_u <= 8, where the
    deformed-zero cosine c0 exceeds 0.05: returns (u, the zero, c0)."""
    u = rng.uniform(0.35, min(1.0, 0.8 * abs(params.phi)))
    root = _pi_root(params, u)
    if root.residual > 1e-10 or root.value > 8.0:
        raise _Reject
    c0 = deformed_zero_value(COS, u, u, root.value, params)
    if not c0 > 0.05:
        raise _Reject
    return u, root, c0


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


def _compare(ctx: dict, lhs, rhs, tol: float) -> Optional[Failure]:
    """None when the two sides agree, else the counterexample.

    Float and complex sides agree within ``tol`` relative to
    max(1, |lhs|, |rhs|).  Exact sides must be equal; a series or a
    coefficient tuple reports its first differing coefficient.
    """
    if isinstance(lhs, (float, complex)):
        delta = magnitude(lhs - rhs)
        if delta <= tol * max(1.0, magnitude(lhs), magnitude(rhs)):
            return None
        return Failure(ctx, str(lhs), str(rhs), delta)
    if lhs == rhs:
        return None
    if isinstance(lhs, TruncatedSeries2):
        common = min(lhs.order, rhs.order)
        keys = sorted({k for k in (*lhs.coeffs, *rhs.coeffs) if sum(k) <= common})
        pairs = [(key, (lhs.coefficient(*key), rhs.coefficient(*key))) for key in keys]
    elif isinstance(lhs, TruncatedSeries):
        pairs = enumerate(zip(lhs.coeffs, rhs.coeffs))
    elif isinstance(lhs, tuple):
        pairs = enumerate(zip(lhs, rhs))
    else:
        return Failure(ctx, str(lhs), str(rhs), None)
    for key, (a, b) in pairs:
        if a != b:
            return Failure(ctx, f"coeff[{key}]={a}", f"coeff[{key}]={b}", None)
    return Failure(ctx, repr(lhs), repr(rhs), None)


def _ctx(**kwargs) -> dict:
    return {key: str(value) for key, value in kwargs.items()}


def _slot(var: int, c: Fraction) -> tuple:
    """Dilation factors that scale variable ``var`` of a bivariate series by c."""
    return (c, Fraction(1)) if var == 0 else (Fraction(1), c)


def _power2(n, u, v, params, minus=False) -> TruncatedSeries2:
    """Degree-n deformed power as a bivariate polynomial in (x, y), or with
    ``minus`` the minus-power, y -> -y."""
    row = deformed_power_coeffs(n, u, v, params).coeffs
    power = TruncatedSeries2({(n - k, k): c for k, c in enumerate(row)}, n, params.backend)
    return power.dilate(Fraction(1), Fraction(-1)) if minus else power


# --------------------------------------------------------------------------
# sequence-level identities
# --------------------------------------------------------------------------


def _pascal(swap, rng, params, order):
    phi, psi = params.phi, params.phi_prime
    a, b = (psi, phi) if swap else (phi, psi)
    n = rng.randint(2, 12)
    k = rng.randint(1, n - 1)
    lhs = lucasnomial(n + 1, k, params)
    rhs = a**k * lucasnomial(n, k, params) + b ** (n + 1 - k) * lucasnomial(n, k - 1, params)
    yield _ctx(phi=phi, phi_prime=psi, n=n, k=k), lhs, rhs


for _id, _anchor, _swap in (
    ("pascal-1", "C(n+1,k) = phi^k C(n,k) + phi'^(n+1-k) C(n,k-1)", False),
    ("pascal-2", "C(n+1,k) = phi'^k C(n,k) + phi^(n+1-k) C(n,k-1)", True),
):
    _identity(_id, "pascal", _anchor, SERIES_EXACT, _root_params)(partial(_pascal, _swap))


# --------------------------------------------------------------------------
# deformed binomial identities
# --------------------------------------------------------------------------


def _binom_neg(odd, rng, params, order):
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(0, 8)
    degree = 2 * n + 1 if odd else 2 * n
    lhs = deformed_power_coeffs(degree, -u, -v, params).coeffs
    base = deformed_power_coeffs(degree, u, v, params).coeffs
    sign = 1 if n % 2 == 0 else -1
    rhs = tuple(c * sign * (1 if odd else (-1) ** k) for k, c in enumerate(base))
    yield _ctx(params=params, u=u, v=v, n=n), lhs, rhs


for _id, _anchor, _odd in (
    ("binom-neg-even", "power(2n; -u,-v) = (-1)^n minus-power(2n; u,v)", False),
    ("binom-neg-odd", "power(2n+1; -u,-v) = (-1)^n power(2n+1; u,v)", True),
):
    _identity(_id, "binom-neg", _anchor, SERIES_EXACT, _root_params)(partial(_binom_neg, _odd))


def _binom_props(item, rng, params, order):
    phi, psi = params.phi, params.phi_prime
    u, v, x, y = (_frac(rng) for _ in range(4))
    # items 3 and 5 draw one more factor: a scales the parameters, z the slots
    extra = {"a": _frac(rng)} if item == 3 else {"z": _frac(rng)} if item == 5 else {}
    n = rng.randint(0, 8)
    if item in (1, 2):
        a, b = (phi, psi) if item == 1 else (psi, phi)
        lhs = deformed_power_value(n + 1, x, y, u, v, params)
        rhs = x * deformed_power_value(n, u * x, a * y, u, v, params) + y * deformed_power_value(
            n, b * x, v * y, u, v, params
        )
    elif item == 3:
        # Scaling the deformation pair alone changes interior coefficients by
        # a^(-k(n-k)); the identity is exact when the sequence parameters scale
        # along with it, (s,t) -> (as, a^2 t), which multiplies the binomial
        # analogue C(n,k) by exactly a^(k(n-k)).
        a = extra["a"]
        scaled = make_params(a * params.s, a * a * params.t)
        lhs = deformed_power_value(n, x, y, a * u, a * v, scaled)
        rhs = a ** binom2(n) * deformed_power_value(n, x, y, u, v, params)
    elif item == 4:
        lhs = deformed_power_value(n, x, y, u, v, params)
        rhs = deformed_power_value(n, y, x, v, u, params)
    else:
        z = extra["z"]
        lhs = z**n * deformed_power_value(n, x, y, u, v, params)
        rhs = deformed_power_value(n, z * x, z * y, u, v, params)
    yield _ctx(params=params, u=u, v=v, x=x, y=y, **extra, n=n), lhs, rhs


for _item, _desc in (
    (1, "power(n+1; x,y) = x power(n; ux, phi y) + y power(n; phi' x, vy)"),
    (2, "power(n+1; x,y) = x power(n; ux, phi' y) + y power(n; phi x, vy)"),
    (3, "power(n; x,y; au,av) over (as, a^2 t) = a^T(n) power(n; x,y; u,v) over (s,t)"),
    (4, "power(n; x,y; u,v) = power(n; y,x; v,u)"),
    (5, "z^n power(n; x,y) = power(n; zx, zy)"),
):
    _identity(f"binom-props-{_item}", "binom-props", _desc, SERIES_EXACT, _root_params)(
        partial(_binom_props, _item)
    )


def _binom_derivative(var, minus, rng, params, order):
    u, v = _frac(rng), _frac(rng)
    n = rng.randint(1, 8)
    lhs = derivative_series2(_power2(n, u, v, params, minus), params, var=var)
    factor = -lucas_u(n, params) if minus else lucas_u(n, params)
    lower = _power2(n - 1, u, v, params, minus).dilate(*_slot(var, (u, v)[var]))
    yield _ctx(params=params, u=u, v=v, n=n), lhs, lower.scale(factor)


for _id, _anchor, _var, _minus in (
    ("binom-derivative-1", "D_x power(n; x,a) = {n} power(n-1; ux, a)", 0, False),
    ("binom-derivative-2", "D_y power(n; a,y) = {n} power(n-1; a, vy)", 1, False),
    ("binom-derivative-3", "D_y minus-power(n; a,y) = -{n} minus-power(n-1; a, vy)", 1, True),
):
    _identity(_id, "binom-derivative", _anchor, SERIES_EXACT, _root_params)(
        partial(_binom_derivative, _var, _minus)
    )


# --------------------------------------------------------------------------
# exponential identities
# --------------------------------------------------------------------------


@_identity(
    "exp-pantograph-ode",
    "exp-pantograph",
    "D exp(z,u) = exp(uz,u): the proportional-delay equation",
    SERIES_EXACT,
    _root_params,
    min_order=1,
)
def _exp_ode(rng, params, order):
    u = _frac(rng)
    e = fn_series(EXP, u, params, order)
    yield _ctx(params=params, u=u), derivative_series(e, params), e.dilate(u)


@_identity(
    "exp-dk",
    "exp-dk",
    "D^k exp(az,u) = a^k u^T(k) exp(a u^k z, u)",
    SERIES_EXACT,
    _root_params,
    min_order=4,
)
def _exp_dk(rng, params, order):
    u, a = _frac(rng), _frac(rng)
    k = rng.randint(1, 4)
    e = fn_series(EXP, u, params, order)
    lhs = e.dilate(a)
    for _ in range(k):
        lhs = derivative_series(lhs, params)
    rhs = e.dilate(a * u**k).scale(a**k * u ** binom2(k))
    yield _ctx(params=params, u=u, a=a, k=k), lhs, rhs


@_identity(
    "exp-product",
    "exp-product",
    "exp of the binomial combination equals exp(x,u) exp(y,v)",
    BIVARIATE_EXACT,
    _root_params,
)
def _exp_product(rng, params, order):
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(EXP, u, v, params, order)
    rhs = outer(fn_series(EXP, u, params, order), fn_series(EXP, v, params, order))
    yield _ctx(params=params, u=u, v=v), lhs, rhs


@_identity("exp-recip-pair", "exp-recip", "exp(z,phi) exp(-z,phi') = 1", SERIES_EXACT, _root_params)
def _exp_recip_pair(rng, params, order):
    one = TruncatedSeries.constant(Fraction(1), order)
    lhs = fn_series(EXP, params.phi, params, order) * fn_series(
        EXP, params.phi_prime, params, order
    ).dilate(Fraction(-1))
    yield _ctx(params=params), lhs, one


@_identity(
    "exp-recip-general",
    "exp-recip",
    "exp(-x,u) exp(x,v) = deformed-zero exp series with weights (v,u)",
    SERIES_EXACT,
    _root_params,
)
def _exp_recip_general(rng, params, order):
    u, v = _frac(rng), _frac(rng)
    lhs = fn_series(EXP, u, params, order).dilate(Fraction(-1)) * fn_series(EXP, v, params, order)
    rhs = deformed_zero_series(EXP, v, u, params, order)
    yield _ctx(params=params, u=u, v=v), lhs, rhs


def _exp_binom_calculus(var, integrate, rng, params, order):
    u, v, c = _frac(rng), _frac(rng), _frac(rng)
    w = (u, v)[var]
    # the anchors name the dilation a on x and c on y
    ctx = _ctx(params=params, u=u, v=v, **{"a" if var == 0 else "c": c})
    F = binomial_series2(EXP, u, v, params, order)
    if not integrate:
        lhs = derivative_series2(F.dilate(*_slot(var, c)), params, var=var)
        yield ctx, lhs, F.dilate(*_slot(var, c * w)).scale(c)
        return
    lhs = antiderivative_series2(F.dilate(*_slot(var, c)), params, var=var)
    G = binomial_series2(EXP, u, v, params, order + 1).dilate(*_slot(var, c / w))
    sliced = TruncatedSeries2(
        {k: g for k, g in G.coeffs.items() if k[var] != 0}, G.order, G.backend
    )
    yield ctx, lhs, sliced.scale(w / c)


for _id, _anchor, _var, _integrate in (
    ("exp-binom-deriv-1", "D_x exp(ax (+) c) = a exp(aux (+) c)", 0, False),
    ("exp-binom-deriv-2", "D_y exp(a (+) cy) = c exp(a (+) cvy)", 1, False),
    (
        "exp-binom-int-1",
        "int exp(ax (+) c) dx = (u/a)[exp((a/u)x (+) c) minus its x-constant slice]",
        0,
        True,
    ),
    (
        "exp-binom-int-2",
        "int exp(a (+) cy) dy = (v/c)[exp(a (+) (c/v)y) minus its y-constant slice]",
        1,
        True,
    ),
):
    _identity(
        _id,
        "exp-binom-calculus",
        _anchor,
        BIVARIATE_EXACT,
        _root_params,
        min_order=0 if _integrate else 1,
    )(partial(_exp_binom_calculus, _var, _integrate))


@_identity(
    "exp-alpha-beta-functional",
    "exp-alpha-beta",
    "D f = alpha f(phi x) + beta f(phi' x) for the weighted-pair exp series",
    SERIES_EXACT,
    _root_params,
    min_order=1,
)
def _exp_alpha_beta_functional(rng, params, order):
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
    yield ctx, lhs, rhs
    # root deformations solve the proportional functional equation
    S2 = weighted_fn_series(EXP, DeformedPowerWeights(alpha, beta, phi, psi, params), params, order)
    lhs2 = derivative_series(S2, params)
    yield ctx, lhs2, S2.dilate(phi).scale(alpha) + S2.dilate(psi).scale(beta)


@_identity(
    "exp-alpha-beta-integral",
    "exp-alpha-beta",
    "int exp((alpha (+) beta)x) = phi phi'/(alpha phi' + beta phi) exp((alpha/phi (+) beta/phi')x) + C",
    NUMERIC,
    partial(_float_params, ratio_max=0.8, phi_min=1.1, phi_max=2.5),
    NUMERIC_TOL,
)
def _exp_alpha_beta_integral(rng, params, order):
    # Constant follows from solving I = (phi/alpha) E - (phi beta / alpha phi') I
    # for I: the prefactor is phi phi' / (alpha phi' + beta phi).
    phi, psi = params.phi, params.phi_prime
    alpha = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
    beta = rng.uniform(0.2, 1.0) * rng.choice((-1.0, 1.0))
    denom = alpha * psi + beta * phi
    if abs(denom) < 0.05 * (abs(alpha * psi) + abs(beta * phi)):
        raise _Reject
    b = rng.uniform(0.1, 0.3)
    weights = DeformedPowerWeights(alpha, beta, phi, psi, params)
    closed = DeformedPowerWeights(alpha / phi, beta / psi, phi, psi, params)
    c = phi * psi / denom
    integral = integral_value(
        lambda x: weighted_fn_value(EXP, weights, x, params), 0.0, b, params, eps=5e-13
    )
    rhs = c * weighted_fn_value(EXP, closed, b, params) - c
    yield _ctx(params=params, alpha=alpha, beta=beta, b=b), integral, rhs


@_identity(
    "exp-multinomial-product",
    "exp-multinomial",
    "product of exp(x,u_k) equals the multinomial-weighted exp value",
    NUMERIC,
    _float_params,
    NUMERIC_TOL,
)
def _exp_multinomial_product(rng, params, order):
    m = rng.randint(1, 3)
    us = tuple(_float_u(rng, params, cap=0.7) for _ in range(m))
    x = _x(rng)
    lhs = weighted_fn_value(EXP, MultinomialWeights(us, params), x, params)
    rhs = 1.0
    for u in us:
        rhs *= fn_value(EXP, x, u, params)
    yield _ctx(params=params, us=us, x=x), lhs, rhs


@_identity(
    "exp-antiderivative",
    "exp-antiderivative",
    "antiderivative of exp(z,u) is u exp(z/u, u) minus its constant",
    SERIES_EXACT,
    _root_params,
)
def _exp_antiderivative(rng, params, order):
    u = _frac(rng)
    e = fn_series(EXP, u, params, order)
    lhs = antiderivative_series(e, params)
    big = fn_series(EXP, u, params, order + 1).dilate(1 / u).scale(u)
    rhs = big - TruncatedSeries.constant(big.coeffs[0], order + 1)
    yield _ctx(params=params, u=u), lhs, rhs


# --------------------------------------------------------------------------
# Euler-type identities
# --------------------------------------------------------------------------


def _cos_plus_sin(v, params, order):
    """cos(z,v) + i sin(z,v) over Gaussian values, which is exp(iz,v), and
    cos(z,v) + sin(z,v) over rational ones, which is exp(z,-v)."""
    sin = fn_series(SIN, v, params, order)
    if params.backend is Backend.GAUSSIAN:
        sin = sin.scale(GAUSSIAN_I)
    return fn_series(COS, v, params, order) + sin


def _euler(rng, params, order):
    if params.backend is Backend.GAUSSIAN:
        u = _gauss(rng)
        lhs = fn_series(EXP, u, params, order).dilate(GAUSSIAN_I)
    else:
        u = _frac(rng)
        lhs = fn_series(EXP, -u, params, order)
    yield _ctx(params=params, u=u), lhs, _cos_plus_sin(u, params, order)


for _id, _anchor, _draw in (
    ("euler-i", "exp(iz,u) = cos(z,u) + i sin(z,u)", _gauss_params),
    ("euler-neg", "exp(z,-u) = cos(z,u) + sin(z,u)", _root_params),
):
    _identity(_id, "euler", _anchor, SERIES_EXACT, _draw)(_euler)


def _exp_x_plus_iy(rng, params, order):
    """The two-variable ``_euler``: exp(x (+) iy) over Gaussian draws, and
    exp(x (+)_{u,-v} y) over rational ones."""
    if params.backend is Backend.GAUSSIAN:
        u, v = _gauss(rng), _gauss(rng)
        lhs = binomial_series2(EXP, u, v, params, order).dilate(GaussianRational(1), GAUSSIAN_I)
    else:
        u, v = _frac(rng), _frac(rng)
        lhs = binomial_series2(EXP, u, -v, params, order)
    rhs = outer(fn_series(EXP, u, params, order), _cos_plus_sin(v, params, order))
    yield _ctx(params=params, u=u, v=v), lhs, rhs


for _id, _anchor, _draw in (
    ("exp-x-plus-iy-1", "exp(x (+) iy) = exp(x,u)(cos(y,v) + i sin(y,v))", _gauss_params),
    ("exp-x-plus-iy-2", "exp(x (+)_{u,-v} y) = exp(x,u)(cos(y,v) + sin(y,v))", _root_params),
):
    _identity(_id, "exp-x-plus-iy", _anchor, BIVARIATE_EXACT, _draw)(_exp_x_plus_iy)


@_identity(
    "exp-binom-neg-uv",
    "exp-binom-neg-uv",
    "exp(x (+)_{-u,-v} y) = cos(x (-) y) + sin(x (+) y)",
    BIVARIATE_EXACT,
    _root_params,
)
def _exp_binom_neg_uv(rng, params, order):
    u, v = _frac(rng), _frac(rng)
    one = Fraction(1)
    lhs = binomial_series2(EXP, -u, -v, params, order)
    rhs = binomial_series2(COS, u, v, params, order).dilate(one, -one) + binomial_series2(
        SIN, u, v, params, order
    )
    yield _ctx(params=params, u=u, v=v), lhs, rhs


def _rep(kind, rng, params, order):
    u, v = _gauss(rng), _gauss(rng)
    E = binomial_series2(EXP, u, v, params, order)
    i = GAUSSIAN_I
    lhs = binomial_series2(kind, u, v, params, order)
    if kind is SIN:
        rhs = (E.dilate(i, i) - E.dilate(-i, -i)).scale(GaussianRational(1) / (2 * i))
    else:
        rhs = (E.dilate(i, i) + E.dilate(-i, -i)).scale(GaussianRational(Fraction(1, 2)))
    yield _ctx(params=params, u=u, v=v), lhs, rhs


for _id, _anchor, _kind in (
    ("rep-sin", "sin(x (+) y) = [exp(ix (+) iy) - exp(-ix (+) -iy)] / 2i", SIN),
    ("rep-cos", "cos(x (+) y) = [exp(ix (+) iy) + exp(-ix (+) -iy)] / 2", COS),
):
    _identity(_id, "rep", _anchor, BIVARIATE_EXACT, _gauss_params)(partial(_rep, _kind))


# --------------------------------------------------------------------------
# parity
# --------------------------------------------------------------------------


def _parity_series(kind, odd, rng, params, order):
    u = _frac(rng)
    S = fn_series(kind, u, params, order)
    rhs = S.scale(Fraction(-1)) if odd else S
    yield _ctx(params=params, u=u), S.dilate(Fraction(-1)), rhs


def _parity_value(kind, odd, rng, params, order):
    u = _float_u(rng, params)
    x = _x(rng, lo=0.1)
    lhs = fn_value(kind, -x, u, params)
    rhs = -fn_value(kind, x, u, params) if odd else fn_value(kind, x, u, params)
    yield _ctx(params=params, u=u, x=x), lhs, rhs


for _id, _anchor, _kind, _odd in (
    ("parity-1", "sin(-z,u) = -sin(z,u)", SIN, True),
    ("parity-2", "cos(-z,u) = cos(z,u)", COS, False),
    ("parity-3", "tan(-z,u) = -tan(z,u)", TAN, True),
    ("parity-4", "cot(-z,u) = -cot(z,u) (odd, from cos/sin)", COT, True),
    ("parity-5", "sec(-z,u) = sec(z,u)", SEC, False),
    ("parity-6", "csc(-z,u) = -csc(z,u)", CSC, True),
):
    # cot and csc have a pole at 0 and no series: compare their values instead
    if _kind in SERIES_KINDS:
        _identity(_id, "parity", _anchor, SERIES_EXACT, _root_params)(
            partial(_parity_series, _kind, _odd)
        )
    else:
        _identity(_id, "parity", _anchor, NUMERIC, _float_params, NUMERIC_TOL)(
            partial(_parity_value, _kind, _odd)
        )


# --------------------------------------------------------------------------
# addition theorems
# --------------------------------------------------------------------------


def _product_form(kind, minus, u, v, params, order, bivariate=False):
    """Product side of the addition theorem for kind(x (+) y), or for
    kind(x (-) y) with ``minus``, at deformations (u, v) and in the kind's
    own family: odd(u)even(v) +/- even(u)odd(v) for sin and sinh,
    even(u)even(v) -/+ odd(u)odd(v) for cos, +/- for cosh.  ``bivariate``
    takes outer products (u in x, v in y); otherwise the products are on
    the diagonal, where v = u shares one pair of series."""
    odd, even = (SINH, COSH) if kind in (SINH, COSH) else (SIN, COS)
    plus = minus if kind is COS else not minus
    odd_u, even_u = fn_series(odd, u, params, order), fn_series(even, u, params, order)
    if v is u:
        odd_v, even_v = odd_u, even_u
    else:
        odd_v, even_v = fn_series(odd, v, params, order), fn_series(even, v, params, order)
    product = outer if bivariate else operator.mul
    if kind is odd:
        first, second = product(odd_u, even_v), product(even_u, odd_v)
    else:
        first, second = product(even_u, even_v), product(odd_u, odd_v)
    return first + second if plus else first - second


def _addition(kind, minus, rng, params, order):
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(kind, u, v, params, order)
    if minus:
        lhs = lhs.dilate(Fraction(1), Fraction(-1))
    rhs = _product_form(kind, minus, u, v, params, order, bivariate=True)
    yield _ctx(params=params, u=u, v=v), lhs, rhs


for _id, _group, _anchor, _kind, _minus in (
    ("add-sin-plus", "add-sin", "sin(x (+) y) = sin(x,u)cos(y,v) + cos(x,u)sin(y,v)", SIN, False),
    ("add-sin-minus", "add-sin", "sin(x (-) y) = sin(x,u)cos(y,v) - cos(x,u)sin(y,v)", SIN, True),
    ("add-cos-plus", "add-cos", "cos(x (+) y) = cos(x,u)cos(y,v) - sin(x,u)sin(y,v)", COS, False),
    ("add-cos-minus", "add-cos", "cos(x (-) y) = cos(x,u)cos(y,v) + sin(x,u)sin(y,v)", COS, True),
):
    _identity(_id, _group, _anchor, BIVARIATE_EXACT, _root_params)(
        partial(_addition, _kind, _minus)
    )


def _tan_addition(minus, hyperbolic, rng, params, order):
    kind = TANH if hyperbolic else TAN
    sign = -1.0 if minus else 1.0
    u, v = _float_u(rng, params, cap=0.7), _float_u(rng, params, cap=0.7)
    x, y = _x(rng), _x(rng)
    tx = fn_value(kind, x, u, params)
    ty = fn_value(kind, y, v, params)
    den = 1.0 + sign * tx * ty if hyperbolic else 1.0 - sign * tx * ty
    if abs(den) < 0.1:
        raise _Reject
    lhs = binomial_value(kind, x, sign * y, u, v, params)
    yield _ctx(params=params, u=u, v=v, x=x, y=y), lhs, (tx + sign * ty) / den


for _id, _anchor, _minus in (
    ("add-tan-plus", "tan(x (+) y) = (tan x + tan y) / (1 - tan x tan y)", False),
    ("add-tan-minus", "tan(x (-) y) = (tan x - tan y) / (1 + tan x tan y)", True),
):
    _identity(_id, "add-tan", _anchor, NUMERIC, _float_params, NUMERIC_TOL)(
        partial(_tan_addition, _minus, False)
    )


def _deformed_zero_form(kind, at, rng, params, order):
    """The deformed-zero kind series is kind(x (-) x): it equals the diagonal
    product side of that addition theorem at two drawn deformations ("uv"),
    at one ("uu"), or at the root pair ("roots"), where it is the constant
    1 for cos and 0 for sin."""
    if at == "roots":
        lhs = _product_form(kind, True, params.phi, params.phi_prime, params, order)
        value = Fraction(1) if kind is COS else Fraction(0)
        yield _ctx(params=params), lhs, TruncatedSeries.constant(value, order)
        return
    u = _frac(rng)
    v = u if at == "uu" else _frac(rng)
    ctx = _ctx(params=params, u=u) if at == "uu" else _ctx(params=params, u=u, v=v)
    lhs = _product_form(kind, True, u, v, params, order)
    yield ctx, lhs, deformed_zero_series(kind, u, v, params, order)
    if kind is SIN:
        # the y = -x diagonal of the bivariate sine is the same series
        border = min(order, BIVARIATE_ORDER)
        diag = binomial_series2(SIN, u, v, params, border).substitute_diagonal(Fraction(-1))
        yield ctx, diag, deformed_zero_series(SIN, u, v, params, border)


for _id, _anchor, _at in (
    ("coro4-1", "sin(x,u)cos(x,v) - cos(x,u)sin(x,v) = deformed-zero sine series", "uv"),
    ("coro4-2", "sin(x,phi)cos(x,phi') - cos(x,phi)sin(x,phi') = 0", "roots"),
):
    _identity(_id, "coro4", _anchor, SERIES_EXACT, _root_params)(
        partial(_deformed_zero_form, SIN, _at)
    )


# --------------------------------------------------------------------------
# Pythagorean identities
# --------------------------------------------------------------------------


for _id, _anchor, _at in (
    ("pytha-1", "sin(x,u)sin(x,v) + cos(x,u)cos(x,v) = deformed-zero cosine series", "uv"),
    ("pytha-2", "sin^2(x,u) + cos^2(x,u) = deformed-zero cosine series at (u,u)", "uu"),
    ("pytha-3", "sin(x,phi)sin(x,phi') + cos(x,phi)cos(x,phi') = 1", "roots"),
):
    _identity(_id, "pytha", _anchor, SERIES_EXACT, _root_params)(
        partial(_deformed_zero_form, COS, _at)
    )


def _tilde_pytha(a, b, c, rng, params, order):
    """Normalized a^2 + b^2 = c^2, where a missing kind stands for 1."""
    u = _float_u(rng, params, cap=0.7)
    x = _x(rng, lo=0.1)

    def square(kind):
        return 1.0 if kind is None else tilde_value(kind, x, u, params) ** 2

    yield _ctx(params=params, u=u, x=x), square(a) + square(b), square(c)


for _id, _anchor, _a, _b, _c in (
    ("tilde-pytha-1", "normalized sin^2 + cos^2 = 1", SIN, COS, None),
    ("tilde-pytha-2", "normalized tan^2 + 1 = normalized sec^2", TAN, None, SEC),
    ("tilde-pytha-3", "1 + normalized cot^2 = normalized csc^2", None, COT, CSC),
):
    _identity(_id, "tilde-pytha", _anchor, NUMERIC, _float_params, NUMERIC_TOL)(
        partial(_tilde_pytha, _a, _b, _c)
    )


# --------------------------------------------------------------------------
# double-angle identities
# --------------------------------------------------------------------------


def _double_angle(kind, same_u, rng, params, order):
    u = _frac(rng)
    v = u if same_u else _frac(rng)
    lhs = multinomial_series(kind, (u, v), params, order)
    if kind is SIN and same_u:
        rhs = (fn_series(SIN, u, params, order) * fn_series(COS, u, params, order)).scale(
            Fraction(2)
        )
    else:
        rhs = _product_form(kind, False, u, v, params, order)
    yield (_ctx(params=params, u=u) if same_u else _ctx(params=params, u=u, v=v)), lhs, rhs


for _id, _anchor, _kind, _same_u in (
    ("double-angle-1", "two-part sine series = sin(x,u)cos(x,v) + cos(x,u)sin(x,v)", SIN, False),
    ("double-angle-2", "two-part sine series at (u,u) = 2 sin(x,u)cos(x,u)", SIN, True),
    ("double-angle-3", "two-part cosine series = cos(x,u)cos(x,v) - sin(x,u)sin(x,v)", COS, False),
    ("double-angle-4", "two-part cosine series at (u,u) = cos^2 - sin^2", COS, True),
):
    _identity(_id, "double-angle", _anchor, SERIES_EXACT, _root_params)(
        partial(_double_angle, _kind, _same_u)
    )


def _double_angle_tan(same_u, rng, params, order):
    u = _float_u(rng, params, cap=0.7)
    v = u if same_u else _float_u(rng, params, cap=0.7)
    x = _x(rng)
    us = (u, v)
    lhs = weighted_fn_value(TAN, MultinomialWeights(us, params), x, params)
    tu = fn_value(TAN, x, u, params)
    tv = fn_value(TAN, x, v, params)
    den = 1.0 - tu * tv
    if abs(den) < 0.1:
        raise _Reject
    yield _ctx(params=params, u=u, v=v, x=x), lhs, (tu + tv) / den


for _id, _anchor, _same_u in (
    ("double-angle-5", "two-part tangent = (tan(x,u) + tan(x,v)) / (1 - tan(x,u)tan(x,v))", False),
    ("double-angle-6", "two-part tangent at (u,u) = 2 tan / (1 - tan^2)", True),
):
    _identity(_id, "double-angle", _anchor, NUMERIC, _float_params, NUMERIC_TOL)(
        partial(_double_angle_tan, _same_u)
    )


# --------------------------------------------------------------------------
# multinomial identities
# --------------------------------------------------------------------------


@_identity(
    "multi-euler",
    "multi-euler",
    "exp of multinomial weights at ix = cos + i sin of the same weights",
    NUMERIC,
    _float_params,
    NUMERIC_TOL,
)
def _multi_euler(rng, params, order):
    m = rng.randint(1, 3)
    us = tuple(_float_u(rng, params, cap=0.7) for _ in range(m))
    x = _x(rng)
    weights = MultinomialWeights(us, params)
    lhs = weighted_fn_value(EXP, weights, complex(0.0, x), params)
    rhs = weighted_fn_value(COS, weights, x, params) + 1j * weighted_fn_value(SIN, weights, x, params)
    yield _ctx(params=params, us=us, x=x), lhs, rhs


def _multi_add_n1(item, rng, params, order):
    # item 1: sin(+), 2: sin(-), 3: cos(+), 4: cos(-)
    kind = SIN if item in (1, 2) else COS
    sign = 1.0 if item in (1, 3) else -1.0
    n = rng.randint(1, 3)
    u = _float_u(rng, params, cap=0.7)
    us = (u,) * n
    x, y = _x(rng), _x(rng)
    weights = MultinomialWeights(us, params)
    lhs = weighted_binomial_value(kind, weights, PowerWeights(u), x, sign * y, params)
    sm = weighted_fn_value(SIN, weights, x, params)
    cm = weighted_fn_value(COS, weights, x, params)
    sy = fn_value(SIN, y, u, params)
    cy = fn_value(COS, y, u, params)
    rhs = sm * cy + sign * cm * sy if kind is SIN else cm * cy - sign * sm * sy
    yield _ctx(params=params, n=n, u=u, x=x, y=y), lhs, rhs


for _item, _desc in (
    (1, "sin(multi x (+)_{1,u} y) = sin(multi x)cos(y,u) + cos(multi x)sin(y,u)"),
    (2, "sin(multi x (-)_{1,u} y) = sin(multi x)cos(y,u) - cos(multi x)sin(y,u)"),
    (3, "cos(multi x (+)_{1,u} y) = cos(multi x)cos(y,u) - sin(multi x)sin(y,u)"),
    (4, "cos(multi x (-)_{1,u} y) = cos(multi x)cos(y,u) + sin(multi x)sin(y,u)"),
):
    _identity(
        f"multi-add-n1-{_item}", "multi-add-n1", _desc, NUMERIC, _float_params, NUMERIC_TOL
    )(partial(_multi_add_n1, _item))


def _multi_add_nm(item, rng, params, order):
    kind = SIN if item in (1, 2) else COS
    sign = 1.0 if item in (1, 3) else -1.0
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    u = _float_u(rng, params, cap=0.7)
    v = _float_u(rng, params, cap=0.7)
    us, vs = (u,) * n, (v,) * m
    x, y = _x(rng), _x(rng)
    wu = MultinomialWeights(us, params)
    wv = MultinomialWeights(vs, params)
    lhs = weighted_binomial_value(kind, wu, wv, x, sign * y, params)
    sn = weighted_fn_value(SIN, wu, x, params)
    cn = weighted_fn_value(COS, wu, x, params)
    sm = weighted_fn_value(SIN, wv, y, params)
    cm = weighted_fn_value(COS, wv, y, params)
    rhs = sn * cm + sign * cn * sm if kind is SIN else cn * cm - sign * sn * sm
    yield _ctx(params=params, n=n, m=m, u=u, v=v, x=x, y=y), lhs, rhs


for _item, _desc in (
    (1, "sin(n-multi x (+)_{1,1} m-multi y): sine addition for two weight tuples"),
    (2, "sin(n-multi x (-)_{1,1} m-multi y): sine difference for two weight tuples"),
    (3, "cos(n-multi x (+)_{1,1} m-multi y): cosine addition for two weight tuples"),
    (4, "cos(n-multi x (-)_{1,1} m-multi y): cosine difference for two weight tuples"),
):
    _identity(
        f"multi-add-nm-{_item}", "multi-add-nm", _desc, NUMERIC, _float_params, NUMERIC_TOL
    )(partial(_multi_add_nm, _item))


# --------------------------------------------------------------------------
# first sine zero and periodicity
# --------------------------------------------------------------------------


# counterexample texts when the n-fold value at the zero cannot be evaluated
_UNEVALUABLE = {
    SIN: ("sin diverged", "0"), COS: ("cos diverged", ""), TAN: ("tan not evaluable", "0")
}


def _piu_special(kind, rng, params, order):
    u, root, c0 = _pi_setup(rng, params)
    for n in range(1, 5):
        us = (u,) * n
        try:
            value = weighted_fn_value(kind, MultinomialWeights(us, params), root.value, params)
        except (SeriesDiverging, DivisionByZeroValue):
            # after the setup this is a counterexample, not an inadmissible draw
            lhs_text, rhs_text = _UNEVALUABLE[kind]
            yield _ctx(params=params, u=u, n=n), lhs_text, rhs_text
            return
        ctx = _ctx(params=params, u=u, piu=root.value, n=n)
        if kind is COS:
            yield ctx, abs(value), c0 ** (n / 2.0)
        else:
            yield ctx, value, 0.0


for _id, _anchor, _kind in (
    ("piu-special-1", "sine of the n-fold multinomial at its first zero vanishes, n <= 4", SIN),
    ("piu-special-2", "|cos of the n-fold multinomial at the zero| = normalizer^(n/2)", COS),
    ("piu-special-3", "tangent of the n-fold multinomial at the zero vanishes, n <= 4", TAN),
):
    _identity(_id, "piu-special", _anchor, NUMERIC, _pi_params, PI_TOL)(
        partial(_piu_special, _kind)
    )


def _periodic(item, rng, params, order):
    # item 1: sin, 2: cos, 3: tan, 4: cot
    kind = (SIN, COS, TAN, COT)[item - 1]
    u, root, _ = _pi_setup(rng, params)
    n = rng.randint(1, 4)
    us = (u,) * n
    v = _float_u(rng, params, cap=0.7)
    x = _x(rng, lo=0.1)
    weights = MultinomialWeights(us, params)
    cos_n = weighted_fn_value(COS, weights, root.value, params)
    lhs = weighted_binomial_value(kind, weights, PowerWeights(v), root.value, x, params)
    rhs = fn_value(kind, x, v, params)
    if item in (1, 2):
        rhs = cos_n * rhs
    yield _ctx(params=params, u=u, v=v, n=n, x=x, piu=root.value), lhs, rhs


for _item, _desc in (
    (1, "sin(n-fold zero-multiple (+)_{1,v} x) = cos(n-fold at zero) sin(x,v)"),
    (2, "cos(n-fold zero-multiple (+)_{1,v} x) = cos(n-fold at zero) cos(x,v)"),
    (3, "tan(n-fold zero-multiple (+)_{1,v} x) = tan(x,v)"),
    (4, "cot(n-fold zero-multiple (+)_{1,v} x) = cot(x,v)"),
):
    _identity(f"periodic-{_item}", "periodic", _desc, NUMERIC, _pi_params, PI_TOL)(
        partial(_periodic, _item)
    )


# --------------------------------------------------------------------------
# hyperbolic identities
# --------------------------------------------------------------------------


def _hyp_bridge(trig, hyp, rng, params, order):
    """Gaussian draws: trig(ix,u) = i^odd hyp(x,u); rational: trig(x,-u) = hyp(x,u)."""
    if params.backend is Backend.GAUSSIAN:
        u = _gauss(rng)
        lhs = fn_series(trig, u, params, order).dilate(GAUSSIAN_I)
        rhs = fn_series(hyp, u, params, order)
        if trig is not COS:
            rhs = rhs.scale(GAUSSIAN_I)
    else:
        u = _frac(rng)
        lhs = fn_series(trig, -u, params, order)
        rhs = fn_series(hyp, u, params, order)
    yield _ctx(params=params, u=u), lhs, rhs


for _id, _anchor, _trig, _hyp, _draw in (
    ("hyp-bridge-1", "sin(ix,u) = i sinh(x,u)", SIN, SINH, _gauss_params),
    ("hyp-bridge-2", "sin(x,-u) = sinh(x,u)", SIN, SINH, _root_params),
    ("hyp-bridge-3", "cos(ix,u) = cosh(x,u)", COS, COSH, _gauss_params),
    ("hyp-bridge-4", "cos(x,-u) = cosh(x,u)", COS, COSH, _root_params),
    ("hyp-bridge-5", "tan(ix,u) = i tanh(x,u)", TAN, TANH, _gauss_params),
    ("hyp-bridge-6", "tan(x,-u) = tanh(x,u)", TAN, TANH, _root_params),
):
    _identity(_id, "hyp-bridge", _anchor, SERIES_EXACT, _draw)(partial(_hyp_bridge, _trig, _hyp))


def _hyp_binom_bridge(trig, hyp, rng, params, order):
    u, v = _frac(rng), _frac(rng)
    lhs = binomial_series2(trig, -u, -v, params, order)
    rhs = binomial_series2(hyp, u, v, params, order)
    if trig is COS:
        rhs = rhs.dilate(Fraction(1), Fraction(-1))
    yield _ctx(params=params, u=u, v=v), lhs, rhs


for _id, _anchor, _trig, _hyp in (
    ("hyp-binom-bridge-1", "sin(x (+)_{-u,-v} y) = sinh(x (+)_{u,v} y)", SIN, SINH),
    ("hyp-binom-bridge-2", "cos(x (+)_{-u,-v} y) = cosh(x (-)_{u,v} y)", COS, COSH),
):
    _identity(_id, "hyp-binom-bridge", _anchor, BIVARIATE_EXACT, _root_params)(
        partial(_hyp_binom_bridge, _trig, _hyp)
    )


for _id, _anchor, _kind, _minus in (
    ("hyp-add-1", "sinh(x (+) y) = sinh(x,u)cosh(y,v) + cosh(x,u)sinh(y,v)", SINH, False),
    ("hyp-add-2", "sinh(x (-) y) = sinh(x,u)cosh(y,v) - cosh(x,u)sinh(y,v)", SINH, True),
    ("hyp-add-3", "cosh(x (+) y) = cosh(x,u)cosh(y,v) + sinh(x,u)sinh(y,v)", COSH, False),
    ("hyp-add-4", "cosh(x (-) y) = cosh(x,u)cosh(y,v) - sinh(x,u)sinh(y,v)", COSH, True),
):
    _identity(_id, "hyp-add", _anchor, BIVARIATE_EXACT, _root_params)(
        partial(_addition, _kind, _minus)
    )

for _id, _anchor, _minus in (
    ("tanh-add-1", "tanh(x (+) y) = (tanh x + tanh y) / (1 + tanh x tanh y)", False),
    ("tanh-add-2", "tanh(x (-) y) = (tanh x - tanh y) / (1 - tanh x tanh y)", True),
):
    _identity(_id, "tanh-add", _anchor, NUMERIC, _float_params, NUMERIC_TOL)(
        partial(_tan_addition, _minus, True)
    )


# --------------------------------------------------------------------------
# trigonometric derivatives
# --------------------------------------------------------------------------


def _trig_deriv(kind, rng, params, order):
    u = _frac(rng)
    lhs = derivative_series(fn_series(kind, u, params, order), params)
    if kind is SIN:
        rhs = fn_series(COS, u, params, order).dilate(u)
    else:
        rhs = fn_series(SIN, u, params, order).dilate(u).scale(Fraction(-1))
    yield _ctx(params=params, u=u), lhs, rhs


for _id, _anchor, _kind in (
    ("trig-deriv-1", "D sin(x,u) = cos(ux,u)", SIN),
    ("trig-deriv-2", "D cos(x,u) = -sin(ux,u)", COS),
):
    _identity(_id, "trig-deriv", _anchor, SERIES_EXACT, _root_params, min_order=1)(
        partial(_trig_deriv, _kind)
    )


def _trig_deriv_quotient(kind, rng, params, order):
    phi, psi = params.phi, params.phi_prime
    u = _float_u(rng, params, cap=0.7)
    x = _x(rng, lo=0.12, hi=0.4)

    def at(other, c):
        return fn_value(other, c * x, u, params)

    lhs = derivative_value(lambda w: fn_value(kind, w, u, params), x, params)
    if kind is TAN:
        ca = at(COS, phi)
        rhs = at(COS, u) / ca + at(TAN, psi) * at(SIN, u) / ca
    elif kind is COT:
        sa = at(SIN, phi)
        rhs = -at(SIN, u) / sa - at(COT, psi) * at(COS, u) / sa
    elif kind is SEC:
        rhs = at(SIN, u) / (at(COS, phi) * at(COS, psi))
    else:
        rhs = -at(COS, u) / (at(SIN, phi) * at(SIN, psi))
    yield _ctx(params=params, u=u, x=x), lhs, rhs


for _item, _kind, _desc in (
    (3, TAN, "D tan(x,u) = cos(ux,u)/cos(phi x,u) + tan(phi' x,u) sin(ux,u)/cos(phi x,u)"),
    (4, COT, "D cot(x,u) = -sin(ux,u)/sin(phi x,u) - cot(phi' x,u) cos(ux,u)/sin(phi x,u)"),
    (5, SEC, "D sec(x,u) = sin(ux,u) / (cos(phi x,u) cos(phi' x,u))"),
    (6, CSC, "D csc(x,u) = -cos(ux,u) / (sin(phi x,u) sin(phi' x,u))"),
):
    _identity(f"trig-deriv-{_item}", "trig-deriv", _desc, NUMERIC, _float_params, QUOTIENT_TOL)(
        partial(_trig_deriv_quotient, _kind)
    )


def _trig_d2(kind, rng, params, order):
    u = _frac(rng)
    lhs = derivative_series(derivative_series(fn_series(kind, u, params, order), params), params)
    rhs = fn_series(kind, u, params, order).dilate(u * u).scale(-u)
    yield _ctx(params=params, u=u), lhs, rhs


for _id, _anchor, _kind in (
    ("trig-d2-1", "D^2 sin(x,u) = -u sin(u^2 x, u)", SIN),
    ("trig-d2-2", "D^2 cos(x,u) = -u cos(u^2 x, u)", COS),
):
    _identity(_id, "trig-d2", _anchor, SERIES_EXACT, _root_params, min_order=2)(
        partial(_trig_d2, _kind)
    )


# --------------------------------------------------------------------------
# operator calculus
# --------------------------------------------------------------------------


def _product_rule(swapped, rng, params, order):
    phi, psi = params.phi, params.phi_prime
    f = _poly_series(rng, 5, order)
    g = _poly_series(rng, 5, order)
    first, second = (psi, phi) if swapped else (phi, psi)
    lhs = derivative_series(f * g, params)
    rhs = f.dilate(first) * derivative_series(g, params) + g.dilate(second) * derivative_series(
        f, params
    )
    ctx = _ctx(params=params, f=f.coeffs[:6], g=g.coeffs[:6])
    yield ctx, lhs, rhs
    # numeric spot check of the same statement, compared within QUOTIENT_TOL
    fparams = promote_params(params, Backend.COMPLEX)
    ff = TruncatedSeries([float(c) for c in f.coeffs[:6]]).eval_at
    gg = TruncatedSeries([float(c) for c in g.coeffs[:6]]).eval_at
    x = _x(rng, lo=0.1)
    lhs_n = derivative_value(lambda w: ff(w) * gg(w), x, fparams)
    a, b = (fparams.phi_prime, fparams.phi) if swapped else (fparams.phi, fparams.phi_prime)
    rhs_n = ff(a * x) * derivative_value(gg, x, fparams) + gg(b * x) * derivative_value(
        ff, x, fparams
    )
    yield ctx, lhs_n, rhs_n


for _id, _anchor, _swapped in (
    ("calc-product-rule-1", "D(fg)(x) = f(phi x)(Dg)(x) + g(phi' x)(Df)(x)", False),
    ("calc-product-rule-2", "D(fg)(x) = f(phi' x)(Dg)(x) + g(phi x)(Df)(x)", True),
):
    _identity(_id, "calc-product-rule", _anchor, SERIES_EXACT, _root_params, min_order=1)(
        partial(_product_rule, _swapped)
    )


def _quotient_rule(form, rng, params, order):
    phi, psi = params.phi, params.phi_prime
    fc = [rng.uniform(-2, 2) for _ in range(4)]
    gc = [rng.uniform(-2, 2) for _ in range(4)]
    gc[0] = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
    f, g = TruncatedSeries(fc).eval_at, TruncatedSeries(gc).eval_at
    x = _x(rng, lo=0.1, hi=0.4)
    g_phi, g_psi = g(phi * x), g(psi * x)
    if abs(g_phi) < 0.1 or abs(g_psi) < 0.1:
        raise _Reject
    lhs = derivative_value(lambda w: f(w) / g(w), x, params)
    df = derivative_value(f, x, params)
    dg = derivative_value(g, x, params)
    if form == 1:
        num = g_phi * df - f(phi * x) * dg
    else:
        num = g_psi * df - f(psi * x) * dg
    yield _ctx(params=params, f=fc, g=gc, x=x), lhs, num / (g_phi * g_psi)


for _id, _anchor, _form in (
    ("calc-quotient-rule-1", "D(f/g) = [g(phi x)Df - f(phi x)Dg] / (g(phi x) g(phi' x))", 1),
    ("calc-quotient-rule-2", "D(f/g) = [g(phi' x)Df - f(phi' x)Dg] / (g(phi x) g(phi' x))", 2),
):
    _identity(_id, "calc-quotient-rule", _anchor, NUMERIC, _float_params, QUOTIENT_TOL)(
        partial(_quotient_rule, _form)
    )


@_identity(
    "calc-fundamental",
    "calc-fundamental",
    "integral of x^n from 0 to b = b^(n+1) / {n+1}",
    NUMERIC,
    partial(_float_params, ratio_max=0.8),
    INTEGRAL_TOL,
)
def _calc_fundamental(rng, params, order):
    n = rng.randint(0, 6)
    b = rng.choice((0.5, 1.0))
    lhs = integral_value(lambda x: x**n, 0.0, b, params, eps=1e-13)
    yield _ctx(params=params, n=n, b=b), lhs, b ** (n + 1) / lucas_u(n + 1, params)


@_identity(
    "calc-parts",
    "calc-parts",
    "int (Df) g(phi' x) = [fg] - int f(phi x) (Dg): residual vanishes",
    NUMERIC,
    partial(_float_params, ratio_max=0.8),
    INTEGRAL_TOL,
)
def _calc_parts(rng, params, order):
    fc = [rng.uniform(-2, 2) for _ in range(4)]
    gc = [rng.uniform(-2, 2) for _ in range(4)]
    f, g = TruncatedSeries(fc).eval_at, TruncatedSeries(gc).eval_at
    residual = integration_by_parts_residual(f, g, 0.0, 1.0, params, eps=1e-13)
    yield _ctx(params=params, f=fc, g=gc), residual, 0.0


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
        return asdict(self)


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


def _trial(record: IdentityRecord, rng: random.Random, order: int) -> Optional[Failure]:
    """Draw until ``record`` admits a draw, then compare its sides in turn.

    Only errors raised before the first triple reject a draw.  The first
    mismatch ends the trial, so the sides after it are neither evaluated
    nor drawn.
    """
    skip = _NUMERIC_REJECTS if record.check_kind == NUMERIC else (_Reject,)
    # an exact record's float sides (the product rule's spot check) use QUOTIENT_TOL
    tol = QUOTIENT_TOL if record.tolerance is None else record.tolerance
    if record.check_kind == BIVARIATE_EXACT:
        order = min(order, BIVARIATE_ORDER)
    for _ in range(_RETRIES):
        try:
            checks = record.sides(rng, record.draw(rng), order)
            pending = next(checks)
        except skip:
            continue
        while pending is not None:
            failure = _compare(*pending, tol)
            if failure is not None:
                return failure
            pending = next(checks, None)
        return None
    return Failure({}, f"sampler for {record.id}", "no admissible draw found", None)


def run_suite(
    selection: Union[str, Iterable[str], None] = "all",
    trials: int = 25,
    order: int = UNIVARIATE_ORDER,
    seed: int = 7,
) -> SuiteReport:
    """Run the selected identities for the given number of parameter draws.

    Identical (selection, trials, order, seed) produce identical outcomes;
    each record draws from its own stream seeded by (seed, id).
    Raises ValueError when ``trials`` is below 1, since a pass needs
    evidence, or when ``order`` is below the largest ``min_order`` of the
    selected records, where a check would compare coefficients that
    truncation cannot know.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    records = _resolve(selection)
    floor = max(record.min_order for record in records)
    if order < floor:
        raise ValueError(f"order must be at least {floor} for this selection, got {order}")
    started = time.perf_counter()
    results = []
    for record in records:
        rng = random.Random(f"{seed}|{record.id}")
        failures = []
        t0 = time.perf_counter()
        for _ in range(trials):
            failure = _trial(record, rng, order)
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
