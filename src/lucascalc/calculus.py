"""Divided-difference derivative and node-series integral operators.

The derivative of f at x is (f(phi x) - f(phi' x)) / ((phi - phi') x),
exact on truncated series (power rule a_n -> a_n {n}) and numeric on
black-box functions.  The definite integral sums f over the contracting
node family r^k / lead, a geometric-type quadrature that inverts the
derivative for integrable functions.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NonContractingNodes, NonConvergent, OrderMismatch, VanishingFactor
from .scalars import Backend, LucasParams, Scalar, backend_zero, magnitude
from .series import TruncatedSeries, TruncatedSeries2

RealFn = Callable[[Scalar], Scalar]

_ZERO_CUTOFF = 1e-9
_DIFF_STEP = 1e-6
_MAX_TERMS = 10**6


def derivative_value(f: RealFn, x: Scalar, params: LucasParams) -> Scalar:
    """Two-point divided difference of f at x.

    For float arguments with |x| below 1e-9 the symmetric difference
    quotient with step 1e-6 stands in for the derivative at the origin.
    """
    phi, phi_prime = params.require_roots()
    if params.backend is Backend.COMPLEX and magnitude(x) < _ZERO_CUTOFF:
        h = _DIFF_STEP
        return (f(h) - f(-h)) / (2 * h)
    if x == 0:
        raise ZeroDivisionError("exact derivative at 0 needs a series, not a point value")
    return (f(phi * x) - f(phi_prime * x)) / ((phi - phi_prime) * x)


def derivative_series(f: TruncatedSeries, params: LucasParams) -> TruncatedSeries:
    """Power rule on coefficients: a_n z^n -> a_n {n} z^(n-1); order drops by one.

    Raises OrderMismatch on an order-0 series, whose derivative has no
    known coefficient.
    """
    cache = params.cache
    if f.order == 0:
        raise OrderMismatch("the derivative of an order-0 series has no known coefficient")
    out = [f.coeffs[n] * cache.u(n) for n in range(1, f.order + 1)]
    return TruncatedSeries(out, f.backend)


def antiderivative_series(f: TruncatedSeries, params: LucasParams) -> TruncatedSeries:
    """Inverse power rule with zero constant term; order grows by one."""
    cache = params.cache
    out = [backend_zero(f.backend)]
    for n, a in enumerate(f.coeffs):
        term = cache.u(n + 1)
        if term == 0:
            raise VanishingFactor(n + 1)
        out.append(a / term)
    return TruncatedSeries(out, f.backend)


def derivative_series2(F: TruncatedSeries2, params: LucasParams, var: int = 0) -> TruncatedSeries2:
    """Partial divided-difference derivative of a bivariate series in x (var 0) or y (var 1).

    Raises OrderMismatch on an order-0 series, as :func:`derivative_series` does,
    and ValueError for any other ``var``.
    """
    _check_var(var)
    if F.order == 0:
        raise OrderMismatch("the derivative of an order-0 series has no known coefficient")
    cache = params.cache
    out = {}
    for (j, k), c in F.coeffs.items():
        if var == 0 and j > 0:
            out[(j - 1, k)] = c * cache.u(j)
        elif var == 1 and k > 0:
            out[(j, k - 1)] = c * cache.u(k)
    return TruncatedSeries2(out, F.order - 1, F.backend)


def antiderivative_series2(F: TruncatedSeries2, params: LucasParams, var: int = 0) -> TruncatedSeries2:
    """Partial antiderivative in x (var 0) or y (var 1), zero constant slice.

    Raises ValueError for any other ``var``.
    """
    _check_var(var)
    cache = params.cache
    out = {}
    for (j, k), c in F.coeffs.items():
        m = (j if var == 0 else k) + 1
        term = cache.u(m)
        if term == 0:
            raise VanishingFactor(m)
        key = (j + 1, k) if var == 0 else (j, k + 1)
        out[key] = c / term
    return TruncatedSeries2(out, F.order + 1, F.backend)


def _check_var(var: int) -> None:
    if var not in (0, 1):
        raise ValueError(f"var must be 0 (x) or 1 (y), got {var!r}")


def _node_family(params: LucasParams):
    phi, phi_prime = params.require_roots()
    for lead, other in ((phi, phi_prime), (phi_prime, phi)):
        # abs gives conjugate roots equal moduli exactly, where |other / lead| can
        # round below 1; a ratio that rounds to 1 would zero the tail bound's 1 - |ratio|
        if magnitude(other) < magnitude(lead):
            ratio = other / lead
            if magnitude(ratio) < 1:
                return lead, other, ratio
    raise NonContractingNodes(
        f"neither root ratio contracts for {params}; the node series cannot converge"
    )


def integral_value(
    f: RealFn, a: Scalar, b: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    """Definite integral of f from a to b over the contracting node family.

    The node family is chosen by the contraction test |ratio| < 1 (only a
    contracting family can converge, whichever printed condition a source
    attaches to it).  Term k is prefactor * (b f(b n_k) - a f(a n_k)) * n_k
    with |n_k| = |ratio|^k / |lead|.  The scale is the largest of 1, |total|
    and |b f(b n)| + |a f(a n)| seen so far, so while the boundary parts
    stay within it (the nodes shrink toward 0, where f(b n) and f(a n)
    meet f(0)), scale * |prefactor| * |ratio|^(k+1) / (|lead| (1 - |ratio|))
    bounds the terms after k.  Partial sums stop once that tail bound drops
    below eps * max(1, |total|); a non-finite partial sum raises
    NonConvergent at once.  As the scale is at least max(1, |total|), a
    ratio whose bound at the budget's last term is 2 eps or more (eps plus room
    for rounding) can never stop the sum, and raises NonConvergent before it.
    An eps that is not a finite number above 0 raises ValueError.
    """
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be a finite number above 0, got {eps!r}")
    if params.backend is not Backend.COMPLEX:
        raise NonContractingNodes("the node-series integral runs on the float backend")
    if a == b:
        return 0.0
    lead, other, ratio = _node_family(params)
    prefactor = lead - other
    rmag = magnitude(ratio)
    if magnitude(prefactor) * rmag**_MAX_TERMS / (magnitude(lead) * (1.0 - rmag)) >= 2 * eps:
        raise NonConvergent(f"node ratio modulus {rmag!r} is too close to 1 for a {_MAX_TERMS}-term sum")
    total = 0.0
    node = 1.0 / lead
    scale = 1.0
    for k in range(_MAX_TERMS):
        fb = b * f(b * node)
        fa = a * f(a * node)
        total = total + prefactor * (fb - fa) * node
        if not magnitude(total) < math.inf:  # inf or NaN never decays; stop here, not at the budget
            raise NonConvergent(f"partial sum {k} of the node series is not finite")
        scale = max(scale, magnitude(fb) + magnitude(fa), magnitude(total))
        tail = scale * magnitude(prefactor) * (rmag ** (k + 1)) / (magnitude(lead) * (1.0 - rmag))
        if tail < eps * max(1.0, magnitude(total)) and k >= 2:
            return total
        node = node * ratio
    raise NonConvergent("no decay detected within the term budget")


def integration_by_parts_residual(
    f: RealFn, g: RealFn, a: Scalar, b: Scalar, params: LucasParams, eps: float = 1e-12
) -> Scalar:
    """Difference between the two sides of the integration-by-parts formula.

    Integral of (Df)(x) g(phi' x) versus [f g] at the endpoints minus the
    integral of f(phi x) (Dg)(x); zero up to quadrature error for smooth f, g.
    """
    phi, phi_prime = params.require_roots()
    lhs = integral_value(lambda x: derivative_value(f, x, params) * g(phi_prime * x), a, b, params, eps)
    boundary = f(b) * g(b) - f(a) * g(a)
    rhs = boundary - integral_value(
        lambda x: f(phi * x) * derivative_value(g, x, params), a, b, params, eps
    )
    return lhs - rhs
