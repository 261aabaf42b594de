"""Divided-difference derivative and node-series integral operators.

The derivative of f at x is (f(phi x) - f(phi' x)) / ((phi - phi') x),
exact on truncated series (power rule a_n -> a_n {n}) and numeric on
black-box functions.  On an exact series whose backend the parameters share,
the power rule and its inverse run on the series' integer form and the
triples of {n} (``SeqCache.u_triple``), and build no scalar.  The definite integral sums f over the contracting
node family r^k / lead, a geometric-type quadrature that inverts the
derivative for integrable functions.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul
from typing import Callable

from .errors import DivisionByZeroValue, NonContractingNodes, NonConvergent, OrderMismatch, VanishingFactor
from .scalars import Backend, LucasParams, Scalar, backend_zero, magnitude, times_columns
from .series import TruncatedSeries, TruncatedSeries2

RealFn = Callable[[Scalar], Scalar]

_ZERO_CUTOFF = 1e-9
_DIFF_STEP = 1e-6
_MAX_TERMS = 10**6


def derivative_value(f: RealFn, x: Scalar, params: LucasParams) -> Scalar:
    """Two-point divided difference of f at x.

    For float arguments with |x| below 1e-9 the symmetric difference
    quotient with step 1e-6 stands in for the derivative at the origin.
    Elsewhere a repeated root, phi = phi', leaves the divided difference no
    denominator and raises DivisionByZeroValue; parameters without roots in
    their backend raise RootsUnavailable.
    """
    phi, phi_prime = params.require_roots()
    if params.backend is Backend.COMPLEX and magnitude(x) < _ZERO_CUTOFF:
        h = _DIFF_STEP
        return (f(h) - f(-h)) / (2 * h)
    if phi == phi_prime:
        raise DivisionByZeroValue(f"phi = phi' = {phi}: the divided difference has no denominator")
    if x == 0:
        raise ZeroDivisionError("exact derivative at 0 needs a series, not a point value")
    return (f(phi * x) - f(phi_prime * x)) / ((phi - phi_prime) * x)


def derivative_series(f: TruncatedSeries, params: LucasParams) -> TruncatedSeries:
    """Power rule on coefficients: a_n z^n -> a_n {n} z^(n-1); order drops by one.

    Over an exact backend shared with the parameters it runs on the integer
    form of the series and the triples of {n}.  Raises OrderMismatch on an
    order-0 series, whose derivative has no known coefficient.
    """
    if f.order == 0:
        raise OrderMismatch("the derivative of an order-0 series has no known coefficient")
    if not _integer(f, params):
        cache = params.cache
        return TruncatedSeries([f.coeffs[n] * cache.u(n) for n in range(1, f.order + 1)], f.backend)
    re, im, den = f.columns()
    ur, ui, ud = _u_columns(params, range(1, f.order + 1))
    re, im = times_columns(re[1:], im and im[1:], ur, ui)
    return TruncatedSeries.from_columns(re, im, [den * d for d in ud], f.backend)


def antiderivative_series(f: TruncatedSeries, params: LucasParams) -> TruncatedSeries:
    """Inverse power rule with zero constant term; order grows by one.

    A vanishing {n+1} under a coefficient a_n raises VanishingFactor(n+1) for the first such n.
    """
    if not _integer(f, params):
        cache = params.cache
        out = [backend_zero(f.backend)]
        for n, a in enumerate(f.coeffs):
            term = cache.u(n + 1)
            if term == 0:
                raise VanishingFactor(n + 1)
            out.append(a / term)
        return TruncatedSeries(out, f.backend)
    re, im, den = f.columns()
    re, im, dens = _over_u(re, im, den, params, range(1, f.order + 2))
    return TruncatedSeries.from_columns([0, *re], im and [0, *im], [1, *dens], f.backend)


def derivative_series2(F: TruncatedSeries2, params: LucasParams, var: int = 0) -> TruncatedSeries2:
    """Partial divided-difference derivative of a bivariate series in x (var 0) or y (var 1).

    Raises OrderMismatch on an order-0 series, as :func:`derivative_series` does,
    and ValueError for any other ``var``.
    """
    _check_var(var)
    if F.order == 0:
        raise OrderMismatch("the derivative of an order-0 series has no known coefficient")
    if not _integer(F, params):
        cache = params.cache
        out = {}
        for (j, k), c in F.coeffs.items():
            if var == 0 and j > 0:
                out[(j - 1, k)] = c * cache.u(j)
            elif var == 1 and k > 0:
                out[(j, k - 1)] = c * cache.u(k)
        return TruncatedSeries2(out, F.order - 1, F.backend)
    keys, re, im, den = F.columns()
    kept = [i for i, key in enumerate(keys) if key[var] > 0]
    ur, ui, ud = _u_columns(params, [keys[i][var] for i in kept])
    re, im = times_columns([re[i] for i in kept], im and [im[i] for i in kept], ur, ui)
    keys = [_moved(keys[i], var, -1) for i in kept]
    return TruncatedSeries2.from_columns(keys, re, im, [den * d for d in ud], F.order - 1, F.backend)


def antiderivative_series2(F: TruncatedSeries2, params: LucasParams, var: int = 0) -> TruncatedSeries2:
    """Partial antiderivative in x (var 0) or y (var 1), zero constant slice.

    A vanishing {m} under a coefficient of degree m - 1 in the variable
    raises VanishingFactor(m) for the first such key, in the order the
    coefficients are stored.  Raises ValueError for any other ``var``.
    """
    _check_var(var)
    if not _integer(F, params):
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
    keys, re, im, den = F.columns()
    re, im, dens = _over_u(re, im, den, params, [key[var] + 1 for key in keys])
    keys = [_moved(key, var, 1) for key in keys]
    return TruncatedSeries2.from_columns(keys, re, im, dens, F.order + 1, F.backend)


def _integer(f, params: LucasParams) -> bool:
    """Whether the power rule runs on the integer form: f and the parameters share an exact backend."""
    return f.backend is params.backend and f.backend is not Backend.COMPLEX


def _u_columns(params: LucasParams, degrees) -> tuple:
    """{n} at the degrees as integer columns (re, im, dens) of ``SeqCache.u_triple``; im None where all are real."""
    triples = list(map(params.cache.u_triple, degrees))
    im = [b for _, b, _ in triples]
    return [a for a, _, _ in triples], (im if any(im) else None), [d for _, _, d in triples]


def _over_u(re: list, im: list | None, den: int, params: LucasParams, degrees) -> tuple:
    """(re[i] + i im[i]) / den divided by {degrees[i]}, as integer columns (re, im, dens).

    (x/den) / ((p+qi)/e) is x (p-qi) e / (den (p^2+q^2)), and x e / (den p)
    where every q is 0.  The first vanishing {m} raises VanishingFactor(m).
    """
    ur, ui, ud = _u_columns(params, degrees)
    for m, p, q in zip(degrees, ur, ui or repeat(0)):
        if not p and not q:
            raise VanishingFactor(m)
    if ui is None:
        re, im = times_columns(re, im, ud, None)
        return re, im, [den * p for p in ur]
    re, im = times_columns(re, im, list(map(mul, ur, ud)), [-q * e for q, e in zip(ui, ud)])
    return re, im, [den * (p * p + q * q) for p, q in zip(ur, ui)]


def _moved(key: tuple[int, int], var: int, step: int) -> tuple[int, int]:
    """The key with its var-th degree moved by step."""
    return (key[0] + step, key[1]) if var == 0 else (key[0], key[1] + step)


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
