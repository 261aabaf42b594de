"""Deformed exponential, trigonometric, and hyperbolic function families.

Every family is a power series whose degree-m coefficient carries a
deformation weight w(m) divided by the factorial analogue {m}!:

* exp:   all m,       sign +1
* sin:   m = 2j+1,    sign (-1)^j         sinh: same without signs
* cos:   m = 2j,      sign (-1)^j         cosh: same without signs

With power weights w(m) = u^T(m) these are the one-parameter functions;
the multinomial, deformed-zero and binomial-combination variants swap in
another weight family.  Every series is one sign-and-degree pattern over a
row of degree-m coefficients: w(m) / {m}!, signed as it is built, of the
family for :func:`weighted_fn_series` and of the power weights u^T(m) for
the exact :func:`fn_series`, and for :func:`multinomial_series` the product
of the parts' rows, which already carries the 1/{m}!.  Over the exact
backends the row is the integer columns of
``deformed.coefficient_columns``, or of the product, which
``TruncatedSeries.from_columns`` takes with no value built; over the floats
it is ``deformed.power_coefficient``'s values.  Each series producer grows
the sequence to its top degree once, before its loop.  :func:`fn_value_info`
sums ratio-form terms on the ratio tables of (u, params), kept here under
one module lock, and every weight family's value goes through
:func:`weighted_fn_value`.
tan/sec (and tanh/sech) are series quotients; cot/csc/coth/csch have a
pole at 0 and exist as values only.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import itertools
import math
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

from .deformed import (
    DeformedPowerWeights,
    DeformedZeroWeights,
    MultinomialWeights,
    PowerWeights,
    Weights,
    coefficient_columns,
    deformed_row,
    deformed_row_columns,
    power_coefficient,
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
    backend_of,
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

# the relative tolerance every point value sums to: fn_value_info's default, and the
# one the weighted values and find_pi_u's sine sums use
_EPS = 1e-12

_GROWTH_LIMIT = 8
_SMALL_RUN = 3
_MAX_VALUE_TERMS = 512

# find_pi_u: scan step, final bracket width, and the most scan points one call takes
_PI_SCAN_STEP = 0.05
_PI_BRACKET_TOL = 1e-13
_PI_MAX_SCAN_POINTS = 100_000
# find_pi_u's certified skips: the window one derivative majorant serves, the share of
# its proven zero-free reach a skip takes, and the calibrated multiple of
# 2^-53 * sum_j (j+1) |t_j| that bounds a float sum's rounding (tests/test_oracle.py)
_PI_WINDOW = 2.0
_PI_SKIP_SHARE = 0.9
_ROUNDINGS = 32
_ULP = 2.0**-53


@dataclass(frozen=True)
class EvalInfo:
    """Adaptive evaluation result with the number of series terms consumed."""

    value: Scalar
    terms_used: int


def _adaptive_sum(terms, eps: float) -> tuple[Scalar, int]:
    """Sum terms until three in a row have magnitudes at or below eps * scale,
    and return (sum, number of terms drawn); no terms give (None, 0).

    scale is the running maximum magnitude of the partial sums.  Eight terms
    in a row above eps * scale, each larger than the one before, raise
    SeriesDiverging, as do exhausting the term budget, a partial sum that is
    not finite (a float inf or NaN term makes one), an exact term too large
    for a float, and an OverflowError while drawing a term (float powers of a
    large u or x).  Float and complex terms are measured with the builtin
    ``abs``, which is what :func:`magnitude` returns for them.
    """
    inf = math.inf
    terms = iter(terms)
    try:
        if (total := next(terms, None)) is None:
            return None, 0
        size = abs if isinstance(total, (float, complex)) else magnitude
        prev_mag = scale = size(total)
        if not scale < inf:  # inf or NaN: every later term looks small
            raise SeriesDiverging("non-finite term or partial sum encountered")
        tol = eps * scale
        small_run = 1 if prev_mag <= tol else 0  # one term is never a run of _SMALL_RUN
        grow_run = 0  # the first term never counts as growth
        count = 1
        for term in terms:
            count += 1
            mag = size(term)
            total = total + term
            total_mag = size(total)
            if not total_mag < inf:
                raise SeriesDiverging("non-finite term or partial sum encountered")
            if total_mag > scale:
                scale = total_mag
                tol = eps * scale
            if mag <= tol:
                small_run += 1
                if small_run >= _SMALL_RUN:
                    return total, count
                grow_run = 0
            else:
                small_run = 0
                if mag > prev_mag:
                    if mag == inf:  # an exact term past float range, its partial sum not
                        raise SeriesDiverging("non-finite term or partial sum encountered")
                    grow_run += 1
                    if grow_run >= _GROWTH_LIMIT:
                        raise SeriesDiverging(f"terms grew for {_GROWTH_LIMIT} consecutive orders")
                else:
                    grow_run = 0
            prev_mag = mag
            if count >= _MAX_VALUE_TERMS:
                raise SeriesDiverging("series did not settle within the term budget")
    except OverflowError:
        raise SeriesDiverging("non-finite term or partial sum encountered") from None
    return total, count


def _require_series_kind(kind: FnKind) -> None:
    if kind not in SERIES_KINDS:
        raise PoleAtOrigin(f"{kind.value} has a pole at 0; evaluate it pointwise instead")


def _pattern_series(
    kind: FnKind, coefficients: Callable[[range, list], list | tuple], order: int, backend: Backend
) -> TruncatedSeries:
    """Series of a series kind whose primary kinds take their coefficients
    from coefficients(degrees, negatives), with negatives[j] true where the
    pattern's sign at degrees[j] is -1.

    Only the degrees a primary kind's pattern reaches are read.  Quotient
    kinds multiply the numerator series by the reciprocal of the denominator
    series, both over the same coefficients.
    """
    if kind in _QUOTIENTS:
        numerator, denominator = _QUOTIENTS[kind]
        recip = _pattern_series(denominator, coefficients, order, backend).reciprocal()
        if numerator is None:
            return recip
        return _pattern_series(numerator, coefficients, order, backend) * recip
    first, step, alternating = _PRIMARY[kind]
    degrees = range(first, order + 1, step)
    negatives = [alternating and j % 2 == 1 for j in range(len(degrees))]
    return _placed(coefficients(degrees, negatives), first, step, order, backend)


def _placed(formed: list | tuple, first: int, step: int, order: int, backend: Backend) -> TruncatedSeries:
    """The series with formed at the degrees first, first + step, ... up to order, and 0 elsewhere.

    formed is a list of values, or integer columns (re, im, dens) from
    ``deformed.coefficient_columns``, which go to ``TruncatedSeries.from_columns``.
    """
    if isinstance(formed, list):
        coeffs = [backend_zero(backend)] * (order + 1)
        coeffs[first::step] = formed
        return TruncatedSeries(coeffs, backend)
    re, dens, im = [0] * (order + 1), [1] * (order + 1), None
    re[first::step], dens[first::step] = formed[0], formed[2]
    if formed[1] is not None:
        im = [0] * (order + 1)
        im[first::step] = formed[1]
    return TruncatedSeries.from_columns(re, im, dens, backend)


def _grow_sequence(params: LucasParams, order: int) -> None:
    """Grow the sequence of params to degree order in one lock take, before a series' loop.

    Only the sequence grows: a vanishing {k}, k <= order, raises
    VanishingFactor at the first degree the series reads past it, not here.
    """
    with contextlib.suppress(VanishingFactor):
        params.cache.factorial_parts(max(order, 0))


def _coefficients(u: Scalar | Weights, params: LucasParams) -> Callable[[range, list], list | tuple]:
    """The signed coefficients w(m) / {m}! of a deformation or weight family u, for :func:`_pattern_series`.

    Over the exact backends they are the integer columns of
    :func:`~lucascalc.deformed.coefficient_columns`; over the floats, and for
    a family value outside the parameters' exact backend, a list of
    :func:`~lucascalc.deformed.power_coefficient` values.
    """

    def formed(degrees: range, negatives: list) -> list | tuple:
        if params.backend is not Backend.COMPLEX:
            columns = coefficient_columns(u, params, degrees, negatives)
            if columns is not None:
                return columns
        return [power_coefficient(u, params, m, negative) for m, negative in zip(degrees, negatives)]

    return formed


def weighted_fn_series(
    kind: FnKind, weights: Weights, params: LucasParams, order: int
) -> TruncatedSeries:
    """Series of a kind with an arbitrary weight family: degree m carries w(m) / {m}!.

    The coefficients come from :func:`_coefficients`, signed as they are built.
    """
    _require_series_kind(kind)
    common_backend(weights(0), params.s)
    _grow_sequence(params, order)
    return _pattern_series(kind, _coefficients(weights, params), order, params.backend)


def fn_series(kind: FnKind, u: Scalar, params: LucasParams, order: int) -> TruncatedSeries:
    """Power-series expansion of a one-parameter function family member.

    The u = 0 limits come out of the same formula via the 0^0 = 1
    convention: only the degree 0 and 1 weights survive.  Over the exact
    backends the degrees the kind reads are one call of
    :func:`~lucascalc.deformed.coefficient_columns`, signed as they are
    built; the floats keep the running product of :class:`PowerWeights`.
    """
    if params.backend is Backend.COMPLEX:
        return weighted_fn_series(kind, PowerWeights(u), params, order)
    backend_of(u)  # an unsupported type raises before the kind is checked, as PowerWeights(u) does
    _require_series_kind(kind)
    common_backend(u, params.s)
    _grow_sequence(params, order)
    return _pattern_series(kind, _coefficients(u, params), order, params.backend)


_TABLE_LOCK = threading.Lock()  # the ratio tables' slots and growth; never nests with a SeqCache lock


def _value_tables(u: Scalar, params: LucasParams) -> list:
    """The point-value ratio tables of (u, params), [even, odd, exp]: the even
    table serves cos and cosh, the odd one sin and sinh.

    The slot on ``params.cache`` keeps the tables of the last u asked for; a
    later u of the same type that compares equal gets the same list.  A float
    or complex u with a zero part gets fresh tables and leaves the slot alone:
    u = 0.0 and -0.0 compare equal, but the sign of a zero changes ``u ** k``.
    """
    cache = params.cache
    slot = cache._value_slot
    if type(slot[0]) is type(u) and slot[0] == u:
        return slot[1]
    with _TABLE_LOCK:
        slot = cache._value_slot
        if type(slot[0]) is type(u) and slot[0] == u:
            return slot[1]
        tables = [(), (), ()]
        if not ((u.real == 0 or u.imag == 0) if isinstance(u, complex) else (isinstance(u, float) and u == 0)):
            cache._value_slot = (u, tables)
    return tables


def _add_value_step(tables: list, which: int, index: int, step: tuple) -> None:
    """Extend ``tables[which]`` from :func:`_value_tables` by step if index is its length.

    A table is a tuple that a longer one replaces, so a reader holding it
    keeps a snapshot.  Another thread may have added the same step since
    the caller read the table; its value is the same, so it is not added
    twice.
    """
    with _TABLE_LOCK:
        steps = tables[which]
        if len(steps) == index:
            tables[which] = steps + (step,)


def _primary_value_terms(kind: FnKind, x: Scalar, u: Scalar, params: LucasParams, tables: list):
    """Incremental term generator; consecutive-term ratios avoid huge powers.

    ``tables`` holds the ratio tables of (u, params) from
    :func:`_value_tables`, which every kind and every point at that u
    share: ``tables[first]`` for sin, cos and the hyperbolic kinds,
    ``tables[2]`` for exp.  Step j takes term j to term j+1 as the pair
    (divisor, power): for exp, with n = j + 1, {n} and u^(n-1) as a running
    product; for the other kinds the steps :func:`_ratio_steps` forms.  A table
    is a tuple that a longer one replaces, so a sum reads the one it found as
    a snapshot and forms each later step only when it first needs it: a
    vanishing {k} raises VanishingFactor, and a float power of u that
    overflows or a divisor that underflows to 0 raises OverflowError, at the
    same term as without the table, and neither leaves a step behind.  A new
    step is offered by its own index, counted on from the snapshot's length,
    never by the table's length after the loop (:func:`_add_value_step`).
    At x = 0 every term after the first vanishes, so only the first is drawn.
    """
    first, step, alternating = _PRIMARY[kind]
    term = x if first == 1 else backend_one(params.backend)
    yield term
    if x == 0:
        return
    if step == 1:  # exp (kind is FnKind.EXP would cost an enum attribute lookup per sum)
        known = tables[2]
        for d, p in known:
            term = term * p * x / d
            yield term
        seq = params.cache.u
        p = known[-1][1] * u if known else backend_one(params.backend)
        for n in itertools.count(len(known) + 1):
            d = seq(n)
            if d == 0:
                raise VanishingFactor(n)
            _add_value_step(tables, 2, n - 1, (d, p))
            term = term * p * x / d
            yield term
            p = p * u
    known = tables[first]
    xx = x * x
    for d, p in known:
        factor = xx / d * p
        term = term * (-factor if alternating else factor)
        yield term
    for d, p in _ratio_steps(u, params, tables, first, len(known)):
        factor = xx / d * p
        term = term * (-factor if alternating else factor)
        yield term


def _ratio_steps(u: Scalar, params: LucasParams, tables: list, first: int, start: int):
    """Form steps start, start+1, ... of ``tables[first]``, the table of the
    kinds whose degrees start at first and rise by 2, offering each to the
    table by its own index before it is yielded.

    With m = first + 2j step j is ({m+1}{m+2}, u**(2m+1)): term j+1 is term j
    times x^2 u^(2m+1) / ({m+1}{m+2}).  A vanishing {k} raises
    VanishingFactor, and a float power of u that overflows or a product
    {m+1}{m+2} that underflows to 0 raises OverflowError, all before the step
    is offered.
    """
    seq = params.cache.u
    for j in itertools.count(start):
        m = first + 2 * j
        d1 = seq(m + 1)
        if d1 == 0:
            raise VanishingFactor(m + 1)
        d2 = seq(m + 2)
        if d2 == 0:
            raise VanishingFactor(m + 2)
        if (d := d1 * d2) == 0:  # the product of two tiny floats
            raise OverflowError(f"{{{m + 1}}}{{{m + 2}}} underflows to 0")
        step = (d, u ** (2 * m + 1))
        _add_value_step(tables, first, j, step)
        yield step


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
        return EvalInfo(*_adaptive_sum(terms(kind, *args), eps))
    numerator, denominator = _QUOTIENTS[kind]
    den, den_used = _adaptive_sum(terms(denominator, *args), eps)
    if den == 0:
        raise DivisionByZeroValue(f"{denominator.value} vanished in a quotient")
    if numerator is None:
        value, used = 1 / den, den_used
    else:
        num, num_used = _adaptive_sum(terms(numerator, *args), eps)
        value, used = num / den, num_used + den_used
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise DivisionByZeroValue(f"{kind.value} is not finite: {denominator.value} is too small")
    return EvalInfo(value, used)


def fn_value_info(
    kind: FnKind, x: Scalar, u: Scalar, params: LucasParams, eps: float = _EPS
) -> EvalInfo:
    """Adaptive point evaluation, reporting the value and terms consumed.

    The sum reads the ratio tables of (u, params) from the one-entry slot on
    ``params.cache`` (:func:`_value_tables`), which every kind and every
    call at the parameters' most recent u share and which grow under this
    module's lock; values are what fresh tables give, bit for bit.  The
    backends are checked before the slot is read, so a u of another backend
    leaves it alone.  An eps not a finite number above 0 raises ValueError.
    """
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be a finite number above 0, got {eps!r}")
    if not (backend_of(x) is backend_of(u) is params.backend):
        common_backend(x, u, params.s)  # raises, naming the backends of all three
    return _value_info(kind, _primary_value_terms, eps, x, u, params, _value_tables(u, params))


def fn_value(kind: FnKind, x: Scalar, u: Scalar, params: LucasParams) -> Scalar:
    return fn_value_info(kind, x, u, params).value


def weighted_fn_value(kind: FnKind, weights: Weights, x: Scalar, params: LucasParams) -> Scalar:
    """Adaptive evaluation of any kind with an arbitrary weight family at a point.

    The point and the weights' degree-0 value must share the parameters' backend.
    """
    common_backend(x, weights(0), params.s)
    return _value_info(kind, _weighted_terms, _EPS, weights, x, params).value


def multinomial_series(
    kind: FnKind, us: Sequence[Scalar], params: LucasParams, order: int
) -> TruncatedSeries:
    """Series of the multinomial-weighted family member: the kind's pattern over
    the product of the parts' rows u^T(m) z^m / {m}!.

    Each row is one :func:`_coefficients` call, over the floats the
    u ** T(m) / {m}! that :class:`MultinomialWeights` forms, and the rows are
    multiplied as ``row * product`` from the first part on, so the exact
    backends run the integer kernel of ``*`` and each float coefficient adds
    its terms in the order the point path does.  The pattern is read from the
    product's integer columns over the exact backends.  The rows stop at the
    last degree the kind reads, so a vanishing {k} past it is never divided by.
    """
    us = MultinomialWeights(us, params).us  # no parts, or parts of another backend, raise here
    _require_series_kind(kind)
    parts = [_PRIMARY[part] for part in _QUOTIENTS.get(kind, (kind,)) if part is not None]
    top = max(0, *(order - (order - first) % step for first, step, _ in parts))
    _grow_sequence(params, top)
    backend = params.backend
    degrees = range(top + 1)
    rows = [_placed(_coefficients(u, params)(degrees, [False] * (top + 1)), 0, 1, top, backend) for u in us]
    product = reduce(lambda product, row: row * product, rows)
    if backend is Backend.COMPLEX:
        coeffs = product.coeffs

        def picked(degrees: range, negatives: list) -> list:
            return [-coeffs[m] if negative else coeffs[m] for m, negative in zip(degrees, negatives)]

    else:
        re, im, den = product.columns()

        def picked(degrees: range, negatives: list) -> tuple:
            signed = [(m, -1 if negative else 1) for m, negative in zip(degrees, negatives)]
            return [re[m] * sign for m, sign in signed], im and [im[m] * sign for m, sign in signed], [den] * len(signed)

    return _pattern_series(kind, picked, order, backend)


def multinomial_value(kind: FnKind, us: Sequence[Scalar], x: Scalar, params: LucasParams) -> Scalar:
    """Point value of the multinomial-weighted family member."""
    return weighted_fn_value(kind, MultinomialWeights(tuple(us), params), x, params)


def deformed_zero_series(
    kind: FnKind, u: Scalar, v: Scalar, params: LucasParams, order: int
) -> TruncatedSeries:
    return weighted_fn_series(kind, DeformedZeroWeights(u, v, params), params, order)


def deformed_zero_value(kind: FnKind, u: Scalar, v: Scalar, x: Scalar, params: LucasParams) -> Scalar:
    return weighted_fn_value(kind, DeformedZeroWeights(u, v, params), x, params)


def binomial_series2(
    kind: FnKind, u: Scalar, v: Scalar, params: LucasParams, order: int
) -> TruncatedSeries2:
    """Bivariate series built from the deformed powers of (x, y).

    Entry (n-k, k) is ±C(n,k) u^T(n-k) v^T(k) / {n}!: row n is one
    :func:`~lucascalc.deformed.deformed_row`, over the exact backends as its
    integer columns (:func:`~lucascalc.deformed.deformed_row_columns`), which
    go over one denominator together.  The powers of u and v are formed once
    per series, and the sequence is grown to the order once.
    """
    if kind not in _PRIMARY:
        raise PoleAtOrigin(f"{kind.value} has no bivariate series form")
    common_backend(u, v, params.s)
    first, step, alternating = _PRIMARY[kind]
    u_weights, v_weights = PowerWeights(u), PowerWeights(v)
    _grow_sequence(params, order)
    rows = range(first, order + 1, step)
    if params.backend is Backend.COMPLEX:
        out: dict[tuple[int, int], Scalar] = {}
        for j, n in enumerate(rows):
            for k, c in enumerate(deformed_row(n, u_weights, v_weights, params, alternating and j % 2 == 1)):
                out[(n - k, k)] = c
        return TruncatedSeries2(out, order, params.backend)
    keys, re, im, dens = [], [], [], []
    for j, n in enumerate(rows):
        row_re, row_im, row_dens = deformed_row_columns(n, u_weights, v_weights, params, alternating and j % 2 == 1)
        keys += [(n - k, k) for k in range(n + 1)]
        re += row_re
        im += [0] * (n + 1) if row_im is None else row_im
        dens += row_dens
    return TruncatedSeries2.from_columns(keys, re, im if any(im) else None, dens, order, params.backend)


def weighted_binomial_value(
    kind: FnKind,
    x_weights: Weights,
    y_weights: Weights,
    x: Scalar,
    y: Scalar,
    params: LucasParams,
) -> Scalar:
    """Point value of a binomial combination with weight families on both slots.

    This is the weighted family at 1 whose degree-N weight is the sum over k
    of C(N,k) xw(N-k) yw(k) x^(N-k) y^k, one degree of
    :class:`DeformedPowerWeights` with the families in its slots: each
    family is called once per degree and each row formed once.  The points
    and the weights' degree-0 values must share the parameters' backend.
    """
    return weighted_fn_value(
        kind, DeformedPowerWeights(x, y, x_weights, y_weights, params), backend_one(params.backend), params
    )


def binomial_value(
    kind: FnKind, x: Scalar, y: Scalar, u: Scalar, v: Scalar, params: LucasParams
) -> Scalar:
    """Point value of the two-deformation binomial combination of (x, y)."""
    return weighted_binomial_value(kind, PowerWeights(u), PowerWeights(v), x, y, params)


_TILDE_KINDS = {FnKind.SIN, FnKind.COS, FnKind.SEC, FnKind.CSC, FnKind.TAN, FnKind.COT}


def tilde_value(kind: FnKind, x: Scalar, u: Scalar, params: LucasParams) -> Scalar:
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
        return fn_value(kind, x, u, params)
    normalizer = deformed_zero_value(FnKind.COS, u, u, x, params)
    if isinstance(normalizer, complex) or normalizer <= 0:
        raise NegativeNormalizer(f"deformed-zero cosine at {x} is {normalizer}")
    root = normalizer**0.5
    value = fn_value(kind, x, u, params)
    return value / root if kind in _PRIMARY else value * root


@dataclass(frozen=True)
class PiU:
    """First positive zero of the sine family member, with its residual."""

    params: LucasParams
    u: Scalar
    value: float
    residual: float


def _sine_majorant(u: float, params: LucasParams, tables: list):
    """The majorant M(X) = sum_j (2j+1) |a_j| X^(2j) of the sine
    sum_j a_j x^(2j+1) of (u, params), which bounds |sin'| on [0, X], as a
    function of X; None where no bound can be proven.

    The function returns the tail sums of M(X): entry k bounds
    sum_(j>=k) (2j+1) |a_j| X^(2j), so entry 0 is M(X), and the last entry,
    at the step J where its pass stops, bounds the whole tail from J on.
    |a_(j+1)| / |a_j| is |p / d| for step j of the sine's ratio table
    ``tables[1]``, read as the sums read it and formed by :func:`_ratio_steps`
    where the table ends.

    The tail bound is geometric.  With phi the root of larger modulus and
    |psi| < |phi|, |{n}| >= (|phi|^n - |psi|^n) / |phi - psi|, so with
    q = |u| / |phi|, r = |psi| / |phi| and m = 2j + 1, the ratio of terms j+1
    and j of M is at most

        B_j = (2j+3)/(2j+1) X^2 q^(2m+1) |phi - psi|^2 / |phi|^2 / ((1 - r^(m+1)) (1 - r^(m+2))),

    which falls with j once q < 1.  So the terms from J on sum to at most
    term J / (1 - B_J) when B_J < 1, and a pass stops at the first J where
    that is at most 2^-53 of the terms before it.  X^2 is widened by 2^-30,
    which covers the rounding of the float {n} and of the pass itself, so M
    is no smaller than the same sum in exact arithmetic.

    None when |u| >= |phi| or |psi| = |phi| (the complex roots of
    s^2 + 4t < 0, and the repeated root, as at s = 2, t = -1).  The function
    returns None when its pass meets a vanishing {k}, a float exception (an
    overflowing power of u, a product of {k} that underflows to 0), a
    non-finite M or the term budget, and when eight steps in a row have
    a term ratio |p / d| X^2 of 1 or more: a sum at some x <= X could then
    meet the summer's growth backstop, which a skipped point must not hide.
    """
    phi, psi = abs(params.phi), abs(params.phi_prime)
    if psi > phi:
        phi, psi = psi, phi
    if not (psi < phi and abs(u) < phi):
        return None
    q, r = abs(u) / phi, psi / phi
    spread = abs(params.phi - params.phi_prime) ** 2 / (phi * phi)

    def tails(X: float):
        XX = (1 + 2.0**-30) * X * X
        scale = spread * XX
        known = tables[1]
        steps = itertools.chain(known, _ratio_steps(u, params, tables, 1, len(known)))
        terms, total, term, run = [1.0], 1.0, 1.0, 0
        try:
            for j, (d, p) in zip(range(_MAX_VALUE_TERMS), steps):  # step j: term j to term j+1
                ratio = abs(p / d) * XX
                run = run + 1 if ratio >= 1 - 2.0**-30 else 0
                if run >= _GROWTH_LIMIT:
                    return None
                term *= ratio * (2 * j + 3) / (2 * j + 1)
                if term <= _ULP * total:  # else the tail from j+1 is no smaller, whatever B_(j+1)
                    m = 2 * j + 3
                    bound = (m + 2) / m * scale * q ** (2 * m + 1) / ((1 - r ** (m + 1)) * (1 - r ** (m + 2)))
                    if bound < 1 and term / (1 - bound) <= _ULP * total:
                        break
                terms.append(term)
                total += term
            else:
                return None
        except (VanishingFactor, ArithmeticError):
            return None
        sums = list(itertools.accumulate(reversed(terms), initial=term / (1 - bound)))
        sums.reverse()
        return sums if sums[0] < math.inf else None

    return tails


def find_pi_u(params: LucasParams, u: Scalar, x_max: float = 10.0) -> PiU:
    """Scan (0, x_max] on a grid of step 0.05 for the first sign change of
    sin, skipping the grid points it proves zero-free, and narrow that
    bracket to a width of 1e-13 by Illinois regula falsi.

    A skip is one Lipschitz bound (Moore, Kearfott & Cloud, *Introduction to
    Interval Analysis*, SIAM 2009, ch. 8).  M = :func:`_sine_majorant` at
    w + 2 bounds |sin'| on a window [w, w + 2], and every point summed in
    the window reuses it.  From a summed point x the scan skips the grid
    points up to its reach: the window's end while the majorant's terms after
    the first sum to less than 0.9, as sin y / y > 0.1 on (0, w + 2] then;
    else min(x + h, w + 2) for h = 0.9 (|s| - delta) / M, since the sum s is
    within delta = x (32 * 2^-53 M + tail) of the series (the rounding form
    calibrated in tests/test_oracle.py plus the majorant's bound on the terms
    the sum left out), so sin has no zero on [x, x + h].  Where the majorant
    gives no bound (|u| >= |phi|, |psi| = |phi| as on the classical member,
    and so on), the scan sums every grid point.

    The grid points are accumulated as ``x += 0.05`` whether summed or
    skipped, and when the first point summed after a skip has the other sign,
    the last skipped point is summed too, so the bracket, the refinement and
    the root are those of summing every grid point.  A skipped stretch is
    proven zero-free; a 0.05 step between two summed points of one sign is
    not, so two zeros inside one such step go unseen.

    The root is the bracket end with the smaller |sin|, and the residual is
    that |sin|; an exact zero of sin at a scan or refinement point is the
    root itself.  Past x = 512, where the ends are adjacent floats, the float
    sine's own error can make that the end one float farther from the true
    zero: at make_params(2.0, -1.0), u = 0.026, the root returned is 1.006
    ulps from the series' 60-digit root.  No float sum can pick the nearer
    end there.  Every point and every majorant reads the same ratio tables
    of (u, params), bound once, so each ratio of the sine series is formed
    once per search.  Raises NoRootFound on exact parameters, for a complex
    u, s or t, and when no sign change appears before x_max or before the
    series starts diverging; BackendMismatch for a u of another backend; and
    ValueError for an x_max not above 0 or past the scan cap of 5,000.
    """
    if params.backend is not Backend.COMPLEX:
        raise NoRootFound("root scanning runs on the float backend")
    if not x_max > 0:  # NaN too
        raise ValueError(f"x_max must be a finite number above 0, got {x_max!r}")
    if x_max > _PI_MAX_SCAN_POINTS * _PI_SCAN_STEP:
        raise ValueError(f"x_max {x_max:g} is past the scan cap {_PI_MAX_SCAN_POINTS * _PI_SCAN_STEP:g}")
    common_backend(u, params.s)
    if any(isinstance(v, complex) for v in (u, params.s, params.t)):
        raise NoRootFound("root scanning needs a real u, s and t: a complex sine has no sign")
    tables = _value_tables(u, params)

    def s(x: float) -> tuple[float, int]:
        return _adaptive_sum(_primary_value_terms(FnKind.SIN, x, u, params, tables), _EPS)

    limit = x_max + 1e-12
    majorant, end = _sine_majorant(u, params, tables), 0.0
    prev_x = prev_val = skipped = None
    x = _PI_SCAN_STEP
    while x <= limit:
        try:
            val, count = s(x)
        except SeriesDiverging:
            raise NoRootFound(f"series diverges at x={x:.4g} before any sign change") from None
        if val == 0.0:
            return PiU(params, u, x, 0.0)
        if prev_val is not None and (val < 0) != (prev_val < 0):
            if skipped is not None:  # proven of prev_val's sign
                prev_x, prev_val = skipped, s(skipped)[0]
            break
        prev_x, prev_val = x, val
        skipped, x_next = None, x + _PI_SCAN_STEP
        if majorant is not None and x >= end:
            end = x + _PI_WINDOW
            tails = majorant(end)
            if tails is None:  # a later window has no bound either
                majorant = None
        if majorant is not None:
            reach = end  # while |sin y / y - 1| <= tails[1] < 0.9 on (0, end]
            if tails[1] >= _PI_SKIP_SHARE:
                slope = tails[0]
                delta = x * (_ROUNDINGS * _ULP * slope + tails[min(count, len(tails) - 1)])
                reach = min(end, x + _PI_SKIP_SHARE * (abs(val) - delta) / slope)
            while x_next <= reach and x_next <= limit:
                skipped, x_next = x_next, x_next + _PI_SCAN_STEP
        x = x_next
    else:
        raise NoRootFound(f"no sign change of sin on (0, {x_max}]")
    # Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant
    # through the two ends, whose weights start as the sine there and halve
    # at an end kept twice in a row, so both ends close in on the root.
    lo, hi, f_lo, f_hi = prev_x, x, prev_val, val
    w_lo, w_hi = f_lo, f_hi
    kept = None
    while hi - lo > _PI_BRACKET_TOL:
        mid = hi - w_hi * (hi - lo) / (w_hi - w_lo)
        # a secant point that rounds onto an end moves one float inside:
        # beside an end already at the root, that closes the bracket
        mid = min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < mid < hi:  # adjacent floats, wider than the width rule past x = 512
            break
        f_mid = s(mid)[0]
        if f_mid == 0.0:
            return PiU(params, u, mid, 0.0)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo, w_lo = mid, f_mid, f_mid
            if kept == "hi":
                w_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi, w_hi = mid, f_mid, f_mid
            if kept == "lo":
                w_lo *= 0.5
            kept = "lo"
    root, f_root = (hi, f_hi) if abs(f_hi) < abs(f_lo) else (lo, f_lo)
    return PiU(params, u, root, abs(f_root))
