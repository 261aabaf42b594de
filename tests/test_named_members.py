"""The exact records and series at the members the paper's calculus is named for.

The suite's samplers draw distinct rational roots only.  Here every exact
record runs once at fixed members: repeated roots, irrational and complex
roots, and a vanishing {k}.  Each record either passes or raises one of the
documented errors listed with its reason; a bare Python exception fails.  An
independent Taylor oracle from ``math.factorial`` checks the exact series at
the two members where u^T(m) / {m}! is 1/m!.
"""

import math
import random
from fractions import Fraction as F

import pytest

from lucascalc import (
    Backend,
    DivisionByZeroFactor,
    DivisionByZeroValue,
    FnKind,
    GaussianRational,
    LucasError,
    RootsUnavailable,
    VanishingFactor,
    binomial_series2,
    fn_series,
    make_params,
    promote,
    promote_params,
)
from lucascalc.identities import (
    BIVARIATE_EXACT,
    CATALOG,
    QUOTIENT_TOL,
    SERIES_EXACT,
    UNIVARIATE_ORDER,
    _compare,
    _Reject,
)

MEMBERS = {
    "classical": (F(2), F(-1)),  # repeated root 1, {n} = n
    "half": (F(1), F(-1, 4)),  # repeated root 1/2, {n} = n / 2^(n-1)
    "fibonacci": (F(1), F(1)),
    "pell": (F(2), F(1)),
    "jacobsthal": (F(1), F(2)),
    "mersenne": (F(3), F(-2)),
    "q-member": (F(3, 2), F(-1, 2)),  # s = 1 + q, t = -q at q = 1/2
    "complex-roots": (F(2), F(-3, 2)),  # roots 1 ± i/√2, ratio not a root of unity
    "vanishing": (F(1), F(-1)),  # {3} = 0
}

# the documented errors a record may raise at a member, each with its reason
DOCUMENTED = {
    RootsUnavailable: "the record reads the roots, and the member has none in the record's backend",
    VanishingFactor: "a series coefficient divides by a {k}! with {k} = 0",
    DivisionByZeroFactor: "a Lucasnomial's telescoped denominator holds a {k} = 0",
    DivisionByZeroValue: "the product rule's float spot check is a divided difference, none at phi = phi'",
}

# members whose roots lie in both exact backends and whose {k} never vanish: every
# record passes, save the product rule's spot check at a repeated root
ROOTED = {"classical", "half", "jacobsthal", "mersenne", "q-member"}
REPEATED = {"classical", "half"}
EXACT_IDS = [id for id, r in CATALOG.items() if r.check_kind in (SERIES_EXACT, BIVARIATE_EXACT)]


def _params(member, sampler):
    params = make_params(*MEMBERS[member])
    return promote_params(params, Backend.GAUSSIAN) if sampler == "gaussian" else params


def _run(record, params):
    """None when the record's sides agree at params, else what went wrong."""
    rng = random.Random(f"{record.id}|{params}")
    for _ in range(50):
        try:
            checks = record.sides(rng, params, UNIVARIATE_ORDER)
            pending = next(checks)
        except _Reject:
            continue
        while pending is not None:
            failure = _compare(*pending, QUOTIENT_TOL)
            if failure is not None:
                return f"mismatch {failure}"
            pending = next(checks, None)
        return None
    return "no admissible draw"


@pytest.mark.parametrize("member", sorted(MEMBERS))
def test_every_exact_record_passes_or_raises_a_documented_error(member):
    raised = {}
    for id in EXACT_IDS:
        record = CATALOG[id]
        try:
            outcome = _run(record, _params(member, record.sampler))
        except LucasError as exc:
            assert type(exc) in DOCUMENTED, f"{id} at {member}: {type(exc).__name__}: {exc}"
            raised[id] = type(exc)
            continue
        assert outcome is None, f"{id} at {member}: {outcome}"
    if member in ROOTED:
        spot_checks = {"calc-product-rule-1", "calc-product-rule-2"} if member in REPEATED else set()
        assert raised == dict.fromkeys(spot_checks, DivisionByZeroValue)
    else:
        assert raised, "a member without roots fails the records that read them"


def test_records_that_read_roots_raise_roots_unavailable_at_fibonacci():
    needs_roots = {
        "pascal-1",
        "pascal-2",
        "binom-props-1",
        "binom-props-2",
        "exp-recip-pair",
        "exp-alpha-beta-functional",
        "coro4-2",
        "pytha-3",
        "calc-product-rule-1",
        "calc-product-rule-2",
    }
    for id in sorted(needs_roots):
        with pytest.raises(RootsUnavailable):
            _run(CATALOG[id], _params("fibonacci", CATALOG[id].sampler))


# primary kinds: (first degree, degree step, alternating sign?)
TAYLOR = {
    FnKind.EXP: (0, 1, False),
    FnKind.SIN: (1, 2, True),
    FnKind.COS: (0, 2, True),
    FnKind.SINH: (1, 2, False),
    FnKind.COSH: (0, 2, False),
}


def _taylor(kind, order):
    first, step, alternating = TAYLOR[kind]
    coeffs = [F(0)] * (order + 1)
    for j, m in enumerate(range(first, order + 1, step)):
        coeffs[m] = F(-1 if alternating and j % 2 else 1, math.factorial(m))
    return coeffs


# at s = 2, t = -1, {m} = m, so u = 1 gives u^T(m) / {m}! = 1/m!; at s = 1, t = -1/4
# (c = 4), {m} = m / 2^(m-1) and {m}! = m! / 2^T(m), so u = 1/2 gives 1/m! too
TAYLOR_MEMBERS = [((F(2), F(-1)), F(1)), ((F(1), F(-1, 4)), F(1, 2))]


@pytest.mark.parametrize("backend", [Backend.RATIONAL, Backend.GAUSSIAN])
@pytest.mark.parametrize("member, u", TAYLOR_MEMBERS)
@pytest.mark.parametrize("kind", sorted(TAYLOR))
def test_exact_series_are_the_taylor_coefficients(kind, member, u, backend):
    params = promote_params(make_params(*member), backend)
    series = fn_series(kind, promote(u, backend), params, 20)
    assert list(series.coeffs) == _taylor(kind, 20)


@pytest.mark.parametrize("backend", [Backend.RATIONAL, Backend.GAUSSIAN])
@pytest.mark.parametrize("member, u", TAYLOR_MEMBERS)
def test_exact_bivariate_exponential_is_the_outer_taylor_product(member, u, backend):
    params = promote_params(make_params(*member), backend)
    u = promote(u, backend)
    order = 14
    series = binomial_series2(FnKind.EXP, u, u, params, order)
    for j in range(order + 1):
        for k in range(order + 1 - j):
            expect = F(1, math.factorial(j) * math.factorial(k))
            got = series.coefficient(j, k)
            assert got == expect and type(got) is (F if backend is Backend.RATIONAL else GaussianRational)
