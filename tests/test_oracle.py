"""Float point values and the sine zero against a 60-digit mpmath oracle.

The oracle sums the same series, sign * u^T(m) x^m / {m}!, in mpmath with
{n} from its own recurrence in exact s and t, until the terms fall below
1e-70 of the largest one.  Term j of the library's ratio form is a product
of j rounded factors, so its relative error grows with j; the tolerance on a
value is

    |fn_value - oracle| <= VALUE_ROUNDINGS * 2^-53 * sum_j (j + 1) |t_j|,

that is, the term-weighted cancellation ratio sum_j (j + 1) |t_j| / |sum|
times a small multiple of 2^-53, relative to |sum|.  Over 22,787 seeded
draws from the same ranges the largest multiple seen was 10.8, the
truncation at eps = 1e-12 included; the unweighted ratio sum_j |t_j| / |sum|
needed up to 77.  The bound keeps a margin of about three.

A zero found by bisection is off by at most half its 1e-13 bracket, plus
the value tolerance at the zero over the slope there.
"""

import math

import mpmath
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from lucascalc import (
    FnKind,
    NoRootFound,
    SeriesDiverging,
    find_pi_u,
    fn_value,
    fn_value_info,
    make_params,
    params_from_roots,
)

MP = mpmath.MPContext()
MP.dps = 60

VALUE_ROUNDINGS = 32
ULP = 2.0**-53
BISECT_TOL = 1e-13

# (first degree, degree step, alternating sign?)
PRIMARY = {
    FnKind.EXP: (0, 1, False),
    FnKind.SIN: (1, 2, True),
    FnKind.COS: (0, 2, True),
    FnKind.SINH: (1, 2, False),
    FnKind.COSH: (0, 2, False),
}

signs = st.sampled_from((-1.0, 1.0))


@st.composite
def real_root_params(draw, phi_min=1.05, phi_max=3.0, ratio_max=0.85):
    """Float parameters with real roots phi, phi' = r phi, |r| < 1."""
    phi = draw(st.floats(phi_min, phi_max)) * draw(signs)
    psi = draw(st.floats(0.08, ratio_max)) * abs(phi) * draw(signs)
    if abs(phi + psi) < 0.05 or abs(phi * psi) < 0.02:
        reject()
    return params_from_roots(phi, psi)


def oracle_terms(kind, x, u, params):
    """The signed series terms in 60 digits, until they fall below 1e-70 of the largest."""
    first, step, alternating = PRIMARY[kind]
    s, t, x, u = MP.mpf(params.s), MP.mpf(params.t), MP.mpf(x), MP.mpf(u)
    seq, fact = [MP.mpf(0), MP.mpf(1)], [MP.mpf(1), MP.mpf(1)]
    terms, largest = [], MP.mpf(0)
    for j in range(4096):
        m = first + j * step
        while len(seq) <= m:
            seq.append(s * seq[-1] + t * seq[-2])
            fact.append(fact[-1] * seq[-1])
        term = u ** (m * (m - 1) // 2) * x**m / fact[m]
        terms.append(-term if alternating and j % 2 else term)
        largest = max(largest, abs(term))
        if j > 4 and abs(term) < MP.mpf(10) ** -70 * largest:
            return terms
    raise AssertionError("oracle series did not settle")


def value_tolerance(terms):
    return VALUE_ROUNDINGS * ULP * MP.fsum((j + 1) * abs(term) for j, term in enumerate(terms))


@given(
    kind=st.sampled_from(sorted(PRIMARY)),
    params=real_root_params(),
    u_ratio=st.floats(0.05, 0.95),
    u_sign=signs,
    x=st.floats(0.05, 8.0),
    x_sign=signs,
)
@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_fn_value_matches_mpmath_series(kind, params, u_ratio, u_sign, x, x_sign):
    u = u_ratio * abs(params.phi) * u_sign
    x = x * x_sign
    try:
        value = fn_value_info(kind, x, u, params).value
    except SeriesDiverging:
        reject()  # the term-growth backstop on an entire series, ROADMAP item 4
    terms = oracle_terms(kind, x, u, params)
    assert abs(MP.mpf(value) - MP.fsum(terms)) <= value_tolerance(terms)


@given(params=real_root_params(1.25, 2.4, 0.75), u_ratio=st.floats(0.0, 1.0))
@settings(
    derandomize=True,
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
def test_find_pi_u_matches_mpmath_root(params, u_ratio):
    # the deformations the pi_u records draw: u in [0.35, min(1, 0.8 |phi|)]
    u = 0.35 + u_ratio * (min(1.0, 0.8 * abs(params.phi)) - 0.35)
    try:
        root = find_pi_u(params, u, x_max=8.0).value
    except NoRootFound:
        reject()

    def sine(x):
        return MP.fsum(oracle_terms(FnKind.SIN, x, u, params))

    exact = MP.findroot(sine, MP.mpf(root))
    terms = oracle_terms(FnKind.SIN, root, u, params)
    slope = abs(MP.fsum(term * (2 * j + 1) for j, term in enumerate(terms)) / MP.mpf(root))
    assert abs(MP.mpf(root) - exact) <= BISECT_TOL / 2 + value_tolerance(terms) / slope


def test_find_pi_u_past_512_stops_on_adjacent_floats():
    """Past x = 512 one ulp is wider than the 1e-13 width rule, so the Illinois
    refinement stops when its bracket's ends are adjacent floats.

    The first sine zero of s = 2, t = -1, u = 0.026 lies near 584.27, where
    one ulp is 1.1e-13.  The returned end and its neighbour straddle the sign
    change of the float sine the search sums.  That sine is off by up to
    1.2e-13 there against mpmath, 0.4 ulp of x at a slope of about -2.5, so the
    series' root can lie just outside the bracket: it is 1.006 ulps from the
    returned end and 0.006 ulp from the other one.  Hence the bound of two ulps.
    """
    params, u = make_params(2.0, -1.0), 0.026
    root = find_pi_u(params, u, x_max=600.0).value
    assert root > 512
    below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
    sign = [fn_value(FnKind.SIN, x, u, params) > 0 for x in (below, root, above)]
    assert sign[0] != sign[1] or sign[1] != sign[2]

    def sine(x):
        return MP.fsum(oracle_terms(FnKind.SIN, x, u, params))

    exact = MP.findroot(sine, MP.mpf(root))
    assert abs(MP.mpf(root) - exact) <= 2 * math.ulp(root)


@pytest.mark.parametrize("kind, reference", [(FnKind.EXP, "exp"), (FnKind.SIN, "sin"), (FnKind.COS, "cos")])
def test_oracle_is_the_classical_function_at_s2_t_minus1(kind, reference):
    # {n} = n and u = 1 make the series the classical one
    params = make_params(2.0, -1.0)
    for x in (-7.5, -0.3, 1.0, 6.25):
        expect = getattr(MP, reference)(MP.mpf(x))
        assert abs(MP.fsum(oracle_terms(kind, x, 1.0, params)) - expect) < MP.mpf(10) ** -50
