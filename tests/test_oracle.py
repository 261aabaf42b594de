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

import functools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from lucascalc import (
    FnKind,
    MultinomialWeights,
    NoRootFound,
    PowerWeights,
    SeriesDiverging,
    binomial_value,
    deformed_zero_value,
    find_pi_u,
    fn_value,
    fn_value_info,
    integral_value,
    make_params,
    multinomial_value,
    params_from_roots,
    tilde_value,
    weighted_binomial_value,
)
from lucascalc.functions import _QUOTIENTS, _sine_majorant, _value_tables

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


def mp_factorial(params):
    """n -> {n}! in 60 digits, from the recurrence in exact s and t, grown on demand."""
    s, t = MP.mpf(params.s), MP.mpf(params.t)
    seq, fact = [MP.mpf(0), MP.mpf(1)], [MP.mpf(1), MP.mpf(1)]

    def factorial(n):
        while len(fact) <= n:
            seq.append(s * seq[-1] + t * seq[-2])
            fact.append(fact[-1] * seq[-1])
        return fact[n]

    return factorial


def weighted_oracle_terms(kind, coefficient, x):
    """Pairs (t_j, |t_j|) of the series sign * c_m x^m, m = first + j * step, where
    |t_j| is the magnitude coefficient(m) gives beside c_m, times |x|^m, until
    it falls below 1e-70 of the largest."""
    first, step, alternating = PRIMARY[kind]
    x = MP.mpf(x)
    terms, largest = [], MP.mpf(0)
    for j in range(4096):
        m = first + j * step
        c, size = coefficient(m)
        term, size = c * x**m, size * abs(x) ** m
        terms.append((-term if alternating and j % 2 else term, size))
        largest = max(largest, size)
        if j > 4 and size < MP.mpf(10) ** -70 * largest:
            return terms
    raise AssertionError("oracle series did not settle")


def oracle_terms(kind, x, u, params):
    """The signed series terms in 60 digits, until they fall below 1e-70 of the largest."""
    factorial, u = mp_factorial(params), MP.mpf(u)

    def coefficient(m):
        c = u ** (m * (m - 1) // 2) / factorial(m)
        return c, abs(c)

    return [term for term, _ in weighted_oracle_terms(kind, coefficient, x)]


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
        reject()  # the term-growth backstop on an entire series, ROADMAP item 5
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


# the (s, t) pairs the benchmark's CLI launches pass to ``piu``
CLI_PIU_MEMBERS = ((1.0, 1.0), (2.5, -1.0), (-1.5, 1.0), (3.0, -2.0))

# the most M(X) may exceed the series it bounds, as a multiple of it
MAJORANT_EXCESS = 1e-8


def majorant_draw(seed):
    """(params, u, X) for find_pi_u's derivative majorant: odd seeds from the
    pi_u records' ranges, as the golden pi_u digest draws them, even seeds
    from the CLI's members with u up to 0.95 |phi| either sign.  A window
    ends at most 2 past x_max = 10, so X is drawn up to 12."""
    rng = random.Random(seed)
    if seed % 2:
        while True:
            phi = rng.uniform(1.25, 2.4) * rng.choice((-1.0, 1.0))
            psi = rng.uniform(0.08, 0.75) * abs(phi) * rng.choice((-1.0, 1.0))
            if abs(phi + psi) >= 0.05 and abs(phi * psi) >= 0.02:
                break
        params = params_from_roots(phi, psi)
        u = rng.uniform(0.2, 1.0) * min(1.0, 0.95 * abs(phi))
    else:
        params = make_params(*CLI_PIU_MEMBERS[seed // 2 % len(CLI_PIU_MEMBERS)])
        phi = max(abs(params.phi), abs(params.phi_prime))
        u = rng.uniform(0.05, 0.95) * phi * rng.choice((-1.0, 1.0))
    return params, u, rng.uniform(0.05, 12.0)


def test_sine_majorant_bounds_the_derivative_series():
    """Each tail sum of find_pi_u's majorant is at least the same tail of
    sum_j (2j+1) |t_j(X)| / X, summed in 60 digits from the sine's terms t_j,
    and M(X) itself is within a factor 1 + MAJORANT_EXCESS of the whole sum.
    Over seeds 0-9,999 M(X) was never below the sum and at most 1 + 7.5e-9
    times it (X^2 is widened by 2^-30 per step); 277 of the 10,000 draws, all
    with u near phi and X large, had eight growing steps in a row and no bound.
    """
    bounded = 0
    for seed in range(300):
        params, u, X = majorant_draw(seed)
        tails = _sine_majorant(u, params, _value_tables(u, params))(X)
        if tails is None:
            continue
        bounded += 1
        sizes = [(2 * j + 1) * abs(t) / X for j, t in enumerate(oracle_terms(FnKind.SIN, X, u, params))]
        exact = [MP.fsum(sizes[k:]) for k in range(len(tails))]
        assert all(MP.mpf(tail) >= part for tail, part in zip(tails, exact)), seed
        assert tails[0] <= (1 + MAJORANT_EXCESS) * exact[0], seed
    assert bounded >= 0.9 * 300


# inputs where the majorant gives no bound at all, by name
NO_MAJORANT = {
    "u = phi": (make_params(1.0, 1.0), (1 + 5**0.5) / 2),
    "|u| > |phi|, phi the second root": (make_params(-1.5, 1.0), -2.5),
    "the classical member s = 2, t = -1, a repeated root": (make_params(2.0, -1.0), 1.0),
    "complex roots of equal modulus": (make_params(1.0, -1.0), 0.5),
}

# inputs where it has no bound at X, by name: (params, u, X)
NO_BOUND_AT_X = {
    "eight growing steps in a row": (make_params(1.0, 1.0), 1.55, 12.0),
    "an overflowing power of u": (params_from_roots(100.0, 1.0), 99.0, 1.0),
    "the term budget": (params_from_roots(1.0, 0.5), 1 - 1e-9, 1.998),
    "a divisor that underflows": (params_from_roots(1e-20, 5e-21), 9e-21, 3.0),  # {10}{11}
}


@pytest.mark.parametrize("name", sorted(NO_MAJORANT))
def test_sine_majorant_gives_no_bound_off_the_entire_class(name):
    params, u = NO_MAJORANT[name]
    assert _sine_majorant(u, params, _value_tables(u, params)) is None


@pytest.mark.parametrize("name", sorted(NO_BOUND_AT_X))
def test_sine_majorant_gives_no_bound_where_its_pass_fails(name):
    params, u, X = NO_BOUND_AT_X[name]
    assert _sine_majorant(u, params, _value_tables(u, params))(X) is None


def multinomial_coefficient(us, params):
    """m -> the degree-m coefficient of the product of the parts' rows
    u^T(k) z^k / {k}!, and the same coefficient of the product of the rows'
    magnitudes."""
    factorial = mp_factorial(params)
    us = [MP.mpf(u) for u in us]
    rows = [[] for _ in us]
    products = [([], []) for _ in us[1:]]  # (signed, magnitude) products of rows 0..i

    def coefficient(m):
        while len(rows[0]) <= m:
            n = len(rows[0])
            for row, u in zip(rows, us):
                row.append(u ** (n * (n - 1) // 2) / factorial(n))
            signed, size = rows[0], [abs(c) for c in rows[0]]
            for row, (p, a) in zip(rows[1:], products):
                p.append(MP.fsum(row[k] * signed[n - k] for k in range(n + 1)))
                a.append(MP.fsum(abs(row[k]) * size[n - k] for k in range(n + 1)))
                signed, size = p, a
        if not products:
            return rows[0][m], abs(rows[0][m])
        signed, size = products[-1]
        return signed[m], size[m]

    return coefficient


def row_coefficient(u, v, x, y, params):
    """n -> the Lucasnomial row over {n}!, sum_k C(n,k) u^T(n-k) v^T(k) x^(n-k) y^k / {n}!
    with C(n,k) / {n}! = 1 / ({k}! {n-k}!), and the sum of its entries' magnitudes."""
    factorial = mp_factorial(params)
    u, v, x, y = (MP.mpf(c) for c in (u, v, x, y))

    def coefficient(n):
        entries = [
            u ** ((n - k) * (n - k - 1) // 2) * v ** (k * (k - 1) // 2) * x ** (n - k) * y**k
            / (factorial(k) * factorial(n - k))
            for k in range(n + 1)
        ]
        return MP.fsum(entries), MP.fsum(map(abs, entries))

    return coefficient


def draw_params(rng):
    """Float parameters from the ranges the numeric records draw (``_float_params``)."""
    while True:
        phi = rng.uniform(1.05, 3.0) * rng.choice((-1.0, 1.0))
        psi = rng.uniform(0.08, 0.85) * abs(phi) * rng.choice((-1.0, 1.0))
        if abs(phi + psi) >= 0.05 and abs(phi * psi) >= 0.02:
            return params_from_roots(phi, psi)


def draw_u(rng, params):
    return rng.uniform(0.05, 0.7 * abs(params.phi)) * rng.choice((-1.0, 1.0))


def draw_x(rng, hi):
    return rng.uniform(0.05, hi) * rng.choice((-1.0, 1.0))


def multinomial_draw(rng, kind, params):
    # 1-4 parts, equal ones as the pi_u records take them, up to x = 8
    n = rng.randint(1, 4)
    us = (draw_u(rng, params),) * n if rng.random() < 0.5 else tuple(draw_u(rng, params) for _ in range(n))
    x = draw_x(rng, 8.0)
    return (
        lambda: multinomial_value(kind, us, x, params),
        weighted_oracle_terms(kind, multinomial_coefficient(us, params), x),
    )


def deformed_zero_draw(rng, kind, params):
    # (u, u) as the normalizer and the pi_u setup take it, or two deformations
    u = draw_u(rng, params)
    v = u if rng.random() < 0.5 else draw_u(rng, params)
    x = draw_x(rng, 8.0)
    return (
        lambda: deformed_zero_value(kind, u, v, x, params),
        weighted_oracle_terms(kind, row_coefficient(u, v, 1.0, -1.0, params), x),
    )


def binomial_draw(rng, kind, params):
    # the tangent addition records' draws
    u, v = draw_u(rng, params), draw_u(rng, params)
    x, y = draw_x(rng, 0.5), draw_x(rng, 0.5)
    return (
        lambda: binomial_value(kind, x, y, u, v, params),
        weighted_oracle_terms(kind, row_coefficient(u, v, x, y, params), 1.0),
    )


# family -> (draw, number of seeds)
WEIGHTED_DRAWS = {
    "multinomial": (multinomial_draw, 60),
    "deformed-zero": (deformed_zero_draw, 120),
    "binomial": (binomial_draw, 120),
}


@pytest.mark.parametrize("family", sorted(WEIGHTED_DRAWS))
def test_weighted_values_match_mpmath_series(family):
    """The weighted values against their series summed in 60 digits from the
    definition, with the tolerance of the primary kinds.  A weighted term is a
    sum itself (a Cauchy product, or a Lucasnomial row) that the library rounds
    part by part, so |t_j| is the sum of its parts' magnitudes; at (u, u) the
    odd rows of the deformed zero vanish, and only their parts bound the
    rounding left in them.  Over seeds 0-2,999 per family the largest multiple
    of 2^-53 * sum_j (j + 1) |t_j| seen was 2.9 for the multinomial values,
    2.4 for the deformed zero and 3.1 for the binomial values; 112 of the
    3,000 multinomial draws met the term-growth backstop.
    """
    draw, count = WEIGHTED_DRAWS[family]
    checked = 0
    for seed in range(count):
        rng = random.Random(seed)
        kind = rng.choice(sorted(PRIMARY))
        evaluate, terms = draw(rng, kind, draw_params(rng))
        try:
            value = evaluate()
        except SeriesDiverging:
            continue  # the term-growth backstop's verdict on an entire series
        checked += 1
        tolerance = VALUE_ROUNDINGS * ULP * MP.fsum((j + 1) * size for j, (_, size) in enumerate(terms))
        assert abs(MP.mpf(value) - MP.fsum(t for t, _ in terms)) <= tolerance, (seed, kind)
    assert checked >= 0.9 * count


def multinomial_row_coefficient(us, v, x, y, params):
    """n -> the degree-n weight of the binomial with a multinomial x-family over {n}!,
    sum_k m_(n-k) x^(n-k) v^T(k) y^k / {k}! with m the multinomial coefficient
    (C(n,k) / {n}! = 1 / ({k}! {n-k}!), and the x-weight over {n-k}! is m_(n-k)),
    and the sum of its entries' magnitudes.  The y-row v^T(k) / {k}! is the
    multinomial coefficient of the one part v; with one part u in the x-family
    as well, this is :func:`row_coefficient` of (u, v, x, y)."""
    x_row, y_row = multinomial_coefficient(us, params), multinomial_coefficient((v,), params)
    x, y = MP.mpf(x), MP.mpf(y)

    def coefficient(n):
        entries = [(x_row(n - k), y_row(k), x ** (n - k) * y**k) for k in range(n + 1)]
        return (
            MP.fsum(a * b * power for (a, _), (b, _), power in entries),
            MP.fsum(a * b * abs(power) for (_, a), (_, b), power in entries),
        )

    return coefficient


def periodic_draw(rng, kind, params):
    # the periodicity records' call: a multinomial x-family of 1-4 parts, equal
    # ones in half the draws, at x up to 8, and a power y-family at y up to 0.5
    n = rng.randint(1, 4)
    us = (draw_u(rng, params),) * n if rng.random() < 0.5 else tuple(draw_u(rng, params) for _ in range(n))
    v = draw_u(rng, params)
    x, y = draw_x(rng, 8.0), draw_x(rng, 0.5)
    return (
        lambda: weighted_binomial_value(kind, MultinomialWeights(us, params), PowerWeights(v), x, y, params),
        weighted_oracle_terms(kind, multinomial_row_coefficient(us, v, x, y, params), 1.0),
    )


def test_periodic_binomial_values_match_mpmath_series():
    """weighted_binomial_value with the periodicity records' families against
    its series summed in 60 digits, with the tolerance of the weighted values:
    VALUE_ROUNDINGS * 2^-53 * sum_j (j + 1) |t_j|, |t_j| the sum of the
    magnitudes of term j's parts.  Over seeds 0-2,999 the largest multiple of
    2^-53 * sum_j (j + 1) |t_j| seen was 2.5, and 108 of the 3,000 draws met
    the term-growth backstop.
    """
    # the reference with one x-part is row_coefficient's
    params = draw_params(random.Random(0))
    one_part = multinomial_row_coefficient((0.6,), -0.4, 3.0, 0.3, params)
    row = row_coefficient(0.6, -0.4, 3.0, 0.3, params)
    for n in range(16):
        (a, size), (b, _) = one_part(n), row(n)
        assert abs(a - b) <= MP.mpf(10) ** -50 * size
    checked, count = 0, 60
    for seed in range(count):
        rng = random.Random(seed)
        kind = rng.choice(sorted(PRIMARY))
        evaluate, terms = periodic_draw(rng, kind, draw_params(rng))
        try:
            value = evaluate()
        except SeriesDiverging:
            continue  # the term-growth backstop's verdict on an entire series
        checked += 1
        tolerance = VALUE_ROUNDINGS * ULP * MP.fsum((j + 1) * size for j, (_, size) in enumerate(terms))
        assert abs(MP.mpf(value) - MP.fsum(t for t, _ in terms)) <= tolerance, (seed, kind)
    assert checked >= 0.9 * count


# the multiple of 2^-53 * |value| * (R_f + R_n) a normalized value may miss by
TILDE_ROUNDINGS = 5

# each normalized kind and the primary kind its value is summed from
TILDE_PARTS = {FnKind.SIN: FnKind.SIN, FnKind.COS: FnKind.COS, FnKind.SEC: FnKind.COS, FnKind.CSC: FnKind.SIN}


def test_tilde_values_match_mpmath_series():
    """sin and cos over the square root of the deformed-zero cosine at (u, u),
    and sec and csc times it, against the same quotients of the series summed
    in 60 digits, on draws from the numeric records' ranges up to x = 8.  The
    value's relative error is the sine's or cosine's plus half the
    normalizer's, and a square root and a quotient add an ulp or two, so the
    tolerance relative to the value is TILDE_ROUNDINGS * 2^-53 * (R_f + R_n),
    with R = sum_j (j + 1) |t_j| / |sum| of each series (R >= 1).  Over seeds
    0-2,999 the largest multiple of 2^-53 * |value| * (R_f + R_n) seen was
    1.66, and no draw had a normalizer of 0 or less; the bound keeps a margin
    of about three.
    """
    for seed in range(120):
        rng = random.Random(seed)
        kind = rng.choice(sorted(TILDE_PARTS))
        params = draw_params(rng)
        u, x = draw_u(rng, params), draw_x(rng, 8.0)
        value = tilde_value(kind, x, u, params)
        terms = oracle_terms(TILDE_PARTS[kind], x, u, params)
        normalizer_terms = weighted_oracle_terms(FnKind.COS, row_coefficient(u, u, 1.0, -1.0, params), x)
        part, normalizer = MP.fsum(terms), MP.fsum(t for t, _ in normalizer_terms)
        root = MP.sqrt(normalizer)
        exact = part / root if kind in (FnKind.SIN, FnKind.COS) else root / part
        spread = MP.fsum((j + 1) * abs(t) for j, t in enumerate(terms)) / abs(part) + MP.fsum(
            (j + 1) * size for j, (_, size) in enumerate(normalizer_terms)
        ) / abs(normalizer)
        assert abs(MP.mpf(value) - exact) <= TILDE_ROUNDINGS * ULP * abs(exact) * spread, (seed, kind)


# the multiple of 2^-53 * |value| * (R_num + R_den) a quotient kind may miss by
QUOTIENT_ROUNDINGS = 8


def quotient_draw(seed):
    """(kind, params, u, x) for a quotient kind: odd seeds from the numeric
    records' ranges, even seeds from the CLI's members with u up to 0.95 |phi|
    either sign, x up to 8 either sign."""
    rng = random.Random(seed)
    kind = rng.choice(sorted(_QUOTIENTS))
    if seed % 2:
        params = draw_params(rng)
        u = draw_u(rng, params)
    else:
        params = make_params(*CLI_PIU_MEMBERS[seed // 2 % len(CLI_PIU_MEMBERS)])
        phi = max(abs(params.phi), abs(params.phi_prime))
        u = rng.uniform(0.05, 0.95) * phi * rng.choice((-1.0, 1.0))
    return kind, params, u, draw_x(rng, 8.0)


def test_quotient_values_match_mpmath_series():
    """tan, cot, sec, csc and their hyperbolic kin against the quotient of
    their parts' series summed in 60 digits.  Each part is summed as a
    primary kind, and the division adds one rounding, so the tolerance
    relative to the value is QUOTIENT_ROUNDINGS * 2^-53 * (R_num + R_den),
    with R = sum_j (j + 1) |t_j| / |sum| of each part (R_num = 0 where the
    numerator is 1).  Over seeds 0-2,999 the largest multiple of
    2^-53 * |value| * (R_num + R_den) seen was 2.72, and 59 draws met the
    term-growth backstop; the bound keeps a margin of about three.
    """
    checked, count = 0, 120
    for seed in range(count):
        kind, params, u, x = quotient_draw(seed)
        try:
            value = fn_value_info(kind, x, u, params).value
        except SeriesDiverging:
            continue  # the term-growth backstop's verdict on an entire series
        checked += 1
        exact, spread = MP.mpf(1), MP.mpf(0)
        for part, power in zip(_QUOTIENTS[kind], (1, -1)):
            if part is not None:
                terms = oracle_terms(part, x, u, params)
                total = MP.fsum(terms)
                exact *= total**power
                spread += MP.fsum((j + 1) * abs(t) for j, t in enumerate(terms)) / abs(total)
        assert abs(MP.mpf(value) - exact) <= QUOTIENT_ROUNDINGS * ULP * abs(exact) * spread, (seed, kind)
    assert checked >= 0.9 * count


# the multiple of 2^-53 * (max(1, |I|) + sum_k (k + 1) |t_k|) an integral may miss by
INTEGRAL_ROUNDINGS = 10


def node_terms(params, a, b, f):
    """The node series of ``integral_value`` in 60 digits, as pairs (t_k, |t_k|):
    t_k = (lead - other) (b f(b n_k) - a f(a n_k)) n_k with n_k = r^k / lead,
    where f(y) gives (f(y), sum_j (j + 1) |f_j(y)|) over f's terms f_j, and
    |t_k| carries that size in place of |f|; until |t_k| falls below 1e-30 of
    the largest."""
    phi, psi = MP.mpf(params.phi), MP.mpf(params.phi_prime)
    lead, other = (phi, psi) if abs(psi) < abs(phi) else (psi, phi)
    ratio, node, a, b = other / lead, 1 / lead, MP.mpf(a), MP.mpf(b)
    terms, largest = [], MP.mpf(0)
    for k in range(4096):
        (fb, size_b), (fa, size_a) = f(b * node), f(a * node)
        weight = (lead - other) * node
        terms.append((weight * (b * fb - a * fa), abs(weight) * (abs(b) * size_b + abs(a) * size_a)))
        largest = max(largest, terms[-1][1])
        if k > 4 and terms[-1][1] < MP.mpf(10) ** -30 * largest:
            return terms
        node *= ratio
    raise AssertionError("node series did not settle")


def polynomial_draw(rng):
    """A polynomial sum_m c_m x^m of degree <= 6 and its integral from a to b
    (a = 0 in a quarter of the draws), as (coefficients, params, a, b, I):
    I is the closed form sum_m c_m (b^(m+1) - a^(m+1)) / {m+1} in exact
    Fractions, with {n} from the exact roots phi, phi' the node family uses."""
    params = draw_params(rng)
    coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 7))]
    a = 0.0 if rng.random() < 0.25 else rng.uniform(-1.5, 1.5)
    b = rng.uniform(-1.5, 1.5)
    phi, psi = Fraction(params.phi), Fraction(params.phi_prime)
    seq = [Fraction(0), Fraction(1)]
    while len(seq) <= len(coeffs):
        seq.append((phi + psi) * seq[-1] - phi * psi * seq[-2])
    exact = sum(
        Fraction(c) * (Fraction(b) ** (m + 1) - Fraction(a) ** (m + 1)) / seq[m + 1] for m, c in enumerate(coeffs)
    )
    return coeffs, params, a, b, exact


def horner(coeffs):
    return lambda x: functools.reduce(lambda acc, c: acc * x + c, reversed(coeffs))


def polynomial_integral(rng):
    """A :func:`polynomial_draw` polynomial, evaluated by Horner's rule and
    integrated to eps = 2^-53; its reference is the exact closed form."""
    coeffs, params, a, b, exact = polynomial_draw(rng)
    value = integral_value(horner(coeffs), a, b, params, eps=ULP)

    def poly(y):
        parts = [MP.mpf(c) * y**m for m, c in enumerate(coeffs)]
        return MP.fsum(parts), MP.fsum((m + 1) * abs(part) for m, part in enumerate(parts))

    return value, MP.mpf(exact.numerator) / exact.denominator, node_terms(params, a, b, poly)


def exp_integral(rng):
    """f = fn_value(EXP, ., u, params) integrated from a to b; its reference is
    the same node series summed in 60 digits over the oracle's exp."""
    params = draw_params(rng)
    u = draw_u(rng, params)
    a = 0.0 if rng.random() < 0.25 else rng.uniform(-1.0, 1.0)
    b = rng.uniform(-1.0, 1.0)
    value = integral_value(lambda x: fn_value(FnKind.EXP, x, u, params), a, b, params, eps=ULP)

    def exp(y):
        terms = oracle_terms(FnKind.EXP, y, u, params)
        return MP.fsum(terms), MP.fsum((j + 1) * abs(t) for j, t in enumerate(terms))

    terms = node_terms(params, a, b, exp)
    return value, MP.fsum(t for t, _ in terms), terms


# integrand -> (draw, number of seeds)
INTEGRAL_DRAWS = {"polynomial": (polynomial_integral, 120), "exp": (exp_integral, 30)}


@pytest.mark.parametrize("integrand", sorted(INTEGRAL_DRAWS))
def test_integral_value_matches_its_reference(integrand):
    """The node-series integral on contracting members from the numeric
    records' ranges, summed to eps = 2^-53, against an exact or 60-digit
    reference.  The tolerance covers the truncation, max(1, |I|) 2^-53, and
    the rounding of the terms, each a value of f at a node times a running
    product of node ratios, with |t_k| the sum of f's terms' sizes
    sum_j (j + 1) |f_j| in place of |f|.  The largest multiple of
    2^-53 * (max(1, |I|) + sum_k (k + 1) |t_k|) seen was 2.86 over seeds
    0-2,999 for the polynomials and 3.06 over seeds 0-1,499 for exp; the bound
    keeps a margin of about three.
    """
    draw, count = INTEGRAL_DRAWS[integrand]
    for seed in range(count):
        value, exact, terms = draw(random.Random(seed))
        sizes = MP.fsum((k + 1) * size for k, (_, size) in enumerate(terms))
        assert abs(MP.mpf(value) - exact) <= INTEGRAL_ROUNDINGS * ULP * (max(1, abs(exact)) + sizes), seed


def test_integral_value_meets_its_default_eps_on_polynomials():
    """At the default eps = 1e-12 the node-series integral of each of the
    1,000 polynomials of seeds 0-999 is within eps * max(1, |I|) of the exact
    closed form.  Each term carries b f(b n) - a f(a n), so the tail bound's
    scale sums the two parts' magnitudes; with their max in its place, 12 of
    the 1,000 missed, the worst by 1.16 eps (seed 734).
    """
    eps = 1e-12
    for seed in range(1000):
        coeffs, params, a, b, exact = polynomial_draw(random.Random(seed))
        value = integral_value(horner(coeffs), a, b, params)
        assert abs(Fraction(value) - exact) <= eps * max(1, abs(exact)), seed


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
