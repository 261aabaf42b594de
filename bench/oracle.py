"""Float oracle for the point-evaluation checks, independent of lucascalc.

Every value here comes from this file's own recurrence for the sequence
{n} (0, 1, s, s^2 + t, ...) and ``math.fsum``; nothing imports the
library.  Each value comes with an absolute tolerance scaled by the largest
term of the series it sums, which covers rounding in a sum with
cancellation and the library's relative stopping rule (eps = 1e-12).
"""

from __future__ import annotations

import math

# Generous against the library's eps = 1e-12 and ~1e-16 rounding per term,
# tight against any wrong coefficient (whose error is a whole term).
TERM_TOL = 1e-9
MAX_TERMS = 400

PRIMARY = ("exp", "sin", "cos", "sinh", "cosh")
QUOTIENTS = {
    "tan": ("sin", "cos"),
    "cot": ("cos", "sin"),
    "sec": (None, "cos"),
    "csc": (None, "sin"),
    "tanh": ("sinh", "cosh"),
    "coth": ("cosh", "sinh"),
    "sech": (None, "cosh"),
    "csch": (None, "sinh"),
}
KINDS = PRIMARY + tuple(QUOTIENTS)

CLASSICAL = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "cot": lambda x: 1.0 / math.tan(x),
    "sec": lambda x: 1.0 / math.cos(x),
    "csc": lambda x: 1.0 / math.sin(x),
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "coth": lambda x: 1.0 / math.tanh(x),
    "sech": lambda x: 1.0 / math.cosh(x),
    "csch": lambda x: 1.0 / math.sinh(x),
}


class Undefined(ValueError):
    """The oracle cannot give a finite value at this point."""


def seq(s: float, t: float, count: int) -> list[float]:
    """{0}, {1}, ..., {count-1} by the recurrence {n} = s{n-1} + t{n-2}."""
    out = [0.0, 1.0]
    while len(out) < count:
        out.append(s * out[-1] + t * out[-2])
    return out[:count]


def power_terms(s: float, t: float, u: float, x: float) -> list[float]:
    """a_m = u^T(m) x^m / {m}! for m = 0, 1, ... until the terms have died out.

    T(m) = m(m-1)/2.  Built by the ratio a_m = a_{m-1} * x u^(m-1) / {m} so
    no huge power is formed.
    """
    terms = [1.0]
    u_pow = 1.0
    n_seq = [0.0, 1.0]
    peak = 1.0
    small = 0
    for m in range(1, MAX_TERMS):
        n_seq.append(s * n_seq[-1] + t * n_seq[-2])
        if n_seq[m] == 0.0:
            raise Undefined(f"{{{m}}} = 0")
        terms.append(terms[-1] * x * u_pow / n_seq[m])
        u_pow *= u
        peak = max(peak, abs(terms[-1]))
        small = small + 1 if abs(terms[-1]) <= 1e-18 * peak else 0
        if small >= 4 and m >= 8:
            return terms
    raise Undefined("terms did not die out")


def _pattern(kind: str, terms: list[float]) -> list[float]:
    """The signed terms of a primary kind taken from a_m."""
    if kind == "exp":
        return list(terms)
    start = 1 if kind in ("sin", "sinh") else 0
    alternating = kind in ("sin", "cos")
    return [
        (-a if alternating and j % 2 else a)
        for j, a in enumerate(terms[start::2])
    ]


def _summed(parts: list[float]) -> tuple[float, float]:
    peak = max((abs(p) for p in parts), default=0.0)
    return math.fsum(parts), TERM_TOL * peak


def _quotient(num: tuple[float, float] | None, den: tuple[float, float]) -> tuple[float, float]:
    """num/den with a first-order propagated tolerance; num None means 1."""
    d, d_tol = den
    if abs(d) <= d_tol:
        raise Undefined("denominator indistinguishable from zero")
    n, n_tol = num if num is not None else (1.0, 0.0)
    q = n / d
    rel = d_tol / abs(d) + (n_tol / abs(n) if n else 0.0)
    return q, abs(q) * rel + n_tol / abs(d)


def _by_kind(kind: str, primary) -> tuple[float, float]:
    if kind in PRIMARY:
        return primary(kind)
    numerator, denominator = QUOTIENTS[kind]
    num = primary(numerator) if numerator is not None else None
    return _quotient(num, primary(denominator))


def fn_value(kind: str, x: float, u: float, s: float, t: float) -> tuple[float, float]:
    """(value, tolerance) of the one-parameter family member at x."""
    terms = power_terms(s, t, u, x)
    value, tol = _by_kind(kind, lambda k: _summed(_pattern(k, terms)))
    if (s, t, u) == (2.0, -1.0, 1.0):
        # {n} = n: the classical functions, compared with the math module.
        value = CLASSICAL[kind](x)
    return value, tol


def _cauchy(a: list[float], b: list[float], sign_b: bool = False) -> list[list[float]]:
    """Per degree N, the products a_i b_j with i + j = N (b_j negated for odd j)."""
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j].append(-ai * bj if sign_b and j % 2 else ai * bj)
    return out


def _pattern_degrees(kind: str, degrees: list[list[float]]) -> list[float]:
    """Signed products of a primary kind, from per-degree product lists."""
    flat = []
    for n, parts in enumerate(degrees):
        if kind in ("sin", "sinh") and n % 2 == 0:
            continue
        if kind in ("cos", "cosh") and n % 2 == 1:
            continue
        negative = kind in ("sin", "cos") and (n // 2) % 2 == 1
        flat.extend(-p if negative else p for p in parts)
    return flat


def tilde_value(kind: str, x: float, u: float, s: float, t: float) -> tuple[float, float]:
    """Normalized trig value: sin, cos over sqrt(Z), sec, csc times it, where Z
    is the deformed-zero cosine sum_n (-1)^(n/2) sum_(a+b=n) (-1)^b a_a a_b."""
    if kind in ("tan", "cot"):
        return fn_value(kind, x, u, s, t)
    terms = power_terms(s, t, u, x)
    z, z_tol = _summed(_pattern_degrees("cos", _cauchy(terms, terms, sign_b=True)))
    if z <= z_tol:
        raise Undefined("normalizer not positive")
    root, root_tol = math.sqrt(z), 0.5 * z_tol / math.sqrt(z)
    base_kind = {"sin": "sin", "cos": "cos", "sec": "cos", "csc": "sin"}[kind]
    b, b_tol = _summed(_pattern(base_kind, terms))
    if kind in ("sin", "cos"):
        q = b / root
        return q, abs(q) * (root_tol / root) + b_tol / root
    if abs(b) <= b_tol:
        raise Undefined("denominator indistinguishable from zero")
    q = root / b
    return q, abs(q) * (b_tol / abs(b) + root_tol / root)


def multinomial_value(kind: str, us: list[float], x: float, s: float, t: float) -> tuple[float, float]:
    """Series with weights {n}! [z^n] prod_i sum_k u_i^T(k) z^k / {k}!, at x."""
    rows = [power_terms(s, t, u, x) for u in us]
    product = rows[0]
    for row in rows[1:]:
        product = [math.fsum(parts) for parts in _cauchy(product, row)]
    return _by_kind(kind, lambda k: _summed(_pattern(k, product)))


def binomial_value(kind: str, x: float, y: float, u: float, v: float, s: float, t: float) -> tuple[float, float]:
    """Degree-N terms sum_(a+b=N) u^T(a) x^a / {a}! * v^T(b) y^b / {b}!."""
    degrees = _cauchy(power_terms(s, t, u, x), power_terms(s, t, v, y))
    return _by_kind(kind, lambda k: _summed(_pattern_degrees(k, degrees)))


def pi_u(u: float, s: float, t: float, x_max: float = 10.0, step: float = 0.05) -> float:
    """First positive zero of the sine member: scan by step, then bisect."""

    def sine(x: float) -> float:
        return math.fsum(_pattern("sin", power_terms(s, t, u, x)))

    prev_x, prev_val = None, None
    x = step
    while x <= x_max + 1e-12:
        val = sine(x)
        if prev_val is not None and (val < 0) != (prev_val < 0):
            lo, hi, f_lo = prev_x, x, prev_val
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                f_mid = sine(mid)
                if (f_mid < 0) == (f_lo < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev_x, prev_val = x, val
        x += step
    raise Undefined("no sign change")


def poly_integral(coeffs: list[float], a: float, b: float, s: float, t: float) -> tuple[float, float]:
    """Integral of sum c_m x^m from a to b: sum c_m (b^(m+1) - a^(m+1)) / {m+1}.

    The node-series integral inverts the divided-difference derivative,
    under which x^(m+1) has derivative {m+1} x^m.
    """
    n_seq = seq(s, t, len(coeffs) + 2)
    parts = [c * (b ** (m + 1) - a ** (m + 1)) / n_seq[m + 1] for m, c in enumerate(coeffs)]
    scale = max([1.0] + [abs(p) for p in parts])
    return math.fsum(parts), TERM_TOL * scale
