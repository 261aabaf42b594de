"""Workload definitions: what each workload runs and its seeded inputs.

Nothing here imports lucascalc; the inputs are plain data that the child
processes hand to the library's public API.  BENCHMARK.json names the
workloads with the reason for each.  The record ids are frozen as they
stood when the benchmark was defined, so a refactor of the catalog cannot
silently change what a workload measures: a missing id makes ``run_suite``
raise and the run fail.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import oracle

# ---------------------------------------------------------------------------
# frozen selections
# ---------------------------------------------------------------------------

#: check kinds series-exact and bivariate-exact (58 rational, 7 Gaussian)
EXACT_IDS = (
    "pascal-1 pascal-2 binom-neg-even binom-neg-odd binom-props-1 binom-props-2 "
    "binom-props-3 binom-props-4 binom-props-5 binom-derivative-1 binom-derivative-2 "
    "binom-derivative-3 exp-pantograph-ode exp-dk exp-product exp-recip-pair "
    "exp-recip-general exp-binom-deriv-1 exp-binom-deriv-2 exp-binom-int-1 "
    "exp-binom-int-2 exp-alpha-beta-functional exp-antiderivative euler-i euler-neg "
    "exp-x-plus-iy-1 exp-x-plus-iy-2 exp-binom-neg-uv rep-sin rep-cos parity-1 parity-2 "
    "parity-3 parity-5 add-sin-plus add-sin-minus add-cos-plus add-cos-minus coro4-1 "
    "coro4-2 pytha-1 pytha-2 pytha-3 double-angle-1 double-angle-2 double-angle-3 "
    "double-angle-4 hyp-bridge-1 hyp-bridge-2 hyp-bridge-3 hyp-bridge-4 hyp-bridge-5 "
    "hyp-bridge-6 hyp-binom-bridge-1 hyp-binom-bridge-2 hyp-add-1 hyp-add-2 hyp-add-3 "
    "hyp-add-4 trig-deriv-1 trig-deriv-2 trig-d2-1 trig-d2-2 calc-product-rule-1 "
    "calc-product-rule-2"
).split()

#: check kind numeric-residual (float backend)
NUMERIC_IDS = (
    "exp-alpha-beta-integral exp-multinomial-product parity-4 parity-6 add-tan-plus "
    "add-tan-minus tilde-pytha-1 tilde-pytha-2 tilde-pytha-3 double-angle-5 "
    "double-angle-6 multi-euler multi-add-n1-1 multi-add-n1-2 multi-add-n1-3 "
    "multi-add-n1-4 multi-add-nm-1 multi-add-nm-2 multi-add-nm-3 multi-add-nm-4 "
    "piu-special-1 piu-special-2 piu-special-3 periodic-1 periodic-2 periodic-3 "
    "periodic-4 tanh-add-1 tanh-add-2 trig-deriv-3 trig-deriv-4 trig-deriv-5 "
    "trig-deriv-6 calc-quotient-rule-1 calc-quotient-rule-2 calc-fundamental calc-parts"
).split()

#: the group the CLI ``verify`` launch runs: two records, one of them Gaussian
CLI_VERIFY_GROUP = "euler"
CLI_VERIFY_IDS = ("euler-i", "euler-neg")

# Each run_suite call draws VERIFY_TRIALS trials per record at the default
# order.  Five trials keep one repetition near 2.5 s (exact) and 1 s
# (numeric), so a run holds enough repetitions for a steady median; each
# record's stream is the prefix of the one the default 25 trials use.
VERIFY_TRIALS = 5
VERIFY_ORDER = 16


def sub_seed(seed: int, workload: str, rep: int) -> int:
    """A reproducible per-repetition seed derived from the run's seed."""
    digest = hashlib.sha256(f"{seed}|{workload}|{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000


# ---------------------------------------------------------------------------
# eval-points
# ---------------------------------------------------------------------------

# Fixed parameter points (s, t), each reused across many x as `table` does.
# The classical member (s=2, t=-1, u=1) has {n} = n, so its functions are
# the math module's; the others have distinct real roots, dominant root
# modulus phi.
CLASSICAL = (2.0, -1.0)
MEMBERS = ((1.0, 1.0), (2.5, -1.0), (-1.5, 1.0), (3.0, -2.0))
SWEEP_POINTS = 24
# |x| reaches 20 on the classical member, where the false "diverging"
# verdict shows (exp from |x| ~ 9, sin/cos from ~17).  Those calls are
# failed operations at the commit that defined the benchmark; do not trim
# this range to hide them.
CLASSICAL_X_MAX = 20.0
MEMBER_X_MAX = 3.0
X_MIN = 0.05
# |u| / phi strata: few terms near 0.1, 40 to 60+ terms near 0.9.
U_RATIO_STRATA = ((0.1, 0.4), (0.4, 0.7), (0.7, 0.9))
TILDE_KINDS = ("sin", "cos", "sec", "csc", "tan", "cot")


def _dominant_root(s: float, t: float) -> float:
    disc = s * s + 4 * t
    return max(abs(s + math.sqrt(disc)), abs(s - math.sqrt(disc))) / 2


def _defined(fn, *args):
    """The oracle's (value, tolerance), or None where it has no finite value."""
    try:
        return fn(*args)
    except oracle.Undefined:
        return None


def _sweep(rng: random.Random, x_max: float) -> list[float]:
    """Geometric sweep X_MIN..x_max with seeded jitter and one seeded sign."""
    sign = rng.choice((-1.0, 1.0))
    ratio = math.log(x_max / X_MIN)
    return [
        sign * X_MIN * math.exp(ratio * (i + rng.random()) / SWEEP_POINTS)
        for i in range(SWEEP_POINTS)
    ]


def eval_grid(seed: int) -> list[dict]:
    """Seeded list of operations, each with its oracle value and tolerance.

    Proportions are fixed; only the points move with the seed.  The heavy
    calls (tilde, multinomial, binomial, pi_u) are about 0.5% of the calls,
    so the p99 latency sits in the tail of fn_value_info rather than on the
    boundary between call types.
    """
    rng = random.Random(f"eval-points|{seed}")
    ops: list[dict] = []

    def add(op: list, expect):
        value, tol = expect
        ops.append({"op": op, "value": value, "tol": tol})

    def add_fn(s, t, kind, u, x):
        # A point whose value the oracle cannot pin down within its
        # tolerance (a quotient next to a pole) is left out.
        expect = _defined(oracle.fn_value, kind, x, u, s, t)
        if expect is not None:
            add(["fn", s, t, kind, u, x], expect)

    s, t = CLASSICAL
    for kind in oracle.KINDS:
        for _ in range(2):
            for x in _sweep(rng, CLASSICAL_X_MAX):
                add_fn(s, t, kind, 1.0, x)
    for s, t in MEMBERS:
        phi = _dominant_root(s, t)
        for lo, hi in U_RATIO_STRATA:
            u = rng.uniform(lo, hi) * phi * rng.choice((-1.0, 1.0))
            for kind in oracle.KINDS:
                for x in _sweep(rng, MEMBER_X_MAX):
                    add_fn(s, t, kind, u, x)

    def add_drawn(draw):
        """Add draw() -> (op, oracle function, its args), redrawn until defined."""
        while True:
            op, fn, *args = draw()
            expect = _defined(fn, *args)
            if expect is not None:
                return add(op, expect)

    def span(lo, hi, signed=True):
        return rng.uniform(lo, hi) * (rng.choice((-1.0, 1.0)) if signed else 1.0)

    for i, kind in enumerate(TILDE_KINDS):
        s, t = MEMBERS[i % len(MEMBERS)]
        phi = _dominant_root(s, t)

        def tilde():
            u, x = span(0.1, 0.6, signed=False) * phi, span(0.1, 1.2)
            return ["tilde", s, t, kind, u, x], oracle.tilde_value, kind, x, u, s, t

        add_drawn(tilde)
    for i, kind in enumerate(("exp", "sin", "cos", "cosh", "tan", "sinh")):
        s, t = MEMBERS[i % len(MEMBERS)]
        phi = _dominant_root(s, t)

        def multi():
            us = [span(0.1, 0.6) * phi for _ in range(2 + i % 2)]
            x = span(0.1, 1.5)
            return ["multi", s, t, kind, us, x], oracle.multinomial_value, kind, us, x, s, t

        add_drawn(multi)
    for i, kind in enumerate(("exp", "sin", "cos", "sinh", "cosh", "exp")):
        s, t = MEMBERS[(i + 1) % len(MEMBERS)]
        phi = _dominant_root(s, t)

        def binom():
            u, v, x, y = span(0.1, 0.6) * phi, span(0.1, 0.6) * phi, span(0.1, 1.2), span(0.1, 1.2)
            return ["binom", s, t, kind, u, v, x, y], oracle.binomial_value, kind, x, y, u, v, s, t

        add_drawn(binom)
    piu_count = 0
    while piu_count < 4:
        # the classical member once (pi itself), then the golden-ratio member
        s, t = CLASSICAL if piu_count == 0 else MEMBERS[0]
        u = 1.0 if piu_count == 0 else rng.uniform(0.3, 0.9)
        try:
            root = oracle.pi_u(u, s, t)
        except oracle.Undefined:
            continue
        add(["piu", s, t, u], (root, 1e-8))
        piu_count += 1
    for i in range(12):
        s, t = MEMBERS[i % len(MEMBERS)]
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 4))]
        a, b = sorted(rng.uniform(-1.5, 1.5) for _ in range(2))
        add(["integral", s, t, coeffs, a, b], oracle.poly_integral(coeffs, a, b, s, t))
    return ops


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("eval", "seq", "table", "piu", "integrate", "verify")


def _num(value: float) -> str:
    """Float literal for an ``--opt=value`` argument (a negative value would
    otherwise read as an option)."""
    return repr(float(value))


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))


def cli_round(seed: int, round_no: int) -> list[dict]:
    """One launch of each CLI command with seeded arguments and expectations."""
    rng = random.Random(f"cli-cold|{seed}|{round_no}")
    launches = []

    def member():
        s, t = rng.choice(MEMBERS)
        u = rng.uniform(0.1, 0.7) * _dominant_root(s, t) * rng.choice((-1.0, 1.0))
        return s, t, u

    expect = None
    while expect is None:
        s, t, u = member()
        kind = rng.choice(oracle.KINDS)
        x = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        expect = _defined(oracle.fn_value, kind, x, u, s, t)
    launches.append({
        "command": "eval",
        "argv": ["eval", "--fn", kind, f"--s={_num(s)}", f"--t={_num(t)}", f"--u={_num(u)}",
                 f"--x={_num(x)}", "--format", "json"],
        "expect": expect,
    })

    fs, ft = _frac(rng), _frac(rng)
    n = 30
    terms = [Fraction(0), Fraction(1)]
    while len(terms) <= n:
        terms.append(fs * terms[-1] + ft * terms[-2])
    launches.append({
        "command": "seq",
        "argv": ["seq", "--exact", f"--s={fs}", f"--t={ft}", f"--n={n}", "--format", "json"],
        "expect": [str(v) for v in terms],
    })

    expect = [None]
    while None in expect:
        s, t, u = member()
        kind = rng.choice(oracle.KINDS)
        start = rng.uniform(0.1, 0.5)
        step = 0.1
        xs = [start + i * step for i in range(16)]
        expect = [_defined(oracle.fn_value, kind, x, u, s, t) for x in xs]
    launches.append({
        "command": "table",
        "argv": ["table", "--fn", kind, f"--s={_num(s)}", f"--t={_num(t)}", f"--u={_num(u)}",
                 f"--from={_num(start)}", f"--to={_num(xs[-1])}", f"--step={_num(step)}",
                 "--format", "csv"],
        "expect": expect,
    })

    s, t = MEMBERS[0]
    while True:
        u = rng.uniform(0.3, 0.9)
        try:
            root = oracle.pi_u(u, s, t)
            break
        except oracle.Undefined:
            continue
    launches.append({
        "command": "piu",
        "argv": ["piu", f"--s={_num(s)}", f"--t={_num(t)}", f"--u={_num(u)}", "--format", "json"],
        "expect": (root, 1e-8),
    })

    s, t = rng.choice(MEMBERS)
    coeffs = [float(rng.randint(-4, 4)) / 2 for _ in range(3)]
    a, b = sorted(float(rng.randint(-6, 6)) / 4 for _ in range(2))
    launches.append({
        "command": "integrate",
        "argv": ["integrate", "--poly=" + ",".join(_num(c) for c in coeffs), f"--s={_num(s)}",
                 f"--t={_num(t)}", f"--a={_num(a)}", f"--b={_num(b)}", "--format", "json"],
        "expect": oracle.poly_integral(coeffs, a, b, s, t),
    })

    launches.append({
        "command": "verify",
        "argv": ["verify", "--suite", CLI_VERIFY_GROUP, "--trials", "3",
                 "--seed", str(sub_seed(seed, "cli-cold", round_no)), "--format", "json"],
        "expect": list(CLI_VERIFY_IDS),
    })
    return launches
