"""Acceptance criteria, one test each, with a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; each test also enforces its criterion with assertions.
"""

import json
import random
import time
from fractions import Fraction as F

from lucascalc import (
    FnKind,
    binet,
    derivative_series,
    fn_series,
    fn_value,
    integral_value,
    integration_by_parts_residual,
    lucas_u,
    lucas_v,
    make_params,
    params_from_roots,
    tilde_value,
    weighted_fn_value,
)
from lucascalc.cli import main
from lucascalc.deformed import MultinomialWeights, deformed_power_coeffs
from lucascalc.scalars import GAUSSIAN_I, Backend, GaussianRational, promote_params

EXP, SIN, COS = FnKind.EXP, FnKind.SIN, FnKind.COS


def _report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


def _random_exact_params(rng):
    while True:
        a = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        b = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        if a != b and a + b != 0:
            return params_from_roots(a, b)


def test_criterion_1_sequence_oracles(capsys):
    """seq reproduces the four named sequences exactly, in under a second."""
    started = time.perf_counter()
    cases = {"Fibonacci": (1, 1), "Pell": (2, 1), "Jacobsthal": (1, 2), "Mersenne": (3, -2)}
    ok = True
    for name, (s, t) in cases.items():
        code = main(
            ["seq", "--s", str(s), "--t", str(t), "--n", "30", "--exact", "--format", "json"]
        )
        out = capsys.readouterr().out
        got = [int(F(row["value"])) for row in json.loads(out)]
        a, b = 0, 1
        oracle = [0, 1]
        for _ in range(29):
            a, b = b, s * b + t * a
            oracle.append(b)
        ok = ok and code == 0 and got == oracle
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"four sequence families exact to n=30 in {elapsed:.2f}s")


def test_criterion_2_binet_agreement(capsys):
    p = make_params(1.0, 1.0)
    worst = 0.0
    for n in range(31):
        expect = lucas_u(n, p)
        deviation = abs(binet(n, p) - expect) / max(1.0, abs(expect))
        worst = max(worst, deviation)
    degenerate = make_params(F(2), F(-1))
    exact_ok = all(binet(n, degenerate) == n for n in range(31))
    ok = worst <= 1e-12 and exact_ok
    with capsys.disabled():
        _report(2, ok, f"closed form vs recurrence: worst rel dev {worst:.2e}; repeated-root case exact")


def test_criterion_3_full_identity_suite(capsys):
    started = time.perf_counter()
    code = main(
        ["verify", "--suite", "all", "--trials", "25", "--order", "16", "--seed", "7",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    report = json.loads(out)
    from test_identities import REQUIRED_IDS

    status = {r["id"]: r["status"] for r in report["results"]}
    missing = [identity for identity in REQUIRED_IDS if identity not in status]
    failing = [identity for identity, st in status.items() if st != "pass"]
    ok = code == 0 and not missing and not failing and elapsed < 60.0
    with capsys.disabled():
        _report(
            3,
            ok,
            f"verify all: exit {code}, {len(status)} identities, "
            f"missing={missing or 'none'}, failing={failing or 'none'}, {elapsed:.1f}s",
        )


def test_criterion_4_deformed_binomial_rows(capsys):
    rng = random.Random(2024)
    ok = True
    for _ in range(6):
        s = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        t = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        u, v = (F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
        p = make_params(s, t)
        two, three, four = lucas_u(2, p), lucas_u(3, p), lucas_u(4, p)
        expected = {
            0: [F(1)],
            1: [F(1), F(1)],
            2: [u, two, v],
            3: [u**3, three * u, three * v, v**3],
            4: [u**6, four * u**3, three * lucas_v(2, p) * u * v, four * v**3, v**6],
        }
        for n, row in expected.items():
            ok = ok and list(deformed_power_coeffs(n, u, v, p).coeffs) == row
    with capsys.disabled():
        _report(4, ok, "expansion rows n=0..4 match coefficient-for-coefficient")


def test_criterion_5_pantograph_residual(capsys):
    rng = random.Random(77)
    ok = True
    for _ in range(25):
        p = _random_exact_params(rng)
        u = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        e = fn_series(EXP, u, p, 16)
        residual = derivative_series(e, p) - e.dilate(u).truncate(15)
        ok = ok and all(c == 0 for c in residual.coeffs)
    with capsys.disabled():
        _report(5, ok, "delay-equation residual identically zero to order 15, 25 exact draws")


def test_criterion_6_fundamental_theorem_and_parts(capsys):
    p = make_params(1.0, 1.0)
    worst = 0.0
    for n in range(7):
        expect = 1.0 / lucas_u(n + 1, p)
        got = integral_value(lambda x, n=n: x**n, 0.0, 1.0, p, eps=1e-13)
        worst = max(worst, abs(got - expect) / abs(expect))
    rng = random.Random(55)
    worst_parts = 0.0
    for _ in range(6):
        fc = [rng.uniform(-2, 2) for _ in range(4)]
        gc = [rng.uniform(-2, 2) for _ in range(4)]
        f = lambda x, c=fc: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        g = lambda x, c=gc: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
        worst_parts = max(
            worst_parts, abs(integration_by_parts_residual(f, g, 0.0, 1.0, p, eps=1e-13))
        )
    ok = worst <= 1e-9 and worst_parts < 1e-9
    with capsys.disabled():
        _report(
            6, ok, f"power integrals rel dev {worst:.2e}; parts residual {worst_parts:.2e}"
        )


def test_criterion_7_pythagorean_numerics(capsys):
    rng = random.Random(31)
    worst = 0.0
    for s, t, u in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (2.0, 1.0, 1 / 3)):
        p = make_params(s, t)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5)
            total = tilde_value(SIN, x, u, p) ** 2 + tilde_value(COS, x, u, p) ** 2
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    with capsys.disabled():
        _report(7, ok, f"normalized unit circle: worst |sum - 1| = {worst:.2e} over 60 points")


def test_criterion_8_pi_u_pipeline(capsys):
    code = main(["piu", "--s", "1", "--t", "1", "--u", "1", "--format", "json"])
    out = capsys.readouterr().out
    record = json.loads(out)
    root_ok = code == 0 and 1.5 < record["piU"] < 1.6 and record["residual"] < 1e-10

    p = make_params(1.0, 1.0)
    root = record["piU"]
    u = 1.0
    worst = 0.0
    # special values, checked through the addition-formula route:
    # sin/cos of the (n+1)-fold combination against the one-step addition RHS
    sin_n = fn_value(SIN, root, u, p)
    cos_n = fn_value(COS, root, u, p)
    worst = max(worst, abs(sin_n))
    for n in range(2, 5):
        us = (u,) * n
        weights = MultinomialWeights(us, p)
        sin_next = weighted_fn_value(SIN, weights, root, p)
        cos_next = weighted_fn_value(COS, weights, root, p)
        rhs_sin = sin_n * fn_value(COS, root, u, p) + cos_n * fn_value(SIN, root, u, p)
        worst = max(worst, abs(sin_next), abs(sin_next - rhs_sin))
        sin_n, cos_n = sin_next, cos_next
    ok = root_ok and worst <= 1e-8
    with capsys.disabled():
        _report(
            8,
            ok,
            f"first sine zero {record['piU']:.6f} (residual {record['residual']:.1e}); "
            f"multiples vanish to {worst:.1e}",
        )


def test_criterion_9_euler_analogues(capsys):
    rng = random.Random(4242)
    ok = True
    for _ in range(25):
        p = _random_exact_params(rng)
        u = F(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 9))
        # rational route: exp(z,-u) = cos(z,u) + sin(z,u)
        lhs = fn_series(EXP, -u, p, 16)
        rhs = fn_series(COS, u, p, 16) + fn_series(SIN, u, p, 16)
        ok = ok and lhs == rhs
        # Gaussian route: exp(iz,u) = cos(z,u) + i sin(z,u)
        gp = promote_params(p, Backend.GAUSSIAN)
        gu = GaussianRational(u, F(rng.randint(1, 9), rng.randint(1, 9)))
        lhs_g = fn_series(EXP, gu, gp, 16).dilate(GAUSSIAN_I)
        rhs_g = fn_series(COS, gu, gp, 16) + fn_series(SIN, gu, gp, 16).scale(GAUSSIAN_I)
        ok = ok and lhs_g == rhs_g
    with capsys.disabled():
        _report(9, ok, "both Euler-type identities exact to order 16 over 25 draws")
