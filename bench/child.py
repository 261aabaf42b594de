"""One repetition of a workload in a fresh process.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python bench/child.py verify   < {"ids": [...], "trials": 5, "order": 16, "seed": 1, ...}
    python bench/child.py eval     < {"ops": [...], "passes": 4, ...}
    python bench/child.py import-cli
    python bench/child.py cli <spans.tsv.gz or -> -- <lucascalc cli arguments>

Each mode times the import of the lucascalc modules it calls (setup),
then runs its work through public names only, and prints one JSON line.
With ``"trace": true`` (or ``cli``) the tracer wraps the layers after the
import and the line also carries the per-layer summary.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction


def _reference_loop() -> None:
    """Fixed pure-Python work: a recurrence in Fractions and in floats."""
    a, b = Fraction(0), Fraction(1)
    x, y = 0.0, 1.0
    s, t = Fraction(3, 2), Fraction(-2, 3)
    for _ in range(1000):
        a, b = b, s * b + t * a
        x, y = y, 1.5 * y - 0.7 * x + 1e-3
        if b.denominator > 10**40:
            a, b = Fraction(1, 2), Fraction(3, 5)


def reference_s(samples: int = 5) -> float:
    """Median time of the reference loop: how fast this machine runs now.

    Taken before lucascalc is imported, so nothing in the library can
    change it.
    """
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import(*modules: str) -> float:
    t0 = time.perf_counter()
    for name in modules:
        importlib.import_module(name)
    return time.perf_counter() - t0


def _traced(job: dict):
    """A tracer installed on the lucascalc layers when the job asks for one."""
    if not job.get("trace"):
        return None
    import tracer

    spans = tracer.Tracer()
    tracer.install(spans)
    return spans


def _finish(spans, job: dict, out: dict, wall_s: float) -> None:
    """Attach the span summary; ``wall_s`` is this process's own timing of the traced work."""
    if spans is None:
        return
    out["trace"] = spans.summary(wall_s)
    if job.get("spans_path"):
        spans.write(job["spans_path"])


def run_verify(job: dict) -> dict:
    ref_s = reference_s()
    setup_s = _import("lucascalc")
    import lucascalc

    spans = _traced(job)
    t0 = time.perf_counter()
    if spans is not None:
        spans.begin()
    report = lucascalc.run_suite(job["ids"], trials=job["trials"], order=job["order"], seed=job["seed"])
    if spans is not None:
        spans.finish()
    wall_s = time.perf_counter() - t0
    out = {
        "ref_s": ref_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "outcomes": [
            [r.id, r.group, r.status, len(r.failures), r.trials, r.wall_time_s]
            for r in report.results
        ],
        # counterexample text, |lhs - rhs| (None for exact checks), tolerance
        "failures": {
            r.id: [[f.lhs, f.delta, lucascalc.CATALOG[r.id].tolerance] for f in r.failures]
            for r in report.results if r.failures
        },
    }
    _finish(spans, job, out, wall_s)
    return out


def _calls(ops: list, params: dict):
    """(function, args) per op, looked up now so a tracer installed before sees them."""
    from lucascalc import calculus, functions

    kind = functions.FnKind
    calls = []
    for tag, s, t, *rest in ops:
        p = params[s, t]
        if tag == "fn":
            k, u, x = rest
            calls.append((functions.fn_value_info, (kind(k), x, u, p)))
        elif tag == "tilde":
            k, u, x = rest
            calls.append((functions.tilde_value, (kind(k), x, u, p)))
        elif tag == "multi":
            k, us, x = rest
            calls.append((functions.multinomial_value, (kind(k), tuple(us), x, p)))
        elif tag == "binom":
            k, u, v, x, y = rest
            calls.append((functions.binomial_value, (kind(k), x, y, u, v, p)))
        elif tag == "piu":
            (u,) = rest
            calls.append((functions.find_pi_u, (p, u)))
        elif tag == "integral":
            coeffs, a, b = rest
            calls.append((calculus.integral_value, (_poly(coeffs), a, b, p)))
        else:
            raise ValueError(f"unknown op {tag!r}")
    return calls


def _poly(coeffs):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return f


def _one_pass(calls, errors, latencies=None):
    """Run every call once; per call a float value or the error's class name."""
    results = []
    clock = time.perf_counter_ns
    for fn, args in calls:
        t0 = clock()
        try:
            value = fn(*args)
        except errors as exc:
            value = type(exc).__name__
        if latencies is not None:
            latencies.append(clock() - t0)
        results.append(value)
    return results


def _plain(value):
    """EvalInfo and PiU results carry the number in ``.value``."""
    return getattr(value, "value", value)


def run_eval(job: dict) -> dict:
    ref_s = reference_s()
    setup_s = _import("lucascalc.scalars", "lucascalc.functions", "lucascalc.calculus")
    from lucascalc import errors, scalars

    failures = (errors.LucasError, ZeroDivisionError, ValueError)
    params = {}
    for _, s, t, *_ in job["ops"]:
        if (s, t) not in params:
            params[s, t] = scalars.make_params(s, t)
    # Fill the sequence caches once; the timed passes read them warm.
    _one_pass(_calls(job["ops"], params), failures)
    out = {"ref_s": ref_s, "setup_s": setup_s}
    spans = _traced(job)
    calls = _calls(job["ops"], params)
    if spans is not None:
        t0 = time.perf_counter()
        spans.begin()
        results = _one_pass(calls, failures)
        spans.finish()
        out["pass_s"] = [time.perf_counter() - t0]
    else:
        out["pass_s"], latencies, passes = [], [], []
        for _ in range(job["passes"]):
            latencies.append([])
            t0 = time.perf_counter()
            passes.append(_one_pass(calls, failures, latencies[-1]))
            out["pass_s"].append(time.perf_counter() - t0)
        out["op_ns"] = [statistics.median(op) for op in zip(*latencies)]
        results = passes[-1]
        out["deterministic"] = all([_plain(v) for v in p] == [_plain(v) for v in results] for p in passes)
    out["results"] = [_plain(v) for v in results]
    _finish(spans, job, out, out["pass_s"][0])
    return out


def run_import_cli() -> dict:
    ref_s = reference_s()
    return {"ref_s": ref_s, "setup_s": _import("lucascalc.cli")}


def run_cli(argv: list, job: dict) -> dict:
    """One traced CLI launch: the same ``main`` that ``python -m lucascalc.cli`` runs."""
    setup_s = _import("lucascalc.cli")
    import lucascalc.cli

    spans = _traced(job)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        spans.begin()
        code = lucascalc.cli.main(argv)
        spans.finish()
        wall_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "exit": code, "stdout": captured.getvalue()}
    _finish(spans, job, out, wall_s)
    return out


def main() -> int:
    mode = sys.argv[1]
    if mode == "import-cli":
        out = run_import_cli()
    elif mode == "cli":
        job = {"trace": True, "spans_path": None if sys.argv[2] == "-" else sys.argv[2]}
        out = run_cli(sys.argv[4:], job)
    else:
        job = json.load(sys.stdin)
        out = run_verify(job) if mode == "verify" else run_eval(job)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
