"""lucascalc benchmark: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; it uses the library in ``src`` and only
the standard library.  Workloads (BENCHMARK.json gives the reason for
each): verify-exact, verify-numeric, eval-points, cli-cold; ``all`` runs
them one after another.  Each repetition runs in a
fresh child process, one child at a time, so the module-level caches of
the library start empty as they do under ``lucascalc verify``.  Inputs come from ``--seed`` and are made
before any timing starts.  Repetitions continue while ``--seconds`` lasts
(at least three, and one per input); each op's time is a median over them
(see per_op).
The repetitions cycle through a fixed set of inputs drawn from the seed
(Run.tally), so ``attempted`` and ``failed`` depend on the seed only.

With ``--trace 0`` the last line of stdout is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run instead, next to an untraced run of the same inputs
whose difference is the tracing overhead.  Every output is checked; the
exit code is 1 when a check fails and 2 when the benchmark cannot run
(for instance outside a checkout with ``src/lucascalc``).  Details of each
run, with its provenance, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from statistics import median

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PYTHON = sys.executable
CHILD_TIMEOUT_S = 60
# The machine's speed drifts by up to 75% over minutes on the 2-vCPU VM where
# the benchmark was defined.  Every child times a fixed loop before it
# imports lucascalc (child.reference_s), and that child's times are scaled
# to the speed at which the loop takes REFERENCE_S, its typical time there.
# Scaling each child by its own reading follows the drift within a run,
# where the loop's time was seen to move from 5 to 9.4 ms.
# The loop reacts more strongly to the drift than the workloads do: over 80
# runs there, log(workload time) against log(loop time) had slopes of 0.54
# to 0.89, so the scale is the speed ratio to the power SPEED_EXPONENT.
# README.md gives each metric's spread over ten seeds with and without it.
REFERENCE_S = 0.0088
SPEED_EXPONENT = 0.7

# BENCHMARK.json names the workloads (with the reason for each) and the
# metrics with their units; this file only computes them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Error classes of the false "diverging" verdict: _adaptive_sum gives up
# after eight growing terms although the series converges.  A call that
# raises one where the oracle has a finite value is a failed operation, but
# not a wrong output; any other error or a wrong value fails the run.
KNOWN_DEFECTS = ("SeriesDiverging", "NoRootFound")
# The same verdict as the counterexample text of piu-special-1/2/3, whose
# n-fold multinomial series with |u| near phi trips it at some seeds.
KNOWN_DEFECT_COUNTEREXAMPLES = ("sin diverged", "cos diverged", "tan not evaluable")
# Records checked at the numerically found first zero pi_u against an
# absolute 1e-8, where the zero's own error is amplified.  They are the only
# ones seen to miss their tolerance: over 400 run_suite calls of
# verify-numeric (seeds 1-20, repetitions 0-19), periodic-4 once by 26x
# (a cotangent of 2.4); piu-special-3 by 1.3x in earlier runs.  A miss of
# at most ACCURACY_SLACK times the tolerance on one of them is a failed op
# of limited accuracy.  A larger miss, a miss on any other record or any
# exact mismatch is a wrong output.
ACCURACY_RECORDS = (
    "piu-special-1", "piu-special-2", "piu-special-3",
    "periodic-1", "periodic-2", "periodic-3", "periodic-4",
)
ACCURACY_SLACK = 50


# A run draws this many inputs from its seed (sub-seeds of run_suite, sets
# of CLI arguments; eval-points has one grid) and its repetitions cycle
# through them.  The ops of each input count once, so two runs with the
# same seed report the same attempted and failed however many repetitions
# fit in --seconds.  A record's time per trial varies from one draw to the
# next by up to a third, so verify-* take as many sub-seeds as a run of 25 s
# holds repetitions (verify-exact) or a third of them (verify-numeric, whose
# repetitions are short); three sub-seeds gave p50 spreads of 0.26 over ten
# seeds on verify-exact.  The CLI launches do not depend on their arguments.
INPUTS = {"verify-exact": 8, "verify-numeric": 7, "eval-points": 1, "cli-cold": 3}
# at least this many repetitions in a timed run, for the medians
MIN_REPS = 3


class ChildFailed(RuntimeError):
    """A child process exited non-zero, timed out or printed no result."""


def child_env() -> dict:
    """The parent's environment without PYTHON* settings, plus fixed ones.

    Byte code is cached under bench/.pycache so every launch after the
    first reads compiled modules, as an installed package would.  The
    sitecustomize in bench/peakrss makes every child report its own peak
    RSS on stderr (see launch).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join((str(BENCH / "peakrss"), str(SRC)))
    env["PYTHONPYCACHEPREFIX"] = str(BENCH / ".pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()
RSS_TAG = "peak-rss-kib "


def launch(argv: list, stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess, float | None]:
    """Run a child to completion.

    Returns the seconds from launch to exit, the result with the peak-RSS
    line taken off stderr, and that child's own peak RSS in MB (None when
    it reported none).
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, input=stdin, capture_output=True, text=True, env=ENV, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    head, _, tail = proc.stderr.rpartition(RSS_TAG)
    rss_mb = None
    if tail.strip().isdigit():
        rss_mb = int(tail) / 1024
        proc.stderr = head.rstrip("\n")
    return seconds, proc, rss_mb


def run_child(mode: str, job: dict | None = None, extra: list | None = None) -> tuple[float, dict]:
    """One child.py process; its JSON line, with its own peak RSS as ``rss_mb``."""
    argv = [PYTHON, str(BENCH / "child.py"), mode, *(extra or [])]
    try:
        seconds, proc, rss_mb = launch(argv, json.dumps(job) if job is not None else None)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {' | '.join(tail)}")
    out = json.loads(lines[-1])
    out["rss_mb"] = rss_mb
    return seconds, out


def repeat(seconds: float, step, min_reps: int) -> list:
    """Call step(i) for i = 0, 1, ... while the next call would end in time."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        took = time.perf_counter() - t0
        if len(results) >= min_reps and time.perf_counter() - start + took > seconds:
            return results


def percentile(ordered: list, q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """Accumulates attempted and failed operations, check notes and metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.metrics: dict = {}
        self.details: dict = {}
        self.peak_rss_mb = 0.0
        self.rss_missing = 0
        self.outcomes: dict = {}

    def wrong(self, message: str) -> None:
        self.correct = False
        if len(self.notes) < 20:
            self.notes.append(f"check failed: {message}")

    def tally(self, key, attempted: int, failed: int, outcome) -> bool:
        """Count the ops of one input, once per run; True the first time.

        Repeats of an input are timing samples: each must reproduce the
        input's first outcome, or the run is wrong.
        """
        if key not in self.outcomes:
            self.outcomes[key] = outcome
            self.attempted += attempted
            self.failed += failed
            return True
        if self.outcomes[key] != outcome:
            self.wrong(f"input {key}: a repeat gave another outcome")
        return False

    def child_rss(self, rss_mb: float | None) -> None:
        """Take in one of this workload's children's own peak RSS."""
        if rss_mb is None:
            self.rss_missing += 1
        else:
            self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)


# ---------------------------------------------------------------------------
# verify-exact / verify-numeric
# ---------------------------------------------------------------------------


def _verify_job(workload: str, seed: int, rep: int, trace: bool = False) -> dict:
    ids = workloads.EXACT_IDS if workload == "verify-exact" else workloads.NUMERIC_IDS
    job = {
        "ids": ids,
        "trials": workloads.VERIFY_TRIALS,
        "order": workloads.VERIFY_ORDER,
        "seed": workloads.sub_seed(seed, workload, rep % INPUTS[workload]),
        "trace": trace,
    }
    if trace and rep == 0:
        job["spans_path"] = str(OUT / f"spans-{workload}.tsv.gz")
    return job


def _verify_rep(run: Run, job: dict):
    """One child; checks every record's (id, status, failures) against the
    frozen expectation (listed id, pass, 0).  Returns (launch_s, out) or None.

    A failed trial counts as a failed op.  It fails the run too, unless its
    counterexample is the false "diverging" verdict or a residual of one of
    the ACCURACY_RECORDS within ACCURACY_SLACK times its tolerance.
    """
    ops = len(job["ids"]) * job["trials"]
    try:
        seconds, out = run_child("verify", job)
    except ChildFailed as exc:
        # run_suite has no exception boundary: one escaping error loses the run.
        run.tally(job["seed"], ops, ops, "no outcome")
        run.wrong(str(exc))
        return None
    run.child_rss(out["rss_mb"])
    ids = [row[0] for row in out["outcomes"]]
    if ids != list(job["ids"]):
        run.wrong(f"seed {job['seed']}: outcome ids differ from the frozen list")
    failed, kinds = 0, []
    for rid, _group, status, failures, trials, _wall in out["outcomes"]:
        if status == "pass" and not failures:
            continue
        failed += failures or trials
        found = out["failures"].get(rid, [])
        record_kinds = [_failure_kind(rid, f) for f in found]
        kinds += record_kinds
        if not record_kinds or "wrong" in record_kinds:
            run.wrong(f"seed {job['seed']}: {rid} {status} with {failures} failures {found[:2]}")
    digest = hashlib.sha256(
        "\n".join(f"{r[0]}:{r[2]}:{r[3]}" for r in out["outcomes"]).encode()
    ).hexdigest()[:16]
    if run.tally(job["seed"], ops, failed, digest):
        for kind in kinds:
            run.details[kind] = run.details.get(kind, 0) + 1
        run.details.setdefault("outcome_digests", []).append(digest)
    out["seed"] = job["seed"]
    return seconds, out


def _failure_kind(rid: str, failure: list) -> str:
    lhs, delta, tolerance = failure
    if lhs in KNOWN_DEFECT_COUNTEREXAMPLES:
        return "known_defect_trials"
    if (
        rid in ACCURACY_RECORDS and delta is not None and tolerance is not None
        and delta <= ACCURACY_SLACK * tolerance
    ):
        return "accuracy_trials"
    return "wrong"


def per_op(samples: dict, calls: dict | None = None) -> dict:
    """wall_s, p50 and p99 from per-op latency samples gathered over a run.

    ``samples`` maps op -> input -> the op's times on the repetitions of
    that input.  An op's time is the median over the inputs of its median
    over each input's repetitions: the inner median drops the bursts of a
    noisy machine, the outer one weighs every input alike however many
    repetitions it got.  wall_s sums the ops' times.  The percentiles
    range over per-call latencies of the ops in ``calls`` (op -> calls one
    sample covers, e.g. a record's trials); None means every op, one call.
    """
    latency = {
        op: median(median(values) for values in by_input.values())
        for op, by_input in samples.items()
    }
    calls = calls if calls is not None else dict.fromkeys(latency, 1)
    completed = sorted(latency[op] / count for op, count in calls.items())
    return {
        "wall_s": sum(latency.values()),
        "p50": percentile(completed, 0.50),
        "p99": percentile(completed, 0.99),
        "ops": len(completed),
    }


def end_to_end(run: Run, reps: list, calls: dict | None = None) -> None:
    """The end-to-end metrics from the run's repetitions, every time scaled
    to the reference speed.

    Each repetition is a dict with the child's reference-loop time
    ``ref_s``, its ``setup_s``, its ``launch_s`` (seconds from launch to
    exit of each process it started), its ``input`` and its ``ops`` (op ->
    seconds).  Every time of a repetition is multiplied by (REFERENCE_S /
    its own ref_s) ** SPEED_EXPONENT, so a repetition while the machine is
    slower reads about the same; this follows the drift within a run too.
    ``calls`` is as for per_op.  The unscaled figures go to the details.
    """

    def metrics(scaled: bool) -> dict:
        samples: dict = {}
        setups, launches = [], []
        for rep in reps:
            k = (REFERENCE_S / rep["ref_s"]) ** SPEED_EXPONENT if scaled else 1.0
            setups.append(rep["setup_s"] * k)
            launches += [seconds * k for seconds in rep["launch_s"]]
            for op, seconds in rep["ops"].items():
                samples.setdefault(op, {}).setdefault(rep["input"], []).append(seconds * k)
        ops = per_op(samples, calls)
        completed = sum(calls.values()) if calls is not None else len(samples)
        return {
            "setup_s": median(setups),
            "wall_s": ops["wall_s"],
            "evals_per_s": completed / ops["wall_s"],
            "eval_p50_us": ops["p50"] * 1e6,
            "eval_p99_us": ops["p99"] * 1e6,
            "cli_p50_ms": median(launches) * 1e3,
        }

    run.details["unscaled"] = metrics(False)
    run.metrics = metrics(True)
    if run.rss_missing:
        run.wrong(f"{run.rss_missing} child processes reported no peak RSS")
    else:
        run.metrics["peak_rss_mb"] = run.peak_rss_mb
    refs = [rep["ref_s"] for rep in reps]
    run.notes.append(
        f"reference loop {min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f} ms over {len(refs)} children "
        f"against {REFERENCE_S * 1e3:.3f} ms: each child's times scaled by "
        f"{(REFERENCE_S / max(refs)) ** SPEED_EXPONENT:.4f}-{(REFERENCE_S / min(refs)) ** SPEED_EXPONENT:.4f}"
    )


def verify_timed(run: Run, workload: str, seed: int, seconds: float) -> None:
    reps = [
        rep for rep in repeat(
            seconds, lambda i: _verify_rep(run, _verify_job(workload, seed, i)),
            max(MIN_REPS, INPUTS[workload]),
        ) if rep is not None
    ]
    if not reps:
        return
    trials = {rid: count for rid, _group, _status, _failures, count, _wall in reps[0][1]["outcomes"]}
    end_to_end(run, [
        {
            "ref_s": out["ref_s"], "setup_s": out["setup_s"], "launch_s": [launch_s],
            "input": out["seed"], "ops": {row[0]: row[5] for row in out["outcomes"]},
        }
        for launch_s, out in reps
    ], trials)
    inputs = len({out["seed"] for _, out in reps})
    run.details["reps"] = len(reps)
    run.details["run_suite_s"] = [out["wall_s"] for _, out in reps]
    run.notes.append(
        f"{len(reps)} repetitions of run_suite ({len(trials)} records x "
        f"{workloads.VERIFY_TRIALS} trials), cycling through {inputs} sub-seeds; a record's time "
        f"is the median over the sub-seeds of its median over each one's repetitions, wall_s "
        f"their sum, per-op latency a record's time per trial; "
        f"median run_suite call {median(run.details['run_suite_s']):.4f} s"
    )


def group_times(outcomes: list) -> dict:
    times: dict = {}
    for _rid, group, _status, _failures, _trials, wall in outcomes:
        times[group] = times.get(group, 0.0) + wall
    return times


def verify_traced(run: Run, workload: str, seed: int, seconds: float) -> list:
    def pair(i):
        plain = _verify_rep(run, _verify_job(workload, seed, i))
        traced = _verify_rep(run, _verify_job(workload, seed, i, trace=True))
        if plain is None or traced is None:
            return None
        return {
            "launch_s": plain[0],
            "plain_wall_s": plain[1]["wall_s"],
            "traced_wall_s": traced[1]["wall_s"],
            "trace": traced[1]["trace"],
            "groups": group_times(plain[1]["outcomes"]),
        }

    return [p for p in repeat(seconds, pair, INPUTS[workload]) if p is not None]


# ---------------------------------------------------------------------------
# eval-points
# ---------------------------------------------------------------------------


def _check_values(run: Run, grid: list, results: list) -> tuple[list, int]:
    """Compare every result with the oracle.

    Returns the indices of the failed calls and how many of them are the
    known defect.
    """
    failed, known = [], 0
    for i, (item, got) in enumerate(zip(grid, results)):
        if isinstance(got, str):
            failed.append(i)
            if got in KNOWN_DEFECTS:
                known += 1
            else:
                run.wrong(f"{item['op']} raised {got}")
        elif not (isinstance(got, float) and math.isfinite(got)) or abs(got - item["value"]) > item["tol"]:
            failed.append(i)
            run.wrong(f"{item['op']} = {got!r}, oracle {item['value']!r} +- {item['tol']:.3g}")
    if len(results) != len(grid):
        run.wrong(f"{len(results)} results for {len(grid)} operations")
    return failed, known


def _eval_rep(run: Run, grid: list, job: dict):
    """One child over the whole grid, the run's one input: a call is an op."""
    try:
        seconds, out = run_child("eval", job)
    except ChildFailed as exc:
        run.tally("grid", len(grid), len(grid), "no outcome")
        run.wrong(str(exc))
        return None
    run.child_rss(out["rss_mb"])
    failed, known = _check_values(run, grid, out["results"])
    run.tally("grid", len(grid), len(failed), tuple(failed))
    run.details["known_defect_calls"] = known
    if out.get("deterministic") is False:
        run.wrong("repeated passes gave different results")
    return seconds, out


EVAL_PASSES = 4


def eval_timed(run: Run, seed: int, seconds: float) -> None:
    grid = workloads.eval_grid(seed)
    job = {"ops": [item["op"] for item in grid], "passes": EVAL_PASSES}
    reps = [rep for rep in repeat(seconds, lambda i: _eval_rep(run, grid, job), MIN_REPS) if rep]
    if not reps:
        return
    completed = {op: 1 for op, got in enumerate(reps[-1][1]["results"]) if not isinstance(got, str)}
    end_to_end(run, [
        {
            "ref_s": out["ref_s"], "setup_s": out["setup_s"], "launch_s": [launch_s],
            "input": "grid", "ops": {op: ns * 1e-9 for op, ns in enumerate(out["op_ns"])},
        }
        for launch_s, out in reps
    ], completed)
    run.details["reps"] = len(reps)
    run.details["pass_s"] = [t for _, out in reps for t in out["pass_s"]]
    run.notes.append(
        f"{len(reps)} repetitions x {EVAL_PASSES} timed passes over {len(grid)} calls, after "
        f"one warm-up pass; a call's latency is the median over the repetitions of its median "
        f"over a repetition's passes, wall_s their sum; {len(completed)} completed calls per pass, "
        f"{run.details.get('known_defect_calls', 0)} known-defect calls; "
        f"median pass {median(run.details['pass_s']):.4f} s"
    )


def eval_traced(run: Run, seed: int, seconds: float) -> list:
    grid = workloads.eval_grid(seed)
    ops = [item["op"] for item in grid]

    def pair(i):
        plain = _eval_rep(run, grid, {"ops": ops, "passes": 1})
        job = {"ops": ops, "trace": True}
        if i == 0:
            job["spans_path"] = str(OUT / "spans-eval-points.tsv.gz")
        traced = _eval_rep(run, grid, job)
        if plain is None or traced is None:
            return None
        return {
            "launch_s": plain[0],
            "plain_wall_s": plain[1]["pass_s"][0],
            "traced_wall_s": traced[1]["pass_s"][0],
            "trace": traced[1]["trace"],
            "groups": {},
        }

    return [p for p in repeat(seconds, pair, INPUTS["eval-points"]) if p is not None]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _close(got, expect) -> bool:
    value, tol = expect
    return isinstance(got, float) and math.isfinite(got) and abs(got - value) <= tol


def check_cli(item: dict, code: int, stdout: str) -> tuple[bool, dict]:
    """Exit code and parsed output of one launch; also the group times of verify."""
    if code != 0:
        return False, {}
    command, expect = item["command"], item["expect"]
    try:
        if command == "table":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            return len(rows) == len(expect) and all(
                row["diverged"] == "False" and _close(float(row["value"]), e)
                for row, e in zip(rows, expect)
            ), {}
        data = json.loads(stdout)
        if command == "eval":
            return _close(data["value"], expect) and data["termsUsed"] >= 1, {}
        if command == "seq":
            return [Fraction(row["value"]) for row in data] == [Fraction(v) for v in expect], {}
        if command == "piu":
            return _close(data["piU"], expect), {}
        if command == "integrate":
            return _close(data["value"], expect), {}
        results = data["results"]
        ok = data["status"] == "pass" and [r["id"] for r in results] == expect and all(
            r["status"] == "pass" and not r["failures"] for r in results
        )
        times: dict = {}
        for r in results:
            times[r["group"]] = times.get(r["group"], 0.0) + r["wall_time_s"]
        return ok, times
    except (ValueError, KeyError, TypeError):
        return False, {}


def _cli_round(run: Run, seed: int, round_no: int, traced: bool = False) -> dict:
    """Launch each command of the round once, in order, and check it."""
    launches, groups, summaries = {}, {}, []
    arguments = round_no % INPUTS["cli-cold"]
    for item in workloads.cli_round(seed, arguments):
        key = (arguments, item["command"])
        if traced:
            spans = str(OUT / f"spans-cli-cold-{item['command']}.tsv.gz") if round_no == 0 else "-"
            try:
                seconds, out = run_child("cli", extra=[spans, "--", *item["argv"]])
            except ChildFailed as exc:
                run.tally(key, 1, 1, "no outcome")
                run.wrong(str(exc))
                continue
            code, stdout = out["exit"], out["stdout"]
            summaries.append(out["trace"])
        else:
            try:
                seconds, proc, rss_mb = launch([PYTHON, "-m", "lucascalc.cli", *item["argv"]])
            except subprocess.TimeoutExpired:
                run.tally(key, 1, 1, "no outcome")
                run.wrong(f"{item['command']} timed out")
                continue
            code, stdout = proc.returncode, proc.stdout
            run.child_rss(rss_mb)
        ok, times = check_cli(item, code, stdout)
        run.tally(key, 1, int(not ok), ok)
        if not ok:
            run.wrong(f"{' '.join(item['argv'])} exited {code}: {stdout[:200]!r}")
        groups.update(times)
        launches[item["command"]] = seconds
    return {"arguments": arguments, "launch_s": launches, "groups": groups, "summaries": summaries}


def cli_timed(run: Run, seed: int, seconds: float) -> None:
    def step(i):
        _, probe = run_child("import-cli")
        run.child_rss(probe["rss_mb"])
        return probe, _cli_round(run, seed, i)

    inputs = INPUTS["cli-cold"]
    rounds = [
        (probe, r) for probe, r in repeat(seconds, step, max(MIN_REPS, inputs)) if r["launch_s"]
    ]
    if not rounds:
        return
    # A round's launches are scaled by the reference time of its probe.
    end_to_end(run, [
        {
            "ref_s": probe["ref_s"], "setup_s": probe["setup_s"],
            "launch_s": list(r["launch_s"].values()), "input": r["arguments"], "ops": r["launch_s"],
        }
        for probe, r in rounds
    ])
    run.details["rounds"] = len(rounds)
    run.notes.append(
        f"{len(rounds)} rounds of {len(workloads.CLI_COMMANDS)} launches "
        f"({', '.join(workloads.CLI_COMMANDS)}), cycling through {inputs} sets of arguments; "
        f"a command's latency is the median over the sets of its median over each set's rounds, "
        f"wall_s their sum; cli_p50_ms over all launches"
    )


def cli_traced(run: Run, seed: int, seconds: float) -> list:
    def pair(i):
        plain = _cli_round(run, seed, i)
        traced = _cli_round(run, seed, i, traced=True)
        if not traced["summaries"]:
            return None
        return {
            "launch_s": median(plain["launch_s"].values()),
            "plain_wall_s": sum(plain["launch_s"].values()),
            "traced_wall_s": sum(traced["launch_s"].values()),
            "trace": merge_summaries(traced["summaries"]),
            "groups": plain["groups"],
        }

    return [p for p in repeat(seconds, pair, INPUTS["cli-cold"]) if p is not None]


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def merge_summaries(summaries: list) -> dict:
    """Add the span summaries of several traced launches."""
    merged = {"layers": summaries[0]["layers"], "calls": {}, "self_s": {}, "self_sum_ok": True}
    for s in summaries:
        for key in ("calls", "self_s"):
            for layer, value in s[key].items():
                merged[key][layer] = merged[key].get(layer, 0) + value
        for key in ("terms_used", "piu_evals", "raised", "spans", "wall_s",
                    "layer_self_sum_s", "bench_self_s"):
            merged[key] = merged.get(key, 0) + s[key]
        merged["self_sum_ok"] = merged["self_sum_ok"] and s["self_sum_ok"]
    return merged


# per-layer metric names that a traced summary gives under another key
SUMMARY_KEYS = {
    "functions.terms_used": "terms_used",
    "functions.piu.evals": "piu_evals",
    "identities.raised": "raised",
}
GROUP_PREFIX = "identities.group."


def layer_value(name: str, pairs: list):
    """A per-layer metric named in BENCHMARK.json, as the median over the
    traced pairs; None when its name matches no layer of the tracer.

    ``<layer>.calls`` and ``<layer>.ops`` count the layer's spans,
    ``<layer>.self_s`` adds their self times, and
    ``identities.group.<group>_s`` adds the group's record times of the
    untraced repetition.  A layer the workload does not call reads 0.
    """
    if name in SUMMARY_KEYS:
        return median(p["trace"][SUMMARY_KEYS[name]] for p in pairs)
    if name.startswith(GROUP_PREFIX) and name.endswith("_s"):
        group = name[len(GROUP_PREFIX):-2]
        return median(p["groups"].get(group, 0.0) for p in pairs)
    layer, _, field = name.rpartition(".")
    if layer not in pairs[0]["trace"]["layers"]:
        return None
    if field in ("calls", "ops"):
        return median(p["trace"]["calls"].get(layer, 0) for p in pairs)
    if field == "self_s":
        return median(p["trace"]["self_s"].get(layer, 0.0) for p in pairs)
    return None


def cli_probes(count: int = 5) -> dict:
    """Launch-to-exit of a bare interpreter and of ``import lucascalc.cli``."""
    bare, imported = [], []
    for _ in range(count):
        bare.append(launch([PYTHON, "-c", "pass"])[0])
        imported.append(launch([PYTHON, "-c", "import lucascalc.cli"])[0])
    return {"interp_ms": median(bare) * 1e3, "import_launch_ms": median(imported) * 1e3}


def traced_metrics(run: Run, pairs: list, probes: dict) -> None:
    if not pairs:
        return
    run.metrics = {
        "cli.interp_ms": probes["interp_ms"],
        "cli.import_ms": probes["import_launch_ms"] - probes["interp_ms"],
        "cli.command_ms": median(p["launch_s"] for p in pairs) * 1e3 - probes["import_launch_ms"],
        "trace.wall_s": median(p["traced_wall_s"] for p in pairs),
        "trace.overhead_s": median(p["traced_wall_s"] - p["plain_wall_s"] for p in pairs),
    }
    for name in PER_LAYER:
        if name not in run.metrics:
            value = layer_value(name, pairs)
            if value is None:
                run.wrong(f"per-layer metric {name} names no traced layer")
            else:
                run.metrics[name] = value
    bad = [p["trace"] for p in pairs if not p["trace"]["self_sum_ok"]]
    t = (bad or [pairs[0]["trace"]])[0]
    run.notes.append(
        f"self-time check ok in {len(pairs) - len(bad)} of {len(pairs)} traced repetitions "
        f"(nesting, and the sum of self times against the child's own clock within 0.1% + 100 us); "
        f"e.g. layers {t['layer_self_sum_s']:.4f} s + benchmark {t['bench_self_s']:.4f} s vs "
        f"wall {t['wall_s']:.4f} s over {t['spans']} spans"
    )
    if bad:
        run.wrong("layer self times do not add up to the traced wall time")
    run.notes.append(
        f"tracing overhead: traced {run.metrics['trace.wall_s']:.4f} s, overhead "
        f"{run.metrics['trace.overhead_s']:.4f} s (median of {len(pairs)} pairs)"
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "lucascalc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run()
    try:
        if not trace:
            if workload.startswith("verify-"):
                verify_timed(run, workload, seed, seconds)
            elif workload == "eval-points":
                eval_timed(run, seed, seconds)
            else:
                cli_timed(run, seed, seconds)
            return run
        probes = cli_probes()
        if workload.startswith("verify-"):
            pairs = verify_traced(run, workload, seed, seconds)
        elif workload == "eval-points":
            pairs = eval_traced(run, seed, seconds)
        else:
            pairs = cli_traced(run, seed, seconds)
        traced_metrics(run, pairs, probes)
    except ChildFailed as exc:
        run.wrong(str(exc))
    return run


def report(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics and checks, and return its result."""
    started = time.perf_counter()
    run = run_workload(workload, seed, seconds, bool(trace))
    units = PER_LAYER if trace else END_TO_END
    missing = [name for name in units if name not in run.metrics]
    if missing:
        run.wrong(f"no value for {', '.join(missing)}")
        run.metrics = {}
    info = provenance(seed)
    ratio = run.failed / run.attempted if run.attempted else 1.0

    print(f"workload {workload}: {WORKLOADS[workload]}")
    print("provenance " + json.dumps(info, sort_keys=True))
    for note in run.notes:
        print(note)
    for name, value in run.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_ratio = {ratio:.6g} ({run.failed} of {run.attempted} ops)")
    kinds = {k: v for k, v in run.details.items() if k.endswith(("_trials", "_calls"))}
    if kinds:
        print(f"failed ops that do not fail the run: {kinds}")
    if "outcome_digests" in run.details:
        print(f"outcome digest {sorted(set(run.details['outcome_digests']))}")
    print(f"correct = {run.correct}; {time.perf_counter() - started:.1f} s")

    record = {
        "workload": workload, "seconds": seconds, "trace": trace,
        "provenance": info, "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed, "failed_ratio": ratio, "metrics": run.metrics,
        "notes": run.notes, "details": run.details,
    }
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in run.metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "lucascalc" / "__init__.py").is_file():
        print(f"error: no lucascalc sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Compile and cache the byte code once, untimed.
    _, warm, _ = launch([PYTHON, "-c", "import lucascalc, lucascalc.cli"])
    if warm.returncode != 0:
        print(f"error: cannot import lucascalc from {SRC}: {warm.stderr.strip()[-300:]}", file=sys.stderr)
        return 2

    if args.workload != "all":
        return 0 if report(args.workload, args.seed, args.seconds, args.trace)["correct"] else 1
    results = {w: report(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
