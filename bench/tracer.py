"""Spans recorded from outside the library, around calls into each layer.

``install`` wraps the public functions of each lucascalc module in every
module namespace that bound them (``from .scalars import lucasnomial``
copies the name, so patching ``lucascalc.scalars`` alone would miss the
calls from ``deformed``, ``functions`` and ``identities``), and the public
methods of the layer classes.  Each span keeps its name, start, end and
parent in flat arrays; ``summary`` turns them into per-layer call counts
and self times, where self time is a span's duration minus the time its
child spans cover.  Time spent in library code that no wrapper covers is
charged to the nearest enclosing span, so it stays in the sum.
"""

from __future__ import annotations

import array
import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

from lucascalc.errors import LucasError

_GAUSSIAN_OPS = (
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ "
    "__neg__ __pow__ conjugate"
).split()

# module -> public name -> the layer its spans are counted under
FUNCTIONS = {
    "scalars": {
        "lucasnomial": "scalars.lucasnomial",
        "lucas_u": "scalars.seq",
        "lucas_v": "scalars.seq",
        "lucastorial": "scalars.seq",
        "make_params": "scalars.params",
        "params_from_roots": "scalars.params",
        "promote_params": "scalars.params",
    },
    "series": {
        "outer": "series.mul",
        "promote_series": "series.other",
        "promote_series2": "series.other",
    },
    "deformed": {
        "deformed_power_coeffs": "deformed.power",
        "deformed_power_value": "deformed.power",
        "phi_product_power": "deformed.power",
        "deformed_zero": "deformed.power",
        "multinomial_number": "deformed.multinomial",
    },
    "calculus": {
        "derivative_series": "calculus.series",
        "antiderivative_series": "calculus.series",
        "derivative_series2": "calculus.series",
        "antiderivative_series2": "calculus.series",
        "derivative_value": "calculus.point",
        "integral_value": "calculus.point",
        "integration_by_parts_residual": "calculus.point",
    },
    "functions": {
        "fn_series": "functions.series",
        "weighted_fn_series": "functions.series",
        "multinomial_series": "functions.series",
        "deformed_zero_series": "functions.series",
        "binomial_series2": "functions.series",
        "fn_value_info": "functions.value",
        "fn_value": "functions.value",
        "weighted_fn_value": "functions.value",
        "multinomial_value": "functions.value",
        "deformed_zero_value": "functions.value",
        "weighted_binomial_value": "functions.value",
        "binomial_value": "functions.value",
        "tilde_value": "functions.value",
        "find_pi_u": "functions.piu",
    },
    # run_suite's self time is the record bodies minus their children:
    # sampling, retry loops and comparisons.
    "identities": {"run_suite": "identities.check"},
    "cli": {"main": "cli.main"},
}

_SERIES_OTHER = (
    "__init__ zero constant from_terms __add__ __sub__ __neg__ scale dilate truncate "
    "substitute_diagonal __eq__ eval_at"
).split()

METHODS = {
    ("scalars", "GaussianRational"): dict.fromkeys(_GAUSSIAN_OPS, "scalars.gaussian"),
    ("scalars", "SeqCache"): dict.fromkeys(("u", "v", "factorial"), "scalars.seq"),
    ("series", "TruncatedSeries"): {
        **dict.fromkeys(_SERIES_OTHER, "series.other"),
        "__mul__": "series.mul",
        "__rmul__": "series.mul",
        "reciprocal": "series.reciprocal",
    },
    ("series", "TruncatedSeries2"): {
        **dict.fromkeys(_SERIES_OTHER, "series.other"),
        "__mul__": "series.mul",
        "__rmul__": "series.mul",
    },
    ("deformed", "MultinomialWeights"): {
        "__init__": "deformed.weights",
        "__call__": "deformed.multinomial",
    },
    ("deformed", "PowerWeights"): dict.fromkeys(("__init__", "__call__"), "deformed.weights"),
    ("deformed", "DeformedZeroWeights"): dict.fromkeys(("__init__", "__call__"), "deformed.weights"),
    ("deformed", "DeformedPowerWeights"): dict.fromkeys(("__init__", "__call__"), "deformed.weights"),
}

LAYERS = sorted(
    {layer for table in FUNCTIONS.values() for layer in table.values()}
    | {layer for table in METHODS.values() for layer in table.values()}
)
ROOT = "bench"
# The root span opens and closes within a few microseconds of the caller's
# own clock readings: 0.1% of the wall time plus 100 us.
SELF_SUM_TOLERANCE = 1e-3
SELF_SUM_SLACK_S = 1e-4


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names = [ROOT]
        self.layer_of = {ROOT: "bench"}
        self._name_ids = {ROOT: 0}
        self.name = array.array("H")
        self.parent = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised: list[int] = []
        self.terms_used = 0
        self._stack = [0]

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
        return self._name_ids[name]

    def wrap(self, fn, name: str, layer: str, after=None):
        nid = self._name_id(name, layer)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, raised, clock = self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except (LucasError, ZeroDivisionError):
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, result)
            return result

        return traced

    def begin(self) -> None:
        """Open the root span: the benchmark's own time is its self time."""
        self.name.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def finish(self) -> None:
        self.end[0] = time.perf_counter()

    def _count_terms(self, idx: int, info) -> None:
        # Quotient kinds call fn_value_info again for their parts; count
        # only the outermost call, whose terms_used already sums the parts.
        if self.name[self.parent[idx]] != self.name[idx]:
            self.terms_used += info.terms_used

    def summary(self, wall_s: float) -> dict:
        """Per-layer counts and self times, plus the self-time sum check.

        ``wall_s`` is the caller's own perf_counter reading around the traced
        work, taken apart from the span store.  The check passes when every
        span is closed and lies within its parent, and the self times of all
        spans, the benchmark's included, add up to ``wall_s``.  Given the
        nesting, that sum is the root span's duration, so the check catches
        spans left open, misplaced or overlapping and a root that does not
        cover the work; time in code outside every wrapper is not lost but
        charged to the enclosing span.
        """
        n = len(self.start)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        covered = [0.0] * n
        nesting_ok = True
        for i in range(1, n):
            p = parents[i]
            covered[p] += ends[i] - starts[i]
            if not starts[p] <= starts[i] <= ends[i] <= ends[p]:
                nesting_ok = False
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        layer_by_id = [self.layer_of[name] for name in self.names]
        for i in range(n):
            layer = layer_by_id[names[i]]
            calls[layer] += 1
            self_s[layer] += ends[i] - starts[i] - covered[i]
        by_name = {self.names[i]: i for i in range(len(self.names))}
        piu = by_name.get("functions.find_pi_u")
        fn_value = by_name.get("functions.fn_value")
        run_suite = by_name.get("identities.run_suite")
        piu_evals = sum(
            1 for i in range(n) if names[i] == fn_value and names[parents[i]] == piu
        ) if piu is not None else 0
        raised_into_checks = sum(
            1 for i in self.raised if names[parents[i]] == run_suite
        ) if run_suite is not None else 0
        layer_sum = sum(v for k, v in self_s.items() if k != "bench")
        total = layer_sum + self_s["bench"]
        return {
            "layers": LAYERS,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "terms_used": self.terms_used,
            "piu_evals": piu_evals,
            "raised": raised_into_checks,
            "spans": n,
            "wall_s": wall_s,
            "layer_self_sum_s": layer_sum,
            "bench_self_s": self_s["bench"],
            "self_sum_ok": nesting_ok
            and abs(total - wall_s) <= SELF_SUM_TOLERANCE * wall_s + SELF_SUM_SLACK_S,
        }

    def write(self, path) -> None:
        """Write every span as name, parent, start, end (gzip TSV)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("#name\tparent\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every traced function and method of the imported lucascalc modules."""
    namespaces = [
        module for name, module in list(sys.modules.items())
        if name == "lucascalc" or name.startswith("lucascalc.")
    ]
    for short, table in FUNCTIONS.items():
        module = sys.modules.get(f"lucascalc.{short}")
        if module is None:
            continue
        for attr, layer in table.items():
            original = getattr(module, attr)
            after = tracer._count_terms if attr == "fn_value_info" else None
            wrapped = tracer.wrap(original, f"{short}.{attr}", layer, after)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapped)
    for (short, cls_name), table in METHODS.items():
        cls = getattr(sys.modules[f"lucascalc.{short}"], cls_name)
        for attr, layer in table.items():
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            name = f"{short}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, layer)))
            else:
                setattr(cls, attr, tracer.wrap(raw, name, layer))
