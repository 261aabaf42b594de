"""Count the scalar work of the suite's exact records, to compare two source trees.

Usage:
    python3 tools/exact_work.py SRC [--seeds FIRST-LAST] [--trials N]

SRC is the directory that holds the ``lucascalc`` package (``src`` in a
checkout).  For each seed from FIRST to LAST inclusive the script runs
``run_suite(IDS, N, 16, seed)`` over every catalog id whose check kind is
series-exact or bivariate-exact, and counts, over those runs: the
``Fraction`` objects constructed (arithmetic results included), the
``GaussianRational`` reductions (each one gcd over a triple), the
``math.gcd`` calls, the ``backend_of`` calls, the ``SeqCache._extend``
calls (``extends``, one lock take each to grow a sequence), the content-gcd
reductions of an exact series' integer form (``reductions``, calls of
``series._reduced``) and the largest denominator bit length an exact series
held (``max_bits``, read from every form that passes ``series._held``).  It
also hashes every record's outcome (id, status, failure count and the
failures' params and sides) in order.  The counters wrap
``scalars._reduced``, ``SeqCache._extend`` and ``series._held`` by name, so
one of the first five counts or ``max_bits`` that reads 0 over the run
means the name no longer does the work: the script then says which on stderr
and exits with status 1.  ``reductions`` may read 0 on a correct run, as a
reduction happens only when a denominator grows past its bound, and a tree
whose series hold no integer form (no ``series._held``) prints neither
``reductions`` nor ``max_bits``.  It prints one line:

    fractions 97899 gaussian_reductions 40840 gcds 145666 backend_of 51520 extends 3887 reductions 0 max_bits 1262 outcomes b1f0b1500ff218e8

The counts do not depend on the machine's timing, so two trees can be
compared on them; two trees whose records end alike print the same outcome
hash:

    python3 tools/exact_work.py /path/to/old/src --seeds 11-18 > old.txt
    python3 tools/exact_work.py src --seeds 11-18 > new.txt
"""

import argparse
import fractions
import hashlib
import math
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the lucascalc package")
    parser.add_argument("--seeds", default="11-18", help="inclusive seed range FIRST-LAST")
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    sys.path.insert(0, args.src)
    import lucascalc
    from lucascalc import scalars, series
    from lucascalc.identities import BIVARIATE_EXACT, CATALOG, SERIES_EXACT, run_suite

    ids = [id for id, record in CATALOG.items() if record.check_kind in (SERIES_EXACT, BIVARIATE_EXACT)]
    counts = {"fractions": 0, "gaussian_reductions": 0, "gcds": 0, "backend_of": 0, "extends": 0}
    forms = hasattr(series, "_held")  # a tree from before the integer form has neither count
    if forms:
        counts |= {"reductions": 0, "max_bits": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)

        return wrapper

    fraction_new = fractions.Fraction.__new__
    fractions.Fraction.__new__ = counted("fractions", fraction_new)
    math.gcd = counted("gcds", math.gcd)
    scalars._reduced = counted("gaussian_reductions", scalars._reduced)
    scalars.SeqCache._extend = counted("extends", scalars.SeqCache._extend)
    if forms:
        series._reduced = counted("reductions", series._reduced)
        held = series._held

        def holding(*args):
            form = held(*args)
            counts["max_bits"] = max(counts["max_bits"], form[2].bit_length())
            return form

        series._held = holding
    # every module that imported backend_of by name reads it from its own globals
    backend_of = counted("backend_of", scalars.backend_of)
    for name, module in list(sys.modules.items()):
        if name.startswith("lucascalc") and getattr(module, "backend_of", None) is lucascalc.backend_of:
            module.backend_of = backend_of

    outcomes = hashlib.sha256()
    for seed in seeds:
        for r in run_suite(ids, trials=args.trials, order=16, seed=seed).results:
            failures = [[f.params, f.lhs, f.rhs, f.delta] for f in r.failures]
            outcomes.update(f"{seed} {r.id} {r.status} {len(r.failures)} {failures!r}\n".encode())
    print(" ".join(f"{name} {count}" for name, count in counts.items()), "outcomes", outcomes.hexdigest()[:16])
    unread = [name for name, count in counts.items() if count == 0 and name != "reductions"]
    if unread:
        print(f"counters that read 0 (a wrapped name no longer does the work): {', '.join(unread)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
