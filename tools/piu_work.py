"""Count the work of the suite's pi_u searches, to compare two source trees.

Usage:
    python3 tools/piu_work.py SRC [--suite SELECTION] [--seeds FIRST-LAST] [--trials N]

SRC is the directory that holds the ``lucascalc`` package (``src`` in a
checkout).  For each seed from FIRST to LAST inclusive the script runs
``run_suite(SELECTION, N, 16, seed)`` and counts, over every
``find_pi_u`` search the identities make: the searches, the sine sums, the
terms those sums drew, and the passes of the derivative majorant.  It also
hashes each search's arguments and outcome (root and residual, or error
type and text) in order.  Then, over every adaptive sum the selection
makes, searches or not, it counts the sums and the terms they drew and
hashes each sum's outcome (the value's type and the repr of its parts,
zero signs included, with the terms used; or the error type and text) in
order.  It prints one line:

    calls 742 sums 12076 terms 94231 passes 2527 outcomes 8cbabfc4bcbeb3cc all_sums 13640 all_terms 111628 sum_outcomes ac339aa9e64f7783

The counts do not depend on the machine's timing, so two trees can be
compared on them; two trees whose searches end alike print the same
outcome hash, and two whose sums end alike the same sum_outcomes hash:

    python3 tools/piu_work.py /path/to/old/src --seeds 11-18 > old.txt
    python3 tools/piu_work.py src --seeds 11-18 > new.txt
"""

import argparse
import hashlib
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the lucascalc package")
    parser.add_argument("--suite", default="piu-special,periodic", help="all, a group, an id, or a comma list")
    parser.add_argument("--seeds", default="11-18", help="inclusive seed range FIRST-LAST")
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    selection = "all" if args.suite == "all" else [token.strip() for token in args.suite.split(",")]

    sys.path.insert(0, args.src)
    from lucascalc import functions, identities, run_suite

    counts = {"calls": 0, "sums": 0, "terms": 0, "passes": 0}
    every = {"all_sums": 0, "all_terms": 0}
    outcomes, sum_outcomes = hashlib.sha256(), hashlib.sha256()
    searching = False
    find_pi_u, adaptive_sum, sine_majorant = identities.find_pi_u, functions._adaptive_sum, functions._sine_majorant

    def counting_find_pi_u(params, u, **kwargs):
        nonlocal searching
        counts["calls"] += 1
        searching = True
        try:
            root = find_pi_u(params, u, **kwargs)
            outcome = f"{root.value!r} {root.residual!r}"
        except Exception as error:
            outcome = f"{type(error).__name__}: {error}"
            raise
        finally:
            searching = False
            outcomes.update(f"{params!r} {u!r} {kwargs!r} -> {outcome}\n".encode())
        return root

    def counting_adaptive_sum(terms, eps):
        every["all_sums"] += 1
        counts["sums"] += searching
        try:
            value, used = adaptive_sum(drawn(terms, searching), eps)
        except Exception as error:
            sum_outcomes.update(f"{type(error).__name__}: {error}\n".encode())
            raise
        parts = f"{value.real!r} {value.imag!r}" if isinstance(value, complex) else repr(value)
        sum_outcomes.update(f"{type(value).__name__} {parts} {used}\n".encode())
        return value, used

    def drawn(terms, in_search):
        for term in terms:
            every["all_terms"] += 1
            counts["terms"] += in_search
            yield term

    def counting_sine_majorant(u, params, tables):
        tails = sine_majorant(u, params, tables)
        if tails is None:
            return None

        def counting_tails(X):
            counts["passes"] += 1
            return tails(X)

        return counting_tails

    identities.find_pi_u = counting_find_pi_u
    functions._adaptive_sum = counting_adaptive_sum
    functions._sine_majorant = counting_sine_majorant
    for seed in seeds:
        run_suite(selection, trials=args.trials, order=16, seed=seed)
    print(
        " ".join(f"{name} {count}" for name, count in counts.items()),
        "outcomes",
        outcomes.hexdigest()[:16],
        " ".join(f"{name} {count}" for name, count in every.items()),
        "sum_outcomes",
        sum_outcomes.hexdigest()[:16],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
