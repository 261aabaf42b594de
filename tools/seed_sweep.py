"""Run the identity suite over a range of seeds and print every failing draw.

Usage:
    python3 tools/seed_sweep.py SRC [--suite SELECTION] [--seeds FIRST-LAST]
                                    [--trials N] [--order N]

SRC is the directory that holds the ``lucascalc`` package (``src`` in a
checkout).  For each seed from FIRST to LAST inclusive the script runs
``run_suite(SELECTION, N, order, seed)`` and prints one tab-separated line
per failing trial: the seed, the record id, and the counterexample (its
params, lhs, rhs and delta) as JSON.  The last line counts the failing
seeds.  It exits 1 when any trial fails, else 0.  Two trees that fail alike
print the same lines, so compare them with ``diff``:

    python3 tools/seed_sweep.py /path/to/old/src --suite piu-special,periodic --seeds 0-299 > old.txt
    python3 tools/seed_sweep.py src --suite piu-special,periodic --seeds 0-299 > new.txt
    diff old.txt new.txt
"""

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="directory that holds the lucascalc package")
    parser.add_argument("--suite", default="all", help="all, a group, an id, or a comma list")
    parser.add_argument("--seeds", default="0-49", help="inclusive seed range FIRST-LAST")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--order", type=int, default=16)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    selection = "all" if args.suite == "all" else [token.strip() for token in args.suite.split(",")]

    sys.path.insert(0, args.src)
    from lucascalc import run_suite

    failing = 0
    for seed in seeds:
        report = run_suite(selection, trials=args.trials, order=args.order, seed=seed)
        failing += not report.all_passed
        for result in report.results:
            for failure in result.failures:
                example = {"params": failure.params, "lhs": failure.lhs, "rhs": failure.rhs, "delta": failure.delta}
                print(f"{seed}\t{result.id}\t{json.dumps(example, default=str)}", flush=True)
    print(f"{failing} of {len(seeds)} seeds failed ({args.suite}, {args.trials} trials, order {args.order})")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
