"""Record the seeded outcome of every identity record, to compare two source trees.

Usage:
    python3 tools/compare_outcomes.py SRC OUT.json

SRC is the directory that holds the ``lucascalc`` package (``src`` in a
checkout).  The script runs ``run_suite("all", 25, order, seed)`` for seeds 7,
1 and 2024 and orders 16 and 24, and writes one row per record and run: id,
status, failure count, the failures' params and sides, and the count and
sha256 of the random draws the record made.  It prints one line, the number
of rows and the sha256 of the file it wrote:

    rows 612 sha256 46c2bf9a62086645879c3eb2be16419de4f9488e19fd065a8b4f6577cc654d36

Two trees with the same seeded outcomes write identical files and print the
same line, so compare the lines, or the files with ``cmp``:

    python3 tools/compare_outcomes.py /path/to/old/src old.json
    python3 tools/compare_outcomes.py src new.json
    cmp old.json new.json
"""

import hashlib
import json
import random
import sys

sys.path.insert(0, sys.argv[1])
LOGS = {}


class LoggingRandom(random.Random):
    """A Random that logs every draw under its seed."""

    def __init__(self, seed=None):
        self._log = LOGS.setdefault(seed, [])
        super().__init__(seed)

    def random(self):
        value = super().random()
        self._log.append(repr(value))
        return value

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self._log.append(f"{k}:{value}")
        return value


random.Random = LoggingRandom
from lucascalc import run_suite  # noqa: E402  (after the patch, so the suite draws from LoggingRandom)

data = {}
for seed in (7, 1, 2024):
    for order in (16, 24):
        LOGS.clear()
        data[f"{seed}|{order}"] = [
            [
                r.id,
                r.status,
                len(r.failures),
                [[f.params, f.lhs, f.rhs, f.delta] for f in r.failures],
                len(LOGS[f"{seed}|{r.id}"]),
                hashlib.sha256("\n".join(LOGS[f"{seed}|{r.id}"]).encode()).hexdigest(),
            ]
            for r in run_suite("all", 25, order, seed).results
        ]
text = json.dumps(data, sort_keys=True)
with open(sys.argv[2], "w") as out:
    out.write(text)
print(f"rows {sum(map(len, data.values()))} sha256 {hashlib.sha256(text.encode()).hexdigest()}")
