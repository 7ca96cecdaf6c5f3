"""Fixed reference job: the host's speed for fresh Python processes.

run.py times this script between the passes of a workload, in as many
concurrent processes as the workload's command keeps busy, and scales the
workload's times by it.  It imports nothing from the package, so no change
to the package can change its time.  Its work is of the same kind as the
CLI's: interpreter start-up and imports, then dict-of-tuple and Fraction
arithmetic and a large JSON dump, so the memory and start-up costs that
drift on a shared host slow it as they slow the CLI.  One copy takes about 0.24 s on a quiet 2-vCPU host, two at once 0.28 s.
"""

import argparse  # noqa: F401  (start-up cost of the CLI's own imports)
import json
from fractions import Fraction

terms = {}
for i in range(1, 20001):
    terms[(i % 7, i % 11, i % 13, i)] = Fraction(i * i + 1, i % 17 + 1)
acc = Fraction(0)
for key, value in terms.items():
    if key[0] == 3:
        acc += value * value
rows = [[(j * k) % 1009 for j in range(64)] for k in range(3000)]
print(len(json.dumps({"rows": rows, "acc": str(acc)})))
