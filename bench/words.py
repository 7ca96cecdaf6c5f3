"""Seeded benchmark inputs and reference combinatorics.

Nothing here imports the package under test: the benchmark draws its own
words and computes its own reference values, so a defect in the package
can neither shape the inputs nor pass the output checks.
"""

from __future__ import annotations

import random

# deep-words draws one word per cell (k, degree of nonholonomy), within
# DEGREE_TOL of the target.  The cost of invariants/etable grows like
# degree * k (the e-table has degree - 1 rows of up to k entries), so fixed
# cells keep the cost of a pass the same from seed to seed while the words
# themselves change.  Every word is heavy enough that computing and printing
# it, not interpreter start-up, sets most of each command's latency (start-up
# timings are the noisiest here).  RR V^18 (degree 17,711) is the heaviest
# word, so the peak RSS and the tail latency come from a fixed word.
# Degrees stop there so that a run holds several passes: one word of degree
# 1e5 (k = 24) alone takes about 9 s over the three commands.
DEEP_CELLS = ((20, 8_000), (24, 10_000), (28, 10_000))
DEGREE_TOL = 0.03
# The worst-case family RR V^(k-2), whose degree is the Fibonacci number F(k+2).
RRV_KS = (18, 20)

SWEEP_N = 10
SYMBOLIC_N = 6


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def rrv_word(k: int) -> str:
    return "RR" + "V" * (k - 2)


def goursat_words(n: int) -> list[str]:
    """All Goursat words of length n >= 2: R R, then R or V anywhere and T
    only right after V or T."""
    out = ["RR"]
    for _ in range(n - 2):
        out = [w + s for w in out for s in ("RVT" if w[-1] in "VT" else "RV")]
    return out


def degree(word: str) -> int:
    """Degree of nonholonomy of a Goursat word: the last beta entry, by
    Jean's recursion on prefixes (beta_2 = 1, beta_3 = 2; then R adds one
    to the shorter prefix's entry, V adds the two shorter prefixes'
    entries, T doubles one and subtracts the other)."""
    vecs: list[list[int]] = []
    for m, last in enumerate(word, start=1):
        vec = [1, 2]
        for j in range(4, m + 3):
            a = vecs[m - 2][j - 3]
            if last == "R":
                vec.append(1 + a)
            elif last == "V":
                vec.append(a + vecs[m - 3][j - 4])
            else:
                vec.append(2 * a - vecs[m - 3][j - 4])
        vecs.append(vec)
    return vecs[-1][-1]


def draw_word(rng: random.Random, k: int, target: int) -> str:
    """A random Goursat word of length k whose degree is within DEGREE_TOL
    of target.  Each attempt picks its own letter bias, so long V runs,
    T runs and R-heavy words all occur."""
    while True:
        p_v = rng.uniform(0.2, 0.98)
        p_t = rng.uniform(0.0, 0.6)
        letters = ["R", "R"]
        for _ in range(k - 2):
            if letters[-1] in "VT" and rng.random() < p_t:
                letters.append("T")
            else:
                letters.append("V" if rng.random() < p_v else "R")
        word = "".join(letters)
        if abs(degree(word) / target - 1) <= DEGREE_TOL:
            return word


def deep_words(seed: int) -> list[str]:
    """The deep-words pass: one drawn word per cell, then RR V^(k-2)."""
    rng = random.Random(f"deep-words:{seed}")
    return [draw_word(rng, k, d) for k, d in DEEP_CELLS] + [rrv_word(k) for k in RRV_KS]
