"""The exact-rank routine and the generator basis against Fraction references.

`symcalc.RankTracker` eliminates over the integers; `FractionSpan` below is
a plain Fraction elimination, and the tests compare the two on random rows.
`oracle.GeneratorSet` keeps a bracket only when it is linearly independent
of every generator kept before it.  `reference_steps` is the growth it
replaced: a bracket is dropped only when it is a scalar multiple of an
earlier generator.  Every generator of the reference must lie in the span
of the basis kept over the same steps, and the two small growth vectors
must agree; the reference brackets with `symcalc.lie_bracket`, so what
it tests is the basis, not the bracket.  `GeneratorSet` keeps its
generators as packed rows and brackets them with `symcalc.Packing.bracket`,
prepared on f_k and on v_k; the Poly-only bracket of `reference_fields` is
its reference.
"""

import math
import random
from fractions import Fraction

import pytest

from goursat import invariants, oracle
from goursat.charts import Chart, canonical_chart_point, enumerate_goursat_words
from goursat.polynomial import Poly
from goursat.symcalc import Packing, RankTracker, lie_bracket

from reference_fields import Field, bracket, evaluate, pack, std_fields, unpack
from worked_fixtures import EXHAUSTION_BUDGET


class FractionSpan:
    """The span of sparse rational rows.  Each kept row has a 1 at its
    pivot and zeros at the pivots kept before it, so one pass in insertion
    order reduces a new row."""

    def __init__(self):
        self.pivots: dict = {}

    def add(self, row: dict) -> bool:
        """Add a row; True iff it lies outside the span."""
        row = {key: Fraction(c) for key, c in row.items()}
        for key, pivot_row in self.pivots.items():
            factor = row.get(key)
            if factor:
                for k, c in pivot_row.items():
                    row[k] = row.get(k, 0) - factor * c
        row = {k: c for k, c in row.items() if c}
        if not row:
            return False
        key, lead = next(iter(row.items()))
        self.pivots[key] = {k: c / lead for k, c in row.items()}
        return True


def primitive(row):
    """The row divided by the content of its coefficients, signed so that
    the coefficient at its least key is positive: the canonical form of
    its scalar multiples."""
    content = math.gcd(*row.values())
    if row[min(row)] < 0:
        content = -content
    return {key: c // content for key, c in row.items()}


def reference_steps(pk, nsteps):
    """The first nsteps batches, as rows of the packing pk, deduplicated by
    canonical form up to scalar multiples."""
    fs, vs = pk.frames
    focal_pair = (fs[pk.chart.k], vs[pk.chart.k])
    seen = set()

    def admit(candidates):
        batch = []
        for gen in candidates:
            key = frozenset(gen.items())
            if key not in seen:
                seen.add(key)
                batch.append(gen)
        return batch

    steps = [admit([primitive(g) for g in focal_pair])]
    while len(steps) < nsteps:
        candidates = []
        for y in steps[-1]:
            for z in focal_pair:
                b = lie_bracket(pk, z, y)
                if b:
                    candidates.append(primitive(b))
        steps.append(admit(candidates))
    return steps


def reference_sg(pk, steps, coords):
    """Rank of the generators up to each step, evaluated at the point."""
    span = FractionSpan()
    sg = []
    for batch in steps:
        for gen in batch:
            span.add(dict(enumerate(evaluate(unpack(pk, gen), coords))))
        sg.append(len(span.pivots))
    return tuple(sg)


def test_rank_tracker_against_fraction_elimination():
    # Rows are integer combinations of a few base rows, so many of them
    # depend on the rows before them.
    rng = random.Random(7)
    for _ in range(300):
        ncols = rng.randrange(1, 8)
        base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randrange(1, 5))]
        tracker, span = RankTracker(), FractionSpan()
        for _ in range(rng.randrange(1, 10)):
            coeffs = [rng.randint(-3, 3) for _ in base]
            row = dict(enumerate(sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)))
            assert tracker.add(row) == span.add(row)
        assert tracker.rank == len(span.pivots)


def test_at_point_is_the_value_at_the_point():
    rng = random.Random(9)
    nv = 4
    pk = Packing(Chart("oo"), 3)
    for _ in range(200):
        comps = []
        for _ in range(nv):
            terms = {}
            for _ in range(rng.randrange(0, 4)):
                terms[tuple(rng.randrange(0, 3) for _ in range(nv))] = rng.randint(-5, 5)
            comps.append(Poly(nv, terms))
        field = Field(comps)
        point = [rng.randint(-5, 5) for _ in range(nv)]
        row = pk.at_point(point)(pack(pk, field))
        assert all(type(c) is int for c in row.values())
        assert {i: v for i, v in row.items() if v} == {
            i: v for i, v in enumerate(evaluate(field, point)) if v
        }


def grown(chart, nsteps=None):
    """The GeneratorSet of a chart, grown to nsteps batches, or else until
    a batch comes out empty."""
    gens = oracle.GeneratorSet(chart, EXHAUSTION_BUDGET)
    while len(gens.steps) < nsteps if nsteps else gens.steps[-1]:
        gens.grow()
    return gens


def test_kept_generators_are_independent():
    # Each batch, grown until one comes out empty, is independent of all
    # earlier ones.
    for word in ("RRVTVV", "RRVVVV"):
        gens = grown(canonical_chart_point(word).chart)
        span = FractionSpan()
        for step, batch in enumerate(gens.steps, start=1):
            for gen in batch:
                assert span.add(gen), (word, step)


@pytest.mark.parametrize("k", range(1, 7))
def test_kernel_brackets_are_lie_brackets(k):
    # Both focal-pair brackets of every generator kept to exhaustion, from
    # the packed routine, against the reference bracket on the unpacked
    # field.
    for w in enumerate_goursat_words(k):
        chart = canonical_chart_point(w).chart
        fs, vs = std_fields(chart)
        gens = grown(chart)
        pk = gens.packing
        for gen in (g for batch in gens.steps for g in batch):
            y = unpack(pk, gen)
            assert unpack(pk, gens.bracket_f(gen)) == bracket(fs[k], y), w
            assert unpack(pk, gens.bracket_v(gen)) == bracket(vs[k], y), w


@pytest.mark.parametrize("k", range(1, 7))
def test_reference_generators_lie_in_the_basis(k):
    for w in enumerate_goursat_words(k):
        p = canonical_chart_point(w)
        sg = oracle.small_growth_bruteforce(p, invariants.nonholonomy_degree(w) + 2)
        gens = grown(p.chart, len(sg))
        ref = reference_steps(gens.packing, len(sg))
        assert reference_sg(gens.packing, ref, p.coords) == sg == tuple(invariants.bundle(w).sg), w

        span = FractionSpan()
        for step, (kept, old) in enumerate(zip(gens.steps, ref), start=1):
            for gen in kept:
                span.add(gen)
            for gen in old:
                assert not span.add(gen), (w, step)
