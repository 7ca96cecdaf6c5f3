"""The exact-rank routine and the generator basis against Fraction references.

`symcalc.RankTracker` eliminates over the integers; `FractionSpan` below is
a plain Fraction elimination, and the tests compare the two on random rows.
`oracle.GeneratorSet` keeps a bracket only when it is linearly independent
of every generator kept before it.  `reference_steps` is the growth it
replaced: a bracket is dropped only when it is a scalar multiple of an
earlier generator.  Every generator of the reference must lie in the span
of the basis kept over the same steps, and the two small growth vectors
must agree.  `GeneratorSet` keeps its generators as packed rows and
brackets them with its own focal-pair kernel; `symcalc.lie_bracket` is the
kernel's reference.
"""

import math
import random
from fractions import Fraction

import pytest

from goursat import invariants, oracle
from goursat.codeword import canonical_chart_point, enumerate_goursat_words
from goursat.polynomial import Poly
from goursat.symcalc import RankTracker, VField, lie_bracket, point_row, std_fields

from worked_fixtures import EXHAUSTION_BUDGET, evaluate


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


def generator_row(gen):
    return {(i, m): c for i, p in enumerate(gen.comps) for m, c in p.terms.items()}


def primitive(field):
    """The field divided by the content of its int coefficients, signed so
    that the leading coefficient is positive: the canonical form of its
    scalar multiples."""
    content = 0
    for p in field.comps:
        content = math.gcd(content, *p.terms.values())
    if not content:
        return field
    if next(p for p in field.comps if p.terms).leading()[1] < 0:
        content = -content
    return VField(
        field.nvars,
        tuple(Poly(p.nvars, {m: c // content for m, c in p.terms.items()}) for p in field.comps),
    )


def reference_steps(chart, nsteps):
    """The first nsteps batches, deduplicated by canonical form up to
    scalar multiples."""
    fs, vs = std_fields(chart)
    focal_pair = (fs[chart.k], vs[chart.k])
    seen = set()

    def admit(candidates):
        batch = []
        for gen in candidates:
            key = tuple(p.key() for p in gen.comps)
            if key not in seen:
                seen.add(key)
                batch.append(gen)
        return batch

    steps = [admit([primitive(g) for g in focal_pair])]
    while len(steps) < nsteps:
        candidates = []
        for y in steps[-1]:
            for z in focal_pair:
                bracket = lie_bracket(z, y)
                if not bracket.is_zero:
                    candidates.append(primitive(bracket))
        steps.append(admit(candidates))
    return steps


def reference_sg(steps, coords):
    """Rank of the generators up to each step, evaluated at the point."""
    span = FractionSpan()
    sg = []
    for batch in steps:
        for gen in batch:
            span.add(dict(enumerate(evaluate(gen, coords))))
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


def test_point_row_is_the_value_at_the_point():
    rng = random.Random(9)
    nv = 4
    for _ in range(200):
        comps = []
        for _ in range(nv):
            terms = {}
            for _ in range(rng.randrange(0, 4)):
                terms[tuple(rng.randrange(0, 3) for _ in range(nv))] = rng.randint(-5, 5)
            comps.append(Poly(nv, terms))
        field = VField(nv, tuple(comps))
        point = [rng.randint(-5, 5) for _ in range(nv)]
        row = point_row(field, point)
        assert all(type(c) is int for c in row.values())
        assert row == {i: v for i, v in enumerate(evaluate(field, point)) if v}


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
                assert span.add(generator_row(gens.field(gen))), (word, step)


@pytest.mark.parametrize("k", range(1, 7))
def test_kernel_brackets_are_lie_brackets(k):
    # Both focal-pair brackets of every generator kept to exhaustion, from
    # the packed kernel, against lie_bracket on the unpacked field.
    for w in enumerate_goursat_words(k):
        chart = canonical_chart_point(w).chart
        fs, vs = std_fields(chart)
        gens = grown(chart)
        for gen in (g for batch in gens.steps for g in batch):
            y = gens.field(gen)
            assert gens.field(gens.bracket_f(gen)) == lie_bracket(fs[k], y), w
            assert gens.field(gens.bracket_v(gen)) == lie_bracket(vs[k], y), w


@pytest.mark.parametrize("k", range(1, 7))
def test_reference_generators_lie_in_the_basis(k):
    for w in enumerate_goursat_words(k):
        p = canonical_chart_point(w)
        sg = oracle.small_growth_bruteforce(p, invariants.nonholonomy_degree(w) + 2)
        ref = reference_steps(p.chart, len(sg))
        assert reference_sg(ref, p.coords) == sg == tuple(invariants.bundle(w).sg), w

        gens = grown(p.chart, len(ref))
        span = FractionSpan()
        for step, (kept, old) in enumerate(zip(gens.steps, ref), start=1):
            for gen in kept:
                span.add(generator_row(gens.field(gen)))
            for gen in old:
                assert not span.add(generator_row(gen)), (w, step)
