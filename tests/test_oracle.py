import math
import random
from fractions import Fraction

import pytest

from goursat import invariants
from goursat.codeword import Chart, ChartPoint, canonical_chart_point
from goursat.errors import IndexRange, StepBudgetExceeded, TruncationTooSmall
from goursat.invariants import PuiseuxCharacteristic
from goursat.oracle import (
    Series,
    base_multiplicity_at_point,
    base_orders,
    blowup_multseq,
    focal_jet,
    focal_order_generic_jet,
    focal_orders,
    pathway_sections,
    small_growth_bruteforce,
    vo_at_point,
)
from goursat.polynomial import Poly, var_names

from worked_fixtures import (
    ORDERS_RRVRVV,
    ORDERS_RRVTVV,
    PATHWAY_RRVTVV_I7,
    SG_RRVTVV,
)


class TestSmallGrowthBruteforce:
    def test_rrvtvv_matches_blue_column(self):
        p = canonical_chart_point("RRVTVV")
        sg = small_growth_bruteforce(p, 25)
        assert sg[1:] == SG_RRVTVV
        assert sg[0] == 2

    def test_all_regular(self):
        for k in (1, 2, 4):
            sg = small_growth_bruteforce(canonical_chart_point("R" * k), k + 3)
            assert sg == tuple(range(2, k + 3))

    def test_always_begins_2_3_4(self):
        for w in ("RRV", "RRVT", "RRRR", "RVV"):
            sg = small_growth_bruteforce(canonical_chart_point(w), 30)
            assert sg[:3] == (2, 3, 4)

    def test_budget_exceeded(self):
        with pytest.raises(StepBudgetExceeded):
            small_growth_bruteforce(canonical_chart_point("RRVTVV"), 5)


class TestFocalOrders:
    def test_rrvrvv_chain(self):
        fo = focal_orders(canonical_chart_point("RRVRVV"))
        got = {alt: (oc, od) for _, alt, oc, od in fo.rows()}
        assert got == ORDERS_RRVRVV

    def test_rrvtvv_chain(self):
        fo = focal_orders(canonical_chart_point("RRVTVV"))
        got = {alt: (oc, od) for _, alt, oc, od in fo.rows()}
        assert got == ORDERS_RRVTVV

    def test_active_differentials_have_order_one(self):
        for w in ("RRVTVV", "RVVVRVT", "RRRR"):
            p = canonical_chart_point(w)
            fo = focal_orders(p)
            assert fo.o_diff[Chart.n_var(p.k)] == 1
            assert fo.o_diff[p.chart.retained_var(p.k)] == 1


class TestVerticalOrders:
    def test_rrvrvv(self):
        assert vo_at_point(canonical_chart_point("RRVRVV")) == (0, 3, 0, 1, 1)

    def test_rvvvrvt(self):
        assert vo_at_point(canonical_chart_point("RVVVRVT")) == (6, 3, 3, 0, 2, 0)

    def test_all_regular(self):
        assert vo_at_point(canonical_chart_point("RRRRR")) == (0, 0, 0, 0)

    def test_base_multiplicity(self):
        assert base_orders(canonical_chart_point("RVTRV")) == (6, 8)
        assert base_multiplicity_at_point(canonical_chart_point("RVTRV")) == 6
        assert base_multiplicity_at_point(canonical_chart_point("RRVTVV")) == 8


class TestGenericJet:
    def test_worked_example_order_six(self):
        # y - (1/15) y''^5 at the point (0,0;0,0,0,1) of the chart ooio
        chart = Chart("ooio")
        point = ChartPoint(chart, (Fraction(0),) * 5 + (Fraction(1),))
        a = Poly(6, {(0, 1, 0, 0, 0, 0): 1, (0, 0, 0, 5, 0, 0): Fraction(-1, 15)})
        for seed in range(3):
            assert focal_order_generic_jet(point, a, trials=3, prec=12, seed=seed) == 6

    def test_coordinates_match_procedural_orders(self):
        for w in ("RRVRVV", "RRVTVV"):
            p = canonical_chart_point(w)
            fo = focal_orders(p)
            for var in range(p.chart.nvars):
                a = Poly.variable(p.chart.nvars, var)
                assert (
                    focal_order_generic_jet(p, a, trials=3, seed=11)
                    == fo.o_coord[var]
                ), (w, var)

    def test_constant_has_order_zero(self):
        p = canonical_chart_point("RRV")
        assert focal_order_generic_jet(p, Poly.const(5, 1), trials=1, prec=8) == 0

    def test_truncation_too_small(self):
        p = canonical_chart_point("RRV")
        a = Poly.variable(5, 1)  # n_0 has order 4 at this point
        with pytest.raises(TruncationTooSmall):
            focal_order_generic_jet(p, a, trials=2, prec=3)

    def test_jet_satisfies_defining_relations(self):
        import random

        p = canonical_chart_point("RRVTVV")
        jet = focal_jet(p, random.Random(3), 10)
        chart = p.chart
        for j in range(1, 7):
            nj = jet.series[Chart.n_var(j)]
            if chart.choice(j) == "o":
                target = jet.series[Chart.n_var(j - 1)]
                base = jet.series[chart.retained_var(j)]
            else:
                target = jet.series[chart.retained_var(j - 1)]
                base = jet.series[Chart.n_var(j - 1)]
            lhs = target.deriv()
            rhs = (nj * base.deriv()).truncate(lhs.prec)
            assert lhs.truncate(rhs.prec).coeffs == rhs.coeffs


class TestBlowup:
    def test_hand_checkable(self):
        assert blowup_multseq(PuiseuxCharacteristic(6, (8, 9))) == (6, 2, 2, 2, 1)
        assert blowup_multseq(PuiseuxCharacteristic(2, (9,))) == (2, 2, 2, 2, 1)

    def test_smooth(self):
        assert blowup_multseq(PuiseuxCharacteristic(1, ())) == (1,)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            blowup_multseq(PuiseuxCharacteristic(2, (9,)), prec=10)


class TestPathway:
    def test_worked_chain_i7(self):
        p = canonical_chart_point("RRVTVV")
        rows = pathway_sections(p, 7)
        names = var_names(6)
        got = [(r.h, r.render(names), r.order) for r in rows]
        assert got == PATHWAY_RRVTVV_I7

    def test_i3_single_row(self):
        p = canonical_chart_point("RRVTVV")
        rows = pathway_sections(p, 3)
        assert len(rows) == 1
        assert rows[0].h == 3 and rows[0].order == 0
        assert rows[0].render(var_names(6)) == "g3"

    def test_i5_diagonal_term(self):
        p = canonical_chart_point("RRVTVV")
        rows = pathway_sections(p, 5)
        names = var_names(6)
        assert (rows[2].h, rows[2].render(names), rows[2].order) == (5, "n5*n6^2*g5", 3)

    def test_index_range(self):
        p = canonical_chart_point("RRVTVV")
        with pytest.raises(IndexRange):
            pathway_sections(p, 2)
        with pytest.raises(IndexRange):
            pathway_sections(p, 8)

    def test_chain_lengths_cover_b_columns(self):
        p = canonical_chart_point("RRVTVV")
        b = invariants.b_vector(vo_at_point(p), 6)
        for i in range(3, 8):
            rows = pathway_sections(p, i)
            assert rows[-1].h == b[i - 2]
            assert rows[-1].order == 0


class TestSeries:
    def test_mul_precision(self):
        a = Series((Fraction(1), Fraction(2)))
        b = Series((Fraction(0), Fraction(1), Fraction(5)))
        assert (a * b).prec == 2

    def test_invert_unit(self):
        s = Series.from_terms(8, {0: Fraction(1), 1: Fraction(1)})
        inv = s.invert_unit()
        assert (s * inv).coeffs == (Fraction(1),) + (Fraction(0),) * 7

    def test_order_none_when_zero(self):
        assert Series.from_terms(4, {}).order() is None


class TestNormalizationGermEquivalence:
    # regularizing the critical block at position 2 must not change the
    # small growth of the canonical realization (checked conjecture)
    def test_rvv_vs_rrv(self):
        sg_orig = small_growth_bruteforce(canonical_chart_point("RVV"), 12)
        sg_norm = small_growth_bruteforce(canonical_chart_point("RRV"), 12)
        assert sg_orig == sg_norm

    def test_rvtrv_vs_rrrrv(self):
        sg_orig = small_growth_bruteforce(canonical_chart_point("RVTRV"), 12)
        sg_norm = small_growth_bruteforce(canonical_chart_point("RRRRV"), 12)
        assert sg_orig == sg_norm

    def test_all_non_goursat_words_k4(self):
        from goursat.codeword import enumerate_rvt_words, goursat_normalize, is_goursat

        for w in enumerate_rvt_words(4):
            if is_goursat(w):
                continue
            sg_orig = small_growth_bruteforce(canonical_chart_point(w), 15)
            expected = invariants.sg_from_beta(
                invariants.beta_backend(goursat_normalize(w))
            )
            assert sg_orig == expected, w


class TestGeneratorSet:
    def test_step_one_is_the_focal_pair(self):
        from goursat.oracle import GeneratorSet
        from goursat.symcalc import std_fields

        p = canonical_chart_point("RRV")
        gens = GeneratorSet(p.chart)
        fs, vs = std_fields(p.chart)
        assert gens.steps[0] == [fs[3], vs[3]]

    def test_steps_grow_without_duplicates(self):
        from goursat.oracle import GeneratorSet

        gens = GeneratorSet(canonical_chart_point("RRVV").chart)
        seen = set()
        for _ in range(6):
            gens.grow()
        for batch in gens.steps:
            for gen in batch:
                key = gen.key()
                assert key not in seen
                seen.add(key)

    # Batch sizes per step, recorded with brackets built from Poly
    # operations and Fraction-keyed dedup: any bracket kernel or dedup key
    # must admit exactly these generators.
    @pytest.mark.parametrize(
        "word, sizes",
        [
            ("RRVTVV", [2, 1, 1, 1, 2, 2, 4, 7, 12, 22, 37, 72, 128, 244, 405, 568, 564, 2, 1]),
            ("RRVVVV", [2, 1, 1, 1, 2, 2, 4, 7, 12, 23, 40, 79, 141, 281, 502, 957,
                        1597, 2235, 2235, 2, 1]),
        ],
    )
    def test_batch_sizes_pinned(self, word, sizes):
        from goursat.oracle import GeneratorSet

        gens = GeneratorSet(canonical_chart_point(word).chart)
        for _ in sizes[1:]:
            gens.grow()
        assert [len(batch) for batch in gens.steps] == sizes


class TestPrimitive:
    def test_content_sign_idempotence(self):
        from goursat.oracle import _primitive
        from goursat.symcalc import VField

        rng = random.Random(11)
        nv = 3
        for _ in range(300):
            comps = []
            for _ in range(nv):
                terms = {}
                for _ in range(rng.randrange(0, 3)):
                    mono = tuple(rng.randrange(0, 3) for _ in range(nv))
                    c = rng.choice(
                        [rng.randint(-12, 12), Fraction(rng.randint(-12, 12), rng.randint(1, 6))]
                    )
                    terms[mono] = c
                comps.append(Poly(nv, terms))
            field = VField(nv, tuple(comps))
            prim = _primitive(field)
            if field.is_zero:
                assert prim == field
                continue
            coeffs = [c for p in prim.comps for c in p.terms.values()]
            assert all(type(c) is int for c in coeffs)
            content = 0
            for c in coeffs:
                content = math.gcd(content, c)
            assert content == 1
            assert next(p for p in prim.comps if p.terms).leading()[1] > 0
            assert _primitive(prim) == prim
            # prim is a scalar multiple of the input; read the scalar off a term.
            var, p = next((i, p) for i, p in enumerate(field.comps) if p.terms)
            m, c = next(iter(p.terms.items()))
            assert prim == field * (Fraction(prim.comps[var].terms[m]) / c)
            assert _primitive(field * Fraction(-7, 3)) == prim


def test_oracle_equivalence_every_length_six_word():
    # beyond the acceptance scope: the central equality on all of k = 6
    from goursat.codeword import enumerate_goursat_words

    for w in enumerate_goursat_words(6):
        b = invariants.bundle(w)
        sg = small_growth_bruteforce(
            canonical_chart_point(w), b.nonholonomy_degree + 2
        )
        assert sg == b.sg, w
