import inspect
import itertools
import random

import pytest

from goursat import cli, invariants, oracle
from goursat.codeword import (
    Chart,
    ChartPoint,
    canonical_chart_point,
    enumerate_goursat_words,
    enumerate_rvt_words,
    parse_word,
    var_names,
)
from goursat.errors import (
    IndexRange,
    OrderMismatch,
    StepBudgetExceeded,
    TruncationTooSmall,
    VariableMismatch,
)
from goursat.invariants import PuiseuxCharacteristic
from goursat.oracle import (
    PRIME,
    Series,
    base_multiplicity_at_point,
    blowup_multseq,
    focal_jet,
    focal_order_generic_jet,
    focal_orders,
    pathway_sections,
    small_growth_bruteforce,
    vo_at_point,
)

from reference_fields import std_fields, unpack
from worked_fixtures import (
    EXHAUSTION_BUDGET,
    ORDERS_RRVRVV,
    ORDERS_RRVTVV,
    PATHWAY_RRVTVV_I7,
    SG_RRVTVV,
)


def unit(nvars: int, var: int) -> tuple[int, ...]:
    """The exponents of the coordinate x_var among nvars."""
    return tuple(int(v == var) for v in range(nvars))


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
            assert fo.o_diff[p.chart.retained[p.k]] == 1

    def test_base_chart(self):
        # At k = 0 the active pair is (n_0, r_0) = (n_var(0), retained[0]),
        # so no level relation runs and each order is read off the point.
        chart = Chart("")
        origin = focal_orders(ChartPoint(chart, (0, 0)))
        assert origin.o_coord == origin.o_diff == (1, 1)
        off = focal_orders(ChartPoint(chart, (3, 0)))
        assert off.o_coord == (0, 1) and off.o_diff == (1, 1)


class TestVerticalOrders:
    def test_rrvrvv(self):
        assert vo_at_point(canonical_chart_point("RRVRVV")) == (0, 3, 0, 1, 1)

    def test_rvvvrvt(self):
        assert vo_at_point(canonical_chart_point("RVVVRVT")) == (6, 3, 3, 0, 2, 0)

    def test_all_regular(self):
        assert vo_at_point(canonical_chart_point("RRRRR")) == (0, 0, 0, 0)

    def test_base_multiplicity(self):
        assert focal_orders(canonical_chart_point("RVTRV")).o_coord[:2] == (6, 8)
        assert base_multiplicity_at_point(canonical_chart_point("RVTRV")) == 6
        assert base_multiplicity_at_point(canonical_chart_point("RRVTVV")) == 8


class TestGenericJet:
    def test_worked_example_order_six(self):
        # 15y - y''^5 at the point (0,0;0,0,0,1) of the chart ooio: the
        # worked example y - (1/15) y''^5 times 15, and a nonzero constant
        # factor leaves a focal order unchanged.
        chart = Chart("ooio")
        point = ChartPoint(chart, (0,) * 5 + (1,))
        a = [(15, (0, 1, 0, 0, 0, 0)), (-1, (0, 0, 0, 5, 0, 0))]
        for seed in range(3):
            assert focal_order_generic_jet(point, a, prec=12, seed=seed) == 6

    def test_coordinates_match_procedural_orders(self):
        # Every RVT word with k <= 7, Goursat or not, at the precision
        # verify uses.
        for seed in (0, 1):
            for k in range(1, 8):
                for w in enumerate_rvt_words(k):
                    p = canonical_chart_point(w)
                    fo = focal_orders(p)
                    prec = invariants.nonholonomy_degree(w) + 5
                    for var in range(p.chart.nvars):
                        a = [(1, unit(p.chart.nvars, var))]
                        got = focal_order_generic_jet(p, a, prec, seed=seed)
                        assert got == fo.o_coord[var], (str(w), seed, var)

    def test_constant_has_order_zero(self):
        p = canonical_chart_point("RRV")
        assert focal_order_generic_jet(p, [(1, (0,) * 5)], prec=8) == 0

    def test_polynomial_over_other_variables(self):
        # A monomial over fewer or more variables than the chart's 5
        # coordinates is refused, naming both counts.
        p = canonical_chart_point("RRV")
        for a, counts in (([(1, unit(3, 1))], "3 variables.* 5 coordinates"),
                          ([(1, unit(7, 6))], "7 variables.* 5 coordinates")):
            with pytest.raises(VariableMismatch, match=counts):
                focal_order_generic_jet(p, a, prec=8)

    def test_truncation_too_small(self):
        p = canonical_chart_point("RRV")
        a = [(1, unit(5, 1))]  # n_0 has order 4 at this point
        with pytest.raises(TruncationTooSmall):
            focal_order_generic_jet(p, a, prec=3)

    def test_one_set_of_jets_per_verified_word(self, monkeypatch):
        # The jets do not depend on the function probed, so verify_word
        # builds JET_TRIALS of them per word, not JET_TRIALS per coordinate.
        built = []

        def counting_focal_jet(p, rng, prec):
            built.append(prec)
            return focal_jet(p, rng, prec)

        monkeypatch.setattr(oracle, "focal_jet", counting_focal_jet)
        oracle._generic_jets.cache_clear()
        for w in ("RRVT", "RVTV", "RRRVV"):
            built.clear()
            ok, _ = cli.verify_word(parse_word(w), symbolic=True)
            assert ok and len(built) == oracle.JET_TRIALS, (w, len(built))

    def test_verify_word_sets_the_jet_precision(self, monkeypatch):
        # The jet budget is the nonholonomy degree + 5, passed on every call.
        word = parse_word("RRVTVV")
        want = invariants.nonholonomy_degree(word) + 5
        real = oracle.focal_order_generic_jet
        precs = []

        def recording(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            precs.append(bound.arguments["prec"])
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "focal_order_generic_jet", recording)
        ok, _ = cli.verify_word(word, symbolic=True)
        assert ok and precs == [want] * canonical_chart_point(word).chart.nvars

    @pytest.mark.parametrize("seed", [0, 3])
    def test_shared_jets_give_the_orders_of_fresh_jets(self, seed):
        for k in range(1, 6):
            for w in enumerate_goursat_words(k):
                p = canonical_chart_point(w)
                prec = invariants.nonholonomy_degree(w) + 5
                fresh = [
                    focal_jet(p, random.Random(f"jet:{seed}:{t}"), prec) for t in range(3)
                ]
                for var in range(p.chart.nvars):
                    a = [(1, unit(p.chart.nvars, var))]
                    orders = [jet.eval_terms(a).order() for jet in fresh]
                    want = min(o for o in orders if o is not None)
                    assert focal_order_generic_jet(p, a, prec, seed=seed) == want, (str(w), var)

    def test_base_chart_jet(self):
        p = ChartPoint(Chart(""), (0, 0))
        jet = focal_jet(p, random.Random(5), 8)
        assert [s.order() for s in jet.series] == [1, 1]

    def test_jet_satisfies_defining_relations(self):
        p = canonical_chart_point("RRVTVV")
        jet = focal_jet(p, random.Random(3), 10)
        # every coordinate is known to the precision asked for
        assert [s.prec for s in jet.series] == [10] * 8
        chart = p.chart
        for j in range(1, 7):
            nj = jet.series[Chart.n_var(j)]
            if chart.choices[j - 1] == "o":
                target = jet.series[Chart.n_var(j - 1)]
                base = jet.series[chart.retained[j]]
            else:
                target = jet.series[chart.retained[j - 1]]
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
        b = invariants.e_table(vo_at_point(p), 6).b
        for i in range(3, 8):
            rows = pathway_sections(p, i)
            assert rows[-1].h == b[i - 2]
            assert rows[-1].order == 0

    def test_focal_step_lemma_at_every_rvt_word(self):
        # The pathway frame raises OrderMismatch at a point where a step of
        # a coordinate of positive order does not lower the order by one.
        # 4,180 of these words are not Goursat words, at which no other
        # pathway test runs past k = 6.
        words = [w for k in range(2, 11) for w in enumerate_rvt_words(k)]
        assert len(words) == 6764
        for w in words:
            rows = pathway_sections(canonical_chart_point(w), 3)
            assert rows[-1].order == 0, str(w)

    def test_frame_reads_a_patched_focal_slots(self, monkeypatch):
        # The steps are cached per chart.  A focal_slots patched after the
        # chart's steps were built is read, not served the cached steps:
        # f_6 times n_6 leaves r0's order unchanged, as in the field matrix.
        p = canonical_chart_point("RRVVVV")
        oracle.pathway_frame(ChartPoint(p.chart, (1,) + p.coords[1:]))
        focal_slots = oracle.focal_slots

        def scaled_top_field(chart):
            *below, top = focal_slots(chart)
            nk = chart.k + 1
            top = tuple(None if s is None else s[:nk] + (s[nk] + 1,) + s[nk + 1 :] for s in top)
            return (*below, top)

        monkeypatch.setattr(oracle, "focal_slots", scaled_top_field)
        with pytest.raises(OrderMismatch, match="focal step on r0 changes the order by 0"):
            oracle.pathway_frame(p)


class TestSeries:
    # Coefficients are ints mod PRIME.
    def test_mul_precision(self):
        a = Series((1, 2))
        b = Series((0, 1, 5))
        assert (a * b).prec == 2

    def test_invert_unit(self):
        s = Series.from_terms(8, {0: 1, 1: 1})
        inv = s.invert_unit()
        assert (s * inv).coeffs == (1,) + (0,) * 7

    def test_order_none_when_zero(self):
        assert Series.from_terms(4, {}).order() is None

    def test_integrate_then_deriv_is_identity(self):
        # integrate divides by 1..prec through modular inverses
        s = Series.from_terms(9, {0: 3, 2: 7, 5: -2, 8: PRIME - 1})
        assert s.integrate(-4).deriv() == s

    def test_negative_ints_reduce_into_the_field(self):
        s = Series.from_terms(4, {0: -1, 1: 2 * PRIME + 3})
        assert s.coeffs == (PRIME - 1, 3, 0, 0)
        assert (s * -2).coeffs == (2, PRIME - 6, 0, 0)
        assert s.integrate(-15).coeffs[0] == PRIME - 15


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

        p = canonical_chart_point("RRV")
        gens = GeneratorSet(p.chart, 5)
        fs, vs = std_fields(p.chart)
        assert [unpack(gens.packing, g) for g in gens.steps[0]] == [fs[3], vs[3]]

    # Batch sizes per step with each bracket kept only when it is
    # independent of everything kept before it.  They sum to 97 and 170,
    # the dimensions spanned by the 2,075 and 8,125 generators that a
    # dedup by scalar multiples alone keeps over the same steps.
    @pytest.mark.parametrize(
        "word, sizes",
        [
            ("RRVTVV", [2, 1, 1, 1, 2, 2, 4, 5, 6, 8, 11, 11, 12, 10, 8, 6, 4, 2, 1]),
            ("RRVVVV", [2, 1, 1, 1, 2, 2, 4, 5, 7, 10, 15, 19, 22, 21, 18, 15, 11, 7,
                        4, 2, 1]),
        ],
    )
    def test_batch_sizes_pinned(self, word, sizes):
        from goursat.oracle import GeneratorSet

        gens = GeneratorSet(canonical_chart_point(word).chart, len(sizes))
        for _ in sizes[1:]:
            gens.grow()
        assert [len(batch) for batch in gens.steps] == sizes

    def test_generators_have_int_coefficients(self):
        # Generators are kept as bracketed: every frame and every bracket of
        # int fields has int coefficients.
        from goursat.oracle import GeneratorSet

        def int_coeffs(fields):
            return all(type(c) is int for g in fields for p in g for c in p.terms.values())

        def int_rows(rows):
            return all(type(c) is int for row in rows for c in row.values())

        for k in range(6):
            for bits in itertools.product("oi", repeat=k):
                chart = Chart("".join(bits))
                gens = GeneratorSet(chart, EXHAUSTION_BUDGET)
                fs, vs = gens.packing.frames
                assert int_rows(fs + vs), chart
                batch = gens.steps[0]
                while batch:
                    assert int_rows(batch), chart
                    assert int_coeffs([unpack(gens.packing, g) for g in batch]), chart
                    batch = gens.grow()

    def test_symbolic_counters_pinned(self, monkeypatch):
        # What the brute force of verify --all-words 6 --symbolic does, with
        # verify's step budget: README quotes these counts.
        from goursat.oracle import GeneratorSet

        counts = {"words": 0, "generators": 0, "brackets": 0}

        def counting(name, counter, count):
            method = getattr(GeneratorSet, name)

            def counted(self, *args):
                out = method(self, *args)
                counts[counter] += count(out)
                return out

            monkeypatch.setattr(GeneratorSet, name, counted)

        counting("_admit", "generators", len)
        counting("bracket_f", "brackets", lambda _: 1)
        counting("bracket_v", "brackets", lambda _: 1)
        for w in enumerate_goursat_words(6):
            counts["words"] += 1
            small_growth_bruteforce(
                canonical_chart_point(w), invariants.nonholonomy_degree(w) + 2
            )
        assert counts == {"words": 34, "generators": 1377, "brackets": 2608}


def test_oracle_equivalence_every_length_six_word():
    # beyond the acceptance scope: the central equality on all of k = 6
    from goursat.codeword import enumerate_goursat_words

    for w in enumerate_goursat_words(6):
        b = invariants.bundle(w)
        sg = small_growth_bruteforce(
            canonical_chart_point(w), b.nonholonomy_degree + 2
        )
        assert sg == b.sg, w
