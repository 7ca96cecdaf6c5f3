"""Acceptance gate: one test per criterion, at exact (zero) tolerance.

Every comparison here is integer-exact; the only budgets are wall-clock
ones, asserted per criterion.  Each test prints a PASS line on success.
"""

import itertools
import random
import time
from contextlib import contextmanager

from worked_fixtures import (
    BRACKETS_OOIOII,
    DER_BACKEND_LIST,
    DER_FRONTEND_LIST,
    ETABLE_RRRVV,
    ETABLE_RRVTVV,
    GBASIS_OOIOII_DIVISORS,
    GBASIS_OOIOII_IDENTS,
    ORDERS_RRVRVV,
    ORDERS_RRVTVV,
    PATHWAY_RRVTVV_I7,
    SG_RRVTVV,
    VO_RRVRVV,
    VO_RVVVRVT,
)

from goursat import cli, invariants, oracle, proximity, symcalc
from goursat.codeword import (
    CRITICAL,
    Chart,
    ChartPoint,
    canonical_chart_point,
    enumerate_goursat_words,
    enumerate_rvt_words,
    var_names,
)
from goursat.invariants import PuiseuxCharacteristic
from goursat.symcalc import render_term


@contextmanager
def budget(n: int, label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {seconds:.0f}s) {label}")
    assert elapsed < seconds, f"criterion {n} exceeded its {seconds}s budget"


def test_criterion_1_invariant_bundle_fixture():
    with budget(1, "invariant bundle for RRVTVV", 1.0):
        b = invariants.bundle("RRVTVV")
        assert b.beta == (1, 2, 3, 5, 8, 11, 19)
        assert b.der == (1, 1, 2, 3, 3, 8)
        assert b.der2 == (0, 1, 1, 0, 5)
        assert b.mult_vector == (1, 2, 3, 3, 8)
        assert tuple(reversed(b.vo[1:])) == (1, 1, 0, 5)
        assert b.b == (2, 3, 5, 8, 11, 19)


def test_criterion_2_etable_fixtures():
    with budget(2, "both worked e-tables, cell for cell", 1.0):
        for word, fixture in (("RRVTVV", ETABLE_RRVTVV), ("RRRVV", ETABLE_RRRVV)):
            table = invariants.bundle(word).e_table
            assert table.height == max(fixture)
            for h, (row, sg) in fixture.items():
                assert list(table.rows[h - 2]) == row, (word, h)
                assert table.sg[h - 2] == sg, (word, h)
        left = invariants.bundle("RRVTVV").e_table
        assert left.entry(7, 7) == 12
        assert left.entry(6, 6) == 5
        assert left.b[-1] == 19


def test_criterion_3_recursion_fixtures():
    with budget(3, "derived vector by both recursions", 1.0):
        target = (1, 1, 2, 2, 2, 2, 9, 9, 9, 9, 9, 27)
        assert invariants.der_backend("RRVTRRRVTTTV") == target
        assert proximity.derived_frontend("RRVTRRRVTTTV") == target
        for word, der in DER_BACKEND_LIST.items():
            assert invariants.der_backend(word) == der, word
        for word, der in DER_FRONTEND_LIST.items():
            assert proximity.derived_frontend(word) == der, word


def test_criterion_4_symbolic_bracket_fixture():
    with budget(4, "98-entry bracket table and g-basis of ooioii", 5.0):
        chart = Chart("ooioii")
        table = symcalc.bracket_table(chart)
        checked = 0
        for row, entries in BRACKETS_OOIOII.items():
            kind, i = row[0], int(row[1])
            for j, expected in enumerate(entries):
                assert table.render_entry(kind, i, j) == expected, (row, j)
                checked += 1
        assert checked == 98
        gb = symcalc.g_basis(chart)
        assert list(gb.idents) == GBASIS_OOIOII_IDENTS
        names = var_names(6)
        assert [render_term(1, d, names) for d in gb.divisors] == GBASIS_OOIOII_DIVISORS


def test_criterion_5_focal_order_fixtures():
    with budget(5, "focal-order chains, VO vectors, generic jet", 5.0):
        for word, expected in (("RRVRVV", ORDERS_RRVRVV), ("RRVTVV", ORDERS_RRVTVV)):
            fo = oracle.focal_orders(canonical_chart_point(word))
            got = {alt: (oc, od) for _, alt, oc, od in fo.rows()}
            assert got == expected, word
        assert oracle.vo_at_point(canonical_chart_point("RRVRVV")) == VO_RRVRVV
        assert oracle.vo_at_point(canonical_chart_point("RVVVRVT")) == VO_RVVVRVT
        # o(y - (1/15) y''^5) = 6 at the RRVR point of the 4th-level chart,
        # probed as 15y - y''^5: a nonzero constant factor leaves a focal
        # order unchanged.
        point = ChartPoint(Chart("ooio"), (0,) * 5 + (1,))
        a = [(15, (0, 1, 0, 0, 0, 0)), (-1, (0, 0, 0, 5, 0, 0))]
        for seed in range(3):
            assert oracle.focal_order_generic_jet(point, a, prec=12, seed=seed) == 6


def test_criterion_6_oracle_equivalence():
    with budget(6, "brute-force small growth equals combinatorial SG", 600.0):
        words = [w for k in range(1, 6) for w in enumerate_goursat_words(k)]
        words += ["RRVTVV", "RRRVV"]
        for word in words:
            b = invariants.bundle(word)
            sg = oracle.small_growth_bruteforce(
                canonical_chart_point(word), b.nonholonomy_degree + 2
            )
            assert sg == b.sg, word
        blue = oracle.small_growth_bruteforce(canonical_chart_point("RRVTVV"), 21)
        assert blue[1:] == SG_RRVTVV


def test_criterion_7_pathway_verification():
    # verify checks only the pathway frame, so this is where every column
    # is walked: each row's order must be the bundle's e-table entry, on
    # the diagonal for h <= i and down column i below it.
    with budget(7, "pathway coefficients hit every e-table order", 120.0):
        for k in range(2, 11):
            for w in enumerate_goursat_words(k):
                p = canonical_chart_point(w)
                table = invariants.bundle(w).e_table
                for i in range(3, k + 2):
                    rows = oracle.pathway_sections(p, i)
                    hs = range(3, table.b[i - 2] + 1)
                    assert [r.h for r in rows] == list(hs)
                    orders = [table.entry(h, min(h, i)) for h in hs]
                    assert [r.order for r in rows] == orders, (w, i)
                    assert rows[-1].order == 0
        names = var_names(6)
        rows = oracle.pathway_sections(canonical_chart_point("RRVTVV"), 7)
        assert [(r.h, r.render(names), r.order) for r in rows] == PATHWAY_RRVTVV_I7


def test_criterion_8_structure_lemma_sweep():
    with budget(8, "structure lemmas on all charts up to 7 levels", 300.0):
        for k in range(1, cli.SYMBOLIC_LEVEL_LIMIT + 1):
            for bits in itertools.product("oi", repeat=k):
                symcalc.verify_structure(Chart("".join(bits)))


def test_criterion_9_puiseux_suite():
    with budget(9, "Puiseux characteristics and the degree identity", 120.0):
        for tau in range(1, 6):
            word = "RV" + "T" * tau
            point = canonical_chart_point(word)
            m0 = 1 + oracle.vo_at_point(point)[0]
            pc = invariants.puiseux_of_word(word, m0=m0)
            assert pc == PuiseuxCharacteristic(tau + 2, (tau + 3,)), word
        assert invariants.puiseux_of_word("RRRRV") == PuiseuxCharacteristic(2, (9,))
        assert invariants.puiseux_of_word("RVTRV", m0=6) == PuiseuxCharacteristic(
            6, (8, 9)
        )
        for k in range(1, 8):
            for w in enumerate_rvt_words(k):
                if not any(s in CRITICAL for s in w.symbols):
                    continue
                m0 = oracle.base_multiplicity_at_point(canonical_chart_point(w))
                pc = invariants.puiseux_of_word(w, m0=m0)
                trailing = len(w.symbols) - len(w.symbols.rstrip("R"))
                assert pc.exponents[-1] + trailing == invariants.nonholonomy_degree(w)
        rng = random.Random(99)
        from test_properties import random_pc

        for _ in range(200):
            pc = random_pc(rng, max_lambda0=14, max_last=60)
            ms = invariants.multseq_from_pc(pc)
            assert invariants.pc_from_multseq(ms) == pc
            assert oracle.blowup_multseq(pc) == ms


def test_criterion_10_property_suites():
    with budget(10, "property suites at 200+ cases each", 120.0):
        from test_properties import assert_etable_relations, random_pc

        rng = random.Random(4)
        for _ in range(200):
            k = rng.randint(2, 9)
            vo = (0,) + tuple(rng.randint(0, 8) for _ in range(k - 2))
            assert_etable_relations(vo, k)

        words = [w for k in range(1, 9) for w in enumerate_goursat_words(k)]
        assert len(words) >= 200
        for w in words:
            beta = invariants.beta_backend(w)
            if w.k >= 2:
                assert beta[:3] == (1, 2, 3)
            der = invariants.der_backend(w)
            assert der[: min(2, len(der))] == (1,) * min(2, len(der))
            sg = invariants.sg_from_beta(beta)
            assert sg[0] == 2
            assert all(0 <= b - a <= 1 for a, b in zip(sg, sg[1:]))
            assert sg[-1] == w.k + 2 and len(sg) == beta[-1]
            # three-route agreement
            der_fe = proximity.derived_frontend(w)
            assert der_fe == der
            mv = proximity.multiplicity_vector(proximity.build_diagram(w))
            vo = invariants.vo_from_mult(mv, w.k)
            assert invariants.beta_from_b(invariants.e_table(vo, w.k).b) == beta
