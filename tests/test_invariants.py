import itertools
import math
import pickle
import tracemalloc

import pytest

from goursat import invariants, proximity
from goursat.codeword import (
    enumerate_goursat_words,
    enumerate_rvt_words,
    goursat_normalize,
    is_goursat,
)
from goursat.errors import (
    InvalidM0,
    InvalidPC,
    MissingM0,
    NonMonotone,
    NotRealizable,
)
from goursat.invariants import (
    ETable,
    PuiseuxCharacteristic,
    beta_backend,
    beta_from_b,
    bundle,
    der2_backend,
    der_backend,
    e_table,
    multseq_from_pc,
    nonholonomy_degree,
    pc_from_multseq,
    puiseux_of_word,
    sg_from_beta,
    vo_from_mult,
)

from worked_fixtures import ETABLE_RRRVV, ETABLE_RRVTVV, DER_BACKEND_LIST, MULTSEQ_CASES


def assert_etable_matches(table: ETable, fixture: dict):
    assert table.height == max(fixture)
    for h, (row, sg) in fixture.items():
        assert list(table.rows[h - 2]) == row, f"row {h}"
        assert table.sg[h - 2] == sg, f"SG_{h}"


class TestBetaBackend:
    def test_worked_example(self):
        assert beta_backend("RRVTVV") == (1, 2, 3, 5, 8, 11, 19)

    def test_all_regular_closed_form(self):
        for k in range(1, 9):
            assert beta_backend("R" * k) == tuple(range(1, k + 2))

    def test_base(self):
        assert beta_backend("R") == (1, 2)


class TestDerBackend:
    def test_backend_list(self):
        for word, der in DER_BACKEND_LIST.items():
            assert der_backend(word) == der, word

    def test_rrrvv(self):
        assert der_backend("RRRVV") == (1, 1, 2, 3, 3)

    def test_der2_worked_example(self):
        assert der2_backend("RRVTVV") == (0, 1, 1, 0, 5)

    def test_der2_seed_depends_on_last_letter(self):
        assert der2_backend("RRV")[:2] == (0, 1)
        assert der2_backend("RRR")[:2] == (0, 0)
        assert der2_backend("RRVT")[:2] == (0, 0)

    def test_front_end_and_vertical_orders_up_to_k12(self):
        # der is the front end's (1, m_{k-1}, ..., m_1) and der2 is
        # (0, VO_k, ..., VO_3), on all 17,712 Goursat words with k <= 12
        count = 0
        for k in range(1, 13):
            for w in enumerate_goursat_words(k):
                der = proximity.derived_frontend(w)
                vo = vo_from_mult(der[1:], k)
                der2 = ((0,) + tuple(reversed(vo[1:]))) if k >= 2 else ()
                assert der_backend(w) == der, w
                assert der2_backend(w) == der2, w
                count += 1
        assert count == 17712


class TestGrowthVectorExample:
    # a long small growth vector and the three vectors derived from it
    SG = (2, 3, 4, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 8, 8, 8,
          9, 9, 9, 9, 9, 9, 9, 9, 9, 10)
    BETA = (1, 2, 3, 4, 5, 8, 11, 17, 26)

    def test_sg_from_beta(self):
        assert sg_from_beta(self.BETA) == self.SG

    def test_differences(self):
        der = tuple(b - a for a, b in zip(self.BETA, self.BETA[1:]))
        assert der == (1, 1, 1, 1, 3, 3, 6, 9)
        der2 = tuple(b - a for a, b in zip(der, der[1:]))
        assert der2 == (0, 0, 0, 2, 0, 3, 3)

    def test_beta_recovered_from_sg(self):
        beta = tuple(
            min(j for j, s in enumerate(self.SG, start=1) if s == rank)
            for rank in range(2, 11)
        )
        assert beta == self.BETA


def mult_from_vo(vo, k):
    """Multiplicity vector (m_{k-1}, ..., m_1) by accumulation:
    m_i = 1 + VO_{i+2} + ... + VO_k, where vo = (VO_2, ..., VO_k)."""
    return tuple(1 + sum(vo[i:]) for i in range(k - 1, 0, -1))


class TestConversions:
    def test_vo_from_mult_worked(self):
        vo = vo_from_mult((1, 2, 3, 3, 8), 6)
        assert vo == (0, 5, 0, 1, 1)
        assert tuple(reversed(vo[1:])) == (1, 1, 0, 5)

    def test_all_ones(self):
        assert vo_from_mult((1, 1, 1, 1), 5) == (0, 0, 0, 0)

    def test_accumulation(self):
        assert mult_from_vo((0, 5, 0, 1, 1), 6) == (1, 2, 3, 3, 8)
        assert tuple(reversed(mult_from_vo((0, 5, 0, 1, 1), 6))) == (8, 3, 3, 2, 1)

    def test_mutually_inverse(self):
        for k in range(1, 9):
            for w in enumerate_goursat_words(k):
                mv = invariants.proximity.multiplicity_vector(
                    invariants.proximity.build_diagram(w)
                )
                assert mult_from_vo(vo_from_mult(mv, k), k) == mv

    def test_non_monotone(self):
        with pytest.raises(NonMonotone):
            vo_from_mult((1, 3, 2), 4)

    def test_beta_from_b(self):
        assert beta_from_b((2, 3, 5, 8, 11, 19)) == (1, 2, 3, 5, 8, 11, 19)

    def test_sg_trivial(self):
        assert sg_from_beta((1, 2)) == (2, 3)


class TestETable:
    def test_rrvtvv_table(self):
        assert_etable_matches(e_table((0, 5, 0, 1, 1), 6), ETABLE_RRVTVV)

    def test_rrrvv_table(self):
        assert_etable_matches(e_table((0, 0, 1, 1), 5), ETABLE_RRRVV)

    def test_named_cells(self):
        table = e_table((0, 5, 0, 1, 1), 6)
        assert table.entry(7, 7) == 12
        assert table.entry(6, 6) == 5
        assert table.entry(4, 4) == 1
        right = e_table((0, 0, 1, 1), 5)
        assert right.entry(5, 5) == 3

    def test_all_zero_vo(self):
        table = e_table((0, 0, 0), 4)
        for h in range(2, table.height + 1):
            for i in range(2, min(h, 5) + 1):
                assert table.entry(h, i) == max(0, i - h)
        assert table.b == (2, 3, 4, 5)

    def test_b_vector(self):
        assert e_table((0, 5, 0, 1, 1), 6).b == (2, 3, 5, 8, 11, 19)
        assert e_table((0, 0, 1, 1), 5).b == (2, 3, 5, 8, 11)
        # b_7 = 7 + VO_3 + 2 VO_4 + 3 VO_5 + 4 VO_6
        assert e_table((0, 5, 0, 1, 1), 6).b[-1] == 7 + 5 + 0 + 3 + 4


class TestPuiseuxCharacteristic:
    def test_validation(self):
        PuiseuxCharacteristic(1, ())
        PuiseuxCharacteristic(8, (19,))
        PuiseuxCharacteristic(6, (8, 9))
        with pytest.raises(InvalidPC):
            PuiseuxCharacteristic(2, ())  # gcd is 2
        with pytest.raises(InvalidPC):
            PuiseuxCharacteristic(4, (6,))  # gcd stops at 2
        with pytest.raises(InvalidPC):
            PuiseuxCharacteristic(4, (6, 8, 9))  # 8 does not drop the gcd
        with pytest.raises(InvalidPC):
            PuiseuxCharacteristic(4, (3,))  # not increasing

    def test_str(self):
        assert str(PuiseuxCharacteristic(8, (19,))) == "[8;19]"
        assert str(PuiseuxCharacteristic(1, ())) == "[1;]"


class TestMultseqFromPC:
    def test_frozen_cases(self):
        for (lam0, exps), ms in MULTSEQ_CASES.items():
            assert multseq_from_pc(PuiseuxCharacteristic(lam0, exps)) == ms

    def test_agrees_with_blowup_oracle(self):
        from goursat.oracle import blowup_multseq

        for (lam0, exps), ms in MULTSEQ_CASES.items():
            assert blowup_multseq(PuiseuxCharacteristic(lam0, exps)) == ms

    def test_smooth(self):
        assert multseq_from_pc(PuiseuxCharacteristic(1, ())) == (1,)


class TestPCFromMultseq:
    def test_worked_pairs(self):
        assert pc_from_multseq((2, 2, 2, 2, 1)) == PuiseuxCharacteristic(2, (9,))
        assert pc_from_multseq((6, 2, 2, 2, 1)) == PuiseuxCharacteristic(6, (8, 9))
        assert pc_from_multseq((8, 8, 3, 3, 2, 1)) == PuiseuxCharacteristic(8, (19,))

    def test_smooth(self):
        assert pc_from_multseq((1,)) == PuiseuxCharacteristic(1, ())

    def test_not_realizable(self):
        with pytest.raises(NotRealizable):
            pc_from_multseq((3, 2, 2, 1))

    def test_tolerates_trailing_ones(self):
        assert pc_from_multseq((2, 2, 2, 2, 1, 1, 1)) == PuiseuxCharacteristic(2, (9,))

    def test_returns_a_characteristic_exactly_when_one_exists(self):
        # Brute force: every characteristic with lambda_0 <= 8 and
        # lambda_g <= 64, through the forward map.  The uncut sequence of
        # [lambda_0; ..., lambda_g] sums to lambda_0 + lambda_g - 1 (one
        # Euclidean expansion per exponent, telescoping), and the cut drops
        # fewer than 8 of its 1s, so a sequence of at most 7 entries <= 8
        # has lambda_g <= 6 * 8 + 1 + 7 - 1 + 1 = 56.
        def characteristics(e, prev, exps):
            if e == 1:
                yield exps
                return
            for lam in range(prev + 1, 65):
                if math.gcd(e, lam) < e:
                    yield from characteristics(math.gcd(e, lam), lam, exps + (lam,))

        realized = {}
        for lam0 in range(1, 9):
            for exps in characteristics(lam0, lam0, ()):
                pc = PuiseuxCharacteristic(lam0, exps)
                realized[multseq_from_pc(pc)] = pc

        # Every non-increasing positive sequence ending in 1, with entries
        # <= 8 and length <= 7: 3,003 of them.
        sequences = [(1,)]
        for head in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(8, 0, -1), n) for n in range(1, 7)
        ):
            sequences.append(head + (1,))
        assert len(sequences) == 3003
        accepted = 0
        for ms in sequences:
            pc = realized.get(ms[: ms.index(1) + 1])
            if pc is None:
                with pytest.raises(NotRealizable):
                    pc_from_multseq(ms)
            else:
                assert pc_from_multseq(ms) == pc, ms
                accepted += 1
        assert 0 < accepted < len(sequences)


class TestPuiseuxOfWord:
    def test_rvt_tau_family(self):
        # m_0 for the non-Goursat words comes from the focal-order oracle
        from goursat.codeword import canonical_chart_point
        from goursat.oracle import vo_at_point

        for tau in range(1, 6):
            word = "RV" + "T" * tau
            point = canonical_chart_point(word)
            m0 = 1 + vo_at_point(point)[0]
            pc = puiseux_of_word(word, m0=m0)
            assert pc == PuiseuxCharacteristic(tau + 2, (tau + 3,))

    def test_rrrrv(self):
        assert puiseux_of_word("RRRRV") == PuiseuxCharacteristic(2, (9,))

    def test_rvtrv_with_oracle_m0(self):
        assert puiseux_of_word("RVTRV", m0=6) == PuiseuxCharacteristic(6, (8, 9))

    def test_missing_m0(self):
        with pytest.raises(MissingM0):
            puiseux_of_word("RVTRV")

    def test_accepts_m0_exactly_when_bundle_does(self):
        # RV with m0 = 3 once gave [3;4] here while bundle refused it.
        def outcome(fn, w, m0):
            try:
                return fn(w, m0=m0)
            except ValueError:
                return None

        for k in range(2, 7):
            for w in enumerate_rvt_words(k):
                if is_goursat(w):
                    continue
                for m0 in range(1, 30):
                    b = outcome(bundle, w, m0)
                    pc = outcome(puiseux_of_word, w, m0)
                    assert pc == (None if b is None else b.puiseux), (str(w), m0, pc)


class TestNonholonomyDegree:
    def test_worked_example(self):
        assert nonholonomy_degree("RRVTVV") == 19

    def test_all_regular(self):
        for k in range(1, 9):
            assert nonholonomy_degree("R" * k) == k + 1

    def test_trailing_r_adds_one(self):
        assert nonholonomy_degree("RRVTVVR") == 20


class TestBundle:
    def test_rrvtvv_fixture(self):
        b = bundle("RRVTVV")
        assert b.beta == (1, 2, 3, 5, 8, 11, 19)
        assert b.der == (1, 1, 2, 3, 3, 8)
        assert b.der2 == (0, 1, 1, 0, 5)
        assert b.mult_vector == (1, 2, 3, 3, 8)
        assert tuple(reversed(b.vo[1:])) == (1, 1, 0, 5)
        assert b.b == (2, 3, 5, 8, 11, 19)
        assert b.m0 == 8
        assert b.puiseux == PuiseuxCharacteristic(8, (19,))
        assert b.nonholonomy_degree == 19
        assert b.sg[0] == 2 and b.sg[-1] == 8 and len(b.sg) == 19

    def test_non_goursat_with_m0(self):
        b = bundle("RVTRV", m0=6)
        assert str(b.goursat_word) == "RRRRV"
        assert b.vo[0] == 4
        assert b.puiseux == PuiseuxCharacteristic(6, (8, 9))
        assert b.nonholonomy_degree == 9

    def test_non_goursat_requires_m0(self):
        with pytest.raises(MissingM0):
            bundle("RVV")

    @pytest.mark.parametrize("m0", [6.0, 8.0, "6", True], ids=["6.0", "8.0", "str", "bool"])
    def test_m0_that_is_not_an_int_is_refused(self, m0):
        for word in ("RVTRV", "RRVTVV", "R"):
            with pytest.raises(InvalidM0, match="m_0 must be an int"):
                bundle(word, m0=m0)

    def test_non_goursat_refuses_m0_equal_m1(self):
        # Off the Goursat locus VO_2 = m_0 - m_1 >= 1; bundle("RVR", m0=1)
        # used to die with an IndexError in the Puiseux check.
        for k in range(2, 7):
            for w in enumerate_rvt_words(k):
                if is_goursat(w):
                    continue
                m1 = proximity.build_diagram(goursat_normalize(w)).mult[1]
                for fn in (bundle, puiseux_of_word):
                    with pytest.raises(ValueError, match=f"m_0 = {m1} .*m_1 = {m1}"):
                        fn(w, m0=m1)

    def test_non_goursat_m0_that_does_not_fit_is_a_value_error(self):
        # A caller's m0 that does not fit is bad input, not a failed route
        # check, so it must never surface as RouteMismatch.
        refused = 0
        for k in range(2, 7):
            for w in enumerate_rvt_words(k):
                if is_goursat(w):
                    continue
                for m0 in (1, 2, 3, 5, 8, 13, 40):
                    try:
                        assert bundle(w, m0=m0).m0 == m0
                    except ValueError as exc:
                        assert f"m_0 = {m0}" in str(exc), (str(w), m0, exc)
                        refused += 1
        assert refused
        for m0 in (3, 5):
            with pytest.raises(ValueError, match=f"m_0 = {m0} does not fit RVR"):
                bundle("RVR", m0=m0)

    def test_trivial_word(self):
        b = bundle("R")
        assert b.beta == (1, 2)
        assert b.sg == (2, 3)
        assert b.puiseux == PuiseuxCharacteristic(1, ())
        assert b.mult_vector == ()


def test_first_all_zero_row_is_the_degree():
    for k in range(1, 9):
        for w in enumerate_goursat_words(k):
            b = bundle(w)
            table = b.e_table
            first_zero_row = next(
                h
                for h in range(2, table.height + 1)
                if all(e == 0 for e in table.rows[h - 2])
                and len(table.rows[h - 2]) == k
            )
            assert first_zero_row == b.nonholonomy_degree == table.b[-1]


class TestLazySequences:
    """ETable.rows, ETable.sg and sg_from_beta are computed on demand but
    behave as the read-only tuples they stand for."""

    ROWS = tuple(tuple(ETABLE_RRVTVV[h][0]) for h in sorted(ETABLE_RRVTVV))
    SG = tuple(ETABLE_RRVTVV[h][1] for h in sorted(ETABLE_RRVTVV))

    @pytest.mark.parametrize("attr", ["rows", "sg"])
    def test_sequence_protocol(self, attr):
        expected = getattr(self, attr.upper())
        seq = getattr(e_table((0, 5, 0, 1, 1), 6), attr)
        assert len(seq) == len(expected) == 18
        assert seq[0] == expected[0]
        assert seq[7] == expected[7]
        assert seq[-1] == expected[-1]
        assert seq[-18] == expected[0]
        assert tuple(iter(seq)) == expected
        assert list(seq) == list(expected)
        assert seq == expected and expected == seq
        assert seq != expected[:-1] and seq != expected[1:]
        assert seq[3:9] == expected[3:9]
        for index in (18, -19):
            with pytest.raises(IndexError):
                seq[index]

    def test_sg_from_beta_protocol(self):
        sg = sg_from_beta((1, 2, 3, 5, 8, 11, 19))
        expected = (2, 3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7, 8)
        assert len(sg) == 19
        assert sg == expected and tuple(sg) == expected
        assert [sg[i] for i in range(-19, 19)] == list(expected) * 2
        assert sg[1:] == expected[1:] and sg[4:11] == expected[4:11]
        assert sg[::2] == expected[::2]
        assert sg != expected[:-1] + (9,)
        with pytest.raises(IndexError):
            sg[19]

    def test_step_sequences_compare_by_breakpoints(self):
        table = e_table((0, 5, 0, 1, 1), 6)
        assert table.sg == sg_from_beta((1,) + table.b)[1:]
        assert table.sg != sg_from_beta((1,) + table.b[:-1] + (20,))[1:]
        assert hash(table.sg) == hash(self.SG)

    def test_rows_agree_with_entries(self):
        for k in range(1, 8):
            for w in enumerate_goursat_words(k):
                table = bundle(w).e_table
                for h, row in enumerate(table.rows, start=2):
                    assert row == tuple(
                        table.entry(h, i) for i in range(2, min(h, k + 1) + 1)
                    )
                    assert table.sg[h - 2] == 2 + row.count(0)

    def test_bundle_pickles(self):
        b = bundle("RRVTVV")
        again = pickle.loads(pickle.dumps(b))
        assert again == b and again.sg == b.sg and again.e_table.rows == b.e_table.rows

    def test_entry_outside_table(self):
        table = e_table((0, 5, 0, 1, 1), 6)
        for h, i in ((4, 5), (20, 2), (7, 8), (1, 1)):
            with pytest.raises(IndexError):
                table.entry(h, i)


def test_bundle_memory_does_not_grow_with_degree():
    # RR V^30 has degree of nonholonomy F(34); a materialized e-table would
    # hold about 180 M entries and its SG vector 5.7 M.
    word = "RR" + "V" * 30
    bundle(word)
    tracemalloc.start()
    try:
        b = bundle(word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert b.nonholonomy_degree == 5_702_887
    assert len(b.sg) == 5_702_887 and len(b.e_table.rows) == 5_702_886
    assert peak < 1_000_000
