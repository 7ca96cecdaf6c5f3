import itertools
import random

import pytest

from goursat import symcalc
from goursat.codeword import Chart
from goursat.errors import (
    ExponentOverflow,
    IndexRange,
    NonExactDivision,
    VariableMismatch,
)
from goursat.polynomial import Poly, render_term, var_names
from goursat.symcalc import (
    Packing,
    a_coeff,
    annihilator_check,
    b_coeff,
    bracket_table,
    delta_basis,
    g_basis,
    lemma_packing,
    lie_bracket,
    verify_structure,
)

CHART = Chart("ooioii")
NAMES = var_names(6)
PK = lemma_packing(CHART)

from reference_fields import Field, bracket, pack, unpack, unpacked_frames
from reference_fields import std_fields as reference_std_fields
from worked_fixtures import BRACKETS_OOIOII


def exponents(named):
    """The exponent tuple of a monomial over the chart's coordinates."""
    return tuple(named.get(name, 0) for name in NAMES)


def monomial(named):
    return Poly(8, {exponents(named): 1})


def std_fields(chart):
    """The frames of the structure lemmas, as Fields."""
    return unpacked_frames(lemma_packing(chart))


class TestStdFields:
    def test_f6_expansion(self):
        fs, vs = std_fields(CHART)
        expected = (
            monomial({"n3": 1, "n5": 1, "n6": 1}) * fs[0]
            + monomial({"n1": 1, "n3": 1, "n5": 1, "n6": 1}) * vs[0]
            + monomial({"n2": 1, "n3": 1, "n5": 1, "n6": 1}) * vs[1]
            + monomial({"n5": 1, "n6": 1}) * vs[2]
            + monomial({"n4": 1, "n5": 1, "n6": 1}) * vs[3]
            + monomial({"n6": 1}) * vs[4]
            + vs[5]
        )
        assert fs[6] == expected

    def test_all_ordinary_closed_form(self):
        chart = Chart("oooo")
        fs, vs = std_fields(chart)
        for j in range(5):
            expected = fs[0]
            for i in range(j):
                expected = expected + Poly.variable(6, Chart.n_var(i + 1)) * vs[i]
            assert fs[j] == expected

    def test_f0(self):
        for chart in (CHART, Chart("iiii"), Chart("o")):
            fs, _ = std_fields(chart)
            assert fs[0] == Field.frame(chart.nvars, 0)

    def test_frames_match_the_field_recursion(self):
        # Packing.frames builds the focal frame from focal_slots' exponent
        # tuples; the reference builds it by Field arithmetic.
        charts = [
            Chart("".join(bits))
            for k in range(1, 11)
            for bits in itertools.product("oi", repeat=k)
        ]
        assert len(charts) == 2046
        for chart in charts:
            assert std_fields(chart) == reference_std_fields(chart), chart.choices


class TestCoefficients:
    def test_b26(self):
        assert b_coeff(CHART, 2, 6) == exponents({"n5": 1, "n6": 1})

    def test_a16(self):
        assert a_coeff(CHART, 1, 6) == exponents({"n3": 1, "n5": 1, "n6": 1})

    def test_empty_ip(self):
        chart = Chart("ooo")
        assert a_coeff(chart, 1, 3) == (0,) * 5

    def test_index_range(self):
        with pytest.raises(IndexRange):
            a_coeff(CHART, 0, 3)
        with pytest.raises(IndexRange):
            b_coeff(CHART, 3, 3)

    def test_b_equals_lie_derivative(self):
        # f_j(n_i) is the n_i slot of f_j.
        fs, _ = std_fields(CHART)
        for i in range(6):
            for j in range(i + 1, 7):
                assert fs[j][Chart.n_var(i)] == Poly(8, {b_coeff(CHART, i, j): 1})


class TestLieBracket:
    def test_v1_f1(self):
        fs, vs = PK.frames
        assert lie_bracket(PK, vs[1], fs[1]) == vs[0]

    def test_f3_f5(self):
        fs, _ = PK.frames
        assert lie_bracket(PK, fs[3], fs[5]) == PK.combination(
            [(-1, exponents({"n4": 1, "n5": 1}), fs[2])]
        )

    def test_self_bracket_vanishes(self):
        fs, _ = PK.frames
        for f in fs:
            assert lie_bracket(PK, f, f) == {}

    def test_variable_mismatch(self):
        # Exponents over another variable set cannot be packed.
        with pytest.raises(VariableMismatch):
            Packing(Chart("o"), 3).mono((0, 0, 0, 0))

    def test_antisymmetry_and_jacobi_random_fields(self):
        # The packed bracket of random fields equals the reference's, and
        # is antisymmetric and satisfies the Jacobi identity.
        rng = random.Random(7)
        for chart in (Chart("oi"), Chart("ooio"), CHART):
            nv = chart.nvars
            pk = Packing(chart, 3)
            def rand_field():
                comps = []
                for v in range(nv):
                    exps = {u: rng.randrange(0, 2) for u in range(nv)}
                    c = rng.randint(-3, 3)
                    comps.append(Poly.monomial(nv, exps, c) if c else Poly.zero(nv))
                return Field(comps)
            for _ in range(100):
                fields = rand_field(), rand_field(), rand_field()
                x, y, z = (pack(pk, f) for f in fields)

                def br(a, b):
                    return unpack(pk, lie_bracket(pk, a, b))

                assert br(x, y) == bracket(fields[0], fields[1])
                assert (br(x, y) + br(y, x)).is_zero
                jac = (
                    br(x, lie_bracket(pk, y, z))
                    + br(y, lie_bracket(pk, z, x))
                    + br(z, lie_bracket(pk, x, y))
                )
                assert jac.is_zero

    def test_evaluation_consistency(self):
        # no pointwise bracket exists; algebraic identities survive evaluation
        fs, _ = PK.frames
        at = PK.at_point(tuple(range(1, 9)))
        x, y = fs[5], fs[6]
        xy, yx = at(lie_bracket(PK, x, y)), at(lie_bracket(PK, y, x))
        assert all(xy.get(c, 0) + yx.get(c, 0) == 0 for c in range(8))


class TestBracketTable:
    def test_worked_example_98_entries(self):
        table = bracket_table(CHART)
        for row, entries in BRACKETS_OOIOII.items():
            kind, i = row[0], int(row[1])
            for j, expected in enumerate(entries):
                assert table.render_entry(kind, i, j) == expected, (row, j)

    def test_vi_fj_vanishes_above_diagonal(self):
        for chart in (CHART, Chart("iioi")):
            table = bracket_table(chart)
            for i in range(chart.k + 1):
                for j in range(i):
                    assert table.render_entry("v", i, j) == "0"

    def test_one_lie_bracket_per_pair(self, monkeypatch):
        # Every [v_i, f_j], and [f_i, f_j] for i < j only.
        calls = []
        monkeypatch.setattr(
            symcalc, "lie_bracket", lambda *args: calls.append(1) or lie_bracket(*args)
        )
        for k in range(1, 7):
            for bits in itertools.product("oi", repeat=k):
                calls.clear()
                bracket_table(Chart("".join(bits)))
                assert len(calls) == (k + 1) ** 2 + k * (k + 1) // 2

    def test_v0_f0_rows_vanish(self):
        table = bracket_table(CHART)
        for j in range(7):
            assert table.render_entry("v", 0, j) == "0"
            assert table.render_entry("f", 0, j) == "0"


class TestGBasis:
    def test_worked_example(self):
        gb = g_basis(CHART)
        fs, vs = std_fields(CHART)
        gb = gb._replace(fields=tuple(unpack(PK, g) for g in gb.fields))
        assert gb.fields[0] == fs[6]
        assert gb.fields[1] == vs[6]
        assert gb.fields[2] == -fs[5]
        assert gb.fields[3] == -fs[4]
        assert gb.fields[4] == -vs[3]
        assert gb.fields[5] == fs[2]
        assert gb.fields[6] == vs[1]
        assert gb.fields[7] == -vs[0]
        rendered = [render_term(1, d, NAMES) for d in gb.divisors]
        assert rendered == ["1", "1", "n6", "n5*n6", "n5*n6", "n3*n5*n6"]

    def test_refuses_the_base_chart(self):
        with pytest.raises(IndexRange) as info:
            g_basis(Chart(""))
        assert str(info.value) == "IndexRange: g_basis: k=0 below 1"

    def test_all_ordinary_signs(self):
        chart = Chart("ooooo")
        gb = g_basis(chart)
        _, vs = std_fields(chart)
        for i in range(2, chart.k + 2):
            sign = -1 if (i % 2 == 0) else 1
            assert unpack(lemma_packing(chart), gb.fields[i]) == sign * vs[chart.k - i + 1]
            assert gb.idents[i - 2] == (sign, "v", chart.k - i + 1)
        assert all(d == (0,) * chart.nvars for d in gb.divisors)


class TestDivision:
    # Packing.divide on the 4 coordinates of chart oo
    PK = Packing(Chart("oo"), 3)
    x, y, zero = Poly.variable(4, 0), Poly.variable(4, 1), Poly.zero(4)

    def test_exact(self):
        x, y, zero = self.x, self.y, self.zero
        row = pack(self.PK, Field((x * x * y + x * y * y, x * y, zero, zero)))
        quotient = self.PK.divide(row, (1, 1, 0, 0))
        assert unpack(self.PK, quotient) == Field((x + y, Poly.const(4, 1), zero, zero))

    def test_not_exact(self):
        row = pack(self.PK, Field((self.x + self.y, self.zero, self.zero, self.zero)))
        with pytest.raises(NonExactDivision):
            self.PK.divide(row, (1, 0, 0, 0))


class TestAnnihilator:
    def test_focal_and_vertical_pass(self):
        fs, vs = PK.frames
        assert annihilator_check(CHART, fs[6], 6)
        assert annihilator_check(CHART, vs[6], 6)

    def test_f0_fails(self):
        fs, _ = PK.frames
        assert not annihilator_check(CHART, fs[0], 6)

    def test_delta_basis_fields_pass_to_their_depth(self):
        for i in range(1, 8):
            for field in delta_basis(CHART, i):
                assert annihilator_check(CHART, field, 6 - i + 1)


class TestVerifyStructure:
    def test_trivial_chart(self):
        verify_structure(Chart("o"))

    def test_worked_chart(self):
        verify_structure(CHART)

    def test_inverted_first_level_chart(self):
        verify_structure(Chart("iio"))

    def test_exponent_overflow_names_the_lemma(self, monkeypatch):
        # In 2-bit fields a product of two frame monomials can reach the
        # guard bit; the lemma that formed it is named, as for a mismatch.
        monkeypatch.setattr(symcalc, "lemma_packing", lambda chart: Packing(chart, 2))
        verify_structure.cache_clear()
        try:
            with pytest.raises(
                ExponentOverflow,
                match="structure lemma bracket_closed_forms fails on chart ooioii: "
                "exponents .* reach 2, the guard bit of their 2-bit fields",
            ):
                verify_structure(CHART)
        finally:
            verify_structure.cache_clear()

    def test_sweep_small_charts(self):
        for k in range(1, 5):
            for bits in itertools.product("oi", repeat=k):
                verify_structure(Chart("".join(bits)))


class TestKernelAgainstReference:
    """lie_bracket against the Poly-only reference bracket, through the
    test-side conversion of reference_fields."""

    @staticmethod
    def random_poly(rng, nv):
        p = Poly.zero(nv)
        for _ in range(rng.randrange(0, 4)):
            exps = {u: rng.randrange(0, 3) for u in range(nv)}
            p = p + Poly.monomial(nv, exps, rng.randint(-5, 5))
        return p

    def random_field(self, rng, nv):
        # About a third of the components are zero.
        return Field(
            self.random_poly(rng, nv) if rng.random() < 0.66 else Poly.zero(nv)
            for _ in range(nv)
        )

    def test_random_fields(self):
        # Exponents up to 2 bracket to at most 4, below the 4-bit guard.
        rng = random.Random(20251018)
        for nv in (2, 3, 5):
            pk = Packing(Chart("o" * (nv - 2)), 4)
            for _ in range(200):
                x, y = self.random_field(rng, nv), self.random_field(rng, nv)
                assert unpack(pk, lie_bracket(pk, pack(pk, x), pack(pk, y))) == bracket(x, y)

    def test_cancelling_terms_leave_no_zeros(self):
        # A zero coefficient left in a row would break == and the rank.
        rng = random.Random(5)
        pk = Packing(Chart("oo"), 4)
        for _ in range(50):
            x = pack(pk, self.random_field(rng, 4))
            assert lie_bracket(pk, x, x) == {}

    def test_std_fields_brackets_match_reference(self):
        fs, vs = PK.frames
        for left in fs + vs:
            for right in fs:
                assert unpack(PK, lie_bracket(PK, left, right)) == bracket(
                    unpack(PK, left), unpack(PK, right)
                )
