import itertools
import random

from fractions import Fraction

import pytest

from goursat.codeword import Chart
from goursat.errors import IndexRange, VariableMismatch
from goursat.polynomial import Poly, var_names
from goursat.symcalc import (
    VField,
    a_coeff,
    annihilator_check,
    b_coeff,
    bracket_table,
    delta_basis,
    g_basis,
    lie_bracket,
    std_fields,
    verify_structure,
)

CHART = Chart("ooioii")
NAMES = var_names(6)

from worked_fixtures import BRACKETS_OOIOII


def monomial(exps, c=1):
    return Poly.monomial(8, {NAMES.index(n): e for n, e in exps.items()}, c)


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
            assert fs[0] == VField.frame(chart.nvars, 0)


class TestCoefficients:
    def test_b26(self):
        assert b_coeff(CHART, 2, 6) == monomial({"n5": 1, "n6": 1})

    def test_a16(self):
        assert a_coeff(CHART, 1, 6) == monomial({"n3": 1, "n5": 1, "n6": 1})

    def test_empty_ip(self):
        chart = Chart("ooo")
        assert a_coeff(chart, 1, 3) == Poly.const(5, 1)

    def test_index_range(self):
        with pytest.raises(IndexRange):
            a_coeff(CHART, 0, 3)
        with pytest.raises(IndexRange):
            b_coeff(CHART, 3, 3)

    def test_b_equals_lie_derivative(self):
        fs, _ = std_fields(CHART)
        for i in range(6):
            for j in range(i + 1, 7):
                ni = Poly.variable(8, Chart.n_var(i))
                assert fs[j].apply(ni) == b_coeff(CHART, i, j)


class TestLieBracket:
    def test_v1_f1(self):
        fs, vs = std_fields(CHART)
        assert lie_bracket(vs[1], fs[1]) == vs[0]

    def test_f3_f5(self):
        fs, vs = std_fields(CHART)
        assert lie_bracket(fs[3], fs[5]) == monomial({"n4": 1, "n5": 1}, -1) * fs[2]

    def test_self_bracket_vanishes(self):
        fs, _ = std_fields(CHART)
        for f in fs:
            assert lie_bracket(f, f).is_zero

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            lie_bracket(VField.frame(3, 0), VField.frame(4, 0))

    def test_antisymmetry_and_jacobi_random_fields(self):
        rng = random.Random(7)
        for chart in (Chart("oi"), Chart("ooio"), CHART):
            nv = chart.nvars
            def rand_field():
                comps = []
                for v in range(nv):
                    exps = {u: rng.randrange(0, 2) for u in range(nv)}
                    c = rng.randint(-3, 3)
                    comps.append(Poly.monomial(nv, exps, c) if c else Poly.zero(nv))
                return VField(nv, tuple(comps))
            for _ in range(100):
                x, y, z = rand_field(), rand_field(), rand_field()
                assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero
                jac = (
                    lie_bracket(x, lie_bracket(y, z))
                    + lie_bracket(y, lie_bracket(z, x))
                    + lie_bracket(z, lie_bracket(x, y))
                )
                assert jac.is_zero

    def test_evaluation_consistency(self):
        # no pointwise bracket exists; algebraic identities survive evaluation
        fs, vs = std_fields(CHART)
        point = tuple(Fraction(i + 1, 2) for i in range(8))
        x, y = fs[5], fs[6]
        xy = lie_bracket(x, y)
        yx = lie_bracket(y, x)
        summed = tuple(a + b for a, b in zip(xy.evaluate(point), yx.evaluate(point)))
        assert all(v == 0 for v in summed)


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

    def test_v0_f0_rows_vanish(self):
        table = bracket_table(CHART)
        for j in range(7):
            assert table.render_entry("v", 0, j) == "0"
            assert table.render_entry("f", 0, j) == "0"


class TestGBasis:
    def test_worked_example(self):
        gb = g_basis(CHART)
        fs, vs = std_fields(CHART)
        assert gb.fields[0] == fs[6]
        assert gb.fields[1] == vs[6]
        assert gb.fields[2] == -fs[5]
        assert gb.fields[3] == -fs[4]
        assert gb.fields[4] == -vs[3]
        assert gb.fields[5] == fs[2]
        assert gb.fields[6] == vs[1]
        assert gb.fields[7] == -vs[0]
        rendered = [d.render(NAMES) for d in gb.divisors]
        assert rendered == ["1", "1", "n6", "n5*n6", "n5*n6", "n3*n5*n6"]

    def test_all_ordinary_signs(self):
        chart = Chart("ooooo")
        gb = g_basis(chart)
        _, vs = std_fields(chart)
        for i in range(2, chart.k + 2):
            sign = -1 if (i % 2 == 0) else 1
            assert gb.fields[i] == sign * vs[chart.k - i + 1]
            assert gb.idents[i - 2] == (sign, "v", chart.k - i + 1)
        assert all(d == Poly.const(chart.nvars, 1) for d in gb.divisors)


class TestAnnihilator:
    def test_focal_and_vertical_pass(self):
        fs, vs = std_fields(CHART)
        assert annihilator_check(CHART, fs[6], 6)
        assert annihilator_check(CHART, vs[6], 6)

    def test_f0_fails(self):
        fs, _ = std_fields(CHART)
        assert not annihilator_check(CHART, fs[0], 6)

    def test_delta_basis_fields_pass_to_their_depth(self):
        for i in range(1, 8):
            for field in delta_basis(CHART, i):
                assert annihilator_check(CHART, field, 6 - i + 1)


class TestVerifyStructure:
    def test_trivial_chart(self):
        report = verify_structure(Chart("o"))
        assert report.ok, report.failures()

    def test_worked_chart(self):
        report = verify_structure(CHART)
        assert report.ok, report.failures()

    def test_inverted_first_level_chart(self):
        report = verify_structure(Chart("iio"))
        assert report.ok, report.failures()

    def test_sweep_small_charts(self):
        for k in range(1, 5):
            for bits in itertools.product("oi", repeat=k):
                report = verify_structure(Chart("".join(bits)))
                assert report.ok, (bits, report.failures())


class TestKernelAgainstReference:
    """lie_bracket and VField.apply against a reference made of Poly ops only."""

    @staticmethod
    def reference_apply(x, a):
        out = Poly.zero(x.nvars)
        for var, comp in enumerate(x.comps):
            out = out + comp * a.diff(var)
        return out

    def reference_bracket(self, x, y):
        return VField(
            x.nvars,
            tuple(
                self.reference_apply(x, yc) - self.reference_apply(y, xc)
                for xc, yc in zip(x.comps, y.comps)
            ),
        )

    @staticmethod
    def random_poly(rng, nv):
        p = Poly.zero(nv)
        for _ in range(rng.randrange(0, 4)):
            exps = {u: rng.randrange(0, 3) for u in range(nv)}
            c = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
            p = p + Poly.monomial(nv, exps, c)
        return p

    def random_field(self, rng, nv):
        # About a third of the components are zero.
        return VField(
            nv,
            tuple(
                self.random_poly(rng, nv) if rng.random() < 0.66 else Poly.zero(nv)
                for _ in range(nv)
            ),
        )

    def test_random_fields(self):
        rng = random.Random(20251018)
        for nv in (2, 3, 5):
            for _ in range(200):
                x, y = self.random_field(rng, nv), self.random_field(rng, nv)
                a = self.random_poly(rng, nv)
                assert x.apply(a) == self.reference_apply(x, a)
                assert lie_bracket(x, y) == self.reference_bracket(x, y)

    def test_cancelling_terms_leave_no_zeros(self):
        # A zero coefficient left in a term dict would break is_zero and ==.
        rng = random.Random(5)
        for _ in range(50):
            x = self.random_field(rng, 4)
            assert all(not p.terms for p in lie_bracket(x, x).comps)
        x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
        image = VField(2, (x1, x0)).apply(x0 * x0 - x1 * x1)  # 2*x0*x1 - 2*x1*x0
        assert image.terms == {}

    def test_std_fields_brackets_match_reference(self):
        fs, vs = std_fields(CHART)
        for left in fs + vs:
            for right in fs:
                assert lie_bracket(left, right) == self.reference_bracket(left, right)
