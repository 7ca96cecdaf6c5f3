import pytest

from goursat.errors import NonExactDivision, VariableMismatch
from goursat.polynomial import Poly, var_names


def p_var(i, n=4):
    return Poly.variable(n, i)


class TestRing:
    def test_add_cancels(self):
        x = p_var(0)
        assert (x - x).is_zero

    def test_mul_distributes(self):
        x, y, z = p_var(0), p_var(1), p_var(2)
        assert (x + y) * z == x * z + y * z

    def test_scalar_mul(self):
        x = p_var(0)
        assert 3 * x == x + x + x

    def test_zero_annihilates(self):
        assert (Poly.zero(4) * p_var(1)).is_zero

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            Poly.variable(3, 0) + Poly.variable(4, 0)


class TestCanonicalForm:
    def test_equal_polys_share_key(self):
        x, y = p_var(0), p_var(1)
        a = (x + y) * (x - y)
        b = x * x - y * y
        assert a == b
        assert a.key() == b.key()
        assert hash(a) == hash(b)

    def test_grlex_leading(self):
        x, y = p_var(0), p_var(1)
        p = x * y + x * x * x + y
        assert p.leading()[0] == (3, 0, 0, 0)

    def test_items_sorted_descending(self):
        x, y = p_var(0), p_var(1)
        p = y + x + x * y
        monos = [m for m, _ in p.items()]
        assert monos == sorted(monos, key=lambda m: (sum(m), m), reverse=True)


class TestCalculus:
    def test_diff(self):
        x, y = p_var(0), p_var(1)
        p = x * x * y + 3 * y
        assert p.diff(0) == 2 * x * y
        assert p.diff(1) == x * x + Poly.const(4, 3)


class TestDivision:
    def test_exact(self):
        x, y = p_var(0), p_var(1)
        p = x * x * y + x * y * y
        q = p.divide_monomial((1, 1, 0, 0))
        assert q == x + y

    def test_not_exact(self):
        x, y = p_var(0), p_var(1)
        with pytest.raises(NonExactDivision):
            (x + y).divide_monomial((1, 0, 0, 0))


class TestRender:
    def test_monomials(self):
        names = var_names(2)  # r0 n0 n1 n2
        p = Poly.monomial(4, {2: 1, 3: 2}, -1)
        assert p.render(names) == "-n1*n2^2"

    def test_sum_ordering_and_signs(self):
        names = var_names(2)
        x, y = p_var(0), p_var(1)
        p = 2 * x * x - y
        assert p.render(names) == "2*r0^2 - n0"

    def test_negative_non_unit_coefficient(self):
        names = var_names(2)
        p = Poly.monomial(4, {1: 5}, -15)
        assert p.render(names) == "-15*n0^5"

    def test_zero_and_const(self):
        names = var_names(2)
        assert Poly.zero(4).render(names) == "0"
        assert Poly.const(4, 576).render(names) == "576"

    def test_deterministic(self):
        names = var_names(2)
        x, y, z = p_var(0), p_var(1), p_var(2)
        p = x * y + z * z * z - 4 * x
        assert p.render(names) == (y * x + z * z * z - 4 * x).render(names)
