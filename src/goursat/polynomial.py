"""Exact multivariate polynomial arithmetic over the integers.

Polynomials are stored as a canonical mapping from exponent tuples to
nonzero int coefficients.  Terms are ordered graded-lexicographically over
the fixed variable order (r_0, n_0, ..., n_k), which makes serialization
deterministic: equal polynomials render identically, each term in the
one text form of a monomial term (symcalc.render_term).  No command
imports this module: Poly is the tests' reference algebra.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import VariableMismatch
from .symcalc import Monomial, render_term


def _grlex(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class Poly:
    """Immutable polynomial with integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, int] | None = None):
        object.__setattr__(self, "nvars", nvars)
        clean: dict[Monomial, int] = {}
        if terms:
            for mono, c in terms.items():
                if len(mono) != nvars:
                    raise VariableMismatch(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if c != 0:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Monomial, int]) -> "Poly":
        """Adopt a term dict that already has nvars-long monomials and only
        nonzero coefficients, without copying or checking it."""
        out = cls.__new__(cls)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # Pickle and copy rebuild through __init__: the default would set
        # the slots one by one, which __setattr__ refuses.
        return Poly, (self.nvars, self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, var: int) -> "Poly":
        mono = [0] * nvars
        mono[var] = 1
        return cls(nvars, {tuple(mono): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Mapping[int, int], c: int = 1) -> "Poly":
        mono = [0] * nvars
        for var, e in exps.items():
            mono[var] = e
        return cls(nvars, {tuple(mono): c})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> list[tuple[Monomial, int]]:
        """Terms in descending graded-lex order (canonical)."""
        return sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True)

    def key(self) -> tuple:
        """Hashable canonical form (the basis of the hash): the terms sorted
        by monomial."""
        return tuple(sorted(self.terms.items()))

    def leading(self) -> tuple[Monomial, int]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex)
        return mono, self.terms[mono]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        if self.nvars != other.nvars or len(self.terms) != len(other.terms):
            return False
        return all(other.terms.get(m, 0) == c for m, c in self.terms.items())

    def __hash__(self) -> int:
        return hash((self.nvars, self.key()))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"polynomials over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Poly._wrap(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return Poly.zero(self.nvars)
            return Poly._wrap(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Poly._wrap(self.nvars, terms)

    __rmul__ = __mul__

    def diff(self, var: int) -> "Poly":
        """Partial derivative with respect to variable ``var``."""
        # Lowering one exponent maps distinct monomials to distinct ones.
        return Poly._wrap(
            self.nvars,
            {
                m[:var] + (m[var] - 1,) + m[var + 1 :]: c * m[var]
                for m, c in self.terms.items()
                if m[var]
            },
        )

    # -- rendering ----------------------------------------------------------

    def render(self, names: Sequence[str]) -> str:
        """Deterministic text form, e.g. ``-n4*n5^2``."""
        if self.is_zero:
            return "0"
        # No term holds a space or a "+", so each " + -" is a join.
        terms = " + ".join(render_term(c, m, names) for m, c in self.items())
        return terms.replace(" + -", " - ")

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Poly({self.render(names)})"
