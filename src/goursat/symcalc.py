"""Exact symbolic calculus on monster-tower charts.

Vector fields are stored by their polynomial coefficients on the
coordinate frame (d/dr_0, d/dn_0, ..., d/dn_k).  The module builds the
two standard frames of a chart -- the vertical fields v_i = d/dn_i and
the focal fields f_i defined by the ordinary/inverted recursion -- takes
Lie brackets, constructs the mixed g-basis in which all brackets against
g_0 collapse to a single monomial multiple, and mechanically verifies the
structure lemmas that the invariant computations rest on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

from .codeword import Chart
from .errors import IndexRange, NonExactDivision, RouteMismatch, VariableMismatch
from .polynomial import Poly, var_names


@dataclass(frozen=True)
class VField:
    """A vector field with polynomial coefficients on the coordinate frame."""

    nvars: int
    comps: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.comps) != self.nvars:
            raise VariableMismatch(
                f"expected {self.nvars} components, got {len(self.comps)}"
            )
        if any(p.nvars != self.nvars for p in self.comps):
            raise VariableMismatch("component polynomial over wrong variable set")

    @classmethod
    def zero(cls, nvars: int) -> "VField":
        z = Poly.zero(nvars)
        return cls(nvars, (z,) * nvars)

    @classmethod
    def frame(cls, nvars: int, var: int) -> "VField":
        comps = [Poly.zero(nvars)] * nvars
        comps[var] = Poly.const(nvars, 1)
        return cls(nvars, tuple(comps))

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.comps)

    def _check(self, other: "VField") -> None:
        if self.nvars != other.nvars:
            raise VariableMismatch(
                f"fields over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "VField") -> "VField":
        self._check(other)
        return VField(self.nvars, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "VField") -> "VField":
        self._check(other)
        return VField(self.nvars, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "VField":
        return VField(self.nvars, tuple(-p for p in self.comps))

    def __mul__(self, a) -> "VField":
        if isinstance(a, Poly):
            if a.nvars != self.nvars:
                raise VariableMismatch("scaling polynomial over wrong variable set")
        elif not isinstance(a, (int, Fraction)):
            return NotImplemented
        return VField(self.nvars, tuple(p * a for p in self.comps))

    __rmul__ = __mul__

    def apply(self, a: Poly) -> Poly:
        """Lie derivative of the function a along this field."""
        if a.nvars != self.nvars:
            raise VariableMismatch("function over wrong variable set")
        acc: dict = {}
        _derive_into(acc, self.comps, a.terms, 1)
        return _nonzero(self.nvars, acc)

    def evaluate(self, values: Sequence) -> tuple:
        return tuple(p.evaluate(values) for p in self.comps)

    def key(self) -> tuple:
        return tuple(p.key() for p in self.comps)

    def render(self, names: Sequence[str]) -> str:
        parts = [
            f"({p.render(names)})*d/d{name}"
            for p, name in zip(self.comps, names)
            if not p.is_zero
        ]
        return " + ".join(parts) if parts else "0"


def _derive_into(acc: dict, comps: tuple[Poly, ...], a_terms: dict, sign: int) -> None:
    """Add sign * X(a) into the term dict acc, where X has components comps.

    X(a) = sum over v of comps[v] * da/dx_v, expanded term by term with no
    intermediate polynomial.  Coefficients that cancel are left as zeros.
    """
    for var, comp in enumerate(comps):
        c_terms = comp.terms
        if not c_terms:
            continue
        for ma, ca in a_terms.items():
            e = ma[var]
            if not e:
                continue
            lowered = ma[:var] + (e - 1,) + ma[var + 1 :]
            factor = sign * e * ca
            for mc, cc in c_terms.items():
                m = tuple(map(add, mc, lowered))
                acc[m] = acc.get(m, 0) + factor * cc


def _nonzero(nvars: int, acc: dict) -> Poly:
    return Poly._wrap(nvars, {m: c for m, c in acc.items() if c})


def lie_bracket(x: VField, y: VField) -> VField:
    """[x, y], computed componentwise as x(y_c) - y(x_c)."""
    x._check(y)
    comps = []
    for xc, yc in zip(x.comps, y.comps):
        acc: dict = {}
        _derive_into(acc, x.comps, yc.terms, 1)
        _derive_into(acc, y.comps, xc.terms, -1)
        comps.append(_nonzero(x.nvars, acc))
    return VField(x.nvars, tuple(comps))


class RankTracker:
    """Incremental exact rank of a growing set of rational vectors."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def add(self, vec: Sequence) -> bool:
        """Add a vector; True iff it raised the rank."""
        row = [Fraction(x) for x in vec]
        for pivot_row, col in zip(self.rows, self.pivots):
            if row[col]:
                factor = row[col] / pivot_row[col]
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            return False
        self.rows.append(row)
        self.pivots.append(col)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Standard frames


@lru_cache(maxsize=None)
def std_fields(chart: Chart) -> tuple[tuple[VField, ...], tuple[VField, ...]]:
    """The focal frame (f_0..f_k) and vertical frame (v_0..v_k) of a chart.

    f_0 = d/dr_0; at an ordinary level f_i = f_{i-1} + n_i v_{i-1} and at
    an inverted level f_i = n_i f_{i-1} + v_{i-1}.
    """
    nv = chart.nvars
    vs = tuple(VField.frame(nv, Chart.n_var(j)) for j in range(chart.k + 1))
    fs = [VField.frame(nv, 0)]
    for i in range(1, chart.k + 1):
        ni = Poly.variable(nv, Chart.n_var(i))
        if i in chart.ip:
            fs.append(ni * fs[i - 1] + vs[i - 1])
        else:
            fs.append(fs[i - 1] + ni * vs[i - 1])
    return tuple(fs), vs


def a_coeff(chart: Chart, i: int, j: int) -> Poly:
    """The monomial a_{ij}: product of n_h over inverted levels h in (i, j]."""
    if not 1 <= i <= j <= chart.k:
        raise IndexRange("a_coeff needs 1 <= i <= j <= k", (i, j), 1, chart.k)
    exps = {Chart.n_var(h): 1 for h in range(i + 1, j + 1) if h in chart.ip}
    return Poly.monomial(chart.nvars, exps)


def _a_full(chart: Chart, j: int) -> Poly:
    """Coefficient of f_0 in the expansion of f_j: product of n_h over ALL
    inverted levels h <= j.  Differs from a_coeff(chart, 1, j) only on
    charts inverted at level 1, which no code word reaches."""
    exps = {Chart.n_var(h): 1 for h in range(1, j + 1) if h in chart.ip}
    return Poly.monomial(chart.nvars, exps)


def b_coeff(chart: Chart, i: int, j: int) -> Poly:
    """The monomial b_{ij} = f_j(n_i); checked against the Lie derivative."""
    if not 0 <= i < j <= chart.k:
        raise IndexRange("b_coeff needs 0 <= i < j <= k", (i, j), 0, chart.k)
    b = a_coeff(chart, i + 1, j)
    if i + 1 not in chart.ip:
        b = b * Poly.variable(chart.nvars, Chart.n_var(i + 1))
    fs, _ = std_fields(chart)
    derived = fs[j].apply(Poly.variable(chart.nvars, Chart.n_var(i)))
    if derived != b:
        raise RouteMismatch(
            f"b_{{{i}{j}}} disagrees with the Lie derivative f_{j}(n_{i})"
        )
    return b


# ---------------------------------------------------------------------------
# Bracket table with its closed forms


@dataclass(frozen=True)
class BracketEntry:
    """One bracket expressed in the f/v frames: coeff * (f|v)_index, or 0."""

    coeff: Poly
    kind: str | None  # 'f' or 'v'; None encodes the zero bracket
    index: int | None

    def render(self, names: Sequence[str]) -> str:
        if self.kind is None:
            return "0"
        basis = f"{self.kind}{self.index}"
        c = self.coeff.render(names)
        if c == "1":
            return basis
        if c == "-1":
            return "-" + basis
        return f"{c}*{basis}"

    def to_field(self, chart: Chart) -> VField:
        if self.kind is None:
            return VField.zero(chart.nvars)
        fs, vs = std_fields(chart)
        base = fs[self.index] if self.kind == "f" else vs[self.index]
        return self.coeff * base


def _zero_entry(nv: int) -> BracketEntry:
    return BracketEntry(Poly.zero(nv), None, None)


def predicted_vf(chart: Chart, i: int, j: int) -> BracketEntry:
    """Closed form of [v_i, f_j]."""
    nv = chart.nvars
    if i > j or i == 0:
        return _zero_entry(nv)
    kind = "f" if i in chart.ip else "v"
    return BracketEntry(a_coeff(chart, i, j), kind, i - 1)


def predicted_ff(chart: Chart, i: int, j: int) -> BracketEntry:
    """Closed form of [f_i, f_j]."""
    nv = chart.nvars
    if i == j or i == 0 or j == 0:
        return _zero_entry(nv)
    if i > j:
        entry = predicted_ff(chart, j, i)
        return BracketEntry(-entry.coeff, entry.kind, entry.index)
    kind = "f" if i in chart.ip else "v"
    return BracketEntry(-b_coeff(chart, i, j), kind, i - 1)


@dataclass(frozen=True)
class BracketTable:
    """All [v_i, f_j] and [f_i, f_j], verified against the closed forms."""

    chart: Chart
    entries: dict[tuple[str, int, int], BracketEntry]

    def entry(self, left_kind: str, i: int, j: int) -> BracketEntry:
        return self.entries[(left_kind, i, j)]

    def render_entry(self, left_kind: str, i: int, j: int) -> str:
        return self.entry(left_kind, i, j).render(var_names(self.chart.k))


def bracket_table(chart: Chart) -> BracketTable:
    """Compute every bracket symbolically and express it back in the frames.

    Raises RouteMismatch if any computed bracket deviates from its closed
    form -- that would falsify the bracket lemmas and always means a bug.
    """
    fs, vs = std_fields(chart)
    entries: dict[tuple[str, int, int], BracketEntry] = {}
    for i in range(chart.k + 1):
        for j in range(chart.k + 1):
            for kind, left, predicted in (("v", vs, predicted_vf), ("f", fs, predicted_ff)):
                entry = predicted(chart, i, j)
                if lie_bracket(left[i], fs[j]) != entry.to_field(chart):
                    raise RouteMismatch(f"[{kind}_{i}, f_{j}] deviates from its closed form")
                entries[(kind, i, j)] = entry
    return BracketTable(chart, entries)


# ---------------------------------------------------------------------------
# The g-basis


@dataclass(frozen=True)
class GBasis:
    """The mixed basis g_0, ..., g_{k+1} with its divisors and identities.

    divisors[i-1] is the monomial removed when passing from [g_0, g_i] to
    g_{i+1}; idents[i-2] identifies g_i as (sign, 'f'|'v', index).
    """

    chart: Chart
    fields: tuple[VField, ...]
    divisors: tuple[Poly, ...]
    idents: tuple[tuple[int, str, int], ...]


def _g_divisor(chart: Chart, i: int) -> Poly:
    exps = {
        Chart.n_var(h): 1
        for h in range(max(chart.k - i + 3, 1), chart.k + 1)
        if h in chart.ip
    }
    return Poly.monomial(chart.nvars, exps)


@lru_cache(maxsize=None)
def g_basis(chart: Chart) -> GBasis:
    """Build g_0 = f_k, g_1 = v_k, and g_{i+1} = divisor^{-1} [g_0, g_i].

    Every division is promised exact by the structure lemmas; each g_i for
    i >= 2 must come out as a signed standard frame field, with the focal
    one exactly at levels whose successor made the inverted choice.
    """
    if chart.k < 1:
        raise IndexRange("g_basis needs k >= 1", chart.k, 1, chart.k)
    fs, vs = std_fields(chart)
    fields = [fs[chart.k], vs[chart.k]]
    divisors = []
    for i in range(1, chart.k + 1):
        div = _g_divisor(chart, i)
        bracket = lie_bracket(fields[0], fields[i])
        mono, c = div.leading()
        nxt = VField(
            chart.nvars, tuple(p.divide_monomial(mono, c) for p in bracket.comps)
        )
        if nxt * div != bracket:
            raise NonExactDivision(f"[g_0, g_{i}] is not divisible by {div!r}")
        fields.append(nxt)
        divisors.append(div)

    idents = []
    for i in range(2, chart.k + 2):
        kind = "f" if (chart.k - i + 2) in chart.ip else "v"
        target = (fs if kind == "f" else vs)[chart.k - i + 1]
        if fields[i] == target:
            idents.append((1, kind, chart.k - i + 1))
        elif fields[i] == -target:
            idents.append((-1, kind, chart.k - i + 1))
        else:
            raise RouteMismatch(
                f"g_{i} is not a signed standard field of the predicted kind"
            )
    return GBasis(chart, tuple(fields), tuple(divisors), tuple(idents))


# ---------------------------------------------------------------------------
# Annihilator pairing and structure verification


def annihilator_check(chart: Chart, x: VField, imax: int) -> bool:
    """True iff x is annihilated by the forms d d_i - n_i d r_i, i = 1..imax."""
    if not 0 <= imax <= chart.k:
        raise IndexRange("imax", imax, 0, chart.k)
    for i in range(1, imax + 1):
        ni = Poly.variable(chart.nvars, Chart.n_var(i))
        pairing = x.comps[chart.deactivated_var(i)] - ni * x.comps[chart.retained_var(i)]
        if not pairing.is_zero:
            return False
    return True


def delta_basis(chart: Chart, i: int) -> tuple[VField, ...]:
    """The standard basis (f_{k-i+1}, v_{k-i+1}, ..., v_k) of the i-th
    sheaf in the Lie square sequence (i = k+1 gives the full frame)."""
    if not 1 <= i <= chart.k + 1:
        raise IndexRange("delta index", i, 1, chart.k + 1)
    fs, vs = std_fields(chart)
    m = chart.k - i + 1
    return (fs[m],) + tuple(vs[m : chart.k + 1])


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    chart: Chart
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _random_monomial(rng: random.Random, nvars: int) -> Poly:
    exps = {v: rng.randrange(0, 4) for v in range(nvars)}
    return Poly.monomial(nvars, exps)


def verify_structure(chart: Chart) -> StructureReport:
    """Machine-check every structure lemma on one chart.

    Returns a report instead of raising; any failure is an implementation
    bug, never an expected outcome.
    """
    checks: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            detail = fn()
            checks.append(CheckResult(name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - report, never raise
            checks.append(CheckResult(name, False, repr(exc)))

    fs, vs = std_fields(chart)
    k = chart.k
    nv = chart.nvars

    def check_bracket_closed_forms():
        bracket_table(chart)
        return f"{2 * (k + 1) ** 2} brackets match"

    run("bracket_closed_forms", check_bracket_closed_forms)

    def check_f_expansion():
        for j in range(1, k + 1):
            expansion = _a_full(chart, j) * fs[0]
            for i in range(j):
                expansion = expansion + b_coeff(chart, i, j) * vs[i]
            if expansion != fs[j]:
                raise RouteMismatch(f"f_{j} expansion mismatch")
        return f"{k} expansions match"

    run("f_expansion", check_f_expansion)

    def check_altbasis():
        dets = []
        for i in range(2, k + 2):
            m = k - i + 2
            nm = Poly.variable(nv, Chart.n_var(m))
            if m in chart.ip:
                if fs[m] != nm * fs[m - 1] + vs[m - 1]:
                    raise RouteMismatch(f"inverted exchange at level {m}")
                dets.append(-1)
            else:
                if fs[m] != fs[m - 1] + nm * vs[m - 1]:
                    raise RouteMismatch(f"ordinary exchange at level {m}")
                dets.append(1)
        return f"change-of-basis determinants {dets}"

    run("altbasis_exchange", check_altbasis)

    def check_g_basis():
        gb = g_basis(chart)
        if gb.fields[0] != fs[k] or gb.fields[1] != vs[k]:
            raise RouteMismatch("g_0, g_1 are not the focal/vertical fields")
        for i in range(1, k + 1):
            lhs = lie_bracket(gb.fields[0], gb.fields[i])
            if lhs != gb.fields[i + 1] * gb.divisors[i - 1]:
                raise RouteMismatch(f"[g_0, g_{i}] misses its principal multiple")
            if not lie_bracket(gb.fields[1], gb.fields[i]).is_zero:
                raise RouteMismatch(f"[g_1, g_{i}] does not vanish")
        return f"idents {[f'{s:+d}{kind}{idx}' for s, kind, idx in gb.idents]}"

    run("g_basis", check_g_basis)

    def check_g_membership():
        gb = g_basis(chart)
        for i in range(1, k + 2):
            for m in range(i + 1):
                if not annihilator_check(chart, gb.fields[m], k - i + 1):
                    raise RouteMismatch(f"g_{m} is not a section at depth {i}")
        # Independence at a generic rational point (all coordinates nonzero).
        point = [Fraction(v + 2) for v in range(nv)]
        tracker = RankTracker()
        for f in gb.fields:
            tracker.add(f.evaluate(point))
        if tracker.rank != nv:
            raise RouteMismatch("g fields are not independent at a generic point")
        return ""

    run("g_membership", check_g_membership)

    def check_delta_annihilators():
        for i in range(1, k + 2):
            for field in delta_basis(chart, i):
                if not annihilator_check(chart, field, k - i + 1):
                    raise RouteMismatch(f"standard basis of depth {i} fails pairing")
        return ""

    run("delta_annihilators", check_delta_annihilators)

    def check_monomial_positivity():
        rng = random.Random(f"positivity:{chart.choices}")
        for _ in range(50):
            a = _random_monomial(rng, nv)
            for field in (fs[k], vs[k]):
                image = field.apply(a)
                if any(c <= 0 for _, c in image.terms.items()):
                    raise RouteMismatch(f"negative coefficient in image of {a!r}")
        return "50 monomials"

    run("monomial_positivity", check_monomial_positivity)

    return StructureReport(chart, tuple(checks))
