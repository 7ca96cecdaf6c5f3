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

from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .codeword import Chart, Frozen
from .errors import IndexRange, NonExactDivision, RouteMismatch, VariableMismatch
from .polynomial import Monomial, Poly, var_names


class VField(Frozen):
    """A vector field with polynomial coefficients on the coordinate frame."""

    __slots__ = _fields = ("nvars", "comps")

    def __init__(self, nvars: int, comps: tuple[Poly, ...]):
        if len(comps) != nvars:
            raise VariableMismatch(f"expected {nvars} components, got {len(comps)}")
        if any(p.nvars != nvars for p in comps):
            raise VariableMismatch("component polynomial over wrong variable set")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "comps", comps)

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

    def __neg__(self) -> "VField":
        return VField(self.nvars, tuple(-p for p in self.comps))

    def __mul__(self, a) -> "VField":
        if isinstance(a, Poly):
            if a.nvars != self.nvars:
                raise VariableMismatch("scaling polynomial over wrong variable set")
        elif not isinstance(a, int):
            return NotImplemented
        return VField(self.nvars, tuple(p * a for p in self.comps))

    __rmul__ = __mul__


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


def lie_bracket(x: VField, y: VField) -> VField:
    """[x, y], computed componentwise as x(y_c) - y(x_c)."""
    x._check(y)
    comps = []
    for xc, yc in zip(x.comps, y.comps):
        acc: dict = {}
        _derive_into(acc, x.comps, yc.terms, 1)
        _derive_into(acc, y.comps, xc.terms, -1)
        comps.append(Poly._wrap(x.nvars, {m: c for m, c in acc.items() if c}))
    return VField(x.nvars, tuple(comps))


class RankTracker:
    """Incremental exact rank over Q of sparse integer rows.

    A row maps int keys to int coefficients; absent keys are zero.  A key
    is a component index (a field's value at a point) or a packed monomial
    key (oracle.GeneratorSet's rows), so the heap compares ints.
    Elimination is fraction-free: every kept row is stored primitive under
    its pivot, its least key, and a new row is cleared of pivots from its
    least key upward, so each step only brings in keys above the one it
    removes.  This is the one place rows are normalized: callers pass them
    unscaled.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot key -> the kept row it leads

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Mapping[int, int]) -> bool:
        """Add a row; True iff it is independent of the rows kept so far."""
        rows = self._rows
        row = {key: c for key, c in row.items() if c}
        heap = list(row)
        heapify(heap)
        while heap:
            key = heappop(heap)
            a = row.get(key)
            if a is None:  # cancelled, or a stale heap entry
                continue
            pivot_row = rows.get(key)
            if pivot_row is None:
                # The least key left is no pivot: the row is independent.
                content = 0
                for c in row.values():
                    content = gcd(content, c)
                if a < 0:
                    content = -content
                rows[key] = {k: c // content for k, c in row.items()}
                return True
            # row <- (b*row - a*pivot_row) / gcd(a, b), which clears key.
            b = pivot_row[key]
            g = gcd(a, b)
            a //= g
            b //= g
            if b != 1:
                for k in row:
                    row[k] *= b
            for k, c in pivot_row.items():
                old = row.get(k)
                if old is None:
                    row[k] = -a * c
                    heappush(heap, k)
                else:
                    new = old - a * c
                    if new:
                        row[k] = new
                    else:
                        del row[k]
        return False


def point_row(field: VField, point: Sequence[int]) -> dict[int, int]:
    """field at an integer point as a sparse integer row keyed by
    component, for RankTracker."""
    row = {}
    for index, p in enumerate(field.comps):
        total = 0
        for m, c in p.terms.items():
            term = c
            for x, e in zip(point, m):
                if e:
                    term *= x**e
                    if not term:
                        break
            total += term
        if total:
            row[index] = total
    return row


# ---------------------------------------------------------------------------
# Standard frames


@lru_cache(maxsize=None)
def focal_slots(chart: Chart) -> tuple[tuple[Monomial | None, ...], ...]:
    """The focal frame f_0..f_k of a chart, each field as one slot per
    coordinate: None where its component is zero, else the exponent tuple
    of the component, a monomial with coefficient 1.

    f_0 = d/dr_0.  At an ordinary level i, f_i = f_{i-1} + n_i v_{i-1}:
    slot n_{i-1}, zero in f_{i-1}, becomes n_i.  At an inverted level i,
    f_i = n_i f_{i-1} + v_{i-1}: every slot is multiplied by n_i, then slot
    n_{i-1}, again zero in f_{i-1}, becomes 1.  No step adds two terms, so
    every slot is 0 or a monomial with coefficient 1 by construction.
    """
    nv = chart.nvars
    one = (0,) * nv
    slots: list[Monomial | None] = [None] * nv
    slots[0] = one
    frame = [tuple(slots)]
    for i in range(1, chart.k + 1):
        ni, below = Chart.n_var(i), Chart.n_var(i - 1)
        if i in chart.ip:
            slots = [None if s is None else s[:ni] + (s[ni] + 1,) + s[ni + 1 :] for s in slots]
            slots[below] = one
        else:
            slots[below] = one[:ni] + (1,) + one[ni + 1 :]
        frame.append(tuple(slots))
    return tuple(frame)


@lru_cache(maxsize=None)
def std_fields(chart: Chart) -> tuple[tuple[VField, ...], tuple[VField, ...]]:
    """The focal frame (f_0..f_k) and vertical frame (v_0..v_k) of a chart,
    the focal fields built from focal_slots."""
    nv = chart.nvars
    zero = Poly.zero(nv)
    fs = tuple(
        VField(nv, tuple(zero if s is None else Poly._wrap(nv, {s: 1}) for s in slots))
        for slots in focal_slots(chart)
    )
    vs = tuple(VField.frame(nv, Chart.n_var(j)) for j in range(chart.k + 1))
    return fs, vs


def _inverted_product(chart: Chart, levels: range) -> Poly:
    """The monomial product of n_h over the inverted levels h in levels."""
    return Poly.monomial(chart.nvars, {Chart.n_var(h): 1 for h in levels if h in chart.ip})


def a_coeff(chart: Chart, i: int, j: int) -> Poly:
    """The monomial a_{ij}: product of n_h over inverted levels h in (i, j]."""
    if not 1 <= i <= j <= chart.k:
        raise IndexRange("a_coeff needs 1 <= i <= j <= k", (i, j), 1, chart.k)
    return _inverted_product(chart, range(i + 1, j + 1))


def b_coeff(chart: Chart, i: int, j: int) -> Poly:
    """The monomial b_{ij} = f_j(n_i), in closed form."""
    if not 0 <= i < j <= chart.k:
        raise IndexRange("b_coeff needs 0 <= i < j <= k", (i, j), 0, chart.k)
    b = a_coeff(chart, i + 1, j)
    if i + 1 not in chart.ip:
        b = b * Poly.variable(chart.nvars, Chart.n_var(i + 1))
    return b


# ---------------------------------------------------------------------------
# Bracket table with its closed forms


class BracketEntry(NamedTuple):
    """One bracket expressed in the f/v frames: coeff * (f|v)_index, or 0."""

    coeff: Poly
    kind: str | None  # 'f' or 'v'; None encodes the zero bracket
    index: int | None

    def render(self, names: Sequence[str]) -> str:
        if self.kind is None:
            return "0"
        return self.coeff.render_times(f"{self.kind}{self.index}", names)


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


class BracketTable(NamedTuple):
    """All [v_i, f_j] and [f_i, f_j], in closed form."""

    chart: Chart
    entries: dict[tuple[str, int, int], BracketEntry]

    def entry(self, left_kind: str, i: int, j: int) -> BracketEntry:
        return self.entries[(left_kind, i, j)]

    def render_entry(self, left_kind: str, i: int, j: int) -> str:
        return self.entry(left_kind, i, j).render(var_names(self.chart.k))


def bracket_table(chart: Chart) -> BracketTable:
    """The closed form of every bracket, checked against lie_bracket.

    Every [v_i, f_j] is computed, and [f_i, f_j] for i < j only: the
    mirrors i > j and the zeros i == j follow from the antisymmetry of the
    bracket, so computing them would only re-check lie_bracket itself.
    Raises RouteMismatch if a computed bracket deviates from its closed
    form -- that would falsify the bracket lemmas and always means a bug.
    """
    fs, vs = std_fields(chart)

    def agrees(bracket: VField, entry: BracketEntry) -> bool:
        if entry.kind is None:
            return bracket.is_zero
        return bracket == entry.coeff * (fs if entry.kind == "f" else vs)[entry.index]

    entries: dict[tuple[str, int, int], BracketEntry] = {}
    for i in range(chart.k + 1):
        for j in range(chart.k + 1):
            for kind, left, predicted in (("v", vs, predicted_vf), ("f", fs, predicted_ff)):
                entry = entries[(kind, i, j)] = predicted(chart, i, j)
                if (kind == "v" or i < j) and not agrees(lie_bracket(left[i], fs[j]), entry):
                    raise RouteMismatch(f"[{kind}_{i}, f_{j}] deviates from its closed form")
    return BracketTable(chart, entries)


# ---------------------------------------------------------------------------
# The g-basis


class GBasis(NamedTuple):
    """The mixed basis g_0, ..., g_{k+1} with its divisors and identities.

    divisors[i-1] is the monomial removed when passing from [g_0, g_i] to
    g_{i+1}; idents[i-2] identifies g_i as (sign, 'f'|'v', index).
    """

    chart: Chart
    fields: tuple[VField, ...]
    divisors: tuple[Poly, ...]
    idents: tuple[tuple[int, str, int], ...]


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
        div = _inverted_product(chart, range(max(chart.k - i + 3, 1), chart.k + 1))
        bracket = lie_bracket(fields[0], fields[i])
        (mono,) = div.terms  # a monic monomial
        # divide_monomial raises NonExactDivision unless every term divides.
        fields.append(VField(chart.nvars, tuple(p.divide_monomial(mono) for p in bracket.comps)))
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


def _bracket_closed_forms(chart: Chart) -> None:
    bracket_table(chart)


def _f_expansion(chart: Chart) -> None:
    fs, vs = std_fields(chart)
    for j in range(1, chart.k + 1):
        # f_0's coefficient takes n_h over every inverted level h <= j.
        expansion = _inverted_product(chart, range(1, j + 1)) * fs[0]
        for i in range(j):
            expansion = expansion + b_coeff(chart, i, j) * vs[i]
        if expansion != fs[j]:
            raise RouteMismatch(f"f_{j} expansion mismatch")


def _g_independence(chart: Chart) -> None:
    # Independence at a generic integer point (all coordinates nonzero).
    point = [v + 2 for v in range(chart.nvars)]
    tracker = RankTracker()
    for f in g_basis(chart).fields:
        tracker.add(point_row(f, point))
    if tracker.rank != chart.nvars:
        raise RouteMismatch("g fields are not independent at a generic point")


def _delta_annihilators(chart: Chart) -> None:
    for i in range(1, chart.k + 2):
        for field in delta_basis(chart, i):
            if not annihilator_check(chart, field, chart.k - i + 1):
                raise RouteMismatch(f"standard basis of depth {i} fails pairing")


@lru_cache(maxsize=None)
def verify_structure(chart: Chart) -> None:
    """Machine-check the structure lemmas on one chart, in order.

    Four lemmas run: the bracket closed forms, the f_j expansions, the
    g-basis (g_basis raises unless each g_i, i >= 2, is a signed f_j or v_j
    with j <= k-1) and its independence, and the Delta^i annihilators.
    They imply three facts, which are therefore not checked again:
    - [g_1, g_i] = 0, i = 1..k: g_1 = v_k, the table checks [v_k, f_j] = 0
      for j < k, and [v_k, v_j] brackets two constant fields, as the
      table's [v_i, f_0] = 0 entries do (f_0 = d/dr_0).
    - g_m lies in Delta^i for m <= i: g_0 = f_k and g_1 = v_k lie in
      delta_basis(1), +-v_{k-m+1} in delta_basis(i) for i >= m, and
      +-f_{k-m+1} in delta_basis(m), checked to depth k-m+1 >= k-i+1.
    - f_k and v_k = d/dn_k map a monomial to a polynomial with positive
      coefficients: each slot of f_k is 0 or a monomial with coefficient 1
      by construction, because focal_slots stores no other kind of slot,
      and std_fields builds the frame from it.

    A failed lemma raises RouteMismatch (NonExactDivision from the g-basis)
    naming the lemma and the chart; any failure is an implementation bug.
    The lemmas depend on the chart alone, so the sweep runs once per chart;
    a raise is not cached, so a failure is raised on every call.
    """
    for lemma in (
        _bracket_closed_forms,
        _f_expansion,
        _g_independence,
        _delta_annihilators,
    ):
        try:
            lemma(chart)
        except (RouteMismatch, NonExactDivision) as exc:
            name = lemma.__name__.lstrip("_")
            raise type(exc)(
                f"structure lemma {name} fails on chart {chart.choices}: {exc}"
            ) from exc
