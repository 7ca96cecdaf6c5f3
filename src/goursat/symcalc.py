"""Exact symbolic calculus on monster-tower charts.

A vector field is a packed row (Packing): its terms x^m d/dx_c on the
coordinate frame (d/dr_0, d/dn_0, ..., d/dn_k), each an int key holding
c and m, with an int coefficient.  The module builds the two standard
frames of a chart -- the vertical fields v_i = d/dn_i and the focal
fields f_i defined by the ordinary/inverted recursion -- takes Lie
brackets with one routine (Packing.bracket), which the brute force in
oracle shares, constructs the mixed g-basis in which all brackets against
g_0 collapse to a single monomial multiple, and mechanically verifies the
structure lemmas that the invariant computations rest on.  A
closed-form coefficient is a term, an int times an exponent tuple
(polynomial.render_term renders it), which Packing packs like any other
monomial.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import gcd
from operator import lshift, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .codeword import CHART_MEMO_SIZE, Chart, Frozen
from .errors import (
    ExponentOverflow,
    IndexRange,
    NonExactDivision,
    RouteMismatch,
    VariableMismatch,
)
from .polynomial import Monomial, render_term, var_names


class RankTracker:
    """Incremental exact rank over Q of sparse integer rows.

    A row maps int keys to int coefficients; absent keys are zero.  A key
    is a component index (a field's value at a point) or a packed key
    (Packing), so the heap compares ints.
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


# ---------------------------------------------------------------------------
# Standard frames


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


# ---------------------------------------------------------------------------
# Packed rows

Row = dict[int, int]


class Packing(Frozen):
    """The layout of packed rows on one chart, in fields of width bits.

    A vector field is a row: a dict from an int key to a nonzero int
    coefficient, one entry per term x^m d/dx_c.  The key holds the
    component c in its low bits, enough of them for the k+2 components,
    and above them the exponent m_v of each coordinate v = 0..k+1 (r_0,
    n_0, ..., n_k) in a field of width bits, so a monomial product is one
    int addition.  Field v starts at bit shifts[v]; cmask selects the
    component, fmask one field (once shifted down), limit is a field's
    top bit and guards holds the top bit of every field.

    Guard.  The top bit of each field is its guard: every exponent of a
    row stays below it.  Two exponents below the guard sum to less than
    twice the guard, the size of the field, so adding the keys of two rows
    below the guard cannot carry past a field; a sum can reach a guard bit,
    and one mask finds it.  mono, bracket and combination check every key
    they make and raise ExponentOverflow at a guard bit, so what they
    return is again below the guard.  The same bits make divide's
    exactness test: with every guard bit set, subtracting a monomial below
    the guard clears the guard bit of exactly the fields it does not fit.
    """

    _fields = ("chart", "width")
    # the dict holds the cached frames
    __slots__ = (*_fields, "shifts", "cmask", "fmask", "limit", "guards", "__dict__")

    def __init__(self, chart: Chart, width: int):
        if width < 1:
            raise ValueError(f"a packed field needs its guard bit, got width {width}")
        cbits = (chart.nvars - 1).bit_length()
        shifts = tuple(cbits + v * width for v in range(chart.nvars))
        limit = 1 << (width - 1)
        guards = sum(limit << s for s in shifts)
        values = (chart, width, shifts, (1 << cbits) - 1, (1 << width) - 1, limit, guards)
        for name, value in zip(Packing.__slots__, values):
            object.__setattr__(self, name, value)

    def exponents(self, key: int) -> Monomial:
        """The exponent tuple of a key."""
        return tuple(key >> s & self.fmask for s in self.shifts)

    def _overflow(self, key: int) -> ExponentOverflow:
        return ExponentOverflow(
            f"exponents {self.exponents(key)} reach {self.limit}, the guard bit of "
            f"their {self.width}-bit fields, on chart {self.chart.choices}"
        )

    def _checked(self, out: Row) -> Row:
        """out without its zero terms; ExponentOverflow at a guard bit."""
        guards = self.guards
        if reduce(or_, out, 0) & guards:
            raise self._overflow(next(key for key in out if key & guards))
        if 0 in out.values():
            return {key: c for key, c in out.items() if c}
        return out

    def mono(self, exps: Monomial) -> int:
        """The key of x^exps in component 0."""
        if len(exps) != len(self.shifts):
            raise VariableMismatch(f"expected {len(self.shifts)} exponents, got {len(exps)}")
        key = sum(map(lshift, exps, self.shifts))
        if max(exps) >= self.limit:
            raise self._overflow(key)
        return key

    @cached_property
    def frames(self) -> tuple[tuple[Row, ...], tuple[Row, ...]]:
        """The focal frame (f_0..f_k) and vertical frame (v_0..v_k), the
        focal fields built from focal_slots."""
        fs = tuple(
            {c + self.mono(s): 1 for c, s in enumerate(slots) if s is not None}
            for slots in focal_slots(self.chart)
        )
        vs = tuple({Chart.n_var(j): 1} for j in range(self.chart.k + 1))
        return fs, vs

    def combination(self, terms: Iterable[tuple[int, Monomial, Row]]) -> Row:
        """The sum of c * x^mono * row over the terms (c, mono, row)."""
        out: Row = {}
        for c, mono, row in terms:
            d = self.mono(mono)
            for key, b in row.items():
                out[key + d] = out.get(key + d, 0) + c * b
        return self._checked(out)

    def bracket(self, x: Row) -> Callable[[Row], Row]:
        """The function y -> [x, y], with x prepared once.

        In component c, [x, y] = x(y_c) - y(x_c).  For x(y_c), a term
        a x^m d/dx_v of x turns each term of y holding x_v to the power
        e > 0 into a*e times that term over x_v times x^m: one key delta
        per term of x, kept with the field of the v it differentiates.  For -y(x_c), a
        term of y in component v meets each term a x^m d/dx_c of x holding
        x_v to the power s > 0: the term moves to component c and gains
        x^m over x_v, times -a*s, again one key delta.
        """
        shifts, cmask, fmask = self.shifts, self.cmask, self.fmask
        lowering = []
        move: list[list] = [[] for _ in shifts]
        for key, a in x.items():
            c = key & cmask
            m = key - c
            lowering.append((shifts[c], m - (1 << shifts[c]), a))
            for v, s in enumerate(shifts):
                e = key >> s & fmask
                if e:
                    move[v].append((m - (1 << s) + c - v, a * e))
        # None when x has constant coefficients, as v_k has
        moving = tuple(map(tuple, move)) if any(move) else None
        checked = self._checked

        def bracket_with_x(y: Row) -> Row:
            out: Row = {}
            get = out.get
            for key, b in y.items():
                for shift, delta, a in lowering:
                    e = key >> shift & fmask
                    if e:
                        new = key + delta
                        out[new] = get(new, 0) + a * b * e
                if moving:
                    for delta, a in moving[key & cmask]:
                        new = key + delta
                        out[new] = get(new, 0) - a * b
            return checked(out)

        return bracket_with_x

    def divide(self, row: Row, exps: Monomial) -> Row:
        """row over the monomial x^exps, exactly; NonExactDivision if a
        term holds a coordinate to a lower power."""
        d, guards = self.mono(exps), self.guards
        out = {}
        for key, c in row.items():
            q = (key | guards) - d
            if q & guards != guards:
                raise NonExactDivision(
                    f"term with exponents {self.exponents(key)} not divisible by {exps}"
                )
            out[q ^ guards] = c
        return out

    def at_point(self, coords: Sequence[int]) -> Callable[[Row], Row]:
        """The function taking a row to its value at the integer point
        coords, a row keyed by component for RankTracker.  One mask skips
        every term holding a coordinate that is 0 there."""
        zero = 0
        powers = []
        for x, s in zip(coords, self.shifts):
            if x == 0:
                zero |= self.fmask << s
            elif x != 1:
                powers.append((s, x))
        cmask, fmask = self.cmask, self.fmask

        def at(row: Row) -> Row:
            value: Row = {}
            for key, c in row.items():
                if key & zero:
                    continue
                for s, x in powers:
                    c *= x ** (key >> s & fmask)
                comp = key & cmask
                value[comp] = value.get(comp, 0) + c
            return value

        return at


def lie_bracket(pk: Packing, x: Row, y: Row) -> Row:
    """[x, y] of two rows of the packing pk, preparing x for this one
    bracket; GeneratorSet prepares its two left operands once."""
    return pk.bracket(x)(y)


@lru_cache(maxsize=1)
def lemma_packing(chart: Chart) -> Packing:
    """The packing the structure lemmas run on; every read falls inside one
    chart's sweep (verify_structure), so one entry serves.  Rows are frame
    fields, with exponents of at most 1, and products of two such (closed
    forms, brackets, the g-basis before its division), so 3-bit fields,
    which hold exponents up to 3, leave room to spare."""
    return Packing(chart, 3)


# ---------------------------------------------------------------------------
# Closed-form coefficients


def _inverted_product(chart: Chart, levels: range) -> Monomial:
    """The exponents of the product of n_h over the inverted levels in levels."""
    ns = {Chart.n_var(h) for h in levels if h in chart.ip}
    return tuple(int(v in ns) for v in range(chart.nvars))


def a_coeff(chart: Chart, i: int, j: int) -> Monomial:
    """The monomial a_{ij}: product of n_h over inverted levels h in (i, j]."""
    if not 1 <= i <= chart.k:
        raise IndexRange("a_coeff: i", i, 1, chart.k)
    if not i <= j <= chart.k:
        raise IndexRange("a_coeff: j", j, i, chart.k)
    return _inverted_product(chart, range(i + 1, j + 1))


def b_coeff(chart: Chart, i: int, j: int) -> Monomial:
    """The monomial b_{ij} = f_j(n_i), in closed form."""
    if not 0 <= i < chart.k:
        raise IndexRange("b_coeff: i", i, 0, chart.k - 1)
    if not i < j <= chart.k:
        raise IndexRange("b_coeff: j", j, i + 1, chart.k)
    b = a_coeff(chart, i + 1, j)
    if i + 1 not in chart.ip:
        # a_{i+1,j} leaves out level i+1, so its n_{i+1} exponent is 0.
        v = Chart.n_var(i + 1)
        b = b[:v] + (1,) + b[v + 1 :]
    return b


# ---------------------------------------------------------------------------
# Bracket table with its closed forms


class BracketEntry(NamedTuple):
    """One bracket in the f/v frames: coeff * x^mono * (f|v)_index, or 0."""

    coeff: int
    mono: Monomial | None
    kind: str | None  # 'f' or 'v'; None encodes the zero bracket
    index: int | None

    def render(self, names: Sequence[str]) -> str:
        if self.kind is None:
            return "0"
        return render_term(self.coeff, self.mono, names, f"{self.kind}{self.index}")


_ZERO_ENTRY = BracketEntry(0, None, None, None)


def predicted_vf(chart: Chart, i: int, j: int) -> BracketEntry:
    """Closed form of [v_i, f_j]."""
    if i > j or i == 0:
        return _ZERO_ENTRY
    kind = "f" if i in chart.ip else "v"
    return BracketEntry(1, a_coeff(chart, i, j), kind, i - 1)


def predicted_ff(chart: Chart, i: int, j: int) -> BracketEntry:
    """Closed form of [f_i, f_j]."""
    if i == j or i == 0 or j == 0:
        return _ZERO_ENTRY
    if i > j:
        entry = predicted_ff(chart, j, i)
        return entry._replace(coeff=-entry.coeff)
    kind = "f" if i in chart.ip else "v"
    return BracketEntry(-1, b_coeff(chart, i, j), kind, i - 1)


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
    Each closed form is packed from its coefficient, a_coeff or b_coeff,
    and the frame field it multiplies.  Raises RouteMismatch if a computed
    bracket deviates from its closed form -- that would falsify the
    bracket lemmas and always means a bug.
    """
    pk = lemma_packing(chart)
    fs, vs = pk.frames

    def agrees(bracket: Row, entry: BracketEntry) -> bool:
        if entry.kind is None:
            return not bracket
        frame = (fs if entry.kind == "f" else vs)[entry.index]
        return bracket == pk.combination([(entry.coeff, entry.mono, frame)])

    entries: dict[tuple[str, int, int], BracketEntry] = {}
    for i in range(chart.k + 1):
        for j in range(chart.k + 1):
            for kind, left, predicted in (("v", vs, predicted_vf), ("f", fs, predicted_ff)):
                entry = entries[(kind, i, j)] = predicted(chart, i, j)
                if (kind == "v" or i < j) and not agrees(lie_bracket(pk, left[i], fs[j]), entry):
                    raise RouteMismatch(f"[{kind}_{i}, f_{j}] deviates from its closed form")
    return BracketTable(chart, entries)


# ---------------------------------------------------------------------------
# The g-basis


class GBasis(NamedTuple):
    """The mixed basis g_0, ..., g_{k+1} with its divisors and identities.

    fields are rows of lemma_packing(chart); divisors[i-1] is the exponent
    tuple of the monomial removed when passing from [g_0, g_i] to g_{i+1};
    idents[i-2] identifies g_i as (sign, 'f'|'v', index).
    """

    chart: Chart
    fields: tuple[Row, ...]
    divisors: tuple[Monomial, ...]
    idents: tuple[tuple[int, str, int], ...]


def g_basis(chart: Chart) -> GBasis:
    """Build g_0 = f_k, g_1 = v_k, and g_{i+1} = divisor^{-1} [g_0, g_i].

    Every division is promised exact by the structure lemmas; each g_i for
    i >= 2 must come out as a signed standard frame field, with the focal
    one exactly at levels whose successor made the inverted choice.
    """
    if chart.k < 1:
        raise IndexRange("g_basis: k", chart.k, 1)
    pk = lemma_packing(chart)
    fs, vs = pk.frames
    fields = [fs[chart.k], vs[chart.k]]
    divisors = []
    for i in range(1, chart.k + 1):
        div = _inverted_product(chart, range(max(chart.k - i + 3, 1), chart.k + 1))
        # divide raises NonExactDivision unless every term divides.
        fields.append(pk.divide(lie_bracket(pk, fields[0], fields[i]), div))
        divisors.append(div)

    idents = []
    for i in range(2, chart.k + 2):
        kind = "f" if (chart.k - i + 2) in chart.ip else "v"
        target = (fs if kind == "f" else vs)[chart.k - i + 1]
        if fields[i] == target:
            idents.append((1, kind, chart.k - i + 1))
        elif fields[i] == {key: -c for key, c in target.items()}:
            idents.append((-1, kind, chart.k - i + 1))
        else:
            raise RouteMismatch(
                f"g_{i} is not a signed standard field of the predicted kind"
            )
    return GBasis(chart, tuple(fields), tuple(divisors), tuple(idents))


# ---------------------------------------------------------------------------
# Annihilator pairing and structure verification


def annihilator_check(chart: Chart, x: Row, imax: int) -> bool:
    """True iff x, a row of lemma_packing(chart), is annihilated by the
    forms d d_i - n_i d r_i, i = 1..imax: its d_i component equals n_i
    times its r_i component, term for term."""
    if not 0 <= imax <= chart.k:
        raise IndexRange("imax", imax, 0, chart.k)
    pk = lemma_packing(chart)
    cmask = pk.cmask
    for d, n, r in chart.relations[:imax]:
        n_i = 1 << pk.shifts[n]
        if {key - d: c for key, c in x.items() if key & cmask == d} != {
            key - r + n_i: c for key, c in x.items() if key & cmask == r
        }:
            return False
    return True


def delta_basis(chart: Chart, i: int) -> tuple[Row, ...]:
    """The standard basis (f_{k-i+1}, v_{k-i+1}, ..., v_k) of the i-th
    sheaf in the Lie square sequence (i = k+1 gives the full frame)."""
    if not 1 <= i <= chart.k + 1:
        raise IndexRange("delta index", i, 1, chart.k + 1)
    fs, vs = lemma_packing(chart).frames
    m = chart.k - i + 1
    return (fs[m],) + tuple(vs[m : chart.k + 1])


def _bracket_closed_forms(chart: Chart) -> None:
    bracket_table(chart)


def _f_expansion(chart: Chart) -> None:
    pk = lemma_packing(chart)
    fs, vs = pk.frames
    for j in range(1, chart.k + 1):
        # f_0's coefficient takes n_h over every inverted level h <= j.
        terms = [(1, _inverted_product(chart, range(1, j + 1)), fs[0])]
        terms += [(1, b_coeff(chart, i, j), vs[i]) for i in range(j)]
        if pk.combination(terms) != fs[j]:
            raise RouteMismatch(f"f_{j} expansion mismatch")


def _g_independence(chart: Chart) -> None:
    # Independence at a generic integer point (all coordinates nonzero).
    at = lemma_packing(chart).at_point([v + 2 for v in range(chart.nvars)])
    tracker = RankTracker()
    for f in g_basis(chart).fields:
        tracker.add(at(f))
    if tracker.rank != chart.nvars:
        raise RouteMismatch("g fields are not independent at a generic point")


def _delta_annihilators(chart: Chart) -> None:
    for i in range(1, chart.k + 2):
        for field in delta_basis(chart, i):
            if not annihilator_check(chart, field, chart.k - i + 1):
                raise RouteMismatch(f"standard basis of depth {i} fails pairing")


@lru_cache(maxsize=CHART_MEMO_SIZE)
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
      and Packing.frames builds the frame from it.

    The lemmas run on rows of lemma_packing(chart) and Packing.bracket,
    the routine the brute force in oracle brackets with.  A failed lemma
    raises RouteMismatch (NonExactDivision from the g-basis, and
    ExponentOverflow where a row outgrows its fields) naming the lemma and
    the chart; any failure is an implementation bug.
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
        except (RouteMismatch, NonExactDivision, ExponentOverflow) as exc:
            name = lemma.__name__.lstrip("_")
            raise type(exc)(
                f"structure lemma {name} fails on chart {chart.choices}: {exc}"
            ) from exc
