"""Independent brute-force verifiers for the combinatorial invariants.

Everything here recomputes an invariant from first principles so it can
be compared against the closed-form routes: small-growth ranks by
actually bracketing generator sets, focal orders by the backwards chart
procedure and by probing with generic jets, multiplicity sequences by
simulating blowups of parameterized curves, and the pathway construction
that pins each e-table entry to a concrete section coefficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import invariants
from .codeword import Chart, ChartPoint, rvt_of_chart_point
from .errors import (
    IndexRange,
    OrderMismatch,
    StepBudgetExceeded,
    TruncationTooSmall,
)
from .invariants import PuiseuxCharacteristic
from .polynomial import Poly, var_names
from .symcalc import RankTracker, VField, lie_bracket, std_fields

# ---------------------------------------------------------------------------
# Truncated power series in one parameter


@dataclass(frozen=True)
class Series:
    """A power series in t known modulo t^prec; never reads past prec."""

    coeffs: tuple[Fraction, ...]

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_terms(cls, prec: int, terms: dict[int, Fraction]) -> "Series":
        coeffs = [Fraction(0)] * prec
        for e, c in terms.items():
            if e < prec:
                coeffs[e] = Fraction(c)
        return cls(tuple(coeffs))

    def order(self) -> int | None:
        """Vanishing order, or None when zero to the known precision."""
        for e, c in enumerate(self.coeffs):
            if c:
                return e
        return None

    def truncate(self, prec: int) -> "Series":
        return Series(self.coeffs[:prec])

    def __add__(self, other: "Series") -> "Series":
        prec = min(self.prec, other.prec)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[:prec])

    def __sub__(self, other: "Series") -> "Series":
        prec = min(self.prec, other.prec)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs))[:prec])

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs))
        prec = min(self.prec, other.prec)
        out = [Fraction(0)] * prec
        for i, a in enumerate(self.coeffs[:prec]):
            if not a:
                continue
            for j in range(prec - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return Series(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Series":
        result = Series.from_terms(self.prec, {0: Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def deriv(self) -> "Series":
        return Series(tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])))

    def integrate(self, constant: Fraction) -> "Series":
        out = [Fraction(constant)]
        out.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return Series(tuple(out))

    def shift_out(self, e: int) -> "Series":
        """Divide by t^e; the leading e coefficients must vanish."""
        if any(c != 0 for c in self.coeffs[:e]):
            raise TruncationTooSmall(f"cannot divide by t^{e}: a leading coefficient is nonzero")
        return Series(self.coeffs[e:])

    def invert_unit(self) -> "Series":
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise TruncationTooSmall("cannot invert a series with zero constant term")
        inv = [Fraction(1) / c0]
        for n in range(1, self.prec):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += self.coeffs[i] * inv[n - i]
            inv.append(-acc / c0)
        return Series(tuple(inv))


def series_div(num: Series, den: Series) -> Series:
    """num / den for a denominator of finite order; precision drops by it.

    num must vanish at least to the order of den, so that the quotient is
    again a power series (true in every blowup step, where den has the
    minimal order of the pair).
    """
    d = den.order()
    if d is None:
        raise TruncationTooSmall("division by a series that vanishes to precision")
    if any(c != 0 for c in num.coeffs[:d]):
        raise TruncationTooSmall("quotient is not a power series")
    return num.shift_out(d) * den.shift_out(d).invert_unit()


@dataclass(frozen=True)
class JetCurve:
    """Truncated power-series values of every chart coordinate along a curve."""

    chart: Chart
    series: tuple[Series, ...]

    @property
    def prec(self) -> int:
        return min(s.prec for s in self.series)

    def eval_poly(self, a: Poly) -> Series:
        prec = self.prec
        out = Series.from_terms(prec, {})
        for mono, c in a.terms.items():
            term = Series.from_terms(prec, {0: Fraction(c)})
            for var, e in enumerate(mono):
                if e:
                    term = term * self.series[var] ** e
            out = out + term
        return out


# ---------------------------------------------------------------------------
# Small growth by brute force


def _primitive(field: VField) -> VField:
    """Scale a field so its coefficient content is 1 with positive leading
    coefficient; scalar multiples collapse to one representative.  The
    coefficients of the result are ints."""
    num = 0  # gcd of the numerators
    den = 1  # lcm of the denominators
    all_int = True
    for p in field.comps:
        for c in p.terms.values():
            if type(c) is int:
                num = gcd(num, c)
            else:
                all_int = False
                num = gcd(num, c.numerator)
                den = lcm(den, c.denominator)
    if not num:
        return field
    lead = next(p for p in field.comps if p.terms).leading()[1]
    sign = -1 if lead < 0 else 1
    if all_int and num == 1 and sign == 1:
        return field
    # Every coefficient is (p/q) * sign * den/num with num | p and q | den.
    num *= sign
    comps = []
    for p in field.comps:
        terms = {}
        for m, c in p.terms.items():
            if type(c) is int:
                terms[m] = c // num * den
            else:
                terms[m] = c.numerator // num * (den // c.denominator)
        comps.append(Poly._wrap(p.nvars, terms))
    return VField(field.nvars, tuple(comps))


class GeneratorSet:
    """Module generators of the small-growth sheaves, one batch per step.

    Step 1 is the focal pair (f_k, v_k); step j adds the brackets of the
    two focal generators against everything new at step j-1, deduplicated
    by canonical form up to scalar multiples.  Module-level redundancy is
    deliberately not detected; extra generators cost speed, never
    correctness.
    """

    def __init__(self, chart: Chart):
        fs, vs = std_fields(chart)
        self.focal_pair = (fs[chart.k], vs[chart.k])
        self._index: set[tuple] = set()
        self.steps: list[list[VField]] = []
        self._admit([_primitive(g) for g in self.focal_pair])

    def _admit(self, candidates: list[VField]) -> list[VField]:
        batch = []
        for gen in candidates:
            key = gen.key()
            if key not in self._index:
                self._index.add(key)
                batch.append(gen)
        self.steps.append(batch)
        return batch

    def grow(self) -> list[VField]:
        """Bracket the newest batch against the focal pair; returns the
        generators new to this step."""
        candidates = []
        for y in self.steps[-1]:
            for z in self.focal_pair:
                bracket = lie_bracket(z, y)
                if not bracket.is_zero:
                    candidates.append(_primitive(bracket))
        return self._admit(candidates)


def small_growth_bruteforce(p: ChartPoint, max_steps: int) -> tuple[int, ...]:
    """Small growth ranks from first principles.

    Grows the generator sets step by step and takes the exact rational
    rank of the generators evaluated at the point; stops once the rank
    reaches k+2 (or raises when the step budget runs out first).
    """
    if max_steps < 1:
        raise StepBudgetExceeded("max_steps must be at least 1")
    full_rank = p.chart.nvars
    gens = GeneratorSet(p.chart)
    tracker = RankTracker()
    sg: list[int] = []
    batch = gens.steps[0]
    while True:
        for gen in batch:
            tracker.add(gen.evaluate(p.coords))
        sg.append(tracker.rank)
        if tracker.rank == full_rank:
            return tuple(sg)
        if not batch:
            raise StepBudgetExceeded(
                f"generators stabilized at rank {tracker.rank} < {full_rank}"
            )
        if len(sg) == max_steps:
            raise StepBudgetExceeded(
                f"rank did not stabilize within {max_steps} steps (reached {tracker.rank})"
            )
        batch = gens.grow()


# ---------------------------------------------------------------------------
# Focal orders by the backwards procedure


@dataclass(frozen=True)
class FocalOrders:
    """Focal orders of every coordinate and differential at a chart point."""

    point: ChartPoint
    o_coord: tuple[int, ...]
    o_diff: tuple[int, ...]

    def rows(self) -> list[tuple[str, str, int, int]]:
        """(name, alternative name, o(coordinate), o(differential)) per
        coordinate, highest level first."""
        chart = self.point.chart
        names = var_names(chart.k)
        order = [Chart.n_var(j) for j in range(chart.k, -1, -1)] + [0]
        return [
            (names[v], chart.alt_names[v], self.o_coord[v], self.o_diff[v])
            for v in order
        ]


def focal_orders(p: ChartPoint) -> FocalOrders:
    """Backwards recursion: active differentials at the top level have
    order 1; each level's defining relation propagates the order to the
    coordinate it deactivated, and a coordinate that vanishes at the point
    inherits the order of its differential (otherwise its order is 0)."""
    chart = p.chart
    k = chart.k
    o_diff: dict[int, int] = {}
    if k == 0:
        o_diff[0] = 1
        o_diff[1] = 1
    else:
        o_diff[Chart.n_var(k)] = 1
        o_diff[chart.retained_var(k)] = 1

    def o_coord_of(var: int) -> int:
        return o_diff[var] if p.coords[var] == 0 else 0

    for j in range(k, 0, -1):
        nj = Chart.n_var(j)
        if chart.choice(j) == "o":
            # n_j = d n_{j-1} / d r_{j-1} with r_{j-1} still active
            o_diff[Chart.n_var(j - 1)] = o_coord_of(nj) + o_diff[chart.retained_var(j)]
        else:
            # n_j = d r_{j-1} / d n_{j-1} with n_{j-1} retained upwards
            o_diff[chart.retained_var(j - 1)] = o_coord_of(nj) + o_diff[Chart.n_var(j - 1)]
    o_coord = tuple(o_coord_of(v) for v in range(chart.nvars))
    diffs = tuple(o_diff[v] for v in range(chart.nvars))
    return FocalOrders(p, o_coord, diffs)


def vo_at_point(p: ChartPoint) -> tuple[int, ...]:
    """Vertical orders (VO_2 .. VO_k): the focal order of the chart function
    cutting out each divisor at infinity, zero off the divisor."""
    fo = focal_orders(p)
    out = []
    for j in range(2, p.k + 1):
        if j in p.ip and p.n_value(j) == 0:
            out.append(fo.o_coord[Chart.n_var(j)])
        else:
            out.append(0)
    return tuple(out)


def base_orders(p: ChartPoint) -> tuple[int, int]:
    """Focal orders of the two base-surface coordinates (r_0, n_0)."""
    fo = focal_orders(p)
    return fo.o_coord[0], fo.o_coord[1]


def base_multiplicity_at_point(p: ChartPoint) -> int:
    """m_0 of the canonical curve through p: min of the base orders."""
    return min(base_orders(p))


# ---------------------------------------------------------------------------
# Generic jets


def focal_jet(p: ChartPoint, rng: random.Random, prec: int) -> JetCurve:
    """A random focal curve germ through p, as truncated series.

    The two active coordinates at the top level get free series with
    nonzero random integer coefficients; every lower coordinate is then
    recovered by integrating its defining relation, so the curve is
    tangent to the focal distribution by construction.
    """
    chart = p.chart
    k = chart.k

    def free_series(value: Fraction) -> Series:
        terms = {0: value}
        for m in range(1, prec):
            c = 0
            while c == 0:
                c = rng.randint(-9, 9)
            terms[m] = Fraction(c)
        return Series.from_terms(prec, terms)

    series: dict[int, Series] = {}
    top_n = Chart.n_var(k) if k else 1
    top_r = chart.retained_var(k) if k else 0
    series[top_n] = free_series(p.coords[top_n])
    series[top_r] = free_series(p.coords[top_r])

    for j in range(k, 0, -1):
        nj = series[Chart.n_var(j)]
        if chart.choice(j) == "o":
            target = Chart.n_var(j - 1)
            base = series[chart.retained_var(j)]
        else:
            target = chart.retained_var(j - 1)
            base = series[Chart.n_var(j - 1)]
        integrand = nj * base.deriv()
        series[target] = integrand.integrate(p.coords[target])

    prec_min = min(s.prec for s in series.values())
    return JetCurve(chart, tuple(series[v].truncate(prec_min) for v in range(chart.nvars)))


def focal_order_generic_jet(
    p: ChartPoint,
    a: Poly,
    trials: int = 3,
    prec: int | None = None,
    seed: int = 0,
) -> int:
    """Focal order of a function by probing with random focal jets.

    Returns the minimum vanishing order of a along `trials` random focal
    curves through p; with the default precision this equals the true
    focal order with overwhelming probability.
    """
    if prec is None:
        word = rvt_of_chart_point(p)
        prec = invariants.nonholonomy_degree(word) + 5
    orders = []
    for t in range(trials):
        rng = random.Random(f"jet:{seed}:{t}")
        jet = focal_jet(p, rng, prec)
        o = jet.eval_poly(a).order()
        if o is not None:
            orders.append(o)
    if not orders:
        raise TruncationTooSmall(
            f"function vanished to precision {prec} on all {trials} jets"
        )
    return min(orders)


# ---------------------------------------------------------------------------
# Blowup simulation


def blowup_multseq(pc: PuiseuxCharacteristic, prec: int | None = None) -> tuple[int, ...]:
    """Multiplicity sequence by explicitly blowing up the monomial curve
    x = t^{lambda_0}, y = sum_i t^{lambda_i}, recording the minimum order
    at each infinitely near point until it reaches 1."""
    if pc.g == 0:
        return (1,)
    lam_last = pc.exponents[-1]
    if prec is None:
        prec = 2 * lam_last + 2
    if prec < 2 * lam_last:
        raise TruncationTooSmall(f"precision {prec} < 2*lambda_g = {2 * lam_last}")
    x = Series.from_terms(prec, {pc.lambda0: Fraction(1)})
    y = Series.from_terms(prec, {e: Fraction(1) for e in pc.exponents})
    out = []
    while True:
        ox, oy = x.order(), y.order()
        if ox is None or oy is None:
            raise TruncationTooSmall("a coordinate vanished to working precision")
        m = min(ox, oy)
        out.append(m)
        if m == 1:
            return tuple(out)
        # Divide the series of larger order by the other; ties divide the
        # second coordinate by the first.  A nonzero constant quotient is a
        # free point: translate it away before continuing.
        if oy >= ox:
            keep, quot = x, series_div(y, x)
        else:
            keep, quot = y, series_div(x, y)
        if quot.order() == 0:
            quot = quot - Series.from_terms(quot.prec, {0: quot.coeffs[0]})
        x, y = keep.truncate(quot.prec), quot


# ---------------------------------------------------------------------------
# Pathway sections


@dataclass(frozen=True)
class PathwayRow:
    """One step of a calculation pathway: the tracked term of f_{h,i}."""

    h: int
    coeff: Poly  # a single monomial
    g_index: int
    order: int

    def render(self, names: Sequence[str]) -> str:
        c = self.coeff.render(names)
        basis = f"g{self.g_index}"
        if c == "1":
            return basis
        if c == "-1":
            return "-" + basis
        return f"{c}*{basis}"


def pathway_sections(p: ChartPoint, i: int) -> tuple[PathwayRow, ...]:
    """Track one coefficient through the pathway producing f_{h,i}.

    Phase one brackets with g_0 up the diagonal, where the tracked term of
    f_{hh} is the closed-form monomial times g_h.  Phase two extends with
    h = i..b_i: bracket with g_1 when the tracked coefficient contains the
    top coordinate n_k (the tracked term differentiates by n_k), else with
    g_0 (the tracked term differentiates by its lowest variable and picks
    up the matching focal-frame coefficient).  At every step the tracked
    coefficient's focal order must equal the e-table entry; OrderMismatch
    would falsify the sharpness of the section bounds.
    """
    chart = p.chart
    k = chart.k
    if not 3 <= i <= k + 1:
        raise IndexRange("pathway column", i, 3, k + 1)
    vo = vo_at_point(p)
    sums = invariants._column_sums(vo, k)
    fo = focal_orders(p)
    fs, _ = std_fields(chart)
    fk = fs[k]
    nv = chart.nvars
    nk_var = Chart.n_var(k)

    def mono_order(poly: Poly) -> int:
        mono, _ = poly.leading()
        return sum(e * fo.o_coord[v] for v, e in enumerate(mono))

    def diagonal_term(h: int) -> Poly:
        exps = {}
        for j in range(max(k - h + 4, 1), k + 1):
            if j in chart.ip:
                exps[Chart.n_var(j)] = h + j - k - 3
        return Poly.monomial(nv, exps)

    def e_entry(h: int, col: int) -> int:
        return max(0, col - h + sums[col])

    rows = []
    for h in range(3, i + 1):
        term = diagonal_term(h)
        order = mono_order(term)
        if order != e_entry(h, h):
            raise OrderMismatch(
                f"diagonal term at h={h} has order {order}, expected {e_entry(h, h)}"
            )
        rows.append(PathwayRow(h, term, h, order))

    b_i = i + sums[i]

    def candidates(coeff: Poly) -> list[Poly]:
        # Bracketing with g_1 tracks the n_k-derivative of the coefficient;
        # bracketing with g_0 tracks one term of the focal image, one per
        # variable of the monomial (the focal frame has no d/dn_k slot).
        out = []
        if coeff.has_var(nk_var):
            out.append(coeff.diff(nk_var))
        mono, _ = coeff.leading()
        for var, e in enumerate(mono):
            if e and var != nk_var:
                out.append(fk.comps[var] * coeff.diff(var))
        return out

    # Depth-first search for a chain of candidates that reaches the next
    # e-table value at every step down to row b_i.  At points where some
    # coordinates do not vanish, not every candidate drops the order, so
    # the search backtracks; pending[d] iterates the candidates for row
    # i + d + 1.  The stack is explicit because a chain has one step per
    # row, and b_i grows like Fibonacci in k.
    tail: list[PathwayRow] = []
    pending = [iter(candidates(rows[-1].coeff))] if i < b_i else []
    while pending:
        h = i + len(pending)
        expected = e_entry(h, i)
        cand = next((c for c in pending[-1] if mono_order(c) == expected), None)
        if cand is None:
            pending.pop()
            if tail:
                tail.pop()
            continue
        tail.append(PathwayRow(h, cand, i, expected))
        if h == b_i:
            break
        pending.append(iter(candidates(cand)))
    if i < b_i and not pending:
        raise OrderMismatch(
            f"no pathway from column {i} tracks orders down to zero at h={b_i}"
        )
    rows.extend(tail)
    return tuple(rows)
