"""Independent brute-force verifiers for the combinatorial invariants.

Everything here recomputes an invariant from first principles so it can
be compared against the closed-form routes: small-growth ranks by
actually bracketing generator sets (symcalc's packed rows, with the
bracket routine the structure lemmas use), focal orders by the backwards
chart procedure and by probing with generic jets, multiplicity sequences
by simulating blowups of parameterized curves, and the pathway
construction that pins each e-table entry to a concrete section
coefficient.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from operator import add, mul
from typing import Callable, NamedTuple, Sequence

from .charts import CHART_MEMO_SIZE, Chart, ChartPoint, var_names
from .codeword import Frozen
from .errors import (
    IndexRange,
    OrderMismatch,
    StepBudgetExceeded,
    TruncationTooSmall,
    VariableMismatch,
)
from .invariants import PuiseuxCharacteristic
from .symcalc import Monomial, Packing, RankTracker, Row, focal_slots, render_term
# GeneratorSet brackets through Packing.bracket, prepared once per focal
# field, and makes no lie_bracket call; bench/trace_worker.py patches the
# name here.
from .symcalc import lie_bracket  # noqa: F401

# ---------------------------------------------------------------------------
# Truncated power series in one parameter, over a prime field

# The jets run over F_p for this Mersenne prime: integration divides, and
# Fractions would make every coefficient product a gcd.
PRIME = 2**61 - 1


@lru_cache(maxsize=64)
def _inverses(n: int) -> tuple[int, ...]:
    """The inverses of 1..n mod PRIME, by which integration divides; n is
    below the jets' precision, at most 39 under verify --symbolic (k <= 7)."""
    return tuple(pow(i, -1, PRIME) for i in range(1, n + 1))


class Series(Frozen):
    """A power series in t over F_p, p = PRIME = 2^61 - 1, known modulo
    t^prec; never reads past prec.

    Coefficients are ints in [0, p); an int enters reduced mod p.
    focal_jet draws its free coefficients uniformly from [1, p).  The error
    is one-sided: reducing mod p can cancel a coefficient but not create
    one, so an order over F_p can only overestimate the order over Q.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_terms(cls, prec: int, terms: dict[int, int]) -> "Series":
        coeffs = [0] * prec
        for e, c in terms.items():
            if e < prec:
                coeffs[e] = c % PRIME
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
        return Series(tuple((a + b) % PRIME for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return Series(tuple(a * other % PRIME for a in self.coeffs))
        prec = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs[prec - 1 :: -1]
        # Coefficient n is a[0..n] against b reversed, reduced once.
        return Series(
            tuple(sum(map(mul, a[: n + 1], b[prec - 1 - n :])) % PRIME for n in range(prec))
        )

    def deriv(self) -> "Series":
        return Series(tuple((i + 1) * c % PRIME for i, c in enumerate(self.coeffs[1:])))

    def integrate(self, constant: int) -> "Series":
        out = [constant % PRIME]
        out.extend(c * inv % PRIME for c, inv in zip(self.coeffs, _inverses(self.prec)))
        return Series(tuple(out))

    def shift_out(self, e: int) -> "Series":
        """Divide by t^e; the leading e coefficients must vanish."""
        if any(self.coeffs[:e]):
            raise TruncationTooSmall(f"cannot divide by t^{e}: a leading coefficient is nonzero")
        return Series(self.coeffs[e:])

    def invert_unit(self) -> "Series":
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise TruncationTooSmall("cannot invert a series with zero constant term")
        c0_inv = pow(c0, -1, PRIME)
        inv = [c0_inv]
        for n in range(1, self.prec):
            acc = sum(map(mul, self.coeffs[1 : n + 1], inv[::-1]))
            inv.append(-acc * c0_inv % PRIME)
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
    if any(num.coeffs[:d]):
        raise TruncationTooSmall("quotient is not a power series")
    return num.shift_out(d) * den.shift_out(d).invert_unit()


class JetCurve(NamedTuple):
    """Truncated power-series values of every chart coordinate along a curve."""

    chart: Chart
    series: tuple[Series, ...]

    @property
    def prec(self) -> int:
        return min(s.prec for s in self.series)

    def eval_terms(self, terms: Sequence[tuple[int, Monomial]]) -> Series:
        """The sum of the terms c * x^mono, a function of the chart's
        coordinates, along the curve; each coefficient enters reduced mod
        p.  A term 1 * x_var is the coordinate's own series."""
        n = len(self.series)
        values = []
        for c, mono in terms:
            if len(mono) != n:
                raise VariableMismatch(f"a monomial over {len(mono)} variables on {n} coordinates")
            factors = [self.series[var] for var, e in enumerate(mono) for _ in range(e)]
            value = reduce(mul, factors) if factors else Series.from_terms(self.prec, {0: 1})
            values.append(value if c == 1 else value * c)
        return reduce(add, values) if values else Series.from_terms(self.prec, {})


# ---------------------------------------------------------------------------
# Small growth by brute force


class GeneratorSet:
    """Module generators of the small-growth sheaves, one batch per step.

    Step 1 is the focal pair (f_k, v_k); step j adds the brackets of the
    two focal generators against the batch of step j-1, keeping a bracket
    only if it is linearly independent over Q of every generator kept so
    far.  Dropping the others is exact: if g = sum c_i g_i with constant
    c_i, then [z, g] = sum c_i [z, g_i] and g(p) = sum c_i g_i(p), so
    neither a rank at a point nor a later step changes.  Generators are
    kept as the brackets come, unscaled: scaling changes neither
    independence nor rank, and RankTracker normalizes the rows it keeps.

    Packing.  A generator is a row of a Packing (symcalc), and the two
    focal-pair brackets are Packing.bracket prepared once, on x = f_k and
    on x = v_k.

    Width.  Each slot of f_k is a product of distinct n_i (focal_slots), so
    it holds every exponent at most 1.  A bracket against the focal pair
    raises an exponent by at most 1: v_k = d/dn_k only lowers one, f_k(Y_c)
    multiplies a term by slot v over x_v, and Y(f_k,c) by slot c over x_v.
    So every exponent at step j is at most j, and fields of
    max_steps.bit_length() + 1 bits hold the first max_steps steps below
    their guard bits.  Past max_steps, growth goes on until a bracket
    reaches a guard bit and raises ExponentOverflow (Packing's guard
    argument).
    """

    def __init__(self, chart: Chart, max_steps: int):
        self.packing = Packing(chart, max_steps.bit_length() + 1)
        fs, vs = self.packing.frames
        self._f = self.packing.bracket(fs[chart.k])
        self._v = self.packing.bracket(vs[chart.k])
        self._basis = RankTracker()
        self.steps: list[list[Row]] = []
        self._admit([fs[chart.k], vs[chart.k]])

    def bracket_f(self, gen: Row) -> Row:
        """[f_k, gen]."""
        return self._f(gen)

    def bracket_v(self, gen: Row) -> Row:
        """[v_k, gen] = d gen/dn_k."""
        return self._v(gen)

    def _admit(self, candidates: list[Row]) -> list[Row]:
        batch = [gen for gen in candidates if self._basis.add(gen)]
        self.steps.append(batch)
        return batch

    def grow(self) -> list[Row]:
        """Bracket the newest batch against the focal pair; returns the
        generators kept at this step."""
        # A zero bracket has an empty row, which RankTracker never keeps.
        candidates = []
        for y in self.steps[-1]:
            candidates.append(self.bracket_f(y))
            candidates.append(self.bracket_v(y))
        return self._admit(candidates)


def small_growth_bruteforce(p: ChartPoint, max_steps: int) -> tuple[int, ...]:
    """Small growth ranks from first principles.

    Grows the generator sets step by step and takes the exact rank of the
    generators evaluated at the point; stops once the rank reaches k+2 (or
    raises when the step budget runs out first).
    """
    if max_steps < 1:
        raise StepBudgetExceeded("max_steps must be at least 1")
    full_rank = p.chart.nvars
    gens = GeneratorSet(p.chart, max_steps)
    at = gens.packing.at_point(p.coords)
    tracker = RankTracker()
    sg: list[int] = []
    batch = gens.steps[0]
    while True:
        for gen in batch:
            tracker.add(at(gen))
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


class FocalOrders(NamedTuple):
    """Focal orders of every coordinate and differential at a chart point,
    and the vertical orders (VO_2 .. VO_k) they give."""

    point: ChartPoint
    o_coord: tuple[int, ...]
    o_diff: tuple[int, ...]
    vo: tuple[int, ...]

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


@lru_cache(maxsize=1)
def focal_orders(p: ChartPoint) -> FocalOrders:
    """Backwards recursion: active differentials at the top level have
    order 1; each level's defining relation propagates the order to the
    coordinate it deactivated, and a coordinate that vanishes at the point
    inherits the order of its differential (otherwise its order is 0).
    VO_j is the order of n_j, which cuts out the divisor at infinity, at an
    inverted level j, and 0 at an ordinary one (and off the divisor).

    verify_word reads one point's orders up to four times in a row (m_0
    off the Goursat words, the vertical orders, the pathway frame and the
    jets), so one entry, the last point's, serves all reads but the first."""
    chart, coords = p.chart, p.coords
    k, ip = chart.k, chart.ip
    # Every coordinate but n_k and r_k is d_j at exactly one level j.
    o_diff = [0] * chart.nvars
    o_diff[Chart.n_var(k)] = o_diff[chart.retained[k]] = 1
    for d, n, r in reversed(chart.relations):
        o_diff[d] = (o_diff[n] if coords[n] == 0 else 0) + o_diff[r]
    o_coord = tuple([o if x == 0 else 0 for o, x in zip(o_diff, coords)])
    vo = tuple([o_coord[Chart.n_var(j)] if j in ip else 0 for j in range(2, k + 1)])
    return FocalOrders(p, o_coord, tuple(o_diff), vo)


def vo_at_point(p: ChartPoint) -> tuple[int, ...]:
    """Vertical orders (VO_2 .. VO_k) at p."""
    return focal_orders(p).vo


def base_multiplicity_at_point(p: ChartPoint) -> int:
    """m_0 of the canonical curve through p: the least focal order of the
    two base-surface coordinates (r_0, n_0)."""
    return min(focal_orders(p).o_coord[:2])


# ---------------------------------------------------------------------------
# Generic jets

# The number of random focal jets each function is probed along.
JET_TRIALS = 3


def focal_jet(p: ChartPoint, rng: random.Random, prec: int) -> JetCurve:
    """A random focal curve germ through p, as truncated series over F_p.

    The two active coordinates at the top level get free series whose
    coefficients past the point's value are drawn uniformly from [1, p),
    p = PRIME; every lower coordinate is then recovered by integrating its
    defining relation, so the curve is tangent to the focal distribution
    by construction.  It is the reduction mod p of a jet over Q, so a
    function's order along it can only overestimate the order over Q.
    """
    chart = p.chart
    k = chart.k

    def free_series(value: int) -> Series:
        terms = {m: rng.randrange(1, PRIME) for m in range(1, prec)}
        return Series.from_terms(prec, {0: value, **terms})

    series = {v: free_series(p.coords[v]) for v in (Chart.n_var(k), chart.retained[k])}
    for d, n, r in reversed(chart.relations):
        # d(d_j) = n_j d(r_j), integrated from d_j's value at the point
        series[d] = (series[n] * series[r].deriv()).integrate(p.coords[d])

    # Each series is known to prec: integrate wins back the coefficient deriv loses.
    return JetCurve(chart, tuple(series[v] for v in range(chart.nvars)))


@lru_cache(maxsize=1)
def _generic_jets(p: ChartPoint, prec: int, seed: int) -> tuple[JetCurve, ...]:
    """The jets focal_order_generic_jet probes with; they do not depend on
    the function probed, so the coordinates of one point share them."""
    return tuple(
        focal_jet(p, random.Random(f"jet:{seed}:{t}"), prec) for t in range(JET_TRIALS)
    )


def focal_order_generic_jet(
    p: ChartPoint, terms: Sequence[tuple[int, Monomial]], prec: int, seed: int = 0
) -> int:
    """Focal order of a function, the sum of the (c, mono) terms
    c * x^mono, by probing with random focal jets.

    Returns the minimum vanishing order of the function along JET_TRIALS
    random focal curves through p, each a focal_jet over F_p
    (p = 2^61 - 1, free coefficients drawn uniformly from [1, p)) known
    modulo t^prec.  Over F_p, as over Q, a trial can only overestimate the
    order, so the minimum is kept; when prec exceeds the true focal order
    it equals it with overwhelming probability.  prec has no default: the
    budget follows from the word, which the caller holds (verify passes
    the nonholonomy degree + 5), while reading the word back from p works
    only at points of the canonical letter map.
    """
    orders = []
    for jet in _generic_jets(p, prec, seed):
        o = jet.eval_terms(terms).order()
        if o is not None:
            orders.append(o)
    if not orders:
        raise TruncationTooSmall(
            f"function vanished to precision {prec} on all {JET_TRIALS} jets"
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
    x = Series.from_terms(prec, {pc.lambda0: 1})
    y = Series.from_terms(prec, {e: 1 for e in pc.exponents})
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
            quot = Series((0,) + quot.coeffs[1:])
        x, y = keep.truncate(quot.prec), quot


# ---------------------------------------------------------------------------
# Pathway sections


class PathwayRow(NamedTuple):
    """One step of a calculation pathway: the tracked term
    coeff * x^mono * g_{g_index} of f_{h,i}, whose coefficient has the
    given focal order."""

    h: int
    mono: tuple[int, ...]  # exponents of the chart coordinates
    coeff: int
    g_index: int
    order: int

    def render(self, names: Sequence[str]) -> str:
        return render_term(self.coeff, self.mono, names, f"g{self.g_index}")


@lru_cache(maxsize=CHART_MEMO_SIZE)
def _candidate_steps(
    chart: Chart, slots_of: Callable[[Chart], tuple]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # The step (v, exponent change) of every coordinate below n_k and of
    # n_k itself, in candidate order, from the top field slots_of(chart)[k].
    # The steps depend on the chart alone, so each chart's are built once;
    # slots_of is part of the key, so a patched focal_slots is never served
    # another function's steps.
    k = chart.k
    nk_var = Chart.n_var(k)
    fk = slots_of(chart)[k]
    steps = []
    for var, slot in ((nk_var, (0,) * chart.nvars), *enumerate(fk[:nk_var])):
        change = list(slot)
        change[var] -= 1
        steps.append((var, tuple(change)))
    return tuple(steps)


def pathway_frame(p: ChartPoint) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The step of each coordinate of positive focal order at p, in
    candidate order (n_k first, then by index): what every pathway column
    at p shares.

    A coordinate's step is the bracket that takes it down: for n_k, with
    g_1 = v_k = d/dn_k, which lowers the exponent of n_k by one; for any
    other coordinate v, with g_0 = f_k, which lowers the exponent of v by
    one and multiplies by f_k's slot v.  The slots come from focal_slots,
    where each is a monomial with coefficient 1 by construction, so a step
    is an exponent change and multiplies the tracked coefficient by nothing
    but the exponent it lowers.  The order change is exact because focal
    order is linear in the exponents; each step is (v, exponent change).
    The steps depend on the chart alone and come from a bounded per-chart
    cache (_candidate_steps); only the filter on positive order and the
    order check read the point.

    The focal step lemma: each coordinate of positive focal order has a
    step that lowers the order by exactly one.  Such a coordinate vanishes
    at p, so its order is that of its differential.  For n_k, o_diff = 1.
    For v below n_k, o(slot v) = o_diff(v) - 1, by induction from the top
    level down: slot r_k of f_k is 1, and o_diff(r_k) = 1; the coordinate
    d_j deactivated at level j has slot n_j * slot r_j (f_k is tangent to
    dd_j = n_j dr_j) and o_diff(d_j) = o(n_j) + o_diff(r_j) (focal_orders),
    where r_j is r_k or deactivated above j.  Every coordinate below n_k
    is r_k or some d_j.  The lemma is checked here, once per point, so it
    tests focal_slots (the forward frame recursion) against focal_orders
    (the backward order recursion).  The step of a coordinate of order 0
    does not lower the order, and no pathway takes it.

    The lemma is all that can fail in a pathway column: by the induction
    in pathway_sections' docstring, every column i walks from its diagonal
    order S_i down to order 0 at row b_i, matching the e-table on every
    row.  So verify_word checks the frame, once per point, and walks no
    column.  The diagonal order needs no check: it is the column sum S_i
    of the point's vertical orders, term for term, and the bundle's "beta
    from b" route checks the column sums.
    """
    chart = p.chart
    o_coord = focal_orders(p).o_coord
    steps = tuple([step for step in _candidate_steps(chart, focal_slots) if o_coord[step[0]]])
    for var, change in steps:
        order_change = sum(map(mul, change, o_coord))
        if order_change != -1:
            raise OrderMismatch(
                f"the focal step on {var_names(chart.k)[var]} changes the order by "
                f"{order_change}, not -1, on chart {chart.choices}"
            )
    return steps


def pathway_sections(p: ChartPoint, i: int) -> tuple[PathwayRow, ...]:
    """Track one coefficient through the pathway producing f_{h,i}.

    Phase one brackets with g_0 up the diagonal, where the tracked term of
    f_{hh} is the monomial prod n_j^{h+j-k-3} over j in IP, j >= k-h+4,
    times g_h, for h = 3..i.  Its focal order, read from focal_orders, is
    e_{h,h} = S_h: with VO_j = o(n_j) at an inverted level j and 0 at an
    ordinary one, it is invariants._column_sums' sum term for term.  Phase
    two extends with h = i+1..b_i, where b_i = i + S_i: each row takes the
    first step of the frame (n_k first, then by index) whose variable
    occurs in the tracked monomial, and its order is e_{i+d,i} = S_i - d.

    The tracked coefficient is always a monomial: the diagonal terms are,
    and a step multiplies by a monomial slot of f_k, so the walk runs on
    exponent tuples with int coefficients, and a row renders as one term
    (symcalc.render_term).  No row needs a search, by induction down the
    column: while the order is positive, the monomial holds a coordinate
    of positive order, and by the focal step lemma (checked in
    pathway_frame) its step lowers the order by exactly one.  So the walk
    reaches order 0 at row b_i, as the e-table does, after S_i steps.
    """
    chart = p.chart
    k = chart.k
    if not 3 <= i <= k + 1:
        raise IndexRange("pathway column", i, 3, k + 1)
    steps = pathway_frame(p)
    o_coord = focal_orders(p).o_coord
    rows = []
    for h in range(3, i + 1):
        exps = [0] * chart.nvars
        for j in range(k - h + 4, k + 1):
            if j in chart.ip:
                exps[Chart.n_var(j)] = h + j - k - 3
        rows.append(PathwayRow(h, tuple(exps), 1, h, sum(map(mul, exps, o_coord))))
    exps, coeff, top = rows[-1].mono, 1, rows[-1].order
    for d in range(1, top + 1):
        # The order is top - d + 1 > 0, so by the lemma the loop breaks.
        for var, change in steps:
            e = exps[var]
            if e:
                break
        coeff *= e
        exps = tuple(map(add, exps, change))
        rows.append(PathwayRow(i + d, exps, coeff, i, top - d))
    return tuple(rows)
