"""Numeric invariants of Goursat germs, by independent combinatorial routes.

The six mutually convertible invariants of a Goursat word are the beta
vector, its first and second derived vectors, the b vector, the
multiplicity vector, and the (reversed, restricted) vertical-orders
vector.  This module computes them by Jean-style back-end recursions on
the word, by the front-end lifting recursion through proximity diagrams,
and through the e-table, and converts freely between the encodings.  All
arithmetic is exact integer arithmetic; nothing here touches floats.

Puiseux characteristics are handled through the classical correspondence
with multiplicity sequences (iterated Euclidean expansion), so that the
degree of nonholonomy can be read off as the last characteristic exponent.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat

from . import proximity
from .codeword import (
    CRITICAL,
    GoursatWord,
    RvtWord,
    _as_word,
    as_goursat,
    goursat_normalize,
    is_goursat,
)
from .errors import (
    InvalidPC,
    MissingM0,
    NonMonotone,
    NotRealizable,
    RouteMismatch,
)

# ---------------------------------------------------------------------------
# Back-end recursions


def _backend(
    w: GoursatWord | str,
    offset: int,
    seeds: Callable[[str], tuple[int, int]],
    r_add: int,
) -> tuple[int, ...]:
    """Jean's back-end recursion, shared by beta and both derived vectors.

    The vector of a prefix of length m has m + offset entries.  Its first
    two entries are seeds(last symbol of the prefix); each later entry
    depends on the last symbol: R adds r_add to the previous prefix's
    entry, V adds the two shorter prefixes' entries, T doubles one and
    subtracts the other.
    """
    w = as_goursat(w)
    older: tuple[int, ...] = ()  # the vector of the prefix two shorter
    prev: tuple[int, ...] = ()  # the vector of the prefix one shorter
    for m in range(1, w.k + 1):
        last = w.letter(m)
        vec = list(seeds(last)[: m + offset])
        for idx in range(2, m + offset):
            if last == "R":
                vec.append(r_add + prev[idx - 1])
            elif last == "V":
                vec.append(prev[idx - 1] + older[idx - 2])
            else:
                vec.append(2 * prev[idx - 1] - older[idx - 2])
        older, prev = prev, tuple(vec)
    return prev


def beta_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """Jean's beta vector (beta_2 .. beta_{k+2}); always begins (1, 2)."""
    return _backend(w, 1, lambda last: (1, 2), 1)


def der_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """The derived vector (der_3 .. der_{k+2}); always begins (1, 1)."""
    return _backend(w, 0, lambda last: (1, 1), 0)


def der2_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """The second derived vector (der2_4 .. der2_{k+2}); begins (0, 1) when
    the word ends with V and (0, 0) otherwise."""
    return _backend(w, -1, lambda last: (0, int(last == "V")), 0)


# ---------------------------------------------------------------------------
# Conversions between encodings


def vo_from_mult(mv: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Vertical orders (VO_2 .. VO_k) from a multiplicity vector.

    The input is (m_{k-1}, ..., m_1); successive differences give
    VO_{i+2} = m_i - m_{i+1}, and VO_2 = 0 since the word is Goursat.
    """
    mv = tuple(mv)
    if len(mv) != max(k - 1, 0):
        raise ValueError(f"expected {k - 1} multiplicities for k={k}, got {len(mv)}")
    if k <= 1:
        return ()
    if mv[0] != 1:
        raise ValueError(f"m_(k-1) must be 1, got {mv[0]}")
    m = list(reversed(mv))  # m[i-1] = m_i for i = 1..k-1
    out = [0]  # VO_2 vanishes off I_2
    for i in range(1, k - 1):
        diff = m[i - 1] - m[i]  # VO_{i+2}
        if diff < 0:
            raise NonMonotone(f"m_{i} = {m[i - 1]} < m_{i + 1} = {m[i]}")
        out.append(diff)
    return tuple(out)


def mult_from_vo(vo: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Multiplicity vector (m_{k-1}, ..., m_1) by accumulation:
    m_i = 1 + VO_{i+2} + ... + VO_k."""
    vo = _check_vo(vo, k)
    out = []
    total = 1  # m_{k-1}
    for i in range(k - 1, 0, -1):
        out.append(total)
        if i >= 2:
            total += vo[(i + 1) - 2]  # step from m_i to m_{i-1} adds VO_{i+1}
    return tuple(out)


def _check_vo(vo: tuple[int, ...], k: int) -> tuple[int, ...]:
    vo = tuple(vo)
    if len(vo) != max(k - 1, 0):
        raise ValueError(f"expected {k - 1} vertical orders for k={k}, got {len(vo)}")
    if any(v < 0 for v in vo):
        raise ValueError("vertical orders must be nonnegative")
    return vo


def _column_sums(vo: tuple[int, ...], k: int) -> dict[int, int]:
    """S_i = sum_{j=k-i+4}^{k} (i + j - k - 3) VO_j for i = 2..k+1.

    Only VO_3..VO_k can contribute, so the sums do not depend on VO_2.
    """
    sums = {}
    for i in range(2, k + 2):
        total = 0
        for j in range(max(k - i + 4, 2), k + 1):
            total += (i + j - k - 3) * vo[j - 2]
        sums[i] = total
    return sums


class LazySequence(Sequence):
    """A read-only sequence whose items are computed on demand by item(index).

    It compares equal to a tuple (or another lazy sequence) with the same
    items, so it stands in for the tuple it replaces without building it.
    """

    __slots__ = ("_len", "_item")

    def __init__(self, length: int, item: Callable[[int], object]):
        self._len = length
        self._item = item

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(self._len))))
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"index {index} out of range for length {self._len}")
        return self._item(index)

    def __iter__(self) -> Iterator:
        return map(self._item, range(self._len))

    def __eq__(self, other):
        if not isinstance(other, (tuple, LazySequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class StepSequence(LazySequence):
    """base + #{p in points : p <= first + index} for index = 0..length-1.

    A step function held by its sorted breakpoints: it is built, sliced
    and compared with another step sequence in O(len(points)), and
    iterated in O(length + len(points)).
    """

    __slots__ = ("_first", "_base", "_points")

    def __init__(self, first: int, length: int, base: int, points: tuple[int, ...]):
        self._first = first
        self._base = base
        self._points = points
        super().__init__(length, self._value)

    def _value(self, index: int) -> int:
        return self._base + bisect_right(self._points, self._first + index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step == 1:
                length = max(0, stop - start)
                return StepSequence(self._first + start, length, self._base, self._points)
        return super().__getitem__(index)

    def __iter__(self) -> Iterator[int]:
        start = self._first
        stop = start + self._len
        value = self._base + bisect_right(self._points, start)
        for p in self._points:
            if start < p < stop:
                yield from repeat(value, p - start)
                value, start = value + 1, p
        yield from repeat(value, stop - start)

    def _jumps(self) -> tuple:
        first, stop = self._first, self._first + self._len
        head = self[0] if self._len else None
        return self._len, head, tuple(p - first for p in self._points if first < p < stop)

    def __eq__(self, other):
        if isinstance(other, StepSequence):
            return self._jumps() == other._jumps()
        return super().__eq__(other)

    __hash__ = LazySequence.__hash__


@dataclass(frozen=True)
class ETable:
    """The table of coefficient-order bounds e_{hi}, rows h = 2..H.

    Row h holds e_{h,i} = max(0, i - h + S_i) for i = 2..min(h, k+1); its
    number of zero entries plus two is the small-growth rank SG_h.  H is
    b_{k+1}, past which every row is all zeros.

    Only k, the vertical orders, b and the column sums S are stored: O(k)
    numbers, while the table has H - 1 rows and H grows like Fibonacci in
    k.  Entries and rows are computed on demand, and ``rows`` and ``sg``
    are read-only sequences that compare equal to the tuples they stand
    for.  Column i first vanishes at row b_i, so SG_h = 2 + #{i : b_i <= h}.
    """

    k: int
    vo: tuple[int, ...]
    b: tuple[int, ...]  # (b_2, ..., b_{k+1})
    sums: tuple[int, ...]  # (S_2, ..., S_{k+1})

    @property
    def height(self) -> int:
        return self.b[-1]

    def entry(self, h: int, i: int) -> int:
        if not (2 <= i <= min(h, self.k + 1) and h <= self.height):
            raise IndexError(f"e_({h},{i}) lies outside the e-table")
        return max(0, i - h + self.sums[i - 2])

    def row(self, h: int) -> tuple[int, ...]:
        """(e_{h,2}, ..., e_{h,min(h,k+1)})."""
        if not 2 <= h <= self.height:
            raise IndexError(f"row {h} lies outside the e-table (h = 2..{self.height})")
        # i - h + S_i = b_i - h, since b_i = i + S_i.
        return tuple([x - h if x > h else 0 for x in self.b[: min(h, self.k + 1) - 1]])

    @property
    def rows(self) -> LazySequence:
        """Rows h = 2..H, each computed when it is read."""
        return LazySequence(self.height - 1, lambda index: self.row(index + 2))

    @property
    def sg(self) -> StepSequence:
        """SG_h for h = 2..H."""
        return StepSequence(2, self.height - 1, 2, self.b)


def e_table(vo: tuple[int, ...], k: int) -> ETable:
    """The e-table of the vertical orders (VO_2 .. VO_k), in O(k^2)."""
    vo = _check_vo(vo, k)
    sums = tuple(_column_sums(vo, k).values())
    b = tuple(i + s for i, s in enumerate(sums, start=2))
    table = ETable(k=k, vo=vo, b=b, sums=sums)
    scanned = _b_by_scan(table)
    if scanned != b:
        raise RouteMismatch(f"b: first-zero scan {scanned} vs closed form {b}")
    return table


def _b_by_scan(table: ETable) -> tuple[int, ...]:
    # Entries never grow down a column, so its first zero is found by
    # bisection over the rows: O(log H) entries per column.
    out = []
    for i in range(2, table.k + 2):
        rows = range(i, table.height + 1)
        first = bisect_left(rows, True, key=lambda h: table.entry(h, i) == 0)
        if first == len(rows):
            raise RouteMismatch(f"e-table column {i} never reaches zero")
        out.append(rows[first])
    return tuple(out)


def b_vector(vo: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The b vector (b_2, ..., b_{k+1}): first row where each column vanishes."""
    return e_table(vo, k).b


def beta_from_b(b: tuple[int, ...]) -> tuple[int, ...]:
    """Beta is the b vector with an initial 1 prepended."""
    return (1,) + tuple(b)


def sg_from_beta(beta: tuple[int, ...]) -> StepSequence:
    """The small growth vector SG_1 .. SG_{beta_last} from the beta vector.

    SG_j = 1 + #{beta entries <= j}: a step sequence built in O(k), whose
    items cost O(beta_last + k) to iterate.
    """
    beta = tuple(beta)
    if not beta or beta[0] != 1 or any(a >= b for a, b in zip(beta, beta[1:])):
        raise ValueError(f"beta must be strictly increasing starting at 1: {beta}")
    return StepSequence(1, beta[-1], 1, beta)


# ---------------------------------------------------------------------------
# Puiseux characteristics


@dataclass(frozen=True)
class PuiseuxCharacteristic:
    """A Puiseux characteristic [lambda_0; lambda_1, ..., lambda_g].

    lambda_0 is the multiplicity of the plane-curve germ; each further
    exponent strictly drops the running gcd, which ends at 1.  g = 0
    encodes a smooth germ [1;].
    """

    lambda0: int
    exponents: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lambda0 < 1:
            raise InvalidPC(f"lambda_0 must be positive, got {self.lambda0}")
        prev = self.lambda0
        e = self.lambda0
        for lam in self.exponents:
            if lam <= prev:
                raise InvalidPC(f"exponents must increase strictly: {lam} after {prev}")
            nxt = math.gcd(e, lam)
            if nxt == e:
                raise InvalidPC(f"exponent {lam} does not drop the gcd {e}")
            prev, e = lam, nxt
        if e != 1:
            raise InvalidPC(f"gcd of all entries is {e}, expected 1")

    @property
    def g(self) -> int:
        return len(self.exponents)

    def __str__(self) -> str:
        return f"[{self.lambda0};{','.join(str(x) for x in self.exponents)}]"


def _euclid_multiset(a: int, b: int) -> list[int]:
    # Repeated division of the larger by the smaller; the smaller value is
    # recorded quotient-many times.  Ends when the division is exact.
    if a < b:
        a, b = b, a
    out = []
    while b:
        q, r = divmod(a, b)
        out.extend([b] * q)
        a, b = b, r
    return out


def multseq_from_pc(pc: PuiseuxCharacteristic) -> tuple[int, ...]:
    """Multiplicity sequence of a germ with the given Puiseux characteristic.

    The pair (lambda_1, lambda_0) is expanded by the Euclidean algorithm,
    then each later pair (lambda_i - lambda_{i-1}, e_{i-1}) with
    e_i = gcd(e_{i-1}, lambda_i); the sequence is cut at its first 1.
    """
    if not isinstance(pc, PuiseuxCharacteristic):
        raise InvalidPC(f"not a Puiseux characteristic: {pc!r}")
    if pc.g == 0:
        return (1,)
    out = _euclid_multiset(pc.exponents[0], pc.lambda0)
    e = math.gcd(pc.lambda0, pc.exponents[0])
    for prev, lam in zip(pc.exponents, pc.exponents[1:]):
        out.extend(_euclid_multiset(lam - prev, e))
        e = math.gcd(e, lam)
    return tuple(out[: out.index(1) + 1])


def _normalize_multseq(ms: tuple[int, ...]) -> tuple[int, ...]:
    ms = tuple(ms)
    if not ms:
        raise NotRealizable("empty multiplicity sequence")
    if any(m < 1 for m in ms):
        raise NotRealizable(f"multiplicities must be positive: {ms}")
    if any(a < b for a, b in zip(ms, ms[1:])):
        raise NonMonotone(f"multiplicity sequence must be non-increasing: {ms}")
    if ms[-1] != 1:
        raise NotRealizable(f"multiplicity sequence must end in 1: {ms}")
    return ms[: ms.index(1) + 1]


def pc_from_multseq(ms: tuple[int, ...]) -> PuiseuxCharacteristic:
    """Invert :func:`multseq_from_pc`.

    Parses the sequence as a concatenation of Euclidean expansions, one
    block per exponent.  A block expands (d, e) with d = q*e + r and
    0 < r < e, so it opens with q copies of e followed by r: the block's
    leading run gives q and the entry after it gives r.  The result is
    verified by the forward map.
    """
    target = _normalize_multseq(ms)
    if target == (1,):
        return PuiseuxCharacteristic(1, ())
    lam0 = target[0]

    def value_at(pos: int) -> int:
        return target[pos] if pos < len(target) else 1

    exponents: list[int] = []
    e, pos = lam0, 0
    while e > 1:
        run = 0
        while value_at(pos + run) == e:
            run += 1
        r = value_at(pos + run)
        if not 0 < r < e:
            raise NotRealizable(f"no Puiseux characteristic yields {target}")
        # the first block expands (lambda_1, lambda_0) itself, later blocks
        # the gap (lambda_i - lambda_{i-1}, e)
        d = run * e + r
        expansion = _euclid_multiset(d, e)
        if any(value_at(pos + t) != v for t, v in enumerate(expansion)):
            raise NotRealizable(f"no Puiseux characteristic yields {target}")
        exponents.append((exponents[-1] if exponents else 0) + d)
        pos += len(expansion)
        e = math.gcd(e, exponents[-1])
    if pos < len(target):
        raise NotRealizable(f"no Puiseux characteristic yields {target}")
    pc = PuiseuxCharacteristic(lam0, tuple(exponents))
    if multseq_from_pc(pc) != target:
        raise NotRealizable(f"no Puiseux characteristic yields {target}")
    return pc


def _resolve_m0(w: RvtWord, diagram: proximity.ProximityDiagram, m0: int | None) -> int:
    """The base multiplicity m_0 of the word whose normalized diagram is given.

    For Goursat words m_0 = m_1; otherwise m_0 depends on the point and
    must be supplied (the CLI wires it from the focal-order oracle), and
    it exceeds m_1: the point lies on the divisor, where VO_2 = m_0 - m_1
    is at least 1.
    """
    m1 = proximity.base_multiplicity(diagram)
    if is_goursat(w):
        if m0 is not None and m0 != m1:
            raise ValueError(f"Goursat word has m_0 = m_1 = {m1}, got m0={m0}")
        return m1
    if m0 is None:
        raise MissingM0()
    if m0 <= m1:
        raise ValueError(
            f"m_0 = {m0} must exceed m_1 = {m1} for a word that is not a Goursat word"
        )
    return m0


def _puiseux(m0: int, mv: tuple[int, ...]) -> PuiseuxCharacteristic:
    # The multiplicity sequence is (m_0, m_1, ..., m_{k-1}, 1).
    return pc_from_multseq((m0,) + tuple(reversed(mv)) + (1,))


def puiseux_of_word(
    w: RvtWord | str, m0: int | None = None
) -> PuiseuxCharacteristic:
    """Puiseux characteristic of the curve germ realizing the word.

    m_0 is resolved as in :func:`bundle`: it equals m_1 for Goursat words
    and must be supplied otherwise.
    """
    w = _as_word(w)
    diagram = proximity.build_diagram(goursat_normalize(w))
    return _puiseux(_resolve_m0(w, diagram, m0), proximity.multiplicity_vector(diagram))


# ---------------------------------------------------------------------------
# Assembly


def nonholonomy_degree(w: RvtWord | str) -> int:
    """Number of bracketing steps to reach the full tangent bundle."""
    return beta_backend(goursat_normalize(w))[-1]


@dataclass(frozen=True)
class InvariantBundle:
    """Every invariant of one word, cross-checked across its routes."""

    word: RvtWord
    goursat_word: GoursatWord
    k: int
    beta: tuple[int, ...]
    der: tuple[int, ...]
    der2: tuple[int, ...]
    sg: StepSequence  # SG_1 .. SG_{beta_last}, computed on demand
    mult_vector: tuple[int, ...]
    m0: int
    vo: tuple[int, ...]
    b: tuple[int, ...]
    e_table: ETable
    puiseux: PuiseuxCharacteristic
    nonholonomy_degree: int


def _require(cond: bool, name: str, *routes) -> None:
    if not cond:
        detail = " vs ".join(repr(r) for r in routes)
        raise RouteMismatch(f"{name}: {detail}")


def bundle(w: RvtWord | str, m0: int | None = None) -> InvariantBundle:
    """Assemble all invariants of a word, computing beta three independent
    ways and asserting exact agreement (RouteMismatch signals a bug)."""
    w = _as_word(w)
    gw = goursat_normalize(w)
    k = gw.k

    beta_be = beta_backend(gw)
    der_be = der_backend(gw)
    der2_be = der2_backend(gw)

    # One proximity diagram serves the front-end der, which unrolls to
    # (1, m_{k-1}, ..., m_1) as in proximity.derived_frontend, the
    # vertical orders and the Puiseux characteristic.
    diagram = proximity.build_diagram(gw)
    mv = proximity.multiplicity_vector(diagram)
    der_fe = (1,) + mv
    _require(der_fe == der_be, "der", der_fe, der_be)

    beta_fe = tuple(accumulate(der_fe, initial=1))
    _require(beta_fe == beta_be, "beta front-end", beta_fe, beta_be)

    vo = vo_from_mult(mv, k)
    der2_vo = ((0,) + tuple(reversed(vo[1:]))) if k >= 2 else ()
    _require(der2_vo == der2_be, "der2", der2_vo, der2_be)

    m0 = _resolve_m0(w, diagram, m0)
    vo_full = ((m0 - proximity.base_multiplicity(diagram),) + vo[1:]) if k >= 2 else ()

    table = e_table(vo_full, k)
    beta_b = beta_from_b(table.b)
    _require(beta_b == beta_be, "beta from b", beta_b, beta_be)

    sg = sg_from_beta(beta_be)
    _require(table.sg == sg[1:], "sg", table.sg, sg[1:])

    pc = _puiseux(m0, mv)
    if any(s in CRITICAL for s in w.symbols):
        trailing_r = len(w.symbols) - len(w.symbols.rstrip("R"))
        lam_last = pc.exponents[-1]
        _require(
            lam_last + trailing_r == beta_be[-1],
            "puiseux vs nonholonomy",
            (lam_last, trailing_r),
            beta_be[-1],
        )

    return InvariantBundle(
        word=w,
        goursat_word=gw,
        k=k,
        beta=beta_be,
        der=der_be,
        der2=der2_be,
        sg=sg,
        mult_vector=mv,
        m0=m0,
        vo=vo_full,
        b=table.b,
        e_table=table,
        puiseux=pc,
        nonholonomy_degree=beta_be[-1],
    )
