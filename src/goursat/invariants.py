"""Numeric invariants of Goursat germs, by independent combinatorial routes.

The six mutually convertible invariants of a Goursat word are the beta
vector, its first and second derived vectors, the b vector, the
multiplicity vector, and the (reversed, restricted) vertical-orders
vector.  This module computes them by Jean's back-end recursion on the
word (beta, whose differences are the derived vectors), by the
front-end lifting recursion through proximity diagrams, and through the
e-table, and converts freely between the encodings.  All arithmetic is
exact integer arithmetic; nothing here touches floats.

Puiseux characteristics are handled through the classical correspondence
with multiplicity sequences (iterated Euclidean expansion), so that the
degree of nonholonomy can be read off as the last characteristic exponent.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import repeat

from . import proximity
from .codeword import (
    CRITICAL,
    Frozen,
    GoursatWord,
    RvtWord,
    _as_word,
    as_goursat,
    goursat_normalize,
    is_goursat,
)
from .errors import (
    InvalidM0,
    InvalidPC,
    MissingM0,
    NonMonotone,
    NotRealizable,
    RouteMismatch,
)

# ---------------------------------------------------------------------------
# Back-end recursion


def beta_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """Jean's back-end recursion for beta (beta_2 .. beta_{k+2}); always
    begins (1, 2).

    The vector of a prefix of length m has m + 1 entries.  Its first two
    entries are 1 and 2; each later entry depends on the last symbol: R
    adds 1 to the previous prefix's entry, V adds the two shorter
    prefixes' entries, T doubles one and subtracts the other.
    """
    older: tuple[int, ...] = ()  # the vector of the prefix two shorter
    prev: tuple[int, ...] = ()  # the vector of the prefix one shorter
    for last in as_goursat(w).symbols:
        # Entry idx >= 2 reads entry idx - 1 of prev and idx - 2 of older
        # (a Goursat word has R at position 2, so V and T find older full).
        if last == "R":
            tail = [1 + p for p in prev[1:]]
        elif last == "V":
            tail = [p + o for p, o in zip(prev[1:], older)]
        else:
            tail = [2 * p - o for p, o in zip(prev[1:], older)]
        older, prev = prev, (1, 2, *tail)
    return prev


def _differences(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, v[1:], v))


def der_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """The derived vector (der_3 .. der_{k+2}): beta's first differences,
    which the recursion, being linear, gives with seeds (1, 1) and R
    adding 0.  Always begins (1, 1)."""
    return _differences(beta_backend(w))


def der2_backend(w: GoursatWord | str) -> tuple[int, ...]:
    """The second derived vector (der2_4 .. der2_{k+2}), the second
    differences of beta; begins (0, 1) when the word ends with V and
    (0, 0) otherwise."""
    return _differences(der_backend(w))


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


def _check_vo(vo: tuple[int, ...], k: int) -> tuple[int, ...]:
    vo = tuple(vo)
    if len(vo) != max(k - 1, 0):
        raise ValueError(f"expected {k - 1} vertical orders for k={k}, got {len(vo)}")
    if vo and min(vo) < 0:
        raise ValueError("vertical orders must be nonnegative")
    return vo


def _column_sums(vo: tuple[int, ...], k: int) -> dict[int, int]:
    """S_i = sum_{j=k-i+4}^{k} (i + j - k - 3) VO_j for i = 2..k+1.

    Only VO_3..VO_k can contribute, so the sums do not depend on VO_2.
    """
    sums = {}
    tail = total = 0
    for i in range(2, k + 2):
        # Raising i by one lowers the first j by one and raises every
        # weight by one, so S_i = S_{i-1} + VO_{k-i+4} + ... + VO_k.
        j = k - i + 4
        if j <= k:
            tail += vo[j - 2]
        total += tail
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

    A step function held by its sorted breakpoints: it is built in
    O(len(points)), read at an index by bisection, iterated in
    O(length + len(points)) and read run by run in O(len(points)).
    """

    __slots__ = ("_first", "_base", "_points")

    def __init__(self, first: int, length: int, base: int, points: tuple[int, ...]):
        self._first = first
        self._base = base
        self._points = points
        super().__init__(length, self._value)

    def _value(self, index: int) -> int:
        return self._base + bisect_right(self._points, self._first + index)

    def runs(self) -> Iterator[tuple[int, int]]:
        """(value, count) for each run of equal items, in order."""
        start = self._first
        stop = start + self._len
        value = self._base + bisect_right(self._points, start)
        for p in self._points:
            if start < p < stop:
                yield value, p - start
                value, start = value + 1, p
        if start < stop:
            yield value, stop - start

    def __iter__(self) -> Iterator[int]:
        for value, count in self.runs():
            yield from repeat(value, count)


class ETable(namedtuple("ETable", "k vo b")):
    """The table of coefficient-order bounds e_{hi}, rows h = 2..H.

    Row h holds e_{h,i} = max(0, b_i - h) for i = 2..min(h, k+1), where
    b_i = i + S_i and S_i is the column sum of the vertical orders; its
    number of zero entries plus two is the small-growth rank SG_h.  H is
    b_{k+1}, past which every row is all zeros.

    Only k, the vertical orders and b are stored: O(k) numbers, while the
    table has H - 1 rows and H grows like Fibonacci in k.  Entries and
    rows are computed on demand, and ``rows`` and ``sg`` are read-only
    sequences that compare equal to the tuples they stand for.  Column i
    first vanishes at row b_i, so SG_h = 2 + #{i : b_i <= h}.  The fields
    are k, the vertical orders vo and b = (b_2, ..., b_{k+1}).
    """

    __slots__ = ()

    @property
    def height(self) -> int:
        return self.b[-1]

    def entry(self, h: int, i: int) -> int:
        if not (2 <= i <= min(h, self.k + 1) and h <= self.height):
            raise IndexError(f"e_({h},{i}) lies outside the e-table")
        return max(0, self.b[i - 2] - h)

    def row(self, h: int) -> tuple[int, ...]:
        """(e_{h,2}, ..., e_{h,min(h,k+1)})."""
        if not 2 <= h <= self.height:
            raise IndexError(f"row {h} lies outside the e-table (h = 2..{self.height})")
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
    return ETable(k=k, vo=vo, b=tuple(i + s for i, s in _column_sums(vo, k).items()))


def beta_from_b(b: tuple[int, ...]) -> tuple[int, ...]:
    """Beta is the b vector with an initial 1 prepended."""
    return (1,) + tuple(b)


def sg_from_beta(beta: tuple[int, ...]) -> StepSequence:
    """The small growth vector SG_1 .. SG_{beta_last} from the beta vector.

    SG_j = 1 + #{beta entries <= j}: a step sequence built in O(k), whose
    items cost O(beta_last + k) to iterate.
    """
    beta = tuple(beta)
    if not beta or beta[0] != 1 or any(map(operator.ge, beta, beta[1:])):
        raise ValueError(f"beta must be strictly increasing starting at 1: {beta}")
    return StepSequence(1, beta[-1], 1, beta)


# ---------------------------------------------------------------------------
# Puiseux characteristics


class PuiseuxCharacteristic(Frozen):
    """A Puiseux characteristic [lambda_0; lambda_1, ..., lambda_g].

    lambda_0 is the multiplicity of the plane-curve germ; each further
    exponent strictly drops the running gcd, which ends at 1.  g = 0
    encodes a smooth germ [1;].
    """

    __slots__ = _fields = ("lambda0", "exponents")

    def __init__(self, lambda0: int, exponents: tuple[int, ...] = ()):
        if lambda0 < 1:
            raise InvalidPC(f"lambda_0 must be positive, got {lambda0}")
        prev = lambda0
        e = lambda0
        for lam in exponents:
            if lam <= prev:
                raise InvalidPC(f"exponents must increase strictly: {lam} after {prev}")
            nxt = math.gcd(e, lam)
            if nxt == e:
                raise InvalidPC(f"exponent {lam} does not drop the gcd {e}")
            prev, e = lam, nxt
        if e != 1:
            raise InvalidPC(f"gcd of all entries is {e}, expected 1")
        object.__setattr__(self, "lambda0", lambda0)
        object.__setattr__(self, "exponents", exponents)

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
    if min(ms) < 1:
        raise NotRealizable(f"multiplicities must be positive: {ms}")
    if any(map(operator.lt, ms, ms[1:])):
        raise NonMonotone(f"multiplicity sequence must be non-increasing: {ms}")
    if ms[-1] != 1:
        raise NotRealizable(f"multiplicity sequence must end in 1: {ms}")
    return ms[: ms.index(1) + 1]


def pc_from_multseq(ms: tuple[int, ...]) -> PuiseuxCharacteristic:
    """Invert :func:`multseq_from_pc`.

    Parses the sequence as a concatenation of Euclidean expansions, one
    block per exponent.  A block expands (d, e) with d = q*e + r and
    0 < r < e, so it opens with q copies of e followed by r: the block's
    leading run gives q and the entry after it gives r.  Only these two
    are read, and every entry past the end reads 1; the parse skips the
    rest of the block by its length, the sum of the Euclidean quotients of
    (d, e).  The forward map then checks the whole sequence.
    """
    target = _normalize_multseq(ms)
    if target == (1,):
        return PuiseuxCharacteristic(1, ())
    end = len(target)
    padded = target + (1,)  # padded[end] is the 1 read past the end

    exponents: list[int] = []
    e, pos, lam = target[0], 0, 0
    while e > 1:
        start = stop = min(pos, end)
        while padded[stop] == e:
            stop += 1
        run, r = stop - start, padded[stop]
        if not 0 < r < e:
            raise NotRealizable(f"no Puiseux characteristic yields {target}")
        # the first block expands (lambda_1, lambda_0) itself, later blocks
        # the gap (lambda_i - lambda_{i-1}, e)
        d = run * e + r
        lam += d
        exponents.append(lam)
        a, b = d, e
        while b:
            pos += a // b
            a, b = b, a % b
        e = math.gcd(e, lam)
    pc = PuiseuxCharacteristic(target[0], tuple(exponents))
    if multseq_from_pc(pc) != target:
        raise NotRealizable(f"no Puiseux characteristic yields {target}")
    return pc


def _resolve_m0(w: RvtWord, m1: int, m0: int | None) -> int:
    """The base multiplicity m_0 of a word whose multiplicity m_1 is given.

    For Goursat words m_0 = m_1; otherwise m_0 depends on the point and
    must be supplied (the CLI wires it from the focal-order oracle), and
    it exceeds m_1: the point lies on the divisor, where VO_2 = m_0 - m_1
    is at least 1.
    """
    if m0 is not None and (isinstance(m0, bool) or not isinstance(m0, int)):
        raise InvalidM0(f"m_0 must be an int, got {m0!r}")
    if is_goursat(w):
        if m0 is not None and m0 != m1:
            raise InvalidM0(f"Goursat word has m_0 = m_1 = {m1}, got m0={m0}")
        return m1
    if m0 is None:
        raise MissingM0()
    if m0 <= m1:
        raise InvalidM0(
            f"m_0 = {m0} must exceed m_1 = {m1} for a word that is not a Goursat word"
        )
    return m0


def puiseux_of_word(
    w: RvtWord | str, m0: int | None = None
) -> PuiseuxCharacteristic:
    """Puiseux characteristic of the curve germ realizing the word.

    The characteristic of :func:`bundle`, so an m_0 is accepted exactly
    when the bundle accepts it: it equals m_1 for Goursat words and must
    be supplied otherwise.
    """
    return bundle(w, m0).puiseux


# ---------------------------------------------------------------------------
# Assembly


def nonholonomy_degree(w: RvtWord | str) -> int:
    """Number of bracketing steps to reach the full tangent bundle."""
    return beta_backend(goursat_normalize(w))[-1]


class InvariantBundle(
    namedtuple(
        "InvariantBundle",
        "word goursat_word k beta der der2 sg mult_vector m0 vo b e_table puiseux"
        " nonholonomy_degree",
    )
):
    """Every invariant of one word, cross-checked across its routes.

    word is the RvtWord and goursat_word its normalization; sg is the
    StepSequence SG_1 .. SG_{beta_last}, computed on demand; e_table is an
    ETable and puiseux a PuiseuxCharacteristic; the other fields are ints
    and tuples of ints.
    """

    __slots__ = ()


def _require(cond: bool, name: str, *routes) -> None:
    if not cond:
        detail = " vs ".join(repr(r) for r in routes)
        raise RouteMismatch(f"{name}: {detail}")


def bundle(w: RvtWord | str, m0: int | None = None) -> InvariantBundle:
    """Assemble all invariants of a word from one back-end pass, checking
    it against the front end and the e-table (RouteMismatch signals a bug).

    der and der2 are the differences of the back end's beta.  Since beta
    starts at 1, beta is the running sum of der from 1, so the der check
    also checks beta against the front end, and der2 needs no check of its
    own.  m_0, VO_2 and the Puiseux characteristic all read the one
    multiplicity sequence (m_0, m_1, ..., m_{k-1}, 1), whose m_1 is the
    entry of the front-end der that the der check covers."""
    w = _as_word(w)
    gw = goursat_normalize(w)
    k = gw.k

    beta_be = beta_backend(gw)
    der_be = _differences(beta_be)

    # The front-end der unrolls to (1, m_{k-1}, ..., m_1), as in
    # proximity.derived_frontend; m_k = 1 is m_1 when k = 1.
    mv = proximity.multiplicity_vector(proximity.build_diagram(gw))
    der_fe = (1,) + mv
    _require(der_fe == der_be, "der", der_fe, der_be)

    vo = vo_from_mult(mv, k)
    m1 = mv[-1] if mv else 1
    m0 = _resolve_m0(w, m1, m0)
    vo_full = ((m0 - m1,) + vo[1:]) if k >= 2 else ()

    table = e_table(vo_full, k)
    beta_b = beta_from_b(table.b)
    _require(beta_b == beta_be, "beta from b", beta_b, beta_be)

    sg = sg_from_beta(beta_be)

    # The multiplicity sequence is (m_0, m_1, ..., m_{k-1}, 1), and the
    # Puiseux characteristic it yields must end at the nonholonomy degree.
    # On the Goursat locus m_0 = m_1 comes from the front end, so a miss is
    # a failed route; off it m_0 comes from the caller, so a miss means that
    # m_0 does not fit the word.
    misfit = RouteMismatch if is_goursat(w) else InvalidM0
    try:
        pc = pc_from_multseq((m0,) + tuple(reversed(mv)) + (1,))
    except NotRealizable as exc:
        raise misfit(f"m_0 = {m0} does not fit {w}: {exc}") from exc
    if any(s in CRITICAL for s in w.symbols):
        trailing_r = len(w.symbols) - len(w.symbols.rstrip("R"))
        lam_last = pc.exponents[-1]
        if lam_last + trailing_r != beta_be[-1]:
            raise misfit(
                f"m_0 = {m0} does not fit {w}: its Puiseux characteristic {pc} "
                f"gives lambda_g + {trailing_r} trailing R = {lam_last + trailing_r}, "
                f"not the nonholonomy degree {beta_be[-1]}"
            )

    return InvariantBundle(
        word=w,
        goursat_word=gw,
        k=k,
        beta=beta_be,
        der=der_be,
        der2=_differences(der_be),
        sg=sg,
        mult_vector=mv,
        m0=m0,
        vo=vo_full,
        b=table.b,
        e_table=table,
        puiseux=pc,
        nonholonomy_degree=beta_be[-1],
    )
