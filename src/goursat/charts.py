"""Charts of the tower, the canonical realization of a word on one, and the
enumeration of words.

A chart is named by a choice word over ``{o, i}`` (ordinary / inverted); it
carries coordinates ``r_0, n_0, n_1, ..., n_k`` built by the recursion

* ordinary at level j:  ``n_j = d n_{j-1} / d r_{j-1}``, retain ``r_{j-1}``,
  deactivate ``n_{j-1}``;
* inverted at level j:  ``n_j = d r_{j-1} / d n_{j-1}``, retain ``n_{j-1}``,
  deactivate ``r_{j-1}``.

Both read ``d(d_j) = n_j d(r_j)`` with ``d_j`` the deactivated and ``r_j`` the
retained coordinate.  :attr:`Chart.relations` holds the relation as one
table of ``(d_j, n_j, r_j)``, j = 1..k, which every recursion over a chart's
levels walks.

One table, ``LETTER_MAP``, holds the letter map: by the letter and whether
the previous letter is critical, the chart choice at its level and n_j at
the canonical point.  :func:`canonical_chart_point` builds a word's point
from it, :func:`rvt_of_chart_point` reads a point back through its
inverse, and ``CHART_CHOICES`` reads a word's chart from its letters.

Only the commands that build a chart (``verify``, ``chart``,
``bracket-table``) and the m_0 of a word that is not a Goursat word import
this module, so that the other commands start without compiling it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache

from .codeword import CRITICAL, Frozen, GoursatWord, RvtWord, _as_word
from .errors import Unsupported

# Each memo keyed by a chart (_chart, oracle._candidate_steps, symcalc.verify_structure)
# keeps one entry per chart, as a run meets its charts interleaved: 4,096 hold the 4,095
# charts of the RVT words with k <= 12, so the 1,024 of verify --all-words 12, its limit.
CHART_MEMO_SIZE = 4096


def var_names(k: int) -> tuple[str, ...]:
    """Standard chart coordinate names (r0, n0, n1, ..., nk), in the order
    of the coordinate indices (Chart.n_var)."""
    return ("r0",) + tuple(f"n{j}" for j in range(k + 1))


class Chart(Frozen):
    """A standard chart, named by its choice word over {o, i}.

    Coordinates are indexed 0..k+1 in the fixed order
    (r_0, n_0, n_1, ..., n_k); index 0 is r_0 and index j+1 is n_j.
    """

    _fields = ("choices",)
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached properties

    def __init__(self, choices: str):
        if any(c not in "oi" for c in choices):
            raise ValueError(f"chart word must use only o/i: {choices!r}")
        object.__setattr__(self, "choices", choices)

    @property
    def k(self) -> int:
        return len(self.choices)

    @property
    def nvars(self) -> int:
        return self.k + 2

    @cached_property
    def ip(self) -> frozenset[int]:
        """Levels at which the inverted choice was made."""
        return frozenset(j for j, c in enumerate(self.choices, start=1) if c == "i")

    @staticmethod
    def n_var(j: int) -> int:
        """Coordinate index of n_j."""
        return j + 1

    @cached_property
    def retained(self) -> tuple[int, ...]:
        """The coordinate index of each retained coordinate r_j, j = 0..k."""
        out = [0]
        for j in range(1, self.k + 1):
            out.append(self.n_var(j - 1) if j in self.ip else out[j - 1])
        return tuple(out)

    @cached_property
    def relations(self) -> tuple[tuple[int, int, int], ...]:
        """The coordinate indices (d_j, n_j, r_j) of level j's relation
        d(d_j) = n_j d(r_j), for j = 1..k: of the pair r_{j-1}, n_{j-1}
        active below level j, r_j is the one retained and d_j the other."""
        r = self.retained
        return tuple(
            (self.n_var(j - 1) if r[j] == r[j - 1] else r[j - 1], self.n_var(j), r[j])
            for j in range(1, self.k + 1)
        )

    @cached_property
    def alt_names(self) -> tuple[str, ...]:
        """Coordinate names in the x/y naming scheme (x = r_0, y = n_0)."""
        fam = {0: ("x", 0), 1: ("y", 0)}
        for d, n, _ in self.relations:
            # n_j = d d_j / d r_j is one derivative more than d_j.
            base, order = fam[d]
            fam[n] = (base, order + 1)

        def render(base, order):
            if order <= 2:
                return base + "'" * order
            return f"{base}^({order})"

        return tuple(render(*fam[v]) for v in range(self.nvars))


class ChartPoint(Frozen):
    """A chart together with the integer coordinates of a point on it.

    The hash is computed once, in __init__: the per-point caches of the
    oracle hash one point several times.  A pickle or copy rebuilds
    through __init__ (Frozen), so the cached hash never travels."""

    _fields = ("chart", "coords")
    __slots__ = (*_fields, "_hash")

    def __init__(self, chart: Chart, coords: Iterable[int]):
        coords = tuple(coords)
        if len(coords) != chart.nvars:
            raise ValueError(f"expected {chart.nvars} coordinates, got {len(coords)}")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in coords):
            raise ValueError(f"coordinates must be ints, got {coords!r}")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", hash((chart, coords)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def k(self) -> int:
        return self.chart.k

    @property
    def ip(self) -> frozenset[int]:
        return self.chart.ip

    def n_value(self, j: int) -> int:
        """Value of the coordinate n_j at the point."""
        return self.coords[Chart.n_var(j)]


# The letter map.  By the previous letter (None at level 1, where only R
# can stand, else whether it is critical), then by the letter: the chart
# choice at its level and n_j at the canonical point, 1 where n_j must be
# nonzero, else 0.
LETTER_MAP = {
    None: {"R": ("o", 0)},
    False: {"R": ("o", 0), "V": ("i", 0)},
    True: {"R": ("o", 1), "V": ("i", 0), "T": ("o", 0)},
}
# A word's chart, read from its letters: each letter has one choice.
CHART_CHOICES = str.maketrans({s: c for row in LETTER_MAP.values() for s, (c, _) in row.items()})
# The inverse: (previous letter, choice, n_j != 0) -> letter.
_LETTER_OF = {
    (after, c, n != 0): s for after, row in LETTER_MAP.items() for s, (c, n) in row.items()
}


@lru_cache(maxsize=CHART_MEMO_SIZE)
def _chart(choices: str) -> Chart:
    return Chart(choices)


def canonical_chart_point(w: RvtWord | str) -> ChartPoint:
    """The canonical realization of a word as a chart point.

    Level j takes its chart choice and n_j from LETTER_MAP, and the base
    point is the origin of the base chart (r_0 = n_0 = 0).  Any nonzero
    value would do for the n_j = 1 of an R after a critical letter.  The
    chart comes from a bounded cache keyed by its choice word, so words on
    one chart share one Chart.
    """
    symbols = _as_word(w).symbols
    coords = [0, 0]
    row = LETTER_MAP[None]
    for s in symbols:
        coords.append(row[s][1])
        row = LETTER_MAP[s in CRITICAL]
    return ChartPoint(_chart(symbols.translate(CHART_CHOICES)), coords)


def rvt_of_chart_point(p: ChartPoint) -> RvtWord:
    """Recover the RVT code word of a canonical chart point.

    Each level is looked up in the inverse of LETTER_MAP, which ignores
    the base coordinates; raises Unsupported for a configuration that map
    cannot reach.
    """
    letters = ""
    for j, c in enumerate(p.chart.choices, start=1):
        after = letters[-1] in CRITICAL if letters else None
        key = (after, c, p.n_value(j) != 0)
        if key not in _LETTER_OF:
            raise Unsupported(
                f"level {j}: choice {key[1]!r} with n_{j} = {p.n_value(j)} after "
                f"{letters or 'no letter'} is outside the validated letter map"
            )
        letters += _LETTER_OF[key]
    return RvtWord(letters)


# ---------------------------------------------------------------------------
# Enumeration helpers (used by the batch CLI mode and exhaustive tests)


def _extensions(prefix: str, k: int) -> Iterator[str]:
    # Every valid word of length k that extends the prefix, lazily and in
    # lexicographic order: a depth-first walk with an explicit stack, which
    # pops the extensions by R, T, V in that order.
    stack = [prefix]
    while stack:
        word = stack.pop()
        if len(word) == k:
            yield word
        else:
            stack.extend(word + s for s in ("VTR" if word[-1] in CRITICAL else "VR"))


def enumerate_rvt_words(k: int) -> Iterator[RvtWord]:
    """All valid RVT words of length exactly k, in lexicographic order."""
    if k >= 1:
        yield from map(RvtWord, _extensions("R", k))


def enumerate_goursat_words(k: int) -> Iterator[GoursatWord]:
    """All Goursat words of length exactly k, in lexicographic order."""
    if k >= 1:
        yield from map(GoursatWord, _extensions("R" if k == 1 else "RR", k))
