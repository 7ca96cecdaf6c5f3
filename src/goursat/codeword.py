"""RVT / Goursat code words: the grammar, lifts and normalization.

A code word over the alphabet ``{R, V, T}`` records, level by level, how a
point sits inside the tower of prolongations over a surface: ``R`` for a
regular level, ``V`` for a vertical one (the point lies on the divisor at
infinity created at that level), and ``T`` for a tangency level.  The
grammar is: nonempty, starts with ``R``, and every ``T`` immediately
follows a ``V`` or a ``T``.  A *Goursat* word additionally has ``R`` in
position 2 (it avoids the divisor ``I_2``).

Each word is realized concretely as a point on a standard affine chart of
the corresponding tower level; ``goursat.charts`` holds the charts, that
realization and the enumeration of words.

Positions and levels are 1-indexed throughout, matching the usual
convention for these towers.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import (
    BadSymbol,
    EmptyWord,
    LeadingCritical,
    OrphanT,
    TooShort,
    WordError,
)

ALPHABET = frozenset("RVT")
CRITICAL = frozenset("VT")


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``_fields`` (and in ``__slots__``) and
    sets them in ``__init__`` with ``object.__setattr__``.  Objects compare
    and hash by class and field values, and repr as ``Name(field=value)``.
    A pickle or copy rebuilds through ``__init__`` from the fields alone,
    so it re-validates, and a cached str hash, salted per process, never
    travels.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _validate_rvt(symbols: str) -> None:
    if not symbols:
        raise EmptyWord()
    for pos, s in enumerate(symbols, start=1):
        if s not in ALPHABET:
            raise BadSymbol(pos, s)
    if symbols[0] != "R":
        raise LeadingCritical(symbols[0])
    for pos in range(2, len(symbols) + 1):
        if symbols[pos - 1] == "T" and symbols[pos - 2] not in CRITICAL:
            raise OrphanT(pos)


class RvtWord(Frozen):
    """A validated word over {R, V, T}; construction raises on bad input."""

    __slots__ = _fields = ("symbols",)

    def __init__(self, symbols: str):
        _validate_rvt(symbols)
        object.__setattr__(self, "symbols", symbols)

    @property
    def k(self) -> int:
        """Number of levels (the length of the word)."""
        return len(self.symbols)

    def letter(self, j: int) -> str:
        """Symbol at level j (1-indexed)."""
        if not 1 <= j <= self.k:
            raise IndexError(f"level {j} outside 1..{self.k}")
        return self.symbols[j - 1]

    def __str__(self) -> str:
        return self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)


class GoursatWord(RvtWord):
    """An RVT word with R in position 2 (when the length is at least 2)."""

    __slots__ = ()

    def __init__(self, symbols: str):
        super().__init__(symbols)
        if self.k >= 2 and symbols[1] != "R":
            raise WordError(f"not a Goursat word: symbol 2 is {symbols[1]!r}, expected R")


def parse_word(text: str) -> RvtWord:
    """Parse a bare symbol string (case-insensitive) into a validated word."""
    return RvtWord(text.upper())


def is_goursat(w: RvtWord | str) -> bool:
    """True iff the word avoids I_2, i.e. k < 2 or symbol 2 is R."""
    symbols = _as_word(w).symbols
    return len(symbols) < 2 or symbols[1] == "R"


def _as_word(w: RvtWord | str) -> RvtWord:
    return w if isinstance(w, RvtWord) else parse_word(w)


def as_goursat(w: RvtWord | str) -> GoursatWord:
    """Re-type a word known to satisfy the Goursat grammar."""
    w = _as_word(w)
    return w if isinstance(w, GoursatWord) else GoursatWord(w.symbols)


def _regularize(symbols: str, level: int) -> str:
    # Replace the critical block V T^t that starts at the level (1-indexed),
    # if the symbol there is V, by R's.
    if symbols[level - 1 : level] != "V":
        return symbols
    stop = len(symbols) + 1 - len(symbols[level:].lstrip("T"))
    return symbols[: level - 1] + "R" * (stop - level) + symbols[stop - 1 :]


def lift(w: GoursatWord | RvtWord | str) -> GoursatWord:
    """The lifted Goursat word, one level down the tower.

    Drop the leading R; if the remaining word starts with ``R V T^t``, the
    critical block ``V T^t`` is regularized to R's so the result is again
    a Goursat word.  The length always drops by exactly one.
    """
    w = as_goursat(w)
    if w.k < 2:
        raise TooShort(2, w.k)
    return GoursatWord(_regularize(w.symbols[1:], 2))


def lift_chain(w: GoursatWord | str) -> list[GoursatWord]:
    """All iterated lifts, from the one-letter word R up to w itself, each
    validated as a GoursatWord."""
    w = as_goursat(w)
    chain = [w]
    while chain[-1].k > 1:
        chain.append(lift(chain[-1]))
    chain.reverse()
    return chain


def goursat_normalize(w: RvtWord | str) -> GoursatWord:
    """Replace a critical block starting at position 2 by R's.

    The result is a Goursat word of the same length whose germ invariants
    (beta, der, der^2, m_1.., VO_3..) agree with those of the input; only
    the base multiplicity m_0 and VO_2 are lost.  Identity on Goursat
    words, and idempotent.
    """
    w = _as_word(w)
    if is_goursat(w):
        return as_goursat(w)
    return GoursatWord(_regularize(w.symbols, 2))
