"""Exception hierarchy shared by all goursat modules."""


class GoursatError(Exception):
    """Base class for every error raised by this package."""


class WordError(GoursatError, ValueError):
    """A code word failed validation."""


class EmptyWord(WordError):
    def __init__(self):
        super().__init__("EmptyWord: a code word must contain at least one symbol")


class BadSymbol(WordError):
    def __init__(self, position, symbol):
        super().__init__(f"BadSymbol at {position}: {symbol!r} is not one of R, V, T")
        self.position = position
        self.symbol = symbol


class LeadingCritical(WordError):
    def __init__(self, symbol):
        super().__init__(f"LeadingCritical: word must start with R, not {symbol!r}")
        self.symbol = symbol


class OrphanT(WordError):
    def __init__(self, position):
        super().__init__(f"OrphanT at {position}: T must be preceded by V or T")
        self.position = position


class TooShort(WordError):
    def __init__(self, need, got):
        super().__init__(f"TooShort: operation needs length >= {need}, word has {got}")


class Unsupported(GoursatError):
    """Chart-point configuration outside the validated letter map."""


class NonMonotone(GoursatError, ValueError):
    """A multiplicity vector increased where it must not."""


class InvalidPC(GoursatError, ValueError):
    """Puiseux characteristic violates its defining constraints."""


class NotRealizable(GoursatError, ValueError):
    """No Puiseux characteristic produces the given multiplicity sequence."""


class MissingM0(GoursatError):
    def __init__(self):
        super().__init__(
            "MissingM0: the word is not a Goursat word, so the base multiplicity "
            "m_0 is not determined combinatorially; supply it (e.g. from the "
            "focal-order oracle, m_0 = m_1 + VO_2)"
        )


class InvalidM0(GoursatError, ValueError):
    """A supplied base multiplicity m_0 does not fit the word."""


class RouteMismatch(GoursatError):
    """Two independent computation routes disagreed.  Always a bug."""


class IndexRange(GoursatError, IndexError):
    """An index outside [lo, hi], or below lo where hi is None."""

    def __init__(self, what, value, lo, hi=None):
        bound = f"below {lo}" if hi is None else f"outside [{lo}, {hi}]"
        super().__init__(f"IndexRange: {what}={value} {bound}")


class VariableMismatch(GoursatError, ValueError):
    """Operands live over different variable sets."""


class NonExactDivision(GoursatError):
    """A division that the structure lemmas promise to be exact was not."""


class StepBudgetExceeded(GoursatError):
    """Brute-force rank computation did not stabilize within the step budget."""


class ExponentOverflow(GoursatError):
    """A packed exponent reached the guard bit of its field: the exponents
    outgrew the width that the step budget gave."""


class LevelLimitExceeded(GoursatError):
    """A word or chart has more levels than a named limit allows."""


class OutputBudgetExceeded(GoursatError):
    """A command would print more bytes than a named limit allows."""


class TruncationTooSmall(GoursatError):
    """A truncated power-series computation ran out of known coefficients."""


class OrderMismatch(GoursatError):
    """A pathway section coefficient had the wrong focal order.  Always a bug."""
