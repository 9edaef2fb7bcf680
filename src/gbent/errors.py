"""Exception hierarchy for the gbent package.

One class per CLI outcome.  Every precondition violation raises GbentError
(exit 2) with a message naming the check that failed; FormatError marks
malformed input text.  NotBent and NotGbent are negative verdicts (exit 1)
and InternalInconsistency is a broken contract between routes (exit 3).
IndexOutOfRange and DivisionByZero double as the matching builtin
(IndexError, ZeroDivisionError) so generic handlers keep working, and
DualSumNonzero names the failed condition of the secondary bent
construction.
"""


class GbentError(Exception):
    """Base class for all errors raised by this package; bad input."""


class FormatError(GbentError):
    """Malformed text/hex input: bad header, wrong length, stray symbols."""


class NotBent(GbentError):
    """A Boolean function required to be bent is not."""


class NotGbent(GbentError):
    """A generalized Boolean function required to be gbent is not."""


class IndexOutOfRange(GbentError, IndexError):
    """Row or element index outside the valid range."""


class DivisionByZero(GbentError, ZeroDivisionError):
    """Field inversion of the zero element."""


class DualSumNonzero(GbentError):
    """Dual-sum condition of the secondary bent construction fails."""


class InternalInconsistency(GbentError):
    """Two routes that must agree disagreed; indicates a bug, not bad input."""
