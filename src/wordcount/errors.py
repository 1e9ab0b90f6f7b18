"""Exception hierarchy shared across the package."""


class WordcountError(Exception):
    """Base class for all package errors."""


class NotAGroup(WordcountError):
    """An imported Cayley table fails the group axioms."""


class NotAPermutation(WordcountError):
    pass


class OrderLimitExceeded(WordcountError):
    pass


class UnknownFamily(WordcountError):
    pass


class UnsupportedParameter(WordcountError):
    pass


class NotNormal(WordcountError):
    pass


class BadSubgroup(WordcountError):
    pass


class MismatchedGroup(WordcountError):
    pass


class NonIntegral(WordcountError):
    """Bug sentinel: a central character failed to clear its denominator."""


class InternalInconsistency(WordcountError):
    """Bug sentinel: an exact self-check that must never fail did fail."""


class WordSyntaxError(WordcountError):
    def __init__(self, message, position=None):
        super().__init__(message if position is None
                         else f"{message} (at position {position})")
        self.position = position


class EmptyWord(WordcountError):
    pass


class ArityTooSmall(WordcountError):
    pass


class ArityMismatch(WordcountError):
    pass


class BudgetExceeded(WordcountError):
    pass


class NotMeasurePreserving(WordcountError):
    pass


class PredicateFailed(WordcountError):
    """A closed-form evaluator was asked about a group outside its class."""


class SearchBoundExceeded(WordcountError):
    pass


class WitnessInvalid(WordcountError):
    pass


class ParseError(WordcountError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
