"""Exception hierarchy shared across the package, and `read_ints`, the one
reader of the integers that specs, words, group files and the CLI hold."""


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


def read_ints(tokens, bound, error):
    """The values of `tokens`, each a run of ASCII digits 0-9 with no more
    digits, leading zeros aside, than `bound` has.  Anything else raises
    error(message) before `int`, which would read other Unicode digits,
    signs and underscores, and fail past 4,300 digits; callers check the
    values.  All tokens are checked at once, so a Cayley row costs about
    what `int` alone does."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()) or "" in tokens:
        bad = next(t for t in tokens if not (t.isascii() and t.isdigit()))
        raise error(f"expected a number in ASCII digits, got {bad[:20]!r}")
    width = len(str(bound))
    if max(map(len, tokens)) > width:
        tokens = [t.lstrip("0") or "0" for t in tokens]
        longest = max(map(len, tokens))
        if longest > width:
            raise error(f"a {longest}-digit number exceeds {bound}")
    return list(map(int, tokens))
