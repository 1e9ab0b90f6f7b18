"""Free-group words with commutator-bracket sugar.

Grammar (also the CLI's --word syntax):

    word := term+
    term := var | var '^' int | '[' word ',' word ']'
          | '(' word ')' | '(' word ')' '^' int

where var is 'x' followed by a positive integer and [u, v] expands to
u^-1 v^-1 u v.  Integers are ASCII digits, an exponent with an optional
'-'; an index may have at most as many digits as MAX_LETTERS, an exponent
as MAX_EXPONENT.  Words are stored freely reduced; variables must be the
contiguous range x1..xn so the arity is unambiguous.
"""

from collections import namedtuple
from functools import lru_cache

from .errors import (ArityMismatch, ArityTooSmall, EmptyWord, WordSyntaxError,
                     read_ints)

MAX_EXPONENT = 2**31 - 1
MAX_LETTERS = 2**16   # most letters brackets and powers may expand to
MAX_NESTING = 100     # deepest nesting of brackets and parentheses


class Word(namedtuple("Word", "arity letters")):
    """`letters` is a tuple of (variable 1..arity, nonzero exponent)."""

    __slots__ = ()

    def __str__(self):
        return " ".join(
            f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in self.letters)


def _reduce(letters):
    out = []
    for v, e in letters:
        if e == 0:
            continue
        if out and out[-1][0] == v:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((v, merged))
        else:
            out.append((v, e))
    return out


def _invert(letters):
    return [(v, -e) for v, e in reversed(letters)]


def commutator(u, v):
    """The letters of [u, v] = u^-1 v^-1 u v, for letter lists u and v."""
    return _invert(u) + _invert(v) + u + v


def make_word(letters):
    """Reduce and validate a letter sequence into a Word."""
    reduced = _reduce(list(letters))
    if not reduced:
        raise EmptyWord("word reduces to the empty word")
    for v, e in reduced:
        if abs(e) > MAX_EXPONENT:
            raise WordSyntaxError(f"exponent {e} out of range")
    used = {v for v, _ in reduced}
    arity = max(used)
    missing = set(range(1, arity + 1)) - used
    if missing:
        raise WordSyntaxError(
            f"variables are not contiguous: missing x{min(missing)}")
    return Word(arity, tuple(reduced))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise WordSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self, bound):
        sign = 1
        if self.peek() == "-":
            sign, self.pos = -1, self.pos + 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        (value,) = read_ints([self.text[start:self.pos]], bound,
                             lambda m: WordSyntaxError(m, start))
        return sign * value

    def check_expansion(self, size):
        if size > MAX_LETTERS:
            self.error(f"word expands to {size} letters, more than "
                       f"{MAX_LETTERS}")

    def parse_word(self, stoppers):
        letters = []
        while True:
            c = self.peek()
            if c == "" or c in stoppers:
                break
            term = self.parse_term(stoppers)
            self.check_expansion(len(letters) + len(term))
            letters.extend(term)
        if not letters:
            self.error("expected a term")
        return letters

    def parse_term(self, stoppers):
        c = self.peek()
        if c == "x":
            self.pos += 1
            var = self.parse_int(MAX_LETTERS)
            if var <= 0:
                self.error("variable index must be positive")
            exp = 1
            if self.peek() == "^":
                self.pos += 1
                exp = self.parse_int(MAX_EXPONENT)
            return [(var, exp)]
        if c == "[":
            self.pos += 1
            u = self.parse_word(",")
            self.expect(",")
            v = self.parse_word("]")
            self.expect("]")
            self.check_expansion(2 * (len(u) + len(v)))
            return self.maybe_power(commutator(u, v))
        if c == "(":
            self.pos += 1
            w = self.parse_word(")")
            self.expect(")")
            return self.maybe_power(w)
        self.error(f"unexpected character {c!r}")

    def maybe_power(self, letters):
        if self.peek() != "^":
            return letters
        self.pos += 1
        exp = self.parse_int(MAX_EXPONENT)
        if exp == 0:
            return []
        self.check_expansion(len(letters) * abs(exp))
        base = letters if exp > 0 else _invert(letters)
        return base * abs(exp)


def parse(text):
    """Parse and reduce a word expression.

    Brackets and parentheses nesting deeper than MAX_NESTING are refused
    before the recursive descent starts."""
    depth = 0
    for pos, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if depth > MAX_NESTING:
            raise WordSyntaxError(
                f"brackets nest more than {MAX_NESTING} deep", pos)
    return make_word(_Parser(text).parse_word(""))


@lru_cache(maxsize=None)
def wn(n):
    """The left-normed commutator word w_n = [w_{n-1}, x_n], w_2 = [x1, x2]."""
    if n < 2:
        raise ArityTooSmall("wn needs n >= 2")
    if n == 2:
        return parse("[x1,x2]")
    return make_word(commutator(list(wn(n - 1).letters), [(n, 1)]))


def evaluate(word, G, assignment):
    """Evaluate the word map at one point of G^arity."""
    if len(assignment) != word.arity:
        raise ArityMismatch(
            f"word has arity {word.arity}, got {len(assignment)} values")
    acc = 0
    for v, e in word.letters:
        acc = G.mul[acc][G.power(assignment[v - 1], e)]
    return acc
