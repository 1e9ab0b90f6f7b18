"""Exact arithmetic in Z[zeta_e] (and Q[zeta_e] where divisions appear).

A value is stored as a length-e coefficient vector over the non-reduced
spanning set 1, zeta, ..., zeta^(e-1); multiplication is cyclic convolution.
Equality and rational extraction go through reduction modulo the e-th
cyclotomic polynomial, which is the only place the relation between the
powers of zeta is used.  The reduction touches only the nonzero terms of
Phi_e (Phi_100 has 5 of its 41).  A value computes its nonzero terms and
its reduced form on first use and keeps them, so a table that shares one
object per distinct value reduces each value once.

Character sums are Hermitian inner products sum w * a * conj(b), and
those whose value is rational (orthogonality checks, inner products, the
mixed-domain formula) go through one sparse integer kernel instead of
`Cyclotomic` arithmetic: each factor is a tuple of its nonzero
(exponent, coefficient) terms, and conj(zeta^j) = zeta^(-j), so
`product_sum` accumulates zeta^i * conj(zeta^j) at index i - j of one plain
list of length e (indices taken mod e, so mod x^e - 1), with `Fraction`
weights scaled once to a common denominator; `rational_sum` reduces that
list once modulo Phi_e.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import groups
from .errors import InternalInconsistency, NonIntegral


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Coefficients (low to high) of the e-th cyclotomic polynomial."""
    # Phi_e = prod over squarefree s | e of (x^(e/s) - 1)^mu(s): multiply by
    # the factors with mu(s) = 1, then divide out those with mu(s) = -1.
    # up and down hold e/s for those s over the primes of e taken so far.
    up, down = [e], []
    for p in groups._prime_factors(e):
        up, down = up + [d // p for d in down], down + [d // p for d in up]
    poly = [1]
    for d in up:
        poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in down:
        # q (x^d - 1) = poly, read off low to high as a running sum
        n = len(poly) - d
        q = [0] * n
        for j in range(n):
            q[j] = (q[j - d] if j >= d else 0) - poly[j]
        if poly[n:] != ([0] * d + q)[n:]:
            raise InternalInconsistency("polynomial division leaves a remainder")
        poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_low_terms(order):
    """(deg, the nonzero (j, c) terms below x^deg) of the monic Phi_order."""
    phi = cyclotomic_polynomial(order)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(order, coeffs):
    """Remainder of sum(coeffs[j] x^j) modulo Phi_order, low-to-high tuple."""
    deg, low = _phi_low_terms(order)
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j, pj in low:
                rem[base + j] -= c * pj
    return tuple(rem[:deg])


def vanishes(order, coeffs):
    """True iff sum(coeffs[j] zeta^j) = 0."""
    return not any(_reduce(order, coeffs))


class Cyclotomic:
    """An element of Q[zeta_order]; character values keep integer coeffs."""

    __slots__ = ("order", "coeffs", "_terms", "_reduced")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = coeffs
        self._terms = self._reduced = None

    @property
    def terms(self):
        """Nonzero (exponent, coefficient) terms, computed on first use."""
        if self._terms is None:
            self._terms = tuple((j, c) for j, c in enumerate(self.coeffs) if c)
        return self._terms

    @staticmethod
    def from_rational(order, value):
        return Cyclotomic(order, (value,) + (0,) * (order - 1))

    @staticmethod
    def root(order, power=1):
        power %= order
        c = [0] * order
        c[power] = 1
        root = Cyclotomic(order, tuple(c))
        root._terms = ((power, 1),)
        return root

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = self.order
        out = [0] * e
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % e] += a * b
        return Cyclotomic(e, tuple(out))

    __rmul__ = __mul__

    def conjugate(self):
        e = self.order
        out = [0] * e
        for j, a in enumerate(self.coeffs):
            out[(-j) % e] += a
        return Cyclotomic(e, tuple(out))

    def reduced(self):
        """Canonical coefficient tuple in the power basis 1..zeta^(phi(e)-1),
        computed on first use."""
        if self._reduced is None:
            self._reduced = _reduce(self.order, self.coeffs)
        return self._reduced

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            red = self.reduced()
            return red[0] == other and not any(red[1:])
        if not isinstance(other, Cyclotomic) or other.order != self.order:
            return NotImplemented
        return self.reduced() == other.reduced()

    def __hash__(self):
        return hash((self.order, self.reduced()))

    def to_rational(self):
        red = self.reduced()
        if any(v != 0 for v in red[1:]):
            raise NonIntegral(f"value is not rational: {self!r}")
        v = red[0]
        return v if isinstance(v, Fraction) else Fraction(v)

    def __repr__(self):
        terms = [f"{a}*z{self.order}^{j}" for j, a in enumerate(self.coeffs) if a]
        return "Cyc(" + (" + ".join(terms) or "0") + ")"


# ---------------------------------------------------------------------------
# sparse integer kernel for rational character sums

def terms(order, value):
    """Nonzero (exponent, coefficient) terms of a Cyclotomic, int or Fraction."""
    if isinstance(value, Cyclotomic):
        if value.order != order:
            raise ValueError("mixed cyclotomic orders")
        return value.terms
    return ((0, value),) if value else ()


def product_sum(order, products):
    """Exact Hermitian sum of w * a * conj(b) over (w, a, b), with a and b
    term tuples.

    Returns (acc, den): the sum is sum(acc[j] zeta^j) / den, where acc is a
    plain length-order list and den the least common denominator of the
    weights, so integer terms and weights accumulate as ints.
    """
    products = list(products)
    den = lcm(*{w.denominator for w, _, _ in products})
    acc = [0] * order
    for w, a, b in products:
        w = w.numerator * (den // w.denominator)
        for i, x in a:
            wx = w * x
            for j, y in b:
                acc[(i - j) % order] += wx * y
    return acc, den


def rational_sum(order, products):
    """The rational value of sum(w * a * conj(b)) over (w, a, b); NonIntegral
    if the sum is not rational."""
    acc, den = product_sum(order, products)
    red = _reduce(order, acc)
    if any(red[1:]):
        raise NonIntegral("character sum is not rational")
    return Fraction(red[0], den)
