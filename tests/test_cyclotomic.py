import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from wordcount import cyclotomic
from wordcount.cyclotomic import Cyclotomic, _reduce, cyclotomic_polynomial
from wordcount.errors import NonIntegral


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@lru_cache(maxsize=None)
def _divided_phi(e):
    """Phi_e as (x^e - 1) divided by Phi_d for every proper divisor d, one
    long division each."""
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            den = _divided_phi(d)
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                out[i] = poly[i + len(den) - 1]  # den is monic
                for j, dj in enumerate(den):
                    poly[i + j] -= out[i] * dj
            assert not any(poly)
            poly = out
    return tuple(poly)


def test_cyclotomic_polynomials_match_the_divided_form():
    for e in range(1, 401):
        assert cyclotomic_polynomial(e) == _divided_phi(e), e


def test_root_of_unity_relations():
    z = Cyclotomic.root(6)
    assert z * z * z == -1
    assert sum((Cyclotomic.root(6, k) for k in range(6)),
               Cyclotomic(6, (0,) * 6)) == 0
    # primitive cube root inside the 6th cyclotomic field
    w = Cyclotomic.root(6, 2)
    assert w * w + w + 1 == 0


def test_arithmetic_and_equality():
    z = Cyclotomic.root(5)
    a = 1 + z + z * z
    b = a - z * z
    assert b == 1 + z
    assert a * 0 == 0
    assert not any((a - a).reduced())
    assert 2 * a == a + a


def test_conjugate():
    z = Cyclotomic.root(8)
    v = 3 + 2 * z
    assert v.conjugate() == 3 + 2 * Cyclotomic.root(8, 7)
    # |1 + z|^2 is rational only after reduction: (1+z)(1+z^-1) = 2 + z + z^7
    norm = (1 + z) * (1 + z).conjugate()
    assert any(norm.reduced()[1:])  # 2 + sqrt(2) is a real irrationality


def test_rational_extraction():
    z = Cyclotomic.root(3)
    v = (1 + z + z * z) + 5
    assert not any(v.reduced()[1:])
    assert v.to_rational() == 5
    with pytest.raises(NonIntegral):
        (1 + z).to_rational()
    assert Cyclotomic.from_rational(3, Fraction(1, 2)).to_rational() == \
        Fraction(1, 2)


def test_gaussian_integers():
    i = Cyclotomic.root(4)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert (2 + i) * (2 + i).conjugate() == 5


KERNEL_ORDERS = [1, 2, 4, 5, 8, 12, 60, 100, 156]


def _random_terms(rng, e):
    exps = rng.sample(range(e), min(e, rng.randint(0, 4)))
    return tuple((j, rng.choice([-3, -2, -1, 1, 2, 5])) for j in sorted(exps))


def _dense(e, ts):
    c = [0] * e
    for j, v in ts:
        c[j] += v
    return Cyclotomic(e, tuple(c))


def _galois(e, ts, k):
    return tuple((j * k % e, c) for j, c in ts)


@pytest.mark.parametrize("e", KERNEL_ORDERS)
def test_kernel_matches_dense_arithmetic(e):
    rng = random.Random(1000 + e)
    for _ in range(12):
        products = [(rng.choice([1, 3, -2, Fraction(1, 3), Fraction(-5, 6)]),
                     _random_terms(rng, e), _random_terms(rng, e))
                    for _ in range(rng.randint(0, 6))]
        dense = Cyclotomic(e, (0,) * e)
        for w, a, b in products:
            dense = dense + _dense(e, a) * _dense(e, b).conjugate() * w
        acc, den = cyclotomic.product_sum(e, products)
        assert all(type(c) is int for c in acc)
        assert Cyclotomic(e, tuple(Fraction(c, den) for c in acc)) == dense
        if not any(dense.reduced()[1:]):
            assert cyclotomic.rational_sum(e, products) == dense.to_rational()
        else:
            with pytest.raises(NonIntegral):
                cyclotomic.rational_sum(e, products)
        # the trace over Gal(Q(zeta_e)/Q) of any such sum is rational;
        # sigma_k commutes with complex conjugation
        units = [k for k in range(1, e + 1) if math.gcd(k, e) == 1]
        trace = [(w, _galois(e, a, k), _galois(e, b, k))
                 for k in units for w, a, b in products]
        want = Cyclotomic(e, (0,) * e)
        for k in units:
            want = want + _dense(e, _galois(e, enumerate(dense.coeffs), k))
        assert cyclotomic.rational_sum(e, trace) == want.to_rational()


def test_kernel_terms_of_values():
    z = Cyclotomic.root(8, 3)
    assert cyclotomic.terms(8, 2 * z - 1) == ((0, -1), (3, 2))
    assert cyclotomic.terms(8, Fraction(1, 2)) == ((0, Fraction(1, 2)),)
    assert cyclotomic.terms(8, 0) == ()
    # the kernel conjugates its second operand: 1 * conj(2 z^3) = 2 z^5
    assert cyclotomic.product_sum(8, [(1, ((0, 1),), ((3, 2),))]) == \
        ([0, 0, 0, 0, 0, 2, 0, 0], 1)
    with pytest.raises(ValueError):
        cyclotomic.terms(4, z)


def _full_remainder(e, coeffs):
    """Long division by every coefficient of Phi_e."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    rem = list(coeffs)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        for j in range(deg + 1):
            rem[i - deg + j] -= c * phi[j]
        assert rem[i] == 0
    return tuple(rem[:deg])


@pytest.mark.parametrize("e", KERNEL_ORDERS)
def test_sparse_phi_reduction_matches_full_remainder(e):
    rng = random.Random(e)
    for _ in range(10):
        coeffs = [rng.randint(-50, 50) for _ in range(e)]
        assert _reduce(e, coeffs) == _full_remainder(e, coeffs)
