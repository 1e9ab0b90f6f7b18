"""The builtin family metacyclic(m, n, r, s), <a, b | a^m = 1, b^n = a^s,
b a b^-1 = a^r> on the elements a^i b^j, numbered i + m*j.  Its one law
also builds the dihedral, quaternion and extraspecial_minus groups."""

import ast
import random

import pytest

from wordcount import groups
from wordcount.errors import OrderLimitExceeded, UnsupportedParameter


def _draws(count, most, seed):
    """`count` seeded (m, n, r, s) with m*n <= most that present a group."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        m = rng.randint(1, most // 2)
        n = rng.randint(1, most // m)
        r = rng.choice([r for r in range(m) if pow(r, n, m) == 1 % m])
        s = rng.choice([s for s in range(m) if s * (r - 1) % m == 0])
        if n > 1 and m > 2 and (m, n, r, s) not in draws:
            draws.append((m, n, r, s))
    return draws


@pytest.mark.parametrize("m, n, r, s", _draws(30, 200, 2016))
def test_the_law_builds_the_presented_group(m, n, r, s):
    G = groups.builtin("metacyclic", m, n, r, s)
    read = groups.from_cayley_table([list(row) for row in G.mul])
    assert read.mul == G.mul  # and Light's test passed on every row
    a, b = 1, m
    assert (G.order, G.element_order(a)) == (m * n, m)
    assert G.power(b, n) == s
    assert G.product(G.product(b, a), G.inv[b]) == r
    # a^i b^j is element i + m*j: a and b generate the m*n elements, which
    # the relations allow at most
    assert [G.product(G.power(a, i), G.power(b, j))
            for j in range(n) for i in range(m)] == list(range(G.order))
    assert [G.label(x) for x in (0, a, b, m * n - 1)] == [
        "a0", "a1", "a0b", f"a{m - 1}" + ("b" if n == 2 else f"b{n - 1}")]


def test_frobenius_like_groups_have_their_centers_and_classes():
    for params, center, classes in [((7, 9, 2, 0), 3, 15),
                                    ((13, 4, 5, 0), 1, 7)]:
        G = groups.builtin("metacyclic", *params)
        assert groups.center(G).order == center
        assert len(groups.conjugacy_classes(G).reps) == classes


@pytest.mark.parametrize("order", [4, 6, 8, 16, 24, 200, 2048])
def test_dihedral_and_quaternion_are_metacyclic(order):
    m = order // 2
    tables = [groups.builtin("dihedral", order),
              groups.builtin("metacyclic", m, 2, m - 1, 0)]
    if order & (order - 1) == 0 and order >= 8:
        tables += [groups.builtin("quaternion", order),
                   groups.builtin("metacyclic", m, 2, m - 1, m // 2)]
    for D, M in zip(tables[::2], tables[1::2]):
        assert D.generating_set() == M.generating_set()
        assert (D.mul, D.inv) == (M.mul, M.inv)


@pytest.mark.parametrize("p", [3, 5])
def test_extraspecial_minus_is_metacyclic_in_another_order(p):
    E = groups.builtin("extraspecial_minus", p)
    M = groups.builtin("metacyclic", p * p, p, 1 + p, 0)
    # E labels a^i b^j as "(i, j)"; M numbers it i + p^2 j
    to_m = [i + p * p * j for i, j in (ast.literal_eval(E.label(x))
                                       for x in range(E.order))]
    assert sorted(to_m) == list(range(M.order))
    assert all(M.mul[to_m[x]][to_m[y]] == to_m[E.mul[x][y]]
               for x in range(E.order) for y in range(E.order))


def _refuse_to_build(*args):
    raise AssertionError("refused parameters reached the element list")


@pytest.mark.parametrize("params, message", [
    ((0, 2, 0, 0), "needs m, n >= 1 and 0 <= r, s < m"),
    ((5, 0, 1, 0), "needs m, n >= 1 and 0 <= r, s < m"),
    ((7, 3, 7, 0), "needs m, n >= 1 and 0 <= r, s < m"),
    ((7, 3, 2, 7), "needs m, n >= 1 and 0 <= r, s < m"),
    ((7, 3, -1, 0), "needs m, n >= 1 and 0 <= r, s < m"),
    ((7, 2, 2, 0), r"needs r\^n = 1 and s\(r - 1\) = 0 \(mod m\)$"),
    ((8, 2, 3, 1), r"needs r\^n = 1 and s\(r - 1\) = 0 \(mod m\)$"),
])
def test_parameters_that_present_no_group_are_refused(params, message,
                                                      monkeypatch):
    monkeypatch.setattr(groups, "_metacyclic_group", _refuse_to_build)
    with pytest.raises(UnsupportedParameter, match=message) as refused:
        groups.builtin("metacyclic", *params)
    assert "\n" not in str(refused.value)


def test_an_oversize_metacyclic_group_is_refused_up_front(monkeypatch):
    monkeypatch.setattr(groups, "_metacyclic_group", _refuse_to_build)
    with pytest.raises(OrderLimitExceeded,
                       match="^order 40000 exceeds order cap 20480$"):
        groups.builtin("metacyclic", 20000, 2, 19999, 0)
