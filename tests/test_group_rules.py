"""Each rule of the group layer is written once: a group built by
`groups._table_from_elements` keeps the generators its build found, and
`GroupTable.power` is the one square-and-multiply, over `product`, which a
group that keeps its element law reads off the law."""

import pytest
from test_element_law import composed  # noqa: F401  (a fixture)

from wordcount import cli, groups

# at most 2 ceil(log2(|k| + 1)) products each
EXPONENTS = (-1025, -1, 0, 1, 2, 1023)


def test_a_built_group_keeps_the_generators_its_build_found(monkeypatch,
                                                            tmp_path):
    S4 = groups.builtin("symmetric", 4)
    # S4' is a normal closure, which is searched: take the quotient first
    Q = groups.quotient(S4, groups.commutator_subgroup(S4))[0]
    # the build keeps the generators a greedy search over the table finds
    assert tuple(groups._closure_indices(S4, range(S4.order))[1]) == \
        S4.generating_set()
    path = tmp_path / "s4.cayley"
    path.write_text("cayley 24\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in S4.mul))

    def refuse(*args):
        raise AssertionError("a built group searched for its generators")

    monkeypatch.setattr(groups, "_closure_indices", refuse)
    built = {"agl1(5)": groups.builtin("agl1", 5),
             "S4 as a Cayley table": cli.load_group(f"file:{path}"),
             "S4 / S4'": Q,
             "dihedral(2000)": groups.builtin("dihedral", 2000)}
    assert {name: G.generating_set() for name, G in built.items()} == {
        "agl1(5)": (1, 5), "S4 as a Cayley table": (1, 2, 6),
        "S4 / S4'": (1,), "dihedral(2000)": (1, 1000)}
    assert built["dihedral(2000)"].law is not None


def _powers_by_repetition(G, a):
    """{k: a^k for k in EXPONENTS}, one product per step."""
    want = {0: 0}
    for sign in (1, -1):
        x, step = 0, a if sign == 1 else G.inv[a]
        for k in range(1, 1026):
            x = G.product(x, step)
            want[sign * k] = x
    return {k: want[k] for k in EXPONENTS}


def test_powers_are_repeated_products_on_tuple_rows():
    G = groups.builtin("agl1", 5)
    for a in range(G.order):
        assert {k: G.power(a, k) for k in EXPONENTS} == \
            _powers_by_repetition(G, a)


@pytest.mark.parametrize("a", [1, 7, 999, 1000, 1001, 1999])
def test_powers_of_a_law_are_repeated_products_by_squaring(a, composed):
    G = groups.builtin("dihedral", 2000)
    want = _powers_by_repetition(G, a)
    law, combine = G.law, G.law.combine
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return combine(x, y)

    law.combine = counted
    for k in EXPONENTS:
        calls = 0
        assert G.power(a, k) == want[k]
        assert calls <= 2 * abs(k).bit_length(), (k, calls)
    assert composed == [] and G.law is law
