"""Bounded search for n-isoclinisms and the solution-count scaling law.

An n-isoclinism between G and H is a pair of isomorphisms
phi: G/Z_n(G) -> H/Z_n(H) and psi: gamma_{n+1}(G) -> gamma_{n+1}(H) that are
compatible: psi sends the left-normed commutator of any (n+1)-tuple of coset
representatives in G to the commutator of the phi-images' representatives
in H.  When a witness exists the fiber counts of the (n+1)-fold commutator
word scale by (|G|/|H|)^(n+1) along psi.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import chartab, formulas, groups
from .errors import SearchBoundExceeded, UnsupportedParameter, WitnessInvalid

SEARCH_BOUND = 64
# most tuples |G/Z_n|^(n+1) the search and the witness check each enumerate
TUPLE_BOUND = 2**20


class IsoclinismWitness(namedtuple("IsoclinismWitness", (
        "n G H phi psi quotient_G quotient_H"))):
    """An n-isoclinism from G to H.  `phi` maps quotient_G indices to
    quotient_H indices, and `psi` (a dict) gamma_{n+1}(G) elements to
    gamma_{n+1}(H) elements."""

    __slots__ = ()


@groups.structure_memo
def _commutator_table(X, n):
    """X/Z_n(X), and the left-normed commutator of the least representatives
    of each (n+1)-tuple of its cosets, as one flat list in
    `itertools.product` order: once per group and level, for every check."""
    Q, proj = groups.quotient(X, groups.zn(X, n))
    reps = []
    for g, q in enumerate(proj):  # cosets are numbered by least element
        if q == len(reps):
            reps.append(g)
    table = reps
    for _ in range(n):
        table = [X.commutator(a, r) for a in table for r in reps]
    return Q, table


def _image_positions(phi, length):
    """For each `length`-tuple of cosets in product order, the position of
    its phi-image in the same order.  Only the shorter prefixes are listed
    and the rest is generated, so a caller that stops at the first mismatch
    builds little more than it reads."""
    m = len(phi)
    prefixes = [0]
    for _ in range(length - 1):
        prefixes = [p * m + x for p in prefixes for x in phi]
    return (p * m + x for p in prefixes for x in phi)


def _close_partial(partial, A, B):
    """Extend a generator assignment to the generated subgroup.

    Returns the closed map or None on a homomorphism/injectivity conflict.
    """
    mapping = dict(partial)
    image = set(mapping.values())
    if len(image) != len(mapping):
        return None
    frontier = list(mapping)
    while frontier:
        nxt = []
        for a in list(mapping):
            for b in frontier:
                for c, fc in ((A.mul[a][b], B.mul[mapping[a]][mapping[b]]),
                              (A.mul[b][a], B.mul[mapping[b]][mapping[a]])):
                    if c in mapping:
                        if mapping[c] != fc:
                            return None
                    else:
                        if fc in image:
                            return None
                        mapping[c] = fc
                        image.add(fc)
                        nxt.append(c)
        frontier = nxt
    return mapping


def _isomorphisms(A, B):
    """Yield all isomorphisms A -> B as index tuples."""
    if A.order != B.order:
        return
    orders_B = [B.element_order(h) for h in range(B.order)]
    gens = sorted(A.generating_set(), key=lambda g: (A.element_order(g), g))

    def backtrack(i, partial):
        if i == len(gens):
            if len(partial) == A.order:
                yield tuple(partial[a] for a in range(A.order))
            return
        g = gens[i]
        if g in partial:
            yield from backtrack(i + 1, partial)
            return
        og = A.element_order(g)
        for h in sorted(range(B.order), key=lambda h: (orders_B[h], h)):
            if orders_B[h] != og:
                continue
            closed = _close_partial({**partial, g: h}, A, B)
            if closed is not None:
                yield from backtrack(i + 1, closed)

    yield from backtrack(0, {0: 0})


def find_isoclinism(G, H, n):
    """An n-isoclinism witness, or None if the groups are not n-isoclinic."""
    return search_isoclinism(G, H, n)[0]


def search_isoclinism(G, H, n):
    """(witness or None, the number of isomorphisms G/Z_n -> H/Z_n tried).
    The count is 0 when the orders of the quotients or of the commutator
    subgroups differ."""
    if n < 1:
        raise UnsupportedParameter(f"n must be at least 1, got {n}")
    ZG, ZH = groups.zn(G, n), groups.zn(H, n)
    gammaG, gammaH = groups.gamma(G, n + 1), groups.gamma(H, n + 1)
    for X, Z, gam in ((G, ZG, gammaG), (H, ZH, gammaH)):
        if X.order // Z.order > SEARCH_BOUND or gam.order > SEARCH_BOUND:
            raise SearchBoundExceeded(
                f"quotient or commutator subgroup exceeds {SEARCH_BOUND}")
    if G.order // ZG.order != H.order // ZH.order or \
            gammaG.order != gammaH.order:
        return None, 0
    count = (G.order // ZG.order) ** (n + 1)
    if count > TUPLE_BOUND:
        raise SearchBoundExceeded(
            f"{count} tuples of coset representatives exceed {TUPLE_BOUND}")
    QG, tableG = _commutator_table(G, n)
    QH, tableH = _commutator_table(H, n)
    tried = 0
    for phi in _isomorphisms(QG, QH):
        tried += 1
        psi = {0: 0}
        if any(psi.setdefault(a, tableH[p]) != tableH[p]
               for a, p in zip(tableG, _image_positions(phi, n + 1))):
            continue
        psi = _close_partial(psi, G, H)
        if psi is None or len(psi) != gammaG.order:
            continue
        if set(psi) != set(gammaG.members) or \
                set(psi.values()) != set(gammaH.members):
            continue
        witness = IsoclinismWitness(n, G, H, phi, psi, QG, QH)
        verify_witness(witness)
        return witness, tried
    return None, tried


def verify_witness(w):
    """Re-check all three conditions of the definition."""
    G, H, n = w.G, w.H, w.n
    gammaG, gammaH = groups.gamma(G, n + 1), groups.gamma(H, n + 1)
    QG, tableG = _commutator_table(G, n)
    QH, tableH = _commutator_table(H, n)
    if QG != w.quotient_G or QH != w.quotient_H:
        raise WitnessInvalid("witness quotients do not match the groups")
    phi, psi = w.phi, w.psi
    if sorted(phi) != list(range(QH.order)):
        raise WitnessInvalid("phi is not a bijection")
    for a in range(QG.order):
        for b in range(QG.order):
            if phi[QG.mul[a][b]] != QH.mul[phi[a]][phi[b]]:
                raise WitnessInvalid("phi is not a homomorphism")
    if set(psi) != set(gammaG.members) or \
            set(psi.values()) != set(gammaH.members) or \
            len(set(psi.values())) != len(psi):
        raise WitnessInvalid("psi is not a bijection of the commutator terms")
    for a in gammaG.members:
        for b in gammaG.members:
            if psi[G.mul[a][b]] != H.mul[psi[a]][psi[b]]:
                raise WitnessInvalid("psi is not a homomorphism")
    for a, p in zip(tableG, _image_positions(phi, n + 1)):
        if psi[a] != tableH[p]:
            raise WitnessInvalid("psi is not compatible with phi")


def verify_scaling(witness):
    """Check zeta_G = (|G|/|H|)^(n+1) * zeta_H o psi on gamma_{n+1}(G).

    The scaling statement names phi, but the commutator-subgroup map psi is
    the one that applies (and the one the proof uses).
    """
    verify_witness(witness)
    G, H, n = witness.G, witness.H, witness.n
    zeta_G = formulas.zeta_wn_char(G, chartab.character_table(G), n + 1)
    zeta_H = formulas.zeta_wn_char(H, chartab.character_table(H), n + 1)
    factor = Fraction(G.order, H.order) ** (n + 1)
    checked = []
    for g, h in sorted(witness.psi.items()):
        lhs = Fraction(zeta_G.at_element(g))
        rhs = factor * zeta_H.at_element(h)
        if lhs != rhs:
            raise WitnessInvalid(
                f"scaling fails at {G.label(g)}: {lhs} != {rhs}")
        checked.append((g, h, lhs))
    return {"factor": factor, "checked": checked}
