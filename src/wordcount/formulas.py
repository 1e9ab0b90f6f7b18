"""Character-theoretic and closed-form evaluators for iterated commutators.

The character path sums over a `chartab.CharacterTable`.  The closed forms
read class data only (the classes and the orders of G, Z(G), G' and
Z_2(G)), never a character table, so they check the character path and
the brute-force oracle in `counting` independently.  Two of the source
displays disagree with their own general forms under exact substitution;
those are resolved in favor of the values that satisfy the forced
total-mass identity (see FLAG_* below and the `verify` report's FLAGGED
lines).
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import chartab, counting, cyclotomic, groups
from .cyclotomic import UNIT
from .errors import (
    CheckFailed,
    InternalInconsistency,
    MismatchedGroup,
    NotMeasurePreserving,
    NotNormal,
    PredicateFailed,
)
from .groups import ClassFunction
from .words import _invert, make_word

FLAG_CAMINA3_IDENTITY = "camina3-identity-display"
FLAG_UNIQUE_NL_OFFIDENTITY = "unique-nonlinear-offidentity-display"


class GroupClassReport(namedtuple("GroupClassReport", (
        "is_abelian nilpotency_class camina_pair_targets is_camina_group "
        "cd gcp_targets is_vz unique_nonlinear"))):
    """What `classify` finds: `nilpotency_class` is None for a group that is
    not nilpotent, `cd` is the set of character degrees, and the two target
    fields are lists.  Only `cd` reads the character table; every other
    field comes from class sizes and the normal subgroups."""

    __slots__ = ()


class CaminaInvariants(namedtuple(
        "CaminaInvariants", "order derived_order center_order z2_order")):
    """The order data |G|, |G'|, |Z(G)|, |Z_2(G)| driving the closed forms."""

    __slots__ = ()

    def index_center(self):
        return self.order // self.center_order


def invariants_of(G):
    z = groups.center(G)
    z2 = groups.zn(G, 2)
    return CaminaInvariants(
        G.order, groups.commutator_subgroup(G).order, z.order, z2.order)


# ---------------------------------------------------------------------------
# character-theoretic path


def _rational_row_sum(table, terms):
    """Reduce sum(coef * chi(g_j)) to an exact rational per class.

    `terms` is a list of (coef: Fraction, char index); returns per-class
    Fractions.
    """
    rows = table.sparse_rows
    return [cyclotomic.rational_sum(
                table.exponent, ((coef, rows[r][j], UNIT) for coef, r in terms))
            for j in range(table.classes.num_classes)]


def zeta_w2_frobenius(G, table):
    """zeta for [x1,x2]: the Frobenius sum, the recursion's first step."""
    return zeta_wn_char(G, table, 2)


def _as_integer_class_function(G, table, values, n):
    ints = []
    for v in values:
        if v.denominator != 1 or v < 0:
            raise InternalInconsistency(f"fiber count {v} is not a natural number")
        ints.append(v.numerator)
    cf = ClassFunction(G, table.classes, tuple(ints))
    if cf.total_mass() != G.order ** n:
        raise InternalInconsistency("character-path counts fail total mass")
    return cf


def _require_table_of(G, table):
    if table.group != G:
        raise MismatchedGroup("character table belongs to a different group")


def c_wn(G, table, chi, n):
    """C^{w_n}(chi) = <zeta^{w_{n-1}} chi, chi>: 1 for n = 2, |G|^{n-2} for
    a linear chi, else summed over zeta^{w_{n-1}} from the table's chain."""
    _require_table_of(G, table)
    if n == 2:
        return Fraction(1)
    if table.linear_mask[chi]:
        return Fraction(G.order ** (n - 2))
    zeta_prev = zeta_wn_char(G, table, n - 1).values
    norms = table.norm_rows[chi]
    total = cyclotomic.rational_sum(
        table.exponent,
        ((size * zj, norms[j], UNIT) for j, (size, zj)
         in enumerate(zip(table.classes.sizes, zeta_prev)) if zj))
    return total / G.order


def zeta_wn_char(G, table, n):
    """zeta^{w_n} by the recursion zeta^{w_k} = sum_chi |G| C^{w_k}(chi) /
    chi(1) * chi, k = 2, ..., n; each step runs once per table, extending
    `table.zeta_chain` = [zeta^{w_2}, zeta^{w_3}, ...]."""
    _require_table_of(G, table)
    if n < 2:
        raise PredicateFailed("the recursion starts at n = 2")
    chain = table.zeta_chain
    while len(chain) < n - 1:
        k = len(chain) + 2
        terms = [(G.order * c_wn(G, table, r, k) / table.degrees[r], r)
                 for r in range(table.num_characters)]
        chain.append(_as_integer_class_function(
            G, table, _rational_row_sum(table, terms), k))
    return chain[n - 2]


def bracket_word(w1, w2):
    """The word [w1(x1..xn), w2(x_{n+1}..x_m)] on disjoint variables."""
    shift = w1.arity
    l1 = list(w1.letters)
    l2 = [(v + shift, e) for v, e in w2.letters]
    return make_word(_invert(l1) + _invert(l2) + l1 + l2)


def zeta_mixed_theorem21(G, H, w1, w2, table=None):
    """Counts for [w1(vars in H), w2(vars in G)] via the character formula.

    Returns a per-element integer list over G.  Requires H normal and w2
    measure preserving with respect to G.
    """
    groups.require_subgroup_of(G, H)
    if not H.is_normal():
        raise NotNormal("H must be normal in G")
    if not counting.is_measure_preserving(G, w2):
        raise NotMeasurePreserving(
            f"word {w2} is not measure preserving on this group")
    if table is None:
        table = chartab.character_table(G)

    m = w1.arity + w2.arity
    zeta1 = counting.zeta_element_counts(
        G, w1, counting.DomainSpec((H,) * w1.arity))
    cls = table.classes.class_of
    e = table.exponent
    k = table.classes.num_classes

    # zeta1 summed over each G-class meeting H
    weights = [0] * k
    for g in H.members:
        weights[cls[g]] += zeta1[g]
    # coefficient of chi: |G|^(m-n-1) / chi(1) * |H| <zeta1 chi, chi>_H, the
    # last factor carried as exact cyclotomic terms (it need not be rational)
    scale = G.order ** (m - w1.arity - 1)
    scales = [Fraction(scale, d) for d in table.degrees]
    coefs = [cyclotomic.sparse_product_sum(
                 e, ((w, norms[j], UNIT) for j, w in enumerate(weights) if w))
             for norms in table.norm_rows]
    rows = table.sparse_rows
    per_class = []
    for j in range(k):
        v = cyclotomic.rational_sum(
            e, ((s, c, row[j]) for s, c, row in zip(scales, coefs, rows)))
        if v.denominator != 1 or v < 0:
            raise InternalInconsistency("mixed-domain count is not a natural number")
        per_class.append(v.numerator)
    counts = [per_class[cls[g]] for g in range(G.order)]
    if sum(counts) != (H.order ** w1.arity) * (G.order ** w2.arity):
        raise InternalInconsistency("mixed-domain counts fail total mass")
    return counts


# ---------------------------------------------------------------------------
# class predicates


def _nonlinear_vanish_off(G, N):
    """True iff G has a nonlinear character and every one vanishes off N.

    By column orthogonality, sum over nonlinear chi of |chi(g)|^2 is
    |C_G(g)| - |G:G'|, the linear characters contributing 1 each.  So every
    nonlinear character vanishes at g exactly when |C_G(g)| = |G:G'|, that
    is when |Cl(g)| = |G'|.  N is normal, so one class representative per
    class outside N decides it.
    """
    derived_order = groups.commutator_subgroup(G).order
    classes = groups.conjugacy_classes(G)
    return derived_order > 1 and all(
        size == derived_order
        for rep, size in zip(classes.reps, classes.sizes) if rep not in N)


def classify(G, table=None):
    """Structural predicates feeding the closed-form evaluators."""
    if table is None:
        table = chartab.character_table(G)
    z = groups.center(G)
    derived = groups.commutator_subgroup(G)

    normals = groups.normal_subgroups(G)
    camina_targets = [H for H in normals
                      if 1 < H.order < G.order and groups.is_camina_pair(G, H)]
    if any(not set(z.members) <= set(H.members) <= set(derived.members)
           for H in camina_targets):
        raise InternalInconsistency("Camina target outside Z(G)..G'")
    gcp_targets = [N for N in normals
                   if N.order < G.order and _nonlinear_vanish_off(G, N)]
    num_linear = G.order // derived.order
    return GroupClassReport(
        is_abelian=z.order == G.order,
        nilpotency_class=groups.nilpotency_class(G),
        camina_pair_targets=camina_targets,
        is_camina_group=any(H == derived for H in camina_targets),
        cd=set(table.degrees),
        gcp_targets=gcp_targets,
        is_vz=_nonlinear_vanish_off(G, z),
        unique_nonlinear=(
            groups.conjugacy_classes(G).num_classes - num_linear == 1),
    )


# ---------------------------------------------------------------------------
# closed forms
#
# Every family is a predicate on class data, a formula from the invariants
# to region values, and the one assembler `_assemble`.  The regions are
# "identity", "inner" (1 != g in the family's inner subgroup) and
# "derived_rest" (G' minus the inner subgroup); every count off G' is 0.


def _expect_int(v):
    v = Fraction(v)
    if v.denominator != 1 or v < 0:
        raise PredicateFailed(f"closed form produced non-natural value {v}")
    return v.numerator


def _regions(inv, n, inner_order, family, vals):
    """The region values as natural numbers, checked for total mass |G|^n:
    the inner region has inner_order - 1 elements, derived_rest the other
    |G'| - inner_order."""
    out = {k: _expect_int(v) for k, v in vals.items()}
    sizes = {"identity": 1, "inner": inner_order - 1,
             "derived_rest": inv.derived_order - inner_order}
    if sum(sizes[k] * v for k, v in out.items()) != inv.order ** n:
        raise InternalInconsistency(f"{family} closed form fails total mass")
    return out


def _assemble(G, inner, regions, n):
    """The ClassFunction taking each region's value on its classes."""
    derived = groups.commutator_subgroup(G)
    classes = groups.conjugacy_classes(G)
    vals = []
    for g in classes.reps:
        if g == 0:
            vals.append(regions["identity"])
        elif g in inner:
            vals.append(regions["inner"])
        elif g in derived:
            vals.append(regions["derived_rest"])
        else:
            vals.append(0)
    cf = ClassFunction(G, classes, tuple(vals))
    if cf.total_mass() != G.order ** n:
        raise InternalInconsistency("region class function fails total mass")
    return cf


def closed_gcp_center(inv, n):
    """Region values for a group with (G, Z(G)) a GCP; the inner subgroup
    is G' itself."""
    o, d, q = inv.order, inv.derived_order, inv.index_center()
    if n == 2:
        vals = {
            "identity": Fraction(o * o, d) * (1 + Fraction(d - 1, q)),
            "inner": Fraction(o * o, d) * (1 - Fraction(1, q)),
        }
    elif n >= 3:
        vals = {"identity": Fraction(o**n), "inner": Fraction(0)}
    else:
        raise PredicateFailed("n must be >= 2")
    return _regions(inv, n, d, "GCP", vals)


def camina3_parameters(inv):
    """(p, m) with |G:G'| = p^(2m), |G':Z| = p^m, m even; PredicateFailed
    if the invariants are not of Camina class-3 shape."""
    if inv.order % inv.derived_order or inv.derived_order % inv.center_order:
        raise PredicateFailed("orders do not divide as required")
    idx = inv.order // inv.derived_order
    mid = inv.derived_order // inv.center_order
    if idx != mid * mid:
        raise PredicateFailed("|G:G'| != |G':Z(G)|^2")
    pm = groups._prime_power(mid)
    if pm is None:
        raise PredicateFailed(f"|G':Z(G)| = {mid} is not a prime power")
    p, m = pm
    if m % 2:
        raise PredicateFailed(f"m = {m} is odd")
    return p, m


def closed_camina3(inv, n):
    """Region values for a Camina p-group of nilpotency class 3; the inner
    subgroup is gamma_3 = Z(G).  The n=3 identity value comes from the
    class-function form, which is the one satisfying total mass; the
    scalar display is available via camina3_identity_display."""
    camina3_parameters(inv)
    o, d, z = inv.order, inv.derived_order, inv.center_order
    if n == 2:
        vals = {
            "identity": Fraction(o * o, d) + Fraction(o * d, z) + o * (z - 2),
            "inner": Fraction(o * (o - d), d) + Fraction(o * (d - z), z),
            "derived_rest": Fraction(o * (o - d), d),
        }
    elif n == 3:
        lin = o // d
        coef_center = Fraction(o**3, d) + Fraction(o * o * (d - z), z)
        ident = (Fraction(o * o * lin)
                 + coef_center * (z - 1)
                 + Fraction(o**3, d) * (d // z - 1))
        vals = {
            "identity": ident,
            "inner": Fraction(o * o * (d - z) * (o - d), d * z),
            "derived_rest": Fraction(0),
        }
    else:
        raise PredicateFailed("closed form is stated for n in {2, 3}")
    return _regions(inv, n, z, "Camina class-3", vals)


def camina3_identity_display(inv):
    """The published scalar n=3 identity value (FLAGGED: fails total mass)."""
    o, d, z = inv.order, inv.derived_order, inv.center_order
    return Fraction(o**3 * (z * z + d - 1), z * d) \
        + Fraction(o * o * (d - z) * (z - 1), z)


def closed_camina_gcp_tower(inv, n):
    """Region values for (G, Z(G)) a Camina pair with (G/Z, Z(G/Z)) a GCP;
    the inner subgroup is Z(G)."""
    o, d, z, z2 = inv.order, inv.derived_order, inv.center_order, inv.z2_order
    if n == 2:
        # the identity value is |G| * #Irr(G); the bracket is |G'||Z|* #Irr(G)
        vals = {
            "identity":
                Fraction(o * (z * (o + d * (z - 1)) + z2 * (d - z)), d * z),
            "inner": Fraction(o * (z * (o - d) + z2 * (d - z)), d * z),
            "derived_rest": Fraction(o * (o - z2), d),
        }
    elif n == 3:
        vals = {
            "identity":
                Fraction(o * o * (o * z * z + (d - z) * (o + z2 * (z - 1))),
                         d * z),
            "inner": Fraction(o * o * (d - z) * (o - z2), d * z),
            "derived_rest": Fraction(0),
        }
    else:
        raise PredicateFailed("closed form is stated for n in {2, 3}")
    return _regions(inv, n, z, "Camina/GCP tower", vals)


def closed_zeta_gcp_center(G, n):
    """ClassFunction form of closed_gcp_center, with the predicate checked."""
    if not _nonlinear_vanish_off(G, groups.center(G)):
        raise PredicateFailed("(G, Z(G)) is not a GCP")
    return _assemble(G, groups.commutator_subgroup(G),
                     closed_gcp_center(invariants_of(G), n), n)


def closed_zeta_camina3(G, n):
    # class 3 first: then 1 < G' < G, as is_camina_pair requires
    if groups.nilpotency_class(G) != 3 or not groups.is_camina_pair(
            G, groups.commutator_subgroup(G)):
        raise PredicateFailed("not a Camina group of nilpotency class 3")
    if groups._prime_power(G.order) is None:
        raise PredicateFailed("not a p-group")
    gamma3 = groups.gamma(G, 3)
    if gamma3 != groups.center(G):
        raise PredicateFailed("gamma_3(G) != Z(G)")
    return _assemble(G, gamma3, closed_camina3(invariants_of(G), n), n)


def closed_zeta_tower(G, n):
    z = groups.center(G)
    if z.order <= 1 or z.order >= G.order or not groups.is_camina_pair(G, z):
        raise PredicateFailed("(G, Z(G)) is not a Camina pair")
    Q, _ = groups.quotient(G, z)
    if not _nonlinear_vanish_off(Q, groups.center(Q)):
        raise PredicateFailed("(G/Z, Z(G/Z)) is not a GCP")
    return _assemble(G, z, closed_camina_gcp_tower(invariants_of(G), n), n)


def unique_nonlinear_recursion(G, n):
    """(C^{w_n}(phi), zeta^{w_n}) for a group with one nonlinear character
    phi and a trivial center, |G| = p^m (p^m - 1), from class data alone.

    G has k - |G:G'| nonlinear characters, and the degree sum gives
    phi(1)^2 = |G| - |G:G'|; with phi(1) = p^m - 1 that makes |G:G'| =
    phi(1).  Column orthogonality against the linear characters then puts
    phi = -1 on G' minus 1 and phi = 0 off G', so zeta^{w_n} = |G|^n/|G'|
    on G' plus |G| C^{w_n}(phi)/phi(1) phi: the inner subgroup is G'.
    """
    if n < 2:
        raise PredicateFailed("recursion starts at n = 2")
    derived = groups.commutator_subgroup(G)
    num_linear = G.order // derived.order
    nonlinear = groups.conjugacy_classes(G).num_classes - num_linear
    if nonlinear == 0:
        raise PredicateFailed("group has no nonlinear character")
    if nonlinear > 1:
        raise PredicateFailed("group has more than one nonlinear character")
    if groups.center(G).order != 1:
        raise PredicateFailed("center is not trivial")
    pm = math.isqrt(G.order - num_linear) + 1
    if groups._prime_power(pm) is None:
        raise PredicateFailed(f"phi(1)+1 = {pm} is not a prime power")
    if G.order != pm * (pm - 1):
        raise PredicateFailed("|G| != p^m (p^m - 1)")
    o, d = G.order, derived.order
    c = Fraction(1)
    for k in range(3, n + 1):
        c = Fraction(o ** (k - 1), d) + Fraction(o, pm - 1) * c * (pm - 2)
    c = _expect_int(c)
    regions = _regions(invariants_of(G), n, d, "unique-nonlinear", {
        "identity": Fraction(o**n, d) + o * c,
        "inner": appl_offidentity_value(o, d, pm, c, n)})
    return c, _assemble(G, derived, regions, n)


def appl_identity_value(order, derived_order, pm, n=3):
    """Identity count for the unique-nonlinear family, from the published
    n=3 scalar form (which is consistent)."""
    if n != 3:
        raise PredicateFailed("the scalar display is stated for n = 3")
    v = Fraction(2 * order**3, derived_order) \
        + Fraction(order * order * (pm - 2), pm - 1)
    return _expect_int(v)


def appl_offidentity_display(order, derived_order, pm):
    """The published n=3 off-identity value (FLAGGED: can be negative).

    Returns None in the degenerate p^m = 2 case where the display divides
    by zero.
    """
    if pm == 2:
        return None
    return Fraction(order**3, derived_order) \
        - Fraction(order * order, pm - 2) \
        * (Fraction(order, derived_order) + Fraction(pm - 2, pm - 1))


def appl_offidentity_value(order, derived_order, pm, c_n, n=3):
    """Off-identity count on G' from C^{w_n}(phi): |G|^n/|G'| - |G| C/phi(1)."""
    return _expect_int(Fraction(order**n, derived_order)
                       - Fraction(order, pm - 1) * c_n)


# ---------------------------------------------------------------------------
# remaining predicates and bounds


def cd2_bound_check(G, table, N, n):
    """Check C^{w_n}(chi) <= m |G|^{n-1} / |N| for every nonlinear chi.

    Preconditions: n >= 3, cd(G) = {1, m} with m = |G : N|, N abelian and
    normal, and every nonlinear character induced from N (verified through
    vanishing off N and <chi|N, chi|N>_N = m).
    """
    groups.require_subgroup_of(G, N)
    if n < 3:
        raise PredicateFailed("the bound is stated for n >= 3")
    m = G.order // N.order
    if set(table.degrees) != {1, m}:
        raise PredicateFailed(f"cd(G) != {{1, {m}}}")
    if not N.is_normal():
        raise PredicateFailed("N is not normal")
    if any(G.mul[a][b] != G.mul[b][a] for a in N.members for b in N.members):
        raise PredicateFailed("N is not abelian")
    if m > 1 and not _nonlinear_vanish_off(G, N):
        raise PredicateFailed("a nonlinear character does not vanish off N")
    for r in table.nonlinear_indices():
        if chartab.inner_product_on(table, N, r, r) != m:
            raise PredicateFailed(
                f"character {r} is not induced from N")
    bound = Fraction(m * G.order ** (n - 1), N.order)
    out = []
    for r in table.nonlinear_indices():
        c = c_wn(G, table, r, n)
        if c > bound:
            raise CheckFailed(f"C^w_n({r}) = {c} exceeds bound {bound}")
        out.append((r, c, bound))
    return out


def verify_camina_pair_structure(G, table):
    """Check the three consequences of (G, Z(G)) being a Camina pair."""
    z = groups.center(G)
    if z.order <= 1 or z.order >= G.order or not groups.is_camina_pair(G, z):
        raise PredicateFailed("(G, Z(G)) is not a Camina pair")
    _, moved = chartab.irr_given(G, z, table)
    if len(moved) != z.order - 1:
        raise CheckFailed(
            f"|Irr(G|Z)| = {len(moved)}, expected |Z|-1 = {z.order - 1}")
    idx = G.order // z.order
    outside = [j for j, rep in enumerate(table.classes.reps) if rep not in z]
    for r in moved:
        if table.degrees[r] ** 2 != idx:
            raise CheckFailed(
                f"character {r} has degree {table.degrees[r]}, "
                f"expected |G:Z|^(1/2)")
        if not all(table.values[r][j].is_zero() for j in outside):
            raise CheckFailed(f"character {r} does not vanish off Z(G)")
    degree = math.isqrt(idx)
    if degree * degree != idx:
        raise CheckFailed(f"|G:Z(G)| = {idx} is not a square")
    return {"irr_given_center": moved, "degree": degree}
