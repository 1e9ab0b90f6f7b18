"""Character-theoretic and closed-form evaluators for iterated commutators.

The character path sums over a `chartab.CharacterTable`.  The closed forms
read class data only (the classes and the orders of G, Z(G), G' and
Z_2(G)), never a character table, so they check the character path and
the brute-force oracle in `counting` independently.  Two of the source
displays disagree with their own general forms under exact substitution;
those are resolved in favor of the values that satisfy the forced
total-mass identity (see FLAG_* below and the `verify` report's FLAGGED
lines).

The module imports `chartab` and `cyclotomic` only inside the code that
builds a table or sums over one, so a closed-form request does not
compile the table engine.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from operator import mul

from . import groups
from .errors import (
    InternalInconsistency,
    MismatchedGroup,
    NotMeasurePreserving,
    NotNormal,
    PredicateFailed,
)
from .groups import ClassFunction

FLAG_CAMINA3_IDENTITY = "camina3-identity-display"
FLAG_UNIQUE_NL_OFFIDENTITY = "unique-nonlinear-offidentity-display"


class GroupClassReport(namedtuple("GroupClassReport", (
        "is_abelian nilpotency_class is_camina_group cd is_vz "
        "unique_nonlinear"))):
    """What `classify` finds: `nilpotency_class` is None for a group that is
    not nilpotent, and `cd` is the set of character degrees.  Only `cd`
    reads the character table; every other field comes from class sizes
    and the subgroups Z(G) and G'."""

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


def zeta_w2_frobenius(G, table):
    """zeta for [x1,x2]: the Frobenius sum, the recursion's first step."""
    return zeta_wn_char(G, table, 2)


def _as_integer_class_function(G, table, numerators, den, n):
    """The class function numerators / den, checked to be natural numbers
    of total mass |G|^n."""
    ints = []
    for num in numerators:
        q, rem = divmod(num, den)
        if rem or q < 0:
            raise InternalInconsistency(
                f"fiber count {Fraction(num, den)} is not a natural number")
        ints.append(q)
    cf = ClassFunction(G, table.classes, tuple(ints))
    if cf.total_mass() != G.order ** n:
        raise InternalInconsistency("character-path counts fail total mass")
    return cf


def _require_table_of(G, table):
    if table.group != G:
        raise MismatchedGroup("character table belongs to a different group")


def c_wn(G, table, chi, n):
    """C^{w_n}(chi) = <zeta^{w_{n-1}} chi, chi>: 1 for n = 2, |G|^{n-2} for
    a linear chi, else summed over zeta^{w_{n-1}} from the table's chain;
    `_orbit_coefficient`'s fraction times chi(1) / |G|.

    C is constant on each Galois orbit O.  zeta^{w_{n-1}} is rational-valued,
    so sigma(C(chi)) = C(sigma chi) for every Galois automorphism sigma.
    By induction from zeta^{w_2} = sum_chi |G|/chi(1) chi, zeta^{w_{n-1}}
    is a sum of characters with coefficients constant on Galois orbits, so
    it is constant on rational classes; and sigma_u chi = chi o pi_u with
    pi_u a size-preserving bijection of the classes, so C(sigma_u chi) =
    C(chi).  Hence C(chi) is the orbit mean
    sum_j |C_j| zeta^{w_{n-1}}(g_j) N_O(j) / (|O| |G|), with N_O(j) the
    integer sum of |psi(g_j)|^2 over psi in O."""
    _require_table_of(G, table)
    if n < 2:
        raise PredicateFailed("the recursion starts at n = 2")
    if n > 2:
        zeta_wn_char(G, table, n - 1)
    d = table.degrees[chi]
    a, b = _orbit_coefficient(G, table, table.galois_orbits[chi][0], n)
    return Fraction(a * d, b * G.order)


def _orbit_coefficient(G, table, r, k):
    """(a, b) with a / b = |G| C^{w_k}(chi) / chi(1) for chi in the Galois
    orbit of character r: (|G|, chi(1)) at k = 2, (|G|^{k-1}, 1) for a
    linear chi, else (sum_j |C_j| zeta^{w_{k-1}}(g_j) N_O(j), |O| chi(1)).
    The last reads zeta^{w_{k-1}} from `table.zeta_chain`."""
    d = table.degrees[r]
    if k == 2:
        return G.order, d
    if d == 1:
        return G.order ** (k - 1), 1
    orbit = table.orbit_sums[r]
    zeta_prev = table.zeta_chain[k - 3].values
    return orbit.norm_sum(table.classes.sizes, zeta_prev), orbit.size * d


def zeta_wn_char(G, table, n):
    """zeta^{w_n} by the recursion zeta^{w_k} = sum_chi |G| C^{w_k}(chi) /
    chi(1) * chi, k = 2, ..., n; each step runs once per table, extending
    `table.zeta_chain` = [zeta^{w_2}, zeta^{w_3}, ...].

    C^{w_k} and chi(1) are constant on each Galois orbit O (see `c_wn`), so
    a step is sum_O |G| C^{w_k}(chi_O) / chi_O(1) * T_O, with T_O the
    integer row of sum_{chi in O} chi: one integer fraction per nonlinear
    orbit from `_orbit_coefficient`, summed as integers over one common
    denominator.  Every linear chi has |G| C^{w_k}(chi) / chi(1) =
    |G|^{k-1}, so the linear characters add the one term |G|^{k-1}
    `table.linear_sum`: |G|^k / |G'| on G' and 0 off it."""
    _require_table_of(G, table)
    if n < 2:
        raise PredicateFailed("the recursion starts at n = 2")
    chain = table.zeta_chain
    while len(chain) < n - 1:
        k = len(chain) + 2
        numerators, den = _orbit_combination(table, G.order ** (k - 1), [
            _orbit_coefficient(G, table, r, k) for r in table.orbit_sums])
        chain.append(_as_integer_class_function(G, table, numerators, den, k))
    return chain[n - 2]


def _orbit_combination(table, linear, coefs):
    """(numerators, den) with linear * L(j) + sum_O a_O / b_O * T_O(j) =
    numerators[j] / den, L = `table.linear_sum`, for the integer pairs
    (a_O, b_O) in the order of `table.orbit_sums` (the nonlinear orbits),
    over one common denominator."""
    den = math.lcm(*[b for _, b in coefs])
    weights = [linear * den] + [a * (den // b) for a, b in coefs]
    columns = zip(table.linear_sum,
                  *[orbit.traces for orbit in table.orbit_sums.values()])
    return [sum(map(mul, weights, column)) for column in columns], den


def bracket_word(w1, w2):
    """The word [w1(x1..xn), w2(x_{n+1}..x_m)] on disjoint variables."""
    from .words import commutator, make_word

    return make_word(commutator(list(w1.letters), [
        (v + w1.arity, e) for v, e in w2.letters]))


def has_lone_letter(word):
    """True iff some variable occurs in exactly one letter of the reduced
    word, with exponent 1 or -1.  Then w = A x_v^{+-1} B with A and B free
    of x_v, so for any values of the other variables w is a bijection in
    x_v: on every group every fiber has |G|^(arity-1) elements, and w is
    measure preserving."""
    occurrences = Counter(v for v, _ in word.letters)
    return any(occurrences[v] == 1 and e in (1, -1) for v, e in word.letters)


def zeta_mixed_theorem21(G, H, w1, w2, table=None):
    """Counts for [w1(vars in H), w2(vars in G)] via the character formula.

    Returns a per-element integer list over G.  Requires H normal and w2
    measure preserving with respect to G, which `has_lone_letter` settles
    without counting when it applies; otherwise the fibers of w2 are
    counted.  With n variables in w1 and m in the bracket, and
    Galois-stable class weights, the linear characters add one term,
    |G|^(m-n-1) |H|^n `table.linear_sum`: |G|^(m-n) |H|^n / |G'| on G' and
    0 off it.
    """
    from . import chartab, counting, cyclotomic

    groups.require_subgroup_of(G, H)
    if not H.is_normal():
        raise NotNormal("H must be normal in G")
    if not has_lone_letter(w2) and not counting.is_measure_preserving(G, w2):
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
    # last factor sum_j w_j |chi(g_j)|^2.  For weights fixed by the power
    # maps it is the same on each Galois orbit O, and rational, so it is
    # c_O = sum_j w_j N_O(j) / |O| and the orbit adds up to T_O; on a
    # linear chi it is sum_j w_j, and the linear characters add up to
    # `table.linear_sum`.  For other weights it is carried as exact
    # cyclotomic terms per character, and it is real, so pairing it with
    # the rows through the Hermitian kernel gives the same rational counts.
    scale = G.order ** (m - w1.arity - 1)
    if chartab.galois_stable(table, weights):
        numerators, den = _orbit_combination(table, scale * sum(weights), [
            (scale * sum(map(mul, weights, orbit.norms)),
             orbit.size * table.degrees[r])
            for r, orbit in table.orbit_sums.items()])
    else:
        rows = table.sparse_rows
        coefs = []
        for d, row in zip(table.degrees, rows):
            acc, den = cyclotomic.product_sum(
                e, ((w, row[j], row[j]) for j, w in enumerate(weights) if w))
            coefs.append((Fraction(scale, d * den),
                          tuple((i, c) for i, c in enumerate(acc) if c)))
        numerators, den = [cyclotomic.rational_sum(
                               e, ((s, c, row[j])
                                   for (s, c), row in zip(coefs, rows)))
                           for j in range(k)], 1
    if any(v % den or v < 0 for v in numerators):
        raise InternalInconsistency("mixed-domain count is not a natural number")
    per_class = [v // den for v in numerators]
    counts = [per_class[c] for c in cls]
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


def _is_camina_group(G):
    """True iff (G, G') is a Camina pair, which needs 1 < |G'| < |G|.

    Every conjugate g^x = g [g, x] lies in gG', so Cl(g) is inside gG' and
    equals it exactly when |Cl(g)| = |G'|: (G, G') is a Camina pair iff
    every class outside G' has size |G'|, which `_nonlinear_vanish_off`
    decides (and it needs |G'| > 1)."""
    derived = groups.commutator_subgroup(G)
    return derived.order < G.order and _nonlinear_vanish_off(G, derived)


def classify(G, table=None):
    """Structural predicates feeding the closed-form evaluators.

    G is a Camina group when (G, G') is a Camina pair.  A Camina pair
    (G, H) has Z(G) <= H: for z central and outside H, zH in Cl(z) = {z}
    forces H = 1.  That is checked for H = G'."""
    if table is None:
        from . import chartab
        table = chartab.character_table(G)
    z = groups.center(G)
    derived = groups.commutator_subgroup(G)
    is_camina = _is_camina_group(G)
    if is_camina and not set(z.members) <= set(derived.members):
        raise InternalInconsistency("Camina group with Z(G) outside G'")
    num_linear = G.order // derived.order
    return GroupClassReport(
        is_abelian=z.order == G.order,
        nilpotency_class=groups.nilpotency_class(G),
        is_camina_group=is_camina,
        cd=set(table.degrees),
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
    """v as a natural number.  A closed form's values are counts once its
    predicate holds, so any other value is a fault of the form, not a sign
    that its family does not apply."""
    v = Fraction(v)
    if v.denominator != 1 or v < 0:
        raise InternalInconsistency(
            f"closed form produced non-natural value {v}")
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
    if groups.nilpotency_class(G) != 3 or not _is_camina_group(G):
        raise PredicateFailed("not a Camina group of nilpotency class 3")
    if groups._prime_power(G.order) is None:
        raise PredicateFailed("not a p-group")
    gamma3 = groups.gamma(G, 3)
    if gamma3 != groups.center(G):
        raise PredicateFailed("gamma_3(G) != Z(G)")
    return _assemble(G, gamma3, closed_camina3(invariants_of(G), n), n)


def closed_zeta_tower(G, n):
    """ClassFunction form of closed_camina_gcp_tower, with the predicate
    decided on G itself, building no quotient.  Let (G, Z) be a Camina
    pair, Z = Z(G).  For g outside Z, gZ lies in Cl(g), so Z <= G' and
    (G/Z)' = G'/Z; and Cl(g) holds hZ = (gZ)^x for each h = g^x, so
    |Cl(g)| = |Z| |Cl_{G/Z}(gZ)|.  With Z(G/Z) = Z_2(G)/Z, (G/Z, Z(G/Z))
    is a GCP exactly when |G'| > |Z| and every class of G outside Z_2(G)
    has |G'| elements, which `_nonlinear_vanish_off` decides."""
    z = groups.center(G)
    if z.order <= 1 or z.order >= G.order or not groups.is_camina_pair(G, z):
        raise PredicateFailed("(G, Z(G)) is not a Camina pair")
    if groups.commutator_subgroup(G).order <= z.order or \
            not _nonlinear_vanish_off(G, groups.zn(G, 2)):
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


def closed_form_zeta(G, n):
    """zeta^{w_n} from the first closed form whose predicate the group
    passes; PredicateFailed, with every form's reason after its family's
    name, if none does."""
    forms = (("GCP", closed_zeta_gcp_center),
             ("unique-nonlinear",
              lambda G, n: unique_nonlinear_recursion(G, n)[1]),
             ("Camina class-3", closed_zeta_camina3),
             ("Camina/GCP tower", closed_zeta_tower))
    reasons = []
    for family, form in forms:
        try:
            return form(G, n)
        except PredicateFailed as exc:
            reasons.append(f"{family}: {exc}")
    raise PredicateFailed("no closed form applies: " + "; ".join(reasons))


def appl_identity_value(order, derived_order, pm):
    """Identity count for the unique-nonlinear family, from the published
    n=3 scalar form (which is consistent)."""
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
