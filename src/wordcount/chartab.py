"""Exact ordinary character tables.

The table is computed by the prime-field method: simultaneous eigenvectors
of the sparse class-sum matrices over F_p (p = 1 mod exponent,
p > 2 sqrt|G|) give the central characters mod p, and discrete-Fourier
multiplicity counts lift each value to an exact cyclotomic integer.  The
row orthogonality relations are then verified exactly, and they imply the
column relations: the table is square, so X D X* = |G| I (D the diagonal
of class sizes) gives X* X = |G| D^-1.  A failure is a bug, not a data
condition.

Galois orbits.  For u prime to the exponent, sigma_u chi = chi o pi_u,
where pi_u maps the class of g to the class of g^u.  By Brauer's
permutation lemma the orbits of Irr(G) under these maps are as many as
the rational classes (which the code checks).  So one character per orbit
is lifted, and the rest of its orbit reads the same values through pi_u.
pi_u is a bijection that keeps class sizes, so
<chi o pi_u, psi o pi_u> = <chi, psi>: once the rows are known to be
distinct and closed under every pi_u, checking each orbit representative
against every row checks every pair.

Every rational character sum here (the orthogonality checks, inner
products, Frobenius-Schur indicators) goes through the sparse integer
kernel in `cyclotomic`: a table keeps each value's nonzero terms, and its
conjugates and squared norms, computed once per table.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import cyclotomic, groups
from .cyclotomic import UNIT, Cyclotomic
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    MismatchedGroup,
    NonIntegral,
    NotNormal,
    OrderLimitExceeded,
    ParseError,
)
from .groups import ClassFunction


class CharacterTable:
    """Values are character x class; equal tables agree in every field.

    No `__slots__`: the `cached_property` rows live in the instance dict.
    """

    def __init__(self, group, classes, exponent, values, degrees):
        self.group = group
        self.classes = classes
        self.exponent = exponent
        self.values = values  # k x k of Cyclotomic
        self.degrees = degrees
        self.linear_mask = tuple(d == 1 for d in degrees)

    def _fields(self):
        return (self.group, self.classes, self.exponent, self.values,
                self.degrees)

    def __eq__(self, other):
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def num_characters(self):
        return len(self.degrees)

    def linear_indices(self):
        return [r for r, lin in enumerate(self.linear_mask) if lin]

    def nonlinear_indices(self):
        return [r for r, lin in enumerate(self.linear_mask) if not lin]

    @cached_property
    def sparse_rows(self):
        """Per character and class, the value's nonzero (exponent, coeff) terms."""
        e = self.exponent
        memo = {}
        for row in self.values:
            for v in row:
                if v.coeffs not in memo:
                    memo[v.coeffs] = cyclotomic.terms(e, v)
        return tuple(tuple([memo[v.coeffs] for v in row])
                     for row in self.values)

    @cached_property
    def conjugate_rows(self):
        """The terms of each value's complex conjugate."""
        e = self.exponent
        return tuple(tuple(cyclotomic.conjugate_terms(e, t) for t in row)
                     for row in self.sparse_rows)

    @cached_property
    def norm_rows(self):
        """The terms of |chi_r(g_j)|^2, per character and class."""
        e = self.exponent
        return tuple(
            tuple(cyclotomic.sparse_product_sum(e, [(1, a, b)])
                  for a, b in zip(row, conj))
            for row, conj in zip(self.sparse_rows, self.conjugate_rows))

    @cached_property
    def zeta_chain(self):
        """[zeta^{w_2}, zeta^{w_3}, ...], extended by `formulas.zeta_wn_char`."""
        return []


# ---------------------------------------------------------------------------
# modular linear algebra helpers


def _rref(rows, p):
    """Row-reduce over F_p; returns (rref rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _coords(v, basis, pivots, p):
    """Coordinates of v in an RREF basis (v must lie in its span)."""
    v = list(v)
    out = []
    for row, c in zip(basis, pivots):
        f = v[c] % p
        out.append(f)
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    if any(x % p for x in v):
        raise InternalInconsistency("vector outside subspace during splitting")
    return out


def _kernel(X, p):
    """A basis of the nullspace of the square matrix X over F_p."""
    n = len(X)
    R, pivots = _rref(X, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis


def _charpoly(X, p):
    """Characteristic polynomial of X over F_p, low-to-high coefficients."""
    n = len(X)
    H = [[v % p for v in row] for row in X]
    # reduce to upper Hessenberg form by similarity
    for i in range(1, n - 1):
        piv = next((r for r in range(i, n) if H[r][i - 1]), None)
        if piv is None:
            continue
        if piv != i:
            H[i], H[piv] = H[piv], H[i]
            for row in H:
                row[i], row[piv] = row[piv], row[i]
        inv = pow(H[i][i - 1], p - 2, p)
        for r in range(i + 1, n):
            f = (H[r][i - 1] * inv) % p
            if f:
                H[r] = [(a - f * b) % p for a, b in zip(H[r], H[i])]
                for row in H:
                    row[i] = (row[i] + f * row[r]) % p
    # determinant recurrence for Hessenberg matrices
    polys = [[1]]
    for m in range(1, n + 1):
        hmm = H[m - 1][m - 1]
        prev = polys[m - 1]
        poly = [0] + prev  # x * p_{m-1}
        poly = [(a - hmm * b) % p for a, b in zip(poly, prev + [0])]
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = (prod * H[i][i - 1]) % p
            c = (H[i - 1][m - 1] * prod) % p
            if c:
                pi = polys[i - 1]
                for j, a in enumerate(pi):
                    poly[j] = (poly[j] - c * a) % p
        polys.append(poly)
    return polys[n]


def _poly_roots(poly, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _smallest_dixon_prime(order, exponent):
    bound = 2 * math.isqrt(order) + 1
    p = exponent + 1
    while True:
        if p > bound and (p - 1) % exponent == 0 and groups._is_prime(p):
            return p
        p += 1


def _primitive_root(p):
    factors = groups._prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InternalInconsistency("no primitive root found")


# ---------------------------------------------------------------------------
# Dixon's method


def class_mult_coefficients(G, classes):
    """a[i][c]: the nonzero (m, a_icm) pairs in rising m, where a_icm is
    the number of (x, y) in C_i x C_c with x*y = rep(C_m)."""
    k = classes.num_classes
    class_of = classes.class_of
    mul = G.mul
    a = [[[] for _ in range(k)] for _ in range(k)]
    for m, z in enumerate(classes.reps):
        # y = x^-1 z, listed in the order of x
        ys = [class_of[mul[x_inv][z]] for x_inv in G.inv]
        for (i, c), count in Counter(zip(class_of, ys)).items():
            a[i][c].append((m, count))
    return a


# Most classes a table is computed for.  Computing and verifying take
# 4-5 s CPU for D1000 (k = 253) and about 35 s for D2000 (k = 503) on 2
# vCPUs with Python 3.11, growing about as k^3.  The refusal's estimate
# scales the D2000 time that way; at the bound it reads 37 s.
MAX_TABLE_CLASSES = 512


@groups.structure_memo
def character_table(G):
    """The exactly verified character table of G."""
    cap = groups.DEFAULT_ORDER_CAP
    if G.order > cap:
        raise OrderLimitExceeded(f"|G| = {G.order} exceeds cap {cap}")
    classes = groups.conjugacy_classes(G)
    k = classes.num_classes
    if k > MAX_TABLE_CLASSES:
        raise BudgetExceeded(
            f"{k} classes exceed the character-table bound "
            f"{MAX_TABLE_CLASSES} (estimated {35 * (k / 503) ** 3:.0f} s)")
    table = _compute_table(G, classes)
    _verify_table(G, table)
    return table


@groups.structure_memo
def _galois_maps(G):
    """The power maps pi_u (class c -> the class of g_c^u) for units u
    that generate (Z/e)^*, less repeats and the identity, so none when
    every rational class is one class.  Each pi_u is a size-preserving
    bijection of the classes, and pi_uv = pi_u o pi_v."""
    rational = groups.rational_classes(G)
    k = groups.conjugacy_classes(G).num_classes
    if len(rational) == k:
        return ()
    where = [None] * k
    for rc in rational:
        for c, a in rc.generators:
            where[c] = (rc.powers, a)
    e = G.exponent()
    maps, reached = [], {1}
    for u in range(2, e):
        if u in reached or math.gcd(u, e) != 1:
            continue
        step, grown = u, set(reached)
        while step != 1:  # reached * <u>
            grown.update(x * step % e for x in reached)
            step = step * u % e
        reached = grown
        pi = tuple(powers[a * u % len(powers)] for powers, a in where)
        if pi != tuple(range(k)) and pi not in maps:
            maps.append(pi)
    return tuple(maps)


def _orbits(maps, keys):
    """orbit[s] = (r, perm) with keys[s] = keys[r] o perm, r the first index
    of its orbit under the power maps; None if the keys repeat or are not
    closed under the maps (and so under the group they generate)."""
    index = {key: s for s, key in enumerate(keys)}
    if len(index) != len(keys):
        return None
    orbit = [None] * len(keys)
    for r, key in enumerate(keys):
        if orbit[r] is not None:
            continue
        orbit[r] = (r, tuple(range(len(key))))
        frontier = [r]
        while frontier:
            s = frontier.pop()
            perm = orbit[s][1]
            for pi in maps:
                t = index.get(tuple([keys[s][c] for c in pi]))
                if t is None:
                    return None
                if orbit[t] is None:
                    orbit[t] = (r, tuple([perm[c] for c in pi]))
                    frontier.append(t)
    return orbit


def _brauer_check(G, orbit):
    """Brauer's permutation lemma: the orbits number the rational classes."""
    reps = sum(1 for s, (r, _) in enumerate(orbit) if r == s)
    rational = len(groups.rational_classes(G))
    if reps != rational:
        raise InternalInconsistency(
            f"{reps} Galois orbits of characters but {rational} rational "
            "classes")


def _compute_table(G, classes):
    """Dixon's table: central characters mod p from the class matrices'
    common eigenvectors, then one character per Galois orbit lifted once
    per rational class and carried to the rest of its orbit by the power
    maps.  The trivial group takes the same path."""
    n = G.order
    k = classes.num_classes
    e = G.exponent()
    p = _smallest_dixon_prime(n, e)
    a = class_mult_coefficients(G, classes)
    rational = groups.rational_classes(G)

    # Split the simultaneous eigenspaces of the class matrices, low element
    # orders first: such a class matrix has few eigenvalues, and each
    # eigenvalue costs one kernel.  Over C, omega_chi(K_{pi_u(c)}) =
    # sigma_u(omega_chi(K_c)), so the first class of each rational class
    # splits as far as the rest of it; they follow in case p merges values.
    by_order = sorted(rational, key=lambda rc: len(rc.powers))
    split_order = [rc.first for rc in by_order[1:]] + [
        c for rc in by_order for c, _ in rc.generators if c != rc.first]
    identity = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    subspaces = [(identity, list(range(k)))]
    for i in split_order:
        if all(len(B) == 1 for B, _ in subspaces):
            break
        M = a[i]
        nxt = []
        for B, piv in subspaces:
            m = len(B)
            if m == 1:
                nxt.append((B, piv))
                continue
            # restricted action X with rows: M . b expressed in basis B
            images = [[sum([v * b[j] for j, v in row]) % p for row in M]
                      for b in B]
            X = [_coords(img, B, piv, p) for img in images]
            lam = X[0][0]
            if all(X[r][s] == (lam if r == s else 0)
                   for r in range(m) for s in range(m)):
                nxt.append((B, piv))  # one eigenvalue: nothing to split
                continue
            # transpose convention: b_r -> sum_s X[r][s] b_s; eigenvectors of X^T
            XT = [list(col) for col in zip(*X)]
            for lam in _poly_roots(_charpoly(XT, p), p):
                shifted = [[(XT[r][c] - (lam if r == c else 0)) % p
                            for c in range(m)] for r in range(m)]
                lifted = [[sum(map(mul, kv, col)) % p for col in zip(*B)]
                          for kv in _kernel(shifted, p)]
                if lifted:
                    nxt.append(_rref(lifted, p))
        if sum(len(B) for B, _ in nxt) != k:
            raise InternalInconsistency("eigenspace splitting lost dimensions")
        subspaces = nxt

    if not all(len(B) == 1 for B, _ in subspaces):
        raise InternalInconsistency("class matrices failed to split the algebra")

    omegas = []
    for B, _ in subspaces:
        u = B[0]
        if u[0] % p == 0:
            raise InternalInconsistency("central character vanishes at identity")
        norm = pow(u[0], p - 2, p)
        omegas.append(tuple((v * norm) % p for v in u))

    # sigma_u chi = chi o pi_u, and its central character is omega o pi_u
    # (pi_u keeps class sizes), so the orbits are found mod p.
    orbit = _orbits(_galois_maps(G), omegas)
    if orbit is None:
        raise InternalInconsistency(
            "central characters are not closed under the power maps")
    _brauer_check(G, orbit)

    inv_sizes = [pow(s, p - 2, p) for s in classes.sizes]
    inv_class = classes.inverse_class
    # inverse_roots[o][i] = zeta_o^(-i) mod p
    z = _primitive_root(p)
    inverse_roots = {}
    for o in {len(rc.powers) for rc in rational}:
        zinv = pow(z, (p - 1) - (p - 1) // o, p)
        inverse_roots[o] = [pow(zinv, i, p) for i in range(o)]
    inv_orders = {o: pow(o, p - 2, p) for o in inverse_roots}

    interned = {}  # coefficients -> (Cyclotomic, reduced), shared by rows
    lifts = {}  # orbit representative -> (degree, values, reduced values)
    for r, (rep, _) in enumerate(orbit):
        if r != rep:
            continue
        om = omegas[r]
        # degree from the second orthogonality of central characters
        s = sum(om[m] * om[inv_class[m]] * inv_sizes[m] for m in range(k)) % p
        d2 = (n * pow(s, p - 2, p)) % p
        d = next((x for x in range(1, (p + 1) // 2) if (x * x) % p == d2), None)
        if d is None:
            raise InternalInconsistency("character degree is not a square mod p")
        chi_mod = [(d * om[m] * inv_sizes[m]) % p for m in range(k)]
        # If h is conjugate to g^a with gcd(a, o(g)) = 1, then chi(h) is
        # chi(g) with zeta_o^t sent to zeta_o^(ta), so one Fourier lift per
        # rational class serves every class in it.
        values = [None] * k
        for _, power_class, generators in rational:
            o = len(power_class)
            roots = inverse_roots[o]
            inv_o = inv_orders[o]
            powers = [(s, chi_mod[c]) for s, c in enumerate(power_class)
                      if chi_mod[c]]
            # mu_t = (1/o) sum_s chi(g^s) zeta_o^(-st)
            mus = [sum([v * roots[s * t % o] for s, v in powers]) * inv_o % p
                   for t in range(o)]
            if max(mus) > d:
                raise InternalInconsistency("root multiplicity exceeds degree")
            step = e // o
            for c, a in generators:
                coeffs = [0] * e
                for t, mu in enumerate(mus):
                    if mu:
                        coeffs[t * a % o * step] += mu
                coeffs = tuple(coeffs)
                if coeffs not in interned:
                    v = Cyclotomic(e, coeffs)
                    interned[coeffs] = (v, v.reduced())
                values[c] = interned[coeffs]
        lifts[r] = (d, [v for v, _ in values], [red for _, red in values])

    # Row sigma_u chi at class c is row chi at pi_u(c): both are the
    # eigenvalue multiset of rho(g_c^u), so the coefficient tuples agree.
    rows = []
    for rep, perm in orbit:
        d, values, reduced = lifts[rep]
        rows.append((d, tuple([reduced[c] for c in perm]),
                     tuple([values[c] for c in perm])))
    # canonical ordering: by degree, then by reduced value vectors
    rows.sort(key=lambda r: r[:2])
    degrees = tuple(r[0] for r in rows)
    values = tuple(r[2] for r in rows)
    return CharacterTable(G, classes, e, values, degrees)


def _verify_table(G, table):
    """Degrees, row orthogonality and the linear-character count, exactly.

    When the rows are distinct and closed under the power maps pi_u,
    <chi o pi_u, psi o pi_u> = <chi, psi> (pi_u is a size-preserving
    bijection on classes), so checking each orbit representative against
    every row covers all pairs; otherwise every pair is checked."""
    n = G.order
    k = table.num_characters
    e = table.exponent
    sizes = table.classes.sizes
    rows, conj = table.sparse_rows, table.conjugate_rows
    if sum(d * d for d in table.degrees) != n:
        raise InternalInconsistency("sum of squared degrees != |G|")
    for d in table.degrees:
        if d < 1 or n % d != 0:
            raise InternalInconsistency(f"degree {d} does not divide |G|")

    def holds(products, want):
        try:
            return cyclotomic.rational_sum(e, products) == want
        except NonIntegral:
            return False

    maps = _galois_maps(G)
    orbit = _orbits(maps, rows) if maps else None
    if orbit is None:
        is_rep = [True] * k
    else:
        _brauer_check(G, orbit)
        is_rep = [r == s for s, (r, _) in enumerate(orbit)]
    # The callers guarantee a square table (k characters, k classes), so
    # the row relations imply the column relations; see the module docstring.
    for r in range(k):
        if not is_rep[r]:
            continue
        for s in range(k):
            if s < r and is_rep[s]:
                continue  # <r, s> is the conjugate of <s, r>, checked
            if not holds(zip(sizes, rows[r], conj[s]), n if r == s else 0):
                raise InternalInconsistency(
                    f"row orthogonality fails for characters "
                    f"{min(r, s)},{max(r, s)}")
    dG = groups.commutator_subgroup(G)
    if sum(table.linear_mask) != n // dG.order:
        raise InternalInconsistency("linear character count != |G : G'|")


# ---------------------------------------------------------------------------
# derived operations


def _class_terms(table, phi, conjugate=False):
    """Per-class kernel terms of a character index, ClassFunction or
    per-class value sequence, optionally conjugated."""
    if isinstance(phi, int):
        return (table.conjugate_rows if conjugate else table.sparse_rows)[phi]
    if isinstance(phi, ClassFunction):
        if phi.group != table.group:
            raise MismatchedGroup("class function belongs to a different group")
        phi = phi.values
    e = table.exponent
    out = [cyclotomic.terms(e, v) for v in phi]
    if conjugate:
        out = [cyclotomic.conjugate_terms(e, t) for t in out]
    return out


def inner_product(table, phi, psi):
    """Exact <phi, psi> over the whole group."""
    a = _class_terms(table, phi)
    b = _class_terms(table, psi, conjugate=True)
    total = cyclotomic.rational_sum(table.exponent,
                                    zip(table.classes.sizes, a, b))
    return total / table.group.order


def inner_product_on(table, H, phi, psi):
    """Exact <phi, psi>_H, summing over the elements of the subgroup H."""
    groups.require_subgroup_of(table.group, H)
    a = _class_terms(table, phi)
    b = _class_terms(table, psi, conjugate=True)
    per_class = Counter(table.classes.class_of[g] for g in H.members)
    total = cyclotomic.rational_sum(
        table.exponent, ((c, a[j], b[j]) for j, c in per_class.items()))
    return total / H.order


def irr_given(G, N, table):
    """Partition character indices into (Irr(G/N) inflations, Irr(G|N))."""
    groups.require_subgroup_of(G, N)
    if not N.is_normal():
        raise NotNormal("subgroup is not normal")
    inside = [j for j, rep in enumerate(table.classes.reps) if rep in N]
    inflated, moved = [], []
    for r in range(table.num_characters):
        deg = table.degrees[r]
        if all(table.values[r][j] == deg for j in inside):
            inflated.append(r)
        else:
            moved.append(r)
    return inflated, moved


def central_character(table, chi, j):
    """chi(x_j) |Cl(x_j)| / chi(1), asserted to be an algebraic integer."""
    v = table.values[chi][j].scale_div(table.classes.sizes[j], table.degrees[chi])
    red = v.reduced()
    for c in red:
        if Fraction(c).denominator != 1:
            raise NonIntegral(
                f"central character for chi={chi}, class={j} is not integral")
    e = table.exponent
    coeffs = [int(c) for c in red] + [0] * (e - len(red))
    return Cyclotomic(e, tuple(coeffs[:e]))


def frobenius_schur_check(G, table):
    """Sum of nu(chi) chi(1) must equal 1 + the number of involutions."""
    classes = table.classes
    sq_class = [classes.class_of[G.mul[r][r]] for r in classes.reps]
    total = Fraction(0)
    for r, row in enumerate(table.sparse_rows):
        nu = cyclotomic.rational_sum(
            table.exponent,
            ((size, row[c], UNIT) for size, c in zip(classes.sizes, sq_class)))
        nu /= G.order
        total += nu * table.degrees[r]
    involutions = sum(1 for a in range(1, G.order) if G.mul[a][a] == 0)
    return total == 1 + involutions


# ---------------------------------------------------------------------------
# cache file format


def dump_table(table):
    """Serialize to the text cache format."""
    lines = [f"chartab e={table.exponent} k={table.num_characters}"]
    for rep, size in zip(table.classes.reps, table.classes.sizes):
        lines.append(f"class {rep} {size}")
    text = {}  # each distinct value is formatted once
    for row in table.values:
        for v in row:
            if v.coeffs not in text:
                text[v.coeffs] = ":".join(map(str, v.coeffs))
        lines.append(",".join([text[v.coeffs] for v in row]))
    return "\n".join(lines) + "\n"


def load_table(G, text):
    """Rebuild a CharacterTable from cache text (verified on load).

    Malformed text raises ParseError; well-formed text that does not hold
    this group's table raises InternalInconsistency or NonIntegral.
    """
    classes = groups.conjugacy_classes(G)
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    e, k = G.exponent(), classes.num_classes
    if not lines:
        raise ParseError("empty cache text", 0)
    if lines[0][1] != f"chartab e={e} k={k}":
        raise ParseError("bad cache header", lines[0][0])
    if len(lines) != 1 + 2 * k:
        raise ParseError(f"expected {1 + 2 * k} lines, got {len(lines)}",
                         lines[-1][0])
    for m, (lineno, ln) in enumerate(lines[1:1 + k]):
        if ln != f"class {classes.reps[m]} {classes.sizes[m]}":
            raise InternalInconsistency(
                f"line {lineno}: cached classes do not match the group")
    values = []
    parsed = {}  # each distinct chunk is parsed once
    for lineno, ln in lines[1 + k:]:
        chunks = ln.split(",")
        if len(chunks) != k:
            raise ParseError(f"expected {k} values", lineno)
        for chunk in chunks:
            if chunk in parsed:
                continue
            fields = chunk.split(":")
            if len(fields) != e:
                raise ParseError(f"expected {e} coefficients", lineno)
            try:
                parsed[chunk] = Cyclotomic(e, tuple(map(int, fields)))
            except ValueError:
                raise ParseError("coefficient is not an integer", lineno)
        values.append(tuple([parsed[chunk] for chunk in chunks]))
    degrees = tuple(v[0].to_integer() for v in values)
    table = CharacterTable(G, classes, e, tuple(values), degrees)
    _verify_table(G, table)
    return table
