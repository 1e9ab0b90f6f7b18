"""Exact ordinary character tables.

The |G:G'| linear characters are Irr(G/G'): they are read off G/G'
directly as exact rows of roots of unity zeta_e^l.  The rest are computed
by the prime-field method: their central characters mod p (p = 1 mod
exponent, p > 2 sqrt|G|) span the kernel of the conjugate linear rows, and
only that (k - |G:G'|)-dimensional span is split by simultaneous
eigenvectors of the sparse class-sum matrices, so a group with at most one
nonlinear character builds no class matrix; discrete-Fourier multiplicity
counts lift each value to an exact cyclotomic integer.  The table is then
verified exactly: the linear rows as a group of roots of unity, and the
row orthogonality relations of every pair with a nonlinear row.  They
imply the column relations: the table is square, so X D X* = |G| I (D the
diagonal of class sizes) gives X* X = |G| D^-1.  A failure is a bug, not a
data condition.

Computed and cached rows alike become a table through `_checked_table`,
the one constructor: it sorts the rows, reads the degrees off the identity
class and runs that check, so a cache file loads equal to the computed table.

Galois orbits.  For u prime to the exponent, sigma_u chi = chi o pi_u,
where pi_u maps the class of g to the class of g^u.  By Brauer's
permutation lemma the orbits of Irr(G) under these maps are as many as
the rational classes (which the code checks).  So one nonlinear character
per orbit is lifted, and the rest of its orbit reads the same values
through pi_u.  pi_u is a bijection that keeps class sizes, so
<chi o pi_u, psi o pi_u> = <chi, psi>: once the rows are known to be
distinct and closed under every pi_u, checking each nonlinear orbit
representative against every row checks every pair with a nonlinear row.

Rational character sums.  A table shares one value object per distinct
value, and each value keeps its nonzero terms and reduced form, so both
are computed once per distinct value.  Two rows of rational integers pair
in the orthogonality check by an integer dot product; every other pair goes
through the Hermitian sparse kernel in `cyclotomic`, which conjugates its
second operand itself.  A sum that is rational on each character is
constant on Galois orbits, so it is summed over the orbits: `orbit_sums`
holds, per orbit, the integer rows of sum chi(g_j) and sum |chi(g_j)|^2
over the orbit, which the w_n recursion reads, and so do `inner_product`
and the mixed-domain formula for Galois-stable input (rational and
constant on rational classes); other input to those two goes through the
kernel.
"""
from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from operator import itemgetter, mul

from . import cyclotomic, groups
from .cyclotomic import Cyclotomic
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    MismatchedGroup,
    NonIntegral,
    ParseError,
)
from .groups import ClassFunction


class GaloisOrbit(namedtuple("GaloisOrbit", "size traces norms")):
    """A Galois orbit O of characters: |O|, and per class j the integers
    T_O(j) = sum_{chi in O} chi(g_j) (`traces`) and
    N_O(j) = sum_{chi in O} |chi(g_j)|^2 (`norms`)."""

    __slots__ = ()

    def norm_sum(self, sizes, values):
        """sum_j sizes[j] values[j] N_O(j), for integer values."""
        return integer_class_sum(sizes, values, self.norms)


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

    @cached_property
    def sparse_rows(self):
        """Per character and class, the value's nonzero (exponent, coeff) terms."""
        return tuple(tuple([v.terms for v in row]) for row in self.values)

    @cached_property
    def galois_orbits(self):
        """`_orbits` of the rows under the power maps: orbit[s] = (r, perm)
        with row s = row r o perm; None if the rows repeat or are not
        closed under the maps."""
        return _orbits(_galois_maps(self.group), self.sparse_rows)

    @cached_property
    def orbit_sums(self):
        """{r: GaloisOrbit} for the first row r of each orbit, in rising r.

        For u prime to e, sigma_u chi = chi o pi_u (module docstring), so
        the orbit O of chi under the power maps is its Galois orbit, and
        u -> sigma_u chi takes each row of O phi(e)/|O| times.  Hence
        sum_{chi in O} chi(g) = |O| Tr(chi(g)) / phi(e), Tr the trace from
        Q(zeta_e) to Q, and likewise for |chi(g)|^2: both are read once per
        distinct value of the representative.  Column orthogonality,
        sum_O N_O(j) = |G| / |C_j| and sum_O chi_O(1) T_O(j) = 0 off the
        identity, checks the sums."""
        orbit = self.galois_orbits
        if orbit is None:
            raise InternalInconsistency(
                "character rows are not closed under the power maps")
        e = self.exponent
        tr = _field_traces(e)
        phi = tr[0]
        field_traces = {}  # terms of v -> (Tr v, Tr |v|^2)

        def orbit_sum(size, trace):
            total, rem = divmod(size * trace, phi)
            if rem:
                raise NonIntegral("a Galois orbit sum is not an integer")
            return total

        out = {}
        for r, size in Counter(r for r, _ in orbit).items():
            row = self.sparse_rows[r]
            for t in row:
                if t not in field_traces:
                    norm, _ = cyclotomic.product_sum(e, [(1, t, t)])
                    field_traces[t] = (
                        sum([c * tr[i] for i, c in t]),
                        sum(map(mul, norm, tr)))
            out[r] = GaloisOrbit(
                size,
                tuple([orbit_sum(size, field_traces[t][0]) for t in row]),
                tuple([orbit_sum(size, field_traces[t][1]) for t in row]))
        n = self.group.order
        for j, class_size in enumerate(self.classes.sizes):
            if sum([o.norms[j] for o in out.values()]) * class_size != n or \
                    sum([self.degrees[r] * o.traces[j]
                         for r, o in out.items()]) != (n if j == 0 else 0):
                raise InternalInconsistency(
                    "Galois orbit sums fail column orthogonality")
        return out

    @cached_property
    def rational_class_getters(self):
        """Two `itemgetter`s over the same positions: every class, and the
        first class of its rational class.  Values are constant on the
        rational classes exactly when both give the same tuple."""
        pairs = [(c, rc.first) for rc in groups.rational_classes(self.group)
                 for c, _ in rc.generators]
        return (itemgetter(*[c for c, _ in pairs]),
                itemgetter(*[first for _, first in pairs]))

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
    """(basis, free) for the nullspace of the matrix X (rows of equal
    length) over F_p: basis vector i is 1 at the free column free[i] and 0
    at the other free columns, so it is reduced with those as pivots."""
    n = len(X[0])
    R, pivots = _rref(X, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis, free


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


@lru_cache(maxsize=None)
def _field_traces(e):
    """Tr(zeta_e^i) from Q(zeta_e) to Q for i = 0..e-1: the Ramanujan sum
    mu(d) phi(e) / phi(d) with d = e / gcd(i, e); the first is phi(e)."""
    def phi_mu(n):
        phi, mu = n, 1
        for p, k in groups._prime_factors(n).items():
            phi = phi // p * (p - 1)
            mu = 0 if k > 1 else -mu
        return phi, mu

    phi_e = phi_mu(e)[0]
    out = []
    for i in range(e):
        phi_d, mu_d = phi_mu(e // math.gcd(i, e))
        out.append(mu_d * phi_e // phi_d)
    return tuple(out)


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
# about 2.2 s CPU for D1000 (k = 253) and 13 s for D2000 (k = 503) on a
# 2-vCPU Xeon host with Python 3.11, about k^3 when few characters are
# linear.  The refusal's estimate scales as k^3 the 35 s D2000 took on the
# slower host the benchmark was tuned on; at the bound it reads 37 s.
MAX_TABLE_CLASSES = 512


@groups.structure_memo
def character_table(G):
    """The exactly verified character table of G."""
    classes = groups.conjugacy_classes(G)
    k = classes.num_classes
    if k > MAX_TABLE_CLASSES:
        raise BudgetExceeded(
            f"{k} classes exceed the character-table bound "
            f"{MAX_TABLE_CLASSES} (estimated {35 * (k / 503) ** 3:.0f} s)")
    return _compute_table(G, classes)


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


def _linear_characters(G, classes, e):
    """The linear characters, Irr(G/G'), as rows l with
    lambda(g_c) = zeta_e^l[c]; the trivial one first.

    Along G' = H_0 < H_1 < ... < G, H_i = <H_(i-1), s_i> for generators s_i
    is the union of the cosets s_i^j H_(i-1), 0 <= j < m_i, where s_i^m_i
    is the first power of s_i in H_(i-1).  Each H_i contains G', so is
    normal, and l on H_(i-1) extends to H_i by l(s_i^j h) = j t + l(h) for
    each of the m_i solutions t of m_i t = l(s_i^m_i) mod e.  So l is
    linear in the exponents j that reach g, which are found once."""
    gmul = G.mul
    coords = dict.fromkeys(groups.commutator_subgroup(G).members, ())
    ts = [()]  # per character, t for each generator taken
    for s in G.generating_set():
        if s in coords:
            continue
        x, m = s, 1
        while x not in coords:
            x, m = gmul[x][s], m + 1
        extended = []
        for t in ts:
            c = sum(map(mul, coords[x], t))
            if c % m:
                raise InternalInconsistency("a linear character does not extend")
            extended += [t + ((c // m + q * e // m) % e,) for q in range(m)]
        ts = extended
        grown, y = {}, 0
        for j in range(m):
            row = gmul[y]
            for h, a in coords.items():
                grown[row[h]] = a + (j,)
            y = gmul[y][s]
        coords = grown
    reps = [coords[g] for g in classes.reps]
    return [[sum(map(mul, a, t)) % e for a in reps] for t in ts]


def _compute_table(G, classes):
    """Dixon's table: the linear characters read off G/G' as exact roots of
    unity, and the rest from `_nonlinear_rows`, checked by `_checked_table`.
    The trivial group takes the same path."""
    e = G.exponent()
    linear = _linear_characters(G, classes, e)
    # one value object per root of unity that occurs, shared by the rows
    units = {l: Cyclotomic.root(e, l)
             for l in {l for row in linear for l in row}}
    rows = [tuple([units[l] for l in row]) for row in linear]
    if len(linear) != classes.num_classes:
        rows += _nonlinear_rows(G, classes, e, linear)
    return _checked_table(G, classes, e, rows)


def _checked_table(G, classes, e, rows):
    """The verified CharacterTable of the value rows, sorted by their reduced
    values (the identity's is (chi(1), 0, ...), so by degree first), with
    the degrees read off the identity class."""
    rows = tuple(sorted(rows, key=lambda row: [v.reduced() for v in row]))
    ones = [row[0].reduced() for row in rows]
    if any(any(one[1:]) for one in ones):
        raise InternalInconsistency("a character is irrational at 1")
    table = CharacterTable(G, classes, e, rows, tuple(o[0] for o in ones))
    _verify_table(G, table)
    return table


def _nonlinear_rows(G, classes, e, linear):
    """The value rows of the nonlinear characters, given the linear ones'
    exponent rows: central characters mod p from the class
    matrices' common eigenvectors in the span the linear rows leave, then
    one character per Galois orbit lifted once per rational class and
    carried to the rest of its orbit by the power maps."""
    n = G.order
    k = classes.num_classes
    p = _smallest_dixon_prime(n, e)
    rational = groups.rational_classes(G)
    inv_class = classes.inverse_class
    z = _primitive_root(p)

    # lambda(g_c) = w[l(c)] mod p, w[1] = z^((p-1)/e) standing for zeta_e as
    # in the lift.  sum_c omega_chi(K_c) conj(lambda(g_c)) = |G| [chi = lambda],
    # so the nonlinear omega_chi span the kernel of the conjugate linear rows.
    w = [pow(z, (p - 1) // e * x, p) for x in range(e)]
    kernel, free = _kernel([[w[row[c]] for c in inv_class] for row in linear],
                           p)
    if len(kernel) != k - len(linear):
        raise InternalInconsistency("linear characters are not independent")
    a = class_mult_coefficients(G, classes) if len(kernel) > 1 else None

    # Split the simultaneous eigenspaces of the class matrices, low element
    # orders first: such a class matrix has few eigenvalues, and each
    # eigenvalue costs one kernel.  Over C, omega_chi(K_{pi_u(c)}) =
    # sigma_u(omega_chi(K_c)), so the first class of each rational class
    # splits as far as the rest of it; they follow in case p merges values.
    by_order = sorted(rational, key=lambda rc: len(rc.powers))
    split_order = [rc.first for rc in by_order[1:]] + [
        c for rc in by_order for c, _ in rc.generators if c != rc.first]
    subspaces = [(kernel, free)]
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
                          for kv in _kernel(shifted, p)[0]]
                if lifted:
                    nxt.append(_rref(lifted, p))
        if sum(len(B) for B, _ in nxt) != len(kernel):
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

    inv_sizes = [pow(s, p - 2, p) for s in classes.sizes]
    # inverse_roots[o][i] = zeta_o^(-i) mod p
    inverse_roots = {}
    for o in {len(rc.powers) for rc in rational}:
        zinv = pow(z, (p - 1) - (p - 1) // o, p)
        inverse_roots[o] = [pow(zinv, i, p) for i in range(o)]
    inv_orders = {o: pow(o, p - 2, p) for o in inverse_roots}

    interned = {}  # coefficients -> Cyclotomic, shared by rows
    lifts = {}  # orbit representative -> values
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
                    interned[coeffs] = Cyclotomic(e, coeffs)
                values[c] = interned[coeffs]
        lifts[r] = values

    # Row sigma_u chi at class c is row chi at pi_u(c): both are the
    # eigenvalue multiset of rho(g_c^u), so the coefficient tuples agree.
    return [tuple([lifts[rep][c] for c in perm]) for rep, perm in orbit]


def integer_class_sum(sizes, a, b):
    """sum_j sizes[j] a[j] b[j] over integer rows: the integer kernel of a
    rational character sum whose factors are rational on every class."""
    return sum(map(mul, sizes, map(mul, a, b)))


def _verify_table(G, table):
    """Degrees, Galois closure, the linear rows, row orthogonality and the
    linear-character count, exactly.

    The rows of a character table are distinct and closed under the power
    maps pi_u (sigma_u chi = chi o pi_u), and by Brauer's permutation lemma
    their orbits number the rational classes, so a table whose rows are not
    is refused.  The linear rows are checked by `_verify_linear_rows`.
    <chi o pi_u, psi o pi_u> = <chi, psi> (pi_u is a size-preserving
    bijection on classes), so pairing each nonlinear orbit representative
    with every row covers every pair with a nonlinear row.  Two rows of
    rational integers pair by an integer dot product, any other pair
    through the sparse kernel."""
    n = G.order
    k = table.num_characters
    e = table.exponent
    sizes = table.classes.sizes
    if sum(d * d for d in table.degrees) != n:
        raise InternalInconsistency("sum of squared degrees != |G|")
    for d in table.degrees:
        if d < 1 or n % d != 0:
            raise InternalInconsistency(f"degree {d} does not divide |G|")
    orbit = table.galois_orbits
    if orbit is None:
        raise InternalInconsistency(
            "character rows are not closed under the power maps")
    is_rep = [r == s for s, (r, _) in enumerate(orbit)]
    rational = len(groups.rational_classes(G))
    if sum(is_rep) != rational:
        raise InternalInconsistency(
            f"{sum(is_rep)} Galois orbits of characters but {rational} "
            "rational classes")

    _verify_linear_rows(table, [r for r in range(k) if table.linear_mask[r]])
    int_rows = [[v.reduced() for v in row] for row in table.values]
    int_rows = [None if any(any(red[1:]) for red in row) else
                [red[0] for red in row] for row in int_rows]
    nonlinear = [r for r in range(k) if is_rep[r] and not table.linear_mask[r]]

    def holds(r, s, want):
        a, b = int_rows[r], int_rows[s]
        if a is not None and b is not None:
            return integer_class_sum(sizes, a, b) == want
        try:
            return cyclotomic.rational_sum(e, zip(
                sizes, table.sparse_rows[r], table.sparse_rows[s])) == want
        except NonIntegral:
            return False

    # The callers guarantee a square table (k characters, k classes), so
    # the row relations imply the column relations; see the module docstring.
    for r in nonlinear:
        for s in range(k):
            if s < r and is_rep[s] and not table.linear_mask[s]:
                continue  # <r, s> is the conjugate of <s, r>, checked
            if not holds(r, s, n if r == s else 0):
                raise InternalInconsistency(
                    f"row orthogonality fails for characters "
                    f"{min(r, s)},{max(r, s)}")
    dG = groups.commutator_subgroup(G)
    if sum(table.linear_mask) != n // dG.order:
        raise InternalInconsistency("linear character count != |G : G'|")


def _verify_linear_rows(table, linear):
    """The linear rows as a group of roots of unity: each value some
    zeta_e^l, found by its reduced form, so any representation passes; the
    rows l distinct and equal to the group they generate, grown by one
    greedily chosen row, a coset at a time; and sum_j |C_j| zeta^l_j = 0
    for l != 0.  Then <lambda, mu> is that sum for lambda mu^-1, over |G|,
    so every pair of linear rows is orthogonal."""
    e, sizes = table.exponent, table.classes.sizes
    power = {red: l for l, red in enumerate(cyclotomic.reduced_powers(e))}
    exps = [tuple([power.get(v.reduced()) for v in table.values[r]])
            for r in linear]
    for r, row in zip(linear, exps):
        if None in row:
            raise InternalInconsistency(
                f"linear character {r} is not a root of unity at class "
                f"{row.index(None)}")
    found, span = set(exps), {(0,) * len(sizes)}
    for row in exps:
        step, grown = row, set(span)
        while step not in span and len(grown) <= len(found):
            grown.update(tuple([(a + b) % e for a, b in zip(h, step)])
                         for h in span)
            step = tuple([(a + b) % e for a, b in zip(step, row)])
        span = grown
    if len(found) != len(exps) or span != found:
        raise InternalInconsistency(
            "linear characters repeat or are not closed under products")
    trivial = linear[exps.index((0,) * len(sizes))]
    for r, row in zip(linear, exps):
        total = [0] * e
        for size, l in zip(sizes, row):
            total[l] += size
        if r != trivial and Cyclotomic(e, tuple(total)) != 0:
            raise InternalInconsistency(
                f"row orthogonality fails for characters "
                f"{min(r, trivial)},{max(r, trivial)}")


# ---------------------------------------------------------------------------
# derived operations


def _class_values(table, phi):
    """The values of a ClassFunction or per-class value sequence."""
    if isinstance(phi, ClassFunction):
        if phi.group != table.group:
            raise MismatchedGroup("class function belongs to a different group")
        return phi.values
    return tuple(phi)


def _class_terms(table, phi):
    """Per-class kernel terms of a character index, ClassFunction or
    per-class value sequence."""
    if isinstance(phi, int):
        return table.sparse_rows[phi]
    e = table.exponent
    return [cyclotomic.terms(e, v) for v in _class_values(table, phi)]


def galois_stable(table, values):
    """True iff the per-class values are rational (int or Fraction) and
    constant on each rational class, so fixed by every Galois map."""
    if len(values) != table.classes.num_classes or not all(
            map(isinstance, values, repeat((int, Fraction)))):
        return False
    classes, firsts = table.rational_class_getters
    return classes(values) == firsts(values)


def inner_product(table, phi, psi):
    """Exact <phi, psi> over the whole group.

    For a Galois-stable phi (`galois_stable`) and a character index psi,
    <phi, chi> is the same for every chi in the Galois orbit O of chi_psi
    (sigma_u chi = chi o pi_u and phi o pi_u = phi), so it is the orbit mean
    sum_j |C_j| phi(g_j) T_O(j) / (|O| |G|) over the integer row T_O of
    `orbit_sums`.  Any other pair goes through the sparse kernel."""
    if isinstance(psi, int) and not isinstance(phi, int):
        phi = _class_values(table, phi)
        if galois_stable(table, phi):
            orbit = table.orbit_sums[table.galois_orbits[psi][0]]
            total = integer_class_sum(table.classes.sizes, phi, orbit.traces)
            return Fraction(total, orbit.size * table.group.order)
    a = _class_terms(table, phi)
    b = _class_terms(table, psi)
    total = cyclotomic.rational_sum(table.exponent,
                                    zip(table.classes.sizes, a, b))
    return total / table.group.order


def inner_product_on(table, H, phi, psi):
    """Exact <phi, psi>_H, summing over the elements of the subgroup H."""
    groups.require_subgroup_of(table.group, H)
    a = _class_terms(table, phi)
    b = _class_terms(table, psi)
    per_class = Counter(table.classes.class_of[g] for g in H.members)
    total = cyclotomic.rational_sum(
        table.exponent, ((c, a[j], b[j]) for j, c in per_class.items()))
    return total / H.order


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
    """Rebuild a CharacterTable from cache text through `_checked_table`,
    so it is sorted and verified as a computed table is.

    Malformed text raises ParseError; well-formed text that does not hold
    this group's table raises InternalInconsistency.
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
    return _checked_table(G, classes, e, values)
