"""Exact ordinary character tables.

The |G:G'| linear characters are Irr(G/G'): they are read off G/G'
directly as exact rows of roots of unity zeta_e^l.  The rest are induced
when G has an abelian subgroup of index 2 (below), and otherwise computed
by the prime-field method: their central characters mod p (p = 1 mod
exponent, p > 2 sqrt|G|) span the kernel of the conjugate linear rows.  A
vector is in that kernel exactly when it sums to 0 over each coset of G',
and the linear rows tell the cosets apart, so its basis e_c - e_f (f the
first class of c's coset) is read off them with no elimination.  Only that
(k - |G:G'|)-dimensional span is split by simultaneous eigenvectors of the
sparse class-sum matrices, so a group with at most one nonlinear character
builds no class matrix.  A class of size |G'| is a whole coset of G', every
nonlinear character vanishes on it, and its class matrix is 0 on the span,
so it takes no split step.  Discrete-Fourier multiplicity counts lift each
value to an exact cyclotomic integer.  The table is then verified exactly:
the linear rows as a group of the roots zeta_e^l, each stored as that one
term, and the row orthogonality relations of every pair with a nonlinear
row, all the linear rows at once through sums over the cosets of G'.  They
imply the column relations: the table is square, so X D X* = |G| I (D the
diagonal of class sizes) gives X* X = |G| D^-1.  A failure of a computed
table is a bug, not a data condition.

Induced rows.  If G has an abelian subgroup A of index 2, each nonlinear
character is Ind_A^G lambda of degree 2 (Clifford theory), one per pair
{lambda, lambda^t} with lambda != lambda^t, t outside A, and Irr(A) is
read off A as Irr(G/G') is off G/G'.  Their values are the eigenvalue
multisets Dixon's lift stores: lambda(a) and lambda(t^-1 a t) on A, and
off A the two square roots of lambda(g^2); so tables, their text and
cache files are the same on both paths.  A is normal and contains G', so
it is the kernel of a linear row of order 2; and A centralizes each of its
elements, so a group whose classes of size at most 2 hold fewer than
|G|/2 elements has none, which settles most other groups from the class
sizes alone.  The check below is the same for both paths.

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
holds, per nonlinear orbit, the integer rows of sum chi(g_j) and
sum |chi(g_j)|^2 over the orbit, which the w_n recursion reads, and so do
`inner_product` and the mixed-domain formula for Galois-stable input
(rational and constant on rational classes); other input to those two goes
through the kernel.  The linear characters Lambda = Irr(G/G') are one
group and sum in closed form: sum_lambda |lambda(g)|^2 = |Lambda| and
sum_lambda lambda(g) = |Lambda| [g in G'] (`linear_sum`), so a sum whose
terms are |G|^(k-1) on every linear character contributes |G|^k / |G'| on
G' and 0 off it.
"""

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
    read_ints,
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
        self.last_stable_input = None  # (values, galois_stable), see _stable

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
    def text(self):
        """The table in the cache file format, formatted once for both the
        cache file and `chartab`'s output."""
        return dump_table(self)

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
    def exponent_rows(self):
        """Per row: for a linear row, the exponents l_j with chi(g_j) =
        zeta_e^l_j, read off each value's one term (None at a value in any
        other form); None for a nonlinear row."""
        power = {((l, 1),): l for l in range(self.exponent)}
        return tuple([tuple([power.get(t) for t in row]) if lin else None
                      for row, lin in zip(self.sparse_rows, self.linear_mask)])

    @cached_property
    def linear_sum(self):
        """Per class, sum_lambda lambda(g_j) over the linear rows Lambda =
        Irr(G/G'): |Lambda| on the classes where every linear row is 1 (G')
        and 0 elsewhere, as the verified rows are a group."""
        linear = [row for row in self.exponent_rows if row is not None]
        m = len(linear)
        return tuple([m if column.count(0) == m else 0
                      for column in zip(*linear)])

    @cached_property
    def orbit_sums(self):
        """{r: GaloisOrbit} for the first row r of each nonlinear orbit, in
        rising r.  The linear rows add up in closed form: sum_lambda
        |lambda(g_j)|^2 = |Lambda|, and sum_lambda lambda(g_j) is
        `linear_sum`.

        For u prime to e, sigma_u chi = chi o pi_u (module docstring), so
        the orbit O of chi under the power maps is its Galois orbit, and
        u -> sigma_u chi takes each row of O phi(e)/|O| times.  Hence
        sum_{chi in O} chi(g) = |O| Tr(chi(g)) / phi(e), Tr the trace from
        Q(zeta_e) to Q, and likewise for |chi(g)|^2: both are read once per
        distinct value of the representative.  Column orthogonality,
        sum_O N_O(j) = |G| / |C_j| and sum_O chi_O(1) T_O(j) = 0 off the
        identity, with the linear part added, checks the sums."""
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
            if self.linear_mask[r]:
                continue
            row = self.sparse_rows[r]
            for t in row:
                if t not in field_traces:
                    # |v|^2 = sum a b zeta^(i - j) over pairs of terms, and
                    # tr[i - j] reads Tr(zeta^((i - j) mod e))
                    field_traces[t] = (
                        sum([c * tr[i] for i, c in t]),
                        sum([a * b * tr[i - j] for i, a in t for j, b in t]))
            out[r] = GaloisOrbit(
                size,
                tuple([orbit_sum(size, field_traces[t][0]) for t in row]),
                tuple([orbit_sum(size, field_traces[t][1]) for t in row]))
        n = self.group.order
        m = self.linear_mask.count(True)
        for j, (class_size, linear) in enumerate(zip(self.classes.sizes,
                                                     self.linear_sum)):
            norms = m + sum([o.norms[j] for o in out.values()])
            traces = linear + sum([self.degrees[r] * o.traces[j]
                                   for r, o in out.items()])
            if norms * class_size != n or traces != (n if j == 0 else 0):
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
    while p <= bound or not groups._is_prime(p):
        p += exponent
    return p


def _primitive_root(p):
    factors = groups._prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InternalInconsistency("no primitive root found")


# ---------------------------------------------------------------------------
# Dixon's method


def class_mult_coefficients(G, classes, i):
    """Row i of the class multiplication coefficients: a[c] holds the
    nonzero (m, a_icm) pairs in rising m, where a_icm is the number of
    (x, y) in C_i x C_c with x*y = rep(C_m).  It reads the |C_i| members
    of class i against each class representative."""
    class_of, mul, k = classes.class_of, G.mul, classes.num_classes
    inverses = [G.inv[x] for x in classes.members[i]]
    # y = x^-1 z for each x in C_i, counted under the key m k + class(y);
    # keys arrive in rising m, so each a[c] does too
    counts = Counter([m * k + class_of[mul[x_inv][z]]
                      for m, z in enumerate(classes.reps)
                      for x_inv in inverses])
    a = [[] for _ in range(k)]
    for key, count in counts.items():
        m, c = divmod(key, k)
        a[c].append((m, count))
    return a


# Most classes a table is computed for.  D1000 (k = 253) and D2000
# (k = 503) have induced rows: computing and verifying take about 1 s and
# 4-6 s CPU on a 2-vCPU Xeon host with Python 3.11, most of it the exact
# check.  Dixon's split, which a group without an abelian subgroup of
# index 2 takes, grows about as k^3 when few characters are linear.  The
# refusal's estimate scales as k^3 the 35 s D2000 took by the split on the
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
    lambda(g_c) = zeta_e^l[c]; the trivial one first: `_linear_rows` from
    G' along G's generating set, read at the class representatives.  A
    power s^m lies in a normal subgroup that contains G', and so does the
    representative of its class, where every row takes its value."""
    return _linear_rows(G, groups.commutator_subgroup(G).members,
                        G.generating_set(), classes.reps, classes.class_of, e)


def _linear_rows(G, base, gens, points, column_of, e):
    """The linear characters of H = <base, gens> trivial on `base`, a
    normal subgroup of H that contains H', as rows l with
    lambda(points[c]) = zeta_e^l[c]; the trivial one first.

    Along base = H_0 < H_1 < ... < H, H_i = <H_(i-1), s_i> for generators
    s_i is the union of the cosets s_i^j H_(i-1), 0 <= j < m_i, where
    s_i^m_i is the first power of s_i in H_(i-1).  Each H_i contains H', so
    is normal, and l on H_(i-1) extends to H_i by l(s_i^j h) = j t + l(h)
    for each of the m_i solutions t of m_i t = l(s_i^m_i) mod e.  So l is
    linear in the exponents j that reach g, which are found once: each
    generator adds, to every row on H_(i-1), each t times its column of
    exponents j.  Every row on H_(i-1) takes its value at s_i^m_i in column
    `column_of[s_i^m_i]`."""
    gmul = G.mul
    coords = dict.fromkeys(base, ())
    steps = []  # (m_i, column of s_i^m_i) per generator taken
    for s in gens:
        if s in coords:
            continue
        x, m = s, 1
        while x not in coords:
            x, m = gmul[x][s], m + 1
        steps.append((m, column_of[x]))
        grown, y = {}, 0
        for j in range(m):
            row = gmul[y]
            for h, a in coords.items():
                grown[row[h]] = a + (j,)
            y = gmul[y][s]
        coords = grown
    reps = [coords[g] for g in points]
    rows = [[0] * len(reps)]
    for i, (m, c) in enumerate(steps):
        column = [a[i] for a in reps]
        grown = []
        for row in rows:
            if row[c] % m:
                raise InternalInconsistency("a linear character does not extend")
            for q in range(m):
                t = (row[c] // m + q * e // m) % e
                grown.append([(l + t * j) % e for l, j in zip(row, column)])
        rows = grown
    return rows


def _compute_table(G, classes):
    """The linear characters read off G/G' as exact roots of unity, and
    the rest induced from an abelian subgroup of index 2 when G has one
    (`_induced_rows`), else from Dixon's `_nonlinear_rows`; either way
    checked by `_checked_table`.  The trivial group takes the same path."""
    e = G.exponent()
    linear = _linear_characters(G, classes, e)
    # one value object per root of unity that occurs, shared by the rows
    units = {l: Cyclotomic.root(e, l)
             for l in {l for row in linear for l in row}}
    rows = [tuple([units[l] for l in row]) for row in linear]
    if len(linear) != classes.num_classes:
        half = _abelian_half(G, classes, e, linear)
        rows += (_nonlinear_rows(G, classes, e, linear) if half is None
                 else _induced_rows(G, classes, e, linear, *half))
    return _checked_table(G, classes, e, rows)


def _abelian_half(G, classes, e, linear):
    """(members, generators) of an abelian subgroup A of index 2, or None
    if G has none.  A is normal and contains G', so it is the kernel of a
    linear row of order 2 (exponents 0 and e/2); any abelian one will do.
    A centralizes each of its elements, so its |G|/2 elements lie in
    classes of size at most 2: fewer such elements rule A out at once."""
    n = G.order
    if n % 2 or 2 * sum([s for s in classes.sizes if s <= 2]) < n:
        return None
    mul = G.mul
    for row in linear:
        if set(row) == {0, e // 2}:
            # sorted, the closure picks fewer generators for `_induced_rows`
            members, gens = groups._closure_indices(G, sorted(
                [g for c, l in enumerate(row) if not l
                 for g in classes.members[c]]))
            if all(mul[a][b] == mul[b][a] for a in gens for b in gens):
                return members, gens
    return None


def _induced_rows(G, classes, e, linear, members, gens):
    """The value rows of the nonlinear characters, Ind_A^G lambda for the
    abelian A = `members` of index 2, generated by `gens`, given the linear
    rows of G.  By Clifford theory these are every nonlinear character,
    each of degree 2, one per pair {lambda, lambda^t} with lambda !=
    lambda^t, t outside A.  Their values are stored as the eigenvalue
    multisets Dixon's lift stores: lambda(a) and lambda(t^-1 a t) at a in
    A, and off A the square roots +-zeta^r of lambda(g^2) = zeta^(2r)."""
    points = tuple(members)
    where = {x: i for i, x in enumerate(points)}
    t = next(g for g in range(G.order) if g not in where)
    # per class, the columns of g and t^-1 g t for g in A, or of g^2 and None
    spots = [(where[g], where[G.conjugate(g, t)]) if g in where
             else (where[G.mul[g][g]], None) for g in classes.reps]
    moved = [(where[s], where[G.conjugate(s, t)]) for s in gens]
    seen = set()  # lambda^t of each lambda taken, by its values on gens
    induced = []  # per row, the exponent pair of each class
    for row in _linear_rows(G, (0,), gens, points, where, e):
        key = tuple([row[i] for i, _ in moved])
        twin = tuple([row[j] for _, j in moved])
        if key == twin or key in seen:
            continue  # lambda = lambda^t, or Ind lambda^t taken
        seen.add(twin)
        pairs = []
        for i, j in spots:
            a = row[i]
            if j is not None:
                b = row[j]
                pairs.append((a, b) if a <= b else (b, a))
            elif a % 2:
                raise InternalInconsistency(
                    "an induced character has no eigenvalue off A")
            else:
                pairs.append((a // 2, a // 2 + e // 2))
        induced.append(pairs)
    if len(induced) != classes.num_classes - len(linear):
        raise InternalInconsistency(
            "induced characters do not number k - |G:G'|")
    interned = {}  # exponent pair -> Cyclotomic, shared by rows
    for pair in {pair for pairs in induced for pair in pairs}:
        coeffs = [0] * e
        for l in pair:
            coeffs[l] += 1
        interned[pair] = Cyclotomic(e, tuple(coeffs))
    return [tuple([interned[pair] for pair in pairs]) for pairs in induced]


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


def _coset_kernel(linear, p):
    """(basis, free) for the kernel over F_p of the conjugate linear rows,
    as `_kernel` gives it, from their exponent rows `linear`: e_c - e_f for
    each class c after the first class f of its coset of G', with free
    column c.  The rows are Irr(G/G'), so two classes share a coset exactly
    when every row agrees on them; the basis has k - |G:G'| vectors exactly
    when the rows separate the cosets."""
    k = len(linear[0])
    first, basis, free = {}, [], []
    for c, coset in enumerate(zip(*linear)):
        f = first.setdefault(coset, c)
        if f != c:
            v = [0] * k
            v[c], v[f] = 1, p - 1
            basis.append(v)
            free.append(c)
    return basis, free


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

    # sum_c omega_chi(K_c) conj(lambda(g_c)) = |G| [chi = lambda], so the
    # nonlinear omega_chi span the kernel of the conjugate linear rows: the
    # vectors that sum to 0 over each coset of G'.
    kernel, free = _coset_kernel(linear, p)
    if len(kernel) != k - len(linear):
        raise InternalInconsistency(
            "linear characters do not separate the cosets of G'")

    # Split the simultaneous eigenspaces of the class matrices, low element
    # orders first: such a class matrix has few eigenvalues, and each
    # eigenvalue costs one kernel.  Over C, omega_chi(K_{pi_u(c)}) =
    # sigma_u(omega_chi(K_c)), so the first class of each rational class
    # splits as far as the rest of it; they follow in case p merges values.
    # A class of size |G'| is a whole coset of G'.  By column orthogonality
    # sum |chi(g)|^2 over the nonlinear chi is |C_G(g)| - |G:G'| = 0 there,
    # so its class matrix is 0 on the span and splits nothing: it is left out.
    derived_order = n // len(linear)
    by_order = sorted(
        [rc for rc in rational if classes.sizes[rc.first] != derived_order],
        key=lambda rc: len(rc.powers))
    split_order = [rc.first for rc in by_order[1:]] + [
        c for rc in by_order for c, _ in rc.generators if c != rc.first]
    subspaces = [(kernel, free)]
    for i in split_order:
        if all(len(B) == 1 for B, _ in subspaces):
            break
        M = class_mult_coefficients(G, classes, i)
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
            columns = list(zip(*B))
            for lam in _poly_roots(_charpoly(XT, p), p):
                shifted = [[(XT[r][c] - (lam if r == c else 0)) % p
                            for c in range(m)] for r in range(m)]
                kernel_vectors, kernel_free = _kernel(shifted, p)
                # kernel vector i is 1 at kernel_free[i] and 0 at the other
                # free indices, and B is the identity on its pivot columns,
                # so the lifted vectors are the identity on these columns:
                # already the reduced basis `_coords` reads
                if kernel_vectors:
                    nxt.append((
                        [[sum(map(mul, kv, col)) % p for col in columns]
                         for kv in kernel_vectors],
                        [piv[f] for f in kernel_free]))
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
    with every row covers every pair with a nonlinear row.  It pairs with
    all the linear rows at once through coset sums: group the classes by
    their column of linear exponents; if sum_{j in c} |C_j| chi(g_j) = 0 for
    each group c, then <chi, lambda> = 0 for every linear lambda, which is
    constant on c.  Two nonlinear rows of rational integers pair by an
    integer dot product, any other pair through the sparse kernel."""
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

    linear, cosets = _verify_linear_rows(table)
    nonlinear = [r for r in range(k) if not table.linear_mask[r]]
    int_rows = {}
    for r in nonlinear:
        red = [v.reduced() for v in table.values[r]]
        int_rows[r] = None if any(any(x[1:]) for x in red) else \
            [x[0] for x in red]

    def holds(r, s, want):
        a, b = int_rows[r], int_rows.get(s)
        if a is not None and b is not None:
            return integer_class_sum(sizes, a, b) == want
        try:
            return cyclotomic.rational_sum(e, zip(
                sizes, table.sparse_rows[r], table.sparse_rows[s])) == want
        except NonIntegral:
            return False

    def fail(r, s):
        raise InternalInconsistency(
            f"row orthogonality fails for characters {min(r, s)},{max(r, s)}")

    # The callers guarantee a square table (k characters, k classes), so
    # the row relations imply the column relations; see the module docstring.
    for r in nonlinear:
        if not is_rep[r]:
            continue
        if not _coset_sums_vanish(e, sizes, cosets, int_rows[r],
                                  table.sparse_rows[r]):
            # The columns are distinct characters of the group Lambda, and
            # so linearly independent: some <chi, lambda> is not 0.
            fail(r, next(s for s in linear if not holds(r, s, 0)))
        for s in nonlinear:
            if s < r and is_rep[s]:
                continue  # <r, s> is the conjugate of <s, r>, checked
            if not holds(r, s, n if r == s else 0):
                fail(r, s)
    dG = groups.commutator_subgroup(G)
    if len(linear) != n // dG.order:
        raise InternalInconsistency("linear character count != |G : G'|")


def _coset_sums_vanish(e, sizes, cosets, ints, terms):
    """True iff sum_{j in c} |C_j| chi(g_j) = 0 for each group c of classes
    (cosets[j] is class j's): in integers for a rational row (`ints`), else
    from its kernel terms, one sum per group that chi meets."""
    if ints is not None:
        totals = dict.fromkeys(cosets, 0)
        for c, size, v in zip(cosets, sizes, ints):
            totals[c] += size * v
        return not any(totals.values())
    totals = {}
    for c, size, t in zip(cosets, sizes, terms):
        if t:
            acc = totals.get(c)
            if acc is None:
                acc = totals[c] = [0] * e
            for i, x in t:
                acc[i] += size * x
    return all(cyclotomic.vanishes(e, acc) for acc in totals.values())


def _verify_linear_rows(table):
    """The linear rows as an orthogonal group Lambda of roots of unity.
    Returns their exponent rows {r: l}, lambda_r(g_j) = zeta_e^l[j], and per
    class j the index of its column (l[j] over the rows) among the distinct
    columns, in order of first appearance: its coset of G'.

    Each value must be the one term zeta_e^l, as `_compute_table` writes it
    and the cache text keeps it (another form of a root of unity is
    refused).  The rows must be distinct and equal to the group they
    generate, grown by one greedily chosen row, a coset at a time.  Then a
    column is a homomorphism c: Lambda -> Z/e, and sum_j |C_j| zeta^l[j] =
    sum_c W(c) zeta^c(l), W(c) the size of c's classes.  By Fourier
    inversion on the dual of Lambda, that is 0 for every l != 0 exactly
    when W is constant: |Lambda| columns, each of |G| / |Lambda| elements.
    <lambda, mu> is that sum for lambda mu^-1, over |G|, so then every pair
    of linear rows is orthogonal.  Otherwise some row's sum is not 0, so
    `_covers_evenly` fails on it; the first such row is named."""
    e, sizes = table.exponent, table.classes.sizes
    linear = {r: row for r, row in enumerate(table.exponent_rows)
              if row is not None}
    for r, row in linear.items():
        if None in row:
            raise InternalInconsistency(
                f"linear character {r} is not a root of unity at class "
                f"{row.index(None)}")
    exps = list(linear.values())
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
    column_of = {}
    cosets = [column_of.setdefault(column, len(column_of))
              for column in zip(*exps)]
    weights = [0] * len(column_of)
    for c, size in zip(cosets, sizes):
        weights[c] += size
    if len(weights) != len(exps) or len(set(weights)) != 1:
        trivial = next(r for r, row in linear.items() if not any(row))
        r = next(r for r, row in linear.items()
                 if r != trivial and not _covers_evenly(e, sizes, row))
        raise InternalInconsistency(
            f"row orthogonality fails for characters "
            f"{min(r, trivial)},{max(r, trivial)}")
    return linear, cosets


def _covers_evenly(e, sizes, row):
    """True iff the exponents of the row cover a subgroup of Z/e, each with
    the same total class size, as a linear character's do (its fibers are
    the cosets of its kernel).  Then sum_j |C_j| zeta_e^row[j] = 0 unless
    the subgroup is 0."""
    weights = [0] * e
    for size, l in zip(sizes, row):
        weights[l] += size
    image = [l for l, w in enumerate(weights) if w]
    # range(0, e, step) has len(image) items only when the step divides e
    return image == list(range(0, e, e // len(image))) and \
        len({weights[l] for l in image}) == 1


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


def _stable(table, values):
    """`galois_stable(table, values)`, decided once per tuple of values: a
    caller pairing one phi with every character passes the same tuple each
    time.  The table keeps the last tuple asked and its answer; a tuple
    cannot change, so the same object has the same answer."""
    last = table.last_stable_input
    if last is not None and last[0] is values:
        return last[1]
    stable = galois_stable(table, values)
    if type(values) is tuple:
        table.last_stable_input = (values, stable)
    return stable


def inner_product(table, phi, psi):
    """Exact <phi, psi> over the whole group.

    For a Galois-stable phi (`galois_stable`, decided once per input by
    `_stable`) and a character index psi, <phi, chi> is the same for every
    chi in the Galois orbit O of chi_psi (sigma_u chi = chi o pi_u and
    phi o pi_u = phi), so it is the orbit mean
    sum_j |C_j| phi(g_j) T_O(j) / (|O| |G|).  For a nonlinear psi, T_O is
    the integer row of `orbit_sums`; for a linear psi = zeta_e^l,
    T_O(j) / |O| = Tr(zeta_e^l_j) / phi(e), read off `_field_traces`.  Any
    other pair goes through the sparse kernel.  Values are rational only:
    an irrational <phi, psi>, which a phi that is not Galois-stable can
    have, raises NonIntegral ("character sum is not rational")."""
    if isinstance(psi, int) and not isinstance(phi, int):
        phi = _class_values(table, phi)
        if _stable(table, phi):
            sizes, n = table.classes.sizes, table.group.order
            exps = table.exponent_rows[psi]
            if exps is not None:
                tr = _field_traces(table.exponent)
                total = integer_class_sum(sizes, phi,
                                          map(tr.__getitem__, exps))
                return Fraction(total, tr[0] * n)
            orbit = table.orbit_sums[table.galois_orbits[psi][0]]
            total = integer_class_sum(sizes, phi, orbit.traces)
            return Fraction(total, orbit.size * n)
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

    Malformed text raises ParseError, a coefficient that is not ASCII
    digits or has more digits than |G| included (a dump holds only
    multiplicities, at most chi(1) each); well-formed text that does not
    hold this group's table raises InternalInconsistency.
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
            coeffs = read_ints(fields, G.order,
                               lambda message: ParseError(message, lineno))
            parsed[chunk] = Cyclotomic(e, tuple(coeffs))
        values.append(tuple([parsed[chunk] for chunk in chunks]))
    return _checked_table(G, classes, e, values)
