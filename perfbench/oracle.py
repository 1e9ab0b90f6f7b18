"""Independent reference answers for the benchmark.

Everything here starts from a group's Cayley table (`mul`, element 0 the
identity) and is computed by scans of that table: the class partition,
centre, derived subgroup and central series, the w_n fiber counts by an
integer recursion, and the counts of other words by combining the
distributions of disjoint variable blocks.  Character tables printed by
the program are checked modulo a large prime.  No code of the package under
test is called from this module.
"""
from __future__ import annotations

import math
from fractions import Fraction


class Reference:
    """Structure facts and fiber counts computed from one Cayley table."""

    def __init__(self, mul):
        self.mul = mul
        self.n = n = len(mul)
        inv = [0] * n
        for a in range(n):
            inv[a] = mul[a].index(0)
        self.inv = inv
        self.gens = self._generating_set()
        self._classes()
        self._center = None
        self._derived = None

    # ------------------------------------------------------------------
    # subgroups as element sets

    def closure(self, gens):
        """Subgroup generated by `gens`, as a set of elements."""
        mul = self.mul
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                row = mul[a]
                for g in gens:
                    b = row[g]
                    if b not in members:
                        members.add(b)
                        nxt.append(b)
            frontier = nxt
        return members

    def _generating_set(self):
        gens, reached = [], {0}
        for a in range(self.n):
            if a not in reached:
                gens.append(a)
                reached = self.closure(gens)
                if len(reached) == self.n:
                    break
        return gens

    def conj(self, x, g):
        """g^-1 x g."""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def comm(self, a, b):
        """[a, b] = a^-1 b^-1 a b."""
        mul, inv = self.mul, self.inv
        return mul[mul[mul[inv[a]][inv[b]]][a]][b]

    def normal_closure(self, seeds):
        """(members, generators) of the smallest normal subgroup holding
        `seeds`."""
        ngens = [s for s in dict.fromkeys(seeds) if s != 0]
        members = self.closure(ngens)
        grew = True
        while grew:
            grew = False
            for s in list(ngens):
                for g in self.gens:
                    c = self.conj(s, g)
                    if c not in members:
                        ngens.append(c)
                        members = self.closure(ngens)
                        grew = True
        return members, ngens

    def _classes(self):
        """Conjugacy classes as orbits under conjugation by the generators,
        ordered identity first, then by (size, least element)."""
        n = self.n
        seen = [False] * n
        orbits = []
        for a in range(n):
            if seen[a]:
                continue
            orbit = [a]
            seen[a] = True
            i = 0
            while i < len(orbit):
                x = orbit[i]
                i += 1
                for g in self.gens:
                    y = self.conj(x, g)
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            orbits.append(sorted(orbit))
        orbits.sort(key=lambda c: (c[0] != 0, len(c), c[0]))
        class_of = [0] * n
        for idx, cls in enumerate(orbits):
            for x in cls:
                class_of[x] = idx
        self.classes = orbits
        self.class_of = class_of
        self.sizes = [len(c) for c in orbits]
        self.k = len(orbits)

    # ------------------------------------------------------------------
    # structure facts

    def center(self):
        if self._center is None:
            mul = self.mul
            self._center = {a for a in range(self.n)
                            if all(mul[a][g] == mul[g][a] for g in self.gens)}
        return self._center

    def derived(self):
        if self._derived is None:
            self._derived = self.normal_closure(
                [self.comm(s, t) for s in self.gens for t in self.gens])[0]
        return self._derived

    def element_order(self, a):
        o, x = 1, a
        while x != 0:
            x = self.mul[x][a]
            o += 1
        return o

    def exponent(self):
        e = 1
        for cls in self.classes:
            e = math.lcm(e, self.element_order(cls[0]))
        return e

    def upper_central_series(self):
        """Orders of Z_0 < Z_1 < ... until the series stops growing."""
        series = [{0}]
        while True:
            low = series[-1]
            nxt = {g for g in range(self.n)
                   if all(self.comm(g, s) in low for s in self.gens)}
            if len(nxt) == len(low):
                return [len(z) for z in series]
            series.append(nxt)

    def lower_central_series(self):
        """Orders of gamma_1 > gamma_2 > ... until the series stops
        shrinking; [N, G] is the normal closure of the commutators of N's
        generators with G's generators."""
        orders = [self.n]
        ngens = list(self.gens)
        while True:
            members, ngens = self.normal_closure(
                [self.comm(a, s) for a in ngens for s in self.gens])
            if len(members) == orders[-1]:
                return orders
            orders.append(len(members))

    def nilpotency_class(self):
        upper = self.upper_central_series()
        return len(upper) - 1 if upper[-1] == self.n else None

    def is_camina_group(self):
        """(G, G') is a Camina pair: gG' lies in the class of g off G'."""
        d = self.derived()
        if not 1 < len(d) < self.n:
            return False
        cls, mul = self.class_of, self.mul
        return all(cls[mul[g][h]] == cls[g]
                   for g in range(self.n) if g not in d for h in d)

    def is_vz(self):
        """Every nonlinear character vanishes off Z(G).  By column
        orthogonality that holds iff |C_G(g)| = |G:G'|, i.e. the class of g
        has |G'| elements, for every g outside the centre."""
        z, d = self.center(), len(self.derived())
        if len(z) == self.n:
            return False
        return all(self.sizes[self.class_of[g]] == d
                   for g in range(self.n) if g not in z)

    # ------------------------------------------------------------------
    # fiber counts

    def zeta_wn(self, n):
        """Per-class counts of w_n = [w_{n-1}, x_n] by the integer recursion
        zeta_n(D) = sum_C zeta_{n-1}(C) |C| #{x : [rep_C, x] in D} / |D|,
        starting from zeta_1 = 1."""
        k, cls = self.k, self.class_of
        hits = [[0] * k for _ in range(k)]
        for c in range(k):
            rep = self.classes[c][0]
            row = hits[c]
            for x in range(self.n):
                row[cls[self.comm(rep, x)]] += 1
        zeta = [1] * k
        for _ in range(n - 1):
            nxt = []
            for d in range(k):
                num = sum(zeta[c] * self.sizes[c] * hits[c][d]
                          for c in range(k))
                q, r = divmod(num, self.sizes[d])
                if r:
                    raise ArithmeticError("recursion left a remainder")
                nxt.append(q)
            zeta = nxt
        return zeta

    def domain(self, name):
        if name is None:
            return range(self.n)
        return sorted({"derived": self.derived,
                       "center": self.center}[name]())

    def word_counts(self, expr, domains=None):
        """Per-element counts of a word tree (see below) whose blocks use
        disjoint variables; `domains` maps a variable index to "derived" or
        "center"."""
        variables(expr)
        dist = self._dist(expr, domains or {})
        return [dist.get(g, 0) for g in range(self.n)]

    def _dist(self, expr, domains):
        op = expr[0]
        mul = self.mul
        if op == "var":
            return {g: 1 for g in self.domain(domains.get(expr[1]))}
        if op == "pow":
            out = {}
            for a, c in self._dist(expr[1], domains).items():
                g = self.power(a, expr[2])
                out[g] = out.get(g, 0) + c
            return out
        left = self._dist(expr[1], domains)
        right = self._dist(expr[2], domains)
        combine = self.comm if op == "comm" else (lambda a, b: mul[a][b])
        out = {}
        for a, ca in left.items():
            for b, cb in right.items():
                g = combine(a, b)
                out[g] = out.get(g, 0) + ca * cb
        return out

    def power(self, a, k):
        if k < 0:
            a, k = self.inv[a], -k
        x = 0
        for _ in range(k):
            x = self.mul[x][a]
        return x


# ---------------------------------------------------------------------------
# word trees: ("var", i) | ("pow", t, k) | ("mul", t, u) | ("comm", t, u)


def variables(expr):
    """The tree's variables; raises if two blocks share one."""
    if expr[0] == "var":
        return {expr[1]}
    if expr[0] == "pow":
        return variables(expr[1])
    left, right = variables(expr[1]), variables(expr[2])
    if left & right:
        raise ValueError("word blocks must use disjoint variables")
    return left | right


def render(expr):
    """The word in the CLI's --word syntax."""
    op = expr[0]
    if op == "var":
        return f"x{expr[1]}"
    if op == "pow":
        inner = render(expr[1])
        if expr[1][0] != "var":
            inner = f"({inner})"
        return f"{inner}^{expr[2]}"
    if op == "mul":
        return f"{render(expr[1])} {render(expr[2])}"
    return f"[{render(expr[1])},{render(expr[2])}]"


def wn_tree(n):
    expr = ("var", 1)
    for i in range(2, n + 1):
        expr = ("comm", expr, ("var", i))
    return expr


# ---------------------------------------------------------------------------
# character tables, checked modulo a prime


def _is_prime(m):
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _root_of_unity(e):
    """(p, w): a prime p = 1 mod e above 2^61 and w of order exactly e."""
    p = (2**61 // e + 1) * e + 1
    while not _is_prime(p):
        p += e
    factors = {q for q in range(2, e + 1)
               if e % q == 0 and all(q % r for r in range(2, q))}
    for g in range(2, p):
        w = pow(g, (p - 1) // e, p)
        if all(pow(w, e // q, p) != 1 for q in factors):
            return p, w
    raise ArithmeticError("no root of unity")


def parse_table_text(text):
    """(exponent, [(rep, size)], rows of coefficient tuples) from the
    program's chartab text format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "chartab":
        raise ValueError("not a chartab dump")
    e = int(head[1].split("=")[1])
    k = int(head[2].split("=")[1])
    classes = []
    for ln in lines[1:1 + k]:
        tag, rep, size = ln.split()
        if tag != "class":
            raise ValueError("bad class line")
        classes.append((int(rep), int(size)))
    rows = [[tuple(int(c) for c in chunk.split(":"))
             for chunk in ln.split(",")] for ln in lines[1 + k:1 + 2 * k]]
    if len(lines) != 1 + 2 * k or len(rows) != k:
        raise ValueError("wrong number of lines")
    return e, classes, rows


def table_problems(ref, e, classes, rows):
    """Reasons a character table is wrong for the group, [] if none found.

    Checks the class data against the reference partition, the degree sum
    and linear-character count, both orthogonality relations, and
    Frobenius' formula zeta_2 = sum |G|/chi(1) chi against the recursion,
    all modulo a prime p = 1 mod e through a primitive e-th root of unity.
    """
    n, k = ref.n, ref.k
    if len(classes) != k:
        return [f"{len(classes)} classes, expected {k}"]
    cols = []
    for rep, size in classes:
        if not 0 <= rep < n or ref.sizes[ref.class_of[rep]] != size:
            return [f"class rep {rep} size {size} does not match"]
        cols.append(ref.class_of[rep])
    if len(set(cols)) != k:
        return ["class reps repeat a class"]
    if any(len(row) != k or any(len(v) != e for v in row) for row in rows):
        return ["table has the wrong shape"]
    ident = cols.index(0)
    degrees = []
    for row in rows:
        v = row[ident]
        if v[0] < 1 or any(v[1:]):
            return ["value at the identity is not a positive integer"]
        degrees.append(v[0])
    problems = degrees_problems(ref, degrees)
    if any(n % d for d in degrees):
        return problems + ["a degree does not divide |G|"]
    p, w = _root_of_unity(e)
    wp = [pow(w, t, p) for t in range(e)]
    val = [[sum(c * wp[t] for t, c in enumerate(v) if c) % p for v in row]
           for row in rows]
    bar = [[sum(c * wp[-t % e] for t, c in enumerate(v) if c) % p for v in row]
           for row in rows]
    sizes = [size for _, size in classes]
    for r in range(k):
        for s in range(r, k):
            got = sum(sizes[j] * val[r][j] * bar[s][j] for j in range(k)) % p
            if got != (n if r == s else 0):
                problems.append(f"row orthogonality fails at {r},{s}")
                break
    for i in range(k):
        for j in range(i, k):
            got = sum(val[r][i] * bar[r][j] for r in range(k)) % p
            if got != ((n // sizes[i]) % p if i == j else 0):
                problems.append(f"column orthogonality fails at {i},{j}")
                break
    zeta2 = ref.zeta_wn(2)
    for j in range(k):
        got = sum((n // degrees[r]) * val[r][j] for r in range(k)) % p
        if got != zeta2[cols[j]] % p:
            problems.append(f"Frobenius' formula fails at class {j}")
    return problems


def info_expected(ref):
    """The `info` lines that the reference determines, as strings."""
    z, d = len(ref.center()), len(ref.derived())
    nclass = ref.nilpotency_class()
    out = {
        "order": str(ref.n),
        "classes": str(ref.k),
        "exponent": str(ref.exponent()),
        "center": str(z),
        "derived": str(d),
        "class": str(nclass) if nclass is not None else "not-nilpotent",
        "upper_central_series": str(ref.upper_central_series()),
        "lower_central_series": str(ref.lower_central_series()),
        "abelian": str(z == ref.n),
    }
    if ref.n > 1:
        out["camina_group"] = str(ref.is_camina_group())
        out["vz_group"] = str(ref.is_vz())
    return out


def degrees_problems(ref, degrees):
    """Checks on a full list of character degrees that need no table."""
    problems = []
    if len(degrees) != ref.k:
        problems.append(f"{len(degrees)} degrees, expected {ref.k}")
    if sum(d * d for d in degrees) != ref.n:
        problems.append("sum of squared degrees != |G|")
    if list(degrees).count(1) * len(ref.derived()) != ref.n:
        problems.append("linear characters != |G:G'|")
    return problems


def degree_set_problems(ref, cd):
    """Checks on the set of character degrees: 1 is in it, every degree
    divides |G|, and its nonlinear degrees can be the degrees of the
    k - |G:G'| nonlinear characters, whose squares sum to |G| - |G:G'|."""
    linear = ref.n // len(ref.derived())
    count, mass = ref.k - linear, ref.n - linear
    big = sorted(d for d in cd if d > 1)
    if 1 not in cd or any(ref.n % d for d in cd):
        return ["degree set must hold 1 and divisors of |G|"]
    if not big:
        return [] if count == 0 else ["nonlinear degrees are missing"]
    # each degree occurs at least once; the other characters lie between
    # the smallest and the largest degree
    rest, left = count - len(big), mass - sum(d * d for d in big)
    if rest < 0 or not rest * big[0] ** 2 <= left <= rest * big[-1] ** 2:
        return [f"degree set {sorted(cd)} does not fit {count} nonlinear "
                f"characters with squares summing to {mass}"]
    return []


def isoclinism_factor(order_g, order_h, n):
    return Fraction(order_g, order_h) ** (n + 1)
