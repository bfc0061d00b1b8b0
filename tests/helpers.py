"""Independent oracles shared by the test modules.

These deliberately avoid the library's fast paths: naive dict arithmetic
instead of the term kernels, a dense Macaulay-matrix membership test
instead of Groebner normal forms, Buchberger's algorithm without any pair
criterion, and a dense socle matrix.
"""

import itertools
import math
import random

from frobstab.field import PrimeField
from frobstab.frobenius import frobenius_closure
from frobstab.groebner import Ideal
from frobstab.linalg import in_row_space, kernel, rref
from frobstab.poly import PolyRing, mono_div, mono_divides, mono_lcm, mono_mul
from frobstab.stability import CHAIN_STABILIZED, frobenius_colon_chain


def naive_mul(f, g):
    """Schoolbook product via a coefficient dict."""
    acc = {}
    p = f.ring.p
    for c1, e1 in f.terms:
        for c2, e2 in g.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = (acc.get(e, 0) + c1 * c2) % p
    return f.ring.from_dict(acc)


def naive_pow(f, n):
    out = f.ring.one()
    for _ in range(n):
        out = naive_mul(out, f)
    return out


def random_poly(ring, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms[e] = rng.randint(0, ring.p - 1)
    return ring.from_dict(terms)


def monomials_up_to(ring, degree):
    out = []
    for e in itertools.product(range(degree + 1), repeat=ring.nvars):
        if sum(e) <= degree:
            out.append(e)
    return out


class MacaulayOracle:
    """Dense degree-bounded ideal membership: f in I iff f is a linear
    combination of monomial multiples of the generators up to the bound."""

    def __init__(self, gens, degree):
        assert gens
        self.ring = gens[0].ring
        self.degree = degree
        rows = []
        cols = monomials_up_to(self.ring, degree)
        self.col_index = {e: i for i, e in enumerate(cols)}
        for g in gens:
            gdeg = g.degree()
            for m in monomials_up_to(self.ring, degree - gdeg):
                prod = g.shift(1, m)
                if prod.degree() > degree:
                    continue
                row = [0] * len(cols)
                for c, e in prod.terms:
                    row[self.col_index[e]] = c
                rows.append(row)
        field = self.ring.field
        self.rref_rows, self.pivots = rref(rows, field) if rows else ([], [])

    def contains(self, f):
        if f.is_zero():
            return True
        if f.degree() > self.degree:
            raise ValueError("polynomial exceeds the oracle's degree bound")
        vec = [0] * len(self.col_index)
        for c, e in f.terms:
            vec[self.col_index[e]] = c
        return in_row_space(self.rref_rows, self.pivots, vec, self.ring.field)


def staircase_oracle(ideal, weights=None, degree=None):
    """The standard monomials of an Artinian quotient by enumerate-and-filter:
    list every monomial of the box under the pure powers of the leads, keep
    those of weighted degree `degree` when one is given, drop those a lead
    divides, sort by the ring's order."""
    ring = ideal.ring
    n = ring.nvars
    lts = ideal.leading_monomials()
    if not all(any(lead) for lead in lts):
        return ()  # unit ideal
    bounds = [min(e[i] for e in lts if e[i] and sum(e) == e[i]) for i in range(n)]
    monos = itertools.product(*(range(b) for b in bounds))
    if degree is not None:
        monos = (e for e in monos if sum(w * x for w, x in zip(weights, e)) == degree)
    out = [m for m in monos if not any(mono_divides(lead, m) for lead in lts)]
    return tuple(sorted(out, key=ring.key))


def buchberger_oracle(ideal):
    """Canonical strings of the reduced Groebner basis from Buchberger's
    algorithm with no pair criterion: every pair's S-polynomial is reduced,
    smallest lcm first, by naive dict arithmetic."""
    ring = ideal.ring
    p = ring.p

    def lead(f):
        return max(f, key=ring.key)

    def monic(f):
        inv = pow(f[lead(f)], p - 2, p)
        return {e: c * inv % p for e, c in f.items()}

    def add_multiple(acc, f, coeff, shift):
        for e, c in f.items():
            e = mono_mul(e, shift)
            v = (acc.get(e, 0) + coeff * c) % p
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)

    def reduce(f, basis):
        f, rest = dict(f), {}
        while f:
            m = lead(f)
            g = next((g for g in basis if mono_divides(lead(g), m)), None)
            if g is None:
                rest[m] = f.pop(m)
            else:
                add_multiple(f, g, -f[m], mono_div(m, lead(g)))
        return rest

    def pair_lcm(pair):
        return mono_lcm(lead(G[pair[0]]), lead(G[pair[1]]))

    G = [monic({e: c for c, e in g.terms}) for g in ideal.gens]
    pending = [(i, j) for j in range(len(G)) for i in range(j)]
    while pending:
        i, j = min(pending, key=lambda pair: ring.key(pair_lcm(pair)))
        pending.remove((i, j))
        lcm = pair_lcm((i, j))
        s = {}
        add_multiple(s, G[i], 1, mono_div(lcm, lead(G[i])))
        add_multiple(s, G[j], -1, mono_div(lcm, lead(G[j])))
        r = reduce(s, G)
        if r:
            G.append(monic(r))
            pending += [(k, len(G) - 1) for k in range(len(G) - 1)]
    minimal = []
    for g in sorted(G, key=lambda g: ring.key(lead(g))):
        if not any(mono_divides(lead(h), lead(g)) for h in minimal):
            minimal.append(g)
    reduced = [monic(reduce(g, [h for h in minimal if h is not g])) for g in minimal]
    return [str(ring.from_dict(g)) for g in reduced]


def dense_socle_oracle(ideal, gens=None):
    """socle_basis by one dense matrix: one block of dim rows per generator
    of the maximal ideal (the variables when none are given), each the
    staircase coordinates of the generator times every standard monomial,
    zero rows included; its kernel gives the representatives."""
    ring = ideal.ring
    stair = ideal.staircase()
    if not stair.monomials:
        return []
    ncols = len(stair.monomials)
    rows = []
    for v in gens or ring.gens():
        cols = [ideal.coordinates(v * ring.monomial(m), stair) for m in stair.monomials]
        for r in range(ncols):
            rows.append([cols[c][r] for c in range(ncols)])
    out = []
    for vec in kernel(rows, ring.field, ncols=ncols):
        out.append(ring.from_dict({m: c for m, c in zip(stair.monomials, vec) if c}))
    return out


def colon_cm_oracle(graded):
    """The colon CM gate in the user's ring: the sop theta_1..theta_d is a
    regular sequence modulo K exactly when every colon
    (K + (theta_1..theta_(k-1))) : theta_k equals K + (theta_1..theta_(k-1))."""
    base = list(graded.user_relations.gens)
    for x in graded.user_sop:
        ideal = Ideal(graded.user_ring, base)
        if not ideal.contains_ideal(ideal.colon(x)):
            return False
        base.append(x)
    return True


def random_small_ring(seed):
    """A ring-file dict over F_2 or F_3 in a, b, c: one to three quadratic
    monomials or binomials and one or two random linear forms as the sop,
    which need not cut the ring down to dimension zero."""
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    names = ("a", "b", "c")

    def mono():
        e = [0, 0, 0]
        for _ in range(2):
            e[rng.randrange(3)] += 1
        return "*".join(f"{v}^{x}" for v, x in zip(names, e) if x)

    relations = [
        mono() if rng.random() < 0.6 else f"{mono()} - {mono()}"
        for _ in range(rng.randint(1, 3))
    ]
    sop = [
        " + ".join(f"{rng.randrange(p)}*{v}" for v in names) for _ in range(rng.randint(1, 2))
    ]
    return {"char": p, "vars": list(names), "relations": relations, "sop": sop}


# --- Fedder's criterion, by dict arithmetic alone ------------------------------------


def random_hypersurface(n, d, p, seed):
    """A ring-file dict for F_p[x0..x(n-2), z]/(f): f = z^d plus six seeded
    monomials of degree d with nonzero coefficients, and the sop x0..x(n-2).
    The free variable z is last.  Returns (ring dict, f as {exponents: c})."""
    rng = random.Random(seed)
    names = tuple(f"x{i}" for i in range(n - 1)) + ("z",)
    monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    f = {(0,) * (n - 1) + (d,): 1}
    for e in rng.sample(monos, 6):
        f[e] = rng.randrange(1, p)
    ring = {
        "name": f"hypersurface_n{n}_d{d}_p{p}",
        "char": p,
        "vars": list(names),
        "relations": [_text(f, names)],
        "sop": list(names[:-1]),
    }
    return ring, f


def _text(f, names):
    """A dict {exponent tuple: coefficient} in the ring-file syntax."""
    return " + ".join(
        "*".join([str(c)] * (c != 1) + [v if x == 1 else f"{v}^{x}" for v, x in zip(names, e) if x])
        for e, c in sorted(f.items(), reverse=True)
    )


def _dict_mul(f, g, p):
    """f*g over F_p for dicts {exponent tuple: coefficient}."""
    acc = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = (acc.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in acc.items() if c}


def _dict_power(f, k, p):
    """f^k over F_p for f a dict {exponent tuple: coefficient}."""
    power = {tuple(0 for _ in next(iter(f))): 1}
    for _ in range(k):
        power = _dict_mul(power, f, p)
    return power


def fedder_f_injective(f, p):
    """Fedder (1983): F_p[x]/(f) is F-pure, for a hypersurface the same as
    F-injective, exactly when f^(p-1) is not in m^[p] = (x_i^p).  `f` is a
    dict {exponent tuple: coefficient}."""
    return _fedder(_dict_power(f, p - 1, p), p)


def _fedder(power, p):
    """Whether some term of f^(p-1), given as `power`, has every exponent
    below p, that is f^(p-1) is not in (x_i^p)."""
    return any(all(x < p for x in e) for e in power)


def hasse_witt_stable_dim(f, p):
    """The stable dimension of Frobenius on [H^(n-1)_m(R)]_0, R =
    F_p[x_1..x_n]/(f), from the Hasse-Witt matrix (Katz 1972); see
    `_hasse_witt_rank`.  `f` is a dict {exponent tuple: coefficient}."""
    lead = next(iter(f))
    return _hasse_witt_rank(_dict_power(f, p - 1, p), len(lead), sum(lead), p)


def _hasse_witt_rank(power, n, d, p):
    """The stable dimension of Frobenius on [H^(n-1)_m(R)]_0, R =
    F_p[x_1..x_n]/(f), deg f = d, f^(p-1) given as `power`.

    That piece has the basis x^(-u), every u_i >= 1 and |u| = d, and
    Frobenius sends x^(-u) to f^(p-1) x^(-pu), so it has the matrix
    M[v,u] = coefficient of x^(pu-v) in f^(p-1).  Its entries lie in F_p,
    so Frobenius is linear there and the stable part is the image of M^N
    for N >= size: `stable_dim` is rank M^N.  The ranks come from
    Gaussian elimination mod p."""
    basis = [u for u in itertools.product(range(1, d + 1), repeat=n) if sum(u) == d]
    M = [[power.get(tuple(p * a - b for a, b in zip(u, v)), 0) for u in basis] for v in basis]
    A = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
    for _ in basis:
        A = [[sum(a * m for a, m in zip(row, col)) % p for col in zip(*M)] for row in A]
    return _rank_mod_p(A, p)


# --- diagonal hypersurfaces, by the multinomial theorem alone ------------------------


def diagonal_hypersurface(n, d, p, seed):
    """A ring-file dict for F_p[x, y, z(, w)]/(f(Ax)), f = sum a_i x_i^d,
    with seeded nonzero a_i and a seeded invertible n x n matrix A over
    F_p; the sop is (Ax)_1..(Ax)_(n-1), the images of x_1..x_(n-1), which
    cut f down to a_n x_n^d.  Returns (ring dict, the coefficients a)."""
    rng = random.Random(seed)
    names = ("x", "y", "z", "w")[:n]
    a = [rng.randrange(1, p) for _ in range(n)]
    while True:
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod_p(A, p) == n:
            break
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [{unit[j]: c for j, c in enumerate(row) if c} for row in A]
    g = {}
    for coeff, row in zip(a, rows):
        for e, c in _dict_power(row, d, p).items():
            g[e] = (g.get(e, 0) + coeff * c) % p
    ring = {
        "name": f"diagonal_n{n}_d{d}_p{p}",
        "char": p,
        "vars": list(names),
        "relations": [_text({e: c for e, c in g.items() if c}, names)],
        "sop": [_text(row, names) for row in rows[:-1]],
    }
    return ring, a


def diagonal_verdicts(a, d, p):
    """(F-injective, stable_dim) of F_p[x_1..x_n]/(sum a_i x_i^d) from the
    multinomial theorem: f^(p-1) has the terms prod x_i^(d k_i), |k| = p - 1,
    with coefficients (p-1)!/prod k_i! * prod a_i^k_i, none of them zero
    mod p, as p does not divide (p-1)!.  Fedder's test and the Hasse-Witt
    rank are read from those terms."""
    n = len(a)
    power = {}
    for k in itertools.product(range(p), repeat=n):
        if sum(k) == p - 1:
            c = math.factorial(p - 1) // math.prod(map(math.factorial, k))
            c = c * math.prod(pow(x, y, p) for x, y in zip(a, k)) % p
            power[tuple(d * x for x in k)] = c
    return _fedder(power, p), _hasse_witt_rank(power, n, d, p)


# --- binary forms with a known number of points --------------------------------------


def binary_form_ring(p, linear, quadratics):
    """A ring-file dict for F_p[x, y]/(f), and the number of points of
    V(f) in P^1 over the algebraic closure of F_p.

    f is the product of the linear forms a*x + b*y, given as ((a, b),
    multiplicity), and of x^2 - n*y^2 for each n in `quadratics`.  The
    linear forms must be pairwise non-proportional, and the n distinct
    quadratic non-residues mod p, so that each x^2 - n*y^2 is irreducible
    over F_p with the two points (+-sqrt(n) : 1) over F_(p^2), and no two
    factors share a point: the count is the number of linear forms plus 2
    per quadratic, whatever the multiplicities.  The sop theta is the
    first of y, x, x + y, ..., x + (p-1)*y proportional to no linear
    factor; a quadratic has no F_p-point, so V(theta) misses V(f)."""

    def normalized(a, b):
        a, b = a % p, b % p
        lead = a or b
        return a * pow(lead, p - 2, p) % p, b * pow(lead, p - 2, p) % p

    points = {normalized(*ab) for ab, _mult in linear}
    assert len(points) == len(linear) and (0, 0) not in points
    residues = {c * c % p for c in range(1, p)}
    assert len(set(quadratics)) == len(quadratics)
    assert all(n % p and n % p not in residues for n in quadratics)
    def form(a, b):
        return {e: c % p for e, c in (((1, 0), a), ((0, 1), b)) if c % p}

    f = {(0, 0): 1}
    for (a, b), mult in linear:
        f = _dict_mul(f, _dict_power(form(a, b), mult, p), p)
    for n in quadratics:
        f = _dict_mul(f, {(2, 0): 1, (0, 2): -n % p}, p)
    theta = next(ab for ab in [(0, 1)] + [(1, c) for c in range(p)] if ab not in points)
    ring = {
        "name": f"binary_form_p{p}",
        "char": p,
        "vars": ["x", "y"],
        "relations": [_text(f, ("x", "y"))],
        "sop": [_text(form(*theta), ("x", "y"))],
    }
    return ring, len(points) + 2 * len(quadratics)


# --- compatible ideals of the coordinate hyperplanes, by supports alone ---------------


def coordinate_hyperplanes_closure(monomials, n):
    """The compatible closure of a monomial ideal of F_p[x_1..x_n]/(x_1...x_n)
    as squarefree exponent tuples: the supports of the generators and x_1...x_n.

    With u = (x_1...x_n)^(p-1), every squarefree monomial ideal J has
    u*J inside J^[p], since u*x^S is divisible by (x^S)^p; the ring is
    F-pure, so every compatible ideal is radical.  The closure of M is
    therefore the radical of M + (x_1...x_n), whose generators are those
    supports.  Works for every p."""
    supports = {tuple(int(x > 0) for x in e) for e in monomials}
    return sorted(supports | {(1,) * n})


def _rank_mod_p(rows, p):
    return len(_rref_mod_p(rows, p))


def _rref_mod_p(rows, p):
    """The nonzero rows of the reduced row echelon form over F_p."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return [tuple(row) for row in rows[:rank]]


# --- stable parts over a prime field ------------------------------------------------


def linear_stable_part(matrix, p):
    """The stable part of v -> A v^p on F_p^n, as RREF rows: c^p = c on F_p,
    so the map is linear, and by Fitting's lemma its stable part is the
    image of A^n, the column span of A^n.  Plain integer arithmetic."""
    n = len(matrix)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        power = [
            [sum(power[i][k] * matrix[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
    return _rref_mod_p([list(col) for col in zip(*power)], p)


def small_ring(p=2, names=("a", "b")):
    return PolyRing(PrimeField(p), names)


def seeded(seed):
    return random.Random(seed)


def brute_force_socle_candidates(graded, cfg):
    """Every nonzero F_p-combination of the socle basis of I_1 + K whose
    annihilator chain stabilizes at m outside the Frobenius closure: the
    socle route's acceptance test, applied to all p^s - 1 combinations
    instead of a linear-algebra basis."""
    ring = graded.ring
    m = Ideal(ring, ring.gens())
    reps = graded.socle_of_truncation(1)
    closure = frobenius_closure(
        Ideal(ring, graded.sop), cfg.e_max, cfg.window, relations=graded.relations
    ).closure
    out = []
    for coeffs in itertools.product(range(ring.p), repeat=len(reps)):
        if not any(coeffs):
            continue
        u = ring.zero()
        for c, rep in zip(coeffs, reps):
            u = u + rep.scale(c)
        chain = frobenius_colon_chain(graded, 1, u, cfg)
        if (
            chain.status == CHAIN_STABILIZED
            and chain.limit.equals(m)
            and not closure.contains(u)
        ):
            out.append(u)
    return out
