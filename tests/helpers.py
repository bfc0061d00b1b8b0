"""Independent oracles shared by the test modules.

These deliberately avoid the library's fast paths: naive dict arithmetic
instead of the term kernels, and a dense Macaulay-matrix membership test
instead of Groebner normal forms.
"""

import itertools
import random

from frobstab.field import PrimeField
from frobstab.frobenius import frobenius_closure
from frobstab.groebner import Ideal
from frobstab.linalg import rref, in_row_space
from frobstab.poly import PolyRing, mono_divides
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
    """Ideal.staircase by enumerate-and-filter: list every monomial of the
    box under the pure powers (degree=None) or of the weighted degree, drop
    those a lead divides, sort by the ring's order."""
    ring = ideal.ring
    n = ring.nvars
    lts = ideal.leading_monomials()
    if not all(any(lead) for lead in lts):
        return ()  # unit ideal
    if degree is None:
        bounds = [min(e[i] for e in lts if e[i] and sum(e) == e[i]) for i in range(n)]
        monos = itertools.product(*(range(b) for b in bounds))
    else:
        weights = weights or (1,) * n
        box = itertools.product(*(range(degree // w + 1) for w in weights))
        monos = (e for e in box if sum(w * x for w, x in zip(weights, e)) == degree)
    out = [m for m in monos if not any(mono_divides(lead, m) for lead in lts)]
    return tuple(sorted(out, key=ring.key))


def small_ring(p=2, names=("a", "b")):
    return PolyRing(PrimeField(p), names)


def seeded(seed):
    return random.Random(seed)


def brute_force_socle_candidates(graded, cfg):
    """(level, class) for every nonzero F_p-combination of each truncation's
    socle basis whose annihilator chain stabilizes at m outside the
    Frobenius closure: the socle route's acceptance test, applied to all
    p^s - 1 combinations instead of a linear-algebra basis."""
    ring = graded.ring
    m = Ideal(ring, ring.gens())
    out = []
    for t in range(1, cfg.socle_t_max + 1):
        reps = graded.socle_of_truncation(t)
        params = [x**t for x in graded.sop]
        closure = frobenius_closure(
            Ideal(ring, params), cfg.e_max, cfg.window, relations=graded.relations
        ).closure
        for coeffs in itertools.product(range(ring.p), repeat=len(reps)):
            if not any(coeffs):
                continue
            u = ring.zero()
            for c, rep in zip(coeffs, reps):
                u = u + rep.scale(c)
            chain = frobenius_colon_chain(graded, params, u, cfg)
            if (
                chain.status == CHAIN_STABILIZED
                and chain.limit.equals(m)
                and not closure.contains(u)
            ):
                out.append((t, u))
    return out
