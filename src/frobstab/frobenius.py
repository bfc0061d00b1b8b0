"""Frobenius ideal operations: bracket powers, roots, closures.

All operations follow the quotient-ring convention: an ideal of R = S/K
is handled through its preimage in the polynomial ring S, passing the
relation ideal K separately.  Bracket powers raise only the ideal's own
generators and then fold K back in.

Frobenius roots (the minimal J with I contained in J^[q]) are exact over
the polynomial ring, where Frobenius is flat.  That same flatness (Kunz:
S is regular) makes every ideal of S Frobenius closed, so with no
relations the closure is I itself, certified without a chain.  In a
proper quotient the closure piece {x : x^q in I^[q] + K} is *not* a
Frobenius root, and computing it as one can overshoot all the way to the
unit ideal; instead it is solved
exactly by linear algebra on the finite staircase carrier: over F_p the
map x -> x^q is additive with fixed coefficients, so membership of x^q
in a fixed ideal is a linear condition on the staircase coordinates of x.
This requires the input ideal to be m-primary in the quotient, as an
ideal generated by a system of parameters is.
"""

from dataclasses import dataclass

from .errors import InconsistencyError, InputError, NotSupportedError
from .groebner import Ideal
from .linalg import kernel, rows_from_columns

CERTIFIED_TRIVIAL = "certified-trivial"
STABILIZED = "stabilized-heuristic"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_E_MAX = 6
DEFAULT_WINDOW = 2


def _with_relations(I, relations):
    if relations is None or not relations.gens:
        return I
    return Ideal(I.ring, I.gens + relations.gens)


def bracket_power(I, e, relations=None):
    """I^[p^e]: generator powers, relations folded back in."""
    if e < 0:
        raise InputError("bracket power needs e >= 0")
    gens = [g.frobenius(e) for g in I.gens]
    if relations is not None:
        gens += list(relations.gens)
    return Ideal(I.ring, gens)


def frobenius_root(I, e=1, relations=None):
    """The smallest J with I + K contained in J^[p^e] (polynomial ring).

    Computed by decomposing each generator over the free p-restricted
    monomial basis, g = sum h_mu^p x^mu, and collecting the h_mu; iterated
    e times.  g lies in J^[p] exactly when every h_mu lies in J, so any
    generating set will do.  Coefficients of F_p are their own p-th roots.
    Monomial exponents come out as floor(a / p^e).

    A step that returns the generators it was given returns them at every
    later step, so the loop stops there.  Each step divides degrees by p,
    and generators of degree < p become constants, so that happens within
    about log_p(top degree) + 2 steps whatever e is.
    """
    if e < 1:
        raise InputError("frobenius root needs e >= 1")
    J = _with_relations(I, relations)
    for _ in range(e):
        root = _root_once(J)
        if root.gens == J.gens:
            break
        J = root
    return J


def _root_once(I):
    ring = I.ring
    p = ring.p
    out = []
    for g in I.gens:
        buckets = {}
        for c, exps in g.terms:
            mu = tuple(x % p for x in exps)
            base = tuple(x // p for x in exps)
            buckets.setdefault(mu, {})[base] = c
        out.extend(ring.from_dict(d) for d in buckets.values())
    return Ideal(ring, out)


@dataclass
class ClosureReport:
    """Result of a Frobenius closure run.

    chain holds (e, ideal) snapshots starting at (0, I); the chain is
    ascending (verified) and the closure is its last element.  The status
    records how the run ended; stabilization by window is a heuristic,
    never a certificate.
    """

    closure: Ideal
    status: str
    chain: list

    def to_json(self):
        return {
            "closure": self.closure.canonical_strings(),
            "status": self.status,
            "chain": [{"e": e, "gens": J.canonical_strings()} for e, J in self.chain],
        }


def frobenius_closure(I, e_max=DEFAULT_E_MAX, window=DEFAULT_WINDOW, relations=None):
    """The chain of e-th closure pieces of I in S/K, with its status."""
    if e_max < 1 or window < 1:
        raise InputError("e_max and window must be positive")
    if relations is None or not relations.gens:
        # S = F_p[vars] is regular, so Frobenius is flat (Kunz) and every
        # ideal of S is Frobenius closed
        return ClosureReport(I, CERTIFIED_TRIVIAL, [(0, I)])
    stored = _with_relations(I, relations)
    chain = [(0, stored)]
    status = BUDGET_EXHAUSTED
    equal_run = 0
    prev = stored
    for e, piece in _contraction_chain_pieces(I, relations, stored, e_max):
        if not piece.contains_ideal(prev):
            raise InconsistencyError("closure chain failed to ascend")
        chain.append((e, piece))
        equal_run = equal_run + 1 if piece.equals(prev) else 0
        prev = piece
        if equal_run >= window:
            status = STABILIZED
            break
    return ClosureReport(chain[-1][1], status, chain)


def _contraction_chain_pieces(I, relations, stored, e_max):
    ring = I.ring
    if not stored.is_artinian():
        raise NotSupportedError(
            "Frobenius closure in a quotient ring needs an m-primary ideal"
        )
    stair = stored.staircase()
    monos = stair.monomials
    for e in range(1, e_max + 1):
        B = bracket_power(I, e, relations)
        if not monos:
            yield e, stored
            continue
        q = ring.p**e
        columns = []
        for m in monos:
            nf = B.normal_form(ring.monomial(tuple(x * q for x in m)))
            columns.append({em: c for c, em in nf.terms})
        rows = rows_from_columns(columns, ring.field)
        vecs = kernel(rows, ring.field, ncols=len(monos))
        extra = []
        for v in vecs:
            extra.append(ring.from_dict({m: c for m, c in zip(monos, v) if c}))
        yield e, Ideal(ring, stored.gens + tuple(g for g in extra if g))


def is_frobenius_closed(I, e_max=DEFAULT_E_MAX, window=DEFAULT_WINDOW, relations=None):
    """(I == I^F, status); comparison against I with relations included."""
    report = frobenius_closure(I, e_max, window, relations)
    stored = _with_relations(I, relations)
    return report.closure.equals(stored), report.status
