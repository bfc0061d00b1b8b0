"""F-injectivity and F-stability analyses on graded rings.

F-injectivity of a Cohen-Macaulay ring is one rank: H^d_m(R) is an
essential extension of its socle, the image of socle(R/I_1), and ker F
is a submodule, so F is injective exactly when u -> u^p mod I_p = I_1^[p]
(in the module ring of `frobstab.localcoh`), linear on socle(R/I_1), has
full rank.

Two independent routes decide F-stability of the top local cohomology
module:

* the certified route computes the Frobenius matrix on the degree-zero
  carrier, taken at the level the a-invariant gives, and takes the
  dimension of its stable part;
* the socle route works at level 1 only.  Over F_p the map u -> u^q is
  additive with fixed coefficients, so "m kills u^q modulo I_q"
  is a linear condition on the socle coordinates of u.  The classes
  meeting it for q = p, ..., p^e form a kernel V^(e), which is run to
  its fixpoint V^inf, reached within dim socle(R/I_1) steps; Frobenius
  maps V^inf into itself, and the route's candidates are a basis of the
  stable part of that map.  Each has annihilator chain m at every e.

No verdict computes a Frobenius closure.

A nonzero stable part and the existence of such a class are equivalent
for rings with an injective Frobenius action.  Both routes are exact on
a verified CM ring, so on an F-injective one their verdicts must agree,
and a disagreement either way raises an inconsistency error instead of
being reconciled silently.  On a ring that is not F-injective the
equivalence does not apply, and the certified `f_injective` false beside
the verdicts says so.

Annihilator chains C_e = (I_(tq) : x^q) of a level-t class, I_(tq) =
I_t^[q] a truncation ideal, stop after `window` consecutive equality
comparisons.  A chain that never stabilizes (the colon of 1 in a
polynomial ring, for instance) is reported with its last element as an
explicit upper bound and no limit is claimed.  The `window` and `e_max`
of a RunConfig bound these chains; no verdict reads either.  The
annihilators of the F-stable submodules themselves come exactly, with
no window, from `compatible_closure` on complete intersections.

On a one-dimensional ring the component check compares the number of
components of the punctured spectrum, the points of Proj R over the
algebraic closure, with 1 + stable_dim.  It counts them from the ring
alone, as the stable dimension of Frobenius on (R_theta)_0, theta the
sop: a third exact route, on its own carrier, whose disagreement with
the certified one raises.  It runs no Buchberger computation: on the
verified gate the basis G of K' at T = 1 is a Groebner basis of
K + (theta - 1), by dehomogenization, so the carrier is read off I_1's
staircase and its Frobenius images are normal forms modulo K' at T = 1.
"""

import itertools
from dataclasses import dataclass
from math import prod

from .config import RunConfig
from .errors import InconsistencyError, InputError, NotSupportedError
from .frobenius import frobenius_root
from .groebner import Ideal
from .linalg import kernel, rows_from_columns, solve
from .poly import mono_degree
from .semilinear import SemilinearOperator

CHAIN_STABILIZED = "stabilized"
CHAIN_NOT_STABILIZED = "not-stabilized"


@dataclass
class ChainReport:
    """A colon chain C_0, C_1, ... with its stabilization verdict.

    When the chain did not stabilize, `limit` is only an upper bound for
    the true intersection and `upper_bound_only` says so explicitly.
    """

    ideals: list
    status: str
    descending_verified: bool

    @property
    def limit(self):
        return self.ideals[-1]

    @property
    def upper_bound_only(self):
        return self.status != CHAIN_STABILIZED


def frobenius_colon_chain(graded, level, x, cfg=None, expect_descending=False):
    """The chain C_e = (I_(level*q) : x^q), q = p^e, for e = 0, 1, ...

    I_t is the truncation ideal K' + (T_1^t..T_d^t) of `graded`, which is
    I^[q] + K' for I = (T_1^level..T_d^level), so every B_e has its basis
    without a Buchberger run on a CM ring.  With `expect_descending` a
    violation of C_{e+1} <= C_e is a hard error (it contradicts
    F-injectivity + CM), otherwise it is only recorded.
    """
    cfg = cfg or RunConfig()
    if x.is_zero():
        raise InputError("chain element x must be nonzero")
    chain = []
    descending = True
    equal_run = 0
    status = CHAIN_NOT_STABILIZED
    for e in range(cfg.e_max + 1):
        B = graded.truncation_ideal(level * graded.p**e)
        C = B.colon(x.frobenius(e))
        if chain:
            if not chain[-1].contains_ideal(C):
                descending = False
                if expect_descending:
                    raise InconsistencyError(
                        "annihilator chain ascended on an F-injective CM ring"
                    )
            equal_run = equal_run + 1 if C.equals(chain[-1]) else 0
        chain.append(C)
        if equal_run >= cfg.window:
            status = CHAIN_STABILIZED
            break
    return ChainReport(chain, status, descending)


def frobenius_annihilator(eta, cfg=None, expect_descending=False):
    """Annihilator chain of a nonzero class at its own truncation level."""
    zero, _status = eta.is_zero()
    if zero:
        raise InputError("the zero class has no annihilator chain")
    return frobenius_colon_chain(eta.graded, eta.level, eta.numerator, cfg, expect_descending)


def is_f_injective_cm(graded):
    """(verdict, "certified"): F is injective on H^d_m(R) exactly when the
    map c -> NF(sum c_i r_i^p) mod I_p = I_1^[p] has rank s (a zero
    kernel), where r_1..r_s are the socle representatives of I_1.

    Stated for Cohen-Macaulay rings only; the CM gate must be verified.
    There H^d_m(R) is an essential extension of its socle, which is the
    image of socle(R/I_1), and ker F is a submodule (F(r eta) =
    r^p F(eta)), so F is injective exactly when it is on the socle.  The
    map is linear because c^p = c over F_p; one rank decides it, with no
    window and no e_max.
    """
    graded.require_cm("the F-injectivity criterion")
    return f_injectivity_witness(graded) is None, "certified"


def f_injectivity_witness(graded):
    """A socle class of I_1 whose Frobenius image is zero, when
    F-injectivity fails; None otherwise.  It is sum c_i r_i for the first
    kernel vector c of the map `is_f_injective_cm` takes the rank of, a
    polynomial in the module ring free of the T_i."""
    field = graded.ring.field
    reps, images = graded.level_one_socle()
    columns = [{mono: c for c, mono in nf.terms} for nf in images]
    vecs = kernel(rows_from_columns(columns, field), field, ncols=len(reps))
    return _combine(vecs[0], reps, graded.ring) if vecs else None


def is_f_stable_certified(graded):
    """(verdict, stable_dim, "certified") from the degree-zero carrier
    route; the carrier's level is exact, so no window or budget enters."""
    graded.require_cm("the certified stability route")
    op = graded.frobenius_matrix(graded.degree_zero_piece())
    dim = op.stable_part().dim
    return dim > 0, dim, "certified"


@dataclass
class SocleCandidate:
    """A level-1 socle class in the stable part of Frobenius on V^inf.

    Its annihilator chain is m at every e, by the fixpoint and not by a
    window, so `limit` is m, and the status is stabilized; both in the
    user's ring."""

    level: int
    element: object
    limit: object

    def to_json(self):
        return {
            "t": self.level,
            "u": str(self.element),
            "limit": self.limit.canonical_strings(),
            "status": CHAIN_STABILIZED,
        }


@dataclass
class SocleSearchReport:
    candidates: list
    examined: int

    def found(self):
        return bool(self.candidates)


def socle_stability_search(graded):
    """Socle classes whose annihilator chain stays at m: a basis of the
    stable part of Frobenius on V^inf.  Exact on a verified CM ring.

    Take socle representatives r_1..r_s of I_1, u = sum c_i r_i and
    B_e = I_1^[q] = I_q with q = p^e.  V^(e) is the set of u with
    m * u^(p^k) in B_k for every k <= e.  It is linear in c, since
    c^p = c over F_p: the kernel of the stacked normal forms of
    x_j * NF_{B_k}(r_i^(p^k)), k = 1..e (V^(0) is the whole socle).
    Levels t >= 2 add nothing: on a CM ring socle(R/I_t) is
    (T_1...T_d)^(t-1) * socle(R/I_1), and corresponding classes have
    the same colon ideals because the T_i^q form a regular sequence.

    V^(e+1) = {u : F(u) in V^(e)}, so the first e with dim V^(e) =
    dim V^(e-1) gives V^inf, within s steps, and F maps V^inf into
    itself.  For v in V^inf, F(v) = sum v_i NF_{B_1}(r_i^p) is a socle
    class at level p.  It is solved against the lifted basis of V^inf,
    times (T_1...T_d)^(p-1) and already in normal form modulo B_1; a
    solve failure raises.  Every nonzero class of the stable part has F^e(u)
    nonzero and killed by m for every e, so its chain is m throughout.
    Conversely a class with that chain lies in V^inf outside the
    nilpotent part, so such a class exists exactly when the stable part
    is nonzero.  `examined` is s.
    """
    graded.require_cm("the socle route")
    ring = graded.ring
    reps, images = graded.level_one_socle()
    vecs = _socle_fixpoint(graded, reps, images)
    candidates = []
    if vecs:
        op = _frobenius_on_fixpoint(graded, reps, vecs, images)
        basis = [_combine(v, reps, ring) for v in vecs]
        m = Ideal(graded.user_ring, graded.user_ring.gens(), reduced=True)
        for y in op.stable_part().rows:
            u = graded.to_user(_combine(y, basis, ring))
            candidates.append(SocleCandidate(1, u, m))
    return SocleSearchReport(candidates, len(reps))


def _combine(coeffs, polys, ring):
    out = ring.zero()
    for c, f in zip(coeffs, polys):
        out = out + f.scale(c)
    return out


def _socle_fixpoint(graded, reps, images):
    """A basis of V^inf, the kernel of c -> (x_j * (sum c_i r_i)^q mod
    I_q) over all variables x_j and q = p^e, e = 1, 2, ... up to the
    first e at which the kernel stops shrinking or vanishes; `images`
    are the normal forms of r_i^p mod I_p.

    Each power is carried forward from the last one: with B_e = I_q,
    NF_{B_e}(r^q) = NF_{B_e}(NF_{B_(e-1)}(r^(q/p))^p).  This is exact
    because r^(q/p) = NF + b with b in B_(e-1), Frobenius is additive,
    and B_(e-1)^[p] lies in B_e (K'^[p] lies in K'); the normal form
    modulo a reduced Groebner basis is unique, and the socle
    representatives are already reduced modulo B_0 = I_1.  So each
    reduction starts from degree p * deg(NF), not from q * deg(r).
    """
    ring = graded.ring
    columns = [{} for _ in reps]
    nfs = images
    dim = len(reps)
    for e in itertools.count(1):
        B = graded.truncation_ideal(graded.p**e)
        if e > 1:
            nfs = [B.normal_form(nf.frobenius(1)) for nf in nfs]
        for col, nf in zip(columns, nfs):
            # x_j * (r^q - NF(r^q)) lies in B
            for j, x in enumerate(graded.user_vars):
                for c, mono in B.normal_form(nf.shift(1, x.lm())).terms:
                    col[(e, j, mono)] = c
        vecs = kernel(rows_from_columns(columns, ring.field), ring.field, ncols=len(reps))
        if not vecs or len(vecs) == dim:
            return vecs
        dim = len(vecs)


def _frobenius_on_fixpoint(graded, reps, vecs, images):
    """Frobenius on V^inf, with basis `vecs`, as a semilinear operator.

    Column a holds the coordinates of F(vecs[a]) = sum_i vecs[a][i] *
    images[i], a class at level p, in the lifted basis (T_1...T_d)^(p-1) *
    sum_i vecs[b][i] r_i.  The r_i are free of the T_i and standard
    modulo I_1, so the lifted basis is in normal form modulo I_p and as
    independent as `vecs`.
    """
    ring, fp = graded.ring, graded.ring.field
    k = len(vecs)
    shift = (0,) * graded.user_ring.nvars + (graded.p - 1,) * graded.dim
    polys = [_combine(v, reps, ring).shift(1, shift) for v in vecs]
    polys += [_combine(v, images, ring) for v in vecs]
    rows = rows_from_columns([{mono: c for c, mono in f.terms} for f in polys], fp)
    lifted = [row[:k] for row in rows]
    columns = []
    for a in range(k):
        y = solve(lifted, [row[k + a] for row in rows], fp)
        if y is None:
            raise InconsistencyError("Frobenius image of V^inf outside V^inf")
        columns.append(y)
    matrix = [[columns[a][b] for a in range(k)] for b in range(k)]
    return SemilinearOperator(fp, k, matrix, twist=1)


@dataclass
class StabilityReport:
    ring_name: str
    f_injective: tuple
    certified_verdict: bool
    stable_dim: int
    certified_status: str
    socle: SocleSearchReport
    agreement: bool
    components: dict | None

    def to_json(self):
        return {
            "ring": self.ring_name,
            "f_injective": {"value": self.f_injective[0], "status": self.f_injective[1]},
            "f_stable": {
                "certified": self.certified_verdict,
                "stable_dim": self.stable_dim,
                "certified_status": self.certified_status,
                "heuristic_candidates": [c.to_json() for c in self.socle.candidates],
                "agreement": self.agreement,
            },
            "sw_check": self.components,
        }


def f_stability(graded):
    """Run both stability routes and enforce the agreement contract.

    On an F-injective CM ring both routes are exact and the stability
    equivalence applies, so a nonzero certified stable part without a
    socle candidate, or a candidate beside a zero stable part, raises.
    On a ring that is not F-injective the equivalence does not apply and
    `agreement` only records whether the two verdicts match.  On a
    one-dimensional ring the report also carries the component check,
    fed the certified stable dimension; each phase runs once per call.
    """
    graded.check_cm()
    finj = is_f_injective_cm(graded)
    verdict, dim, status = is_f_stable_certified(graded)
    socle = socle_stability_search(graded)
    agreement = verdict == socle.found()
    if finj[0] and not agreement:
        raise InconsistencyError(
            f"{graded.name}: certified stable dimension {dim} but "
            f"{len(socle.candidates)} socle candidates on an F-injective ring; "
            "the stability equivalence is violated"
        )
    components = connected_components_check(graded, dim) if graded.dim == 1 else None
    return StabilityReport(
        graded.name, finj, verdict, dim, status, socle, agreement, components
    )


# --- Frobenius-compatible ideals ----------------------------------------------------


def compatible_closure(graded, I):
    """The smallest ideal J >= I + K of the user's ring with u*J <= J^[p],
    K = (f_1..f_c) the relations and u = (f_1...f_c)^(p-1).

    On a CM ring with c = n - d relations K is a complete intersection,
    and the ideals J >= K with u*J <= J^[p] are exactly the annihilators
    of the F-stable submodules of H^d_m(R) (Fedder; Enescu-Hochster,
    Sharp, Katzman-Schwede), so J annihilates the largest one I kills.
    Any other ring raises NotSupportedError.

    J <- J + I_1(u*J), I_1 the Frobenius root, ascends and so stops.  The
    p-th powers of the reduced basis G of J are the reduced basis of
    J^[p], Frobenius being an injective ring map that raises each lead to
    its p-th power; and as I_1(J^[p]) = J, the step adds I_1 of the
    remainders of u*g modulo J^[p].  It stops when all are zero, which is
    the certificate u*J <= J^[p].
    """
    graded.check_cm()
    graded.require_cm("the compatible closure")
    ring, relations = graded.user_ring, graded.user_relations.gens
    if len(relations) != ring.nvars - graded.dim:
        raise NotSupportedError(
            "the compatible closure needs a complete intersection: "
            f"{len(relations)} relations in {ring.nvars} variables at dimension {graded.dim}"
        )
    u = prod(relations, start=ring.one()) ** (graded.p - 1)
    J = Ideal(ring, I.gens + relations)
    while True:
        G = J.groebner_basis()
        powers = Ideal(ring, [g.frobenius(1) for g in G], reduced=True)
        remainders = [r for r in (powers.normal_form(u * g) for g in G) if not r.is_zero()]
        if not remainders:
            return J
        J = Ideal(ring, G + frobenius_root(Ideal(ring, remainders)).gens)


# --- punctured-spectrum component count ------------------------------------------------


def connected_components_check(graded, stable_dim):
    """Count the components of the punctured spectrum and compare the
    count with 1 + stable_dim, which `f_stability` passes from the
    certified route.

    In dimension one the components are the points of Proj R over the
    algebraic closure.  With theta the sop, of degree delta, Proj R is
    Spec (R_theta)_0, and (R_theta)_0 is A_0, the part of A = R/(theta - 1)
    of degree 0 mod delta.  Over the algebraic closure A_0 is one local
    Artinian ring per point, on whose maximal ideal Frobenius is
    nilpotent, and stable parts do not change under base change
    (Hartshorne-Speiser), so the stable part of Frobenius on A_0 has one
    dimension per point.  The Cech sequence 0 -> R_0 -> (R_theta)_0 ->
    [H^1_m(R)]_0 -> 0 is Frobenius-equivariant and stable parts are exact,
    so on a CM ring the count is 1 + stable_dim: a third route, on its own
    carrier, and any disagreement raises InconsistencyError.  Nothing is
    read from the ring file but the ring.

    A needs no basis of its own.  K + (theta - 1) is K' + (T - 1) with T
    set to 1, K' is homogeneous with deg T = delta, and on the verified
    gate no lead of G, the reduced basis of K', involves T; the T-terms of
    each g lose degree under T -> 1, so none overtakes its lead in the
    weighted grevlex order on the user's variables, and G at T = 1 is a
    Groebner basis of K + (theta - 1) (dehomogenization).  Its standard
    monomials are those of I_1, whose staircase is walked once per ring,
    and the normal form of b^p modulo A is that modulo K' at T = 1.  K' +
    (T - 1) is homogeneous for the Z/delta grading, so the standard
    monomials of degree 0 mod delta span A_0.
    """
    if graded.dim != 1:
        raise InputError("the component count formula is stated for dimension one")
    graded.check_cm()
    graded.require_cm("the component check")
    ring, field, n = graded.ring, graded.ring.field, graded.user_ring.nvars
    (delta,) = graded.sop_degrees()
    stair = graded.truncation_ideal(1).staircase().monomials
    basis = [b for b in stair if mono_degree(b, graded.weights) % delta == 0]
    # the staircase of I_1 holds no T, so x-parts index the basis
    position = {b[:n]: i for i, b in enumerate(basis)}
    m = len(basis)
    matrix = [[field.zero] * m for _ in range(m)]
    for j, b in enumerate(basis):
        power = ring.monomial(tuple(graded.p * x for x in b))
        for c, e in graded.relations.normal_form(power).terms:
            i = position.get(e[:n])
            if i is None:
                raise InconsistencyError("a Frobenius image leaves the degree-zero part of R_theta")
            matrix[i][j] = field.add(matrix[i][j], c)
    components = SemilinearOperator(field, m, matrix, twist=1).stable_part().dim
    formula = 1 + stable_dim
    if components != formula:
        raise InconsistencyError(
            f"{graded.name}: {components} geometric points of Proj R but 1 + stable_dim = {formula}"
        )
    return {"components": components, "formula": formula, "agree": True}
