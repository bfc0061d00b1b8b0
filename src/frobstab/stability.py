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

Annihilator chains C_e = (I^[q] + J : x^q) stop after `window`
consecutive equality comparisons.  A chain that never stabilizes (the
colon of 1 in a polynomial ring, for instance) is reported with its last
element as an explicit upper bound and no limit is claimed.  The
`window`, `e_max` and `socle_t_max` of a RunConfig drive these chains
and the annihilator surveys; no verdict reads them.
"""

import itertools
import random
from dataclasses import dataclass

from .config import RunConfig
from .errors import InconsistencyError, InputError, NotSupportedError
from .frobenius import bracket_power
from .groebner import Ideal
from .linalg import kernel, rows_from_columns, solve
from .localcoh import CM_VERIFIED, CohomologyClass
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

    def to_json(self):
        return {
            "chain": [J.canonical_strings() for J in self.ideals],
            "limit": self.limit.canonical_strings(),
            "status": self.status,
            "upper_bound_only": self.upper_bound_only,
            "descending_verified": self.descending_verified,
        }


def frobenius_colon_chain(graded, parameter_gens, x, cfg=None, expect_descending=False):
    """The chain C_e = ((I^[p^e] + J) : x^(p^e)) for e = 0, 1, ...

    `parameter_gens` generate the parameter ideal I in the quotient by
    graded.relations; the quotient is required to be Artinian.  With
    `expect_descending` a violation of C_{e+1} <= C_e is a hard error
    (it contradicts F-injectivity + CM), otherwise it is only recorded.
    """
    cfg = cfg or RunConfig()
    ring = graded.ring
    I = Ideal(ring, parameter_gens)
    stored = Ideal(ring, I.gens + graded.relations.gens)
    if not stored.is_artinian():
        raise InputError("the chain needs an ideal generated by a system of parameters")
    if x.is_zero():
        raise InputError("chain element x must be nonzero")
    chain = []
    descending = True
    equal_run = 0
    status = CHAIN_NOT_STABILIZED
    for e in range(cfg.e_max + 1):
        B = bracket_power(I, e, relations=graded.relations)
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
    graded = eta.graded
    params = [x ** eta.level for x in graded.sop]
    return frobenius_colon_chain(graded, params, eta.numerator, cfg, expect_descending)


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
    if graded.cm_status != CM_VERIFIED:
        raise NotSupportedError("the F-injectivity criterion requires a verified CM gate")
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
    if graded.cm_status != CM_VERIFIED:
        raise NotSupportedError("the certified stability route requires the CM gate")
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

    def to_json(self):
        return {
            "candidates": [c.to_json() for c in self.candidates],
            "examined": self.examined,
        }


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
    if graded.cm_status != CM_VERIFIED:
        raise NotSupportedError("the socle route requires a verified CM gate")
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
            # x_j * (r^q - NF(r^q)) lies in B; the user's x_j generate m mod K'
            for j, x in enumerate(ring.gens()[: graded.user_ring.nvars]):
                for c, mono in B.normal_form(x * nf).terms:
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
    shift = graded.sop_product() ** (graded.p - 1)
    polys = [shift * _combine(v, reps, ring) for v in vecs]
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
    one-dimensional ring with declared minimal primes the report also
    carries the component check, fed the certified stable dimension;
    each phase runs once per call.
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
    components = None
    if graded.dim == 1 and graded.minimal_primes:
        components = connected_components_check(graded, dim)
    return StabilityReport(
        graded.name, finj, verdict, dim, status, socle, agreement, components
    )


# --- annihilator surveys -----------------------------------------------------------


@dataclass
class AnnihilatorSurvey:
    stabilized_limits: list
    witnesses: dict
    samples: int
    not_stabilized: int
    radical_checks: int

    def distinct_count(self):
        return len(self.stabilized_limits)

    def to_json(self):
        return {
            "stabilized_limits": [list(gens) for gens in self.stabilized_limits],
            "samples": self.samples,
            "not_stabilized": self.not_stabilized,
            "radical_checks": self.radical_checks,
        }


def _sample_classes(graded, cfg, rng):
    """Socle classes, staircase monomial classes and random low-degree
    numerators at small truncation levels; zero classes are skipped."""
    ring = graded.ring
    out = []
    for t in range(1, cfg.socle_t_max + 1):
        I_t = graded.truncation_ideal(t)
        for rep in graded.socle_of_truncation(t):
            out.append((t, rep))
        for mono in I_t.staircase().monomials:
            if any(mono):
                out.append((t, ring.monomial(mono)))
        deg = cfg.deg_bound
        for _ in range(6):
            terms = {}
            for _t in range(3):
                e = tuple(rng.randint(0, deg) for _ in ring.names)
                if sum(e) <= deg:
                    terms[e] = rng.randrange(ring.p)
            z = I_t.normal_form(ring.from_dict(terms))
            if not z.is_zero():
                out.append((t, z))
    seen = set()
    unique = []
    for t, z in out:
        key = (t, z.terms)
        if key not in seen:
            seen.add(key)
            unique.append((t, z))
    return unique


def _radical_spot_check(graded, limit_ideal, rng, samples=6):
    """Radicality evidence: sampled f in rad(J) must lie in J."""
    ring = graded.ring
    checks = 0
    for _ in range(samples):
        terms = {}
        for _t in range(2):
            e = tuple(rng.randint(0, 2) for _ in ring.names)
            terms[e] = rng.randrange(ring.p)
        f = ring.from_dict(terms)
        if f.is_zero():
            continue
        sq_member = limit_ideal.contains(f * f)
        rad_member = limit_ideal.radical_contains(f)
        if (sq_member or rad_member) and not limit_ideal.contains(f):
            raise InconsistencyError(
                f"radicality violation: {f} lies in the radical of a computed "
                "annihilator but not in the annihilator itself"
            )
        checks += 1
    return checks


def sample_frobenius_annihilators(graded, cfg=None):
    """Distinct stabilized annihilator limits over sampled classes.

    Requires verified F-injectivity (the finiteness and radicality
    statements assume an injective action).  Every distinct limit is
    spot-checked for radicality; a violation is a hard error.
    """
    cfg = cfg or RunConfig()
    graded.check_cm()
    finj, _status = is_f_injective_cm(graded)
    if not finj:
        raise NotSupportedError("annihilator surveys assume an F-injective ring")
    rng = random.Random(cfg.seed)
    limits = {}
    samples = 0
    not_stabilized = 0
    for t, z in _sample_classes(graded, cfg, rng):
        eta = CohomologyClass(graded, t, z)
        if eta.numerator.is_zero():
            continue
        chain = frobenius_annihilator(eta, cfg, expect_descending=True)
        samples += 1
        if chain.status != CHAIN_STABILIZED:
            not_stabilized += 1
            continue
        key = tuple(chain.limit.canonical_strings())
        limits.setdefault(key, (t, z, chain.limit))
    checks = 0
    for key, (_t, _z, J) in sorted(limits.items()):
        checks += _radical_spot_check(graded, J, rng)
    witnesses = {key: {"t": w[0], "u": str(w[1])} for key, w in limits.items()}
    return AnnihilatorSurvey(
        sorted(limits.keys()), witnesses, samples, not_stabilized, checks
    )


def annihilator_prime_candidates(graded, cfg=None):
    """Stabilized annihilator limits that pass a primality spot-check.

    The search is explicitly not exhaustive; candidates are labeled.
    An ideal is dropped when it is the intersection of two strictly
    larger sampled limits, and must pass the radical spot-check.
    """
    cfg = cfg or RunConfig()
    survey = sample_frobenius_annihilators(graded, cfg)
    ring = graded.ring
    pool = {}
    for key in survey.stabilized_limits:
        pool[key] = Ideal.parse(ring, list(key))
    out = []
    for key, J in pool.items():
        if J.is_unit_ideal():
            continue
        composite = False
        strictly_larger = [
            K
            for k2, K in pool.items()
            if k2 != key and K.contains_ideal(J) and not J.contains_ideal(K)
        ]
        for i, A in enumerate(strictly_larger):
            for B in strictly_larger[i + 1 :]:
                if A.intersect(B).equals(J):
                    composite = True
        if composite:
            continue
        out.append(
            {
                "ideal": list(key),
                "witness": survey.witnesses[key],
                "note": "approximation: search is not exhaustive; "
                "primality is spot-checked, not proven",
            }
        )
    return out


# --- punctured-spectrum component count ------------------------------------------------


def validate_minimal_primes(graded):
    """Containment and mutual-radical validation of user-supplied primes."""
    primes = graded.minimal_primes
    if not primes:
        raise InputError("minimal_primes are required for the component check")
    rel = graded.user_relations
    for P in primes:
        for g in rel.gens:
            if not P.contains(g):
                raise InputError(f"declared prime {P!r} does not contain the relations")
    inter = None
    for P in primes:
        inter = P if inter is None else inter.intersect(P)
    for g in inter.gens:
        if not rel.gens and not g.is_zero():
            raise InputError("primes intersect above the zero relations ideal")
        if rel.gens and not rel.radical_contains(g):
            raise InputError(
                "the intersection of the declared primes exceeds the radical "
                "of the relations"
            )
    return primes


def connected_components_check(graded, stable_dim):
    """Compare punctured-spectrum components with 1 + stable_dim.

    `stable_dim` is the dimension of the stable part that the certified
    route (`is_f_stable_certified`) computed; `f_stability` passes its own.

    Components are computed on the graph of declared minimal primes with
    an edge when P_i + P_j is not primary to the maximal ideal.  The
    formula assumes an algebraically closed residue field; dimension
    invariance of the stable part under base change is what lets the
    F_p model stand in for that hypothesis.
    """
    if graded.dim != 1:
        raise InputError("the component count formula is stated for dimension one")
    graded.check_cm()
    if graded.cm_status != CM_VERIFIED:
        raise NotSupportedError("component check requires the CM gate")
    primes = validate_minimal_primes(graded)
    ring = graded.user_ring
    n = len(primes)
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            joined = Ideal(ring, primes[i].gens + primes[j].gens)
            m_primary = all(joined.radical_contains(v) for v in ring.gens())
            if not m_primary:
                adj[i].add(j)
                adj[j].add(i)
    components = 0
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node] - seen)
    formula = 1 + stable_dim
    return {
        "components": components,
        "formula": formula,
        "agree": components == formula,
        "note": "stated over an algebraically closed residue field; the prime "
        "field model applies because stable dimensions are invariant "
        "under base change",
    }
