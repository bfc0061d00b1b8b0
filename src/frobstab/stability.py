"""F-injectivity and F-stability analyses on graded rings.

F-injectivity of a Cohen-Macaulay ring is one rank: H^d_m(R) is an
essential extension of its socle, the image of socle(R/I_1), and ker F
is a submodule, so F is injective exactly when u -> u^p mod I_1^[p] + J,
linear on socle(R/I_1) over F_p, has full rank.

Two independent routes decide F-stability of the top local cohomology
module:

* the certified route computes the Frobenius matrix on the degree-zero
  carrier, taken at the level the a-invariant gives, and takes the
  dimension of its stable part;
* the socle route looks for a socle class of a truncation whose
  Frobenius annihilator chain stabilizes at the maximal ideal.  Over F_p
  the map u -> u^q is additive with fixed coefficients, so "m kills u^q
  modulo I^[q] + J" is a linear condition on the socle coordinates of u;
  the classes meeting it for q = p, ..., p^window are one kernel V_t per
  truncation level, and the same normal forms confirm each basis vector.
  On an F-injective ring these are exactly the classes whose chain
  stabilizes at m outside the Frobenius closure of I_t, which is I_t + J
  (Fedder-Watanabe).  On a ring that is not F-injective the theorem does
  not apply, and the certified `f_injective` false beside the candidates
  says so.

No verdict computes a Frobenius closure.

A nonzero stable part and the existence of such a class are equivalent
for rings with an injective Frobenius action, so whenever both routes
finish with certified/stabilized statuses their verdicts must agree;
a certified-grade disagreement raises an inconsistency error instead of
being reconciled silently.

Annihilator chains C_e = (I^[q] + J : x^q) stop after `window`
consecutive equality comparisons.  A chain that never stabilizes (the
colon of 1 in a polynomial ring, for instance) is reported with its last
element as an explicit upper bound and no limit is claimed.
"""

import random
from dataclasses import dataclass

from .config import RunConfig
from .errors import InconsistencyError, InputError, NotSupportedError
from .frobenius import bracket_power
from .groebner import Ideal
from .linalg import kernel, rows_from_columns
from .localcoh import CM_VERIFIED, CohomologyClass

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
    map c -> NF(sum c_i r_i^p) mod I_1^[p] + J has rank s (a zero kernel),
    where r_1..r_s are the socle representatives of I_1 + J.

    Stated for Cohen-Macaulay rings only; the CM gate must be verified.
    There H^d_m(R) is an essential extension of its socle, which is the
    image of socle(R/I_1), and ker F is a submodule (F(r eta) =
    r^p F(eta)), so F is injective exactly when it is on the socle.  The
    map is linear because c^p = c over F_p; one rank decides it, with no
    window and no e_max.
    """
    if graded.cm_status != CM_VERIFIED:
        raise NotSupportedError("the F-injectivity criterion requires a verified CM gate")
    _reps, vecs = _socle_frobenius_kernel(graded)
    return not vecs, "certified"


def f_injectivity_witness(graded):
    """A socle class of I_1 + J whose Frobenius image is zero, when
    F-injectivity fails; None otherwise.  It is sum c_i r_i for the first
    kernel vector c of the map `is_f_injective_cm` takes the rank of."""
    reps, vecs = _socle_frobenius_kernel(graded)
    return _combine(vecs[0], reps, graded.ring) if vecs else None


def _socle_frobenius_kernel(graded):
    """The socle representatives r_i of I_1 + J and a kernel basis of
    c -> NF(sum c_i r_i^p) mod I_1^[p] + J."""
    ring = graded.ring
    reps = graded.socle_of_truncation(1)
    B = bracket_power(Ideal(ring, graded.sop), 1, graded.relations)
    columns = [{mono: c for c, mono in B.normal_form(r.frobenius(1)).terms} for r in reps]
    return reps, kernel(rows_from_columns(columns, ring.field), ring.field, ncols=len(reps))


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
    level: int
    element: object
    chain: ChainReport

    def to_json(self):
        return {
            "t": self.level,
            "u": str(self.element),
            "limit": self.chain.limit.canonical_strings(),
            "status": self.chain.status,
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


def socle_stability_search(graded, cfg=None):
    """Socle classes whose annihilator chain stabilizes at m, one basis
    per truncation level.

    At level t <= socle_t_max with socle representatives r_1..r_s of
    I_t + K, write u = sum c_i r_i and B_e = I_t^[q] + K, so that
    C_e = (B_e : u^q).  m <= C_e holds exactly when x_j * u^q lies in B_e
    for every variable x_j.  Over F_p that is linear in c, so the classes
    meeting it for e = 0..window form the kernel V_t of one stacked
    matrix of normal forms (the e = 0 rows vanish on a socle basis).
    The columns reduce x_j * NF_{B_e}(r_i^q), and NF_{B_e}(r_i^q) comes
    from the previous power as NF_{B_e}(NF_{B_(e-1)}(r_i^(q/p))^p), so no
    reduction starts from r_i^q itself.

    Every basis vector of V_t is confirmed without colon chains.  Since m
    is maximal and lies in C_e, C_e = m unless C_e = (1), that is unless
    u^q lies in B_e; the normal form of u^q is sum c_i NF(r_i^q), from
    columns the linear test reduces anyway.  A class with no such unit
    step has the chain [m] * (window + 1) that a colon loop returns,
    stabilized when window <= e_max, and is a candidate.

    On an F-injective ring no u^q lies in B_e, chains descend, and I_t
    is Frobenius closed (Fedder-Watanabe 1989), so V_t minus zero is
    exactly the set of classes whose chain stabilizes at m outside the
    closure of I_t.  On a ring that is not F-injective the candidates are
    the V_t classes whose Frobenius images stay nonzero for e = 0..window;
    the stability equivalence does not apply there, which the certified
    `f_injective` false of `f_stability` marks.  `examined` counts the
    socle basis vectors put through the linear test.
    """
    cfg = cfg or RunConfig()
    ring = graded.ring
    m = Ideal(ring, ring.gens())
    # a colon loop ends at e_max before it can count `window` equalities
    stabilizes = cfg.window <= cfg.e_max
    candidates = []
    examined = 0
    for t in range(1, cfg.socle_t_max + 1):
        reps = graded.socle_of_truncation(t)
        if not reps:
            continue
        examined += len(reps)
        I = Ideal(ring, [x**t for x in graded.sop])
        vecs, powers = _socle_annihilated_by_m(I, graded.relations, reps, cfg.window)
        for v in vecs:
            limit_is_m = all(not _combine(v, nfs, ring).is_zero() for nfs in powers)
            if stabilizes and limit_is_m:
                chain = ChainReport([m] * (cfg.window + 1), CHAIN_STABILIZED, True)
                candidates.append(SocleCandidate(t, _combine(v, reps, ring), chain))
    return SocleSearchReport(candidates, examined)


def _combine(coeffs, polys, ring):
    out = ring.zero()
    for c, f in zip(coeffs, polys):
        out = out + f.scale(c)
    return out


def _socle_annihilated_by_m(I, relations, reps, window):
    """Kernel basis of c -> (x_j * (sum c_i r_i)^q mod I^[q] + K) over
    all variables x_j and q = p^e, e = 0..window, and for each e the
    normal forms of r_i^q mod I^[q] + K.

    Each power is carried forward from the last one: with B_e =
    I^[q] + K, NF_{B_e}(r^q) = NF_{B_e}(NF_{B_(e-1)}(r^(q/p))^p).  This is
    exact because r^(q/p) = NF + b with b in B_(e-1), Frobenius is
    additive, and B_(e-1)^[p] lies in B_e (K^[p] lies in K); the normal
    form modulo a reduced Groebner basis is unique.  So each reduction
    starts from degree p * deg(NF), not from q * deg(r).
    """
    ring = I.ring
    columns = [{} for _ in reps]
    powers = []
    nfs = reps
    for e in range(window + 1):
        B = bracket_power(I, e, relations)
        nfs = [B.normal_form(nf.frobenius(1) if e else nf) for nf in nfs]
        for col, nf in zip(columns, nfs):
            # x_j * (r^q - NF(r^q)) lies in B, so reducing x_j * NF(r^q) suffices
            for j, x in enumerate(ring.gens()):
                for c, mono in B.normal_form(x * nf).terms:
                    col[(e, j, mono)] = c
        powers.append(nfs)
    rows = rows_from_columns(columns, ring.field)
    return kernel(rows, ring.field, ncols=len(reps)), powers


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


def f_stability(graded, cfg=None):
    """Run both stability routes and enforce the agreement contract.

    A certified stable part of zero together with a socle candidate on
    an F-injective CM ring (every candidate's chain is stabilized by
    construction) is a theorem violation and raises; a missing candidate
    under a positive certified verdict only flags disagreement, because
    the search range is finite.  On a one-dimensional ring with declared minimal primes
    the report also carries the component check, fed the certified
    stable dimension; each phase runs once per call.
    """
    cfg = cfg or RunConfig()
    graded.check_cm()
    finj = is_f_injective_cm(graded)
    verdict, dim, status = is_f_stable_certified(graded)
    socle = socle_stability_search(graded, cfg)
    agreement = verdict == socle.found()
    if not verdict and finj[0] and socle.candidates:
        raise InconsistencyError(
            f"{graded.name}: certified stable part is zero but a socle class "
            "with annihilator m exists; the stability equivalence is violated"
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
    rel = graded.relations
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
    ring = graded.ring
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
