"""The direct-limit model of top local cohomology for a graded ring.

A GradedRing F_p[vars]/K with positive variable weights and a
homogeneous system of parameters theta_1..theta_d is computed as S'/K',
S' = F_p[vars, T_1..T_d], K' = K + (T_i - theta_i), in the grevlex order
weighted by the degrees (deg T_i = deg theta_i) with the T_i last, and
sop T_1..T_d.  Classes of the top module are written [z + I_t], I_t = K'
+ (T_1^t..T_d^t), and move up the direct system by multiplication with
T_1*...*T_d; the Frobenius action sends a level-t class to [z^p] at
level p*t.  By Bayer and Stillman (1987) one reduced Groebner basis G
of K' serves every I_t, each built once per ring.  On the verified gate
R/I_t is R/I_1 tensored with F_p[T]/(T_1^t..T_d^t), so a verdict walks
one staircase, I_1's, and reads the degree-zero carrier and its
Frobenius lift off it as every other phase does.

Everything certified runs through two gates: the CM check (the sop is a
verified regular sequence, which makes the transition maps injective and
R free over F_p[T_1..T_d]) and the level T the a-invariant gives, from
which on the degree-zero graded piece no longer grows.  The stable part
of the graded module is concentrated in degree zero — a span of
homogeneous Frobenius images is graded and a nonzero degree would need
to be divisible by p^j for every j — so the finite degree-zero carrier
is all the semilinear machinery ever sees.
"""

from dataclasses import dataclass
from itertools import product
from math import prod

from .errors import InconsistencyError, InputError, NotSupportedError
from .field import PrimeField
from .groebner import Ideal, StaircaseBasis, socle_basis
from .poly import GREVLEX, MonomialOrder, Polynomial, PolyRing, mono_degree, mono_mul
from .semilinear import SemilinearOperator

CM_UNCHECKED = "unchecked"
CM_VERIFIED = "verified"
CM_FAILED = "failed"
ZERO_SCAN = 4


def _list_of(value, key, kinds=(str,)):
    """value as a tuple, when it is a list whose entries' types are among
    kinds: a bool is no degree, nor is a string a list of names."""
    if type(value) not in (list, tuple) or any(type(x) not in kinds for x in value):
        names = " or ".join(k.__name__ for k in kinds)
        raise InputError(f"ring file key {key!r} must be a list of {names} entries")
    return tuple(value)


class GradedRing:
    """Graded quotient F_p[vars]/K with a homogeneous sop: `ring`, `relations`,
    `sop`, `weights` are S', K', T_i, their weights; `user_*`, `degrees` the input."""

    def __init__(self, field, names, degrees, relations, sop, name=None):
        user_ring = PolyRing(field, names, GREVLEX)
        # adopt the inputs' own ring object when it is this ring, so that
        # ring checks on them take the identity fast path
        inputs = (*relations, *sop)
        self.user_ring = next((f.ring for f in inputs if f.ring == user_ring), user_ring)
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != len(names) or any(d <= 0 for d in degrees):
            raise InputError("each variable needs a positive degree")
        self.degrees = degrees
        self.user_relations = Ideal(self.user_ring, relations)
        self.user_sop = tuple(sop)
        self.name = name or f"F_{field.p}[{','.join(names)}]/({', '.join(map(str, self.user_relations.gens)) or '0'})"
        self._validate()
        self.weights = degrees + tuple(x.homogeneous_degree(degrees) for x in self.user_sop)
        tnames = tuple(f"T{i + 1}" for i in range(len(self.user_sop)))
        while set(tnames) & set(names):
            tnames = tuple("_" + t for t in tnames)
        order = MonomialOrder("grevlex", weights=self.weights)
        self.ring = PolyRing(field, self.user_ring.names + tnames, order)
        self.sop = tuple(self.ring.var(t) for t in tnames)
        # T_i = theta_i modulo K', so the user's variables generate m
        self.user_vars = self.ring.gens()[: self.user_ring.nvars]
        lift = self.ring.from_other
        rels = [lift(g) for g in self.user_relations.gens]
        self.relations = Ideal(self.ring, rels + [T - lift(x) for T, x in zip(self.sop, self.user_sop)])
        self.cm_status = CM_UNCHECKED
        self.cm_witness = None
        self._level_one = None
        self._truncations = {}
        if not self.truncation_ideal(1).is_artinian():
            raise InputError("the declared sop does not cut the ring down to dimension zero")

    @classmethod
    def from_dict(cls, data):
        """Build from the ring-file schema (see the CLI docs)."""
        if not isinstance(data, dict):
            raise InputError("a ring file must hold a JSON object")
        name, degrees = data.get("name"), data.get("degrees")
        if name is not None and type(name) is not str:
            raise InputError("ring file key 'name' must be a str")
        try:
            field = PrimeField(data["char"])
            names = _list_of(data["vars"], "vars")
            if degrees is None:
                degrees = [1] * len(names)
            degrees = _list_of(degrees, "degrees", (int,))
            ring = PolyRing(field, names, GREVLEX)
            relations = [ring.parse(s) for s in _list_of(data.get("relations", []), "relations")]
            sop = [ring.parse(s) for s in _list_of(data["sop"], "sop")]
        except KeyError as missing:
            raise InputError(f"ring file is missing the key {missing}") from None
        return cls(field, names, degrees, relations, sop, name=name)

    def _validate(self):
        for g in self.user_relations.gens:
            if g.homogeneous_degree(self.degrees) is None:
                raise InputError(f"relation {g} is not homogeneous for the given weights")
        if not self.user_sop:
            raise InputError("a nonempty system of parameters is required")
        for x in self.user_sop:
            if x.is_zero() or x.homogeneous_degree(self.degrees) is None:
                raise InputError("sop entries must be nonzero and homogeneous")

    # --- basic data -----------------------------------------------------------

    @property
    def p(self):
        return self.ring.p

    @property
    def dim(self):
        return len(self.sop)

    def sop_degrees(self):
        return self.weights[self.user_ring.nvars :]

    def degree_sum(self):
        return sum(self.sop_degrees())

    def sop_product(self):
        return self.ring.monomial((0,) * self.user_ring.nvars + (1,) * self.dim)

    def maximal_ideal(self):
        return Ideal(self.ring, self.ring.gens())

    def to_user(self, f):
        """f in the user's ring, with T_i replaced by theta_i."""
        n, out = self.user_ring.nvars, self.user_ring.zero()
        for c, e in f.terms:
            powers = (x**b for x, b in zip(self.user_sop, e[n:]))
            out = out + prod(powers, start=self.user_ring.monomial(e[:n], c))
        return out

    def describe(self):
        return {
            "name": self.name,
            "char": self.p,
            "vars": list(self.user_ring.names),
            "degrees": list(self.degrees),
            "relations": [str(g) for g in self.user_relations.gens],
            "sop": [str(x) for x in self.user_sop],
            "dim": self.dim,
        }

    # --- Cohen-Macaulay gate -----------------------------------------------------

    def check_cm(self):
        """Verify the sop is a regular sequence mod the relations.

        With the T_i last in a reverse-lexicographic order it is one
        exactly when no lead of G involves a T_i (Bayer and Stillman).
        Otherwise take the last T_k some lead involves and the first such
        g: with T_(k+1)..T_d set to 0, g = T_k * h, and the witness h lies
        in (K' + (T_(k+1)..T_d)) : T_k but not in K' + (T_(k+1)..T_d).
        The result gates every certified claim downstream.
        """
        if self.cm_status != CM_UNCHECKED:
            return self.cm_status, self.cm_witness
        G, n = self.relations.groebner_basis(), self.user_ring.nvars
        involved = [i for g in G for i, b in enumerate(g.lm()[n:], n) if b]
        self.cm_status = CM_FAILED if involved else CM_VERIFIED
        if involved:
            k = max(involved)
            g = next(g for g in G if g.lm()[k])
            h = [(c, e[:k] + (e[k] - 1,) + e[k + 1 :]) for c, e in g.terms if not any(e[k + 1 :])]
            self.cm_witness = Polynomial(self.ring, tuple(h))
        return self.cm_status, self.cm_witness

    def require_cm(self, claim):
        """Raise NotSupportedError naming `claim` unless the CM gate is verified."""
        if self.cm_status != CM_VERIFIED:
            raise NotSupportedError(f"{claim} requires a verified CM gate")

    # --- truncations ---------------------------------------------------------------

    def truncation_ideal(self, t):
        """I_t = K' + (T_1^t, ..., T_d^t).  When no lead of G involves a
        T_i (the CM case) the T_i^t have coprime leads, and G with every
        term some T_i^t divides dropped, plus the T_i^t, is its reduced
        basis; otherwise Buchberger completes G and the T_i^t.

        Each level is built once per ring and kept, so every phase that
        reads I_t shares one Ideal, its basis and its whole staircase."""
        if t < 1:
            raise InputError("truncation level must be >= 1")
        if t not in self._truncations:
            self._truncations[t] = self._build_truncation(t)
        return self._truncations[t]

    def _build_truncation(self, t):
        G = self.relations.groebner_basis()
        powers = [self.ring.monomial(tuple(t * x for x in T.lm())) for T in self.sop]
        n = self.user_ring.nvars
        if any(any(g.lm()[n:]) for g in G):
            return Ideal(self.ring, list(G) + powers)
        if not any(G[0].lm()):
            return self.relations  # the unit ideal holds every T_i^t
        kept = [
            Polynomial(self.ring, tuple((c, e) for c, e in g.terms if max(e[n:]) < t))
            for g in G
        ]
        return Ideal(self.ring, kept + powers, reduced=True)

    def socle_of_truncation(self, t):
        return socle_basis(self.truncation_ideal(t), self.user_vars)

    def level_one_socle(self):
        """(socle representatives r_i of R/I_1, NF(r_i^p) mod I_p), which
        F-injectivity and the socle route share; computed once."""
        if self._level_one is None:
            reps = self.socle_of_truncation(1)
            I_p = self.truncation_ideal(self.p)
            self._level_one = reps, [I_p.normal_form(r.frobenius(1)) for r in reps]
        return self._level_one

    def cohomology_class(self, numerator, level=1):
        return CohomologyClass(self, level, numerator)

    # --- the degree-zero carrier ------------------------------------------------------

    def degree_zero_piece(self):
        """Basis of the degree-zero graded piece of the limit, at level T.

        The verified sop makes R free over F_p[T_1..T_d], so R/I_t is
        R/I_1 tensored with F_p[T]/(T_1^t..T_d^t) as graded spaces, and
        H^d_m(R) is R/I_1 tensored with the monomials T^-b, every b_i >= 1.
        A degree-zero class pairs a standard monomial of weighted degree e
        with sum b_i deg(T_i) = e, which forces (b_i - 1) deg(T_i) <= a(R)
        = top degree of R/I_1 - sum deg(T_i).  Level t holds the classes
        with every b_i <= t, so from T = max(1, 1 + a(R) // min deg(T_i))
        on the transitions (multiply by T_1...T_d) are bijective in degree
        zero: injective by the CM gate, and of equal dimension by the count.
        """
        self.require_cm("degree_zero_piece")
        degsum = self.degree_sum()
        stair = self.truncation_ideal(1).staircase().monomials
        # default=0: a unit relation leaves no standard monomial and T = 1
        a = max((mono_degree(mono, self.weights) for mono in stair), default=0) - degsum
        level = max(1, 1 + a // min(self.sop_degrees()))
        return DegreeZeroPiece(self, level, self._degree_zero_basis(level))

    def _degree_zero_basis(self, t):
        """The standard monomials of I_t of degree t * sum deg(T_i), ascending.

        On the verified gate the leads of I_t are G's, free of the T_i, and
        the T_i^t, so these are the s * T^c with s standard for I_1, every
        c_i < t and deg s + sum c_i deg(T_i) = t * sum deg(T_i).
        """
        n, (*degs, last) = self.user_ring.nvars, self.sop_degrees()
        out = []
        for s in self.truncation_ideal(1).staircase().monomials:
            left = t * self.degree_sum() - mono_degree(s, self.weights)
            for c in product(range(t), repeat=len(degs)):
                c_last, rest = divmod(left - mono_degree(c, degs), last)
                if not rest and 0 <= c_last < t:
                    out.append(s[:n] + c + (c_last,))
        out.sort(key=self.ring.key)
        return tuple(out)

    def frobenius_matrix(self, piece):
        """Matrix of the Frobenius action on the degree-zero carrier.

        Column j holds the coordinates of F(basis_j), a level p*t class,
        in the level p*t basis obtained by lifting the carrier basis by
        T^((p-1)t), an order-preserving injection of standard monomials
        (G's leads hold no T) and so a bijection once the counts agree.  A
        dimension failure aborts: it means the carrier was taken below its
        stable level, never that an approximation is acceptable.
        """
        m, p, t = len(piece.basis), self.p, piece.level
        if len(self._degree_zero_basis(p * t)) != m:
            raise InconsistencyError(
                "degree-zero piece changed dimension between levels t and p*t; "
                "the carrier level is below the stable one"
            )
        shift = (0,) * self.user_ring.nvars + ((p - 1) * t,) * self.dim
        lifted = StaircaseBasis(self.ring, tuple(mono_mul(b, shift) for b in piece.basis))
        I_pt = self.truncation_ideal(p * t)
        columns = [
            I_pt.coordinates(self.ring.monomial(tuple(p * x for x in b)), lifted)
            for b in piece.basis
        ]
        return SemilinearOperator(self.ring.field, m, tuple(zip(*columns)), twist=1)


@dataclass
class DegreeZeroPiece:
    """Finite carrier of the degree-zero part of the limit module."""

    graded: GradedRing
    level: int
    basis: tuple

    def __len__(self):
        return len(self.basis)


class CohomologyClass:
    """A class [z + I_t] in the direct-limit model, z in the module ring."""

    __slots__ = ("graded", "level", "numerator")

    def __init__(self, graded, level, numerator):
        if level < 1:
            raise InputError("class level must be >= 1")
        self.graded = graded
        self.level = level
        self.numerator = graded.truncation_ideal(level).normal_form(numerator)

    def lift(self, level):
        """The same limit element presented at a higher level."""
        if level < self.level:
            raise InputError("can only lift to a higher level")
        if level == self.level:
            return self
        step = self.graded.sop_product() ** (level - self.level)
        return CohomologyClass(self.graded, level, self.numerator * step)

    def frobenius(self):
        return CohomologyClass(
            self.graded, self.graded.p * self.level, self.numerator.frobenius(1)
        )

    def is_zero(self):
        """(answer, status): certified for CM-verified rings, where the
        transition maps are injective; otherwise membership at one of the
        next ZERO_SCAN levels still certifies zero, while a persistent
        nonzero normal form stays heuristic."""
        if self.numerator.is_zero():
            return True, "certified"
        if self.graded.cm_status == CM_VERIFIED:
            return False, "certified"
        for s in range(1, ZERO_SCAN + 1):
            if self.lift(self.level + s).numerator.is_zero():
                return True, "certified"
        return False, "heuristic"

    def __str__(self):
        return f"[{self.numerator} + I_{self.level}]"

    def __repr__(self):
        return f"<class {self} of {self.graded.name}>"
