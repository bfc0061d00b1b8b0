"""The direct-limit model of top local cohomology for a graded ring.

A GradedRing is a quotient presentation F_p[vars]/J with positive
variable weights, together with a homogeneous system of parameters
x_1..x_d.  Classes of the top module are written [z + (J, x_1^t..x_d^t)]
and move up the direct system by multiplication with x_1*...*x_d; the
Frobenius action sends a level-t class to [z^p] at level p*t.

Everything certified runs through two gates: the CM check (the sop is a
verified regular sequence, which makes the transition maps injective and
R free over F_p[x_1..x_d]) and the level T the a-invariant gives, from
which on the degree-zero graded piece no longer grows.  The stable part
of the graded module is concentrated in degree zero — a span of
homogeneous Frobenius images is graded and a nonzero degree would need
to be divisible by p^j for every j — so the finite degree-zero carrier
is all the semilinear machinery ever sees.
"""

from dataclasses import dataclass

from .errors import InconsistencyError, InputError, NotSupportedError
from .field import PrimeField
from .groebner import Ideal, socle_basis
from .linalg import rank, solve
from .poly import GREVLEX, PolyRing, mono_degree
from .semilinear import SemilinearOperator

CM_UNCHECKED = "unchecked"
CM_VERIFIED = "verified"
CM_FAILED = "failed"


class GradedRing:
    """Graded quotient F_p[vars]/J with a homogeneous sop."""

    def __init__(self, field, names, degrees, relations, sop, minimal_primes=None, name=None):
        self.ring = PolyRing(field, names, GREVLEX)
        degrees = tuple(int(d) for d in degrees)
        if len(degrees) != len(names) or any(d <= 0 for d in degrees):
            raise InputError("each variable needs a positive degree")
        self.degrees = degrees
        self.relations = Ideal(self.ring, relations)
        self.sop = tuple(sop)
        self.minimal_primes = minimal_primes
        self.name = name or f"F_{field.p}[{','.join(names)}]/({', '.join(map(str, self.relations.gens)) or '0'})"
        self.cm_status = CM_UNCHECKED
        self.cm_witness = None
        self._validate()

    @classmethod
    def from_dict(cls, data):
        """Build from the ring-file schema (see the CLI docs)."""
        try:
            field = PrimeField(data["char"])
            names = tuple(data["vars"])
            degrees = tuple(data.get("degrees") or (1,) * len(names))
            ring = PolyRing(field, names, GREVLEX)
            relations = [ring.parse(s) for s in data.get("relations", [])]
            sop = [ring.parse(s) for s in data["sop"]]
            primes = None
            if data.get("minimal_primes") is not None:
                primes = [
                    Ideal(ring, [ring.parse(s) for s in gens])
                    for gens in data["minimal_primes"]
                ]
        except KeyError as missing:
            raise InputError(f"ring file is missing the key {missing}") from None
        return cls(field, names, degrees, relations, sop, primes, name=data.get("name"))

    def _validate(self):
        for g in self.relations.gens:
            if g.homogeneous_degree(self.degrees) is None:
                raise InputError(f"relation {g} is not homogeneous for the given weights")
        if not self.sop:
            raise InputError("a nonempty system of parameters is required")
        for x in self.sop:
            if x.is_zero() or x.homogeneous_degree(self.degrees) is None:
                raise InputError("sop entries must be nonzero and homogeneous")
        if not self.truncation_ideal(1).is_artinian():
            raise InputError(
                "the declared sop does not cut the ring down to dimension zero"
            )

    # --- basic data -----------------------------------------------------------

    @property
    def p(self):
        return self.ring.p

    @property
    def dim(self):
        return len(self.sop)

    def sop_degrees(self):
        return tuple(x.homogeneous_degree(self.degrees) for x in self.sop)

    def degree_sum(self):
        return sum(self.sop_degrees())

    def sop_product(self):
        out = self.ring.one()
        for x in self.sop:
            out = out * x
        return out

    def maximal_ideal(self):
        return Ideal(self.ring, self.ring.gens())

    def describe(self):
        return {
            "name": self.name,
            "char": self.p,
            "vars": list(self.ring.names),
            "degrees": list(self.degrees),
            "relations": [str(g) for g in self.relations.gens],
            "sop": [str(x) for x in self.sop],
            "dim": self.dim,
        }

    # --- Cohen-Macaulay gate -----------------------------------------------------

    def check_cm(self):
        """Verify the sop is a regular sequence mod the relations.

        For each k the colon (J + (x_1..x_{k-1})) : x_k must equal
        J + (x_1..x_{k-1}); on failure a witness element is recorded.
        The result gates every certified claim downstream.
        """
        if self.cm_status != CM_UNCHECKED:
            return self.cm_status, self.cm_witness
        base_gens = list(self.relations.gens)
        for x in self.sop:
            base = Ideal(self.ring, base_gens)
            quot = base.colon(x)
            if not base.contains_ideal(quot):
                witness = next(g for g in quot.gens if not base.contains(g))
                self.cm_status = CM_FAILED
                self.cm_witness = witness
                return self.cm_status, witness
            base_gens.append(x)
        self.cm_status = CM_VERIFIED
        return self.cm_status, None

    # --- truncations ---------------------------------------------------------------

    def truncation_ideal(self, t):
        """J + (x_1^t, ..., x_d^t)."""
        if t < 1:
            raise InputError("truncation level must be >= 1")
        gens = list(self.relations.gens) + [x**t for x in self.sop]
        return Ideal(self.ring, gens)

    def socle_of_truncation(self, t):
        return socle_basis(self.truncation_ideal(t))

    def cohomology_class(self, numerator, level=1):
        return CohomologyClass(self, level, numerator)

    # --- the degree-zero carrier ------------------------------------------------------

    def degree_zero_piece(self):
        """Basis of the degree-zero graded piece of the limit, at level T.

        The verified sop makes R free over F_p[x_1..x_d], so R/I_t is
        R/I_1 tensored with F_p[x]/(x_1^t..x_d^t) as graded spaces, and
        H^d_m(R) is R/I_1 tensored with the monomials x^-b, every b_i >= 1.
        A degree-zero class pairs a standard monomial of weighted degree e
        with sum b_i deg(x_i) = e, which forces (b_i - 1) deg(x_i) <= a(R)
        = top degree of R/I_1 - sum deg(x_i).  Level t holds the classes
        with every b_i <= t, so from T = max(1, 1 + a(R) // min deg(x_i))
        on the transitions (multiply by x_1...x_d) are bijective in degree
        zero: injective by the CM gate, and of equal dimension by the count.
        """
        if self.cm_status != CM_VERIFIED:
            raise NotSupportedError("degree_zero_piece requires a verified CM gate")
        degsum = self.degree_sum()
        stair = self.truncation_ideal(1).staircase().monomials
        # default=0: a unit relation leaves no standard monomial and T = 1
        a = max((mono_degree(mono, self.degrees) for mono in stair), default=0) - degsum
        level = max(1, 1 + a // min(self.sop_degrees()))
        I_T = self.truncation_ideal(level)
        basis = I_T.staircase(weights=self.degrees, degree=level * degsum).monomials
        return DegreeZeroPiece(self, level, basis)

    def frobenius_matrix(self, piece):
        """Matrix of the Frobenius action on the degree-zero carrier.

        Column j holds the coordinates of F(basis_j), a level p*t class,
        in the level p*t basis obtained by lifting the carrier basis.
        Any dimension or coordinate failure aborts: it means the carrier
        was taken below its stable level, never that an approximation is
        acceptable.
        """
        m = len(piece.basis)
        fp = self.ring.field
        t = piece.level
        pt = self.p * t
        degsum = self.degree_sum()
        I_pt = self.truncation_ideal(pt)
        stair_pt = I_pt.staircase(weights=self.degrees, degree=pt * degsum)
        if len(stair_pt) != m:
            raise InconsistencyError(
                "degree-zero piece changed dimension between levels t and p*t; "
                "the carrier level is below the stable one"
            )
        if m == 0:
            return SemilinearOperator(fp, 0, (), twist=1)
        # shift = (x_1...x_d)^((p-1)t), one parameter at a time, reduced
        # modulo I_pt after each product so that nothing is expanded in the
        # polynomial ring; NF(b*NF(s)) = NF(b*s) keeps the coordinates
        shift = self.ring.one()
        for _ in range((self.p - 1) * t):
            for x in self.sop:
                shift = I_pt.normal_form(shift * x)
        lifted = []
        images = []
        for mono in piece.basis:
            b = self.ring.monomial(mono)
            lifted.append(I_pt.coordinates(b * shift, stair_pt))
            images.append(I_pt.coordinates(b.frobenius(1), stair_pt))
        rows = [[lifted[i][r] for i in range(m)] for r in range(m)]
        if rank(rows, fp) != m:
            raise InconsistencyError("lifted basis is not independent at level p*t")
        columns = []
        for img in images:
            alpha = solve(rows, img, fp)
            if alpha is None:
                raise InconsistencyError(
                    "coordinate failure: Frobenius image outside the lifted span"
                )
            columns.append(alpha)
        matrix = tuple(tuple(columns[j][i] for j in range(m)) for i in range(m))
        return SemilinearOperator(fp, m, matrix, twist=1)


@dataclass
class DegreeZeroPiece:
    """Finite carrier of the degree-zero part of the limit module."""

    graded: GradedRing
    level: int
    basis: tuple

    def __len__(self):
        return len(self.basis)


class CohomologyClass:
    """A class [z + (J, x_1^t, ..., x_d^t)] in the direct-limit model."""

    __slots__ = ("graded", "level", "numerator")

    def __init__(self, graded, level, numerator):
        if level < 1:
            raise InputError("class level must be >= 1")
        self.graded = graded
        self.level = level
        self.numerator = graded.truncation_ideal(level).normal_form(numerator)

    def degree(self):
        """Degree of the class in the graded limit module, or None."""
        d = self.numerator.homogeneous_degree(self.graded.degrees)
        if d is None:
            return None
        return d - self.level * self.graded.degree_sum()

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

    def is_zero(self, scan=4):
        """(answer, status): certified for CM-verified rings, where the
        transition maps are injective; otherwise membership at a finitely
        scanned higher level still certifies zero, while a persistent
        nonzero normal form stays heuristic."""
        if self.numerator.is_zero():
            return True, "certified"
        if self.graded.cm_status == CM_VERIFIED:
            return False, "certified"
        for s in range(1, scan + 1):
            if self.lift(self.level + s).numerator.is_zero():
                return True, "certified"
        return False, "heuristic"

    def __str__(self):
        return f"[{self.numerator} + I_{self.level}]"

    def __repr__(self):
        return f"<class {self} of {self.graded.name}>"
