"""Exact p^e-semilinear linear algebra over finite fields.

An operator acts by v -> A . v^(p^e): coordinate Frobenius followed by a
matrix.  Over a finite (hence perfect) field the set image of a subspace
under such a map is again a subspace, so spans of Frobenius images are
honest subspaces and the stable part, nilpotent part and socle-chain
dynamics are all computable exactly.  Subspaces are canonicalized as
reduced row echelon bases, so equality is syntactic.
"""

import itertools
from dataclasses import dataclass

from .errors import ContextMismatchError, InputError
from .field import ExtField, PrimeField
from .linalg import in_row_space, kernel, mat_vec, residual_map_rows, rref


@dataclass(frozen=True)
class Subspace:
    """Row space in canonical (RREF) form."""

    field: object
    ambient: int
    rows: tuple

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        red, _p = rref([list(v) for v in vectors], field) if vectors else ([], [])
        return cls(field, ambient, tuple(red))

    @classmethod
    def full(cls, field, ambient):
        one, zero = field.one, field.zero
        rows = tuple(
            tuple(one if i == j else zero for j in range(ambient)) for i in range(ambient)
        )
        return cls(field, ambient, rows)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, ())

    @property
    def dim(self):
        return len(self.rows)

    def is_zero(self):
        return not self.rows

    def _pivots(self):
        """The pivot columns, read off the RREF rows."""
        zero = self.field.zero
        return [next(j for j, x in enumerate(r) if x != zero) for r in self.rows]

    def contains(self, v):
        return in_row_space(self.rows, self._pivots(), list(v), self.field)

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

    def intersect(self, other):
        """U cap W via the kernel of [U^T | -W^T] on stacked coefficients."""
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient)
        f = self.field
        n = self.ambient
        ku, kw = self.dim, other.dim
        rows = []
        for r in range(n):
            row = [self.rows[i][r] for i in range(ku)]
            row += [f.neg(other.rows[j][r]) for j in range(kw)]
            rows.append(row)
        combos = kernel(rows, f, ncols=ku + kw)
        vecs = []
        for c in combos:
            v = [f.zero] * n
            for i in range(ku):
                if c[i] != f.zero:
                    v = [f.add(x, f.mul(c[i], y)) for x, y in zip(v, self.rows[i])]
            vecs.append(tuple(v))
        return Subspace.from_vectors(f, n, vecs)

    def vectors(self):
        """Every vector of the subspace (finite field); exponential in dim."""
        f = self.field
        scalars = list(f.elements())
        for coeffs in itertools.product(scalars, repeat=self.dim):
            v = [f.zero] * self.ambient
            for c, row in zip(coeffs, self.rows):
                if c != f.zero:
                    v = [f.add(x, f.mul(c, y)) for x, y in zip(v, row)]
            yield tuple(v)


class SemilinearOperator:
    """v -> matrix . v^(p^twist) on field^n."""

    __slots__ = ("field", "n", "matrix", "twist")

    def __init__(self, field, n, matrix, twist=1):
        if twist < 1:
            raise InputError("twist must be >= 1")
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise InputError("matrix shape does not match the dimension")
        self.field = field
        self.n = n
        self.matrix = matrix
        self.twist = twist

    @classmethod
    def from_json(cls, data):
        fdesc = data["field"]
        p, nexp = fdesc["p"], fdesc.get("n", 1)
        field = PrimeField(p) if nexp == 1 else ExtField.of_order(p, nexp)
        mat = data["matrix"]
        if nexp == 1:
            matrix = [[c % p for c in row] for row in mat]
        else:
            matrix = [[field.element(c) for c in row] for row in mat]
        return cls(field, len(mat), matrix, twist=data.get("twist", 1))

    def _coordinate_frobenius(self, v):
        return tuple(self.field.frobenius(x, self.twist) for x in v)

    def apply(self, v):
        if len(v) != self.n:
            raise ContextMismatchError("vector length does not match the operator")
        return mat_vec(self.matrix, self._coordinate_frobenius(v), self.field)

    def full_space(self):
        return Subspace.full(self.field, self.n)

    # --- spans of images ------------------------------------------------------

    def image_span(self, W):
        """Span of the image of W; equals the set image over perfect fields."""
        return Subspace.from_vectors(self.field, self.n, [self.apply(r) for r in W.rows])

    def stable_part(self):
        """Limit of the descending chain of iterated image spans, from the
        whole space: an invertible operator stops at the first image."""
        return _fixpoint(self.image_span, self.full_space())

    def kernel_space(self):
        """ker(v -> A v^(q)), the preimage of zero."""
        return self.preimage(Subspace.zero(self.field, self.n))

    def preimage(self, U):
        """{v : apply(v) in U}, exactly."""
        res = residual_map_rows(U.rows, U._pivots(), self.n, self.field)
        if not res:
            return self.full_space()
        # the residual map composed with the matrix, row by row
        columns = tuple(zip(*self.matrix))
        composed = [mat_vec(columns, row, self.field) for row in res]
        lin = kernel(composed, self.field, ncols=self.n)
        vecs = [
            tuple(self.field.frobenius_inverse(x, self.twist) for x in v) for v in lin
        ]
        return Subspace.from_vectors(self.field, self.n, vecs)

    def nil_part(self):
        """Union of the ascending kernel chain of the iterates."""
        return _fixpoint(self.preimage, Subspace.zero(self.field, self.n))

    def is_injective(self):
        return self.kernel_space().is_zero()

    # --- reports ---------------------------------------------------------------

    def fitting_check(self):
        """Verify the stable/nilpotent decomposition contracts."""
        S = self.stable_part()
        N = self.nil_part()
        problems = []
        if not self.kernel_space().intersect(S).is_zero():
            problems.append("operator not injective on the stable part")
        if self.image_span(S).rows != S.rows:
            problems.append("image span of the stable part is not the stable part")
        if not S.intersect(N).is_zero():
            problems.append("stable and nilpotent parts overlap")
        if S.dim + N.dim != self.n:
            problems.append("stable + nil dimensions do not fill the space")
        return FittingReport(self, S, N, tuple(problems))

    def socle_chain(self, S, claim_check=True):
        """Dimensions of M_e = S cap <F^e(S)> until the image spans cycle.

        The subspace sequence <F^e(S)> is deterministic in a finite
        lattice, so it enters a cycle; the limit dimension is the minimum
        of dim M_e over that cycle.  When requested (and meaningful) each
        M_{e+1} is checked against the span of F(M_e).
        """
        seen = {}
        T = S
        dims = []
        intersections = []
        e = 0
        while T.rows not in seen:
            seen[T.rows] = e
            M_e = S.intersect(T)
            dims.append(M_e.dim)
            intersections.append(M_e)
            T = self.image_span(T)
            e += 1
        cycle_start = seen[T.rows]
        cycle_dims = dims[cycle_start:]
        claim_ok = True
        if claim_check:
            for i in range(len(intersections) - 1):
                span_prev = self.image_span(intersections[i])
                if not span_prev.contains_subspace(intersections[i + 1]):
                    claim_ok = False
        return SocleChainReport(
            dims=tuple(dims),
            cycle_start=cycle_start,
            cycle_length=len(dims) - cycle_start,
            limit_dim=min(cycle_dims),
            claim_holds=claim_ok,
        )

    def find_stable_socle_element(self, S):
        """A nonzero v in S with every Frobenius iterate inside S, or None.

        The valid vectors form a subspace: the greatest fixed point of
        T -> T cap preimage(T) below S.  The computation is exact for any
        operator; the injectivity flag is reported because only injective
        actions make the existence statement a theorem.
        """
        T = _fixpoint(lambda T: T.intersect(self.preimage(T)), S)
        witness = T.rows[0] if T.rows else None
        return StableSocleSearch(witness, T, self.is_injective())

    def preimage_closure(self, S):
        """Smallest subspace containing S with preimage(T) inside T.

        Socles of modules with an injective compatible Frobenius have
        this closure property (kill v's image by the maximal ideal and
        injectivity kills v itself); it is exactly the hypothesis that
        turns the socle-chain existence statement into a theorem, and it
        fails for arbitrary subspaces.
        """
        return _fixpoint(
            lambda T: Subspace.from_vectors(self.field, self.n, T.rows + self.preimage(T).rows),
            S,
        )

    def base_change(self, n):
        """The same matrix over F_{p^n}; twist unchanged."""
        if not isinstance(self.field, PrimeField):
            raise InputError("base change starts from a prime field operator")
        ext = ExtField.of_order(self.field.p, n)
        matrix = tuple(tuple(ext.from_base(c) for c in row) for row in self.matrix)
        return SemilinearOperator(ext, self.n, matrix, self.twist)

    def to_json(self):
        nexp = self.field.degree if isinstance(self.field, ExtField) else 1
        mat = [
            [list(c) if isinstance(c, tuple) else c for c in row] for row in self.matrix
        ]
        return {"field": {"p": self.field.p, "n": nexp}, "twist": self.twist, "matrix": mat}

    def __repr__(self):
        return f"<semilinear {self.n}x{self.n} over {self.field}, twist {self.twist}>"


def _fixpoint(step, W):
    """Apply `step` from W until the canonical RREF rows repeat."""
    while True:
        nxt = step(W)
        if nxt.rows == W.rows:
            return W
        W = nxt


@dataclass(frozen=True)
class FittingReport:
    operator: SemilinearOperator
    stable: Subspace
    nil: Subspace
    problems: tuple

    @property
    def ok(self):
        return not self.problems

    @property
    def stable_dim(self):
        return self.stable.dim

    @property
    def nil_dim(self):
        return self.nil.dim


@dataclass(frozen=True)
class SocleChainReport:
    dims: tuple
    cycle_start: int
    cycle_length: int
    limit_dim: int
    claim_holds: bool


@dataclass(frozen=True)
class StableSocleSearch:
    witness: object
    space: Subspace
    injective: bool

    def found(self):
        return self.witness is not None
