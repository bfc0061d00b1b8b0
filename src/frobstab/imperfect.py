"""Non-reducedness of k^(1/p) tensor L for an inseparable extension L/k.

Works over the imperfect field k = F_p(u, v) with the finite extension
L = k[y]/(y^(2p) + u y^p - v), a `frobstab.field.FiniteExtension`; this
module holds only the demo on top of it.  A nonzero kernel vector
(a_1, ..., a_h) of the p-th power matrix with some a_i outside k^p
certifies a nonzero nilpotent sum a_i^(1/p) (x) b_i in the tensor: its
p-th power collapses to 1 (x) sum a_i b_i^p = 0, while the
non-p-th-power coefficient keeps the element itself away from zero.
"""

from dataclasses import dataclass

from .errors import InputError
from .field import FiniteExtension
from .linalg import kernel
from .ratfun import RatFunField

MAX_DEMO_P = 7


def build_example_extension(p):
    """L = k[y]/(y^(2p) + u y^p - v) over k = F_p(u, v)."""
    if p > MAX_DEMO_P:
        raise InputError(f"demo extension limited to p <= {MAX_DEMO_P}")
    k = RatFunField(p)
    coeffs = [k.zero] * (2 * p + 1)
    coeffs[0] = k.neg(k.var("v"))
    coeffs[p] = k.var("u")
    coeffs[2 * p] = k.one
    return FiniteExtension(k, coeffs)


def p_power_matrix(L):
    """Rows x columns over k: column j holds the coordinates of (y^j)^p."""
    n = L.degree
    cols = [L.y_power(j * L.p) for j in range(n)]
    return [[cols[j][r] for j in range(n)] for r in range(n)]


@dataclass
class TensorNilpotentWitness:
    """A certified nilpotent in k^(1/p) tensor L.

    coefficients a_i satisfy sum a_i b_i^p = 0 in L (verified), and the
    coefficient at certificate_index is not a p-th power in k, which
    keeps sum a_i^(1/p) (x) b_i nonzero.
    """

    coefficients: list
    basis: list
    certificate_index: int

    def to_json(self):
        return {
            "relation": [str(a) for a in self.coefficients],
            "basis": list(self.basis),
            "certificate_index": self.certificate_index,
        }


def find_nilpotent_in_tensor(L):
    """The first canonical kernel vector of the p-th power matrix with a
    coordinate outside k^p, as a witness.

    Returns None when the kernel is trivial or every basis vector has all
    coordinates inside k^p.  F_p-combinations of such vectors stay inside
    (k^p)^n, so searching them could find nothing the basis misses.
    """
    k = L.base
    n = L.degree
    basis = kernel(p_power_matrix(L), k, ncols=n)
    basis_names = ["1"] + [f"y^{j}" if j > 1 else "y" for j in range(1, n)]
    for vec in basis:
        cert = None
        for i, a in enumerate(vec):
            if not a.is_zero() and a.pth_root() is None:
                cert = i
                break
        if cert is None:
            continue
        total = L.zero
        for j, a in enumerate(vec):
            if a.is_zero():
                continue
            term = L.scale(a, L.pow(L.y_power(j), L.p))
            total = L.add(total, term)
        if not L.is_zero(total):
            raise AssertionError("kernel vector failed the direct relation check")
        return TensorNilpotentWitness(list(vec), basis_names, cert)
    return None
