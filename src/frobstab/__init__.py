"""frobstab: prime-characteristic singularity invariants for graded rings.

Compute Frobenius bracket powers, roots and closures, test F-injectivity
through the parameter-ideal criterion, model the Frobenius action on top
local cohomology, and decide F-stability by two independent routes that
cross-validate each other.
"""

from ._kernel import implementation as kernel_implementation
from .config import RunConfig
from .field import ExtField, FiniteExtension, PrimeField
from .frobenius import (
    ClosureReport,
    bracket_power,
    frobenius_closure,
    frobenius_root,
    is_frobenius_closed,
)
from .groebner import Ideal, StaircaseBasis, socle_basis
from .imperfect import (
    TensorNilpotentWitness,
    build_example_extension,
    find_nilpotent_in_tensor,
    p_power_matrix,
)
from .localcoh import CohomologyClass, DegreeZeroPiece, GradedRing
from .poly import GREVLEX, LEX, MonomialOrder, Polynomial, PolyRing, elim_order
from .ratfun import RatFunField, RationalFunction, pth_power_test
from .semilinear import SemilinearOperator, Subspace
from .stability import (
    ChainReport,
    StabilityReport,
    compatible_closure,
    connected_components_check,
    f_stability,
    frobenius_annihilator,
    frobenius_colon_chain,
    is_f_injective_cm,
    is_f_stable_certified,
    socle_stability_search,
)

__version__ = "0.1.0"
