"""orbitforge: exact-arithmetic nilpotent orbits, centralisers and finite
W-algebra generators for the classical Lie algebras so_N and sp_N."""

__version__ = "0.1.0"

from .rings import ZZ, QQ, GF, format_rational
from .linalg import SparseMatrix, rank_kernel, solve, smith_normal_form
from .partitions import (
    Partition,
    validate_partition,
    pairing_involution,
    build_pyramid,
    is_almost_rigid,
    is_rigid,
    admissible_partitions,
)
from .algebra import ClassicalAlgebra, build_algebra
from .orbits import (
    NilpotentRep,
    InductionDatum,
    build_nilpotent,
    dynkin_grading,
    complete_sl2,
    orbit_dimension,
    induce_orbit,
    rigidity_oracle,
)
from .centralizer import (
    compute_centralizer,
    build_zeta_system,
    verify_zeta_system,
    derived_subalgebra,
    check_generation,
)
from .slices import build_psi, split_lagrangian, build_m, slice_complement, integral_saturation
from .enveloping import WSetup, pbw_basis_check, augmentation_character, casimir
from .modular import reduce_mod_p, build_induced_module, kw_bookkeeping
