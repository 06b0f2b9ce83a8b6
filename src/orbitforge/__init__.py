"""orbitforge: exact-arithmetic nilpotent orbits, centralisers and finite
W-algebra generators for the classical Lie algebras so_N and sp_N.

The public names live in their layers, as listed in _EXPORTS.  `import
orbitforge` loads no layer: the module __getattr__ (PEP 562) imports a
name's layer when the name is read, so that building an algebra compiles
rings, linalg and algebra only.  Each read goes through the layer module and
nothing is stored here: a name rebound in its layer, as perfbench's layer
tracer does until it uninstalls, is what the package gives back."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "rings": ("ZZ", "QQ", "GF", "format_rational"),
    "linalg": ("SparseMatrix", "rank_kernel", "solve", "smith_normal_form"),
    "partitions": ("Partition", "validate_partition", "pairing_involution", "build_pyramid",
                   "is_almost_rigid", "is_rigid", "admissible_partitions"),
    "algebra": ("ClassicalAlgebra", "build_algebra"),
    "orbits": ("NilpotentRep", "InductionDatum", "build_nilpotent", "dynkin_grading",
               "complete_sl2", "orbit_dimension", "induce_orbit", "rigidity_oracle"),
    "centralizer": ("compute_centralizer", "build_zeta_system", "verify_zeta_system",
                    "derived_subalgebra", "check_generation"),
    "slices": ("build_psi", "split_lagrangian", "build_m", "slice_complement", "integral_saturation"),
    "enveloping": ("WSetup", "pbw_basis_check", "augmentation_character", "casimir"),
    "modular": ("reduce_mod_p", "build_induced_module", "kw_bookkeeping"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
