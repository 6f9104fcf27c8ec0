"""Root-to-leaf path random walks on double covers of graded signed graphs,
their normalized Hodge Laplacians on simplicial complexes, and exact
Cheeger constants with combined spectral bounds.

Each submodule is compiled at its first attribute access, so a CLI job
compiles only the modules its verb touches; all of them are in
``sys.modules`` from the start, for tools that rebind names across it.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# submodule -> the public names it owns
_EXPORTS = {
    "complex_core": "ComplexFormatError Face SimplicialComplex adjacency boundary_matrix "
    "incidence_sign parse_complex",
    "graded_cover": "CoverSpecError GradedSignedDoubleCover NonStrongGradingError PathWeights "
    "component_correspondence components compute_path_weights cover_from_complex "
    "detect_coherent expected_path_length find_partition leaves_and_roots parse_cover_spec",
    "walks": "StationaryDistribution convergence_rate simulate stationary total_variation "
    "transition_conditional transition_full",
    "operators": "EigenResidualError OperatorBundle build_bundle build_conditional "
    "coherent_spectrum_check eigen min_eigenvalue_bound on_component verify_split",
    "laplacians": "HodgeReport betti_numbers check_laplacian_walk_identity hodge "
    "hodge_decomposition normalization_weights normalized_coboundary verify_hodge_properties",
    "cheeger": "AuxiliaryGraph BruteForceGuardError CheegerReport build_aux aux_laplacian "
    "cheeger_quotient cheeger_signed combined_report",
    "exact": "",
    "rng": "",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    sys.modules[_spec.name] = globals()[_name] = _module


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"
