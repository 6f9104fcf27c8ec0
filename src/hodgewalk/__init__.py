"""Root-to-leaf path random walks on double covers of graded signed graphs,
their normalized Hodge Laplacians on simplicial complexes, and exact
Cheeger constants with combined spectral bounds."""

from .complex_core import (
    ComplexFormatError,
    Face,
    SimplicialComplex,
    adjacency,
    boundary_matrix,
    incidence_sign,
    parse_complex,
)
from .graded_cover import (
    CoverSpecError,
    GradedSignedDoubleCover,
    NonStrongGradingError,
    PathWeights,
    component_correspondence,
    components,
    compute_path_weights,
    cover_from_complex,
    detect_coherent,
    find_partition,
    leaves_and_roots,
    parse_cover_spec,
)
from .walks import (
    StationaryDistribution,
    convergence_rate,
    expected_path_length,
    simulate,
    stationary,
    total_variation,
    transition_conditional,
    transition_full,
)
from .operators import (
    EigenResidualError,
    OperatorBundle,
    build_bundle,
    build_conditional,
    coherent_spectrum_check,
    eigen,
    min_eigenvalue_bound,
    on_component,
    verify_split,
)
from .laplacians import (
    HodgeReport,
    betti_numbers,
    check_laplacian_walk_identity,
    hodge,
    hodge_decomposition,
    normalization_weights,
    normalized_coboundary,
    verify_hodge_properties,
)
from .cheeger import (
    AuxiliaryGraph,
    BruteForceGuardError,
    CheegerReport,
    build_aux,
    aux_laplacian,
    cheeger_quotient,
    cheeger_signed,
    combined_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
