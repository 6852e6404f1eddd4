"""Signed complete graphs whose negative edges form a spanning tree:
spectra, balance, sign rotations, and extremal-tree search."""

from .balance import (
    bipartition,
    cycle_sign,
    find_negative_triangle,
    is_balanced,
    switch,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InvariantViolationError,
    MalformedInputError,
    PreconditionError,
    SignedKnError,
    StaleEigenvectorError,
)
from .graphs import (
    PruferSequence,
    SignedCompleteGraph,
    Tree,
    build_broom,
    build_double_star,
    build_path,
    build_star,
    canonical_code,
    format_edge_list,
    format_prufer,
    leaf_count,
    parse_edge_list,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    random_tree,
    random_tree_with_leaf_count,
    signed_complete_from_tree,
)
from .perturb import (
    ClimbStep,
    PreconditionReport,
    RotationMove,
    apply_rotation,
    check_precondition,
    hill_climb,
)
from .search import (
    ClassRecord,
    FREE_TREE_COUNTS,
    SearchReport,
    double_star_chain,
    enumerate_tree_classes,
    verify_max_index,
)
from .spectra import (
    Spectrum,
    SymMatrix,
    TopEigenvector,
    adjacency_matrix,
    eigen_decompose,
    residual,
    spectrum_of,
    top_eigenvector,
    tree_eigs_above,
    tree_index,
    tree_indices,
)

__version__ = "0.1.0"
