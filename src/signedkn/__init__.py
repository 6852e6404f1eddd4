"""Signed complete graphs whose negative edges form a spanning tree:
spectra, balance, sign rotations, and extremal-tree search."""

from .balance import (
    SwitchSet,
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
    CanonicalTreeCode,
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
    trace_to_jsonl,
)
from .search import (
    AuditRecord,
    ClassRecord,
    EnumerationCrossCheck,
    FREE_TREE_COUNTS,
    SearchReport,
    cross_check_enumeration,
    double_star_chain,
    enumerate_tree_classes,
    enumerate_with_leaves,
    report_to_csv,
    report_to_json,
    structural_audit,
    verify_max_index,
)
from .spectra import (
    Spectrum,
    SymMatrix,
    TopEigenvector,
    adjacency_matrix,
    eigen_decompose,
    index,
    least_eigenvalue,
    residual,
    spectral_radius,
    spectrum_of,
    top_eigenvector,
    tree_index,
)

__version__ = "0.1.0"
