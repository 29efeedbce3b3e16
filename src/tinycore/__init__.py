"""tinycore: small weighted summaries of large point sets.

The library reduces an n x d matrix of points to a coreset (S, w, delta)
whose clustering or subspace-approximation cost matches the input within a
(1 +- eps) factor for every query shape, and keeps such summaries over
unbounded streams in polylogarithmic memory.
"""
from .bregman import (
    Divergence,
    bregman_coreset,
    mahalanobis,
    niceness_thresholds,
    partition_helper,
    squared_euclidean,
)
from .clustering import (
    AffineClusteringProblem,
    KMeansProblem,
    approx_solution,
    best_affine_subspace,
    brute_force_kmeans,
    exact_tiny_solver,
    kmeans_coreset,
    lloyd_solve,
    small_kmeans_coreset,
)
from .coreset import (
    Coreset,
    affine_subspace_coreset,
    affine_subspace_coreset_weighted,
    coreset_cost,
    coreset_size_linear,
    linear_subspace_coreset,
)
from .dimred import ReducedInstance, lift_coreset, reduce, reduction_rank, weak_triangle_gap
from .errors import EmptyState, InvalidArgument, InvalidInput, ResourceLimit, TinycoreError
from .linalg import (
    CenterSet,
    PointSet,
    Subspace,
    SvdFactors,
    dist2,
    svd,
    tail_energy,
    weighted_fold,
)
from .sensitivity import (
    BicriteriaSolution,
    SensitivityProfile,
    bicriteria_kmeans,
    kmeans_sensitivities,
    movement_sensitivities,
    sensitivity_sample,
    vc_sample_size,
)
from .streaming import CoresetStream, StreamConfig

__version__ = "0.1.0"

__all__ = [
    "AffineClusteringProblem",
    "BicriteriaSolution",
    "CenterSet",
    "Coreset",
    "CoresetStream",
    "Divergence",
    "EmptyState",
    "InvalidArgument",
    "InvalidInput",
    "KMeansProblem",
    "PointSet",
    "ReducedInstance",
    "ResourceLimit",
    "SensitivityProfile",
    "StreamConfig",
    "Subspace",
    "SvdFactors",
    "TinycoreError",
    "affine_subspace_coreset",
    "affine_subspace_coreset_weighted",
    "approx_solution",
    "best_affine_subspace",
    "bicriteria_kmeans",
    "bregman_coreset",
    "brute_force_kmeans",
    "coreset_cost",
    "coreset_size_linear",
    "dist2",
    "exact_tiny_solver",
    "kmeans_coreset",
    "kmeans_sensitivities",
    "lift_coreset",
    "linear_subspace_coreset",
    "lloyd_solve",
    "mahalanobis",
    "movement_sensitivities",
    "niceness_thresholds",
    "partition_helper",
    "reduce",
    "reduction_rank",
    "sensitivity_sample",
    "small_kmeans_coreset",
    "squared_euclidean",
    "svd",
    "tail_energy",
    "vc_sample_size",
    "weak_triangle_gap",
    "weighted_fold",
]
