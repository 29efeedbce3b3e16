"""Malformed arguments at the public entry points end as a TinycoreError.

The regression table names calls that once ended in a raw numpy or Python
exception, or returned a result.  The property test draws malformed scalars
and arrays for the parameters of every public function and class; whatever
it raises must be a TinycoreError.  No test here reads numpy's message text.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tinycore
from tinycore import (
    BicriteriaSolution,
    CenterSet,
    Coreset,
    CoresetStream,
    Divergence,
    InvalidArgument,
    InvalidInput,
    PointSet,
    ReducedInstance,
    ResourceLimit,
    SensitivityProfile,
    StreamConfig,
    Subspace,
    SvdFactors,
    TinycoreError,
    affine_subspace_coreset,
    affine_subspace_coreset_weighted,
    approx_solution,
    best_affine_subspace,
    bicriteria_kmeans,
    bregman_coreset,
    brute_force_kmeans,
    coreset_cost,
    coreset_size_linear,
    dist2,
    kmeans_coreset,
    kmeans_sensitivities,
    linear_subspace_coreset,
    lloyd_solve,
    mahalanobis,
    niceness_thresholds,
    partition_helper,
    reduce,
    reduction_rank,
    sensitivity_sample,
    small_kmeans_coreset,
    squared_euclidean,
    svd,
    tail_energy,
    vc_sample_size,
)

from tinycore.coreset import merge_coresets
from tinycore.linalg import dist2_rows
from tinycore.sensitivity import renormalize_bounds

from conftest import make_blobs

ROWS = make_blobs(np.random.default_rng(7), 12, 3, 2)
PS = PointSet(ROWS)
FACTORS = svd(PS)
BIC = bicriteria_kmeans(PS, 2, 0.1, 0)
PROFILE = kmeans_sensitivities(PS, BIC)
BIC_ARRAYS = {f.name: getattr(BIC, f.name) for f in dataclasses.fields(BIC)}
REDUCED = reduce(PS, 1, 0.5)
CORE = Coreset(points=ROWS[:4], weights=np.full(4, 3.0), delta=0.0)
BASIS = np.eye(3)[:, :1]
CENTERS = CenterSet(ROWS[:2])
# a permutation scaled by powers of 2, so the Mahalanobis route prices the rows
MAHALANOBIS = mahalanobis(np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def _stream(rows, **config):
    stream = CoresetStream(StreamConfig(**config))
    stream.extend(rows)
    return stream.query()


def _insert(point, kind="subspace"):
    CoresetStream(StreamConfig(kind=kind, eps=0.5, j=1, k=2)).insert(point)


def _extend(rows, kind):
    CoresetStream(StreamConfig(kind=kind, eps=0.5, j=1, k=2)).extend(rows)


def _solution(**arrays):
    """BIC with some of its arrays replaced."""
    return BicriteriaSolution(**{**BIC_ARRAYS, **arrays})


def _solver(points, k):
    return lloyd_solve(points, min(k, points.n), 0)


NAN, INF = math.nan, math.inf

# (call, the error it must raise); each row ended otherwise before
TABLE = {
    "PointSet-string": (lambda: PointSet([["a"]]), InvalidInput),
    "PointSet-ragged": (lambda: PointSet([[1.0, 2.0], [3.0]]), InvalidInput),
    "PointSet-string-weight": (lambda: PointSet([[1.0]], ["x"]), InvalidInput),
    "CenterSet-string": (lambda: CenterSet([["a"]]), InvalidArgument),
    "Subspace-string": (lambda: Subspace(basis=[["a"]]), InvalidArgument),
    "Coreset-string": (lambda: Coreset(points=[["a"]], weights=[1.0], delta=0.0), InvalidInput),
    "extend-string": (lambda: _stream([["a"]], kind="subspace", eps=0.5, j=1), InvalidInput),
    "insert-string": (lambda: _insert(["a"]), InvalidInput),
    # arrays of the wrong shape, once flattened or read as one wide point
    "insert-matrix": (lambda: _insert(np.ones((2, 3))), InvalidInput),
    "extend-3d": (lambda: _stream(np.ones((2, 2, 2)), kind="subspace", eps=0.5, j=1), InvalidInput),
    # blocks of zero columns: a k-means stream once counted them and fixed width 0,
    # a subspace stream raised InvalidArgument on j's range
    "extend-zero-columns-kmeans": (lambda: _extend(np.empty((5, 0)), "kmeans"), InvalidInput),
    "extend-zero-columns-subspace": (lambda: _extend(np.empty((5, 0)), "subspace"), InvalidInput),
    "extend-zero-columns-affine": (lambda: _extend(np.empty((5, 0)), "affine"), InvalidInput),
    "insert-empty-kmeans": (lambda: _insert([], "kmeans"), InvalidInput),
    "insert-empty-subspace": (lambda: _insert([], "subspace"), InvalidInput),
    # bare rows to dist2_rows: numpy errors, a warning, an empty result or NaN
    "dist2_rows-3d": (lambda: dist2_rows(np.ones((2, 2, 2)), CenterSet(np.ones((1, 2)))), InvalidInput),
    "dist2_rows-string": (lambda: dist2_rows([[1, "a"]], CenterSet(np.ones((1, 2)))), InvalidInput),
    "dist2_rows-empty-centers": (lambda: dist2_rows(np.empty((0, 3)), CENTERS), InvalidInput),
    "dist2_rows-empty-subspace": (lambda: dist2_rows(np.empty((0, 3)), Subspace(basis=BASIS)), InvalidInput),
    "dist2_rows-empty-affine": (
        lambda: dist2_rows(np.empty((0, 3)), Subspace(basis=BASIS, offset=np.zeros(3))), InvalidInput
    ),
    "dist2_rows-nan": (lambda: dist2_rows([[NAN, 1.0]], CenterSet(np.ones((1, 2)))), InvalidInput),
    "Divergence.cost-array-centers": (lambda: MAHALANOBIS.cost(CORE, ROWS[:2]), InvalidArgument),
    "PointSet-matrix-weight": (lambda: PointSet(np.ones((4, 2)), np.ones((2, 2))), InvalidInput),
    "Subspace-matrix-offset": (lambda: Subspace(basis=np.eye(4)[:, :1], offset=np.zeros((2, 2))), InvalidArgument),
    "SensitivityProfile-matrix-sigma": (
        lambda: SensitivityProfile(sigma=np.full((2, 2), 0.25), total=1.0), InvalidInput
    ),
    "kmeans_coreset-seed": (lambda: kmeans_coreset(PS, 2, 0.5, 0.1, -1), InvalidArgument),
    "lloyd_solve-seed": (lambda: lloyd_solve(PS, 2, -1), InvalidArgument),
    "bregman_coreset-seed": (lambda: bregman_coreset(PS, 2, 0.5, squared_euclidean(), -1), InvalidArgument),
    "bicriteria_kmeans-seed": (lambda: bicriteria_kmeans(PS, 2, 0.1, -1), InvalidArgument),
    "sensitivity_sample-seed": (lambda: sensitivity_sample(PS, PROFILE, 4, -1), InvalidArgument),
    "approx_solution-seed": (lambda: approx_solution(PS, 2, 0.5, _solver, seed=-1), InvalidArgument),
    "bicriteria_kmeans-float-seed": (lambda: bicriteria_kmeans(PS, 2, 0.1, 1.5), InvalidArgument),
    "kmeans_coreset-float-k": (lambda: kmeans_coreset(PS, 2.5, 0.5, 0.1, 0), InvalidArgument),
    "bicriteria_kmeans-float-k": (lambda: bicriteria_kmeans(PS, 2.5, 0.1, 0), InvalidArgument),
    "lloyd_solve-float-k": (lambda: lloyd_solve(PS, 2.5, 0), InvalidArgument),
    "brute_force_kmeans-float-k": (lambda: brute_force_kmeans(PS, 2.5), InvalidArgument),
    "bregman_coreset-float-k": (lambda: bregman_coreset(PS, 2.5, 0.5, squared_euclidean()), InvalidArgument),
    "lloyd_solve-numpy-float-k": (lambda: lloyd_solve(PS, np.float64(2), 0), InvalidArgument),
    "kmeans_coreset-string-k": (lambda: kmeans_coreset(PS, "2", 0.5, 0.1, 0), InvalidArgument),
    "sensitivity_sample-float-size": (lambda: sensitivity_sample(PS, PROFILE, 10.5, 0), InvalidArgument),
    "tail_energy-float-rank": (lambda: tail_energy(FACTORS, 1.5), InvalidArgument),
    "vc_sample_size-nan": (lambda: vc_sample_size(NAN, 3, 0.5, 0.1), InvalidArgument),
    "vc_sample_size-inf": (lambda: vc_sample_size(INF, 3, 0.5, 0.1), InvalidArgument),
    "kmeans_coreset-nan-c_vc": (lambda: kmeans_coreset(PS, 2, 0.5, 0.1, 0, c_vc=NAN), InvalidArgument),
    "stream-nan-c_stream": (
        lambda: _stream(ROWS, kind="kmeans", eps=0.5, k=2, c_stream=NAN), InvalidArgument
    ),
    "reduce-float-j": (lambda: reduce(PS, 1.5, 0.5), InvalidArgument),
    "linear_subspace_coreset-float-j": (lambda: linear_subspace_coreset(PS, 1.5, 0.5), InvalidArgument),
    "coreset_size_linear-float-j": (lambda: coreset_size_linear(1.5, 0.5), InvalidArgument),
    "StreamConfig-float-j": (lambda: StreamConfig(kind="subspace", eps=0.5, j=1.5), InvalidArgument),
    "StreamConfig-float-k": (lambda: StreamConfig(kind="kmeans", eps=0.5, k=1.5), InvalidArgument),
    "kmeans_coreset-float-sample-size": (
        lambda: kmeans_coreset(PS, 2, 0.5, 0.1, 0, sample_size=2.5), InvalidArgument
    ),
    "kmeans_coreset-negative-c_vc": (lambda: kmeans_coreset(PS, 2, 0.5, 0.1, 0, c_vc=-1.0), InvalidArgument),
    # size formulas whose divisor rounds to 0 or whose value passes float64
    "niceness_thresholds-tiny-eps": (lambda: niceness_thresholds(1e-9, 1.0), ResourceLimit),
    "reduction_rank-tiny-eps": (lambda: reduction_rank(10, 5, 1, 1e-200, "general"), ResourceLimit),
    "coreset_size_linear-tiny-eps": (lambda: coreset_size_linear(1, 1e-320), ResourceLimit),
    "vc_sample_size-huge-c_vc": (lambda: vc_sample_size(5.0, 3, 0.5, 0.1, c_vc=1e308), ResourceLimit),
    "bicriteria_kmeans-tiny-delta": (lambda: bicriteria_kmeans(PointSet(np.eye(4)), 2, 5e-324, 0), ResourceLimit),
    "linear_subspace_coreset-tiny-eps": (
        lambda: linear_subspace_coreset(PointSet(np.eye(4)), 1, 1e-320), ResourceLimit
    ),
    "stream-subspace-tiny-eps": (lambda: _stream(np.eye(4), kind="subspace", eps=1e-320, j=1), ResourceLimit),
    "stream-kmeans-tiny-eps": (lambda: _stream(np.eye(4), kind="kmeans", eps=1e-320, k=2), ResourceLimit),
    # finite rows whose squares overflow: a numpy warning, not the error
    "brute_force_kmeans-overflow": (lambda: brute_force_kmeans(PointSet(ROWS * 1e160), 2), InvalidInput),
    # weighted squares that overflow once summed: every cost -inf or NaN, once a one-center answer
    "brute_force_kmeans-overflow-weights": (
        lambda: brute_force_kmeans(PointSet(ROWS, np.full(12, 1e300)), 2), InvalidInput
    ),
    # Divergence's per-row methods: AttributeError, IndexError, broadcast ValueError, UFuncTypeError
    "Divergence.to_centers-array-centers": (
        lambda: mahalanobis(np.eye(2)).to_centers(np.ones((3, 2)), np.ones((2, 2))), InvalidArgument
    ),
    "Divergence.between-string-point": (lambda: squared_euclidean().between(np.ones((3, 2)), "a"), InvalidArgument),
    "Divergence.between-wrong-width": (
        lambda: squared_euclidean().between(np.ones((3, 2)), np.ones(3)), InvalidArgument
    ),
    "Divergence.between-evaluator-wrong-width": (
        lambda: Divergence(evaluator=lambda p, q: np.sum((p - q) ** 2, axis=1)).between(np.ones((3, 2)), np.ones(3)),
        InvalidArgument,
    ),
    "Divergence.mahalanobis-wrong-width": (
        lambda: mahalanobis(np.eye(2)).mahalanobis(np.ones((3, 2)), np.ones(3)), InvalidArgument
    ),
    "Divergence.between-string-rows": (
        lambda: squared_euclidean().between([["a", "b"]], np.ones(2)), InvalidInput
    ),
    # rows and points a PointSet rejects: NaN or inf out, an empty array, or numpy's warning under B
    "Divergence.between-nan-row": (
        lambda: squared_euclidean().between([[NAN, 1.0, 2.0]], np.zeros(3)), InvalidInput
    ),
    "Divergence.mahalanobis-inf-row": (
        lambda: MAHALANOBIS.mahalanobis(np.array([[INF, 1.0, 2.0]]), np.zeros(3)), InvalidInput
    ),
    "Divergence.between-nan-point": (
        lambda: squared_euclidean().between(np.ones((3, 3)), np.array([NAN, 0.0, 0.0])), InvalidArgument
    ),
    "Divergence.to_centers-inf-row": (
        lambda: MAHALANOBIS.to_centers(np.array([[INF, 1.0, 2.0]]), CENTERS), InvalidInput
    ),
    "Divergence.between-empty-rows": (
        lambda: squared_euclidean().between(np.empty((0, 3)), np.zeros(3)), InvalidInput
    ),
    # checks that no other test reaches
    "kmeans_sensitivities-other-solution": (
        lambda: kmeans_sensitivities(PS, bicriteria_kmeans(PointSet(ROWS[:6]), 2, 0.5, 0)), InvalidInput
    ),
    "sensitivity_sample-profile-length": (
        lambda: sensitivity_sample(PS, SensitivityProfile(np.ones(5), 5.0), 3, 0), InvalidArgument
    ),
    "renormalize_bounds-above-cap": (lambda: renormalize_bounds(np.array([1.0, 5.0]), 6.0, 2), InvalidInput),
    "renormalize_bounds-too-few": (lambda: renormalize_bounds(np.array([1.0]), 6.0, 2), InvalidInput),
    "merge_coresets-empty": (lambda: merge_coresets([]), InvalidInput),
    "Subspace-3d": (lambda: Subspace(np.ones((2, 2, 2))), InvalidArgument),
    "coreset_size_linear-huge-int-eps": (lambda: coreset_size_linear(1, 10**400), InvalidArgument),
    "ReducedInstance-negative-delta": (
        lambda: ReducedInstance(points=PS, basis=np.eye(3), delta=-1.0), InvalidInput
    ),
    # types that once held their arrays unchecked: wrapped or truncated indices,
    # raw numpy errors, NaN singular values or offsets, zero-column centers
    "BicriteriaSolution-negative-index": (
        lambda: _solution(assignment=np.where(BIC.assignment == 0, -1, BIC.assignment)), InvalidInput
    ),
    "BicriteriaSolution-float-assignment": (lambda: _solution(assignment=[0.5] * 12), InvalidInput),
    "kmeans_sensitivities-index-past-k": (
        lambda: kmeans_sensitivities(PS, _solution(assignment=np.full(12, 9))), InvalidInput
    ),
    "BicriteriaSolution-string-centers": (lambda: _solution(centers=[["a", "b", "c"]] * 4), InvalidInput),
    "SvdFactors-nan-sigma": (lambda: SvdFactors(sigma=[NAN, 1.0], v=np.eye(2)), InvalidInput),
    "SvdFactors-string-sigma": (lambda: SvdFactors(sigma="a", v=np.eye(2)), InvalidInput),
    "ReducedInstance-nan-delta": (lambda: ReducedInstance(points=PS, basis=np.eye(3), delta=NAN), InvalidInput),
    "ReducedInstance-string-basis": (lambda: ReducedInstance(points=PS, basis="x", delta=0.0), InvalidInput),
    "CenterSet-zero-columns": (lambda: CenterSet(np.empty((1, 0))), InvalidArgument),
}


@pytest.mark.parametrize("row", sorted(TABLE))
def test_regression_table(row):
    call, error = TABLE[row]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("delta", [INF, NAN, -1.0, "x", [0.0, 1.0]])
def test_coreset_rejects_a_delta_that_is_not_a_finite_non_negative_number(delta):
    with pytest.raises(InvalidInput, match="coreset offset"):
        Coreset(points=ROWS, weights=np.ones(12), delta=delta)


def test_a_3d_center_array_is_named_as_a_bad_shape():
    with pytest.raises(InvalidArgument, match=r"n x d matrix.*\(1, 2, 3\)"):
        CenterSet(np.ones((1, 2, 3)))


@pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 1)], ids=["vector", "row", "column"])
@pytest.mark.parametrize("method", ["between", "mahalanobis"])
def test_a_divergence_point_may_be_a_row_or_a_column(method, shape):
    call = getattr(MAHALANOBIS, method)
    want = call(ROWS, ROWS[0])
    np.testing.assert_array_equal(call(ROWS, ROWS[0].reshape(shape)), want)


@pytest.mark.parametrize("k", [2, np.int64(2), np.uint8(2)])
def test_numpy_integers_are_accepted(k):
    want = kmeans_coreset(PS, 2, 0.5, 0.1, 3, sample_size=5)
    got = kmeans_coreset(PS, k, 0.5, 0.1, np.int32(3), sample_size=np.int64(5))
    np.testing.assert_array_equal(got.points, want.points)
    np.testing.assert_array_equal(got.weights, want.weights)


def test_largest_seed_is_accepted_and_the_next_is_not():
    lloyd_solve(PS, 2, 2**63 - 1)
    with pytest.raises(InvalidArgument, match="seed"):
        lloyd_solve(PS, 2, 2**63)


# Entry points with valid arguments; the property test replaces some of them.
# Callable arguments (`solver`, `evaluator`) and the library's own objects
# (point sets, profiles, factors, divergences, coresets) are not drawn.
SMALL = PointSet(ROWS[:6])
DIV = squared_euclidean()
ENTRY_POINTS = {
    "PointSet": (PointSet, dict(rows=ROWS, weights=np.ones(12))),
    "BicriteriaSolution": (BicriteriaSolution, BIC_ARRAYS),
    "SvdFactors": (SvdFactors, dict(sigma=FACTORS.sigma, v=FACTORS.v)),
    "ReducedInstance": (ReducedInstance, dict(points=REDUCED.points, basis=REDUCED.basis, delta=REDUCED.delta)),
    "StreamConfig": (
        StreamConfig, dict(kind="kmeans", eps=0.5, j=None, k=2, delta=0.1, seed=0, c_stream=1.0)
    ),
    "CenterSet": (CenterSet, dict(centers=ROWS[:2])),
    "Subspace": (Subspace, dict(basis=BASIS, offset=np.zeros(3))),
    "Coreset": (Coreset, dict(points=ROWS[:4], weights=np.ones(4), delta=0.0)),
    "SensitivityProfile": (SensitivityProfile, dict(sigma=PROFILE.sigma, total=PROFILE.total)),
    "dist2": (dist2, dict(points=PS, shape=CENTERS)),
    # the rows alone: a broken shape, checked first, would mask them (`dist2` draws shapes)
    "linalg.dist2_rows": (lambda rows: dist2_rows(rows, CENTERS), dict(rows=ROWS)),
    "Divergence.cost": (MAHALANOBIS.cost, dict(coreset=CORE, centers=CENTERS)),
    "Divergence.to_centers": (MAHALANOBIS.to_centers, dict(points=ROWS, centers=CENTERS)),
    "Divergence.between": (MAHALANOBIS.between, dict(points=ROWS, q=ROWS[0])),
    "Divergence.mahalanobis": (MAHALANOBIS.mahalanobis, dict(points=ROWS, q=ROWS[0])),
    "coreset_cost": (coreset_cost, dict(coreset=CORE, shape=Subspace(basis=BASIS))),
    "tail_energy": (tail_energy, dict(factors=FACTORS, m=1)),
    "coreset_size_linear": (coreset_size_linear, dict(j=1, eps=0.5)),
    "linear_subspace_coreset": (linear_subspace_coreset, dict(points=PS, j=1, eps=0.5)),
    "affine_subspace_coreset": (affine_subspace_coreset, dict(points=PS, j=1, eps=0.5)),
    "affine_subspace_coreset_weighted": (
        affine_subspace_coreset_weighted, dict(points=CORE.as_point_set(), j=1, eps=0.5)
    ),
    "reduction_rank": (reduction_rank, dict(n=12, d=3, j=1, eps=0.5, mode="general")),
    "reduce": (reduce, dict(points=PS, j=1, eps=0.5, mode="coreset-lift")),
    "vc_sample_size": (
        vc_sample_size, dict(total_sensitivity=5.0, dim_bound=3, eps=0.5, delta=0.1, c_vc=1.0)
    ),
    "bicriteria_kmeans": (bicriteria_kmeans, dict(points=PS, k=2, delta=0.1, seed=0)),
    "sensitivity_sample": (sensitivity_sample, dict(points=PS, profile=PROFILE, s=4, seed=0)),
    "lloyd_solve": (lloyd_solve, dict(points=PS, k=2, seed=0)),
    "brute_force_kmeans": (brute_force_kmeans, dict(points=SMALL, k=2)),
    "kmeans_coreset": (
        kmeans_coreset, dict(points=PS, k=2, eps=0.5, delta=0.1, seed=0, sample_size=4, c_vc=1.0)
    ),
    "small_kmeans_coreset": (
        small_kmeans_coreset, dict(points=PS, k=2, eps=0.5, delta=0.1, seed=0, sample_size=None, c_vc=1.0)
    ),
    "approx_solution": (
        approx_solution, dict(points=PS, k=2, eps=0.5, solver=_solver, delta=0.1, seed=0)
    ),
    "best_affine_subspace": (best_affine_subspace, dict(points=PS, j=1)),
    "Divergence": (Divergence, dict(matrix=np.eye(3), similarity=1.0)),
    "mahalanobis": (mahalanobis, dict(matrix=np.eye(3))),
    "niceness_thresholds": (niceness_thresholds, dict(eps=0.5, m=1.0)),
    "partition_helper": (partition_helper, dict(points=SMALL, k=2, depth=2, f1=0.01, div=DIV)),
    "bregman_coreset": (bregman_coreset, dict(points=SMALL, k=2, eps=0.5, div=DIV, seed=0)),
    "stream": (
        _stream,
        dict(rows=ROWS, kind="kmeans", eps=0.5, j=None, k=2, delta=0.1, seed=0, c_stream=1.0),
    ),
    "stream-subspace": (_stream, dict(rows=ROWS, kind="affine", eps=0.5, j=1, seed=0)),
    "insert": (_insert, dict(point=ROWS[0])),
}
KEPT = (PointSet, SensitivityProfile, SvdFactors, Divergence, Coreset)

SCALARS = st.one_of(
    st.integers(-(2**64), 0),  # negative, and zero
    st.integers(2**63, 2**64),  # past a signed 64-bit seed
    st.floats(-1e6, 1e6).map(lambda x: round(x, 3)),  # floats where integers are wanted
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([NAN, INF, -INF, np.float64(2.0), np.float32(NAN), np.int64(-1)]),
    st.booleans(),
    st.sampled_from(["", "a", "2", "0.5", b"1"]),
    st.none(),
)
ARRAYS = st.one_of(
    st.sampled_from([
        [[1.0, 2.0], [3.0]],  # ragged
        [["a", "b", "c"]],
        [[1.0, 2.0, 3.0], [4.0, 5.0, "x"]],
        [],
        [[]],
        {"a": 1},
    ]),
    st.sampled_from([(0, 3), (3, 0), (), (2,), (3,), (12,), (2, 3), (12, 3), (3, 3), (2, 2, 3), (12, 1)]).map(
        np.zeros
    ),
    st.tuples(
        st.sampled_from([(3,), (4,), (12,), (3, 1), (4, 3), (12, 3), (3, 3)]),
        st.sampled_from([NAN, INF, -INF, -1.0, 0.0, 1e300]),
    ).map(lambda t: np.full(*t)),
    st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=3), max_size=4),
)
MALFORMED = st.one_of(SCALARS, ARRAYS)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_arguments_raise_tinycore_errors(name, data):
    call, valid = ENTRY_POINTS[name]
    params = sorted(p for p, v in valid.items() if not (callable(v) or isinstance(v, KEPT)))
    broken = data.draw(st.lists(st.sampled_from(params), min_size=1, max_size=3, unique=True))
    kwargs = {**valid, **{p: data.draw(MALFORMED, label=p) for p in broken}}
    try:
        call(**kwargs)
    except TinycoreError:
        pass


# every parameter that the test above draws, one (entry, parameter) pair each
PAIRS = sorted(
    (name, p)
    for name, (_, valid) in ENTRY_POINTS.items()
    for p, v in valid.items()
    if not (callable(v) or isinstance(v, KEPT))
)


@pytest.mark.parametrize("name, param", PAIRS, ids=[f"{name}-{p}" for name, p in PAIRS])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_each_parameter_is_broken_alone(name, param, data):
    # one broken parameter per example, so no parameter checked first masks it
    call, valid = ENTRY_POINTS[name]
    try:
        call(**{**valid, param: data.draw(MALFORMED, label=param)})
    except TinycoreError:
        pass


def test_every_public_dataclass_is_fuzzed():
    public = {name for name in tinycore.__all__ if dataclasses.is_dataclass(getattr(tinycore, name))}
    assert public - set(ENTRY_POINTS) == set()


def test_squares_past_float64_give_a_quiet_cost_that_is_not_finite():
    # finite rows whose squares overflow: each per-row query returns its cost, inf or NaN, with no warning
    big = np.full((12, 3), 1e300) + np.arange(3)
    calls = [
        lambda: dist2_rows(big, CENTERS),
        lambda: dist2_rows(big, Subspace(basis=BASIS)),
        lambda: dist2_rows(big, Subspace(basis=BASIS, offset=np.zeros(3))),
        lambda: MAHALANOBIS.between(big, ROWS[0]),
        lambda: MAHALANOBIS.mahalanobis(big, ROWS[0]),
        lambda: MAHALANOBIS.to_centers(big, CENTERS),
        lambda: MAHALANOBIS.cost(Coreset(points=big, weights=np.ones(12), delta=0.0), CENTERS),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            assert not np.isfinite(call()).any()
