import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subadapt import neighborhood
from subadapt.cli import make_shifted_pair
from subadapt.data_model import ValidationError
from subadapt.neighborhood import (
    _KNN_BLOCK_ROWS,
    GRAM_RIDGE,
    _knn_reference,
    build_graph,
    build_knn,
    solve_reconstruction,
)


def knn_oracle(points, k):
    """Brute-force all-pairs distance sort, ties by ascending index."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        dists = []
        for j in range(n):
            if j != i:
                dists.append((float(np.sum((points[i] - points[j]) ** 2)), j))
        dists.sort()
        out[i] = [j for _, j in dists[:k]]
    return out


def simplex_grid_best(x, neighbors, resolution=1e-3):
    """Best reconstruction error over a simplex grid at the given resolution."""
    k = neighbors.shape[0]
    steps = int(round(1.0 / resolution))
    if k == 1:
        weights = np.ones((1, 1))
    elif k == 2:
        w1 = np.arange(steps + 1) / steps
        weights = np.column_stack([w1, 1.0 - w1])
    elif k == 3:
        w1 = np.repeat(np.arange(steps + 1), steps + 1) / steps
        w2 = np.tile(np.arange(steps + 1), steps + 1) / steps
        keep = w1 + w2 <= 1.0 + 1e-12
        weights = np.column_stack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
    else:
        raise NotImplementedError
    resid = weights @ neighbors - x
    return float(np.min(np.einsum("ij,ij->i", resid, resid)))


def test_knn_on_a_line():
    points = np.array([[0.0], [1.0], [10.0]])
    assert build_knn(points, 1).tolist() == [[1], [0], [1]]


def test_knn_full_neighborhood():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((6, 2))
    sets = build_knn(points, 5)
    for i in range(6):
        assert sorted(sets[i]) == [j for j in range(6) if j != i]


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((20, 3))
    assert np.array_equal(build_knn(points, 4), knn_oracle(points, 4))


def test_knn_tie_breaks_to_lower_index():
    points = np.array([[0.0], [1.0], [-1.0], [5.0]])
    assert build_knn(points, 2)[0].tolist() == [1, 2]


def test_knn_rejects_k_too_large():
    with pytest.raises(ValidationError, match="k must satisfy"):
        build_knn(np.zeros((3, 2)), 3)


def test_knn_permutation_equivariance():
    rng = np.random.default_rng(2)
    points = rng.standard_normal((12, 3))
    perm = rng.permutation(12)
    old_of_new = perm                   # new index i holds old point perm[i]
    new_of_old = np.argsort(perm)
    base = build_knn(points, 3)
    permuted = build_knn(points[perm], 3)
    for new_i in range(12):
        expected = new_of_old[base[old_of_new[new_i]]]
        assert np.array_equal(permuted[new_i], expected)


def test_reconstruction_single_neighbor():
    x = np.array([1.0, 2.0])
    weights = solve_reconstruction(x, x[None, :])
    assert weights == pytest.approx([1.0], abs=1e-10)


def test_reconstruction_midpoint():
    x = np.array([0.0, 0.0])
    neighbors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    weights = solve_reconstruction(x, neighbors)
    assert weights == pytest.approx([0.5, 0.5], abs=1e-8)


def test_reconstruction_beats_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(2)
        neighbors = rng.standard_normal((3, 2))
        weights = solve_reconstruction(x, neighbors)
        resid = weights @ neighbors - x
        assert float(resid @ resid) <= simplex_grid_best(x, neighbors) + 1e-6


def test_graph_midpoint_row():
    points = np.array([[0.0], [1.0], [2.0]])
    graph = build_graph(points, 2)
    middle = dict(zip(graph.indices[1], graph.coeffs[1]))
    assert middle[0] == pytest.approx(0.5, abs=1e-8)
    assert middle[2] == pytest.approx(0.5, abs=1e-8)


def test_graph_handles_duplicate_points():
    points = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    graph = build_graph(points, 2)
    assert np.all(graph.coeffs >= -1e-12)
    assert np.abs(graph.coeffs.sum(axis=1) - 1.0).max() <= 1e-8


def test_graph_rows_pass_grid_oracle():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((15, 3))
    graph = build_graph(points, 3)
    for i in range(15):
        neighbors = points[graph.indices[i]]
        resid = graph.coeffs[i] @ neighbors - points[i]
        assert float(resid @ resid) <= simplex_grid_best(points[i], neighbors) + 1e-6


def test_graph_simplex_invariants():
    rng = np.random.default_rng(5)
    points = rng.standard_normal((25, 4))
    graph = build_graph(points, 6)
    assert np.all(graph.coeffs >= -1e-12)
    assert np.abs(graph.coeffs.sum(axis=1) - 1.0).max() <= 1e-8
    for i in range(25):
        assert i not in graph.indices[i]
        assert np.all(graph.indices[i] >= 0) and np.all(graph.indices[i] < 25)


def test_residual_vectors_match_definition():
    rng = np.random.default_rng(6)
    points = rng.standard_normal((10, 3))
    graph = build_graph(points, 3)
    resid = graph.residual_vectors(points)
    for j in range(10):
        expected = points[j] - graph.coeffs[j] @ points[graph.indices[j]]
        assert resid[j] == pytest.approx(expected, abs=1e-12)


def test_non_finite_input_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        solve_reconstruction(np.array([np.nan]), np.ones((2, 1)))


def per_point_coeffs(points, indices):
    return np.array([solve_reconstruction(points[i], points[indices[i]])
                     for i in range(len(points))])


def reconstruction_objective(x, neighbors, weights):
    """The QP objective solve_reconstruction minimizes, and its Hessian scale."""
    h = 2.0 * (neighbors @ neighbors.T + GRAM_RIDGE * np.eye(len(weights)))
    return 0.5 * weights @ h @ weights - 2.0 * (neighbors @ x) @ weights, np.abs(h).max()


@pytest.mark.parametrize("seed, n, m, k", [
    (10, 30, 3, 1), (11, 40, 5, 3), (12, 60, 8, 8), (13, 7, 9, 6), (14, 200, 20, 5),
])
def test_batched_graph_matches_per_point_reference(seed, n, m, k):
    points = np.random.default_rng(seed).standard_normal((n, m))
    graph = build_graph(points, k)
    reference = per_point_coeffs(points, graph.indices)
    assert np.abs(graph.coeffs - reference).max() <= 1e-9


@pytest.mark.parametrize("name, k", [
    ("duplicates", 2), ("duplicates", 5), ("k_above_m", 4), ("k_above_m", 9),
    ("k_above_m_scaled", 6), ("all_equal", 3), ("all_zero", 4),
])
def test_batched_graph_degenerate_rows_match_reference_objective(name, k):
    rng = np.random.default_rng(16)
    points = {
        "duplicates": np.repeat(rng.standard_normal((8, 3)), 3, axis=0),
        "k_above_m": rng.standard_normal((30, 2)),
        "k_above_m_scaled": 1e3 * rng.standard_normal((30, 2)),
        "all_equal": np.full((8, 3), 2.5),
        "all_zero": np.zeros((6, 2)),
    }[name]
    graph = build_graph(points, k)
    assert graph.coeffs.min() >= 0.0
    assert np.abs(graph.coeffs.sum(axis=1) - 1.0).max() <= 1e-12
    reference = per_point_coeffs(points, graph.indices)
    for i in range(len(points)):
        neighbors = points[graph.indices[i]]
        batched, scale = reconstruction_objective(points[i], neighbors, graph.coeffs[i])
        expected, _ = reconstruction_objective(points[i], neighbors, reference[i])
        assert abs(batched - expected) <= 1e-12 * max(1.0, scale)


def test_singular_batch_falls_back_to_per_point_reference(monkeypatch):
    # the 1e-8 Gram ridge is lost against 1e18 entries, so the KKT systems of
    # points with duplicate neighbors are exactly singular
    points = np.repeat(1e9 * np.random.default_rng(17).standard_normal((5, 3)), 3, axis=0)
    reference = per_point_coeffs(points, build_knn(points, 4))
    fallback_rows = []
    solve_row = neighborhood.solve_reconstruction

    def counted(x, neighbors):
        fallback_rows.append(x)
        return solve_row(x, neighbors)

    monkeypatch.setattr(neighborhood, "solve_reconstruction", counted)
    graph = build_graph(points, 4)
    assert fallback_rows
    assert graph.coeffs.min() >= 0.0
    assert np.abs(graph.coeffs.sum(axis=1) - 1.0).max() <= 1e-12
    for i in range(len(points)):
        neighbors = points[graph.indices[i]]
        batched, scale = reconstruction_objective(points[i], neighbors, graph.coeffs[i])
        expected, _ = reconstruction_objective(points[i], neighbors, reference[i])
        assert abs(batched - expected) <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("seed", range(6))
def test_large_magnitude_features_give_a_feasible_graph(seed):
    # k > m at entries near 1e16: the PSD check's tolerance must grow with H
    points = 1e8 * np.random.default_rng(seed).standard_normal((30, 2))
    graph = build_graph(points, 5)
    assert graph.coeffs.min() >= 0.0
    assert np.abs(graph.coeffs.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# the screened kNN search against the per-row reference


def knn_reference(points, k):
    return _knn_reference(np.asarray(points, dtype=float), k, range(len(points)))


def knn_counting_fallback(monkeypatch, points, k):
    """build_knn's indices and the number of rows it handed to the reference."""
    rows = []

    def counted(points_arg, k_arg, fallback):
        rows.extend(fallback)
        return _knn_reference(points_arg, k_arg, fallback)

    monkeypatch.setattr(neighborhood, "_knn_reference", counted)
    indices = build_knn(points, k)
    monkeypatch.undo()
    return indices, len(rows)


def assert_screened_matches_reference(monkeypatch, points, k, fallback=None):
    """Identical indices; ``fallback`` is "none", "some" or "all" rows."""
    indices, n_fallback = knn_counting_fallback(monkeypatch, points, k)
    assert indices.dtype == np.int64
    assert np.array_equal(indices, knn_reference(points, k))
    expected = {"none": n_fallback == 0, "all": n_fallback == len(points),
                "some": 0 < n_fallback < len(points), None: True}[fallback]
    assert expected, f"{n_fallback} of {len(points)} rows took the fallback"


@pytest.mark.parametrize("seed", [2016, 1])
@pytest.mark.parametrize("n", [200, 800])
@pytest.mark.parametrize("k", [1, 10, -1])
def test_screened_knn_matches_reference_on_seeded_pairs(monkeypatch, seed, n, k):
    k = n - 1 if k == -1 else k
    sx, _, tx, _ = make_shifted_pair([seed, 0], n1=n, n2=n, n3=n // 10, m=20,
                                     shift=1.5, rot_deg=30.0)
    for points in (sx, tx):
        assert_screened_matches_reference(monkeypatch, points, k, "none")


@pytest.mark.parametrize("n", [_KNN_BLOCK_ROWS - 1, _KNN_BLOCK_ROWS, _KNN_BLOCK_ROWS + 1,
                               2 * _KNN_BLOCK_ROWS, 3 * _KNN_BLOCK_ROWS + 7])
def test_screened_knn_across_block_boundaries(monkeypatch, n):
    points = np.random.default_rng(n).standard_normal((n, 6))
    assert_screened_matches_reference(monkeypatch, points, 4, "none")


@pytest.mark.parametrize("n, m, k", [(60, 2, 1), (60, 2, 7), (300, 3, 10), (300, 4, 40),
                                     (40, 1, 39)])
def test_screened_knn_on_tie_heavy_integer_grids(monkeypatch, n, m, k):
    # three levels per coordinate: many duplicates and many exact distance ties
    points = np.random.default_rng(n + m + k).integers(0, 3, (n, m)).astype(float)
    assert_screened_matches_reference(monkeypatch, points, k)
    if n <= 60:
        assert np.array_equal(build_knn(points, k), knn_oracle(points, k))


@pytest.mark.parametrize("offset", [1e6, -1e6])
def test_screened_knn_on_offset_data(monkeypatch, offset):
    # the Gram form cancels catastrophically; its bound must widen the screen
    points = offset + np.random.default_rng(3).standard_normal((300, 5))
    assert_screened_matches_reference(monkeypatch, points, 10)


def test_far_offset_rows_take_the_reference(monkeypatch):
    # squared norms near 1e320 overflow the Gram form but not the distances
    points = 1e160 + 1e150 * np.random.default_rng(4).standard_normal((50, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_screened_matches_reference(monkeypatch, points, 3, "all")


def test_candidate_cap_sends_duplicate_rows_to_the_reference(monkeypatch):
    rng = np.random.default_rng(5)
    duplicates = np.repeat(rng.standard_normal((1, 4)), 60, axis=0)
    points = np.concatenate([rng.standard_normal((70, 4)), duplicates])
    points = points[rng.permutation(len(points))]
    # each duplicate ties with 59 others at distance 0, above the cap 4k + 32
    assert_screened_matches_reference(monkeypatch, points, 3, "some")
    assert_screened_matches_reference(monkeypatch, np.full((100, 2), 7.0), 1, "all")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data(), integer=st.booleans())
def test_screened_knn_matches_reference_on_random_matrices(data, integer):
    n = data.draw(st.integers(2, 40))
    m = data.draw(st.integers(0, 5))
    k = data.draw(st.integers(1, n - 1))
    if integer:
        cell = st.integers(-3, 3).map(float)
    else:
        cell = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    points = np.array(data.draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                         min_size=n, max_size=n)), dtype=float).reshape(n, m)
    indices = build_knn(points, k)
    assert np.array_equal(indices, knn_reference(points, k))
    if n <= 12:
        assert np.array_equal(indices, knn_oracle(points, k))


def test_knn_overflow_rejected_without_warning():
    points = np.random.default_rng(0).standard_normal((30, 3)) * 1e200
    for build in (build_knn, build_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="squared distance .* overflows"):
                build(points, 3)


def test_neighbor_gram_overflow_rejected_without_warning():
    # every squared distance is finite, but the neighbor Gram near 1e320 is not
    points = 1e160 + 1e150 * np.random.default_rng(4).standard_normal((30, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="neighbor Gram of point 0 overflows"):
            build_graph(points, 3)
