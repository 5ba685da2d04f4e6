import numpy as np
import pytest

from subadapt import neighborhood
from subadapt.data_model import ValidationError
from subadapt.neighborhood import (
    GRAM_RIDGE,
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


def test_dense_coefficients_scatter():
    points = np.array([[0.0], [1.0], [2.0]])
    graph = build_graph(points, 2)
    w = graph.dense_coefficients()
    assert w.shape == (3, 3)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-8
    assert np.all(np.diag(w) == 0.0)


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
