import numpy as np
import pytest

from subadapt.data_model import NumericError, ValidationError
from subadapt.qp_solver import QpProblem, _feasible_start, solve


def kkt_residual(p, x, activity_atol=1e-7):
    """Independent stationarity check for the box+sum program."""
    g = p.h @ x + p.c
    at_lo = x <= p.lower + activity_atol
    at_up = (x >= p.upper - activity_atol) & ~at_lo
    free = ~(at_lo | at_up)
    if free.any():
        mu = -float(g[free].mean())
    else:
        lo_req = float((-g[at_lo]).max()) if at_lo.any() else -np.inf
        up_req = float((-g[at_up]).min()) if at_up.any() else np.inf
        mu = min(max(0.0, lo_req), up_req) if lo_req <= up_req else 0.5 * (lo_req + up_req)
    shifted = g + mu
    residual = 0.0
    if free.any():
        residual = max(residual, float(np.abs(shifted[free]).max()))
    if at_lo.any():
        residual = max(residual, max(0.0, float((-shifted[at_lo]).max())))
    if at_up.any():
        residual = max(residual, max(0.0, float(shifted[at_up].max())))
    return residual


def grid_best_objective(p, step=0.01):
    """Exhaustive slice grid: free coordinates on the grid, last from the sum."""
    n = p.n
    axes = [np.arange(p.lower[i], p.upper[i] + 1e-12, step) for i in range(n - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.column_stack([m.ravel() for m in mesh])
    tail = p.eq_sum - head.sum(axis=1)
    keep = (tail >= p.lower[-1] - 1e-12) & (tail <= p.upper[-1] + 1e-12)
    pts = np.column_stack([head[keep], tail[keep]])
    values = 0.5 * np.einsum("ij,jk,ik->i", pts, p.h, pts) + pts @ p.c
    return float(values.min())


def feasible_uniform(p):
    x = np.clip(np.full(p.n, p.eq_sum / p.n), p.lower, p.upper)
    interior = (x > p.lower) & (x < p.upper)
    if interior.any():
        x[interior] += (p.eq_sum - x.sum()) / interior.sum()
    return x


def random_psd_problem(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        a = rng.standard_normal((n, n))
        h = a @ a.T
    elif kind == 1:
        g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        h = g.T @ g
    elif kind == 2:
        h = np.zeros((n, n))
    else:
        h = np.diag(np.abs(rng.standard_normal(n)))
    c = 3.0 * rng.standard_normal(n)
    upper = np.full(n, float(rng.uniform(1.0, 3.0)))
    eq_sum = float(rng.uniform(0.0, upper.sum()))
    return QpProblem(h, c, np.zeros(n), upper, eq_sum)


def test_uniform_interior_optimum():
    p = QpProblem(2.0 * np.eye(2), np.zeros(2), np.zeros(2), 2.0 * np.ones(2), 2.0)
    assert solve(p) == pytest.approx([1.0, 1.0], abs=1e-10)


def test_linear_program_corner():
    p = QpProblem(np.zeros((2, 2)), np.array([0.0, 10.0]),
                  np.zeros(2), 2.0 * np.ones(2), 2.0)
    assert solve(p) == pytest.approx([2.0, 0.0], abs=1e-10)


def test_random_instances_beat_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(8):
        p = random_psd_problem(rng, 4)
        x = solve(p)
        assert p.objective(x) <= grid_best_objective(p, step=0.01) + 1e-4


def test_feasibility_and_kkt_contract():
    rng = np.random.default_rng(8)
    for _ in range(150):
        p = random_psd_problem(rng, int(rng.integers(2, 9)))
        x = solve(p)
        assert float(x.min() - p.lower.min()) >= -1e-8
        assert float((x - p.upper).max()) <= 1e-8
        assert abs(x.sum() - p.eq_sum) <= 1e-8 * max(1.0, abs(p.eq_sum))
        assert kkt_residual(p, x) <= 1e-6


def test_objective_never_above_uniform_reference():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = random_psd_problem(rng, int(rng.integers(2, 7)))
        x = solve(p)
        assert p.objective(x) <= p.objective(feasible_uniform(p)) + 1e-8


def test_warm_start_monotone():
    rng = np.random.default_rng(10)
    for _ in range(50):
        p = random_psd_problem(rng, 5)
        x1 = solve(p)
        x2 = solve(p, warm_start=x1)
        assert p.objective(x2) <= p.objective(x1) + 1e-10


def test_deterministic_for_fixed_input():
    rng = np.random.default_rng(11)
    p = random_psd_problem(rng, 6)
    assert np.array_equal(solve(p), solve(p))


def test_warm_start_from_infeasible_point_is_projected():
    p = QpProblem(np.eye(3), np.zeros(3), np.zeros(3), np.ones(3), 1.5)
    x = solve(p, warm_start=np.array([10.0, -4.0, 0.0]))
    assert abs(x.sum() - 1.5) <= 1e-8


def test_infeasible_bounds_rejected():
    with pytest.raises(ValidationError, match="lower > upper"):
        solve(QpProblem(np.eye(2), np.zeros(2), np.ones(2), np.zeros(2), 1.0))


def test_infeasible_equality_rejected():
    with pytest.raises(ValidationError, match="infeasible"):
        solve(QpProblem(np.eye(2), np.zeros(2), np.zeros(2), np.ones(2), 5.0))


def test_asymmetric_h_rejected():
    h = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        solve(QpProblem(h, np.zeros(2), np.zeros(2), np.ones(2), 1.0))


def test_indefinite_h_rejected():
    with pytest.raises(NumericError, match="positive semidefinite"):
        solve(QpProblem(np.diag([1.0, -1.0]), np.zeros(2),
                        np.zeros(2), np.ones(2), 1.0))


def test_tiny_negative_curvature_tolerated():
    h = np.diag([1.0, -1e-10])
    p = QpProblem(h, np.zeros(2), np.zeros(2), np.ones(2), 1.0)
    x = solve(p)
    assert abs(x.sum() - 1.0) <= 1e-8


def test_pinned_variable():
    lower = np.array([0.0, 0.7, 0.0])
    upper = np.array([1.0, 0.7, 1.0])
    p = QpProblem(np.eye(3), np.zeros(3), lower, upper, 1.5)
    x = solve(p)
    assert x[1] == pytest.approx(0.7, abs=1e-12)
    assert x[0] == pytest.approx(0.4, abs=1e-8)
    assert x[2] == pytest.approx(0.4, abs=1e-8)


def bisection_start(p, warm_start):
    """Shift-then-clip projection onto the box/sum set by 200-step bisection."""
    x0 = np.full(p.n, p.eq_sum / p.n) if warm_start is None else warm_start.copy()
    t_lo = float((p.lower - x0).min()) - 1.0
    t_hi = float((p.upper - x0).max()) + 1.0
    for _ in range(200):
        t_mid = 0.5 * (t_lo + t_hi)
        if np.clip(x0 + t_mid, p.lower, p.upper).sum() < p.eq_sum:
            t_lo = t_mid
        else:
            t_hi = t_mid
    x = np.clip(x0 + t_hi, p.lower, p.upper)
    interior = (x > p.lower) & (x < p.upper)
    if interior.any():
        x[interior] += (p.eq_sum - x.sum()) / interior.sum()
    return x


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("sum_at", ["inside", "lower", "upper"])
def test_exact_start_matches_bisection(n, sum_at):
    rng = np.random.default_rng(12)
    for trial in range(60):
        lower = rng.uniform(-3.0, 1.0, n)
        upper = lower + rng.uniform(0.0, 3.0, n)
        pinned = rng.random(n) < 0.25
        upper[pinned] = lower[pinned]
        eq_sum = {"inside": float(rng.uniform(lower.sum(), upper.sum())),
                  "lower": lower.sum(), "upper": upper.sum()}[sum_at]
        p = QpProblem(np.eye(n), np.zeros(n), lower, upper, eq_sum)
        # cold start, warm starts inside the box, and far outside it
        warm = [None, rng.uniform(lower, upper),
                rng.normal(0.0, 10.0 ** rng.uniform(1, 4), n)][trial % 3]
        x = _feasible_start(p, warm)
        assert np.abs(x - bisection_start(p, warm)).max() <= 1e-12
        assert np.all(x >= lower) and np.all(x <= upper)
        assert x[pinned] == pytest.approx(lower[pinned], abs=0.0)
