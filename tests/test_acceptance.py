"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The twenty seeded training runs are shared by the
monotonicity, feasibility, matching, and identity criteria through a
module-scoped fixture.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from subadapt.classifier import ObjectiveContext, recover_u_v
from subadapt.cli import make_shifted_pair
from subadapt.data_model import DatasetPair, Hyperparams
from subadapt.evaluation import run_cv
from subadapt.neighborhood import build_graph
from subadapt.subspace import update_theta
from subadapt.trainer import fit
from subadapt.weights import build_weight_problem, update_pi

from objective_reference import q_objective, q_subgradients
from reconstruction_reference import batch_row_weights, exhaustive_weights


def report(number, name, elapsed, budget):
    print(f"[PASS] criterion {number} ({name}): {elapsed:.1f}s of {budget:.0f}s budget")


# ---------------------------------------------------------------------------
# criterion 1: subgradients vs central finite differences

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    checked = 0
    for state_index in range(100):
        loss = ("logistic", "exponential")[state_index % 2]
        m = int(rng.integers(2, 9))
        n1 = int(rng.integers(3, 21))
        n2 = int(rng.integers(3, 21))
        n3 = int(rng.integers(1, n2 + 1))
        k = int(rng.integers(1, min(n1, n2)))
        xs = rng.standard_normal((n1, m))
        xt = rng.standard_normal((n2, m))
        ys = np.where(rng.random(n1) < 0.5, 1, -1)
        yt = np.where(rng.random(n3) < 0.5, 1, -1)
        pair = DatasetPair(xs, ys, xt, yt)
        r = int(rng.integers(1, m))
        hp = Hyperparams(c1=float(rng.uniform(0, 4)), c2=float(rng.uniform(0, 2)),
                         r=r, k=k, loss=loss)
        graph_t = build_graph(xt, k)
        theta = np.linalg.qr(rng.standard_normal((m, r)))[0].T
        w = rng.standard_normal(r)
        pi = rng.uniform(0.2, 1.8, n1)
        pi *= n1 / pi.sum()
        phi_vec = 0.5 * rng.standard_normal(m)
        varphi_vec = 0.5 * rng.standard_normal(m)

        ctx = ObjectiveContext(pair, build_graph(xs, k), graph_t, hp)
        g_phi, g_varphi = q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx)

        def q_at(pv, vv):
            return q_objective(pv, vv, theta, w, pi, ctx)

        h = 1e-6
        for i in range(m):
            delta = np.zeros(m)
            delta[i] = h
            fd_phi = (q_at(phi_vec + delta, varphi_vec)
                      - q_at(phi_vec - delta, varphi_vec)) / (2 * h)
            fd_varphi = (q_at(phi_vec, varphi_vec + delta)
                         - q_at(phi_vec, varphi_vec - delta)) / (2 * h)
            assert abs(g_phi[i] - fd_phi) <= 1e-5 * max(1.0, abs(g_phi[i]))
            assert abs(g_varphi[i] - fd_varphi) <= 1e-5 * max(1.0, abs(g_varphi[i]))
            checked += 2
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 10.0
    report(1, "gradient correctness", elapsed, 10)


# ---------------------------------------------------------------------------
# criterion 2: eigen-step beats random orthonormal sampling

def test_criterion_2_eigen_step_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(200)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(2, m - 1) + 1))
        a = rng.standard_normal((m, m))
        phi_mat = 0.5 * (a + a.T)
        theta = update_theta(phi_mat, r)
        achieved = float(np.trace(theta @ phi_mat @ theta.T))
        samples = rng.standard_normal((10000, m, r))
        q = np.linalg.qr(samples)[0]
        sampled = np.einsum("nij,ik,nkj->n", q, phi_mat, q)
        assert achieved <= float(sampled.min()) + 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "eigen-step optimality", elapsed, 30)


# ---------------------------------------------------------------------------
# criterion 3: QP solutions match exhaustive grid oracles

def _pi_grid_best(problem, delta, step=0.01):
    h, c = problem.h.dense(), problem.c
    grid = np.arange(0.0, delta + 1e-12, step)
    g2, g3 = np.meshgrid(grid, grid, indexing="ij")
    best = np.inf
    for a in grid:
        g4 = problem.n - a - g2 - g3
        keep = (g4 >= 0.0) & (g4 <= delta)
        if not keep.any():
            continue
        pts = np.column_stack(
            [np.full(int(keep.sum()), a), g2[keep], g3[keep], g4[keep]])
        values = 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts) + pts @ c
        best = min(best, float(values.min()))
    return best


def _simplex_grid_best(x, neighbors, step=1e-3):
    k = neighbors.shape[0]
    steps = int(round(1.0 / step))
    if k == 1:
        weights = np.ones((1, 1))
    elif k == 2:
        w1 = np.arange(steps + 1) / steps
        weights = np.column_stack([w1, 1.0 - w1])
    else:
        w1 = np.repeat(np.arange(steps + 1), steps + 1) / steps
        w2 = np.tile(np.arange(steps + 1), steps + 1) / steps
        keep = w1 + w2 <= 1.0 + 1e-12
        weights = np.column_stack([w1[keep], w2[keep], 1.0 - w1[keep] - w2[keep]])
    resid = weights @ neighbors - x
    return float(np.min(np.einsum("ij,ij->i", resid, resid)))


def test_criterion_3_qp_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(300)
    for _ in range(50):
        n1, m = 4, 3
        xs = rng.standard_normal((n1, m))
        ys = np.where(rng.random(n1) < 0.5, 1, -1)
        xt = rng.standard_normal((5, m))
        yt = np.where(rng.random(2) < 0.5, 1, -1)
        pair = DatasetPair(xs, ys, xt, yt)
        delta = float(rng.uniform(1.0, 1.6))
        hp = Hyperparams(c2=float(rng.uniform(0, 1.5)),
                         c3=float(rng.uniform(0, 6.0)),
                         delta=delta, r=2, k=2,
                         loss=("hinge", "logistic")[int(rng.integers(0, 2))])
        ctx = ObjectiveContext(pair, build_graph(xs, hp.k), build_graph(xt, hp.k), hp)
        theta = np.linalg.qr(rng.standard_normal((m, 2)))[0].T
        phi_vec = rng.standard_normal(m)
        problem = build_weight_problem(phi_vec, theta, ctx)
        pi = update_pi(problem)
        assert problem.objective(pi) <= _pi_grid_best(problem, delta) + 1e-4

    for _ in range(50):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        x = rng.standard_normal(m)
        neighbors = rng.standard_normal((k, m))
        best = _simplex_grid_best(x, neighbors)
        for solve_row in (exhaustive_weights, batch_row_weights):
            resid = solve_row(x, neighbors) @ neighbors - x
            assert float(resid @ resid) <= best + 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, "QP oracle equivalence", elapsed, 60)


# ---------------------------------------------------------------------------
# criteria 4-6 and 9 share twenty seeded training runs

N_SHARED_RUNS = 20


@dataclass
class SharedRun:
    pair: DatasetPair
    hp: Hyperparams
    trace: object
    state: object
    snapshots: list = field(default_factory=list)


@pytest.fixture(scope="module")
def shared_runs(recorded_cycles):
    runs = []
    started = time.perf_counter()
    for seed in range(N_SHARED_RUNS):
        sx, sy, tx, ty = make_shifted_pair(seed)
        pair = DatasetPair(sx, sy, tx, ty[:20])
        hp = Hyperparams(max_outer_iters=50, tol=1e-12)
        with recorded_cycles() as snapshots:
            state, trace = fit(pair, hp)
        runs.append(SharedRun(pair=pair, hp=hp.resolved(pair.m), trace=trace,
                              state=state, snapshots=snapshots))
    return runs, time.perf_counter() - started


def test_criterion_4_block_monotonicity(shared_runs):
    runs, fit_seconds = shared_runs
    for run in runs:
        trace = run.trace
        for t in range(trace.n_iters):
            if t > 0:
                assert trace.objective_after_subspace[t] <= \
                    trace.objective_after_weights[t - 1] + 1e-9
            assert trace.objective_after_classifier[t] <= \
                trace.objective_after_subspace[t] + 1e-6
            assert trace.objective_after_weights[t] <= \
                trace.objective_after_classifier[t] + 1e-9
    assert fit_seconds < 120.0
    report(4, "block monotonicity", fit_seconds, 120)


def test_criterion_5_feasibility_suite(shared_runs):
    started = time.perf_counter()
    runs, _ = shared_runs
    for run in runs:
        r = run.hp.r
        n1 = run.pair.n1
        for snap in run.snapshots:
            assert np.abs(snap.theta @ snap.theta.T - np.eye(r)).max() <= 1e-10
            assert snap.pi.min() >= -1e-8
            assert snap.pi.max() <= run.hp.delta + 1e-8
            assert abs(snap.pi.sum() - n1) <= 1e-8 * n1
            u, v = recover_u_v(snap.theta, snap.w, snap.phi, snap.varphi)
            anchor = snap.theta.T @ snap.w
            assert np.abs(u - (snap.phi - anchor)).max() <= 1e-10
            assert np.abs(v - (snap.varphi - anchor)).max() <= 1e-10
    report(5, "feasibility suite", time.perf_counter() - started, 120)


def test_criterion_6_matching_improvement(shared_runs):
    started = time.perf_counter()
    runs, _ = shared_runs
    checked = 0
    for run in runs:
        trace = run.trace
        for solved, uniform in zip(trace.pi_step_objective,
                                   trace.pi_step_objective_uniform):
            assert solved <= uniform + 1e-8
            checked += 1
    assert checked >= N_SHARED_RUNS
    report(6, "matching improvement", time.perf_counter() - started, 120)


def test_criterion_9_reparametrization_identity(shared_runs):
    started = time.perf_counter()
    runs, _ = shared_runs
    rng = np.random.default_rng(900)
    for run in runs:
        state = run.state
        xs = rng.standard_normal((1000, state.m))
        shared = xs @ (state.theta.T @ state.w)
        assert np.abs(shared + xs @ state.u - xs @ state.phi).max() <= 1e-10
        assert np.abs(shared + xs @ state.v - xs @ state.varphi).max() <= 1e-10
    report(9, "reparametrization identity", time.perf_counter() - started, 120)


# ---------------------------------------------------------------------------
# criterion 7: transfer benefit over the target-only baseline

def test_criterion_7_transfer_benefit(no_subspace):
    started = time.perf_counter()
    hp_full = Hyperparams(loss="logistic", max_outer_iters=30, tol=1e-4)
    # delta = 1 holds every source weight at one: no weighting; the
    # ablation also keeps the projection fixed, with no shared classifier
    hp_ablation = Hyperparams(loss="logistic", c3=0.0, delta=1.0, max_outer_iters=30,
                              tol=1e-4)
    gaps = []
    for seed in range(20):
        sx, sy, tx, ty = make_shifted_pair(seed, n1=200, n2=200, n3=20, m=5,
                                           shift=1.5, rot_deg=30.0)
        full = run_cv(sx, sy, tx, ty, hp_full, folds=10, seed=seed)
        with no_subspace():
            ablation = run_cv(sx, sy, tx, ty, hp_ablation, folds=10, seed=seed)
        gaps.append(full.mean_accuracy - ablation.mean_accuracy)
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - started
    assert mean_gap >= 0.0
    assert elapsed < 600.0
    print(f"[PASS] criterion 7 (transfer benefit): mean gap {mean_gap:+.4f}, "
          f"{elapsed:.0f}s of 600s budget")


# ---------------------------------------------------------------------------
# criterion 8: bit-level determinism

def test_criterion_8_determinism(tmp_path):
    started = time.perf_counter()
    sx, sy, tx, ty = make_shifted_pair(42, n1=60, n2=60, n3=12, m=4)
    pair = DatasetPair(sx, sy, tx, ty[:12])
    hp = Hyperparams(k=4, max_outer_iters=15)
    state1, trace1 = fit(pair, hp)
    state2, trace2 = fit(pair, hp)
    assert trace1 == trace2
    for name in ("theta", "w", "phi", "varphi", "u", "v", "pi"):
        assert np.array_equal(getattr(state1, name), getattr(state2, name))

    from subadapt.cli import main
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["synth", "--seed", "9", "--out-dir", str(out)]) == 0
    for name in ("source.csv", "target.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report(8, "determinism", time.perf_counter() - started, 120)
