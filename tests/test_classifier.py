import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subadapt.classifier import (
    MAX_STEP_HALVINGS,
    ObjectiveContext,
    predict_source,
    predict_target,
    q_objective,
    q_subgradients,
    recover_u_v,
    update_phi_varphi,
)
from subadapt.cli import make_shifted_pair
from subadapt.data_model import LOSS_KINDS, DatasetPair, Hyperparams, NumericError, ValidationError
from subadapt.losses import loss_subgradient, loss_value
from subadapt.neighborhood import build_graph
from subadapt.trainer import fit


def make_instance(rng, n1=8, n2=7, n3=4, m=4, **hp_kwargs):
    xs = rng.standard_normal((n1, m))
    ys = np.where(rng.random(n1) < 0.5, 1, -1)
    xt = rng.standard_normal((n2, m))
    yt = np.where(rng.random(n3) < 0.5, 1, -1)
    pair = DatasetPair(xs, ys, xt, yt)
    hp_kwargs.setdefault("k", 2)
    hp = Hyperparams(**hp_kwargs).resolved(m)
    graph_t = build_graph(xt, hp.k)
    theta = np.linalg.qr(rng.standard_normal((m, hp.r)))[0].T
    w = rng.standard_normal(hp.r)
    pi = rng.uniform(0.2, 1.8, n1)
    pi *= n1 / pi.sum()
    return pair, hp, graph_t, theta, w, pi


def context(pair, graph_t, hp):
    return ObjectiveContext(pair, build_graph(pair.source_x, hp.k), graph_t, hp)


def q_reference(phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp):
    """Definitional term-by-term re-evaluation with explicit loops."""
    total = 0.0
    for i in range(pair.n1):
        total += loss_value(hp.loss, int(pair.source_y[i]),
                            float(pair.source_x[i] @ phi_vec)) * pi[i]
    for j in range(pair.n3):
        total += loss_value(hp.loss, int(pair.target_y[j]),
                            float(pair.target_x[j] @ varphi_vec))
    anchor = theta.T @ w
    total += hp.c1 / 2.0 * (np.sum((phi_vec - anchor) ** 2)
                            + np.sum((varphi_vec - anchor) ** 2))
    for j in range(pair.n2):
        score = float(pair.target_x[j] @ varphi_vec)
        recon = sum(graph_t.coeffs[j][a] * float(pair.target_x[graph_t.indices[j][a]] @ varphi_vec)
                    for a in range(graph_t.k))
        total += hp.c2 * (score - recon) ** 2
    return total


def test_q_objective_all_zero_hinge():
    rng = np.random.default_rng(0)
    pair, hp, graph_t, theta, _, _ = make_instance(rng, loss="hinge")
    value = q_objective(np.zeros(4), np.zeros(4), theta, np.zeros(theta.shape[0]),
                        np.ones(pair.n1), context(pair, graph_t, hp))
    assert value == pytest.approx(pair.n1 + pair.n3, abs=1e-12)


def test_q_objective_reduces_to_weighted_source_loss():
    rng = np.random.default_rng(1)
    pair, hp, graph_t, theta, w, pi = make_instance(
        rng, n3=0, c1=0.0, c2=0.0, loss="logistic")
    phi_vec = rng.standard_normal(4)
    value = q_objective(phi_vec, rng.standard_normal(4), theta, w, pi,
                        context(pair, graph_t, hp))
    expected = float(loss_value("logistic", pair.source_y,
                                pair.source_x @ phi_vec) @ pi)
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("loss", ["hinge", "logistic", "exponential"])
def test_q_objective_matches_reference(loss):
    rng = np.random.default_rng(2)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, c1=3.0, c2=0.7, loss=loss)
    phi_vec = rng.standard_normal(4)
    varphi_vec = rng.standard_normal(4)
    value = q_objective(phi_vec, varphi_vec, theta, w, pi, context(pair, graph_t, hp))
    reference = q_reference(phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp)
    assert abs(value - reference) <= 1e-10


def test_subgradient_zero_when_hinges_inactive():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((8, 4))
    phi_big = rng.standard_normal(4)
    scores = xs @ phi_big
    ys = np.where(scores >= 0, 1, -1)
    phi_big *= 1.5 / np.abs(scores).min()  # every source margin now exceeds 1
    xt = rng.standard_normal((5, 4))
    pair = DatasetPair(xs, ys, xt, np.array([], dtype=np.int64))
    hp = Hyperparams(c1=0.0, c2=0.0, k=2, r=2, loss="hinge")
    graph_t = build_graph(xt, 2)
    theta = np.eye(2, 4)
    pi = rng.uniform(0.5, 1.5, 8)
    g_phi, _ = q_subgradients(phi_big, np.zeros(4), theta, np.zeros(2), pi,
                              context(pair, graph_t, hp))
    assert np.abs(g_phi).max() == 0.0


def test_reconstruction_term_vanishes_for_exact_graph():
    # duplicate target points make every residual vector zero
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((6, 3))
    ys = np.where(rng.random(6) < 0.5, 1, -1)
    xt = np.tile(rng.standard_normal(3), (5, 1))
    pair = DatasetPair(xs, ys, xt, np.array([], dtype=np.int64))
    hp = Hyperparams(c1=0.0, c2=9.0, k=2, r=2)
    graph_t = build_graph(xt, 2)
    theta = np.eye(2, 3)
    varphi_vec = rng.standard_normal(3)
    _, g_varphi = q_subgradients(np.zeros(3), varphi_vec, theta, np.zeros(2),
                                 np.ones(6), context(pair, graph_t, hp))
    assert np.abs(g_varphi).max() <= 1e-9


@pytest.mark.parametrize("loss", ["logistic", "exponential"])
def test_subgradients_match_finite_differences(loss):
    rng = np.random.default_rng(5)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, c1=2.0, c2=0.5, loss=loss)
    phi_vec = 0.3 * rng.standard_normal(4)
    varphi_vec = 0.3 * rng.standard_normal(4)
    ctx = context(pair, graph_t, hp)
    g_phi, g_varphi = q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx)
    h = 1e-6
    for i in range(4):
        delta = np.zeros(4)
        delta[i] = h
        fd_phi = (q_objective(phi_vec + delta, varphi_vec, theta, w, pi, ctx)
                  - q_objective(phi_vec - delta, varphi_vec, theta, w, pi, ctx)) / (2 * h)
        fd_varphi = (q_objective(phi_vec, varphi_vec + delta, theta, w, pi, ctx)
                     - q_objective(phi_vec, varphi_vec - delta, theta, w, pi, ctx)) / (2 * h)
        assert abs(g_phi[i] - fd_phi) <= 1e-5 * max(1.0, abs(g_phi[i]))
        assert abs(g_varphi[i] - fd_varphi) <= 1e-5 * max(1.0, abs(g_varphi[i]))


def subgradients_reference(phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp):
    """The subgradients term by term on the checked public loss functions."""
    anchor = theta.T @ w
    resid = graph_t.residual_vectors(pair.target_x)
    g_src = loss_subgradient(hp.loss, pair.source_y, pair.source_x @ phi_vec)
    g_phi = pair.source_x.T @ (g_src * pi) + hp.c1 * (phi_vec - anchor)
    g_varphi = hp.c1 * (varphi_vec - anchor) + 2.0 * hp.c2 * (resid.T @ (resid @ varphi_vec))
    if pair.n3:
        xt_lab = pair.target_x[:pair.n3]
        g_varphi += xt_lab.T @ loss_subgradient(hp.loss, pair.target_y, xt_lab @ varphi_vec)
    return g_phi, g_varphi


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_stacked_context_matches_references(data):
    loss = data.draw(st.sampled_from(LOSS_KINDS))
    n3 = data.draw(st.integers(0, 7))
    c1 = data.draw(st.sampled_from([0.0, 0.3, 2.0]))
    c2 = data.draw(st.sampled_from([0.0, 0.5, 4.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pair, hp, graph_t, theta, w, pi = make_instance(rng, n3=n3, c1=c1, c2=c2, loss=loss)
    zeros = data.draw(st.lists(st.booleans(), min_size=pair.n1, max_size=pair.n1))
    pi[np.array(zeros)] = 0.0
    scale = data.draw(st.sampled_from([0.1, 1.0, 3.0]))
    phi_vec = scale * rng.standard_normal(4)
    varphi_vec = scale * rng.standard_normal(4)
    ctx = context(pair, graph_t, hp)

    value = q_objective(phi_vec, varphi_vec, theta, w, pi, ctx)
    reference = q_reference(phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp)
    assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))

    g_phi, g_varphi = q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx)
    for g, g_ref in zip((g_phi, g_varphi), subgradients_reference(
            phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp)):
        assert np.allclose(g, g_ref, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(g_ref).max()))
    if loss == "hinge":
        return
    h = 1e-6
    for i in range(8):
        delta = np.zeros(8)
        delta[i] = h
        up = q_objective(phi_vec + delta[:4], varphi_vec + delta[4:], theta, w, pi, ctx)
        down = q_objective(phi_vec - delta[:4], varphi_vec - delta[4:], theta, w, pi, ctx)
        g = g_phi[i] if i < 4 else g_varphi[i - 4]
        assert abs(g - (up - down) / (2 * h)) <= 1e-5 * max(1.0, abs(value), abs(g))


def test_update_fixed_point_returns_input():
    # zero gradients: separable quadratic minimum at phi = varphi = anchor
    rng = np.random.default_rng(6)
    xs = rng.standard_normal((5, 3))
    xt = rng.standard_normal((4, 3))
    pair = DatasetPair(xs, np.where(rng.random(5) < 0.5, 1, -1),
                       xt, np.array([], dtype=np.int64))
    hp = Hyperparams(c1=4.0, c2=0.0, c3=0.0, k=1, r=1, loss="hinge")
    graph_t = build_graph(xt, 1)
    theta = np.eye(1, 3)
    w = np.zeros(1)
    pi = np.zeros(5)  # kills the source loss term
    anchor = theta.T @ w
    phi_out, varphi_out, trace = update_phi_varphi(
        anchor.copy(), anchor.copy(), theta, w, pi, context(pair, graph_t, hp), hp)
    assert np.array_equal(phi_out, anchor)
    assert np.array_equal(varphi_out, anchor)
    assert trace.accepted_steps == 0 and trace.hit_step_floor


def test_single_tiny_step_decreases_q():
    rng = np.random.default_rng(7)
    pair, hp_base, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    hp = Hyperparams(c1=hp_base.c1, c2=hp_base.c2, k=hp_base.k, r=hp_base.r,
                     loss="logistic", step=1e-8, max_inner_iters=1)
    phi_vec = rng.standard_normal(4)
    varphi_vec = rng.standard_normal(4)
    ctx = context(pair, graph_t, hp)
    q0 = q_objective(phi_vec, varphi_vec, theta, w, pi, ctx)
    _, _, trace = update_phi_varphi(phi_vec, varphi_vec, theta, w, pi, ctx, hp)
    assert trace.accepted_steps == 1
    assert trace.q_values[-1] < q0


def test_descent_trace_monotone_and_gradient_shrinks():
    rng = np.random.default_rng(8)
    pair, _, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    hp = Hyperparams(c1=2.0, c2=0.5, k=2, r=theta.shape[0], loss="logistic",
                     step=1e-2, max_inner_iters=50)
    phi_vec = rng.standard_normal(4)
    varphi_vec = rng.standard_normal(4)
    ctx = context(pair, graph_t, hp)
    g0 = np.concatenate(q_subgradients(phi_vec, varphi_vec, theta, w, pi, ctx))
    phi_out, varphi_out, trace = update_phi_varphi(
        phi_vec, varphi_vec, theta, w, pi, ctx, hp)
    g1 = np.concatenate(q_subgradients(phi_out, varphi_out, theta, w, pi, ctx))
    assert np.linalg.norm(g1) <= np.linalg.norm(g0)
    assert all(b < a for a, b in zip(trace.q_values, trace.q_values[1:]))


def descent_reference(phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp):
    """The backtracked descent written on the checked public loss functions,
    scoring every point afresh for both the objective and the subgradient.
    Returns (phi, varphi, q_values, hit_step_floor, halvings)."""
    xt_lab = pair.target_x[:pair.n3]
    anchor = theta.T @ w
    resid = graph_t.residual_vectors(pair.target_x)
    gram = resid.T @ resid

    # same operation order as the classifier module, so the trajectories
    # agree to rounding even where a step decides on an ulp-sized decrease
    def q(p, v):
        total = float(loss_value(hp.loss, pair.source_y, pair.source_x @ p) @ pi)
        if pair.n3:
            total += float(loss_value(hp.loss, pair.target_y, xt_lab @ v).sum())
        du, dv = p - anchor, v - anchor
        total += 0.5 * hp.c1 * (du @ du + dv @ dv)
        return total + hp.c2 * float(v @ gram @ v)

    def grads(p, v):
        g_src = loss_subgradient(hp.loss, pair.source_y, pair.source_x @ p)
        g_p = pair.source_x.T @ (g_src * pi) + hp.c1 * (p - anchor)
        g_v = hp.c1 * (v - anchor) + 2.0 * hp.c2 * (gram @ v)
        if pair.n3:
            g_v = g_v + xt_lab.T @ loss_subgradient(hp.loss, pair.target_y, xt_lab @ v)
        return g_p, g_v

    q_values = [q(phi_vec, varphi_vec)]
    hit_floor = False
    halvings = 0
    for _ in range(hp.max_inner_iters):
        g_p, g_v = grads(phi_vec, varphi_vec)
        step = hp.step
        for _ in range(MAX_STEP_HALVINGS + 1):
            q_try = q(phi_vec - step * g_p, varphi_vec - step * g_v)
            if q_try < q_values[-1]:
                phi_vec, varphi_vec = phi_vec - step * g_p, varphi_vec - step * g_v
                q_values.append(q_try)
                break
            step *= 0.5
            halvings += 1
        else:
            hit_floor = True
            break
    return phi_vec, varphi_vec, q_values, hit_floor, halvings


@pytest.mark.parametrize("n3", [0, 4])
@pytest.mark.parametrize("loss", ["hinge", "logistic", "exponential"])
@pytest.mark.parametrize("step, max_inner, floored", [(1e-2, 50, False), (10.0, 200, True)])
def test_descent_matches_reference_loop(loss, n3, step, max_inner, floored):
    rng = np.random.default_rng(21)
    pair, hp, graph_t, theta, w, pi = make_instance(
        rng, n3=n3, c1=2.0, c2=0.5, loss=loss, step=step, max_inner_iters=max_inner)
    phi_vec = 0.5 * rng.standard_normal(4)
    varphi_vec = 0.5 * rng.standard_normal(4)
    phi_ref, varphi_ref, q_ref, floor_ref, halvings = descent_reference(
        phi_vec, varphi_vec, theta, w, pi, pair, graph_t, hp)
    phi_out, varphi_out, trace = update_phi_varphi(
        phi_vec, varphi_vec, theta, w, pi, context(pair, graph_t, hp), hp)
    assert trace.hit_step_floor == floor_ref == floored
    if floored:
        assert halvings > MAX_STEP_HALVINGS  # some proposals were halved before the floor
        # The stacked system sums the objective in another order, which moves
        # the ulp-sized tail of a run that descends to the step floor: one
        # run may take a few more accepted steps, each worth an ulp or so.
        short, long = sorted((trace.q_values, q_ref), key=len)
        common = len(short)
        assert np.allclose(trace.q_values[:common], q_ref[:common], rtol=1e-12, atol=0.0)
        assert trace.q_values[-1] == pytest.approx(q_ref[-1], rel=1e-12, abs=0.0)
        for before, after in zip(long[common - 1:], long[common:]):
            assert 0.0 < before - after < 1e-12 * abs(before)
        assert np.allclose(phi_out, phi_ref, rtol=1e-6, atol=1e-6)
        assert np.allclose(varphi_out, varphi_ref, rtol=1e-6, atol=1e-6)
        return
    assert trace.accepted_steps == len(q_ref) - 1
    assert trace.accepted_steps == max_inner
    assert trace.proposals == trace.accepted_steps + halvings
    assert np.allclose(trace.q_values, q_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(phi_out, phi_ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(varphi_out, varphi_ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n, loss", [(200, "logistic"), (800, "hinge")])
def test_descent_matches_reference_loop_at_bench_scale(n, loss):
    xs, ys, xt, yt = make_shifted_pair([2016, 0], n1=n, n2=n, n3=n // 10, m=20,
                                       shift=1.5, rot_deg=30)
    pair = DatasetPair(xs, ys, xt, yt[:n // 10])
    hp = Hyperparams(loss=loss).resolved(pair.m)
    rng = np.random.default_rng(5)
    theta = np.linalg.qr(rng.standard_normal((pair.m, hp.r)))[0].T
    w = 0.1 * rng.standard_normal(hp.r)
    pi = rng.uniform(0.5, 1.5, n)
    pi *= n / pi.sum()
    graph_t = build_graph(xt, hp.k)
    start = np.zeros(pair.m)
    phi_ref, varphi_ref, q_ref, floor_ref, halvings = descent_reference(
        start, start, theta, w, pi, pair, graph_t, hp)
    phi_out, varphi_out, trace = update_phi_varphi(
        start, start, theta, w, pi, context(pair, graph_t, hp), hp)
    assert not trace.hit_step_floor and not floor_ref
    assert trace.accepted_steps == len(q_ref) - 1 == hp.max_inner_iters
    assert trace.proposals == trace.accepted_steps + halvings
    assert np.allclose(trace.q_values, q_ref, rtol=1e-9, atol=0.0)
    assert np.allclose(phi_out, phi_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(varphi_out, varphi_ref, rtol=1e-9, atol=1e-12)


def test_bad_label_rejected_without_pair_validation():
    rng = np.random.default_rng(22)
    pair, hp, graph_t, _, _, _ = make_instance(rng)
    source_y = pair.source_y.copy()
    source_y[3] = 2
    target_y = pair.target_y.copy()
    target_y[-1] = 2
    # the labels are checked once per fit, when the objective context is built
    for bad in (DatasetPair(pair.source_x, source_y, pair.target_x, pair.target_y),
                DatasetPair(pair.source_x, pair.source_y, pair.target_x, target_y)):
        with pytest.raises(ValidationError, match=r"label outside \{\+1,-1\}"):
            context(bad, graph_t, hp)


def test_unknown_loss_rejected():
    rng = np.random.default_rng(23)
    pair, hp, graph_t, _, _, _ = make_instance(rng, loss="squared")
    with pytest.raises(ValidationError, match="unknown loss kind: 'squared'"):
        context(pair, graph_t, hp)


def test_non_finite_scores_rejected():
    rng = np.random.default_rng(24)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    ctx = context(pair, graph_t, hp)
    finite = np.zeros(4)
    for phi_vec, varphi_vec in (([np.inf, 0, 0, 0], finite), (finite, [0, np.nan, 0, 0])):
        for entry, extra in ((q_objective, ()), (q_subgradients, ()), (update_phi_varphi, (hp,))):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValidationError, match="non-finite classifier score"):
                entry(np.array(phi_vec, dtype=float), np.array(varphi_vec, dtype=float),
                      theta, w, pi, ctx, *extra)
    # a finite start whose first proposal overflows the scores
    huge = Hyperparams(k=hp.k, r=hp.r, loss="logistic", step=1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValidationError, match="non-finite classifier score"):
        update_phi_varphi(finite, finite, theta, w, pi, ctx, huge)


@pytest.mark.parametrize("change", [
    {"c1": 3.0}, {"c2": 0.0}, {"c3": 1.0}, {"loss": "hinge"}, {"r": 1}, {"k": 3},
    {"delta": 2.0}, {"max_outer_iters": 7}, {"tol": 1e-3}, {"seed": 5},
])
def test_update_rejects_hp_disagreeing_with_context(change):
    rng = np.random.default_rng(25)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    ctx = context(pair, graph_t, hp)
    with pytest.raises(ValidationError, match="differ from the objective context"):
        update_phi_varphi(np.zeros(4), np.zeros(4), theta, w, pi, ctx, replace(hp, **change))


def test_update_takes_its_descent_controls_from_hp():
    rng = np.random.default_rng(26)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    ctx = context(pair, graph_t, hp)
    start = 0.5 * rng.standard_normal(4)
    _, _, trace = update_phi_varphi(start, start, theta, w, pi, ctx,
                                    replace(hp, step=1e-4, max_inner_iters=3))
    assert trace.accepted_steps == 3
    _, _, base = update_phi_varphi(start, start, theta, w, pi, ctx, hp)
    assert base.accepted_steps == hp.max_inner_iters
    # block_cycle passes the context's own hp
    _, trace = fit(pair, replace(hp, max_outer_iters=2))
    assert trace.n_iters == 2


def test_recover_u_v_pure_shared_classifier():
    rng = np.random.default_rng(9)
    theta = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
    w = rng.standard_normal(2)
    u, v = recover_u_v(theta, w, theta.T @ w, rng.standard_normal(5))
    assert np.abs(u).max() <= 1e-15


def test_recover_u_v_zero_shared():
    rng = np.random.default_rng(10)
    theta = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
    phi_vec = rng.standard_normal(5)
    varphi_vec = rng.standard_normal(5)
    u, v = recover_u_v(theta, np.zeros(2), phi_vec, varphi_vec)
    assert np.array_equal(u, phi_vec)
    assert np.array_equal(v, varphi_vec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["theta", "w"])
def test_recover_u_v_rejects_non_finite_anchor(name, bad):
    rng = np.random.default_rng(12)
    args = {"theta": np.linalg.qr(rng.standard_normal((5, 2)))[0].T,
            "w": rng.standard_normal(2)}
    args[name].flat[1] = bad
    with pytest.raises(ValidationError, match="non-finite theta or w"):
        recover_u_v(args["theta"], args["w"], np.zeros(5), np.zeros(5))


def test_reparametrization_identity():
    rng = np.random.default_rng(11)
    theta = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    w = rng.standard_normal(3)
    phi_vec = rng.standard_normal(6)
    varphi_vec = rng.standard_normal(6)
    u, v = recover_u_v(theta, w, phi_vec, varphi_vec)
    for _ in range(100):
        x = rng.standard_normal(6)
        assert abs(w @ theta @ x + u @ x - phi_vec @ x) <= 1e-10
        assert abs(w @ theta @ x + v @ x - varphi_vec @ x) <= 1e-10


def test_predict_zero_classifier_tie_convention():
    score, label = predict_target(np.zeros(3), np.ones(3))
    assert score == 0.0 and label == 1


def test_predict_negative_score():
    score, label = predict_target(np.array([1.0, 0.0]), np.array([-3.0, 5.0]))
    assert score == -3.0 and label == -1


def test_predict_source_matches_target_form():
    rng = np.random.default_rng(12)
    vec = rng.standard_normal(4)
    x = rng.standard_normal((7, 4))
    s1, l1 = predict_source(vec, x)
    s2, l2 = predict_target(vec, x)
    assert np.array_equal(s1, s2) and np.array_equal(l1, l2)


@pytest.mark.parametrize("predict", [predict_source, predict_target])
@pytest.mark.parametrize("vector, x", [
    (np.ones(3), np.array([[np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]])),
    (np.ones(3), np.array([np.inf, -np.inf, 0.0])),
    (np.array([np.inf, 0.0, 0.0]), np.ones((2, 3))),
    (np.array([1.0, np.nan, 0.0]), np.ones(3)),
])
def test_predict_rejects_non_finite_values(predict, vector, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            predict(vector, x)


def test_positive_scaling_preserves_labels():
    rng = np.random.default_rng(13)
    vec = rng.standard_normal(4)
    x = rng.standard_normal((50, 4))
    _, labels = predict_target(vec, x)
    _, scaled = predict_target(7.5 * vec, x)
    assert np.array_equal(labels, scaled)


@pytest.mark.parametrize("entry", ["objective", "subgradients", "update"])
def test_one_dimensional_theta_rejected(entry):
    rng = np.random.default_rng(27)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, loss="logistic")
    ctx = context(pair, graph_t, hp)
    call = {"objective": q_objective, "subgradients": q_subgradients,
            "update": lambda *args: update_phi_varphi(*args, hp)}[entry]
    with pytest.raises(ValidationError, match="theta must be a 2-d matrix"):
        call(np.zeros(4), np.zeros(4), theta[0], w[:1], pi, ctx)
    with pytest.raises(ValidationError, match="theta must be a 2-d matrix"):
        recover_u_v(theta[0], w[:1], np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["pi", "theta", "w", "phi", "varphi"])
def test_non_finite_block_arguments_rejected(name, bad):
    # n3 = 0 and c1 = 0: a NaN varphi then reaches neither a score nor the
    # anchor pull, and a NaN theta or w only the anchor term
    rng = np.random.default_rng(28)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, n3=0, c1=0.0, loss="hinge")
    ctx = context(pair, graph_t, hp)
    args = {"phi": np.zeros(4), "varphi": np.zeros(4), "theta": theta.copy(),
            "w": w.copy(), "pi": pi.copy()}
    args[name].flat[1] = bad
    ordered = [args[key] for key in ("phi", "varphi", "theta", "w", "pi")]
    for entry, extra in ((q_objective, ()), (q_subgradients, ()), (update_phi_varphi, (hp,))):
        with pytest.raises(ValidationError, match="non-finite"):
            entry(*ordered, ctx, *extra)


def test_exponential_overflow_reaches_numeric_error():
    # finite scores whose exponential loss overflows: the slope read off the
    # loss is infinite, so the subgradient is too
    rng = np.random.default_rng(29)
    pair, hp, graph_t, theta, w, pi = make_instance(rng, loss="exponential")
    ctx = context(pair, graph_t, hp)
    row = pair.source_x[0]
    phi_vec = -800.0 * pair.source_y[0] * row / (row @ row)  # margin -800 on row 0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="non-finite subgradient"):
        update_phi_varphi(phi_vec, np.zeros(4), theta, w, pi, ctx, hp)
