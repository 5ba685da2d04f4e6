import numpy as np
import pytest

from subadapt.classifier import MAX_STEP_HALVINGS, ObjectiveContext, predict_target, recover_u_v
from subadapt.cli import make_shifted_pair
from subadapt.data_model import DatasetPair, Hyperparams, ValidationError, check_model_state
from subadapt.losses import loss_value
from subadapt.neighborhood import NeighborGraph, build_graph
from subadapt.subspace import projected_means
from subadapt import trainer
from subadapt.trainer import ObjectiveTerms, block_cycle, fit, full_objective
from subadapt.weights import build_weight_problem


def separable_identical_pair(rng, n=20, m=3, margin=1.5):
    x = rng.standard_normal((n, m))
    y = np.where(x[:, 0] >= 0, 1, -1)
    x[:, 0] += y * margin
    return DatasetPair(x, y, x.copy(), y.copy())


def synthetic_pair(seed, **kwargs):
    params = dict(n1=40, n2=40, n3=10, m=4, shift=1.0, rot_deg=25.0)
    params.update(kwargs)
    sx, sy, tx, ty = make_shifted_pair(seed, **params)
    return DatasetPair(sx, sy, tx, ty[:params["n3"]])


def objective_reference(theta, w, phi_vec, varphi_vec, pi, pair, graph_s,
                        graph_t, hp):
    """Explicit five-term evaluation with loops, independent of the trainer.
    Returns the terms in ObjectiveTerms order."""
    source = 0.0
    for i in range(pair.n1):
        source += loss_value(hp.loss, int(pair.source_y[i]),
                             float(pair.source_x[i] @ phi_vec)) * pi[i]
    target = 0.0
    for j in range(pair.n3):
        target += loss_value(hp.loss, int(pair.target_y[j]),
                             float(pair.target_x[j] @ varphi_vec))
    anchor = theta.T @ w
    u = phi_vec - anchor
    v = varphi_vec - anchor
    adaptation = hp.c1 / 2.0 * (float(u @ u) + float(v @ v))
    reconstruction = 0.0
    for i in range(pair.n1):
        recon = sum(graph_s.coeffs[i][a] * pi[graph_s.indices[i][a]]
                    for a in range(graph_s.k))
        reconstruction += hp.c2 * (pi[i] - recon) ** 2
    for j in range(pair.n2):
        score = float(pair.target_x[j] @ varphi_vec)
        recon = sum(graph_t.coeffs[j][a] * float(pair.target_x[graph_t.indices[j][a]] @ varphi_vec)
                    for a in range(graph_t.k))
        reconstruction += hp.c2 * (score - recon) ** 2
    mu_s_pi = np.zeros(theta.shape[0])
    for i in range(pair.n1):
        mu_s_pi += theta @ pair.source_x[i] * pi[i] / pair.n1
    mu_t = np.zeros(theta.shape[0])
    for j in range(pair.n2):
        mu_t += theta @ pair.target_x[j] / pair.n2
    gap = mu_s_pi - mu_t
    return source, target, adaptation, reconstruction, hp.c3 / 2.0 * float(gap @ gap)


def flattened_objective_trace(trace):
    seq = []
    for triple in zip(trace.objective_after_subspace,
                      trace.objective_after_classifier,
                      trace.objective_after_weights):
        seq.extend(triple)
    return np.asarray(seq)


def test_full_objective_zero_parameters():
    rng = np.random.default_rng(0)
    pair = synthetic_pair(1, n1=12, n2=10, n3=4)
    hp = Hyperparams(k=2, r=2, loss="hinge")
    graph_s = build_graph(pair.source_x, 2)
    graph_t = build_graph(pair.target_x, 2)
    theta = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    pi = np.ones(pair.n1)
    value = full_objective(theta, np.zeros(2), np.zeros(4), np.zeros(4), pi,
                           ObjectiveContext(pair, graph_s, graph_t, hp)).total
    means = projected_means(theta, pair, pi)
    gap = means.mu_s_pi - means.mu_t
    expected = pair.n1 + pair.n3 + hp.c3 / 2.0 * float(gap @ gap)
    assert value == pytest.approx(expected, abs=1e-10)


def test_full_objective_losses_only():
    rng = np.random.default_rng(1)
    pair = synthetic_pair(2, n1=10, n2=9, n3=3)
    hp = Hyperparams(c1=0.0, c2=0.0, c3=0.0, k=2, r=2, loss="logistic")
    graph_s = build_graph(pair.source_x, 2)
    graph_t = build_graph(pair.target_x, 2)
    theta = np.eye(2, 4)
    phi_vec = rng.standard_normal(4)
    varphi_vec = rng.standard_normal(4)
    value = full_objective(theta, np.zeros(2), phi_vec, varphi_vec, np.ones(pair.n1),
                           ObjectiveContext(pair, graph_s, graph_t, hp)).total
    expected = float(loss_value("logistic", pair.source_y,
                                pair.source_x @ phi_vec).sum())
    expected += float(loss_value("logistic", pair.target_y,
                                 pair.target_x[:3] @ varphi_vec).sum())
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name, message", [
    ("theta", "non-finite theta or w"), ("w", "non-finite theta or w"),
    ("pi", "non-finite pi"),
])
def test_full_objective_rejects_non_finite_values(name, message, bad):
    rng = np.random.default_rng(3)
    pair = synthetic_pair(4, n1=9, n2=8, n3=4)
    hp = Hyperparams(k=2, r=2)
    ctx = ObjectiveContext(pair, build_graph(pair.source_x, 2),
                           build_graph(pair.target_x, 2), hp)
    args = {"theta": np.linalg.qr(rng.standard_normal((4, 2)))[0].T,
            "w": rng.standard_normal(2), "pi": np.ones(pair.n1)}
    args[name].flat[1] = bad
    with pytest.raises(ValidationError, match=message):
        full_objective(args["theta"], args["w"], np.zeros(4), np.zeros(4), args["pi"], ctx)


@pytest.mark.parametrize("loss", ["hinge", "logistic", "exponential"])
def test_full_objective_matches_reference(loss):
    rng = np.random.default_rng(2)
    pair = synthetic_pair(3, n1=9, n2=8, n3=4)
    hp = Hyperparams(c1=2.0, c2=0.7, c3=5.0, k=2, r=2, loss=loss)
    graph_s = build_graph(pair.source_x, 2)
    graph_t = build_graph(pair.target_x, 2)
    theta = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    w = rng.standard_normal(2)
    phi_vec = 0.4 * rng.standard_normal(4)
    varphi_vec = 0.4 * rng.standard_normal(4)
    pi = rng.uniform(0.3, 1.7, pair.n1)
    pi *= pair.n1 / pi.sum()
    terms = full_objective(theta, w, phi_vec, varphi_vec, pi,
                           ObjectiveContext(pair, graph_s, graph_t, hp))
    reference = objective_reference(theta, w, phi_vec, varphi_vec, pi, pair,
                                    graph_s, graph_t, hp)
    value = terms.total
    assert abs(value - sum(reference)) <= 1e-10
    for term, expected in zip(terms, reference):
        assert abs(term - expected) <= 1e-10
    # total adds the named terms left to right, bit for bit
    running = 0.0
    for term in terms:
        running += term
    assert value == running
    assert terms._fields == ("source_loss", "target_loss", "adaptation",
                             "reconstruction", "matching")


def test_fit_separable_identical_domains_reaches_full_accuracy():
    rng = np.random.default_rng(4)
    pair = separable_identical_pair(rng)
    state, trace = fit(pair, Hyperparams())
    _, labels = predict_target(state.varphi, pair.target_x)
    assert np.array_equal(labels, pair.target_y)
    check_model_state(state, Hyperparams().delta)


def test_fit_decoupled_losses_decrease():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 3))
    y = np.where(x[:, 1] >= 0, 1, -1)
    pair = DatasetPair(x, y, x.copy(), y.copy())
    hp = Hyperparams(c1=0.0, c2=0.0, c3=0.0, k=3, r=2, loss="logistic")
    state, _ = fit(pair, hp)
    initial = float(loss_value("logistic", y, x @ np.zeros(3)).sum())
    final = float(loss_value("logistic", y, x @ state.phi).sum())
    assert final <= initial


def test_fit_trace_monotone_on_synthetic_pair(recorded_cycles):
    pair = synthetic_pair(7)
    hp = Hyperparams(k=3, max_outer_iters=30)
    with recorded_cycles() as snapshots:
        state, trace = fit(pair, hp)
    seq = flattened_objective_trace(trace)
    assert np.all(np.diff(seq) <= 1e-6)
    assert len(snapshots) == trace.n_iters
    for snap in snapshots:
        assert np.abs(snap.theta @ snap.theta.T - np.eye(hp.resolved(4).r)).max() <= 1e-10
        assert snap.pi.min() >= -1e-8
        assert snap.pi.max() <= hp.delta + 1e-8
        assert abs(snap.pi.sum() - pair.n1) <= 1e-8 * pair.n1
        u, v = recover_u_v(snap.theta, snap.w, snap.phi, snap.varphi)
        anchor = snap.theta.T @ snap.w
        assert np.abs(u - (snap.phi - anchor)).max() <= 1e-10
        assert np.abs(v - (snap.varphi - anchor)).max() <= 1e-10


def test_fit_deterministic():
    pair = synthetic_pair(11)
    hp = Hyperparams(k=3, max_outer_iters=12)
    state1, trace1 = fit(pair, hp)
    state2, trace2 = fit(pair, hp)
    assert trace1 == trace2
    assert np.array_equal(state1.theta, state2.theta)
    assert np.array_equal(state1.pi, state2.pi)
    assert np.array_equal(state1.varphi, state2.varphi)


def test_fit_blockwise_monotonicity_tolerances():
    pair = synthetic_pair(13)
    hp = Hyperparams(k=3, max_outer_iters=15)
    _, trace = fit(pair, hp)
    # exact blocks never increase beyond rounding; the descent block is
    # backtracked and monotone by construction
    for t in range(trace.n_iters):
        if t > 0:
            assert trace.objective_after_subspace[t] <= \
                trace.objective_after_weights[t - 1] + 1e-9
        assert trace.objective_after_classifier[t] <= \
            trace.objective_after_subspace[t] + 1e-6
        assert trace.objective_after_weights[t] <= \
            trace.objective_after_classifier[t] + 1e-9


def test_fit_converged_state_is_fixed_point():
    pair = synthetic_pair(17)
    hp = Hyperparams(k=3, tol=1e-7, max_outer_iters=200)
    state, trace = fit(pair, hp)
    # the objective test stops the fit while its last hinge block stalls
    assert trace.stop_reason == "stalled"
    ctx = ObjectiveContext(pair, build_graph(pair.source_x, hp.k),
                           build_graph(pair.target_x, hp.k), hp.resolved(pair.m))
    before = full_objective(state.theta, state.w, state.phi, state.varphi,
                            state.pi, ctx).total
    params, terms, _, _ = block_cycle(state.theta, state.w, state.phi, state.varphi,
                                      state.pi, ctx)
    after = full_objective(*params, ctx).total
    assert after == terms[-1].total
    assert abs(after - before) <= hp.tol * max(1.0, abs(before))


def test_fit_stop_reason_max_iters():
    pair = synthetic_pair(19)
    hp = Hyperparams(k=3, max_outer_iters=3, tol=1e-300)
    _, trace = fit(pair, hp)
    assert trace.stop_reason == "max_iters"
    assert trace.n_iters == 3


def test_fit_records_weight_step_objectives():
    pair = synthetic_pair(23)
    hp = Hyperparams(k=3, max_outer_iters=10)
    _, trace = fit(pair, hp)
    for solved, uniform in zip(trace.pi_step_objective,
                               trace.pi_step_objective_uniform):
        assert solved <= uniform + 1e-8


def test_weight_step_objectives_are_the_qp_values(recorded_cycles):
    # the trace's pair is the weight QP's value 0.5 pi'H pi + c'pi at the
    # cycle's solved pi and at pi = 1, on the cycle's theta and phi
    pair = synthetic_pair(23)
    hp = Hyperparams(k=3, max_outer_iters=6, tol=1e-12)
    with recorded_cycles() as snapshots:
        _, trace = fit(pair, hp)
    resolved = hp.resolved(pair.m)
    ctx = ObjectiveContext(pair, build_graph(pair.source_x, resolved.k),
                           build_graph(pair.target_x, resolved.k), resolved)
    assert len(snapshots) == trace.n_iters == 6
    for t, snap in enumerate(snapshots):
        problem = build_weight_problem(snap.phi, snap.theta, ctx)
        assert problem.objective(snap.pi) == trace.pi_step_objective[t]
        assert problem.objective(np.ones(pair.n1)) == trace.pi_step_objective_uniform[t]


def test_fit_ablation_flags(no_subspace):
    # delta = 1 leaves the weight box the single point pi = 1: no weighting
    pair = synthetic_pair(29)
    hp = Hyperparams(c3=0.0, k=3, max_outer_iters=10, loss="logistic", delta=1.0)
    with no_subspace():
        state, trace = fit(pair, hp)
    assert np.array_equal(state.theta, np.eye(state.r, pair.m))
    assert np.array_equal(state.w, np.zeros(state.r))
    assert np.array_equal(state.pi, np.ones(pair.n1))
    assert np.array_equal(state.u, state.phi)
    assert np.array_equal(state.v, state.varphi)
    assert trace.pi_step_objective == trace.pi_step_objective_uniform
    seq = flattened_objective_trace(trace)
    assert np.all(np.diff(seq) <= 1e-6)


@pytest.mark.filterwarnings("error")
def test_fit_with_huge_delta_keeps_pi_feasible():
    # the weight QP's lower-bound test is not scaled by delta: at
    # delta >= 2e11 it once marked every pi_i near 1 as sitting at 0.
    # pi >= 0 and sum(pi) = n1 keep every pi_i <= n1, so the solver caps
    # the upper bound at n1: at delta = 1e308 its sums once overflowed
    sx, sy, tx, ty = make_shifted_pair(3, n1=40, n2=40, n3=10, m=4)
    pair = DatasetPair(sx, sy, tx, ty[:10])
    at_n1 = fit(pair, Hyperparams(k=3, max_outer_iters=5, delta=40.0))
    for delta in (3e11, 1e12, 1e300, 1e308):
        state, trace = fit(pair, Hyperparams(k=3, max_outer_iters=5, delta=delta))
        check_model_state(state, delta)
        assert abs(state.pi.sum() - 40.0) <= 1e-8 * 40.0
        assert trace == at_n1[1]
        for name in ("theta", "w", "phi", "varphi", "pi"):
            assert getattr(state, name).tobytes() == getattr(at_n1[0], name).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c2", [1e200, 1e300, 1e307])
def test_fit_with_huge_c2_warns_nothing(c2):
    # at c2 = 1e200 and 1e300 the KKT basis's condition number and the
    # free-set residual scale overflow and saturate: a refused basis or a
    # threshold that admits any residual. At 1e307 the classifier block's
    # reconstruction term overflows, which is reported as c2's fault.
    sx, sy, tx, ty = make_shifted_pair(3, n1=40, n2=40, n3=10, m=4)
    pair = DatasetPair(sx, sy, tx, ty[:10])
    hp = Hyperparams(c2=c2, max_outer_iters=5)
    if c2 > 1e306:
        with pytest.raises(ValidationError, match="c2 = 1e.307 overflows"):
            fit(pair, hp)
        return
    state, trace = fit(pair, hp)
    check_model_state(state, hp.delta)
    assert np.isfinite(trace.objective_after_weights).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("change", [
    {"c3": 1e200}, {"c3": 1e300}, {"c3": 1e308},
    {"loss": "hinge", "step": 1e200}, {"loss": "hinge", "step": 1e300},
    {"loss": "hinge", "step": 1e308},
])
def test_fit_with_huge_c3_or_step_warns_nothing(change):
    # a huge c3 overflows the weight QP's Schur candidates and their
    # residuals, a huge descent step the scores or the objective of its
    # proposal: each such candidate fails its check like any other, and the
    # fit trains
    sx, sy, tx, ty = make_shifted_pair(3, n1=40, n2=40, n3=10, m=4)
    pair = DatasetPair(sx, sy, tx, ty[:10])
    hp = Hyperparams(k=3, max_outer_iters=5, **change)
    state, _ = fit(pair, hp)
    check_model_state(state, hp.delta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [1e200, 1e300])
def test_hinge_fit_at_zero_c1_with_a_huge_step_trains(step):
    # c1 = 0 leaves q blind to the size of phi, and on a separable source
    # the hinge block pushes phi and varphi towards points where the
    # adaptation term u'u and the projection step's s s' overflow; the
    # block must reject those points, so that each fit trains with no
    # warning rather than failing with "non-finite phi matrix"
    for seed in (4, 5, 6, 9, 10, 11, 12, 13, 17, 21, 22, 23):
        rng = np.random.default_rng(seed)
        sx = np.array([3.0, 0.0, 0.0, 0.0]) + 0.1 * rng.standard_normal((8, 4))
        tx = rng.standard_normal((7, 4))
        pair = DatasetPair(sx, np.ones(8, dtype=np.int64), tx, np.array([1, -1, 1]))
        hp = Hyperparams(loss="hinge", c1=0.0, c2=0.0, k=2, r=2, step=step)
        state, trace = fit(pair, hp)
        check_model_state(state, hp.delta)
        assert np.isfinite(trace.objective_after_weights).all()


@pytest.mark.parametrize("seed, n, loss, reason", [
    ([2016, 0], 800, "hinge", "stalled"),
    ([1, 1], 400, "hinge", "stalled"),
    ([3, 0], 200, "logistic", "converged"),
])
def test_stop_reason_tells_a_stalled_block_from_convergence(seed, n, loss, reason):
    # both hinge fits pass the objective test while their last classifier
    # blocks accept no step and stop at the step floor; the logistic fit's
    # last Newton blocks each accept two steps
    sx, sy, tx, ty = make_shifted_pair(seed, n1=n, n2=n, n3=n // 10, m=20,
                                       shift=1.5, rot_deg=30)
    hp = Hyperparams(loss=loss)
    _, trace = fit(DatasetPair(sx, sy, tx, ty[:n // 10]), hp)
    assert trace.stop_reason == reason
    assert trace.n_iters < hp.max_outer_iters
    last_block_stalled = trace.inner_steps[-1] == 0 and trace.inner_hit_step_floor[-1]
    assert last_block_stalled == (reason == "stalled")


@pytest.mark.parametrize("seed", [[2016, 0], [1, 1]])
@pytest.mark.parametrize("loss", ["hinge", "logistic"])
def test_label_flip_negates_the_classifiers_bit_for_bit(loss, seed):
    # every loss reads only y * f and the projection step reads s s', so
    # y -> -y maps (theta, w, phi, varphi, pi) to (theta, -w, -phi, -varphi,
    # pi) in exact arithmetic, and rounding is sign-symmetric too
    sx, sy, tx, ty = make_shifted_pair(seed, n1=200, n2=200, n3=20, m=20,
                                       shift=1.5, rot_deg=30)
    hp = Hyperparams(loss=loss, tol=1e-12, max_outer_iters=10)
    state, trace = fit(DatasetPair(sx, sy, tx, ty[:20]), hp)
    flipped, flipped_trace = fit(DatasetPair(sx, -sy, tx, -ty[:20]), hp)
    assert flipped.theta.tobytes() == state.theta.tobytes()
    assert flipped.pi.tobytes() == state.pi.tobytes()
    for name in ("w", "phi", "varphi", "u", "v"):
        assert np.array_equal(getattr(flipped, name), -getattr(state, name))
    assert flipped_trace == trace


def test_block_cycle_carries_unchanged_pieces_bit_for_bit(monkeypatch, recorded_cycles):
    # the terms after the classifier block reuse the pi reconstruction and
    # the matching term, those after the weight block the target loss,
    # the adaptation and the target reconstruction: each total keeps the
    # bits of a fresh evaluation, and projected_means runs twice per cycle
    pair = synthetic_pair(43)
    hp = Hyperparams(k=3, max_outer_iters=6, tol=1e-12)
    calls = []
    means = trainer.projected_means
    monkeypatch.setattr(trainer, "projected_means",
                        lambda *args: calls.append(1) or means(*args))
    with recorded_cycles() as cycles:
        _, trace = fit(pair, hp)
    assert len(calls) == 2 * trace.n_iters
    resolved = hp.resolved(pair.m)
    ctx = ObjectiveContext(pair, build_graph(pair.source_x, resolved.k),
                           build_graph(pair.target_x, resolved.k), resolved)
    pi = np.ones(pair.n1)
    for t, cycle in enumerate(cycles):
        after_classifier = full_objective(*cycle[:4], pi, ctx)
        after_weights = full_objective(*cycle, ctx)
        assert trace.terms_after_classifier[t] == after_classifier._asdict()
        assert trace.terms_after_weights[t] == after_weights._asdict()
        assert trace.objective_after_classifier[t] == after_classifier.total
        assert trace.objective_after_weights[t] == after_weights.total
        pi = cycle.pi


def test_fit_validates_inputs():
    pair = synthetic_pair(31)
    from subadapt.data_model import ValidationError
    with pytest.raises(ValidationError, match="delta"):
        fit(pair, Hyperparams(delta=0.2, k=3))


def test_trace_records_each_descent_run(monkeypatch):
    runs = []
    descend = trainer.update_phi_varphi

    def recording(*args, **kwargs):
        out = descend(*args, **kwargs)
        runs.append(out[2])
        return out

    monkeypatch.setattr(trainer, "update_phi_varphi", recording)
    # a large step makes some descent runs stop at the step floor
    _, trace = fit(synthetic_pair([3, 0]),
                   Hyperparams(k=3, step=10.0, max_outer_iters=6, tol=1e-12))
    assert trace.inner_steps == [run.accepted_steps for run in runs]
    assert trace.inner_proposals == [run.proposals for run in runs]
    # a floored run scores its MAX_STEP_HALVINGS + 1 failed proposals too
    assert all(run.proposals >= run.accepted_steps + MAX_STEP_HALVINGS + 1
               for run in runs if run.hit_step_floor)
    assert trace.inner_hit_step_floor == [run.hit_step_floor for run in runs]
    assert set(trace.inner_hit_step_floor) == {True, False}
    assert trace.inner_capped == [run.capped for run in runs]


def test_block_terms_feed_the_trace(monkeypatch, recorded_cycles):
    # every trace entry is read off the terms block_cycle returns: the
    # objectives are their totals and the matching term is the one after
    # the weights block, equal bit for bit to a fresh projected_means pass
    pair = synthetic_pair(37)
    hp = Hyperparams(k=3, max_outer_iters=6, tol=1e-12)
    seen = []
    evaluate = trainer.full_objective

    def recording(*args):
        terms = evaluate(*args)
        seen.append(terms)
        return terms

    monkeypatch.setattr(trainer, "full_objective", recording)
    with recorded_cycles() as snapshots:
        _, trace = fit(pair, hp)
    assert len(seen) == 3 * trace.n_iters
    assert all(isinstance(terms, ObjectiveTerms) for terms in seen)
    assert trace.objective_after_subspace == [t.total for t in seen[0::3]]
    assert trace.objective_after_classifier == [t.total for t in seen[1::3]]
    assert trace.objective_after_weights == [t.total for t in seen[2::3]]
    assert [t["matching"] for t in trace.terms_after_weights] == \
        [t.matching for t in seen[2::3]]
    for snap, terms in zip(snapshots, trace.terms_after_weights):
        matching = terms["matching"]
        means = projected_means(snap.theta, pair, snap.pi)
        gap = means.mu_s_pi - means.mu_t
        assert matching == 0.5 * hp.c3 * float(gap @ gap)


def test_target_residual_computed_once_per_fit(monkeypatch):
    pair = synthetic_pair(41)
    calls = []
    residual_vectors = NeighborGraph.residual_vectors

    def counting(self, points):
        if points is pair.target_x:
            calls.append(points)
        return residual_vectors(self, points)

    monkeypatch.setattr(NeighborGraph, "residual_vectors", counting)
    _, trace = fit(pair, Hyperparams(k=3, max_outer_iters=5, tol=1e-12))
    assert trace.n_iters == 5
    assert len(calls) == 1
