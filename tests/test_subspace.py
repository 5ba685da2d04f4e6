import numpy as np
import pytest

from subadapt.data_model import DatasetPair, Hyperparams
from subadapt.subspace import (
    _canonical_rows,
    build_phi,
    projected_means,
    raw_mean_difference,
    update_theta,
    update_w,
)


def random_pair(rng, n1=6, n2=5, m=4):
    xs = rng.standard_normal((n1, m))
    xt = rng.standard_normal((n2, m))
    ys = np.where(rng.random(n1) < 0.5, 1, -1)
    yt = np.where(rng.random(2) < 0.5, 1, -1)
    return DatasetPair(xs, ys, xt, yt)


def random_orthonormal(rng, r, m):
    return np.linalg.qr(rng.standard_normal((m, r)))[0].T


def test_uniform_weights_reduce_to_plain_mean():
    rng = np.random.default_rng(0)
    pair = random_pair(rng)
    theta = random_orthonormal(rng, 2, 4)
    means = projected_means(theta, pair, np.ones(pair.n1))
    mu_s = (pair.source_x @ theta.T).mean(axis=0)
    assert means.mu_s_pi == pytest.approx(mu_s, abs=1e-12)


def test_single_point_mean():
    rng = np.random.default_rng(1)
    pair = random_pair(rng, n1=1, n2=3)
    theta = random_orthonormal(rng, 2, 4)
    means = projected_means(theta, pair, np.ones(1))
    assert means.mu_s_pi == pytest.approx(theta @ pair.source_x[0], abs=1e-12)


def test_mass_on_one_point():
    rng = np.random.default_rng(2)
    pair = random_pair(rng, n1=2, n2=3)
    theta = random_orthonormal(rng, 2, 4)
    means = projected_means(theta, pair, np.array([2.0, 0.0]))
    assert means.mu_s_pi == pytest.approx(theta @ pair.source_x[0], abs=1e-12)


def test_mean_identity_links_raw_gap():
    rng = np.random.default_rng(3)
    pair = random_pair(rng)
    theta = random_orthonormal(rng, 3, 4)
    pi = rng.uniform(0, 2, pair.n1)
    means = projected_means(theta, pair, pi)
    d_raw = raw_mean_difference(pair, pi)
    assert means.mu_s_pi == pytest.approx(theta @ d_raw + means.mu_t, abs=1e-10)


def test_build_phi_zero_classifiers():
    rng = np.random.default_rng(4)
    pair = random_pair(rng)
    hp = Hyperparams(c1=7.0, c3=5.0)
    phi_mat = build_phi(np.zeros(4), np.zeros(4), np.ones(pair.n1), pair, hp)
    d = raw_mean_difference(pair, np.ones(pair.n1))
    assert phi_mat == pytest.approx(2.5 * np.outer(d, d), abs=1e-12)
    assert np.linalg.matrix_rank(phi_mat, tol=1e-10) <= 1
    assert np.linalg.eigvalsh(phi_mat)[0] >= -1e-12


def test_build_phi_without_matching_term_is_nsd():
    rng = np.random.default_rng(5)
    pair = random_pair(rng)
    hp = Hyperparams(c1=3.0, c3=0.0)
    phi_mat = build_phi(rng.standard_normal(4), rng.standard_normal(4),
                        np.ones(pair.n1), pair, hp)
    assert np.linalg.eigvalsh(phi_mat)[-1] <= 1e-12
    assert np.linalg.matrix_rank(phi_mat, tol=1e-10) <= 1


def test_build_phi_matches_direct_formula():
    rng = np.random.default_rng(6)
    pair = random_pair(rng)
    hp = Hyperparams(c1=2.5, c3=4.0)
    phi_vec = rng.standard_normal(4)
    varphi_vec = rng.standard_normal(4)
    pi = rng.uniform(0, 2, pair.n1)
    phi_mat = build_phi(phi_vec, varphi_vec, pi, pair, hp)
    # direct elementwise evaluation
    s = phi_vec + varphi_vec
    d = np.zeros(4)
    for i in range(pair.n1):
        d += pair.source_x[i] * pi[i] / pair.n1
    for j in range(pair.n2):
        d -= pair.target_x[j] / pair.n2
    expected = np.empty((4, 4))
    for a in range(4):
        for b in range(4):
            expected[a, b] = -hp.c1 / 4.0 * s[a] * s[b] + hp.c3 / 2.0 * d[a] * d[b]
    assert np.abs(phi_mat - expected).max() <= 1e-12
    assert np.abs(phi_mat - phi_mat.T).max() <= 1e-12


def test_update_theta_diagonal_r1():
    theta = update_theta(np.diag([5.0, 1.0, 3.0]), 1)
    assert theta == pytest.approx(np.array([[0.0, 1.0, 0.0]]), abs=1e-12)


def test_update_theta_diagonal_r2():
    phi_mat = np.diag([5.0, 1.0, 3.0])
    theta = update_theta(phi_mat, 2)
    assert theta == pytest.approx(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), abs=1e-12)
    assert np.trace(theta @ phi_mat @ theta.T) == pytest.approx(4.0, abs=1e-12)


def test_update_theta_beats_random_orthonormal_sampling():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    phi_mat = 0.5 * (a + a.T)
    theta = update_theta(phi_mat, 2)
    achieved = np.trace(theta @ phi_mat @ theta.T)
    samples = rng.standard_normal((10000, 4, 2))
    q = np.linalg.qr(samples)[0]
    values = np.einsum("nij,ik,nkj->n", q, phi_mat, q)
    assert achieved <= values.min() + 1e-12


def test_update_theta_orthonormal_rows():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        theta = update_theta(0.5 * (a + a.T), 3)
        assert np.abs(theta @ theta.T - np.eye(3)).max() <= 1e-10


def test_update_theta_sign_convention():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    theta = update_theta(0.5 * (a + a.T), 2)
    for row in theta:
        nz = np.flatnonzero(np.abs(row) > 1e-12 * np.abs(row).max())
        assert row[nz[0]] > 0


def canonical_rows_loop(vals, vecs):
    """The per-row loop that ``_canonical_rows`` replaced, kept as its reference."""
    rows = vecs.T.copy()
    first_nonzero = np.empty(rows.shape[0], dtype=np.int64)
    for i, row in enumerate(rows):
        mags = np.abs(row)
        nz = np.flatnonzero(mags > 1e-12 * max(mags.max(), 1e-300))
        j = int(nz[0]) if nz.size else 0
        first_nonzero[i] = j
        if row[j] < 0:
            rows[i] = -row
    tie_tol = 1e-12 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    order = np.arange(rows.shape[0])
    start = 0
    while start < len(vals):
        stop = start + 1
        while stop < len(vals) and abs(vals[stop] - vals[start]) <= tie_tol:
            stop += 1
        if stop - start > 1:
            group = order[start:stop]
            order[start:stop] = group[np.argsort(first_nonzero[group], kind="stable")]
        start = stop
    return vals[order], rows[order]


def test_canonical_rows_match_per_row_loop_bytes():
    rng = np.random.default_rng(12)
    for trial in range(3000):
        m = int(rng.integers(1, 9))
        if trial % 3 == 0:  # a real spectrum with repeated eigenvalues
            q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            spectrum = rng.integers(-2, 3, m).astype(float)
            vals, vecs = np.linalg.eigh(q @ np.diag(spectrum) @ q.T)
        else:  # ties, exact zeros, zero rows, -0.0 and entries under the relative floor
            vals = np.sort(rng.integers(-3, 4, m) * rng.choice([1.0, 0.5, 1e-13]))
            vecs = rng.standard_normal((m, m))
            vecs[rng.random((m, m)) < 0.3] = 0.0
            vecs[rng.random((m, m)) < 0.1] = -0.0
            vecs[rng.random((m, m)) < 0.2] *= 1e-14
            if rng.random() < 0.2:
                vecs[:, rng.integers(m)] = 0.0
        expected, got = canonical_rows_loop(vals, vecs), _canonical_rows(vals, vecs)
        for want, have in zip(expected, got):
            assert want.shape == have.shape and want.dtype == have.dtype
            assert want.tobytes() == have.tobytes()


def test_update_theta_degenerate_keeps_previous():
    prev = np.array([[0.0, 1.0, 0.0]])
    theta = update_theta(np.zeros((3, 3)), 1, prev_theta=prev)
    assert np.array_equal(theta, prev)


def test_update_theta_degenerate_without_previous_is_identity_prefix():
    theta = update_theta(np.zeros((3, 3)), 2)
    assert theta == pytest.approx(np.eye(2, 3), abs=1e-12)


def test_update_theta_annihilates_matching_gap():
    # with no classifier pull and r = m-1 the optimal rows are orthogonal
    # to the raw mean gap
    rng = np.random.default_rng(10)
    pair = random_pair(rng, n1=8, n2=7, m=4)
    hp = Hyperparams(c1=0.0, c3=50.0)
    pi = rng.uniform(0.2, 1.8, pair.n1)
    pi *= pair.n1 / pi.sum()
    phi_mat = build_phi(rng.standard_normal(4), rng.standard_normal(4), pi, pair, hp)
    theta = update_theta(phi_mat, 3)
    means = projected_means(theta, pair, pi)
    gap = np.linalg.norm(means.mu_s_pi - means.mu_t)
    assert gap <= 1e-8 * np.linalg.norm(raw_mean_difference(pair, pi))


def test_update_w_equal_vectors():
    rng = np.random.default_rng(11)
    theta = random_orthonormal(rng, 2, 5)
    p = rng.standard_normal(5)
    assert update_w(theta, p, p) == pytest.approx(theta @ p, abs=1e-12)


def test_update_w_cancellation():
    rng = np.random.default_rng(12)
    theta = random_orthonormal(rng, 2, 5)
    p = rng.standard_normal(5)
    assert update_w(theta, p, -p) == pytest.approx(np.zeros(2), abs=1e-12)


def test_update_w_is_stationary_point():
    rng = np.random.default_rng(13)
    theta = random_orthonormal(rng, 3, 6)
    phi_vec = rng.standard_normal(6)
    varphi_vec = rng.standard_normal(6)
    w = update_w(theta, phi_vec, varphi_vec)

    def block(wv):
        return 0.5 * (np.sum((phi_vec - theta.T @ wv) ** 2)
                      + np.sum((varphi_vec - theta.T @ wv) ** 2))

    h = 1e-6
    for i in range(3):
        delta = np.zeros(3)
        delta[i] = h
        derivative = (block(w + delta) - block(w - delta)) / (2 * h)
        assert abs(derivative) <= 1e-6
