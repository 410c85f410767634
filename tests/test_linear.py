"""Online ridge state: inverse maintenance, widths, determinants, the ball."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import _cstep, linear
from banditlab.linear import DRIFT_CHECK_EVERY, RidgeState, widths_sq
from banditlab.policies import _Ridges
from conftest import PASS_IDS, PASS_STEPS, compiled_step
from oracles import ConfidenceBall, det_sigma, solve_batch, width_sq


def _random_updates(state, rng, T, with_inflation=False):
    """Feed T random observations; returns (contexts, residuals, inflations)."""
    xs, ys, es = [], [], []
    for _ in range(T):
        x = rng.standard_normal(state.dim)
        y = float(rng.standard_normal())
        e = float(rng.uniform(0.0, 2.0)) if with_inflation else 0.0
        state.update(x, y, e)
        xs.append(x)
        ys.append(y)
        es.append(e)
    return np.array(xs), np.array(ys), np.array(es)


class TestRidgeState:
    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeState(0, 1.0)
        with pytest.raises(ValueError):
            RidgeState(2, 0.0)
        with pytest.raises(ValueError):
            RidgeState(2, 1.0, gamma_cov=-0.1)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            RidgeState(2, float("inf"))
        with pytest.raises(ValueError, match="lam must be a number"):
            RidgeState(2, "abc")
        with pytest.raises(ValueError, match="gamma_cov must be a number"):
            RidgeState(2, 1.0, gamma_cov="abc")
        s = RidgeState(2, 1.0)
        with pytest.raises(ValueError):
            s.update(np.ones(2), float("nan"))
        with pytest.raises(ValueError):
            s.update(np.ones(2), 0.0, e_knn=-1.0)

    def test_fresh_state_geometry(self):
        s = RidgeState(3, 2.0)
        assert s.predict(np.ones(3)) == 0.0
        assert width_sq(s, np.ones(3)) == pytest.approx(3.0 / 2.0)
        assert det_sigma(s) == pytest.approx(8.0)

    def test_sherman_morrison_matches_direct_inverse(self):
        rng = np.random.default_rng(0)
        s = RidgeState(4, 0.7)
        for _ in range(200):
            s.update(rng.standard_normal(4), float(rng.standard_normal()))
            direct = np.linalg.inv(s.sigma)
            assert np.abs(s.sigma_inv - direct).max() < 1e-8

    def test_scheduled_drift_check_rebuilds_inverse(self):
        rng = np.random.default_rng(6)
        s = RidgeState(3, 1.0)
        _random_updates(s, rng, 5)
        s._inv += 1e-3  # corrupt the maintained inverse
        _random_updates(s, rng, DRIFT_CHECK_EVERY - 5 - 1)
        assert np.abs(s.sigma @ s.sigma_inv - np.eye(3)).max() > 1e-6
        _random_updates(s, rng, 1)
        assert np.abs(s.sigma @ s.sigma_inv - np.eye(3)).max() < 1e-12

    def test_estimate_matches_batch_solve_with_inflation(self):
        # The inflation enters sigma only; b still accumulates residual * x,
        # so the closed form is (X'X + lam I + sum(gamma e) I)^{-1} X'y.
        rng = np.random.default_rng(1)
        s = RidgeState(3, 1.3, gamma_cov=0.2)
        X, y, es = _random_updates(s, rng, 150, with_inflation=True)
        ridge_total = 1.3 + 0.2 * es.sum()
        direct = np.linalg.solve(X.T @ X + ridge_total * np.eye(3), X.T @ y)
        assert np.abs(s.mu_hat - direct).max() < 1e-8

    def test_solve_batch_empty_needs_dim(self):
        assert np.array_equal(solve_batch([], [], 1.0, dim=4), np.zeros(4))
        with pytest.raises(ValueError, match="dim"):
            solve_batch([], [], 1.0)
        with pytest.raises(ValueError, match="length"):
            solve_batch([np.ones(2)], [1.0, 2.0], 1.0)

    def test_width_never_increases(self):
        rng = np.random.default_rng(2)
        s = RidgeState(5, 1.0)
        probe = rng.standard_normal(5)
        prev = math.sqrt(width_sq(s, probe))
        for _ in range(100):
            s.update(rng.standard_normal(5), float(rng.standard_normal()))
            cur = math.sqrt(width_sq(s, probe))
            assert cur <= prev + 1e-12
            prev = cur

    def test_det_product_form_without_inflation(self):
        rng = np.random.default_rng(3)
        s = RidgeState(4, 1.0)
        for _ in range(300):
            x = rng.standard_normal(4)
            before = det_sigma(s)
            w2 = width_sq(s, x)
            s.update(x, 0.0)
            assert det_sigma(s) == pytest.approx((1.0 + w2) * before, rel=1e-9)

    def test_log_det_growth_bound_with_inflation(self):
        # With isotropic inflation the trace argument gives
        # d * log(1 + (T B^2 + d * sum(gamma e)) / (d lam)).
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            lam = float(rng.uniform(0.3, 2.0))
            B = float(rng.uniform(0.5, 2.0))
            s = RidgeState(d, lam, gamma_cov=float(rng.uniform(0.0, 0.5)))
            T = int(rng.integers(10, 120))
            e_sum = 0.0
            for _ in range(T):
                x = rng.standard_normal(d)
                norm = np.linalg.norm(x)
                if norm > 0:
                    x *= B * rng.uniform() / norm
                e = float(rng.uniform(0.0, 2.0))
                s.update(x, 0.0, e)
                e_sum += s.gamma_cov * e
            growth = math.log(det_sigma(s)) - d * math.log(lam)
            bound = d * math.log(1.0 + (T * B * B + d * e_sum) / (d * lam))
            assert growth <= bound + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    lam=st.floats(0.1, 5.0),
    n=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
def test_sigma_stays_symmetric_positive_definite(d, lam, n, seed):
    rng = np.random.default_rng(seed)
    s = RidgeState(d, lam, gamma_cov=float(rng.uniform(0.0, 0.3)))
    for _ in range(n):
        s.update(rng.standard_normal(d), float(rng.standard_normal()),
                 float(rng.uniform(0.0, 1.0)))
    assert np.abs(s.sigma - s.sigma.T).max() < 1e-9
    assert np.linalg.eigvalsh(s.sigma).min() >= lam - 1e-9
    assert np.isfinite(s.mu_hat).all()
    probe = rng.standard_normal(d)
    assert width_sq(s, probe) >= 0.0


class _ThreeRidges(_Ridges):
    """A policy's three stacked ridges alone: no bank, no stats."""

    n_arms = 3

    def __init__(self, dim, lam, gamma_cov):
        self.dim = dim
        self._init_ridges(lam, gamma_cov)


@pytest.mark.parametrize("blas", PASS_STEPS, ids=PASS_IDS)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 8),
    lam=st.floats(0.1, 5.0),
    gamma=st.floats(0.01, 1.0),
    n=st.integers(0, 40),
    seed=st.integers(0, 10_000),
)
def test_factored_ridge_matches_direct_solves(blas, d, lam, gamma, n, seed):
    # Shifted ridges keep L with L L^T = sigma; about a third of the
    # updates carry e = 0 and are refactored like the others.  Each update
    # is a policy's: update_round under the compiled round, numpy's else.
    rng = np.random.default_rng(seed)
    with compiled_step(blas=blas):
        stacked = _ThreeRidges(d, lam, gamma)
        assert (stacked._compiled() is not None) == (blas is not None)
        s = stacked.ridges[0]
        assert s.chol is not None
        for _ in range(n):
            u_max = float(rng.uniform(0.0, 1.5)) if rng.uniform() < 0.7 else 0.0
            stacked._ridge_update(0, rng.standard_normal(d), float(rng.standard_normal()),
                                  0.0, u_max)
    scale = np.abs(s.sigma).max()
    assert np.array_equal(s.chol, np.tril(s.chol))
    assert np.abs(s.chol @ s.chol.T - s.sigma).max() <= 1e-12 * scale
    assert np.allclose(s.mu_hat, np.linalg.solve(s.sigma, s.b),
                       rtol=1e-9, atol=1e-12)
    x = rng.standard_normal(d)
    assert width_sq(s, x) == pytest.approx(float(x @ np.linalg.solve(s.sigma, x)),
                                           rel=1e-9, abs=1e-15)
    assert np.allclose(s.sigma_inv, np.linalg.inv(s.sigma), rtol=1e-9,
                       atol=1e-12)


def test_determinant_identity_under_each_ridge_step(each_pass, monkeypatch):
    # c02's identity through a policy's update: update_round under the
    # compiled round, none of whose updates declines to numpy's, and each
    # ridge's numpy update else.  An update adds gamma * u_max^2 * I + x x^T,
    # so det(sigma') = (1 + x^T S^-1 x) det(S) with S the shifted sigma.
    if each_pass is not None:
        monkeypatch.setattr(RidgeState, "_update", None)
    rng = np.random.default_rng(11)
    worst, checked = 0.0, 0
    for _ in range(40):
        d = int(rng.integers(1, 6))
        gamma = float(rng.choice([0.0, 0.05, 0.5]))
        stacked = _ThreeRidges(d, float(rng.uniform(0.5, 2.0)), gamma)
        assert (stacked._compiled() is not None) == (each_pass is not None)
        for t in range(60):
            ridge, x = stacked.ridges[t % 3], rng.standard_normal(d)
            u_max = float(rng.uniform(0.0, 1.5)) if t % 4 else 0.0
            shifted = ridge.sigma + gamma * u_max * u_max * np.eye(d)
            w2 = float(x @ np.linalg.solve(shifted, x))
            det_before = float(np.linalg.det(shifted))
            stacked._ridge_update(t % 3, x, float(rng.standard_normal()), 0.0, u_max)
            det_after = float(np.linalg.det(ridge.sigma))
            worst = max(worst, abs(det_after - (1.0 + w2) * det_before) / det_after)
            checked += 1
    assert checked == 2400 and worst <= 1e-6


def _ridge_bits(compiled, d, lam, gamma, seed, n):
    """Every array three stacked ridges expose after n updates: through a
    policy's update (``update_round``, unless it declines), or each ridge's
    numpy update with e = u_max * u_max."""
    rng = np.random.default_rng(seed)
    with compiled_step(blas=_cstep.BLAS if compiled else None):
        stacked = _ThreeRidges(d, lam, gamma)
        assert (stacked._compiled() is not None) == compiled
        for t in range(n):
            x, r = rng.standard_normal(d), float(rng.standard_normal())
            u_max = float(rng.uniform(0.0, 1.5)) if t % 3 else 0.0
            if compiled:
                stacked._ridge_update(t % 3, x, r, 0.0, u_max)
            else:
                stacked.ridges[t % 3].update(x, r, u_max * u_max)
        ridges, x = stacked.ridges, rng.standard_normal(d)
        w2 = widths_sq(ridges, stacked._squares, x)
        if gamma > 0.0:  # the stacked product has its own bits
            assert w2.tobytes() == np.array([width_sq(r, x) for r in ridges]).tobytes()
        bits = [w2]
        for r in ridges:
            bits += [r.sigma, r.b, r.mu_hat, r.sigma_inv, r._scale, r._rank_one_updates]
            if r.chol is not None:
                assert not np.triu(r.chol, 1).any()
                bits.append(r.chol)
    return [np.ascontiguousarray(a).tobytes() for a in bits]


@pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled steps are not built")
@pytest.mark.parametrize("d", [1, 2, 3, 10, 100])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.7])
@settings(max_examples=5, deadline=None)
@given(lam=st.floats(0.1, 5.0), seed=st.integers(0, 10_000))
def test_compiled_ridge_step_keeps_every_bit(d, gamma, lam, seed):
    # 210 updates over three arms: each gamma = 0 arm runs its drift check
    # twice, and none of the compiled ones declines to numpy's update.
    numpy_bits = _ridge_bits(False, d, lam, gamma, seed, 210)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RidgeState, "_update", None)
        assert _ridge_bits(True, d, lam, gamma, seed, 210) == numpy_bits


@pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled steps are not built")
def test_compiled_ridge_step_finds_its_lapack_routines():
    assert linear._lapack()[1] is not None


class TestFactoredRidge:
    def test_only_shifted_ridges_keep_a_factor(self):
        assert RidgeState(3, 1.0).chol is None
        s = RidgeState(3, 2.0, gamma_cov=0.1)
        assert np.array_equal(s.chol, np.sqrt(2.0) * np.eye(3))

    def test_sigma_inv_follows_every_update(self):
        rng = np.random.default_rng(8)
        s = RidgeState(4, 1.0, gamma_cov=0.3)
        for e in (0.0, 1.5, 0.0, 0.7):
            s.update(rng.standard_normal(4), 0.5, e)
            assert np.allclose(s.sigma_inv @ s.sigma, np.eye(4), atol=1e-12)

    def test_inflated_update_does_not_invert(self, monkeypatch):
        s = RidgeState(3, 1.0, gamma_cov=0.2)

        def no_inverse(a):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        for _ in range(40):
            s.update(np.ones(3), 1.0, 1.0)
        assert np.allclose(s.sigma, 9.0 * np.eye(3) + 40.0 * np.ones((3, 3)))


class TestConfidenceBall:
    def test_boundary_point_sits_on_boundary(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            A = rng.standard_normal((d, d))
            shape = A @ A.T + 0.5 * np.eye(d)
            ball = ConfidenceBall(center=rng.standard_normal(d), shape=shape,
                                  radius_sq=float(rng.uniform(0.1, 4.0)))
            p = ball.boundary_point(rng.standard_normal(d))
            quad = float((p - ball.center) @ shape @ (p - ball.center))
            assert quad == pytest.approx(ball.radius_sq, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ConfidenceBall(np.zeros(2), np.eye(2), radius_sq=-1.0)
        with pytest.raises(ValueError, match="radius_sq must be a number"):
            ConfidenceBall(np.zeros(2), np.eye(2), radius_sq="abc")
        ball = ConfidenceBall(np.zeros(2), np.eye(2), radius_sq=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            ball.boundary_point(np.zeros(2))
