"""Policy behavior: the hybrid rule against an independent simulator, its
flag reductions, and the baseline algorithms."""
import math

import numpy as np
import pytest

from banditlab import cli
from banditlab.core import Policy, round_rng
from banditlab.policies import (LNUCBTA, POLICIES, POLICY_PARAM_KEYS,
                                PolicyConfig, BetaThompson,
                                EnhancedBetaThompson, EnhancedEpsilonGreedy,
                                EnhancedLinThompson, EpsilonGreedy, KLUCB,
                                KnnKLUCB, KnnUCB, LinThompson, RandomPolicy,
                                UCB, bernoulli_kl, klucb_upper, lin_knn_ucb,
                                linucb, make_policy)


class HandRolledHybrid:
    """Direct, slow reimplementation of the hybrid scoring and update rules.

    Uses explicit matrix inverses and full sorts; exists only to cross-check
    the production policy's incremental bookkeeping.
    """

    def __init__(self, n_arms, dim, cfg: PolicyConfig):
        self.cfg = cfg
        self.n_arms = n_arms
        self.dim = dim
        self.sigma = [cfg.lam * np.eye(dim) for _ in range(n_arms)]
        self.b = [np.zeros(dim) for _ in range(n_arms)]
        self.stores = [[] for _ in range(n_arms)]  # (x, reward, round)
        self.counts = np.zeros(n_arms)
        self.sums = np.zeros(n_arms)

    def _k(self, arm):
        if not self.cfg.adaptive_k:
            return self.cfg.theta_max
        rewards = np.array([r for _, r, _ in self.stores[arm]])
        var = float(rewards.var()) if rewards.size >= 2 else 0.0
        v = min(max(var * self.cfg.variance_scale, 0.0), 1.0)
        k = math.floor(self.cfg.theta_min
                       + (self.cfg.theta_max - self.cfg.theta_min) * v + 0.5)
        return min(max(k, self.cfg.theta_min), self.cfg.theta_max)

    def _knn(self, arm, x):
        if not self.cfg.use_knn:
            return 0.0, 0.0, False
        k = self._k(arm)
        entries = self.stores[arm]
        if len(entries) < k:
            return 0.0, 0.0, False
        d2 = np.array([float((c - x) @ (c - x)) for c, _, _ in entries])
        rounds = np.array([t for _, _, t in entries])
        order = np.lexsort((rounds, d2))[:k]
        rewards = np.array([entries[i][1] for i in order])
        return float(rewards.mean()), float(np.sqrt(d2[order].max())), True

    def table(self, x):
        local = np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0)
        g = float(local.mean())
        rows = []
        for a in range(self.n_arms):
            inv = np.linalg.inv(self.sigma[a])
            mu_hat = inv @ self.b[a]
            linear = float(mu_hat @ x)
            width = math.sqrt(max(float(x @ inv @ x), 0.0))
            knn, _, _ = self._knn(a, x)
            if self.cfg.use_attention:
                alpha = (self.cfg.alpha0 / (self.counts[a] + 1)
                         * (self.cfg.kappa * g + (1 - self.cfg.kappa) * local[a]))
                if self.cfg.floor_alpha_at_zero:
                    alpha = max(alpha, 0.0)
            else:
                alpha = self.cfg.alpha0
            rows.append((linear, knn, float(alpha), width,
                         linear + knn + float(alpha) * width))
        return np.array(rows)

    def update(self, arm, x, reward, round):
        knn, u_max, _ = self._knn(arm, x)
        residual = reward - knn
        self.sigma[arm] = (self.sigma[arm] + np.outer(x, x)
                           + self.cfg.gamma_cov * u_max * u_max * np.eye(self.dim))
        self.b[arm] = self.b[arm] + residual * x
        if self.cfg.use_knn:
            self.stores[arm].append((x.copy(), reward, round))
        self.counts[arm] += 1
        self.sums[arm] += reward


def test_hybrid_matches_handrolled_simulator():
    cfg = PolicyConfig(lam=0.8, alpha0=1.5, kappa=0.3, theta_min=1,
                       theta_max=3, gamma_cov=0.1, variance_scale=4.0)
    policy = LNUCBTA(3, 2, cfg, seed=0)
    sim = HandRolledHybrid(3, 2, cfg)
    rng = np.random.default_rng(42)
    for t in range(25):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        table = policy.score_table(x, t)
        got = np.column_stack([table.linear, table.knn, table.alpha,
                               table.width, table.ucb])
        want = sim.table(x)
        assert np.allclose(got, want, atol=1e-9), f"round {t}"
        arm = policy.select(x, t)
        assert arm == int(np.argmax(want[:, 4]))
        reward = float(rng.uniform(-0.5, 1.0))
        policy.update(arm, x, reward)
        sim.update(arm, x, reward, t)


def test_score_table_decomposition_is_consistent():
    policy = LNUCBTA(4, 3, PolicyConfig(), seed=1)
    rng = np.random.default_rng(1)
    for t in range(15):
        x = rng.standard_normal(3)
        table = policy.score_table(x, t)
        assert np.allclose(table.ucb,
                           table.linear + table.knn + table.alpha * table.width)
        row = table.row(2)
        assert row.ucb == pytest.approx(table.ucb[2])
        policy.update(policy.select(x, t), x, float(rng.uniform()))


def test_selection_and_scoring_are_pure():
    policy = LNUCBTA(3, 2, PolicyConfig(), seed=0)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(2)
    policy.update(1, x, 0.5)
    sizes = [len(policy.bank.store(a)) for a in range(3)]
    sigmas = [r.sigma.copy() for r in policy.ridges]
    first = policy.score_table(x, 3)
    for _ in range(3):
        assert policy.select(x, 3) == policy.select(x, 3)
        again = policy.score_table(x, 3)
        assert np.array_equal(first.ucb, again.ucb)
    assert [len(policy.bank.store(a)) for a in range(3)] == sizes == [0, 1, 0]
    assert all(np.array_equal(r.sigma, s) for r, s in zip(policy.ridges, sigmas))
    assert policy.stats.per_arm_count.sum() == 1


@pytest.mark.parametrize("gamma_cov", [0.0, 0.05])
def test_score_table_widths_equal_each_ridge_width(gamma_cov):
    # Shifted ridges are scored one triangular solve per arm, exactly as
    # RidgeState.width computes it; unshifted ones by the stacked inverses.
    policy = LNUCBTA(3, 6, PolicyConfig(theta_max=2, gamma_cov=gamma_cov), seed=0)
    rng = np.random.default_rng(9)
    gram = np.zeros((3, 6, 6))
    for t in range(60):
        x = rng.standard_normal(6)
        table = policy.score_table(x, t)
        want = [r.width(x) for r in policy.ridges]
        if gamma_cov > 0:
            assert table.width.tolist() == want
        else:
            assert np.allclose(table.width, want, rtol=1e-12)
        arm = policy.select(x, t)
        policy.update(arm, x, float(rng.uniform()))
        gram[arm] += np.outer(x, x)
    assert all((r.chol is not None) == (gamma_cov > 0) for r in policy.ridges)
    shift = max(float(np.trace(r.sigma - np.eye(6) - g))
                for r, g in zip(policy.ridges, gram))
    assert (shift > 1e-9) == (gamma_cov > 0)


@pytest.mark.parametrize("config", [
    dict(gamma_cov=0.2),
    dict(gamma_cov=0.0),
    dict(gamma_cov=0.2, store_capacity=4),
    dict(gamma_cov=0.2, adaptive_k=False),
], ids=["shifted", "unshifted", "capped", "fixed-k"])
def test_update_without_prior_scoring_matches_memoized_path(config):
    # An update with no scoring pass before it queries its arm through
    # knn_score; the result must equal the memo of the selection pass.
    cfg = PolicyConfig(theta_min=1, theta_max=3, variance_scale=10.0, **config)
    scored = LNUCBTA(2, 2, cfg, seed=0)
    unscored = LNUCBTA(2, 2, cfg, seed=0)
    rng = np.random.default_rng(3)
    plain_b = np.zeros((2, 2))  # b with no k-NN term in the residual
    for t in range(40):
        x = rng.standard_normal(2)
        arm = scored.select(x, t)  # populates the memo
        reward = float(rng.uniform())
        plain_b[arm] += reward * x
        scored.update(arm, x, reward)
        unscored.update(arm, x, reward)  # fresh query path
        for a, b in zip(scored.ridges, unscored.ridges):
            assert np.array_equal(a.sigma, b.sigma)
            assert np.array_equal(a.b, b.b)
    # The k-NN term was live, and a capped store really evicted.
    assert not np.allclose([r.b for r in scored.ridges], plain_b)
    sizes = [len(scored.bank.store(a)) for a in range(2)]
    assert sizes == [len(unscored.bank.store(a)) for a in range(2)]
    assert (max(sizes) == 4) == ("store_capacity" in config)


def test_flag_reductions():
    # No knn, no attention, fixed k: the factory policies are flag configs.
    lin = linucb(3, 2, alpha=0.7)
    assert lin.name == "linucb"
    assert not lin.config.use_knn and not lin.config.use_attention
    x = np.array([0.6, 0.8])
    table = lin.score_table(x, 0)
    assert np.array_equal(table.knn, np.zeros(3))
    assert np.allclose(table.alpha, 0.7)
    assert np.allclose(table.ucb, table.linear + 0.7 * table.width)

    twin = lin_knn_ucb(3, 2, alpha=0.3, theta_max=4)
    assert twin.name == "lin-knn-ucb"
    assert twin.config.use_knn and not twin.config.use_attention
    assert not twin.config.adaptive_k
    assert twin.bank._ks == [4, 4, 4]


def test_alpha_floor_clamps_negative_rates():
    floored = LNUCBTA(2, 2, PolicyConfig(floor_alpha_at_zero=True), seed=0)
    raw = LNUCBTA(2, 2, PolicyConfig(floor_alpha_at_zero=False), seed=0)
    x = np.array([1.0, 0.0])
    for policy in (floored, raw):
        policy.update(0, x, -2.0)  # negative mean drives alpha negative
    assert raw.score_table(x, 1).alpha.min() < 0
    assert floored.score_table(x, 1).alpha.min() == 0.0


def test_policy_config_validation():
    for bad in (dict(lam=0.0), dict(alpha0=-1.0), dict(kappa=2.0),
                dict(theta_min=0), dict(theta_min=5, theta_max=3),
                dict(gamma_cov=-0.5), dict(variance_scale=0.0),
                dict(tie_break="flip")):
        with pytest.raises(ValueError):
            PolicyConfig(**bad)


PINNED_PARAM_KEYS = {
    "lnucb-ta": {"lam", "alpha0", "kappa", "theta_min", "theta_max", "gamma_cov",
                 "variance_scale", "floor_alpha_at_zero", "tie_break",
                 "store_capacity", "use_attention", "use_knn", "adaptive_k"},
    "linucb": {"alpha", "lam", "tie_break"},
    "lin-knn-ucb": {"alpha", "lam", "theta_max", "tie_break", "store_capacity",
                    "variance_scale"},
    "ucb": {"rho", "tie_break"},
    "kl-ucb": {"c", "tie_break"},
    "eps-greedy": {"eps", "tie_break"},
    "beta-thompson": {"prior_a", "prior_b", "tie_break"},
    "linthompson": {"v", "lam", "tie_break"},
    "knn-ucb": {"rho", "theta_min", "theta_max", "variance_scale",
                "store_capacity", "tie_break"},
    "knn-kl-ucb": {"c", "theta_min", "theta_max", "variance_scale",
                   "store_capacity", "tie_break"},
    "random": set(),
    "enhanced-eps-greedy": {"eps", "gamma_sm", "theta_min", "theta_max",
                            "variance_scale", "store_capacity", "tie_break"},
    "enhanced-beta-thompson": {"prior_a", "prior_b", "gamma_sm", "theta_min",
                               "theta_max", "variance_scale", "store_capacity",
                               "tie_break"},
    "enhanced-linthompson": {"v", "lam", "gamma_sm", "theta_min", "theta_max",
                             "variance_scale", "store_capacity", "tie_break"},
}


class TestMakePolicy:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown policy id"):
            make_policy("gradient-bandit", 2, 2)

    def test_unknown_hybrid_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown lnucb-ta parameters"):
            make_policy("lnucb-ta", 2, 2, alpha=0.5)

    @pytest.mark.parametrize("pid,cls", [
        ("lnucb-ta", LNUCBTA), ("linucb", LNUCBTA), ("lin-knn-ucb", LNUCBTA),
        ("ucb", UCB), ("kl-ucb", KLUCB), ("eps-greedy", EpsilonGreedy),
        ("beta-thompson", BetaThompson), ("linthompson", LinThompson),
        ("knn-ucb", KnnUCB), ("knn-kl-ucb", KnnKLUCB),
        ("random", RandomPolicy),
        ("enhanced-eps-greedy", EnhancedEpsilonGreedy),
        ("enhanced-beta-thompson", EnhancedBetaThompson),
        ("enhanced-linthompson", EnhancedLinThompson),
    ])
    def test_constructs_each_id(self, pid, cls):
        policy = make_policy(pid, 3, 4, seed=1)
        assert isinstance(policy, cls)
        assert policy.name == pid

    def test_enhanced_ids(self):
        for base in ("eps-greedy", "beta-thompson", "linthompson"):
            policy = make_policy(f"enhanced-{base}", 3, 4, seed=1)
            assert policy.name == f"enhanced-{base}"
        with pytest.raises(ValueError, match="unknown policy id"):
            make_policy("enhanced-ucb", 3, 4)

    def test_accepted_keys_pinned(self):
        # Keys are derived from each factory's signature; run slugs and the
        # CLI's shared-flag filtering depend on them staying exactly these.
        assert POLICY_PARAM_KEYS == PINNED_PARAM_KEYS
        assert cli.POLICY_PARAM_KEYS == PINNED_PARAM_KEYS

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    def test_unknown_key_rejected_for_every_id(self, pid):
        with pytest.raises(ValueError,
                           match=rf"unknown {pid} parameters: \['alpah'\]"):
            make_policy(pid, 3, 4, alpah=0.1)

    @pytest.mark.parametrize("pid", sorted(pid for pid, keys in
                                           PINNED_PARAM_KEYS.items()
                                           if "tie_break" in keys))
    def test_unknown_tie_break_rejected_for_every_id(self, pid):
        with pytest.raises(ValueError, match="unknown tie_break 'bogus'"):
            make_policy(pid, 3, 4, tie_break="bogus")

    @pytest.mark.parametrize("pid, param", [
        ("beta-thompson", "prior_a"), ("beta-thompson", "prior_b"),
        ("enhanced-beta-thompson", "prior_a"),
        ("enhanced-beta-thompson", "prior_b"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_beta_priors_must_be_positive_and_finite(self, pid, param, value):
        with pytest.raises(ValueError, match=f"{param} must be positive"):
            make_policy(pid, 3, 4, **{param: value})

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    @pytest.mark.parametrize("bad, match", [
        pytest.param({"reward": math.nan}, "finite", id="nan"),
        pytest.param({"reward": math.inf}, "finite", id="inf"),
        pytest.param({"arm": 3}, r"arm 3 out of range \[0, 3\)", id="arm-3"),
        pytest.param({"x": [math.nan, 0.0]}, "non-finite", id="nan-context"),
        pytest.param({"x": [1.0, 0.0, 0.0]}, "dimension 3 != expected 2",
                     id="long-context"),
    ])
    def test_non_finite_reward_changes_nothing(self, pid, bad, match):
        assert_rejected_update_changes_nothing(pid, bad, match)

    @pytest.mark.parametrize("pid", sorted(pid for pid, keys in
                                           PINNED_PARAM_KEYS.items()
                                           if "theta_max" in keys))
    def test_overflowing_knn_reward_changes_nothing(self, pid):
        # 1e200 is finite, but its square overflows the k-NN running sums.
        assert_rejected_update_changes_nothing(pid, {"reward": 1e200},
                                               "overflows")

    def test_every_id_inherits_the_checked_calls(self):
        for pid in POLICIES:
            cls = type(make_policy(pid, 3, 4))
            for verb in ("select", "update", "scores"):
                assert getattr(cls, verb) is getattr(Policy, verb), (pid, verb)


def assert_rejected_update_changes_nothing(pid, bad, match):
    # Rejected before any state changes: the policy keeps scoring exactly
    # like a twin that never saw the bad update.
    policy = make_policy(pid, 3, 2, seed=4)
    twin = make_policy(pid, 3, 2, seed=4)
    rng = np.random.default_rng(8)
    for t in range(12):
        x = rng.standard_normal(2)
        arm, good = policy.select(x, t), float(rng.uniform())
        policy.update(arm, x, good)
        twin.update(arm, x, good)
    x = rng.standard_normal(2)
    call = {"arm": policy.select(x, 12), "x": x, "reward": 0.5, **bad}
    with pytest.raises(ValueError, match=match):
        policy.update(**call)
    for t in (12, 13):
        assert np.array_equal(policy.scores(x, t), twin.scores(x, t))


class TestBaselines:
    def test_ucb_prefers_unpulled_arms(self):
        policy = UCB(3, rho=1.0)
        x = np.zeros(1)
        assert policy.select(x, 0) == 0
        policy.update(0, x, 1.0)
        assert policy.select(x, 1) == 1
        policy.update(1, x, 0.0)
        policy.update(2, x, 0.0)
        scores = policy.scores(x, 3)
        assert scores[0] == pytest.approx(1.0 + math.sqrt(math.log(4.0)))

    def test_eps_greedy_zero_eps_is_greedy(self):
        policy = EpsilonGreedy(3, eps=0.0)
        x = np.zeros(1)
        policy.update(1, x, 5.0)
        assert all(policy.select(x, t) == 1 for t in range(20))

    def test_eps_greedy_exploration_uses_round_keyed_stream(self):
        policy = EpsilonGreedy(4, eps=1.0, seed=9)
        x = np.zeros(1)
        for t in range(10):
            rng = round_rng(9, t)
            rng.uniform()  # the explore coin flip comes first
            assert policy.select(x, t) == rng.integers(4)

    def test_random_policy_reproducible(self):
        a = RandomPolicy(5, seed=3)
        b = RandomPolicy(5, seed=3)
        x = np.zeros(1)
        assert [a.select(x, t) for t in range(30)] == \
               [b.select(x, t) for t in range(30)]

    def test_beta_thompson_clips_rewards(self):
        policy = BetaThompson(2)
        x = np.zeros(1)
        policy.update(0, x, 5.0)
        policy.update(0, x, -3.0)
        assert policy._succ[0] == 1.0
        assert policy._fail[0] == 1.0

    def test_linthompson_zero_v_is_deterministic(self):
        policy = LinThompson(3, 2, v=0.0)
        x = np.array([1.0, 1.0])
        policy.update(0, x, 1.0)
        s1 = policy.scores(x, 5)
        s2 = policy.scores(x, 6)
        assert np.array_equal(s1, s2)
        assert s1[0] > 0

    def test_knn_ucb_visits_every_arm_then_uses_neighbors(self):
        policy = KnnUCB(3, 2, rho=0.5, theta_max=2)
        rng = np.random.default_rng(4)
        seen = []
        for t in range(3):
            x = rng.standard_normal(2)
            arm = policy.select(x, t)
            seen.append(arm)
            policy.update(arm, x, 1.0)
        assert seen == [0, 1, 2]
        scores = policy.scores(rng.standard_normal(2), 3)
        assert np.isfinite(scores).all()

    def test_knn_klucb_bounds_scores_to_unit_interval(self):
        policy = KnnKLUCB(2, 2, c=1.0)
        x = np.array([1.0, 0.0])
        policy.update(0, x, 1.0)
        policy.update(1, x, 0.0)
        scores = policy.scores(x, 5)
        assert (scores >= 0.0).all() and (scores <= 1.0).all()


class TestKlucbMath:
    def test_zero_budget_returns_mean(self):
        assert klucb_upper(0.3, 0.0) == pytest.approx(0.3, abs=1e-8)

    def test_monotone_in_budget(self):
        qs = [klucb_upper(0.4, b) for b in (0.01, 0.1, 0.5, 2.0)]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        assert qs[-1] <= 1.0

    def test_saturated_mean_stays_one(self):
        assert klucb_upper(1.0, 5.0) == pytest.approx(1.0, abs=1e-8)

    def test_kl_basics(self):
        assert bernoulli_kl(0.5, 0.5) == pytest.approx(0.0)
        assert bernoulli_kl(0.0, 0.5) > 0
        with pytest.raises(ValueError):
            klucb_upper(0.5, -1.0)


class TestEnhancedVariants:
    def test_attention_weights_shift_with_pulls(self):
        policy = make_policy("enhanced-eps-greedy", 3, 2, eps=0.2, gamma_sm=1.0)
        x = np.array([1.0, 0.0])
        for _ in range(5):
            policy.update(0, x, 1.0)
        w = policy.attention_weights()
        assert w[0] < w[1] == w[2]
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("base", ["eps-greedy", "beta-thompson",
                                      "linthompson"])
    def test_runs_for_a_few_rounds(self, base):
        policy = make_policy(f"enhanced-{base}", 3, 2, seed=0)
        rng = np.random.default_rng(5)
        for t in range(30):
            x = rng.standard_normal(2)
            arm = policy.select(x, t)
            assert 0 <= arm < 3
            policy.update(arm, x, float(rng.uniform()))
