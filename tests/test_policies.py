"""Policy behavior: the hybrid rule against an independent simulator, its
flag reductions, and the baseline algorithms."""
import inspect
import itertools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banditlab
from banditlab import cli
from banditlab.attention import RewardStats
from banditlab.core import Policy, as_context, round_rng
from banditlab.knn import NeighborBank
from banditlab.linear import RidgeState
from banditlab.policies import (LNUCBTA, POLICIES, POLICY_PARAM_KEYS,
                                BetaThompson, EnhancedBetaThompson,
                                EnhancedEpsilonGreedy,
                                EnhancedLinThompson, EpsilonGreedy, KLUCB,
                                KnnKLUCB, KnnUCB, LinThompson, RandomPolicy,
                                UCB, bernoulli_kl, klucb_upper, lin_knn_ucb,
                                linucb, make_policy)
from conftest import (PASS_IDS, PASS_STEPS, compiled_step, held,
                      held_bytes)

# Every id with a ridge accepts lam; lnucb-ta also runs a shifted ridge.
RIDGE_CASES = ([(pid, {}) for pid in sorted(POLICY_PARAM_KEYS)
                if "lam" in POLICY_PARAM_KEYS[pid]]
               + [("lnucb-ta", {"gamma_cov": 0.05})])


# LNUCBTA's keyword parameters and their defaults.
HYBRID_DEFAULTS = {name: p.default for name, p in
                   inspect.signature(LNUCBTA).parameters.items()
                   if p.kind is p.KEYWORD_ONLY and name != "seed"}


class HandRolledHybrid:
    """Direct, slow reimplementation of the hybrid scoring and update rules.

    Uses explicit matrix inverses and full sorts; exists only to cross-check
    the production policy's incremental bookkeeping.  Takes the keyword
    parameters LNUCBTA is built with, as a dict.
    """

    def __init__(self, n_arms, dim, params):
        self.cfg = cfg = SimpleNamespace(**{**HYBRID_DEFAULTS, **params})
        self.n_arms = n_arms
        self.dim = dim
        self.sigma = [cfg.lam * np.eye(dim) for _ in range(n_arms)]
        self.b = [np.zeros(dim) for _ in range(n_arms)]
        self.stores = [[] for _ in range(n_arms)]  # (x, reward, round)
        self.counts = np.zeros(n_arms)
        self.sums = np.zeros(n_arms)

    def _k(self, arm):
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


@pytest.mark.usefixtures("each_pass")
def test_hybrid_matches_handrolled_simulator():
    params = dict(lam=0.8, alpha0=1.5, kappa=0.3, theta_min=1, theta_max=3,
                  gamma_cov=0.1, variance_scale=4.0)
    policy = LNUCBTA(3, 2, **params, seed=0)
    sim = HandRolledHybrid(3, 2, params)
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


@pytest.mark.usefixtures("each_pass")
def test_score_table_decomposition_is_consistent():
    policy = LNUCBTA(4, 3, seed=1)
    rng = np.random.default_rng(1)
    for t in range(15):
        x = rng.standard_normal(3)
        table = policy.score_table(x, t)
        assert np.allclose(table.ucb,
                           table.linear + table.knn + table.alpha * table.width)
        row = table.row(2)
        assert row.ucb == pytest.approx(table.ucb[2])
        policy.update(policy.select(x, t), x, float(rng.uniform()))


@pytest.mark.usefixtures("each_pass")
def test_selection_and_scoring_are_pure():
    policy = LNUCBTA(3, 2, seed=0)
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


@pytest.mark.parametrize("step", PASS_STEPS, ids=PASS_IDS)
@pytest.mark.parametrize("gamma_cov", [0.0, 0.05])
def test_score_table_widths_equal_each_ridge_width(gamma_cov, step):
    # Shifted ridges are scored one triangular solve per arm, exactly as
    # RidgeState.width_sq computes it; unshifted ones by the stacked inverses.
    with compiled_step(blas=step):
        _check_widths(gamma_cov)


def _check_widths(gamma_cov):
    policy = LNUCBTA(3, 6, theta_max=2, gamma_cov=gamma_cov, seed=0)
    rng = np.random.default_rng(9)
    gram = np.zeros((3, 6, 6))
    for t in range(60):
        x = rng.standard_normal(6)
        table = policy.score_table(x, t)
        want = [math.sqrt(r.width_sq(x)) for r in policy.ridges]
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
    dict(gamma_cov=0.2, theta_min=3),
], ids=["shifted", "unshifted", "capped", "fixed-k"])
@pytest.mark.parametrize("step", PASS_STEPS, ids=PASS_IDS)
def test_update_without_prior_scoring_matches_memoized_path(config, step):
    # An update with no scoring pass before it queries its arm through
    # knn_score; the result must equal the memo of the selection pass.
    with compiled_step(blas=step):
        _check_memo(config)


def _check_memo(config):
    params = {"theta_min": 1, "theta_max": 3, "variance_scale": 10.0, **config}
    scored = LNUCBTA(2, 2, **params, seed=0)
    unscored = LNUCBTA(2, 2, **params, seed=0)
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


@pytest.mark.skipif(len(PASS_STEPS) < 2, reason="the compiled pass is not built")
@settings(max_examples=80, deadline=None)
@given(
    n_arms=st.integers(1, 4),
    d=st.integers(1, 4),
    n=st.integers(0, 60),
    gamma_cov=st.sampled_from([0.0, 0.05]),
    capacity=st.one_of(st.none(), st.integers(1, 6)),
    thetas=st.sampled_from([(1, 1), (1, 5), (3, 3), (2, 9)]),
    flags=st.sampled_from([(True, True), (True, False), (False, True)]),
    distinct=st.integers(1, 4),
    seed=st.integers(0, 100_000),
)
def test_fused_pass_and_numpy_path_give_the_same_bits(
        n_arms, d, n, gamma_cov, capacity, thetas, flags, distinct, seed):
    # Every round's score table and k-NN pass under both paths.  A few
    # distinct contexts and reward levels make exact distance ties; early
    # rounds give one-row and short windows against the inf padding, and
    # small capacities wrap capped rings many times.
    rng = np.random.default_rng(seed)
    policy = LNUCBTA(n_arms, d, theta_min=thetas[0], theta_max=thetas[1],
                     gamma_cov=gamma_cov, variance_scale=50.0,
                     store_capacity=capacity, use_knn=flags[0],
                     use_attention=flags[1], seed=0)
    base = rng.standard_normal((distinct, d))
    for t in range(n + 1):
        x = (base[int(rng.integers(distinct))] if rng.uniform() < 0.8
             else rng.standard_normal(d))
        bits = []
        for step in PASS_STEPS:
            with compiled_step(blas=step):
                table, batch, best = policy._table(x)
            fields = [table.linear, table.knn, table.alpha, table.width, table.ucb,
                      *(batch if flags[0] else ())]
            bits.append([(f.dtype.str, f.tobytes()) for f in fields])
            assert best == (None if step is None else int(table.ucb.argmax()))
        assert bits[1] == bits[0]
        policy.update(policy.select(x, t), x, float(rng.choice([0.0, 0.05, 1.0])))


@pytest.mark.skipif(len(PASS_STEPS) < 2, reason="the compiled steps are not built")
@pytest.mark.parametrize("pid, params", [
    ("linthompson", {}), ("linthompson", {"lam": 0.1, "v": 0.3}), ("enhanced-linthompson", {}),
    ("enhanced-linthompson", {"store_capacity": 9, "theta_max": 4, "variance_scale": 50.0})])
@pytest.mark.parametrize("d", [1, 3, 10])
def test_thompson_twins_keep_every_bit(pid, params, d, monkeypatch):
    # 240 updates over three arms, 80 per arm (two drift checks each),
    # through update_round and through numpy's update: every round's
    # scores and everything the policy holds are byte-equal.  Only a row
    # that grows declines to the numpy update.
    calls = []
    monkeypatch.setattr(RidgeState, "_check", lambda *args, f=RidgeState._check: (
        calls.append(args[0]), f(*args))[1])
    runs = []
    for step in PASS_STEPS:
        rng, scores = np.random.default_rng(d), []
        calls.clear()
        with compiled_step(blas=step):
            policy = make_policy(pid, 3, d, seed=5, **params)
            for t in range(240):
                x = rng.standard_normal(d)
                scores.append(policy.scores(x, t).tobytes())
                policy.update(t % 3, x, float(rng.choice([0.0, 0.5, 1.0])))
        runs.append((scores, held_bytes(policy)))
    assert runs[1] == runs[0]
    assert len(calls) < 24 if pid == "enhanced-linthompson" else not calls


@pytest.mark.usefixtures("each_pass")
def test_flag_reductions():
    # No knn, no attention, fixed k: the factory policies are flag configs.
    lin = linucb(3, 2, alpha=0.7)
    assert lin.name == "linucb"
    assert not lin.use_knn and not lin.use_attention
    x = np.array([0.6, 0.8])
    table = lin.score_table(x, 0)
    assert np.array_equal(table.knn, np.zeros(3))
    assert np.allclose(table.alpha, 0.7)
    assert np.allclose(table.ucb, table.linear + 0.7 * table.width)

    twin = lin_knn_ucb(3, 2, alpha=0.3, theta_max=4)
    assert twin.name == "lin-knn-ucb"
    assert twin.use_knn and not twin.use_attention
    assert twin.bank.theta_min == twin.bank.theta_max == 4
    assert list(twin.bank._ks) == [4, 4, 4]


@pytest.mark.usefixtures("each_pass")
def test_alpha_floor_clamps_negative_rates():
    floored = LNUCBTA(2, 2, floor_alpha_at_zero=True, seed=0)
    raw = LNUCBTA(2, 2, floor_alpha_at_zero=False, seed=0)
    x = np.array([1.0, 0.0])
    for policy in (floored, raw):
        policy.update(0, x, -2.0)  # negative mean drives alpha negative
    assert raw.score_table(x, 1).alpha.min() < 0
    assert floored.score_table(x, 1).alpha.min() == 0.0


@pytest.mark.parametrize("build", [
    lambda bad: LNUCBTA(2, 2, **bad),
    lambda bad: make_policy("lnucb-ta", 2, 2, **bad),
], ids=["class", "make_policy"])
def test_hybrid_parameter_validation(build):
    # Building the policy checks each keyword parameter, by name.
    for bad in (dict(lam=0.0), dict(alpha0=-1.0), dict(kappa=2.0),
                dict(theta_min=0), dict(theta_min=5, theta_max=3),
                dict(gamma_cov=-0.5), dict(variance_scale=0.0),
                dict(tie_break="flip"), dict(lam=math.nan),
                dict(kappa=math.inf), dict(store_capacity=0),
                dict(use_knn="abc"), dict(use_attention=1),
                dict(floor_alpha_at_zero=None), dict(lam="abc"),
                dict(alpha0="abc"), dict(gamma_cov="abc"),
                dict(variance_scale="abc"), dict(theta_max="abc")):
        with pytest.raises(ValueError, match=next(iter(bad))):
            build(bad)


def test_public_names_resolve():
    assert all(hasattr(banditlab, name) for name in banditlab.__all__)


PINNED_PARAM_KEYS = {
    "lnucb-ta": {"lam", "alpha0", "kappa", "theta_min", "theta_max", "gamma_cov",
                 "variance_scale", "floor_alpha_at_zero", "tie_break",
                 "store_capacity", "use_attention", "use_knn"},
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
        assert POLICIES["lnucb-ta"] is LNUCBTA

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    def test_unknown_key_rejected_for_every_id(self, pid):
        with pytest.raises(ValueError,
                           match=rf"unknown {pid} parameters: \['alpah'\]"):
            make_policy(pid, 3, 4, alpah=0.1)

    @pytest.mark.parametrize("pid, key", sorted(
        (pid, key) for pid, keys in POLICY_PARAM_KEYS.items() for key in keys))
    def test_every_parameter_rejects_a_string_by_name(self, pid, key):
        # Each accepted key is checked when the policy is built, by a check
        # that names it, so no future parameter can slip through unchecked.
        with pytest.raises(ValueError, match=rf"^(unknown )?{key} "):
            make_policy(pid, 3, 4, **{key: "abc"})

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0"), (2.7, "seed must be an integer, got 2.7"),
        ("abc", "seed must be an integer"), (True, "seed must be an integer"),
    ])
    def test_seed_is_checked_when_built(self, pid, seed, message):
        with pytest.raises(ValueError, match=message):
            make_policy(pid, 3, 4, seed=seed)
        assert make_policy(pid, 3, 4, seed=7.0).seed == 7

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
        # Finite, but 4 * x.x overflows: stored, it would leave k-NN
        # distances and ridge scores non-finite.
        pytest.param({"x": [1e200, 0.0]}, "non-finite", id="huge-context"),
        pytest.param({"x": [1.0, 0.0, 0.0]}, "dimension 3 != expected 2",
                     id="long-context"),
    ])
    @pytest.mark.usefixtures("each_pass")
    def test_non_finite_reward_changes_nothing(self, pid, bad, match):
        assert_rejected_update_changes_nothing(pid, bad, match)

    @pytest.mark.parametrize("pid", ["ucb", "kl-ucb", "eps-greedy"])
    def test_overflowing_reward_sum_changes_nothing(self, pid):
        # Each 1e308 is finite, but two of them overflow the arm's reward sum.
        assert_rejected_update_changes_nothing(
            pid, {"reward": 1e308}, r"reward 1e\+308 overflows arm \d's reward sum",
            primer=1e308)

    @pytest.mark.parametrize("pid, params", [
        ("lnucb-ta", {}), ("lnucb-ta", {"gamma_cov": 0.05}),
        ("lnucb-ta", {"use_knn": False}), ("enhanced-linthompson", {})])
    def test_each_overflow_check_runs_once_per_update(self, pid, params, each_pass,
                                                      monkeypatch):
        calls = []
        for owner, name in [(RidgeState, "_check"), (NeighborBank, "_check_reward"),
                            (RewardStats, "_sum_after")]:
            def spy(*args, _name=name, _f=getattr(owner, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(owner, name, spy)
        policy = make_policy(pid, 3, 2, **params)
        want = ["_check", "_sum_after"] + (["_check_reward"] if getattr(
            policy, "use_knn", True) else [])
        if each_pass is not None:
            want = []  # the compiled update makes each check once, in C
        for t in range(4):
            calls.clear()
            x = [0.3, -0.1 * t]
            policy.update(policy.select(x, t), x, 0.5)
            assert sorted(calls) == sorted(want)

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    @pytest.mark.usefixtures("each_pass")
    def test_huge_context_is_rejected_by_select_and_scores(self, pid):
        policy = make_policy(pid, 3, 2, seed=4)
        policy.update(0, [1.0, 0.0], 0.5)
        for call in (policy.select, policy.scores):
            with pytest.raises(ValueError, match="overflows"):
                call([1e200, 0.0], 1)

    @pytest.mark.parametrize("pid", sorted(pid for pid, keys in
                                           PINNED_PARAM_KEYS.items()
                                           if "theta_max" in keys))
    @pytest.mark.parametrize("step", PASS_STEPS, ids=PASS_IDS)
    def test_overflowing_knn_reward_changes_nothing(self, pid, step):
        # 1e200 is finite, but its square overflows the k-NN running sums.
        with compiled_step(blas=step):
            assert_rejected_update_changes_nothing(pid, {"reward": 1e200},
                                                   "overflows")

    @pytest.mark.parametrize("pid, params", RIDGE_CASES)
    @pytest.mark.usefixtures("each_pass")
    def test_overflowing_ridge_reward_changes_nothing(self, pid, params):
        # 1e308 * ||x|| overflows b; the k-NN ids check the ridge before the add.
        assert_rejected_update_changes_nothing(
            pid, {"reward": 1e308}, "ridge update overflows", **params)

    @pytest.mark.usefixtures("each_pass")
    def test_shifted_ridge_that_cannot_factor_changes_nothing(self):
        # sigma + x x^T rounds to a singular matrix: x x^T's entries are 1e18,
        # whose spacing is 128, and sigma's are far smaller.
        params = dict(gamma_cov=0.05, lam=1e-10)
        assert_rejected_update_changes_nothing(
            "lnucb-ta", {"x": [1e9, 1e9], "reward": 1.0},
            "not positive definite", use_knn=False, **params)
        # With k-NN on, an arm with no neighbors adds no shift either, and
        # the bank must not keep the entry the ridge refused.
        policy, twin = (make_policy("lnucb-ta", 2, 2, **params) for _ in "ab")
        with pytest.raises(ValueError, match="not positive definite"):
            policy.update(0, [1e9, 1e9], 1.0)
        assert hybrid_state(policy) == hybrid_state(twin)
        for each in (policy, twin):
            each.update(0, [0.3, 0.1], 0.5)
        assert hybrid_state(policy) == hybrid_state(twin)

    @pytest.mark.parametrize("pid, params", RIDGE_CASES)
    @pytest.mark.usefixtures("each_pass")
    def test_ridge_stops_before_sigma_overflows(self, pid, params):
        # [1e153, 0] is an accepted context, and 179 of them overflow sigma.
        # The first one leaves a Sherman-Morrison inverse with a zero
        # diagonal entry, which the Thompson ids could not sample from.
        big = np.array([1e153, 0.0])
        policy, twin = (make_policy(pid, 3, 2, seed=4, **params) for _ in "ab")
        for _ in range(200):
            try:
                policy.update(0, big, 1.0)
            except ValueError as error:
                assert "ridge update overflows" in str(error)
                break
            twin.update(0, big, 1.0)
        else:
            pytest.fail("no update was rejected")
        for x, t in itertools.product([big, np.array([0.3, -0.2])], (0, 1)):
            assert np.array_equal(policy.scores(x, t), twin.scores(x, t))

    @pytest.mark.parametrize("pid", sorted(PINNED_PARAM_KEYS))
    @pytest.mark.parametrize("n_arms, dim, message", [
        ("abc", 2, "n_arms must be an integer, got 'abc'"),
        (2.5, 3, "n_arms must be an integer, got 2.5"),
        (0, 3, "n_arms must be >= 1"),
        (2, "abc", "dim must be an integer, got 'abc'"),
        (2, True, "dim must be an integer, got True"),
        (2, 0, "dim must be >= 1"),
    ])
    def test_n_arms_and_dim_are_checked_by_name(self, pid, n_arms, dim, message):
        with pytest.raises(ValueError, match=message):
            make_policy(pid, n_arms, dim)

    def test_every_id_inherits_the_checked_calls(self):
        for pid in POLICIES:
            cls = type(make_policy(pid, 3, 4))
            for verb in ("select", "update", "scores"):
                assert getattr(cls, verb) is getattr(Policy, verb), (pid, verb)


def hybrid_state(policy):
    """The bytes of an LNUCBTA's bank, ridges, stats and scores."""
    bank = policy.bank
    arrays = [bank._norm2, bank._rewards, *bank._rounds,
              *(bank.store(a).contexts for a in range(bank.n_arms)),
              policy.stats.per_arm_sum, policy.stats.per_arm_count,
              policy.scores([0.3, 0.1], 1)]
    for r in policy.ridges:
        arrays += [r.sigma, r.b, r.mu_hat, r.chol]
    return ([a.tobytes() for a in arrays], *map(list, (bank._start, bank._end, bank._ks)),
            bank._adds, [r._scale for r in policy.ridges])


def assert_rejected_update_changes_nothing(pid, bad, match, primer=None, **params):
    # Rejected before any state changes: the policy keeps scoring exactly
    # like a twin that never saw the bad update.  A primer reward goes to
    # the bad update's arm of both first.
    policy = make_policy(pid, 3, 2, seed=4, **params)
    twin = make_policy(pid, 3, 2, seed=4, **params)
    rng = np.random.default_rng(8)
    for t in range(12):
        x = rng.standard_normal(2)
        arm, good = policy.select(x, t), float(rng.uniform())
        policy.update(arm, x, good)
        twin.update(arm, x, good)
    x = rng.standard_normal(2)
    arm = policy.select(x, 12)
    for each in (policy, twin) if primer is not None else ():
        each.update(arm, x, primer)
    call = {"arm": arm, "x": x, "reward": 0.5, **bad}
    with pytest.raises(ValueError, match=match):
        policy.update(**call)
    for t in (12, 13):
        assert np.array_equal(policy.scores(x, t), twin.scores(x, t))
    # State the scores do not read yet (sigma, b) shows after one more update.
    for each in (policy, twin):
        each.update(arm, x, 0.25)
    assert np.array_equal(policy.scores(x, 14), twin.scores(x, 14))


# A context just inside as_context's bound: 4 * ||x||^2 is finite.
EDGE = math.sqrt(sys.float_info.max / 8.0) * (1.0 - 1e-9)


@settings(max_examples=150, deadline=None)
@given(
    pid=st.sampled_from(sorted(POLICIES)),
    n=st.integers(0, 40),
    capped=st.booleans(),
    hostile=st.sampled_from(["edge-context", "reward+1e308", "reward-1e308",
                             "tiny-lam"]),
    seed=st.integers(0, 100_000),
)
def test_hostile_update_is_finite_or_changes_nothing(pid, n, capped, hostile, seed):
    # After a random history, one hostile update either succeeds and leaves
    # every stored value finite (the k-NN padding's inf norms aside), or
    # raises ValueError (LinAlgError is one) and leaves the policy byte-equal
    # to a twin that never saw it, under each score pass.  A RuntimeWarning
    # fails the test.
    keys = POLICY_PARAM_KEYS[pid]
    params = {"store_capacity": 3} if capped and "store_capacity" in keys else {}
    if hostile == "tiny-lam":
        params.update((k, v) for k, v in (("lam", 1e-10), ("gamma_cov", 0.05)) if k in keys)
    x_bad = {"edge-context": [EDGE, -EDGE], "tiny-lam": [1e9, 1e9]}.get(hostile, [0.3, -0.2])
    reward = {"reward+1e308": 1e308, "reward-1e308": -1e308}.get(hostile, 0.5)
    assert as_context(x_bad) is not None
    for step in PASS_STEPS:
        rng = np.random.default_rng(seed)
        with compiled_step(blas=step):
            policy, twin = (make_policy(pid, 3, 2, seed=1, **params) for _ in "ab")
            for t in range(n):
                x, r = rng.standard_normal(2), float(rng.uniform(-1.0, 2.0))
                arm = policy.select(x, t)
                assert twin.select(x, t) == arm  # draws and caches alike
                for each in (policy, twin):
                    each.update(arm, x, r)
            try:
                policy.update(int(rng.integers(3)), x_bad, reward)
            except ValueError:
                assert held_bytes(policy) == held_bytes(twin)
                x = rng.standard_normal(2)
                assert policy.scores(x, n).tobytes() == twin.scores(x, n).tobytes()
                continue
            for path, v in held(policy):
                if path.endswith("._norm2"):
                    sizes = np.subtract(list(policy.bank._end), list(policy.bank._start))
                    v = np.where(np.arange(v.shape[1]) < sizes[:, None], v, 0.0)
                if isinstance(v, (float, np.ndarray)) and not path.endswith("._selected"):
                    assert np.isfinite(v).all(), (path, v)


@pytest.mark.parametrize("pid", sorted(POLICIES))
@pytest.mark.parametrize("arm, message", [
    (1.9, "arm must be an integer, got 1.9"), (True, "arm must be an integer, got True"),
    (math.nan, "arm must be an integer, got nan"), ("1", "arm must be an integer"),
    (-1, "arm must be >= 0"),
])
def test_arm_is_checked_by_name(pid, arm, message):
    assert_rejected_update_changes_nothing(pid, {"arm": arm}, message)


@pytest.mark.parametrize("pid", sorted(POLICIES))
def test_numpy_integer_arms_are_arms(pid):
    policy, twin = (make_policy(pid, 3, 2, seed=2) for _ in "ab")
    for t, arm in enumerate([1, 2, 1.0]):
        x = [0.3 * t, -0.2]
        policy.update(np.int64(int(arm)), x, 0.5)
        twin.update(arm, x, 0.5)
    assert held_bytes(policy) == held_bytes(twin)


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


@pytest.mark.parametrize("build, name", [
    (lambda v: RidgeState(v, 1.0), "dim"),
    (lambda v: NeighborBank(v, 2), "n_arms"),
    (lambda v: NeighborBank(2, v), "dim"),
    (lambda v: RewardStats(v), "n_arms"),
])
@pytest.mark.parametrize("value, message", [
    ("abc", "must be an integer, got 'abc'"), (2.5, "must be an integer, got 2.5"),
    (0, "must be >= 1"),
])
def test_components_check_n_arms_and_dim_by_name(build, name, value, message):
    # Each component built on its own checks its sizes as a policy does.
    with pytest.raises(ValueError, match=f"{name} {message}"):
        build(value)
