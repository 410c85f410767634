"""Exploration schedule math and the per-arm reward statistics behind it."""
import numpy as np
import pytest

from banditlab.attention import (AttentionParams, RewardStats, exploration_rates,
                                 softmax_attention)
from banditlab.policies import LNUCBTA
from oracles import exploration_rate


class TestAttentionParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttentionParams(alpha0=-1.0, kappa=0.5)
        with pytest.raises(ValueError):
            AttentionParams(alpha0=1.0, kappa=1.5)
        with pytest.raises(ValueError):
            AttentionParams(alpha0=float("nan"), kappa=0.5)
        with pytest.raises(ValueError, match="alpha0 must be a number"):
            AttentionParams(alpha0="abc", kappa=0.5)
        with pytest.raises(ValueError, match="kappa must be a number"):
            AttentionParams(alpha0=1.0, kappa="abc")


class TestExplorationRate:
    def test_formula_spot_values(self):
        p = AttentionParams(alpha0=2.0, kappa=0.25)
        # 2 / (N+1) * (0.25*g + 0.75*n)
        assert exploration_rate(p, 0, 1.0, 1.0) == pytest.approx(2.0)
        assert exploration_rate(p, 3, 0.4, 0.8) == pytest.approx(
            2.0 / 4.0 * (0.25 * 0.4 + 0.75 * 0.8))

    def test_negative_pull_count_rejected(self):
        p = AttentionParams(alpha0=1.0, kappa=0.5)
        with pytest.raises(ValueError):
            exploration_rate(p, -1, 0.5, 0.5)

    @pytest.mark.parametrize("N", [2.5, True, "3", None])
    def test_pull_count_must_be_an_integer(self, N):
        p = AttentionParams(alpha0=1.0, kappa=0.5)
        with pytest.raises(ValueError, match="N must be an integer"):
            exploration_rate(p, N, 0.5, 0.5)

    def test_integral_pull_counts_keep_their_rate(self):
        p = AttentionParams(alpha0=2.0, kappa=0.25)
        want = exploration_rate(p, 3, 0.4, 0.8)
        assert exploration_rate(p, 3.0, 0.4, 0.8) == exploration_rate(
            p, np.int64(3), 0.4, 0.8) == want

    def test_negative_rewards_pass_through(self):
        p = AttentionParams(alpha0=1.0, kappa=0.0)
        assert exploration_rate(p, 0, 0.0, -0.5) == -0.5

    def test_vectorized_matches_scalar(self):
        p = AttentionParams(alpha0=1.7, kappa=0.6)
        counts = np.array([0.0, 1.0, 5.0, 100.0])
        local = np.array([0.2, 0.9, 0.0, -0.3])
        g = 0.4
        vec = exploration_rates(p, counts, g, local)
        scalar = [exploration_rate(p, int(c), g, float(n))
                  for c, n in zip(counts, local)]
        assert np.allclose(vec, scalar)

    def test_forward_difference_sign(self):
        p = AttentionParams(alpha0=1.0, kappa=0.5)

        def step(g, n):  # alpha(N+1) - alpha(N) at N = 4
            return exploration_rate(p, 5, g, n) - exploration_rate(p, 4, g, n)

        assert step(0.5, 0.5) < 0
        assert step(0.0, 0.0) == 0.0
        # Negative mixes flip the slope: the rate rises toward zero.
        assert step(-0.5, -0.5) > 0


class TestRewardStats:
    def test_unpulled_arms_read_zero(self):
        stats = RewardStats(3)
        assert stats.local_means().tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.usefixtures("each_pass")
    def test_global_mean_averages_arm_means_not_rewards(self):
        # With kappa = 1 the hybrid's alpha is alpha0 / (N + 1) * g.
        policy = LNUCBTA(2, 2, alpha0=1.0, kappa=1.0, seed=0)
        x = np.array([1.0, 0.0])
        for arm, reward in ((0, 1.0), (0, 1.0), (0, 1.0), (1, 0.0)):
            policy.update(arm, x, reward)
        # Pooled mean would be 0.75; the mean of per-arm means is 0.5.
        alpha = policy.score_table(x, 4).alpha
        assert alpha.tolist() == pytest.approx([0.5 / 4, 0.5 / 2])

    def test_record_validation(self):
        stats = RewardStats(2)
        with pytest.raises(ValueError):
            stats.record(2, 1.0)
        with pytest.raises(ValueError, match="arm must be an integer, got True"):
            stats.record(True, 1.0)
        with pytest.raises(ValueError, match="arm must be an integer, got 1.5"):
            stats.record(1.5, 1.0)
        with pytest.raises(ValueError):
            stats.record(0, float("nan"))
        with pytest.raises(ValueError):
            RewardStats(0)

    def test_counts_and_sums_accumulate(self):
        stats = RewardStats(2)
        stats.record(1, 0.25)
        stats.record(1, 0.75)
        assert stats.per_arm_count.tolist() == [0, 2]
        assert stats.local_means()[1] == pytest.approx(0.5)


class TestSoftmaxAttention:
    def test_zero_gamma_is_uniform(self):
        w = softmax_attention(np.array([0, 10, 1000]), 0.0)
        assert np.allclose(w, 1.0 / 3.0)

    def test_fewer_pulls_get_more_weight(self):
        w = softmax_attention(np.array([1, 5, 20]), 0.5)
        assert w[0] > w[1] > w[2]
        assert w.sum() == pytest.approx(1.0)

    def test_stable_for_huge_counts(self):
        w = softmax_attention(np.array([1e9, 1e9 + 1]), 1.0)
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_exponents_take_their_limit(self):
        # -1e308 * c overflows for every c here: the least-pulled arms share.
        assert softmax_attention([2, 3], 1e308).tolist() == [1.0, 0.0]
        assert softmax_attention([2, 2, 5], 1e308).tolist() == [0.5, 0.5, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_ordinary_weights_keep_their_bits(self):
        w = softmax_attention([3, 0, 7, 2], 1.25)
        assert [v.hex() for v in w.tolist()] == [
            "0x1.5c76099514c20p-6", "0x1.cf0789dc2c379p-1",
            "0x1.2c886403c88c5p-13", "0x1.300fea87572e7p-4"]

    def test_validation(self):
        with pytest.raises(ValueError):
            softmax_attention(np.array([1.0]), -0.5)
        with pytest.raises(ValueError, match="gamma_sm must be a number"):
            softmax_attention(np.array([1.0]), "abc")
        with pytest.raises(ValueError):
            softmax_attention(np.array([]), 1.0)
