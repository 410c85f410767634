"""Context validation, keyed randomness, tie-breaking, and the policy base."""
import numpy as np
import pytest

from banditlab.core import Policy, argmax_tiebreak, as_context, round_rng


class TestAsContext:
    def test_passes_through_float64_vector(self):
        x = np.array([1.0, 2.0])
        assert as_context(x) is x

    def test_coerces_lists_and_ints(self):
        out = as_context([1, 2, 3])
        assert out.dtype == np.float64
        assert out.tolist() == [1.0, 2.0, 3.0]

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_context(np.zeros((2, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_context([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            as_context([np.inf])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            as_context([1.0, 2.0], dim=3)


class TestRoundRng:
    def test_same_key_same_stream(self):
        a = round_rng(3, 17).uniform(size=5)
        b = round_rng(3, 17).uniform(size=5)
        assert np.array_equal(a, b)

    def test_different_rounds_differ(self):
        a = round_rng(3, 17).uniform(size=5)
        b = round_rng(3, 18).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = round_rng(3, 17).uniform(size=5)
        b = round_rng(4, 17).uniform(size=5)
        assert not np.array_equal(a, b)


class TestArgmaxTiebreak:
    def test_lowest_index_on_tie(self):
        assert argmax_tiebreak(np.array([1.0, 3.0, 3.0])) == 1

    def test_seeded_random_picks_among_exact_ties(self):
        scores = np.array([2.0, 5.0, 5.0, 5.0, 1.0])
        picks = {argmax_tiebreak(scores, "seeded-random", round_rng(0, t))
                 for t in range(50)}
        assert picks <= {1, 2, 3}
        assert len(picks) > 1

    def test_seeded_random_reproducible(self):
        scores = np.array([1.0, 1.0])
        a = argmax_tiebreak(scores, "seeded-random", round_rng(5, 7))
        b = argmax_tiebreak(scores, "seeded-random", round_rng(5, 7))
        assert a == b

    def test_seeded_random_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            argmax_tiebreak(np.array([1.0]), "seeded-random")

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError, match="no arms"):
            argmax_tiebreak(np.array([]))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="tie_break"):
            argmax_tiebreak(np.array([1.0]), "coin-flip")


class _Constant(Policy):
    name = "constant"

    def __init__(self, n_arms, dim, seed=0, tie_break="lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self.updates = 0

    def _scores(self, x, round):
        return np.arange(self.n_arms, dtype=np.float64)

    def _update(self, arm, x, reward):
        self.updates += 1


class TestPolicyBase:
    def test_select_validates_context_and_picks_argmax(self):
        p = _Constant(3, 2)
        assert p.select(np.ones(2), 0) == 2
        with pytest.raises(ValueError, match="dimension"):
            p.select(np.ones(4), 0)

    def test_select_does_not_mutate(self):
        p = _Constant(3, 2)
        for t in range(5):
            p.select(np.ones(2), t)
        assert p.updates == 0

    def test_arm_bounds_checked(self):
        p = _Constant(3, 2)
        with pytest.raises(ValueError, match="out of range"):
            p.update(3, np.ones(2), 1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            _Constant(0, 2)
        with pytest.raises(ValueError):
            _Constant(2, 0)
