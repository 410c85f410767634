"""Reward accounting, aggregation, and the bound-diagnostic formulas."""
import math

import numpy as np
import pytest

from banditlab.metrics import (AggregateResult, DiagnosticsParams, RunResult,
                               aggregate, beta_bound, beta_formula,
                               regret_bound_curve, regret_series,
                               robustness_std, sublinearity_exponent)


class TestRunResult:
    def test_from_rewards_series(self):
        r = RunResult.from_rewards("p", "", 0, [1.0, 0.0, 2.0],
                                   oracle_rewards=[1.0, 1.0, 3.0])
        assert np.array_equal(r.cumulative_reward, [1.0, 1.0, 3.0])
        assert np.allclose(r.mean_reward, [1.0, 0.5, 1.0])
        assert np.array_equal(r.cumulative_regret, [0.0, 1.0, 2.0])
        assert r.horizon == 3
        assert r.final_cumulative_reward() == 3.0
        assert r.final_mean_reward() == 1.0
        assert r.final_regret() == 2.0
        assert r.matched_steps == 3

    def test_regret_optional(self):
        r = RunResult.from_rewards("p", "", 0, [0.5, 0.5])
        assert r.cumulative_regret is None
        assert math.isnan(r.final_regret())

    def test_matched_steps_override(self):
        r = RunResult.from_rewards("p", "", 0, [1.0] * 5, matched_steps=3)
        assert r.matched_steps == 3

    def test_regret_series_shape_mismatch(self):
        with pytest.raises(ValueError, match="share length"):
            regret_series([1.0, 2.0], [1.0])


class TestBoundFormulas:
    def test_beta_reference_value(self):
        p = DiagnosticsParams(sigma=1.0, delta=0.1, B=1.0, W=1.0, d=2,
                              u_sq_sum=0.0)
        want = 2.0 + 8.0 * math.log(51.0) + 8.0 * math.log(40.0)
        assert beta_bound(p, 100) == pytest.approx(want, abs=1e-12)
        assert beta_formula(1.0, 2, 100, 1.0, 1.0, 0.0, 0.1) == \
            pytest.approx(want, abs=1e-12)

    def test_beta_scales_with_sigma_squared(self):
        p1 = DiagnosticsParams(sigma=1.0)
        p2 = DiagnosticsParams(sigma=2.0)
        assert beta_bound(p2, 50) == pytest.approx(4.0 * beta_bound(p1, 50))

    def test_regret_curve_monotone_and_linear_in_b(self):
        p = DiagnosticsParams(d=3, delta=0.05)
        curve = regret_bound_curve(p, 500)
        assert curve.shape == (500,)
        assert (np.diff(curve) > 0).all()
        doubled = regret_bound_curve(DiagnosticsParams(d=3, delta=0.05, b=2.0),
                                     500)
        assert np.allclose(doubled, 2.0 * curve)

    def test_regret_curve_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            regret_bound_curve(DiagnosticsParams(), 0)

    def test_params_validation(self):
        for bad in (dict(sigma=0.0), dict(B=-1.0), dict(W=0.0), dict(b=0.0),
                    dict(d=0), dict(delta=0.0), dict(delta=1.0),
                    dict(u_sq_sum=-1.0), dict(sigma="abc"), dict(d=1.5),
                    dict(delta="abc"), dict(u_sq_sum="abc")):
            with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
                DiagnosticsParams(**bad)


class TestSublinearityExponent:
    @pytest.mark.parametrize("power", [0.5, 0.7, 1.0])
    def test_recovers_exact_power_laws(self, power):
        t = np.arange(1, 5001, dtype=np.float64)
        assert sublinearity_exponent(t ** power) == pytest.approx(power,
                                                                  abs=1e-6)

    def test_fits_only_the_tail(self):
        # Early transient must not leak into the estimate.
        t = np.arange(1, 4001, dtype=np.float64)
        r = np.sqrt(t)
        r[:1000] = 500.0
        assert sublinearity_exponent(r) == pytest.approx(0.5, abs=1e-6)

    def test_needs_enough_rounds(self):
        with pytest.raises(ValueError, match="100 rounds"):
            sublinearity_exponent(np.ones(99))

    def test_rejects_all_nonpositive_tail(self):
        with pytest.raises(ValueError, match="positive regret"):
            sublinearity_exponent(np.zeros(200))


def run_of(policy, params, seed, rewards, oracle=None):
    return RunResult.from_rewards(policy, params, seed, rewards,
                                  oracle_rewards=oracle, runtime_s=1.0)


class TestAggregate:
    def test_groups_and_population_std(self):
        runs = [
            run_of("a", "", 0, [1.0, 1.0], oracle=[1.0, 2.0]),
            run_of("a", "", 1, [0.0, 2.0], oracle=[1.0, 2.0]),
            run_of("b", "x=1", 0, [1.0, 0.0], oracle=[1.0, 1.0]),
        ]
        agg = aggregate(runs)
        assert [(r.policy, r.params) for r in agg.rows] == [("a", ""),
                                                            ("b", "x=1")]
        row = agg.rows[0]
        assert row.n_seeds == 2
        assert row.final_cum_reward_mean == 2.0
        # Population std of finals {2, 2} and mean rewards {1.0, 1.0}.
        assert row.final_cum_reward_std == 0.0
        assert row.final_regret_mean == pytest.approx(1.0)
        assert row.final_regret_std == pytest.approx(0.0)
        std = np.asarray([1.0, 1.0]).std()
        assert row.final_mean_reward_std == pytest.approx(std)
        assert row.runtime_s_mean == 1.0

    def test_population_not_sample_std(self):
        runs = [run_of("a", "", s, [float(s)]) for s in (0, 1)]
        row = aggregate(runs).rows[0]
        # Population std of {0, 1} is 0.5; the sample version would be ~0.707.
        assert row.final_cum_reward_std == pytest.approx(0.5)

    def test_order_invariance(self):
        runs = [run_of("b", "", 1, [1.0]), run_of("a", "", 0, [2.0]),
                run_of("a", "", 1, [3.0])]
        a = aggregate(runs)
        b = aggregate(list(reversed(runs)))
        assert [(r.policy, r.params, r.final_cum_reward_mean) for r in a.rows] \
            == [(r.policy, r.params, r.final_cum_reward_mean) for r in b.rows]

    def test_mixed_horizons_rejected(self):
        runs = [run_of("a", "", 0, [1.0]), run_of("a", "", 1, [1.0, 1.0])]
        with pytest.raises(ValueError, match="mixed horizons"):
            aggregate(runs)

    def test_nan_regret_propagates(self):
        runs = [run_of("a", "", 0, [1.0], oracle=[1.0]),
                run_of("a", "", 1, [1.0])]  # second run has no oracle
        row = aggregate(runs).rows[0]
        assert math.isnan(row.final_regret_mean)
        assert math.isnan(row.final_regret_std)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
        assert AggregateResult().rows == []


class TestRobustnessStd:
    def test_seed_average_then_grid_std(self):
        grid = {0.1: [1.0, 3.0], 1.0: [2.0, 2.0], 10.0: [4.0, 4.0]}
        # Seed means are 2, 2, 4; population std of those is sqrt(8/9).
        assert robustness_std(grid) == pytest.approx(math.sqrt(8.0 / 9.0))

    def test_flat_grid_is_zero(self):
        assert robustness_std({0.1: [1.0], 1.0: [1.0]}) == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            robustness_std({})
