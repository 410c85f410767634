"""Reward/regret accounting, cross-seed aggregation, and bound diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import as_int, as_nonneg, as_positive, as_real


@dataclass
class RunResult:
    """Per-seed time series plus summary fields for one (policy, params) cell."""

    policy_id: str
    params: str
    seed: int
    cumulative_reward: np.ndarray
    mean_reward: np.ndarray
    cumulative_regret: Optional[np.ndarray] = None
    matched_steps: int = 0
    runtime_s: float = 0.0

    @staticmethod
    def from_rewards(policy_id: str, params: str, seed: int, rewards,
                     oracle_rewards=None, matched_steps: Optional[int] = None,
                     runtime_s: float = 0.0) -> "RunResult":
        rewards = np.asarray(rewards, dtype=np.float64)
        cum = np.cumsum(rewards)
        mean = cum / np.arange(1, rewards.shape[0] + 1)
        regret = None
        if oracle_rewards is not None:
            regret = regret_series(rewards, oracle_rewards)
        return RunResult(
            policy_id=policy_id, params=params, seed=seed,
            cumulative_reward=cum, mean_reward=mean, cumulative_regret=regret,
            matched_steps=(matched_steps if matched_steps is not None
                           else rewards.shape[0]),
            runtime_s=runtime_s,
        )

    @property
    def horizon(self) -> int:
        return self.cumulative_reward.shape[0]

    def final_cumulative_reward(self) -> float:
        return float(self.cumulative_reward[-1])

    def final_mean_reward(self) -> float:
        return float(self.mean_reward[-1])

    def final_regret(self) -> float:
        if self.cumulative_regret is None:
            return float("nan")
        return float(self.cumulative_regret[-1])


def regret_series(rewards, oracle_rewards) -> np.ndarray:
    """Prefix sums of (oracle reward - obtained reward)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    oracle = np.asarray(oracle_rewards, dtype=np.float64)
    if rewards.shape != oracle.shape:
        raise ValueError("reward and oracle series must share length")
    return np.cumsum(oracle - rewards)


@dataclass(frozen=True)
class DiagnosticsParams:
    """Inputs of the confidence-width and regret-bound formulas."""

    sigma: float = 1.0
    delta: float = 0.1
    B: float = 1.0
    W: float = 1.0
    d: int = 1
    b: float = 1.0  # absolute constant of the bound; non-normative default
    u_sq_sum: float = 0.0

    def __post_init__(self):
        for name in ("sigma", "B", "W", "b"):
            as_positive(getattr(self, name), name)
        as_int(self.d, "d", 1)
        # The comparison is false for nan, so it also rejects it.
        if not 0.0 < as_real(self.delta, "delta") < 1.0:
            raise ValueError("delta must be in (0, 1)")
        as_nonneg(self.u_sq_sum, "u_sq_sum")


def beta_formula(sigma: float, d: int, T: float, B: float, W: float,
                 u_sq_sum: float, delta: float) -> float:
    """sigma^2 (2 + 4d ln(1 + T B^2 W^2 / d + u_sq_sum / d) + 8 ln(4/delta))."""
    return sigma * sigma * (
        2.0
        + 4.0 * d * math.log(1.0 + T * B * B * W * W / d + u_sq_sum / d)
        + 8.0 * math.log(4.0 / delta)
    )


def beta_bound(params: DiagnosticsParams, t: float) -> float:
    """Confidence-width radius at horizon t under the given parameters."""
    return beta_formula(params.sigma, params.d, t, params.B, params.W,
                        params.u_sq_sum, params.delta)


def regret_bound_curve(params: DiagnosticsParams, horizon: int) -> np.ndarray:
    """b * sigma * sqrt(t (d ln(1 + t B^2 W^2/(d sigma^2) + u/(d sigma^2)) + ln(4/delta)))."""
    t = np.arange(1, as_int(horizon, "horizon", 1) + 1, dtype=np.float64)
    s2 = params.sigma * params.sigma
    inner = (params.d * np.log(1.0 + t * params.B ** 2 * params.W ** 2 / (params.d * s2)
                               + params.u_sq_sum / (params.d * s2))
             + math.log(4.0 / params.delta))
    return params.b * params.sigma * np.sqrt(t * inner)


def sublinearity_exponent(regret) -> float:
    """Least-squares slope of log R_t vs log t over the last half of the horizon.

    Rounds are 1-based; nonpositive regret values are dropped before fitting.
    """
    r = np.asarray(regret, dtype=np.float64)
    if r.shape[0] < 100:
        raise ValueError("need at least 100 rounds to fit")
    t = np.arange(1, r.shape[0] + 1, dtype=np.float64)
    half = r.shape[0] // 2
    t, r = t[half:], r[half:]
    keep = r > 0
    if not keep.any():
        raise ValueError("no positive regret values to fit")
    logt = np.log(t[keep])
    logr = np.log(r[keep])
    slope = np.polyfit(logt, logr, 1)[0]
    return float(slope)


@dataclass
class AggregateRow:
    """Cross-seed summary for one (policy, params) group; population std."""

    policy: str
    params: str
    final_cum_reward_mean: float
    final_cum_reward_std: float
    final_mean_reward_mean: float
    final_mean_reward_std: float
    final_regret_mean: float
    final_regret_std: float
    runtime_s_mean: float
    n_seeds: int


@dataclass
class AggregateResult:
    rows: List[AggregateRow] = field(default_factory=list)


def _pop_mean_std(values: Sequence[float]) -> tuple:
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std())


def aggregate(results: Sequence[RunResult]) -> AggregateResult:
    """Group by (policy, params) and summarize finals across seeds.

    Permutation-invariant: groups keep first-appearance order under a
    canonical (policy, params, seed) sort of the inputs.
    """
    if not results:
        raise ValueError("no results to aggregate")
    ordered = sorted(results, key=lambda r: (r.policy_id, r.params, r.seed))
    groups: Dict[tuple, List[RunResult]] = {}
    for r in ordered:
        groups.setdefault((r.policy_id, r.params), []).append(r)
    out = AggregateResult()
    for (policy, params), runs in groups.items():
        horizons = {r.horizon for r in runs}
        if len(horizons) != 1:
            raise ValueError(f"mixed horizons in group {policy!r}: {sorted(horizons)}")
        cum_m, cum_s = _pop_mean_std([r.final_cumulative_reward() for r in runs])
        mean_m, mean_s = _pop_mean_std([r.final_mean_reward() for r in runs])
        regrets = [r.final_regret() for r in runs]
        if any(math.isnan(g) for g in regrets):
            reg_m, reg_s = float("nan"), float("nan")
        else:
            reg_m, reg_s = _pop_mean_std(regrets)
        out.rows.append(AggregateRow(
            policy=policy, params=params,
            final_cum_reward_mean=cum_m, final_cum_reward_std=cum_s,
            final_mean_reward_mean=mean_m, final_mean_reward_std=mean_s,
            final_regret_mean=reg_m, final_regret_std=reg_s,
            runtime_s_mean=float(np.mean([r.runtime_s for r in runs])),
            n_seeds=len(runs),
        ))
    return out


def robustness_std(finals_by_param: Dict) -> float:
    """Std across a parameter grid of the seed-averaged final mean reward.

    ``finals_by_param`` maps each grid value to its per-seed finals; seeds are
    averaged first, then the population std is taken across grid values.
    """
    if not finals_by_param:
        raise ValueError("empty grid")
    per_param = [float(np.mean(np.asarray(v, dtype=np.float64)))
                 for v in finals_by_param.values()]
    return float(np.std(per_param))
