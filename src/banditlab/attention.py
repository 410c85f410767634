"""Temporal attention exploration schedule and global/local reward statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import as_int, as_nonneg, as_reward


@dataclass(frozen=True)
class AttentionParams:
    """Base exploration alpha0 and the global/local mixing weight kappa."""

    alpha0: float
    kappa: float

    def __post_init__(self):
        as_nonneg(self.alpha0, "alpha0")
        as_nonneg(self.kappa, "kappa", 1.0)


class RewardStats:
    """Per-arm reward sums and pull counts; the source for g and n."""

    def __init__(self, n_arms: int):
        self.n_arms = as_int(n_arms, "n_arms", 1)
        self.per_arm_sum = np.zeros(self.n_arms)
        self.per_arm_count = np.zeros(self.n_arms, dtype=np.int64)

    def _sum_after(self, arm: int, reward: float) -> float:
        """record's ``total``: the arm's sum with ``reward``; ValueError on overflow."""
        total = float(self.per_arm_sum[arm]) + reward
        if not math.isfinite(total):
            raise ValueError(f"reward {reward!r} overflows arm {arm}'s reward sum")
        return total

    def record(self, arm: int, reward: float, total: Optional[float] = None) -> None:
        if (arm := as_int(arm, "arm", 0)) >= self.n_arms:
            raise ValueError(f"arm {arm} out of range")
        self.per_arm_sum[arm] = (self._sum_after(arm, as_reward(reward))
                                 if total is None else total)
        self.per_arm_count[arm] += 1

    def local_means(self) -> np.ndarray:
        # An unpulled arm's sum is 0, so dividing it by 1 gives its 0 mean.
        return self.per_arm_sum / np.maximum(self.per_arm_count, 1)


def exploration_rates(params: AttentionParams, counts: np.ndarray, g: float,
                      local: np.ndarray) -> np.ndarray:
    """alpha0 / (N + 1) * (kappa*g + (1 - kappa)*n) for each arm's pull count N
    and local mean n; negative values pass through unmodified."""
    return params.alpha0 / (counts + 1.0) * (params.kappa * g + (1.0 - params.kappa) * local)


def softmax_attention(counts, gamma_sm: float) -> np.ndarray:
    """Softmax over -gamma_sm * counts, computed with max-subtraction.

    gamma_sm = 0 is accepted and gives exactly uniform weights.  Where the
    largest of -gamma_sm * counts overflows, the weights are their limit:
    the least-pulled arms share them equally.
    """
    gamma_sm = as_nonneg(gamma_sm, "gamma_sm")
    c = np.asarray(counts, dtype=np.float64)
    if c.size == 0:
        raise ValueError("counts must be nonempty")
    with np.errstate(over="ignore"):
        z = -gamma_sm * c
    top = z.max()
    if not math.isfinite(top):
        w = (c == c.min()) * 1.0
        return w / w.sum()
    z -= top
    w = np.exp(z)
    return w / w.sum()
