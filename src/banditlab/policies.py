"""LNUCB-TA and the baseline bandit algorithms behind one policy interface."""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .attention import (AttentionParams, RewardStats, exploration_rates,
                        softmax_attention)
from .core import (TIE_BREAKS, Policy, ScoreTable, argmax_tiebreak, as_context,
                   as_int, as_real, round_rng)
from .knn import KnnBatch, NeighborBank
from .linear import RidgeState


@dataclass
class PolicyConfig:
    """Tunables of the hybrid policy and its flag-constructible ablations.

    use_attention=False freezes the exploration factor at alpha0;
    use_knn=False drops the neighbor estimator entirely; adaptive_k=False
    pins k at theta_max.
    """

    lam: float = 1.0
    alpha0: float = 1.0
    kappa: float = 0.5
    theta_min: int = 1
    theta_max: int = 5
    gamma_cov: float = 0.0
    variance_scale: float = 1.0
    floor_alpha_at_zero: bool = False
    tie_break: str = "lowest-index"
    store_capacity: Optional[int] = None
    use_attention: bool = True
    use_knn: bool = True
    adaptive_k: bool = True

    def __post_init__(self):
        for name in ("lam", "alpha0", "kappa", "gamma_cov", "variance_scale"):
            as_real(getattr(self, name), name)
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be positive")
        if not (np.isfinite(self.alpha0) and self.alpha0 >= 0):
            raise ValueError("alpha0 must be >= 0")
        if not (np.isfinite(self.kappa) and 0.0 <= self.kappa <= 1.0):
            raise ValueError("kappa must be in [0, 1]")
        if not (1 <= as_int(self.theta_min, "theta_min")
                <= as_int(self.theta_max, "theta_max")):
            raise ValueError("need 1 <= theta_min <= theta_max")
        if not (np.isfinite(self.gamma_cov) and self.gamma_cov >= 0):
            raise ValueError("gamma_cov must be >= 0")
        if not (np.isfinite(self.variance_scale) and self.variance_scale > 0):
            raise ValueError("variance_scale must be positive")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {self.tie_break!r}")


class LNUCBTA(Policy):
    """Hybrid linear + adaptive k-NN policy with temporal-attention exploration.

    Per-arm disjoint ridge regression fits the residual reward minus the k-NN
    score; the selection rule is ucb = linear + knn + alpha * width with
    alpha = alpha0/(N+1) * (kappa*g + (1-kappa)*n) when attention is enabled.
    """

    name = "lnucb-ta"

    def __init__(self, n_arms: int, dim: int, config: Optional[PolicyConfig] = None,
                 seed: int = 0):
        config = config if config is not None else PolicyConfig()
        super().__init__(n_arms, dim, seed, config.tie_break)
        self.config = config
        # A fixed k is the adaptive rule with theta_min = theta_max.
        theta_min = config.theta_min if config.adaptive_k else config.theta_max
        self.bank = NeighborBank(n_arms, dim, config.store_capacity, theta_min,
                                 config.theta_max, config.variance_scale)
        self.ridges = [RidgeState(dim, config.lam, config.gamma_cov)
                       for _ in range(n_arms)]
        self.stats = RewardStats(n_arms)
        self._attention = AttentionParams(config.alpha0, config.kappa)
        self._mu_stack = np.zeros((n_arms, dim))
        # Ridges that keep an inverse are stacked so that one product scores
        # every arm; factored ridges (gamma_cov > 0) are solved per arm.
        self._inv_stack = (np.stack([r.sigma_inv.copy() for r in self.ridges])
                           if self.ridges[0].chol is None else None)
        # (context bytes, ScoreTable, KnnBatch) of the last select()/scores().
        # The stores change only in update(), which consumes and clears it,
        # so a match on the context is exactly what a fresh query returns.
        self._kept: Optional[tuple] = None

    def _table(self, x: np.ndarray) -> Tuple[ScoreTable, Optional[KnnBatch]]:
        """The score table and k-NN pass for a checked context."""
        cfg = self.config
        linear = self._mu_stack @ x
        if self._inv_stack is not None:
            w2 = np.maximum((self._inv_stack @ x) @ x, 0.0)
        else:
            w2 = np.array([r._width_sq(x) for r in self.ridges])
        width = np.sqrt(w2)
        batch = self.bank._pass(x, True) if cfg.use_knn else None
        knn = batch.score.copy() if cfg.use_knn else np.zeros(self.n_arms)
        if cfg.use_attention:
            local = self.stats.local_means()
            g = float(np.add.reduce(local) / self.n_arms)  # local.mean(), bit for bit
            alpha = exploration_rates(self._attention, self.stats.per_arm_count,
                                      g, local)
            if cfg.floor_alpha_at_zero:
                np.maximum(alpha, 0.0, out=alpha)
        else:
            alpha = np.full(self.n_arms, cfg.alpha0)
        ucb = linear + knn + alpha * width
        return ScoreTable(linear=linear, knn=knn, alpha=alpha, width=width,
                          ucb=ucb), batch

    def score_table(self, x: np.ndarray, round: int) -> ScoreTable:
        return self._table(as_context(x, self.dim))[0]

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        self._kept = (x.tobytes(), *self._table(x))
        return self._kept[1].ucb

    def selected_table(self) -> ScoreTable:
        return self._kept[1]

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        kept, self._kept = self._kept, None
        # The residual target is frozen at the selection-round k-NN score,
        # so the pass runs before the add, the one step that can raise.
        knn, u_max = 0.0, 0.0
        if self.config.use_knn:
            hit = kept is not None and kept[0] == x.tobytes()
            batch = kept[2] if hit else self.bank._pass(x, True)
            knn, u_max = float(batch.score[arm]), float(batch.u_max[arm])
            self.bank._add(arm, x, reward)
        ridge = self.ridges[arm]
        ridge._update(x, reward - knn, u_max * u_max)
        self._mu_stack[arm] = ridge.mu_hat
        if self._inv_stack is not None:
            self._inv_stack[arm] = ridge.sigma_inv
        self.stats.record(arm, reward)


def linucb(n_arms: int, dim: int, alpha: float = 1.0, lam: float = 1.0,
           seed: int = 0, tie_break: str = "lowest-index") -> LNUCBTA:
    """Disjoint LinUCB: the hybrid rule with a fixed alpha and no k-NN term."""
    cfg = PolicyConfig(lam=lam, alpha0=as_real(alpha, "alpha"), tie_break=tie_break,
                       use_attention=False, use_knn=False, adaptive_k=False)
    p = LNUCBTA(n_arms, dim, cfg, seed)
    p.name = "linucb"
    return p


def lin_knn_ucb(n_arms: int, dim: int, alpha: float = 1.0, lam: float = 1.0,
                theta_max: int = 5, variance_scale: float = 1.0,
                store_capacity: Optional[int] = None, seed: int = 0,
                tie_break: str = "lowest-index") -> LNUCBTA:
    """Plain linear + k-NN combination: fixed alpha, fixed k = theta_max."""
    cfg = PolicyConfig(lam=lam, alpha0=as_real(alpha, "alpha"), theta_max=theta_max,
                       variance_scale=variance_scale,
                       store_capacity=store_capacity, tie_break=tie_break,
                       use_attention=False, use_knn=True, adaptive_k=False)
    p = LNUCBTA(n_arms, dim, cfg, seed)
    p.name = "lin-knn-ucb"
    return p


class UCB(Policy):
    """Classic UCB on empirical means with bonus rho * sqrt(ln t / N)."""

    name = "ucb"

    def __init__(self, n_arms: int, dim: int = 1, rho: float = 1.0, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        if not (np.isfinite(as_real(rho, "rho")) and rho >= 0):
            raise ValueError("rho must be >= 0")
        self.rho = float(rho)
        self.stats = RewardStats(n_arms)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        counts = self.stats.per_arm_count
        out = np.full(self.n_arms, np.inf)
        pulled = counts > 0
        if pulled.any():
            lt = math.log(max(round + 1, 1))
            out[pulled] = self.stats.local_means()[pulled] + self.rho * np.sqrt(
                lt / counts[pulled])
        return out

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.stats.record(arm, reward)


def bernoulli_kl(p: float, q: float) -> float:
    """KL(Ber(p) || Ber(q)) with the 0 log 0 = 0 convention."""
    eps = 1e-15
    q = min(max(q, eps), 1.0 - eps)
    out = 0.0
    if p > 0:
        out += p * math.log(p / q)
    if p < 1:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def klucb_upper(p: float, budget: float, tol: float = 1e-9,
                max_iter: int = 64) -> float:
    """Largest q in [p, 1] with KL(p, q) <= budget, by bisection."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    p = min(max(p, 0.0), 1.0)
    lo, hi = p, 1.0
    for _ in range(max_iter):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        if bernoulli_kl(p, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


class KLUCB(Policy):
    """KL-UCB for [0, 1] rewards: index from the Bernoulli-KL upper bound."""

    name = "kl-ucb"

    def __init__(self, n_arms: int, dim: int = 1, c: float = 1.0, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        if not (np.isfinite(as_real(c, "c")) and c >= 0):
            raise ValueError("c must be >= 0")
        self.c = float(c)
        self.stats = RewardStats(n_arms)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        counts = self.stats.per_arm_count
        means = self.stats.local_means()
        lt = math.log(max(round + 1, 1))
        out = np.full(self.n_arms, np.inf)
        for a in range(self.n_arms):
            if counts[a] > 0:
                out[a] = klucb_upper(means[a], self.c * lt / counts[a])
        return out

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.stats.record(arm, reward)


class EpsilonGreedy(Policy):
    """Greedy on empirical means; explores uniformly with probability eps."""

    name = "eps-greedy"

    def __init__(self, n_arms: int, dim: int = 1, eps: float = 0.1, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        if not (np.isfinite(as_real(eps, "eps")) and 0.0 <= eps <= 1.0):
            raise ValueError("eps must be in [0, 1]")
        self.eps = float(eps)
        self.stats = RewardStats(n_arms)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return self.stats.local_means()

    def _choose(self, scores: np.ndarray, round: int) -> int:
        rng = round_rng(self.seed, round)
        if self.eps > 0.0 and rng.uniform() < self.eps:
            return int(rng.integers(self.n_arms))
        return argmax_tiebreak(scores, self.tie_break, rng)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.stats.record(arm, reward)


class _BetaCounts:
    """The Beta Thompson policies' posteriors over rewards clipped to [0, 1]."""

    def _init_counts(self, prior_a: float, prior_b: float) -> None:
        for name, prior in (("prior_a", prior_a), ("prior_b", prior_b)):
            if not (math.isfinite(as_real(prior, name)) and prior > 0):
                raise ValueError(f"{name} must be positive and finite")
        self.prior_a, self.prior_b = float(prior_a), float(prior_b)
        self._succ = np.zeros(self.n_arms)
        self._fail = np.zeros(self.n_arms)

    def _count(self, arm: int, reward: float) -> None:
        r = min(max(reward, 0.0), 1.0)
        self._succ[arm] += r
        self._fail[arm] += 1.0 - r


class BetaThompson(Policy, _BetaCounts):
    """Beta-Bernoulli Thompson sampling; rewards are clipped into [0, 1]."""

    name = "beta-thompson"

    def __init__(self, n_arms: int, dim: int = 1, prior_a: float = 1.0,
                 prior_b: float = 1.0, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self._init_counts(prior_a, prior_b)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = round_rng(self.seed, round)
        return rng.beta(self.prior_a + self._succ, self.prior_b + self._fail)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self._count(arm, reward)


class _RidgeDraws:
    """Per-arm ridge posteriors and their Cholesky-factored Gaussian draws.

    Shared by the linear Thompson policies; each arm's factor of Sigma^-1 is
    computed lazily and dropped when that arm's ridge state changes.
    """

    def _init_ridges(self, v: float, lam: float) -> None:
        if not (np.isfinite(as_real(v, "v")) and v >= 0):
            raise ValueError("v must be >= 0")
        self.v = float(v)
        self.ridge = [RidgeState(self.dim, lam) for _ in range(self.n_arms)]
        self._chol = [None] * self.n_arms

    def _noise(self, rng: np.random.Generator, arm: int) -> np.ndarray:
        """chol(Sigma^-1) @ z for the arm's next standard-normal draw z."""
        if self._chol[arm] is None:
            self._chol[arm] = np.linalg.cholesky(self.ridge[arm].sigma_inv)
        return self._chol[arm] @ rng.standard_normal(self.dim)

    def _fold(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.ridge[arm]._update(x, reward, 0.0)
        self._chol[arm] = None


class LinThompson(Policy, _RidgeDraws):
    """Disjoint linear Thompson sampling: score x . mu_tilde, mu_tilde ~ N(mu_hat, v^2 Sigma^-1)."""

    name = "linthompson"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0, lam: float = 1.0,
                 seed: int = 0, tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self._init_ridges(v, lam)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = round_rng(self.seed, round)
        out = np.empty((self.n_arms, self.dim))
        for a in range(self.n_arms):
            out[a] = self.ridge[a].mu_hat + self.v * self._noise(rng, a)
        return out @ x

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self._fold(arm, x, reward)


class KnnUCB(Policy):
    """Neighbor-mean estimate plus a distance-scaled bonus rho * u_k.

    Stand-in for the nonparametric UCB baseline family: the adaptive k of the
    hybrid rule supplies the neighborhood (an arm holding fewer than k
    entries uses all of them), and the largest selected distance acts as
    the uncertainty scale.  Unpulled arms score +inf.
    """

    name = "knn-ucb"

    def __init__(self, n_arms: int, dim: int, rho: float = 1.0, theta_min: int = 1,
                 theta_max: int = 5, variance_scale: float = 1.0,
                 store_capacity: Optional[int] = None, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        if not (np.isfinite(as_real(rho, "rho")) and rho >= 0):
            raise ValueError("rho must be >= 0")
        self.rho = float(rho)
        self.bank = NeighborBank(n_arms, dim, store_capacity, theta_min,
                                 theta_max, variance_scale)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        batch = self.bank._pass(x, False)
        return np.where(batch.applied, batch.score + self.rho * batch.u_max,
                        np.inf)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.bank._add(arm, x, reward)


class KnnKLUCB(KnnUCB):
    """Neighbor-mean KL-UCB: Bernoulli-KL upper bound with the neighbor count as evidence."""

    name = "knn-kl-ucb"

    def __init__(self, n_arms: int, dim: int, c: float = 1.0, theta_min: int = 1,
                 theta_max: int = 5, variance_scale: float = 1.0,
                 store_capacity: Optional[int] = None, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, 0.0, theta_min, theta_max, variance_scale,
                         store_capacity, seed, tie_break)
        if not (np.isfinite(as_real(c, "c")) and c >= 0):
            raise ValueError("c must be >= 0")
        self.c = float(c)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        batch = self.bank._pass(x, False)
        lt = math.log(max(round + 1, 1))
        out = np.full(self.n_arms, np.inf)
        for a in np.flatnonzero(batch.applied).tolist():
            out[a] = klucb_upper(float(batch.score[a]),
                                 self.c * lt / int(batch.k_used[a]))
        return out


class RandomPolicy(Policy):
    """Uniform-random arm choice; the sanity anchor for regret diagnostics."""

    name = "random"

    def __init__(self, n_arms: int, dim: int = 1, seed: int = 0):
        super().__init__(n_arms, dim, seed)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return round_rng(self.seed, round).uniform(size=self.n_arms)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        pass  # nothing to learn


class _EnhancedBase(Policy):
    """Shared plumbing for the attention-and-knn augmented baselines.

    Value estimates gain the adaptive k-NN score; the base policy's
    exploration knob is scaled by the softmax attention weight of the arm
    (fewer pulls mean more weight).
    """

    def __init__(self, n_arms: int, dim: int, gamma_sm: float = 1.0,
                 theta_min: int = 1, theta_max: int = 5,
                 variance_scale: float = 1.0,
                 store_capacity: Optional[int] = None, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        if not (np.isfinite(as_real(gamma_sm, "gamma_sm")) and gamma_sm >= 0):
            raise ValueError("gamma_sm must be >= 0")
        self.gamma_sm = float(gamma_sm)
        self.bank = NeighborBank(n_arms, dim, store_capacity, theta_min,
                                 theta_max, variance_scale)
        self.stats = RewardStats(n_arms)

    def attention_weights(self) -> np.ndarray:
        return softmax_attention(self.stats.per_arm_count, self.gamma_sm)

    def knn_vector(self, x: np.ndarray) -> np.ndarray:
        return self.bank._pass(x, True).score

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.bank._add(arm, x, reward)  # first: the one step that can raise
        self.stats.record(arm, reward)


class EnhancedEpsilonGreedy(_EnhancedBase):
    """Epsilon-greedy over knn-augmented means with attention-scaled epsilon.

    The explore probability becomes eps times the attention weight of the
    greedy arm, so a heavily pulled favorite damps exploration.
    """

    name = "enhanced-eps-greedy"

    def __init__(self, n_arms: int, dim: int, eps: float = 0.1, **kw):
        super().__init__(n_arms, dim, **kw)
        if not (np.isfinite(as_real(eps, "eps")) and 0.0 <= eps <= 1.0):
            raise ValueError("eps must be in [0, 1]")
        self.eps = float(eps)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return self.stats.local_means() + self.knn_vector(x)

    def _choose(self, scores: np.ndarray, round: int) -> int:
        rng = round_rng(self.seed, round)
        greedy = argmax_tiebreak(scores, "lowest-index")
        eps_eff = self.eps * float(self.attention_weights()[greedy])
        if eps_eff > 0.0 and rng.uniform() < eps_eff:
            return int(rng.integers(self.n_arms))
        if self.tie_break == "seeded-random":
            return argmax_tiebreak(scores, self.tie_break, rng)
        return greedy


class EnhancedBetaThompson(_EnhancedBase, _BetaCounts):
    """Thompson sampling whose posterior draw is attention-scaled and knn-shifted.

    Score = posterior mean + (draw - posterior mean) * weight + knn score;
    uniform pull counts leave the draw untouched.
    """

    name = "enhanced-beta-thompson"

    def __init__(self, n_arms: int, dim: int, prior_a: float = 1.0,
                 prior_b: float = 1.0, **kw):
        super().__init__(n_arms, dim, **kw)
        self._init_counts(prior_a, prior_b)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = round_rng(self.seed, round)
        a = self.prior_a + self._succ
        b = self.prior_b + self._fail
        draw = rng.beta(a, b)
        post_mean = a / (a + b)
        w = self.attention_weights() * self.n_arms
        return post_mean + (draw - post_mean) * w + self.knn_vector(x)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        super()._update(arm, x, reward)
        self._count(arm, reward)


class EnhancedLinThompson(_EnhancedBase, _RidgeDraws):
    """Linear Thompson sampling with attention-scaled draws and knn shift."""

    name = "enhanced-linthompson"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0, lam: float = 1.0,
                 **kw):
        super().__init__(n_arms, dim, **kw)
        self._init_ridges(v, lam)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = round_rng(self.seed, round)
        w = self.attention_weights() * self.n_arms
        out = np.empty(self.n_arms)
        for a in range(self.n_arms):
            mean = self.ridge[a].predict(x)
            draw = mean + self.v * float(x @ self._noise(rng, a))
            out[a] = mean + (draw - mean) * w[a]
        return out + self.knn_vector(x)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        super()._update(arm, x, reward)
        self._fold(arm, x, reward)


def _lnucb_ta(n_arms: int, dim: int, seed: int = 0, **config) -> LNUCBTA:
    """The hybrid policy built from PolicyConfig keywords."""
    return LNUCBTA(n_arms, dim, PolicyConfig(**config), seed)


# Policy id -> factory(n_arms, dim, seed=..., **params).  Each id's accepted
# parameters are derived from its factory by _param_keys.
POLICIES: Dict[str, Callable[..., Policy]] = {
    "lnucb-ta": _lnucb_ta,
    "linucb": linucb,
    "lin-knn-ucb": lin_knn_ucb,
    "ucb": UCB,
    "kl-ucb": KLUCB,
    "eps-greedy": EpsilonGreedy,
    "beta-thompson": BetaThompson,
    "linthompson": LinThompson,
    "knn-ucb": KnnUCB,
    "knn-kl-ucb": KnnKLUCB,
    "random": RandomPolicy,
    "enhanced-eps-greedy": EnhancedEpsilonGreedy,
    "enhanced-beta-thompson": EnhancedBetaThompson,
    "enhanced-linthompson": EnhancedLinThompson,
}


def _param_keys(factory: Callable[..., Policy]) -> frozenset:
    """Keyword names a factory accepts besides n_arms, dim and seed.

    A class whose __init__ takes **kw hands them to its base class, so the
    walk follows the MRO to the first __init__ without **kw.  The hybrid's
    keywords are the PolicyConfig fields.
    """
    if factory is _lnucb_ta:
        return frozenset(f.name for f in fields(PolicyConfig))
    inits = ([c.__init__ for c in factory.__mro__ if "__init__" in vars(c)]
             if isinstance(factory, type) else [factory])
    keys = set()
    for init in inits:
        params = inspect.signature(init).parameters.values()
        keys.update(p.name for p in params
                    if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))
        if all(p.kind is not p.VAR_KEYWORD for p in params):
            break
    return frozenset(keys - {"self", "n_arms", "dim", "seed"})


POLICY_PARAM_KEYS = {pid: _param_keys(f) for pid, f in POLICIES.items()}


def make_policy(policy_id: str, n_arms: int, dim: int, seed: int = 0,
                **params) -> Policy:
    """Build a policy by its canonical id with keyword parameters."""
    if policy_id not in POLICIES:
        raise ValueError(f"unknown policy id {policy_id!r}; valid ids: "
                         f"{', '.join(POLICIES)}")
    unknown = set(params) - POLICY_PARAM_KEYS[policy_id]
    if unknown:
        raise ValueError(f"unknown {policy_id} parameters: {sorted(unknown)}")
    return POLICIES[policy_id](n_arms, dim, seed=seed, **params)
