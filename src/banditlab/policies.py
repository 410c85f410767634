"""LNUCB-TA and the baseline bandit algorithms behind one policy interface."""
from __future__ import annotations

import inspect
import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .attention import (AttentionParams, RewardStats, exploration_rates,
                        softmax_attention)
from .core import (Policy, ScoreTable, argmax_tiebreak, as_bool, as_context,
                   as_nonneg, as_positive)
from . import _cstep
from .knn import KnnBatch, NeighborBank
from .linear import DRIFT_CHECK_EVERY, RidgeState, _lapack, widths_sq


class _Compiled(_cstep.Cached):
    """What the compiled steps take of a policy: its ``round_t``, cached from its
    ``_fields()`` (None: numpy's round only), and its bank's ``bank_t``.  LNUCBTA,
    KnnUCB and the drawing kinds run whole runs through them too."""

    def _compiled(self) -> Optional[tuple]:
        """(round_t, bank_t or NULL) for the compiled steps, or None for numpy's."""
        bank = getattr(self, "bank", None)
        args = bank._args() if bank else _cstep.BLAS and _cstep.STEP.ffi.NULL
        if args is not None and self._c is None and (fields := self._fields()):
            self._c = _cstep.struct("round_t", **fields)
        return None if self._c is None or args is None else (self._c, args)

    def _done(self, arm: int, code: int) -> None:
        """After update_round's code for the arm: grow the arm its add filled
        (4), then run the drift check it left due (1, or 2: a lost diagonal)."""
        if code & 4:
            self.bank._grow(arm)
        if code & 3:
            self.ridges[arm]._rank_one_done(code & 3 == 2)

    def _runs_in_c(self) -> bool:
        """Whether _run can take rounds: the compiled steps, the lowest-index
        rule and no subclass, whose methods a run must call."""
        return (type(self) in (LNUCBTA, KnnUCB, EpsilonGreedy, BetaThompson, RandomPolicy)
                and self.tie_break == "lowest-index" and self._compiled() is not None)

    def _draws(self, flags: int, **fields) -> Optional[dict]:
        """A drawing kind's fields (``_cstep.draw_arm``'s: C reseeds the generator
        ``_rng`` keeps and draws on it), or None where it keeps none or the draws
        are not checked."""
        if not (_cstep.ROUND_SEED and _cstep.DRAWS and self.seed < 2 ** 64):
            return None
        self._table_rows = np.zeros(self.n_arms)
        return dict(table=self._table_rows, n=self.n_arms, d=self.dim, flags=flags, seed=self.seed,
                    bitgen=self._rng(0).bit_generator.ctypes.bit_generator.value, **fields)

    def _run(self, contexts: np.ndarray, rewards: np.ndarray, arms: int,
             log: Optional[np.ndarray], at: Optional[np.ndarray], t: int, out: np.ndarray) -> int:
        """``_cstep.run_rounds`` from round t, each reward into out, and each row
        growth and drift check it leaves; returns the round select and update take,
        or the episode's end.  log, at: a replay's arms and cursor, else None."""
        run = _cstep.struct("run_t", xs=contexts, rw=rewards, out=out, log=log, at=at, t=t,
                            n=len(out), arms=arms)
        while _cstep.STEP.lib.run_rounds(run, *self._compiled()):
            self._done(run.arm, run.code)  # _grow re-points the bank_t
        return run.t


class _Ridges(_Compiled):
    """A policy's ridges as rows of stacks (mu_hat, the inverse or L^T, sigma,
    b, bound and drift count) and the ``round_t`` (see ``_cstep``) that hands
    them, its stats and table to C: one call scores every arm or updates one."""

    def _init_ridges(self, lam: float, gamma_cov: float = 0.0, **scoring) -> None:
        n, d = self.n_arms, self.dim
        self._mu_stack, self._bs = np.zeros((n, d)), np.zeros((n, d))
        self._squares, self._sigmas = np.zeros((n, d, d)), np.zeros((n, d, d))
        self._scales, self._drifts = np.zeros((n, 1)), np.zeros((n, 1), np.int64)
        self.ridges = [RidgeState(d, lam, gamma_cov, rows) for rows in self._rows()]
        self._table_rows = np.zeros((5 + d, n))  # the compiled round's table, n x d scratch
        self._scoring = scoring  # the round_t's score fields
        self._compiled()  # here, outside a run's clock; a copy builds its own at first use

    def _rows(self):
        return zip(self._mu_stack, self._squares, self._sigmas, self._bs, self._scales,
                   self._drifts)

    def __setstate__(self, state) -> None:
        # A copy's stacks are new arrays: its ridges view their rows again.
        vars(self).update(state)
        for ridge, rows in zip(self.ridges, self._rows()):
            ridge._bind(rows)

    def _fields(self) -> Optional[dict]:
        ridge, stats = self.ridges[0], getattr(self, "stats", None)
        lapack = (0, 0, 0) if ridge.chol is None else _lapack()[1]
        return lapack and dict(
            table=self._table_rows, mu=self._mu_stack, squares=self._squares,
            sigmas=self._sigmas, bs=self._bs, v=self._table_rows[5:], scales=self._scales,
            drift=self._drifts, stat_sum=stats and stats.per_arm_sum,
            stat_count=stats and stats.per_arm_count, every=DRIFT_CHECK_EVERY,
            scale_max=ridge._scale_max, gamma=ridge.gamma_cov, n=self.n_arms, d=self.dim,
            widths=2 if lapack[2] == 0 else 1, trtrs=lapack[2], potrf=lapack[0],
            potrs=lapack[1], gemv=_cstep.BLAS[0], ddot=_cstep.BLAS[1], **self._scoring)

    def _ridge_update(self, arm: int, x: np.ndarray, reward: float, knn: float = 0.0,
                      u_max: float = 0.0, add: bool = False) -> None:
        """Fold (x, reward - knn) into the arm's ridge (e = u_max^2), add (x,
        reward) to the bank if ``add`` and record it in the stats, if any: in
        one C call unless it declines, else in numpy, every check (the ridge's
        first) before any change (the ridge's first), the drift check last."""
        ridge, stats = self.ridges[arm], getattr(self, "stats", None)
        bank, c = getattr(self, "bank", None), self._compiled()
        if c:
            due = _cstep.STEP.lib.update_round(arm, x.tobytes(), reward, knn, u_max,
                                               int(bank._adds[0]) if add else 0, add, *c)
            if due >= 0:
                self._done(arm, due)
                return
        scale = ridge._check(x, reward - knn, u_max * u_max)
        if add:
            bank._check_reward(arm, reward)
        total = None if stats is None else stats._sum_after(arm, reward)
        lost = ridge._update(x, reward - knn, u_max * u_max, scale)
        if add:
            bank._put(arm, x, reward, int(bank._adds[0]))
        if stats is not None:
            stats.record(arm, reward, total)
        ridge._rank_one_done(lost)


class LNUCBTA(_Ridges, Policy):
    """Hybrid linear + adaptive k-NN policy with temporal-attention exploration.

    Per-arm disjoint ridge regression fits the residual reward minus the k-NN
    score; the selection rule is ucb = linear + knn + alpha * width with
    alpha = alpha0/(N+1) * (kappa*g + (1-kappa)*n) when attention is enabled.
    use_attention=False freezes alpha at alpha0; use_knn=False drops the
    neighbor estimator entirely; theta_min = theta_max fixes k.
    """

    name = "lnucb-ta"

    def __init__(self, n_arms: int, dim: int, *, lam: float = 1.0,
                 alpha0: float = 1.0, kappa: float = 0.5, theta_min: int = 1,
                 theta_max: int = 5, gamma_cov: float = 0.0,
                 variance_scale: float = 1.0, floor_alpha_at_zero: bool = False,
                 tie_break: str = "lowest-index",
                 store_capacity: Optional[int] = None, use_attention: bool = True,
                 use_knn: bool = True, seed: int = 0):
        super().__init__(n_arms, dim, seed, tie_break)
        self.floor_alpha_at_zero = as_bool(floor_alpha_at_zero, "floor_alpha_at_zero")
        self.use_attention = as_bool(use_attention, "use_attention")
        self.use_knn = as_bool(use_knn, "use_knn")
        self.bank = NeighborBank(n_arms, dim, store_capacity, theta_min, theta_max,
                                 variance_scale)
        self.stats = RewardStats(n_arms)
        self._attention = AttentionParams(alpha0, kappa)
        # (context bytes, ScoreTable, KnnBatch, argmax) of the last select()
        # or scores().  The stores change only in update(), which consumes and
        # clears it, so a match on the context is what a fresh query returns.
        self._kept: Optional[tuple] = None
        self._init_ridges(lam, gamma_cov, alpha0=self._attention.alpha0,
                          kappa=self._attention.kappa, flags=self.use_knn + 2 * self.use_attention
                          + 4 * (self.use_attention and self.floor_alpha_at_zero))

    def _table(self, x: np.ndarray) -> Tuple[ScoreTable, Optional[KnnBatch], Optional[int]]:
        """The score table, k-NN pass and, from the compiled round, the
        lowest-index argmax, for a checked context."""
        bank, c = self.bank, self._compiled()
        if c:  # else the numpy step
            batch, best = bank._query(None if self.use_knn else [], x, None, True, c[0])
            return ScoreTable(*self._table_rows[:5].copy()), batch if self.use_knn else None, best
        batch = bank._pass(x, True) if self.use_knn else None
        linear = self._mu_stack @ x
        width = np.sqrt(widths_sq(self.ridges, self._squares, x))
        knn = batch.score.copy() if self.use_knn else np.zeros(self.n_arms)
        # Silent where a rate or bonus overflows (inf, or NaN as inf * 0), as in C.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.use_attention:
                local = self.stats.local_means()
                g = float(np.add.reduce(local) / self.n_arms)  # local.mean(), bit for bit
                alpha = exploration_rates(self._attention, self.stats.per_arm_count,
                                          g, local)
                if self.floor_alpha_at_zero:
                    np.maximum(alpha, 0.0, out=alpha)
            else:
                alpha = np.full(self.n_arms, self._attention.alpha0)
            ucb = linear + knn + alpha * width
        return ScoreTable(linear=linear, knn=knn, alpha=alpha, width=width,
                          ucb=ucb), batch, None

    def score_table(self, x: np.ndarray, round: int) -> ScoreTable:
        return self._table(as_context(x, self.dim))[0]

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        self._kept = (x.tobytes(), *self._table(x))
        return self._kept[1].ucb

    def selected_table(self) -> ScoreTable:
        return self._kept[1]

    def _choose(self, scores: np.ndarray, round: int) -> int:
        best = self._kept[3]  # the compiled round's argmax of these scores
        if best is None or self.tie_break != "lowest-index":
            return super()._choose(scores, round)
        return best

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        kept, self._kept = self._kept, None
        # The residual target is frozen at the selection-round k-NN score, so
        # the pass runs before the add.
        knn = u_max = 0.0
        if self.use_knn:
            batch = (kept[2] if kept is not None and kept[0] == x.tobytes()
                     else self.bank._pass(x, True))
            knn, u_max = float(batch.score[arm]), float(batch.u_max[arm])
        self._ridge_update(arm, x, reward, knn, u_max, self.use_knn)


def linucb(n_arms: int, dim: int, alpha: float = 1.0, lam: float = 1.0,
           seed: int = 0, tie_break: str = "lowest-index") -> LNUCBTA:
    """Disjoint LinUCB: the hybrid rule with a fixed alpha and no k-NN term."""
    p = LNUCBTA(n_arms, dim, lam=lam, alpha0=as_nonneg(alpha, "alpha"),
                tie_break=tie_break, use_attention=False, use_knn=False, seed=seed)
    p.name = "linucb"
    return p


def lin_knn_ucb(n_arms: int, dim: int, alpha: float = 1.0, lam: float = 1.0,
                theta_max: int = 5, variance_scale: float = 1.0,
                store_capacity: Optional[int] = None, seed: int = 0,
                tie_break: str = "lowest-index") -> LNUCBTA:
    """Plain linear + k-NN combination: fixed alpha, fixed k = theta_max."""
    p = LNUCBTA(n_arms, dim, lam=lam, alpha0=as_nonneg(alpha, "alpha"),
                theta_min=theta_max, theta_max=theta_max,
                variance_scale=variance_scale, store_capacity=store_capacity,
                tie_break=tie_break, use_attention=False, seed=seed)
    p.name = "lin-knn-ucb"
    return p


class UCB(Policy):
    """Classic UCB on empirical means with bonus rho * sqrt(ln t / N)."""

    name = "ucb"

    def __init__(self, n_arms: int, dim: int = 1, rho: float = 1.0, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self.rho = as_nonneg(rho, "rho")
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
        self.c = as_nonneg(c, "c")
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


class EpsilonGreedy(_Compiled, Policy):
    """Greedy on empirical means; explores uniformly with probability eps."""

    name = "eps-greedy"

    def __init__(self, n_arms: int, dim: int = 1, eps: float = 0.1, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self.eps = as_nonneg(eps, "eps", 1.0)
        self.stats = RewardStats(n_arms)
        self._compiled()  # here, outside a run's clock

    def _fields(self) -> Optional[dict]:
        return self._draws(16, alpha0=self.eps, stat_sum=self.stats.per_arm_sum,
                           stat_count=self.stats.per_arm_count)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return self.stats.local_means()

    def _choose(self, scores: np.ndarray, round: int) -> int:
        rng = self._rng(round)
        if self.eps > 0.0 and rng.uniform() < self.eps:
            return int(rng.integers(self.n_arms))
        return argmax_tiebreak(scores, self.tie_break, rng)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self.stats.record(arm, reward)


class _BetaCounts:
    """The Beta Thompson policies' posteriors over rewards clipped to [0, 1]."""

    def _init_counts(self, prior_a: float, prior_b: float) -> None:
        self.prior_a = as_positive(prior_a, "prior_a")
        self.prior_b = as_positive(prior_b, "prior_b")
        self._succ = np.zeros(self.n_arms)
        self._fail = np.zeros(self.n_arms)

    def _count(self, arm: int, reward: float) -> None:
        r = min(max(reward, 0.0), 1.0)
        self._succ[arm] += r
        self._fail[arm] += 1.0 - r


class BetaThompson(_Compiled, Policy, _BetaCounts):
    """Beta-Bernoulli Thompson sampling; rewards are clipped into [0, 1]."""

    name = "beta-thompson"

    def __init__(self, n_arms: int, dim: int = 1, prior_a: float = 1.0,
                 prior_b: float = 1.0, seed: int = 0,
                 tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self._init_counts(prior_a, prior_b)
        self._compiled()

    def _fields(self) -> Optional[dict]:
        return self._draws(32, alpha0=self.prior_a, kappa=self.prior_b, succ=self._succ,
                           fail=self._fail)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = self._rng(round)
        return rng.beta(self.prior_a + self._succ, self.prior_b + self._fail)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self._count(arm, reward)


class _RidgeDraws(_Ridges):
    """Per-arm ridge posteriors and their Cholesky-factored Gaussian draws.

    Shared by the linear Thompson policies; each arm's factor of Sigma^-1 is
    computed lazily and dropped when that arm's ridge state changes.
    """

    def _init_draws(self, v: float, lam: float) -> None:
        self.v = as_nonneg(v, "v")
        self._init_ridges(lam)
        self._chol = [None] * self.n_arms

    def _noise(self, rng: np.random.Generator, arm: int) -> np.ndarray:
        """chol(Sigma^-1) @ z for the arm's next standard-normal draw z."""
        if self._chol[arm] is None:
            self._chol[arm] = np.linalg.cholesky(self.ridges[arm].sigma_inv)
        return self._chol[arm] @ rng.standard_normal(self.dim)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        self._ridge_update(arm, x, reward, add=hasattr(self, "bank"))
        self._chol[arm] = None


class LinThompson(_RidgeDraws, Policy):
    """Disjoint linear Thompson sampling: score x . mu_tilde, mu_tilde ~ N(mu_hat, v^2 Sigma^-1)."""

    name = "linthompson"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0, lam: float = 1.0,
                 seed: int = 0, tie_break: str = "lowest-index"):
        super().__init__(n_arms, dim, seed, tie_break)
        self._init_draws(v, lam)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = self._rng(round)
        out = np.empty((self.n_arms, self.dim))
        for a in range(self.n_arms):
            out[a] = self.ridges[a].mu_hat + self.v * self._noise(rng, a)
        return out @ x


class KnnUCB(_Compiled, Policy):
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
        self.rho = as_nonneg(rho, "rho")
        self.bank = NeighborBank(n_arms, dim, store_capacity, theta_min,
                                 theta_max, variance_scale)
        self._table_rows = np.zeros((5, self.n_arms))

    def _fields(self) -> dict:  # the run's k-NN scores and knn-ucb's ucb (flags 9)
        return dict(table=self._table_rows, alpha0=self.rho, n=self.n_arms, d=self.dim, flags=9)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        batch = self.bank._pass(x, False)
        with np.errstate(over="ignore"):  # an infinite bonus, as in C
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
        self.c = as_nonneg(c, "c")

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        batch = self.bank._pass(x, False)
        lt = math.log(max(round + 1, 1))
        out = np.full(self.n_arms, np.inf)
        for a in np.flatnonzero(batch.applied).tolist():
            out[a] = klucb_upper(float(batch.score[a]),
                                 self.c * lt / int(batch.k_used[a]))
        return out


class RandomPolicy(_Compiled, Policy):
    """Uniform-random arm choice; the sanity anchor for regret diagnostics."""

    name = "random"

    def __init__(self, n_arms: int, dim: int = 1, seed: int = 0):
        super().__init__(n_arms, dim, seed)
        self._compiled()

    def _fields(self) -> Optional[dict]:
        return self._draws(64)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return self._rng(round).uniform(size=self.n_arms)

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
        self.gamma_sm = as_nonneg(gamma_sm, "gamma_sm")
        self.bank = NeighborBank(n_arms, dim, store_capacity, theta_min,
                                 theta_max, variance_scale)
        self.stats = RewardStats(n_arms)

    def attention_weights(self) -> np.ndarray:
        return softmax_attention(self.stats.per_arm_count, self.gamma_sm)

    def knn_vector(self, x: np.ndarray) -> np.ndarray:
        return self.bank._pass(x, True).score

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        total = self.stats._sum_after(arm, reward)  # both checks (this, _add's) before any change
        self.bank._add(arm, x, reward)
        self.stats.record(arm, reward, total)


class EnhancedEpsilonGreedy(_EnhancedBase):
    """Epsilon-greedy over knn-augmented means with attention-scaled epsilon.

    The explore probability becomes eps times the attention weight of the
    greedy arm, so a heavily pulled favorite damps exploration.
    """

    name = "enhanced-eps-greedy"

    def __init__(self, n_arms: int, dim: int, eps: float = 0.1, **kw):
        super().__init__(n_arms, dim, **kw)
        self.eps = as_nonneg(eps, "eps", 1.0)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        return self.stats.local_means() + self.knn_vector(x)

    def _choose(self, scores: np.ndarray, round: int) -> int:
        rng = self._rng(round)
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
        rng = self._rng(round)
        a = self.prior_a + self._succ
        b = self.prior_b + self._fail
        draw = rng.beta(a, b)
        post_mean = a / (a + b)
        w = self.attention_weights() * self.n_arms
        return post_mean + (draw - post_mean) * w + self.knn_vector(x)

    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        super()._update(arm, x, reward)
        self._count(arm, reward)


class EnhancedLinThompson(_RidgeDraws, _EnhancedBase):
    """Linear Thompson sampling with attention-scaled draws and knn shift."""

    name = "enhanced-linthompson"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0, lam: float = 1.0,
                 **kw):
        super().__init__(n_arms, dim, **kw)
        self._init_draws(v, lam)

    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        rng = self._rng(round)
        w = self.attention_weights() * self.n_arms
        out = np.empty(self.n_arms)
        for a in range(self.n_arms):
            mean = self.ridges[a].predict(x)
            draw = mean + self.v * float(x @ self._noise(rng, a))
            out[a] = mean + (draw - mean) * w[a]
        return out + self.knn_vector(x)


# Policy id -> factory(n_arms, dim, seed=..., **params).  Each id's accepted
# parameters are derived from its factory by _param_keys.
POLICIES: Dict[str, Callable[..., Policy]] = {
    "lnucb-ta": LNUCBTA,
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
    walk follows the MRO to the first __init__ without **kw.
    """
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
