"""Per-arm neighbor store and the variance-adaptive k-NN reward estimator."""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _cstep
from .core import as_context, as_int, as_positive, as_reward


@dataclass(frozen=True)
class KnnScore:
    """Result of one k-NN query: mean neighbor reward plus uncertainty radius."""

    score: float
    k_used: int
    u_max: float
    applied: bool

    @staticmethod
    def not_applied() -> "KnnScore":
        return KnnScore(score=0.0, k_used=0, u_max=0.0, applied=False)


# The largest theta_max: both rounds' select_k is exact up to here, and a k
# that large only gates, since no store holds that many entries.
THETA_MAX = 2 ** 53


class NeighborBank(_cstep.Cached):
    """(context, reward, round) histories of several arms.

    Each arm keeps four arrays of one length: its contexts, rounds, squared
    norms and rewards.  Its n entries sit oldest-first at [start, end) of
    all four.  Rounds are strictly increasing per arm, so entry order is
    insertion order.

    Without a capacity the arrays are 16 long and double once an add fills
    them.  With one, they are twice the capacity long: a full arm drops its
    oldest entry by moving start forward, and a window that reaches the end
    is copied back to position 0.

    The bank owns each arm's adaptive k, select_k of its window's reward
    variance times variance_scale (the defaults pin k at 1) after each add.
    Policies feed it through ``_add`` and score every arm with its own k in
    one ``_pass`` per round.  Each arm's window and k are int64
    ``array.array``s, which the compiled steps write in place.
    """

    def __init__(self, n_arms: int, dim: int, capacity: Optional[int] = None,
                 theta_min: int = 1, theta_max: int = 1,
                 variance_scale: float = 1.0):
        self.n_arms = n_arms = as_int(n_arms, "n_arms", 1)
        self.dim = dim = as_int(dim, "dim", 1)
        if capacity is not None:
            capacity = as_int(capacity, "store_capacity", 1)
        # theta_max first: a fixed k passes it as theta_min too.
        self.theta_max = as_int(theta_max, "theta_max")
        self.theta_min = as_int(theta_min, "theta_min")
        if not 1 <= self.theta_min <= self.theta_max <= THETA_MAX:
            raise ValueError("need 1 <= theta_min <= theta_max <= 2**53")
        self.variance_scale = as_positive(variance_scale, "variance_scale")
        self.capacity = capacity
        length = 2 * capacity if capacity is not None else 16
        self._ctx = [np.empty((length, dim)) for _ in range(n_arms)]
        self._rounds = [np.empty(length, np.int64) for _ in range(n_arms)]
        self._norm2 = [np.empty(length) for _ in range(n_arms)]
        self._rewards = [np.empty(length) for _ in range(n_arms)]
        self._start, self._end = array("q", [0] * n_arms), array("q", [0] * n_arms)
        self._ks = array("q", [self.theta_min] * n_arms)  # an empty arm's variance is 0
        self._adds = np.zeros(1, np.int64)  # the add count, in an array C writes
        self._res = np.zeros(3 * n_arms)  # the compiled pass's KnnBatch fields

    def store(self, arm: int) -> "NeighborStore":
        """A NeighborStore view of one arm's entries."""
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        return NeighborStore._row(self, arm)

    def _arrays(self):
        """The per-arm lists of contexts, rounds, squared norms and rewards."""
        return self._ctx, self._rounds, self._norm2, self._rewards

    def _grow(self, arm: int) -> None:
        """Double an uncapped arm's four arrays, and point the cached bank_t at
        them (with a larger scratch if this arm is now the longest)."""
        wide, c = max(map(len, self._rounds)), self._c
        for name, bufs in zip(("ctx", "rounds", "norm2", "rewards"), self._arrays()):
            bufs[arm] = np.concatenate([bufs[arm], np.empty_like(bufs[arm])])
            if c is not None:
                _cstep.point(c, name, bufs[arm], arm)
        if c is not None:
            c.lens[arm] = n = len(self._rounds[arm])
            if n > wide:
                _cstep.point(c, "scratch", np.empty(3 * n))

    def add(self, arm: int, context, reward: float, round: int) -> None:
        arm, round = as_int(arm, "arm", 0), as_int(round, "round", 0)
        if arm >= self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        if round >= 2 ** 63:  # no int64 slot holds it
            raise ValueError("round must be < 2**63")
        x = as_context(context, self.dim)
        start, end = self._start[arm], self._end[arm]
        if round <= (self._rounds[arm][end - 1] if end > start else -1):
            raise ValueError("rounds must be strictly increasing")
        self._add(arm, x, as_reward(reward), round)

    def _check_reward(self, arm: int, reward: float) -> None:
        """ValueError, changing nothing, where 8 times the sum of the arm's squared
        rewards with ``reward`` (less the oldest, when the arm is full) overflows:
        the headroom keeps reward_variance finite."""
        start, end = self._start[arm], self._end[arm]
        kept = self._rewards[arm][start + (end - start == self.capacity):end]
        if not math.isfinite(8.0 * (float(np.add.reduce(kept * kept)) + reward * reward)):
            raise ValueError(f"reward {reward!r} overflows arm {arm}'s reward sums")

    def _add(self, arm: int, x: np.ndarray, reward: float,
             round: Optional[int] = None) -> None:
        """add() for a checked context and reward, at a round after the arm's
        last (None: the bank's add count).  The compiled update makes the add
        in one call, unless it declines; a reward _check_reward rejects raises
        before anything changes.  Either grows an uncapped row the add fills."""
        round = int(self._adds[0]) if round is None else round
        c = self._args()
        code = c and _cstep.STEP.lib.update_round(arm, x.tobytes(), reward, 0.0, 0.0, round, 1,
                                                  _cstep.STEP.ffi.NULL, c)
        if c and code >= 0:
            if code:  # 4: the row is full
                self._grow(arm)
            return
        self._check_reward(arm, reward)
        self._put(arm, x, reward, round)

    def _put(self, arm: int, x: np.ndarray, reward: float, round: int) -> None:
        """_add's numpy half, for a reward _check_reward passed."""
        start, end = self._start[arm], self._end[arm]
        n = end - start
        self._adds[0] += 1
        if n == self.capacity:  # the oldest entry is evicted
            start, n = start + 1, n - 1
        if end == len(self._rounds[arm]):  # a capped window moves to 0
            for bufs in self._arrays():
                bufs[arm][:n] = bufs[arm][start:end]
            start, end = 0, n
        for bufs, v in zip(self._arrays(), (x, round, float(x.dot(x)), reward)):
            bufs[arm][end] = v
        self._start[arm], self._end[arm] = start, end + 1
        if self.theta_min < self.theta_max:
            self._ks[arm] = _pick_k(_variance(self._rewards[arm][start:end + 1])
                                    * self.variance_scale, self.theta_min, self.theta_max)
        if self.capacity is None and end + 1 == len(self._rounds[arm]):
            self._grow(arm)  # the arm is full, as update_round reports it

    def _pass(self, x: np.ndarray, strict: bool) -> "KnnBatch":
        """Every arm's k-NN score for a checked context, with its own k:
        strict=True gates an arm off while it holds fewer than k entries,
        strict=False lowers k to the number held (an empty arm still gates)."""
        return self._query(None, x, None, strict)[0]

    def _args(self):
        """The bank's ``bank_t``, built on first use (``_grow`` re-points it);
        None for the numpy round.  Its scratch and array lengths are the struct's."""
        if _cstep.BLAS is None:
            return None
        if self._c is None:
            lens = array("q", map(len, self._rounds))
            self._c = _cstep.struct(
                "bank_t", ctx=self._ctx, rounds=self._rounds, norm2=self._norm2,
                rewards=self._rewards, lens=lens, scratch=np.empty(3 * max(lens)),
                res=self._res, start=self._start, end=self._end, ks=self._ks,
                adds=self._adds, d=self.dim, cap=-1 if self.capacity is None else self.capacity,
                lo=self.theta_min, hi=self.theta_max, vscale=self.variance_scale,
                gemv=_cstep.BLAS[0], ddot=_cstep.BLAS[1])
        return self._c

    def _query(self, arms, x: np.ndarray, ks, strict: bool, table=None):
        """One k-NN pass for a checked context over the given rows (None: every
        arm) with the given ks (None: each arm's own): per arm, the k entries
        first in (distance, round) order, u_max the k-th distance, the score
        their rewards' sum in that order.  Returns (KnnBatch, the argmax of a
        policy's ucb, or None): ``score_pass`` also fills a policy's ``table``
        (a ``round_t``); without the compiled round ``_scan`` scores each arm."""
        n, c = self.n_arms if arms is None else len(arms), self._args()
        if c:  # a k past any window only gates, so past THETA_MAX it is clipped to fit C
            null = _cstep.STEP.ffi.NULL
            best = _cstep.STEP.lib.score_pass(
                x.tobytes(), n, null if arms is None else arms,
                null if ks is None else [min(k, THETA_MAX) for k in ks], strict, table or null, c)
            r = self._res[:3 * n].copy()
            return KnnBatch(r[:n], r[n:2 * n], r[2 * n:].view(np.int64)), best
        score, d2k, k_used = np.zeros(n), np.zeros(n), np.zeros(n, np.int64)
        xx = float(x.dot(x))
        arms = range(self.n_arms) if arms is None else arms
        for j, (a, k) in enumerate(zip(arms, self._ks if ks is None else ks)):
            size = self._end[a] - self._start[a]
            k = k if strict else min(k, max(size, 1))
            if size >= k:
                score[j], d2k[j] = self._scan(a, x, xx, k)
                k_used[j] = k
        return KnnBatch(score, np.sqrt(d2k), k_used), None

    def _scan(self, arm: int, x: np.ndarray, xx: float, k: int):
        """score_pass's numpy twin for one arm holding at least k entries: the
        add.reduce of its first k rewards over k, and the k-th squared distance."""
        s, n = self._start[arm], self._end[arm] - self._start[arm]
        # One matvec over exactly the window: BLAS results depend on the row count.
        d2 = self._ctx[arm][s:s + n].dot(x)
        d2 *= -2.0  # ||c - x||^2 = ||c||^2 - 2 c.x + ||x||^2 with cached norms
        d2 += self._norm2[arm][s:s + n]
        d2 += xx
        np.maximum(d2, 0.0, out=d2)
        # Stable sorts: equal distances keep window order, which is round order.
        if k < n:  # only the entries no farther than the k-th distance, ties included
            cut = d2.copy()
            cut.partition(k - 1)
            near = (d2 <= cut[k - 1]).nonzero()[0]
            sel = near[d2[near].argsort(kind="stable")[:k]]
        else:
            sel = d2.argsort(kind="stable")
        return np.add.reduce(self._rewards[arm][s:s + n][sel]) / k, d2[sel[-1]]


class KnnBatch(NamedTuple):
    """Per-arm results of one k-NN pass; unapplied arms read 0 in every field."""

    score: np.ndarray
    u_max: np.ndarray
    k_used: np.ndarray

    @property
    def applied(self) -> np.ndarray:
        return self.k_used > 0

    def row(self, i: int) -> KnnScore:
        if self.k_used[i] == 0:
            return KnnScore.not_applied()
        return KnnScore(score=float(self.score[i]), k_used=int(self.k_used[i]),
                        u_max=float(self.u_max[i]), applied=True)


class NeighborStore:
    """Ordered (context, reward, round) history for one arm.

    A row of a NeighborBank; constructed directly it owns a one-arm bank.
    An optional capacity turns it into a ring that evicts the oldest entry.
    """

    def __init__(self, dim: int, capacity: Optional[int] = None):
        self._bank, self._arm = NeighborBank(1, dim, capacity), 0

    @classmethod
    def _row(cls, bank: NeighborBank, arm: int) -> "NeighborStore":
        store = cls.__new__(cls)
        store._bank, store._arm = bank, arm
        return store

    @property
    def dim(self) -> int:
        return self._bank.dim

    @property
    def capacity(self) -> Optional[int]:
        return self._bank.capacity

    def __len__(self) -> int:
        return self._bank._end[self._arm] - self._bank._start[self._arm]

    def add(self, context, reward: float, round: int) -> None:
        self._bank.add(self._arm, context, reward, round)

    def _window(self, bufs) -> np.ndarray:
        bank, arm = self._bank, self._arm
        return bufs[arm][bank._start[arm]:bank._end[arm]]

    @property
    def contexts(self) -> np.ndarray:
        return self._window(self._bank._ctx)

    @property
    def rewards(self) -> np.ndarray:
        return self._window(self._bank._rewards)

    @property
    def rounds(self) -> np.ndarray:
        return self._window(self._bank._rounds)


def reward_variance(store: NeighborStore) -> float:
    """Population variance of stored rewards; 0 with fewer than 2 entries."""
    return _variance(store.rewards)


def _variance(r: np.ndarray) -> float:
    """reward_variance of the rewards r, a window as update_round reads it."""
    n = len(r)
    if n < 2:
        return 0.0
    # add.reduce(r) / n is r.mean() bit for bit, without its overhead.
    mean = float(np.add.reduce(r) / n)
    return max(float(np.add.reduce(r * r) / n) - mean * mean, 0.0)


def select_k(variance: float, theta_min: int, theta_max: int) -> int:
    """Interpolate k between theta_min and theta_max by (clamped) reward variance.

    Round-half-up to an integer, then clamp to [theta_min, theta_max].
    """
    theta_min, theta_max = as_int(theta_min, "theta_min"), as_int(theta_max, "theta_max")
    if not 1 <= theta_min <= theta_max:
        raise ValueError("need 1 <= theta_min <= theta_max")
    if not variance >= 0:  # +inf, like every variance >= 1, gives theta_max
        raise ValueError("variance must be >= 0")
    return _pick_k(float(variance), theta_min, theta_max)


def _pick_k(variance: float, theta_min: int, theta_max: int) -> int:
    """select_k for checked arguments, the formula C's pick_k mirrors."""
    v = min(max(variance, 0.0), 1.0)
    k = math.floor(theta_min + (theta_max - theta_min) * v + 0.5)
    return min(max(k, theta_min), theta_max)


def _score_prechecked(store: NeighborStore, x: np.ndarray, k: int) -> KnnScore:
    """knn_score body for already-validated input: the one-arm bank pass."""
    return store._bank._query([store._arm], x, [k], True)[0].row(0)


def knn_score(store: NeighborStore, x, k: int) -> KnnScore:
    """Mean reward of the k nearest stored contexts (Euclidean distance).

    Applies only when the store holds at least k entries; ties at equal
    distance go to the lower round.  u_max is the largest selected distance.
    """
    k = as_int(k, "k", 1)
    x = as_context(x, store.dim)
    return _score_prechecked(store, x, k)

