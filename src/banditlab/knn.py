"""Per-arm neighbor store and the variance-adaptive k-NN reward estimator."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import as_context

_FINITE_MAX = np.finfo(np.float64).max


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


class NeighborBank:
    """(context, reward, round) histories of several arms in padded rows.

    Arm a's entries sit oldest-first at positions [start, end) of its own
    context array and of row a of the shared norm, reward and round arrays.
    Every slot outside that window holds an infinite squared norm, so it
    reads as infinitely far and one pass over the padded rows scores all
    arms at once (see ``query``).  Rounds are strictly increasing per arm,
    so entry order is insertion order.

    Without a capacity the arrays double in length on growth.  With one,
    they are twice the capacity long: a full arm drops its oldest entry by
    moving its window start forward, and a window that reaches the end is
    copied back to position 0, one O(capacity) copy per capacity adds.
    """

    def __init__(self, n_arms: int, dim: int, capacity: Optional[int] = None):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 when set")
        self.n_arms = int(n_arms)
        self.dim = int(dim)
        self.capacity = capacity
        width = 2 * capacity if capacity is not None else 16
        self._ctx = [np.empty((width, dim)) for _ in range(n_arms)]
        self._norm2 = np.full((n_arms, width), np.inf)
        self._rewards = np.zeros((n_arms, width))
        self._rounds = np.zeros((n_arms, width), dtype=np.int64)
        self._start = [0] * n_arms
        self._end = [0] * n_arms
        self._last_round = [-1] * n_arms
        self._all_rows = list(range(n_arms))

    def store(self, arm: int) -> "NeighborStore":
        """A NeighborStore view of one arm's entries."""
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        return NeighborStore._row(self, arm)

    def _grow(self, arm: int) -> None:
        ctx = self._ctx[arm]
        self._ctx[arm] = np.concatenate([ctx, np.empty_like(ctx)])
        width = self._norm2.shape[1]
        if ctx.shape[0] == width:
            pad = ((0, 0), (0, width))
            self._norm2 = np.pad(self._norm2, pad, constant_values=np.inf)
            self._rewards = np.pad(self._rewards, pad)
            self._rounds = np.pad(self._rounds, pad)

    def add(self, arm: int, context, reward: float, round: int) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        x = as_context(context, self.dim)
        if not math.isfinite(reward):
            raise ValueError("reward must be finite")
        if round <= self._last_round[arm]:
            raise ValueError("rounds must be strictly increasing")
        self._last_round[arm] = int(round)
        start, end = self._start[arm], self._end[arm]
        if self.capacity is not None and end - start == self.capacity:
            # Evict the oldest entry.
            self._norm2[arm, start] = np.inf
            start += 1
        if end == self._ctx[arm].shape[0]:
            if self.capacity is None:
                self._grow(arm)
            else:
                n = end - start
                self._ctx[arm][:n] = self._ctx[arm][start:end]
                for buf in (self._norm2, self._rewards, self._rounds):
                    buf[arm, :n] = buf[arm, start:end]
                self._norm2[arm, n:] = np.inf
                start, end = 0, n
        self._ctx[arm][end] = x
        self._norm2[arm, end] = float(x @ x)
        self._rewards[arm, end] = float(reward)
        self._rounds[arm, end] = int(round)
        self._start[arm], self._end[arm] = start, end + 1

    def query(self, x, ks, strict: bool = True) -> "KnnBatch":
        """k-NN score of every arm for one context; arm a uses k = ks[a].

        strict=True gates an arm off while it holds fewer than k entries;
        strict=False lowers k to the number held instead (an empty arm is
        still not applied).
        """
        x = as_context(x, self.dim)
        ks = [int(k) for k in ks]
        if len(ks) != self.n_arms or min(ks) < 1:
            raise ValueError(f"need one k >= 1 for each of {self.n_arms} arms")
        return self._query(self._all_rows, x, float(x @ x), ks, strict)

    def _query(self, arms, x: np.ndarray, xx: float, ks, strict: bool) -> "KnnBatch":
        """One k-NN pass over the given rows for already-validated input.

        Per arm this selects the k entries first in (distance, round) order:
        ties go to the lower round, u_max is the k-th distance, and the
        score sums rewards in that order.
        """
        n = len(arms)
        k_used = [0] * n
        live, rows, k_live = [], [], []  # the arms that apply
        width, shortest = 0, math.inf
        for i, (a, k) in enumerate(zip(arms, ks)):
            start, end = self._start[a], self._end[a]
            if not strict:
                k = min(k, max(end - start, 1))
            if end - start >= k:
                k_used[i] = k = int(k)
                live.append(i)
                rows.append(a)
                k_live.append(k)
                width = max(width, end)
                shortest = min(shortest, end - start)
        if not live:
            return KnnBatch(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64))
        every = rows == self._all_rows
        k_max = max(k_live)
        # ||c - x||^2 = ||c||^2 - 2 c.x + ||x||^2 with cached row norms.  Each
        # arm gets its own matvec over exactly its window: BLAS results depend
        # on the row count, and this keeps them equal to a one-store query.
        d2 = np.zeros((len(rows), width))
        for j, a in enumerate(rows):
            s, e = self._start[a], self._end[a]
            np.dot(self._ctx[a][s:e], x, out=d2[j, s:e])
        d2 *= -2.0
        d2 += self._norm2[:, :width] if every else self._norm2[rows, :width]
        d2 += xx
        np.maximum(d2, 0.0, out=d2)
        # Candidates are all entries no farther than the row's k_max-th
        # smallest distance (every finite entry of a shorter row), ties
        # included, so each arm's first k in (distance, round) order are
        # among them.
        if width > k_max:
            cut = np.partition(d2, k_max - 1, axis=1)[:, k_max - 1:k_max]
            np.minimum(cut, _FINITE_MAX, out=cut)
        else:
            cut = _FINITE_MAX
        flat = np.flatnonzero(d2 <= cut)
        row, col = np.divmod(flat, width)
        dist = d2.ravel()[flat]
        # Stable: equal distances keep column order, which is round order.
        order = np.lexsort((dist, row))
        dist = dist[order]
        rewards = self._rewards[row if every else np.asarray(rows)[row], col][order]
        # Lay each row's first k_max candidates out as one matrix row.
        shape = (len(rows), k_max)
        if flat.size == shape[0] * k_max and shortest >= k_max:
            dist, rewards = dist.reshape(shape), rewards.reshape(shape)
        else:  # ties at a cut, or rows shorter than k_max
            counts = np.bincount(row, minlength=shape[0])
            first = np.cumsum(counts) - counts
            take = np.minimum(first[:, None] + np.arange(k_max),
                              (first + counts - 1)[:, None])
            dist, rewards = dist[take], rewards[take]
        if min(k_live) == k_max:
            u_max = np.sqrt(dist[:, k_max - 1])
            score = np.add.reduce(rewards, axis=1) / k_max
        else:
            u_max = np.sqrt(dist[range(shape[0]), [k - 1 for k in k_live]])
            # Row j's own 1-D reduce: its first k_j rewards, in order.
            score = np.array([np.add.reduce(r[:k]) / k
                              for r, k in zip(rewards, k_live)])
        if len(live) < n:
            score, u_max = _spread(score, live, n), _spread(u_max, live, n)
        return KnnBatch(score, u_max, np.array(k_used))


def _spread(values: np.ndarray, at: list, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[at] = values
    return out


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
        self._bank = NeighborBank(1, dim, capacity)
        self._arm = 0

    @classmethod
    def _row(cls, bank: NeighborBank, arm: int) -> "NeighborStore":
        store = cls.__new__(cls)
        store._bank = bank
        store._arm = arm
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

    def _window(self, buf) -> np.ndarray:
        bank, arm = self._bank, self._arm
        return buf[arm][bank._start[arm]:bank._end[arm]]

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
    n = len(store)
    if n < 2:
        return 0.0
    r = store.rewards
    # add.reduce(r) / n is r.mean() bit for bit, without its overhead.
    mean = float(np.add.reduce(r) / n)
    return max(float(np.add.reduce(r * r) / n) - mean * mean, 0.0)


def select_k(variance: float, theta_min: int, theta_max: int) -> int:
    """Interpolate k between theta_min and theta_max by (clamped) reward variance.

    Round-half-up to an integer, then clamp to [theta_min, theta_max].
    """
    theta_min = int(theta_min)
    theta_max = int(theta_max)
    if not 1 <= theta_min <= theta_max:
        raise ValueError("need 1 <= theta_min <= theta_max")
    if not (math.isfinite(variance) and variance >= 0):
        raise ValueError("variance must be finite and >= 0")
    v = min(max(float(variance), 0.0), 1.0)
    k = math.floor(theta_min + (theta_max - theta_min) * v + 0.5)
    return min(max(k, theta_min), theta_max)


def _score_prechecked(store: NeighborStore, x: np.ndarray, xx: float,
                      k: int) -> KnnScore:
    """knn_score body for already-validated input: the one-arm bank pass."""
    return store._bank._query([store._arm], x, xx, [k], True).row(0)


def knn_score(store: NeighborStore, x, k: int) -> KnnScore:
    """Mean reward of the k nearest stored contexts (Euclidean distance).

    Applies only when the store holds at least k entries; ties at equal
    distance go to the lower round.  u_max is the largest selected distance.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = as_context(x, store.dim)
    return _score_prechecked(store, x, float(x @ x), k)


def knn_score_bruteforce(store: NeighborStore, x, k: int) -> KnnScore:
    """Full-sort oracle with the same contract as knn_score; test use only."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = as_context(x, store.dim)
    n = len(store)
    if n < k:
        return KnnScore.not_applied()
    norm2 = store._window(store._bank._norm2)
    d2 = norm2 - 2.0 * (store.contexts @ x) + float(x @ x)
    np.maximum(d2, 0.0, out=d2)
    order = np.lexsort((store.rounds, d2))
    sel = order[:k]
    score = float(np.add.reduce(store.rewards[sel]) / k)
    u_max = float(np.sqrt(d2[sel[-1]]))
    return KnnScore(score=score, k_used=k, u_max=u_max, applied=True)
