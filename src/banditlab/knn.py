"""Per-arm neighbor store and the variance-adaptive k-NN reward estimator."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import as_context, as_int, as_real, as_reward

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

    Arm a's n entries sit oldest-first in columns [0, n) of row a of the
    shared norm and reward arrays, and at positions [start, end) of its own
    context and round arrays.  Every column from n on holds an infinite
    squared norm, so it reads as infinitely far and one pass over the padded
    rows, as wide as the longest window, scores all arms at once (see
    ``query``).  Rounds are strictly increasing per arm, so entry order is
    insertion order.

    Without a capacity the arrays double in length on growth.  With one,
    the shared rows are capacity wide and a full arm drops its oldest entry
    by shifting its row one column left, an O(capacity) move per add.  Its
    contexts and rounds are twice the capacity long: the window start moves
    forward, and a window that reaches the end is copied back to position 0,
    one O(capacity * dim) copy per capacity adds.

    The bank owns each arm's adaptive k, select_k of its reward variance
    times variance_scale (the defaults pin k at 1), kept in O(1) per add by
    running reward sums (see ``_fresh_k``).  Policies feed it through
    ``_add`` and score every arm with its own k in one ``_pass`` per round.
    """

    def __init__(self, n_arms: int, dim: int, capacity: Optional[int] = None,
                 theta_min: int = 1, theta_max: int = 1,
                 variance_scale: float = 1.0):
        if n_arms < 1:
            raise ValueError("n_arms must be >= 1")
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if capacity is not None and as_int(capacity, "store_capacity") < 1:
            raise ValueError("store_capacity must be >= 1 when set")
        self.theta_min = as_int(theta_min, "theta_min")
        self.theta_max = as_int(theta_max, "theta_max")
        if not 1 <= self.theta_min <= self.theta_max:
            raise ValueError("need 1 <= theta_min <= theta_max")
        if not (math.isfinite(as_real(variance_scale, "variance_scale"))
                and variance_scale > 0):
            raise ValueError("variance_scale must be positive")
        self.variance_scale = float(variance_scale)
        self.n_arms = int(n_arms)
        self.dim = int(dim)
        self.capacity = capacity = None if capacity is None else int(capacity)
        length = 2 * capacity if capacity is not None else 16
        self._ctx = [np.empty((length, dim)) for _ in range(n_arms)]
        self._rounds = [np.zeros(length, dtype=np.int64) for _ in range(n_arms)]
        width = capacity if capacity is not None else length
        self._norm2 = np.full((n_arms, width), np.inf)
        self._rewards = np.zeros((n_arms, width))
        self._start = [0] * n_arms
        self._end = [0] * n_arms
        # Per row: reward sum, squared-reward sum, and the sums of their
        # absolute running values, which bound their rounding error.
        self._sums = [[0.0] * 4 for _ in range(n_arms)]
        self._all_rows = list(range(n_arms))
        self._ks = [self.theta_min] * n_arms  # an empty row's variance is 0
        self._adds = 0

    def store(self, arm: int) -> "NeighborStore":
        """A NeighborStore view of one arm's entries."""
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        return NeighborStore._row(self, arm)

    def _grow(self, arm: int) -> None:
        for bufs in (self._ctx, self._rounds):
            bufs[arm] = np.concatenate([bufs[arm], np.empty_like(bufs[arm])])
        width = self._norm2.shape[1]
        if len(self._rounds[arm]) > width:
            pad = ((0, 0), (0, width))
            self._norm2 = np.pad(self._norm2, pad, constant_values=np.inf)
            self._rewards = np.pad(self._rewards, pad)

    def add(self, arm: int, context, reward: float, round: int) -> None:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        x = as_context(context, self.dim)
        start, end = self._start[arm], self._end[arm]
        if round <= (self._rounds[arm][end - 1] if end > start else -1):
            raise ValueError("rounds must be strictly increasing")
        self._add(arm, x, as_reward(reward), int(round))

    def _add(self, arm: int, x: np.ndarray, reward: float,
             round: Optional[int] = None) -> None:
        """add() for a checked context and reward, at a round after the arm's last.

        Without a round the entry is stamped with the bank's add count.  A
        reward that would overflow the arm's running sums raises before
        anything changes.
        """
        start, end = self._start[arm], self._end[arm]
        n, sums = end - start, list(self._sums[arm])
        full = n == self.capacity
        if full:  # the oldest entry is evicted
            _fold(sums, float(self._rewards[arm, 0]), -1.0)
        _fold(sums, reward, 1.0)
        # 8x headroom keeps _fresh_k's error bound, at most a few times the
        # squared-reward sums, finite as well.
        if not math.isfinite(8.0 * (sums[2] + sums[3])):
            raise ValueError(f"reward {reward!r} overflows arm {arm}'s "
                             "running reward sums")
        if round is None:
            round = self._adds
        self._adds += 1
        if full:
            for buf in (self._norm2, self._rewards):
                buf[arm, :n - 1] = buf[arm, 1:n]
            start, n = start + 1, n - 1
        if end == len(self._rounds[arm]):
            if self.capacity is None:
                self._grow(arm)
            else:
                for buf in (self._ctx[arm], self._rounds[arm]):
                    buf[:n] = buf[start:end]
                start, end = 0, n
        self._ctx[arm][end] = x
        self._rounds[arm][end] = round
        self._norm2[arm, n] = float(x.dot(x))
        self._rewards[arm, n] = reward
        self._sums[arm] = sums
        self._start[arm], self._end[arm] = start, end + 1
        if self.theta_min < self.theta_max:
            self._ks[arm] = self._fresh_k(arm)

    def _fresh_k(self, arm: int) -> int:
        """select_k of the arm's ``reward_variance`` times variance_scale.

        v, reward_variance's formula on the running sums, is within err of
        it.  Each running sum is off by at most u times its absolute-value
        sum (e1, e2); each sum reward_variance takes over n values is off by
        at most n*u times their absolute sum, at most sqrt(n*T2) or T2 for T2
        the exact sum of squares; each side rounds four times after summing.
        u = 2^-52, twice the unit roundoff, absorbs second-order terms; err
        is doubled for its own rounding.  select_k is monotone, so equal ks
        at v - err and v + err are the exact rule's k; otherwise the exact
        variance decides.
        """
        lo, hi, scale = self.theta_min, self.theta_max, self.variance_scale
        n = self._end[arm] - self._start[arm]
        if n < 2:
            return lo
        s1, s2, e1, e2 = self._sums[arm]
        mean, u = s1 / n, 2.0 ** -52
        z = (s2 + u * e2) / n  # >= T2 / n
        r1 = u * (e1 / n + n * math.sqrt(z))  # bounds the error of the mean
        m = abs(mean) + r1
        err = u * (e2 / n + n * z + 4 * z + 4 * m * m) + r1 * (m + abs(mean))
        v, err = max(s2 / n - mean * mean, 0.0), 2.0 * err
        k = select_k(max(v - err, 0.0) * scale, lo, hi)
        if k < hi and k != select_k((v + err) * scale, lo, hi):
            k = select_k(reward_variance(self.store(arm)) * scale, lo, hi)
        return k

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
        return self._query(self._all_rows, x, float(x.dot(x)), ks, strict)

    def _pass(self, x: np.ndarray, strict: bool) -> "KnnBatch":
        """query() of a checked context with the bank's own ks."""
        return self._query(self._all_rows, x, float(x.dot(x)), self._ks, strict)

    def _query(self, arms, x: np.ndarray, xx: float, ks, strict: bool) -> "KnnBatch":
        """One k-NN pass over the given rows for already-validated input.

        Per arm this selects the k entries first in (distance, round) order:
        ties go to the lower round, u_max is the k-th distance, and the
        score sums rewards in that order.
        """
        n = len(arms)
        sizes = [self._end[a] - self._start[a] for a in arms]
        if not strict:
            ks = [min(k, max(size, 1)) for k, size in zip(ks, sizes)]
        k_used = [int(k) if size >= k else 0 for k, size in zip(ks, sizes)]
        live = [i for i, k in enumerate(k_used) if k]  # the arms that apply
        rows, k_live = [arms[i] for i in live], [k_used[i] for i in live]
        sizes = [sizes[i] for i in live]
        if not live:
            return KnnBatch(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64))
        every = rows == self._all_rows
        k_max, width, shortest = max(k_live), max(sizes), min(sizes)
        # ||c - x||^2 = ||c||^2 - 2 c.x + ||x||^2 with cached row norms.  Each
        # arm gets its own matvec over exactly its window: BLAS results depend
        # on the row count, and this keeps them equal to a one-store query.
        d2 = np.zeros((len(rows), width))
        for j, a in enumerate(rows):
            s, e = self._start[a], self._end[a]
            self._ctx[a][s:e].dot(x, out=d2[j, :e - s])
        d2 *= -2.0
        d2 += self._norm2[:, :width] if every else self._norm2[rows, :width]
        d2 += xx
        np.maximum(d2, 0.0, out=d2)
        # Candidates are all entries no farther than the row's k_max-th
        # smallest distance (every finite entry of a shorter row), ties
        # included, so each arm's first k in (distance, round) order are
        # among them.
        if width > k_max:
            # The method on a copy is np.partition without its wrapper's cost.
            cut = d2.copy()
            cut.partition(k_max - 1, axis=1)
            cut = cut[:, k_max - 1:k_max]
            np.minimum(cut, _FINITE_MAX, out=cut)
        else:
            cut = _FINITE_MAX
        flat = (d2 <= cut).ravel().nonzero()[0]
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


def _fold(sums: list, reward: float, sign: float) -> None:
    """Add (sign 1) or remove (sign -1) a reward in a row's running sums."""
    sums[0] += sign * reward
    sums[1] += sign * (reward * reward)
    sums[2] += abs(sums[0])
    sums[3] += abs(sums[1])


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

    def _window(self, bufs) -> np.ndarray:
        bank, arm = self._bank, self._arm
        return bufs[arm][bank._start[arm]:bank._end[arm]]

    @property
    def contexts(self) -> np.ndarray:
        return self._window(self._bank._ctx)

    @property
    def rewards(self) -> np.ndarray:
        return self._bank._rewards[self._arm, :len(self)]

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
    if not variance >= 0:  # +inf, like every variance >= 1, gives theta_max
        raise ValueError("variance must be >= 0")
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
    norm2 = store._bank._norm2[store._arm, :n]
    d2 = norm2 - 2.0 * (store.contexts @ x) + float(x @ x)
    np.maximum(d2, 0.0, out=d2)
    order = np.lexsort((store.rounds, d2))
    sel = order[:k]
    score = float(np.add.reduce(store.rewards[sel]) / k)
    u_max = float(np.sqrt(d2[sel[-1]]))
    return KnnScore(score=score, k_used=k, u_max=u_max, applied=True)
