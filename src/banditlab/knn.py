"""Per-arm neighbor store and the variance-adaptive k-NN reward estimator."""
from __future__ import annotations

import functools
import math
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


class NeighborBank:
    """(context, reward, round) histories of several arms in shared rows.

    Arm a's n entries sit oldest-first in columns [0, n) of row a of the
    shared norm and reward arrays, and at positions [start, end) of its own
    context and round arrays.  Columns from n on are unused; their squared
    norms stay infinite.  A pass (``_pass``) scores each arm over exactly
    its own window.  Rounds are strictly increasing per arm, so entry order
    is insertion order.

    Without a capacity the arrays double in length on growth.  With one,
    the shared rows are capacity wide and a full arm drops its oldest entry
    by shifting its row one column left, an O(capacity) move per add.  Its
    contexts and rounds are twice the capacity long: the window start moves
    forward, and a window that reaches the end is copied back to position 0,
    one O(capacity * dim) copy per capacity adds.

    The bank owns each arm's adaptive k, select_k of its reward variance
    times variance_scale (the defaults pin k at 1), taken from the whole
    window after each add.  Policies feed it through ``_add`` and score
    every arm with its own k in one ``_pass`` per round.
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
        if not 1 <= self.theta_min <= self.theta_max:
            raise ValueError("need 1 <= theta_min <= theta_max")
        self.variance_scale = as_positive(variance_scale, "variance_scale")
        self.capacity = capacity
        length = 2 * capacity if capacity is not None else 16
        self._ctx = [np.empty((length, dim)) for _ in range(n_arms)]
        self._rounds = [np.zeros(length, dtype=np.int64) for _ in range(n_arms)]
        width = capacity if capacity is not None else length
        self._norm2 = np.full((n_arms, width), np.inf)
        self._rewards = np.zeros((n_arms, width))
        # int64 arrays that the compiled steps read and write in place; lists
        # for the numpy step, and for a theta past int64 (such a k can only gate).
        ints = (list if _cstep.BLAS is None or self.theta_max >= 2 ** 63
                else functools.partial(_cstep.STEP.ffi.new, "int64_t[]"))
        self._start = ints([0] * n_arms)
        self._end = ints([0] * n_arms)
        self._all_rows = ints(list(range(n_arms)))
        self._ks = ints([self.theta_min] * n_arms)  # an empty row's variance is 0
        self._adds = np.zeros(1, np.int64)  # the add count, in an array C writes
        self._res = np.zeros(3 * n_arms)  # the compiled pass's KnnBatch fields
        self._c = None  # see _args

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
        self._c = None

    def add(self, arm: int, context, reward: float, round: int) -> None:
        arm, round = as_int(arm, "arm", 0), as_int(round, "round")
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
        """ValueError, changing nothing, where 8 times the sum of the arm's
        squared rewards once ``reward`` is added (and, when the arm is full,
        its oldest entry evicted) overflows: the headroom keeps
        reward_variance finite."""
        n = self._end[arm] - self._start[arm]
        kept = self._rewards[arm, int(n == self.capacity):n]
        if not math.isfinite(8.0 * (float(np.add.reduce(kept * kept)) + reward * reward)):
            raise ValueError(f"reward {reward!r} overflows arm {arm}'s reward sums")

    def _add(self, arm: int, x: np.ndarray, reward: float,
             round: Optional[int] = None) -> None:
        """add() for a checked context and reward, at a round after the arm's last.

        Without a round the entry is stamped with the bank's add count.  The
        compiled update makes the add in one call, unless it declines; a
        reward _check_reward rejects raises before anything changes.
        """
        round = int(self._adds[0]) if round is None else round
        c = self._args()
        if c and _cstep.STEP.lib.update_round(arm, x.tobytes(), reward, 0.0, 0.0, round, 1,
                                              _cstep.STEP.ffi.NULL, c) >= 0:
            self._adds[0] += 1
            return
        self._check_reward(arm, reward)
        self._put(arm, x, reward, round)

    def _put(self, arm: int, x: np.ndarray, reward: float, round: int) -> None:
        """_add's numpy half, for a reward _check_reward passed."""
        start, end = self._start[arm], self._end[arm]
        n = end - start
        full = n == self.capacity  # the oldest entry is evicted
        self._adds[0] += 1
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
        self._start[arm], self._end[arm] = start, end + 1
        if self.theta_min < self.theta_max:
            self._ks[arm] = select_k(_variance(self._rewards[arm, :n + 1]) * self.variance_scale,
                                     self.theta_min, self.theta_max)

    def _pass(self, x: np.ndarray, strict: bool) -> "KnnBatch":
        """Every arm's k-NN score for a checked context, with its own k.

        strict=True gates an arm off while it holds fewer than k entries;
        strict=False lowers k to the number held instead (an empty arm is
        still not applied).
        """
        return self._query(self._all_rows, x, self._ks, strict)[0]

    def _args(self):
        """The bank's ``bank_t`` (see ``_cstep``), built once per reallocation,
        with the owners of its pointers; None for the numpy step or a list bank."""
        if _cstep.BLAS is None or isinstance(self._start, list):
            return None
        if self._c is None:  # reset by _grow
            ffi, buf, width = _cstep.STEP.ffi, _cstep.STEP.ffi.from_buffer, self._norm2.shape[1]
            owners = {
                "ctx": ffi.new("double *[]", [buf("double[]", c) for c in self._ctx]),
                "rounds": ffi.new("int64_t *[]", [buf("int64_t[]", r) for r in self._rounds]),
                "lens": ffi.new("int64_t[]", [len(r) for r in self._rounds]),
                "scratch": buf("double[]", np.empty(3 * width)),
                **{k: buf("double[]", getattr(self, "_" + k))
                   for k in ("norm2", "rewards", "res")}}
            self._c = ffi.new("bank_t *", {
                **owners, "start": self._start, "end": self._end, "ks": self._ks, "d": self.dim,
                "stride": width, "cap": -1 if self.capacity is None else self.capacity,
                "lo": self.theta_min, "hi": self.theta_max, "vscale": self.variance_scale,
                "gemv": _cstep.BLAS[0], "ddot": _cstep.BLAS[1]}), owners
        return self._c[0]

    def _query(self, arms, x: np.ndarray, ks, strict: bool, table=None):
        """One k-NN pass over the given rows for already-validated input.

        Per arm this selects the k entries first in (distance, round) order:
        ties go to the lower round, u_max is the k-th distance, and the
        score sums rewards in that order.  Returns (KnnBatch, the argmax of
        a policy's ucb, or None): ``_cstep.score_pass`` makes the pass and
        fills a policy's ``table`` (a ``round_t``) in one C call; without it
        ``_scan`` scores one arm at a time.
        """
        n, c = len(arms), self._args()
        if c:
            # An applied row's k is at most its window, so k_cols columns hold every
            # selection; a larger k only gates, and is clipped to fit in C.
            top = self.theta_max if ks is self._ks else max(ks)
            k_cols = max(1, min(top, self._norm2.shape[1]))
            ks = [min(k, k_cols + 1) for k in ks] if top > k_cols else ks
            best = _cstep.STEP.lib.score_pass(x.tobytes(), n, arms, ks, strict, k_cols,
                                              table or _cstep.STEP.ffi.NULL, c)
            r = self._res[:3 * n].copy()
            return KnnBatch(r[:n], r[n:2 * n], r[2 * n:].view(np.int64)), best
        score, d2k, k_used = np.zeros(n), np.zeros(n), np.zeros(n, np.int64)
        xx = float(x.dot(x))
        for j, (a, k) in enumerate(zip(arms, ks)):
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
        d2 += self._norm2[arm, :n]
        d2 += xx
        np.maximum(d2, 0.0, out=d2)
        # Stable sorts: equal distances keep column order, which is round order.
        if k < n:  # only the entries no farther than the k-th distance, ties included
            cut = d2.copy()
            cut.partition(k - 1)
            near = (d2 <= cut[k - 1]).nonzero()[0]
            sel = near[d2[near].argsort(kind="stable")[:k]]
        else:
            sel = d2.argsort(kind="stable")
        return np.add.reduce(self._rewards[arm][sel]) / k, d2[sel[-1]]


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
    return _variance(store.rewards)


def _variance(r: np.ndarray) -> float:
    """reward_variance of the rewards r, a row slice as update_round reads it."""
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
    v = min(max(float(variance), 0.0), 1.0)
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


def knn_score_bruteforce(store: NeighborStore, x, k: int) -> KnnScore:
    """Full-sort oracle with the same contract as knn_score; test use only."""
    k = as_int(k, "k", 1)
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
