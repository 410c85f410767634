"""Bandit environments: classification conversion, news replay, synthetic hybrid."""
from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri


ENV_STREAM_SALT = 1  # entropy tag for the per-run context/noise stream


class DataError(ValueError):
    """Structured load failure; the message names the offending row."""


@dataclass
class RoundFeedback:
    """Feedback for one round; oracle_reward is set when the env knows it."""

    reward: float
    step_consumed: bool = True
    oracle_reward: Optional[float] = None


def _row_norms(X: np.ndarray, row_name) -> np.ndarray:
    """The rows' l2 norms; a zero or non-finite one raises DataError naming
    row_name(index) of the first such row."""
    with np.errstate(over="ignore"):  # an overflowing norm is reported below
        norms = np.linalg.norm(X, axis=1)
    bad = np.flatnonzero(~(norms > 0) | np.isinf(norms))
    if bad.size:
        what = ("zero feature vector" if norms[bad[0]] == 0
                else "feature vector norm is not finite")
        raise DataError(f"row {row_name(int(bad[0]))}: {what}")
    return norms


class ClassificationBanditEnv:
    """Classification rows as bandit rounds: reward 1 when the arm is the label.

    Rows arrive ell-2 normalized and shuffled by seed; the class-to-arm map is
    first-appearance order in the source.
    """

    def __init__(self, contexts, labels, shuffle_seed: int = 0,
                 class_names: Optional[Sequence] = None, normalize: bool = False):
        contexts = np.asarray(contexts, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if contexts.ndim != 2 or contexts.shape[0] != labels.shape[0]:
            raise ValueError("contexts and labels must align")
        if contexts.shape[0] == 0:
            raise DataError("empty dataset")
        norms = _row_norms(contexts, lambda i: i + 1)
        if normalize:
            contexts = contexts / norms[:, None]
        elif np.abs(norms - 1.0).max() > 1e-9:
            raise ValueError("context rows must be unit ell-2 norm")
        self.n_arms = int(labels.max()) + 1
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative arm indices")
        order = np.random.default_rng(shuffle_seed).permutation(contexts.shape[0])
        self.contexts = contexts[order]
        self.labels = labels[order]
        self.dim = contexts.shape[1]
        self.shuffle_seed = int(shuffle_seed)
        self.class_names = list(class_names) if class_names is not None else None

    def __len__(self) -> int:
        return self.contexts.shape[0]

    def episode(self, seed: int, T: int) -> "ClassificationBanditEnv":
        """Rows are read in the env's shuffled order, so a run needs no state."""
        return self

    def exhausted(self, t: int) -> bool:
        return t >= len(self)

    def context(self, t: int) -> np.ndarray:
        return self.contexts[t]

    def feedback(self, t: int, arm: int) -> RoundFeedback:
        reward = 1.0 if arm == self.labels[t] else 0.0
        return RoundFeedback(reward=reward, oracle_reward=1.0)

    def metadata(self) -> dict:
        names = self.class_names or list(range(self.n_arms))
        return {
            "kind": "classification",
            "rows": len(self),
            "dim": self.dim,
            "n_arms": self.n_arms,
            "shuffle_seed": self.shuffle_seed,
            "class_to_arm": {str(c): a for a, c in enumerate(names)},
        }


def two_class_bumps(seed: int, T: int, d: int = 10, bump_count: int = 4,
                    bump_radius: float = 0.8) -> ClassificationBanditEnv:
    """Two-class rows split by a hyperplane, with local label-flip pockets.

    Labels follow sign(w . x) except inside small balls where they invert,
    so the boundary is globally linear but locally wrong: a memory-based
    component can patch the pockets while a purely linear rule cannot.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((T, d))
    X /= np.linalg.norm(X, axis=1)[:, None]
    labels = (X @ w > 0).astype(np.int64)
    centers = rng.standard_normal((bump_count, d))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    dist = np.linalg.norm(X[:, None, :] - centers[None, :, :], axis=2)
    flip = (dist < bump_radius).any(axis=1)
    labels[flip] = 1 - labels[flip]
    return ClassificationBanditEnv(X, labels, shuffle_seed=seed)


def _csv_rows(path, has_header: bool = False):
    """(file line, cells) of each CSV row that is not blank or the header.

    A csv error, such as a cell over the csv module's size limit, raises
    DataError naming the line; bytes that are not UTF-8 name their offset.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for i, row in enumerate(reader):
                if (i or not has_header) and any(c.strip() for c in row):
                    yield reader.line_num, row
        except csv.Error as exc:
            raise DataError(f"row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DataError(f"byte {exc.start}: not UTF-8") from None
            raise


def load_classification_csv(path, label_column: int = -1, shuffle_seed: int = 0,
                            has_header: bool = False) -> ClassificationBanditEnv:
    """Load a numeric-feature CSV, map label classes to arms, normalize, shuffle."""
    features = []
    labels_raw = []
    lines = []  # file line of each kept row
    for i, row in _csv_rows(path, has_header):
        try:
            label = row[label_column]
        except IndexError:
            raise DataError(f"row {i}: missing label column {label_column}")
        lab_idx = label_column % len(row)
        feats = []
        for j, cell in enumerate(row):
            if j == lab_idx:
                continue
            try:
                feats.append(float(cell))
            except ValueError:
                raise DataError(f"row {i}: non-numeric feature {cell!r}") from None
        if not feats:
            raise DataError(f"row {i}: no feature columns")
        if features and len(feats) != len(features[0]):
            raise DataError(f"row {i}: {len(feats)} features, but row {lines[0]} "
                            f"has {len(features[0])}: inconsistent column counts")
        features.append(feats)
        labels_raw.append(label.strip())
        lines.append(i)
    if not features:
        raise DataError("empty dataset")
    X = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        row = lines[int(np.flatnonzero(~np.isfinite(X).all(axis=1))[0])]
        raise DataError(f"row {row}: non-finite feature")
    _row_norms(X, lines.__getitem__)
    seen = {}
    labels = np.empty(len(labels_raw), dtype=np.int64)
    names = []
    for i, lab in enumerate(labels_raw):
        if lab not in seen:
            seen[lab] = len(seen)
            names.append(lab)
        labels[i] = seen[lab]
    return ClassificationBanditEnv(X, labels, shuffle_seed, class_names=names,
                                   normalize=True)


class ReplayLogEnv:
    """Logged (arm, click, context) rows replayed against a policy's choices."""

    N_ARMS = 10
    DIM = 100

    def __init__(self, arms, clicks, contexts):
        arms = np.asarray(arms, dtype=np.int64)
        clicks = np.asarray(clicks, dtype=np.float64)
        contexts = np.asarray(contexts, dtype=np.float64)
        n = arms.shape[0]
        if clicks.shape != (n,) or contexts.shape != (n, self.DIM):
            raise ValueError("replay arrays must align on rows")
        if n and (arms.min() < 0 or arms.max() >= self.N_ARMS):
            raise ValueError("logged arm outside [0, 10)")
        if n and not np.isin(clicks, (0.0, 1.0)).all():
            raise ValueError("clicks must be 0 or 1")
        self.arms = arms
        self.clicks = clicks
        self.contexts = contexts
        self.n_arms = self.N_ARMS
        self.dim = self.DIM
        # Row indices per arm, for cursor scans in O(log n).
        self._rows_by_arm = [np.flatnonzero(arms == a) for a in range(self.N_ARMS)]

    def __len__(self) -> int:
        return self.arms.shape[0]

    def episode(self, seed: int, T: int) -> "_ReplayEpisode":
        return _ReplayEpisode(self)

    def metadata(self) -> dict:
        return {"kind": "replay", "rows": len(self), "dim": self.dim,
                "n_arms": self.n_arms}


class _ReplayEpisode:
    """One pass over a replay log; the cursor moves just past each match.

    A round's context is the log row at the cursor; the run ends when the
    cursor reaches the end of the log or a scan finds no match.
    """

    def __init__(self, env: ReplayLogEnv):
        self.env = env
        self.cursor = 0

    def exhausted(self, t: int) -> bool:
        return self.cursor >= len(self.env)

    def context(self, t: int) -> np.ndarray:
        return self.env.contexts[self.cursor]

    def feedback(self, t: int, arm: int) -> RoundFeedback:
        fb, self.cursor = replay_step(self.env, arm, self.cursor)
        return fb


def load_news_csv(path) -> ReplayLogEnv:
    """Parse the 102-column news log: arm id 1..10, click 0/1, 100 features."""
    arms = []
    clicks = []
    # Features go straight into one flat buffer: a list of per-row float
    # lists would hold ~25 bytes of Python objects per value.
    features = array.array("d")
    lines = []  # file line of each kept row
    for i, row in _csv_rows(path):
        if len(row) != 102:
            raise DataError(f"row {i}: expected 102 columns, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise DataError(f"row {i}: non-numeric value") from None
        if not 1 <= vals[0] <= 10 or vals[0] != int(vals[0]):
            raise DataError(f"row {i}: arm id {vals[0]} outside 1..10")
        if vals[1] not in (0.0, 1.0):
            raise DataError(f"row {i}: click {vals[1]} not in {{0, 1}}")
        arms.append(int(vals[0]) - 1)
        clicks.append(vals[1])
        features.extend(vals[2:])
        lines.append(i)
    if not arms:
        raise DataError("empty dataset")
    contexts = np.frombuffer(features, dtype=np.float64).reshape(len(arms), 100)
    finite = np.isfinite(contexts).all(axis=1)
    if not finite.all():
        row = lines[int(np.flatnonzero(~finite)[0])]
        raise DataError(f"row {row}: non-finite feature")
    return ReplayLogEnv(np.asarray(arms), np.asarray(clicks), contexts)


def replay_step(env: ReplayLogEnv, chosen_arm: int, cursor: int):
    """Scan forward for the first logged row matching chosen_arm.

    Returns (RoundFeedback, next_cursor).  On a match the click is the reward
    and the cursor lands just past the matched row; an exhausted log returns
    step_consumed=False and the run terminates.
    """
    if cursor < 0 or cursor > len(env):
        raise ValueError("cursor out of bounds")
    if not 0 <= chosen_arm < env.n_arms:
        raise ValueError(f"arm {chosen_arm} out of range")
    rows = env._rows_by_arm[chosen_arm]
    i = int(np.searchsorted(rows, cursor))
    if i == len(rows):
        return RoundFeedback(reward=0.0, step_consumed=False), len(env)
    r = int(rows[i])
    return RoundFeedback(reward=float(env.clicks[r]), step_consumed=True), r + 1


@dataclass
class HybridRound:
    """One synthetic round: context, per-arm expected and realized rewards."""

    context: np.ndarray
    expected: np.ndarray
    realized: np.ndarray
    oracle_arm: int


@dataclass
class HybridStream:
    """A pregenerated batch of synthetic rounds; rows are rounds."""

    contexts: np.ndarray      # (T, d)
    expected: np.ndarray      # (T, A)
    realized: np.ndarray      # (T, A)
    oracle_arm: np.ndarray    # (T,)

    def __len__(self) -> int:
        return self.contexts.shape[0]

    def exhausted(self, t: int) -> bool:
        return t >= len(self)

    def context(self, t: int) -> np.ndarray:
        return self.contexts[t]

    def feedback(self, t: int, arm: int) -> RoundFeedback:
        return RoundFeedback(
            reward=float(self.realized[t, arm]),
            oracle_reward=float(self.realized[t, self.oracle_arm[t]]))


class SyntheticHybridEnv:
    """Linear-plus-bumps rewards with a known oracle for exact regret.

    Expected reward of arm a at context x (a unit vector) is
    base_a + mu_a . x + sum_j v_aj * 1[||x - c_aj|| < radius], built so every
    expected value stays inside [-1, 1].  Contexts come from a fixed mixture
    of spherical clusters, mimicking how real feature vectors repeat with
    variation.  Realized rewards add one shared truncated-Gaussian noise draw
    per round, which keeps rewards bounded and preserves the oracle's
    dominance at every round.
    """

    # Structure budgets; |base| + ||mu|| + sum|v| <= 1 - NOISE margin keeps
    # every expected value inside [-1, 1].  Each arm splits one signal budget
    # between its linear part and its bumps, so the pool mixes almost-linear
    # arms with locally-perturbed ones.
    BASE_RANGE = (0.0, 0.1)
    SIGNAL_BUDGET = 0.6
    MU_SHARE = (0.1, 0.3)
    # Context mixture: cluster count and the typical perturbation norm
    # around a cluster center before re-normalization.  Clusters are drawn
    # uniformly, so every region of the context space recurs often enough
    # for neighbor stores to fill in.
    CONTEXT_CLUSTERS = 40
    CLUSTER_SPREAD = 0.25

    def __init__(self, seed: int, d: int, n_arms: int, bump_count: int,
                 noise_sigma: float, radius: float = 0.7):
        if d < 1:
            raise ValueError("d must be >= 1")
        if n_arms < 2:
            raise ValueError("need at least 2 arms")
        if bump_count < 0:
            raise ValueError("bump_count must be >= 0")
        if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
            raise ValueError("noise_sigma must be >= 0")
        self.seed = int(seed)
        self.dim = int(d)
        self.n_arms = int(n_arms)
        self.bump_count = int(bump_count)
        self.noise_sigma = float(noise_sigma)
        self.radius = float(radius)
        rng = np.random.default_rng(seed)
        n_clusters = self.CONTEXT_CLUSTERS
        centers = rng.standard_normal((n_clusters, d))
        self.cluster_centers = centers / np.linalg.norm(centers, axis=1)[:, None]
        self._cluster_sigma = self.CLUSTER_SPREAD / math.sqrt(d)
        self.cluster_probs = np.full(n_clusters, 1.0 / n_clusters)
        self.base = rng.uniform(*self.BASE_RANGE, size=n_arms)
        share = rng.uniform(*self.MU_SHARE, size=n_arms)
        if bump_count == 0:
            share = np.ones(n_arms)
        dirs = rng.standard_normal((n_arms, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        self.mu = dirs * (self.SIGNAL_BUDGET * share)[:, None]
        if bump_count > 0:
            # Each arm gets potholes: clusters where it would win on the
            # linear part alone but the payoff locally drops, handing the
            # lead to the runner-up.  The dips sit exactly on the argmax
            # path, so plain play discovers them, yet no global linear fit
            # can express a per-cluster dip without wrecking the rest.
            lin_scores = self.base[:, None] + self.mu @ self.cluster_centers.T
            best_arm = lin_scores.argmax(axis=0)
            picks = np.empty((n_arms, bump_count), dtype=np.int64)
            for a in range(n_arms):
                won = np.flatnonzero(best_arm == a)
                take = min(bump_count, won.size)
                chosen = rng.choice(won, size=take, replace=False)
                if take < bump_count:
                    rest = np.setdiff1d(np.arange(n_clusters), won)
                    filler = rng.choice(rest, size=bump_count - take,
                                        replace=bump_count - take > rest.size)
                    chosen = np.concatenate([chosen, filler])
                picks[a] = chosen
            self.bump_centers = self.cluster_centers[picks]
            mags = rng.uniform(0.5, 1.0, size=(n_arms, bump_count))
            mags /= mags.sum(axis=1)[:, None]
            self.bump_values = -mags * (self.SIGNAL_BUDGET
                                        * (1.0 - share))[:, None]
        else:
            self.bump_centers = np.zeros((n_arms, 0, d))
            self.bump_values = np.zeros((n_arms, 0))

    def expected_rewards(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = self.base + self.mu @ x
        if self.bump_count > 0:
            dist = np.linalg.norm(self.bump_centers - x, axis=2)
            out = out + (self.bump_values * (dist < self.radius)).sum(axis=1)
        return out

    def episode(self, seed: int, T: int) -> HybridStream:
        """The run's T rounds, drawn from a stream keyed by the run seed."""
        return self.play_batch(np.random.default_rng([seed, ENV_STREAM_SALT]), T)

    def play(self, rng: np.random.Generator) -> HybridRound:
        idx = int(rng.choice(self.CONTEXT_CLUSTERS, p=self.cluster_probs))
        z = rng.standard_normal(self.dim)
        x = self.cluster_centers[idx] + self._cluster_sigma * z
        x = x / np.linalg.norm(x)
        expected = self.expected_rewards(x)
        if self.noise_sigma > 0.0:
            lo = -1.0 - float(expected.min())
            hi = 1.0 - float(expected.max())
            xi = _truncated_normal(rng, self.noise_sigma, lo, hi)
        else:
            xi = 0.0
        realized = expected + xi
        return HybridRound(context=x, expected=expected, realized=realized,
                           oracle_arm=int(np.argmax(expected)))

    def play_batch(self, rng: np.random.Generator, T: int) -> HybridStream:
        """T rounds at once: all context draws first, then all noise draws.

        The per-round noise is one shared truncated-Gaussian value added to
        every arm, exactly as in play(); with T = 1 the two produce the same
        draws from a fresh generator.
        """
        if T < 1:
            raise ValueError("T must be >= 1")
        idx = rng.choice(self.CONTEXT_CLUSTERS, size=T, p=self.cluster_probs)
        Z = rng.standard_normal((T, self.dim))
        X = self.cluster_centers[idx] + self._cluster_sigma * Z
        X /= np.linalg.norm(X, axis=1)[:, None]
        expected = self.base + X @ self.mu.T
        if self.bump_count > 0:
            # (T, A, b) distances between each context and each bump center,
            # one (T, d) difference at a time rather than one (T, A, b, d) block.
            dist = np.empty((T, self.n_arms, self.bump_count))
            for a in range(self.n_arms):
                for j in range(self.bump_count):
                    diff = X - self.bump_centers[a, j]
                    dist[:, a, j] = np.sqrt((diff * diff).sum(axis=1))
            expected = expected + ((dist < self.radius)
                                   * self.bump_values[None, :, :]).sum(axis=2)
        if self.noise_sigma > 0.0:
            lo = -1.0 - expected.min(axis=1)
            hi = 1.0 - expected.max(axis=1)
            a = ndtr(lo / self.noise_sigma)
            b = ndtr(hi / self.noise_sigma)
            u = rng.uniform(size=T)
            xi = self.noise_sigma * ndtri(a + u * (b - a))
            xi = np.clip(xi, lo, hi)
            realized = expected + xi[:, None]
        else:
            realized = expected.copy()
        return HybridStream(contexts=X, expected=expected, realized=realized,
                            oracle_arm=np.argmax(expected, axis=1))

    def metadata(self) -> dict:
        return {"kind": "synthetic", "dim": self.dim, "n_arms": self.n_arms,
                "bump_count": self.bump_count, "noise_sigma": self.noise_sigma,
                "radius": self.radius, "seed": self.seed}


def synthetic_hybrid(seed: int, d: int, n_arms: int, bump_count: int,
                     noise_sigma: float, radius: float = 0.7) -> SyntheticHybridEnv:
    return SyntheticHybridEnv(seed, d, n_arms, bump_count, noise_sigma, radius)


def _truncated_normal(rng: np.random.Generator, sigma: float, lo: float,
                      hi: float) -> float:
    """One N(0, sigma^2) draw conditioned on [lo, hi], by inverse CDF."""
    a = ndtr(lo / sigma)
    b = ndtr(hi / sigma)
    u = rng.uniform()
    xi = float(sigma * ndtri(a + u * (b - a)))
    return min(max(xi, lo), hi)
