"""Test oracles: direct, slow references for the incremental state.

A direct ridge solve for the incremental ridge, a full-sort k-NN for the
bank's pass, the scalar attention rate for the vectorized one, a
confidence ellipsoid, and a ridge's width and determinant.  Nothing in the
package calls them.
"""
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from banditlab.attention import AttentionParams
from banditlab.core import as_context, as_int, as_nonneg, as_positive
from banditlab.knn import KnnScore, NeighborStore
from banditlab.linear import RidgeState


def width_sq(ridge: RidgeState, x) -> float:
    """x^T sigma^-1 x, floored at 0 against round-off."""
    return ridge._width_sq(as_context(x, ridge.dim))


def det_sigma(ridge: RidgeState) -> float:
    return float(np.linalg.det(ridge.sigma))


@dataclass
class ConfidenceBall:
    """Ellipsoid {mu : (mu - center)^T shape (mu - center) <= radius_sq}."""

    center: np.ndarray
    shape: np.ndarray
    radius_sq: float

    def __post_init__(self):
        self.radius_sq = as_nonneg(self.radius_sq, "radius_sq")

    def boundary_point(self, direction) -> np.ndarray:
        """The boundary point center + sqrt(radius_sq) * shape^{-1/2} u, u = unit direction."""
        u = np.asarray(direction, dtype=np.float64)
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("direction must be nonzero")
        u = u / norm
        vals, vecs = np.linalg.eigh(self.shape)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        return self.center + np.sqrt(self.radius_sq) * (inv_sqrt @ u)


def solve_batch(contexts: Sequence, residuals: Sequence[float], lam: float,
                dim: Optional[int] = None) -> np.ndarray:
    """Direct batch ridge solve of (X^T X + lam I) mu = X^T y.

    Test oracle for the incremental state; empty data returns the zero vector
    (``dim`` required in that case).
    """
    lam = as_positive(lam, "lam")
    rows = [as_context(c) for c in contexts]
    if not rows:
        if dim is None:
            raise ValueError("dim required for empty data")
        return np.zeros(int(dim))
    X = np.vstack(rows)
    y = np.asarray(residuals, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("residuals length must match contexts")
    d = X.shape[1]
    if dim is not None and d != dim:
        raise ValueError("context dimension mismatch")
    return np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ y)


def knn_score_bruteforce(store: NeighborStore, x, k: int) -> KnnScore:
    """Full-sort oracle with the same contract as knn_score; test use only."""
    k = as_int(k, "k", 1)
    x = as_context(x, store.dim)
    n = len(store)
    if n < k:
        return KnnScore.not_applied()
    contexts = store.contexts
    norm2 = np.array([c.dot(c) for c in contexts])
    d2 = norm2 - 2.0 * (contexts @ x) + float(x @ x)
    np.maximum(d2, 0.0, out=d2)
    order = np.lexsort((store.rounds, d2))
    sel = order[:k]
    score = float(np.add.reduce(store.rewards[sel]) / k)
    u_max = float(np.sqrt(d2[sel[-1]]))
    return KnnScore(score=score, k_used=k, u_max=u_max, applied=True)


def exploration_rate(params: AttentionParams, N: int, g: float, n: float) -> float:
    """alpha0 / (N + 1) * (kappa*g + (1 - kappa)*n).

    Negative values (possible with negative rewards) pass through unmodified.
    """
    N = as_int(N, "N", 0)
    return params.alpha0 / (N + 1) * (params.kappa * g + (1.0 - params.kappa) * n)
