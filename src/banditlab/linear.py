"""Per-arm online ridge regression: linear estimate, covariance geometry, width."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import as_context, as_nonneg, as_positive

# Rebuild the maintained inverse when max|sigma @ sigma_inv - I| drifts past this.
INVERSE_DRIFT_TOL = 1e-6
# Rank-one inverse updates between two O(d^3) drift checks.  Round-off grows
# by a few ulps per update, far below the tolerance over this many.
DRIFT_CHECK_EVERY = 32


@functools.cache
def _lapack():
    """scipy.linalg.lapack, loaded by the first shifted ridge."""
    # Imported here: scipy.linalg costs ~6 MB RSS that gamma_cov=0 runs never need.
    from scipy.linalg import lapack
    return lapack


class RidgeState:
    """Online ridge regression: sigma, b and mu_hat = sigma^-1 b.

    sigma starts at lambda*I and accumulates x x^T plus an isotropic
    inflation gamma_cov * e * I per update.  How sigma^-1 is applied depends
    on gamma_cov, fixed at construction:

    * gamma_cov = 0: every update is rank one, so the inverse is maintained
      by Sherman-Morrison, and drift from sigma^-1 is checked after every
      DRIFT_CHECK_EVERY updates.  Widths are one matvec, which lets a
      policy stack its arms' inverses and score them in one product.
    * gamma_cov > 0: the shift is not rank one, so sigma is refactored as
      L L^T (lower Cholesky, LAPACK dpotrf; L is ``chol``) after every
      update.  mu_hat comes from dpotrs and width^2 = ||L^-1 x||^2 from one
      triangular solve.  Forming sigma^-1 here would cost an O(d^3) inverse
      per update; sigma_inv is solved from L only when it is read.

    At d=100 the factored path costs more than a rank-one update plus a
    stacked product: on a 2-core VM, linucb went from 130-150 to 200-230
    us/round when it was tried for gamma_cov = 0.  So each ridge keeps the
    cheaper of the two.
    """

    def __init__(self, dim: int, lam: float, gamma_cov: float = 0.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.lam = as_positive(lam, "lam")
        self.gamma_cov = as_nonneg(gamma_cov, "gamma_cov")
        self.sigma = self.lam * np.eye(self.dim)
        self.b = np.zeros(self.dim)
        self.mu_hat = np.zeros(self.dim)
        # Exactly one of the two is kept: the inverse (gamma_cov = 0) or the
        # lower Cholesky factor of sigma (gamma_cov > 0).
        self._inv: Optional[np.ndarray] = None
        self.chol: Optional[np.ndarray] = None
        if self.gamma_cov > 0.0:
            self._factor()
        else:
            self._inv = (1.0 / self.lam) * np.eye(self.dim)
        self._rank_one_updates = 0  # since _inv was last computed from sigma

    @property
    def sigma_inv(self) -> np.ndarray:
        """sigma^-1: the maintained inverse, or a fresh solve with the factor."""
        if self.chol is None:
            return self._inv
        inv, _ = _lapack().dpotrs(self.chol, np.eye(self.dim), lower=1)
        return inv

    def _factor(self) -> None:
        """Refactor sigma = L L^T and solve mu_hat from it."""
        lapack = _lapack()
        chol, info = lapack.dpotrf(self.sigma, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("sigma is not positive definite")
        self.chol = chol
        self.mu_hat, _ = lapack.dpotrs(chol, self.b, lower=1)

    def predict(self, x) -> float:
        """Linear reward estimate mu_hat . x."""
        x = as_context(x, self.dim)
        return float(self.mu_hat @ x)

    def width_sq(self, x) -> float:
        """x^T sigma^-1 x, floored at 0 against round-off."""
        return self._width_sq(as_context(x, self.dim))

    def _width_sq(self, x: np.ndarray) -> float:
        """width_sq for an already validated context."""
        if self.chol is None:
            return max(float(x @ (self._inv @ x)), 0.0)
        v, _ = _lapack().dtrtrs(self.chol, x, lower=1)
        return float(v.dot(v))

    def update(self, x, residual: float, e_knn: float = 0.0) -> None:
        """Fold one observation: sigma += x x^T + gamma_cov*e_knn*I, b += residual*x."""
        x = as_context(x, self.dim)
        if not math.isfinite(residual):
            raise ValueError("residual must be finite")
        if not (math.isfinite(e_knn) and e_knn >= 0):
            raise ValueError("e_knn must be finite and >= 0")
        self._update(x, residual, e_knn)

    def _update(self, x: np.ndarray, residual: float, e_knn: float) -> None:
        """update() for a checked context, finite residual and e_knn >= 0."""
        self.sigma += x[:, None] * x
        self.b += float(residual) * x
        if self.chol is not None:
            inflate = self.gamma_cov * float(e_knn)
            if inflate > 0.0:
                # sigma is C-contiguous: this steps along its diagonal in place.
                self.sigma.reshape(-1)[::self.dim + 1] += inflate
            self._factor()
            return
        # Sherman-Morrison rank-one inverse update.
        v = self._inv @ x
        self._inv -= v[:, None] * v / (1.0 + float(x.dot(v)))
        self._rank_one_updates += 1
        if self._rank_one_updates == DRIFT_CHECK_EVERY:
            self._rank_one_updates = 0
            drift = np.abs(self.sigma @ self._inv - np.eye(self.dim)).max()
            if drift > INVERSE_DRIFT_TOL:
                self._inv = np.linalg.inv(self.sigma)
        self.mu_hat = self._inv @ self.b

    def det_sigma(self) -> float:
        return float(np.linalg.det(self.sigma))


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
