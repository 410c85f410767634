"""Per-arm online ridge regression: linear estimate, covariance geometry, width."""
from __future__ import annotations

import functools
import math
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _cstep
from .core import as_context, as_int, as_nonneg, as_positive

# Rebuild the maintained inverse when max|sigma @ sigma_inv - I| drifts past this.
INVERSE_DRIFT_TOL = 1e-6
# Rank-one inverse updates between two O(d^3) drift checks.  Round-off grows
# by a few ulps per update, far below the tolerance over this many.
DRIFT_CHECK_EVERY = 32


@functools.cache
def _lapack():
    """scipy.linalg.lapack and, for a policy's compiled update, the addresses
    of the routines it wraps (or None), loaded by the first shifted ridge."""
    # Imported here: scipy.linalg costs ~6 MB RSS that gamma_cov=0 runs never need.
    from scipy.linalg import cython_lapack, lapack
    return lapack, _cstep.lapack_routines(cython_lapack)


class RidgeState:
    """Online ridge regression: sigma, b and mu_hat = sigma^-1 b.

    sigma starts at lambda*I and accumulates x x^T plus an isotropic
    inflation gamma_cov * e * I per update.  How sigma^-1 is applied depends
    on gamma_cov, fixed at construction:

    * gamma_cov = 0: every update is rank one, so the inverse is maintained
      by Sherman-Morrison, and drift from sigma^-1 is checked after every
      DRIFT_CHECK_EVERY updates; an update that leaves a diagonal entry
      <= 0 rebuilds it at once.  Widths are one matvec, which lets a
      policy stack its arms' inverses and score them in one product.
    * gamma_cov > 0: the shift is not rank one, so sigma is refactored as
      L L^T (lower Cholesky, LAPACK dpotrf; L is ``chol``) after every
      update.  mu_hat comes from dpotrs and width^2 = ||L^-1 x||^2 from one
      triangular solve.  Forming sigma^-1 here would cost an O(d^3) inverse
      per update; sigma_inv is solved from L only when it is read.

    This numpy/f2py update is the reference and fallback of a policy's
    compiled one (``_cstep.update_round``), which has its bits.  ``rows``
    (see ``_bind``) puts the ridge in a policy's stacks.
    """

    def __init__(self, dim: int, lam: float, gamma_cov: float = 0.0,
                 rows: Optional[Tuple[np.ndarray, ...]] = None):
        self.dim = as_int(dim, "dim", 1)
        self.lam = as_positive(lam, "lam")
        self.gamma_cov = as_nonneg(gamma_cov, "gamma_cov")
        d = self.dim
        rows = rows or [np.empty(s) for s in (d, (d, d), (d, d), d, 1)] + [np.empty(1, np.int64)]
        self._bind(rows)
        self.mu_hat[...], rows[1][...], self.b[...] = 0.0, 0.0, 0.0
        self.sigma[...] = self.lam * np.eye(d)
        # See _check (its running bound, and the largest one) and _rank_one_done.
        self._scale[0], self._rank_one_updates[0] = self.lam * d, 0
        self._scale_max = sys.float_info.max / 8.0 * min(self.lam, 1.0) ** 2
        if self.chol is not None:
            self._factor(self.sigma, self.b)
        else:
            np.fill_diagonal(self._inv, 1.0 / self.lam)

    def _bind(self, rows) -> None:
        """Keep mu_hat, the inverse or L^T, sigma, b, bound and drift count in rows."""
        self.mu_hat, square, self.sigma, self.b, self._scale, self._rank_one_updates = rows
        # Either the inverse (gamma_cov = 0) or sigma's lower Cholesky factor.
        self._inv, self.chol = (None, square.T) if self.gamma_cov > 0.0 else (square, None)

    @property
    def sigma_inv(self) -> np.ndarray:
        """sigma^-1: the maintained inverse, or a fresh solve with the factor."""
        if self.chol is None:
            return self._inv
        inv, _ = _lapack()[0].dpotrs(self.chol, np.eye(self.dim), lower=1)
        return inv

    def _factor(self, sigma: np.ndarray, b: np.ndarray) -> None:
        """Factor sigma = L L^T, then keep sigma, b, L and mu_hat solved from
        them, in place; a sigma that is not positive definite raises first."""
        lapack = _lapack()[0]
        chol, info = lapack.dpotrf(sigma, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError("sigma is not positive definite")
        self.sigma[...], self.b[...], self.chol[...] = sigma, b, chol
        self.mu_hat[...] = lapack.dpotrs(chol, self.b, lower=1)[0]

    def predict(self, x) -> float:
        """Linear reward estimate mu_hat . x."""
        x = as_context(x, self.dim)
        return float(self.mu_hat @ x)

    def _width_sq(self, x: np.ndarray) -> float:
        """x^T sigma^-1 x for a checked context, floored at 0 against round-off."""
        if self.chol is None:
            return max(float(x @ (self._inv @ x)), 0.0)
        v, _ = _lapack()[0].dtrtrs(self.chol, x, lower=1)
        return float(v.dot(v))

    def update(self, x, residual: float, e_knn: float = 0.0) -> None:
        """Fold one observation: sigma += x x^T + gamma_cov*e_knn*I, b += residual*x."""
        x = as_context(x, self.dim)
        if not math.isfinite(residual):
            raise ValueError("residual must be finite")
        if not (math.isfinite(e_knn) and e_knn >= 0):
            raise ValueError("e_knn must be finite and >= 0")
        self._rank_one_done(self._update(x, residual, e_knn, self._check(x, residual, e_knn)))

    def _check(self, x: np.ndarray, residual: float, e_knn: float) -> float:
        """The running bound after this update, or ValueError if it overflows:
        |sigma|, |b| <= scale = trace(sigma) + sum |r| ||x||, and v v^T, mu_hat
        and the drift check's products <= scale / lam^2 for lam <= 1, with 8x
        headroom for rounding."""
        xx = float(x.dot(x))
        scale = (float(self._scale[0]) + xx + self.dim * (self.gamma_cov * e_knn)
                 + abs(residual) * math.sqrt(xx))
        if not scale <= self._scale_max:  # NaN fails too
            raise ValueError("ridge update overflows: sigma, b or mu_hat "
                             "would not stay finite")
        return scale

    def _update(self, x: np.ndarray, residual: float, e_knn: float,
                scale: float) -> Optional[bool]:
        """update() for a checked context, finite residual, e_knn >= 0 and
        _check's ``scale``, but for the drift check: returns _rank_one_done's
        ``lost`` (None after a factored update).  A shifted sigma that is not
        positive definite raises before anything changes."""
        residual = float(residual)
        if self.chol is not None:
            sigma = self.sigma + x[:, None] * x
            inflate = self.gamma_cov * float(e_knn)
            if inflate > 0.0:
                # sigma is C-contiguous: this steps along its diagonal in place.
                sigma.reshape(-1)[::self.dim + 1] += inflate
            self._factor(sigma, self.b + residual * x)
            self._scale[0] = scale
            return None
        # Sherman-Morrison rank-one inverse update.
        v = self._inv @ x
        s = 1.0 + float(x.dot(v))
        self.sigma += x[:, None] * x
        self.b += residual * x
        self._inv -= v[:, None] * v / s
        self._scale[0] = scale
        np.matmul(self._inv, self.b, out=self.mu_hat)
        return not np.diagonal(self._inv).min() > 0.0

    def _rank_one_done(self, lost: Optional[bool]) -> None:
        """After a rank-one update (nothing after a factored one, lost None):
        count it, and rebuild the inverse, and mu_hat, where it ``lost`` a
        diagonal entry (round-off left it not positive definite) or drifted
        past the tolerance, checked every DRIFT_CHECK_EVERY updates."""
        if lost is None:
            return
        self._rank_one_updates[0] += 1
        if lost or self._rank_one_updates[0] == DRIFT_CHECK_EVERY:
            self._rank_one_updates[0] = 0
            drift = np.abs(self.sigma @ self._inv - np.eye(self.dim)).max()
            if lost or drift > INVERSE_DRIFT_TOL:
                self._inv[...] = np.linalg.inv(self.sigma)
                np.matmul(self._inv, self.b, out=self.mu_hat)


def widths_sq(ridges: Sequence[RidgeState], squares: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """Each ridge's _width_sq for a checked context, where squares[a] holds
    ridges[a]'s inverse or L^T (the rows it was built with)."""
    if ridges[0].chol is None:
        return np.maximum((squares @ x) @ x, 0.0)
    return np.array([r._width_sq(x) for r in ridges])

