"""Shared domain types, deterministic randomness, and the policy interface."""
from __future__ import annotations

import functools
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np


def as_context(values, dim: Optional[int] = None) -> np.ndarray:
    """Validate and return a context vector as a float64 array.

    Raises ValueError on non-finite entries, on a squared norm whose
    fourfold overflows (that headroom keeps ||c - x||^2 finite for any two
    accepted contexts), or on a dimension mismatch with ``dim`` when given.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        x = values
    else:
        x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"context must be 1-D, got shape {x.shape}")
    norm = math.hypot(*x.tolist())  # scaled: it neither overflows nor warns
    if not math.isfinite(4.0 * norm * norm):
        raise ValueError("context is non-finite or its squared norm overflows")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"context dimension {x.shape[0]} != expected {dim}")
    return x


_EXACT = 2 ** 1023  # float() of a smaller int is finite and whole


def as_int(value, name: str, lower: Optional[int] = None) -> int:
    """value as an int (3.0 is 3) of at least ``lower`` when given; a bool,
    2.5 or a smaller value raises ValueError naming it."""
    if not (type(value) is int and -_EXACT < value < _EXACT) and (  # which passes the checks
            isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lower is not None and value < lower:
        raise ValueError(f"{name} must be >= {lower}")
    return int(value)


def as_bool(value, name: str) -> bool:
    """value if it is a bool; anything else raises ValueError naming it."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def as_real(value, name: str) -> float:
    """value as a float; a bool or a non-number raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_nonneg(value, name: str, upper: float = math.inf) -> float:
    """value as a finite float in [0, upper]; else ValueError naming it."""
    v = as_real(value, name)
    if not (math.isfinite(v) and 0.0 <= v <= upper):
        raise ValueError(f"{name} must be " + (
            ">= 0" if upper == math.inf else f"in [0, {upper:g}]"))
    return v


def as_positive(value, name: str) -> float:
    """value as a finite float > 0; else ValueError naming it."""
    v = as_real(value, name)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be positive and finite")
    return v


def as_reward(value) -> float:
    """value as a float; NaN or an infinity raises ValueError."""
    reward = float(value)
    if not math.isfinite(reward):
        raise ValueError("reward must be finite")
    return reward


TIE_BREAKS = ("lowest-index", "seeded-random")


def round_rng(seed: int, round: int) -> np.random.Generator:
    """Generator keyed by (seed, round).

    Stochastic policies draw per-call randomness with these bits (through
    Policy._rng, which reseeds a kept generator to them in C where it can),
    so select() never mutates policy state and repeated calls with the same
    arguments return the same choice.
    """
    return np.random.default_rng([seed, round])


@functools.cache
def _steps():
    """banditlab._cstep, imported at first use: it imports attention, which imports core."""
    from . import _cstep
    return _cstep


def argmax_tiebreak(
    scores: np.ndarray,
    tie_break: str = "lowest-index",
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Argmax over a finite score vector with a deterministic tie rule.

    "lowest-index": first maximal entry wins. "seeded-random": a uniform
    draw from ``rng`` among the exactly-maximal entries.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("no arms to select from")
    if tie_break == "lowest-index":
        return int(scores.argmax())
    if tie_break == "seeded-random":
        if rng is None:
            raise ValueError("seeded-random tie-break needs an rng")
        ties = np.flatnonzero(scores == scores.max())
        return int(ties[rng.integers(len(ties))])
    raise ValueError(f"unknown tie_break {tie_break!r}")


@dataclass(frozen=True)
class ScoreBreakdown:
    """One arm's score decomposition: ucb = linear + knn + alpha*width."""

    linear: float
    knn: float
    alpha: float
    width: float
    ucb: float


@dataclass
class ScoreTable:
    """Per-arm score components for one round; rows align with arm indices."""

    linear: np.ndarray
    knn: np.ndarray
    alpha: np.ndarray
    width: np.ndarray
    ucb: np.ndarray

    @staticmethod
    def of_ucb(scores: np.ndarray) -> "ScoreTable":
        """The table of a policy without a breakdown: only ucb is filled."""
        z = np.zeros_like(scores)
        return ScoreTable(linear=z, knn=z.copy(), alpha=z.copy(), width=z.copy(),
                          ucb=scores)

    def row(self, arm: int) -> ScoreBreakdown:
        return ScoreBreakdown(
            linear=float(self.linear[arm]),
            knn=float(self.knn[arm]),
            alpha=float(self.alpha[arm]),
            width=float(self.width[arm]),
            ucb=float(self.ucb[arm]),
        )


class Policy(ABC):
    """Common interface for every bandit algorithm in this package.

    ``select``, ``update`` and ``scores`` check their inputs here, once.  A
    policy implements ``_scores`` and ``_update``, which get the checked
    values, and may override ``_choose`` (argmax with the tie rule).

    ``select`` never changes the model: repeated calls with the same
    arguments return the same arm.  ``update`` mutates only the chosen
    arm's model plus the global reward statistics, and a call that raises
    leaves the policy as it was.
    """

    name: str = "policy"

    def __init__(self, n_arms: int, dim: int, seed: int = 0,
                 tie_break: str = "lowest-index"):
        self.n_arms = as_int(n_arms, "n_arms", 1)
        self.dim = as_int(dim, "dim", 1)
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.seed = as_int(seed, "seed", 0)
        self.tie_break = tie_break

    @abstractmethod
    def _scores(self, x: np.ndarray, round: int) -> np.ndarray:
        """Per-arm selection scores for a checked context; pure."""

    @abstractmethod
    def _update(self, arm: int, x: np.ndarray, reward: float) -> None:
        """Fold one checked (arm, context, finite reward) into the model."""

    def scores(self, x: np.ndarray, round: int) -> np.ndarray:
        """Per-arm selection scores for this context."""
        return self._scores(as_context(x, self.dim), round)

    def update(self, arm: int, x: np.ndarray, reward: float) -> None:
        """Fold one observed (arm, context, reward) into the model."""
        self._update(self._check_arm(arm), as_context(x, self.dim),
                     as_reward(reward))

    def score_table(self, x: np.ndarray, round: int) -> ScoreTable:
        """Per-arm score components; a policy without a breakdown fills only ucb."""
        return ScoreTable.of_ucb(self.scores(x, round))

    def select(self, x: np.ndarray, round: int) -> int:
        self._selected = self._scores(as_context(x, self.dim), round)
        return self._choose(self._selected, round)

    def selected_table(self) -> ScoreTable:
        """score_table() of the last select(), kept from its scoring pass."""
        return ScoreTable.of_ucb(self._selected)

    def _choose(self, scores: np.ndarray, round: int) -> int:
        """The arm select() returns for these scores."""
        rng = self._rng(round) if self.tie_break == "seeded-random" else None
        return argmax_tiebreak(scores, self.tie_break, rng)

    def _rng(self, round: int) -> np.random.Generator:
        """round_rng(self.seed, round)'s generator: this policy's kept one,
        reseeded in C by ``_cstep.ROUND_SEED``, or round_rng itself where that
        is None or seed or round is not below 2**64."""
        seeding = _steps().ROUND_SEED
        if seeding is None or not (0 <= round < 2 ** 64 and self.seed < 2 ** 64):
            return round_rng(self.seed, round)
        if not hasattr(self, "_gen"):
            self._gen = np.random.default_rng(0)
        # The address is read each time: a copied policy reseeds its own copy.
        seeding(self._gen.bit_generator.ctypes.state_address, self.seed, round)
        return self._gen

    def _runs_in_c(self) -> bool:
        """Whether ``_run`` takes an untraced run's rounds in C (policies)."""
        return False

    def _check_arm(self, arm: int) -> int:
        arm = as_int(arm, "arm", 0)
        if arm >= self.n_arms:
            raise ValueError(f"arm {arm} out of range [0, {self.n_arms})")
        return arm
