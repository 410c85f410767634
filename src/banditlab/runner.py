"""Experiment orchestration: single runs, parallel cells, canonical merging."""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Policy, ScoreBreakdown, as_int
from .env import (DataError, load_classification_csv, load_news_csv,
                  synthetic_hybrid)
from .metrics import RunResult
from .policies import make_policy


@dataclass(frozen=True)
class EnvSpec:
    """Declarative environment description; hashable so workers can cache."""

    kind: str  # synthetic | classification | news
    path: Optional[str] = None
    label_column: int = -1
    has_header: bool = False
    shuffle_seed: int = 0
    env_seed: int = 0
    d: int = 10
    n_arms: int = 5
    bump_count: int = 3
    noise_sigma: float = 0.05
    radius: float = 0.7
    # The fields besides kind that build() reads for each kind.
    READS: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "synthetic": ("env_seed", "d", "n_arms", "bump_count", "noise_sigma", "radius"),
        "classification": ("path", "label_column", "has_header", "shuffle_seed"),
        "news": ("path",)}

    def build(self):
        if self.kind == "synthetic":
            return synthetic_hybrid(self.env_seed, self.d, self.n_arms,
                                    self.bump_count, self.noise_sigma,
                                    self.radius)
        if self.kind == "classification":
            if not self.path:
                raise ValueError("classification env needs a data path")
            return load_classification_csv(self.path, self.label_column,
                                           self.shuffle_seed, self.has_header)
        if self.kind == "news":
            if not self.path:
                raise ValueError("news env needs a data path")
            return load_news_csv(self.path)
        raise ValueError(f"unknown env kind {self.kind!r}")


_ENV_CACHE: Dict[EnvSpec, object] = {}


def build_env(spec: EnvSpec):
    env = _ENV_CACHE.get(spec)
    if env is None:
        env = spec.build()
        _ENV_CACHE[spec] = env
    return env


def param_slug(params: Dict) -> str:
    """Canonical, filename-safe rendering of a parameter dict."""
    if not params:
        return "default"
    parts = []
    for k in sorted(params):
        v = params[k]
        v = v.item() if isinstance(v, np.generic) else v  # np.float64(0.1) is 0.1
        if isinstance(v, bool):
            s = str(v).lower()
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        parts.append(f"{k}={s}")
    return ",".join(parts)


@dataclass(frozen=True)
class Cell:
    """One run to execute: a policy setting at one seed."""

    policy_id: str
    params: tuple  # sorted (key, value) pairs
    T: int
    seed: int

    @staticmethod
    def make(policy_id: str, params: Dict, T: int, seed: int) -> "Cell":
        return Cell(policy_id=policy_id,
                    params=tuple(sorted(params.items())), T=as_int(T, "T", 1),
                    seed=as_int(seed, "seed", 0))

    @property
    def params_dict(self) -> Dict:
        return dict(self.params)

    @property
    def slug(self) -> str:
        return param_slug(self.params_dict)

    def sort_key(self) -> tuple:
        return (self.policy_id, self.slug, self.seed)


def run_policy(env, policy: Policy, T: int, seed: int, trace: bool = False,
               params_label: str = "default"):
    """Drive one policy through one environment for up to T rounds.

    ``env.episode(seed, T)`` gives the run's rounds: ``exhausted(t)``,
    ``context(t)`` and ``feedback(t, arm)``, whose ``step_consumed`` is
    False when the round never happened and whose ``oracle_reward`` is set
    when the env knows the best arm's reward.

    An untraced run of an array episode or a replay log runs in C where it
    can (``_array_rounds``); a round C leaves to Python resumes at the same
    round, and for a replay at the cursor C left.

    Returns (RunResult, trace_rows); trace_rows, one ScoreBreakdown of the
    chosen arm per round, is None unless requested.
    """
    T, seed = as_int(T, "T", 1), as_int(seed, "seed", 0)
    if not hasattr(env, "episode"):
        raise TypeError(f"unsupported environment {type(env).__name__}")
    t0 = time.perf_counter()
    episode = env.episode(seed, T)
    arrays = None if trace else _array_rounds(episode, policy, T)
    # At most one round per row: a replay round consumes its matched row.
    rewards, oracle = ([], []) if arrays is None else (
        np.empty(min(T, len(arrays[0][0]))), arrays[1])
    trace_rows: Optional[List[ScoreBreakdown]] = [] if trace else None
    t = 0
    while t < T and not episode.exhausted(t):
        if arrays is not None:
            t = policy._run(*arrays[0], t, rewards)
            if t == T or episode.exhausted(t):
                break
        x = episode.context(t)
        arm = policy.select(x, t)
        fb = episode.feedback(t, arm)
        if not fb.step_consumed:
            break
        if trace:
            trace_rows.append(policy.selected_table().row(arm))
        policy.update(arm, x, fb.reward)
        if arrays is not None:
            rewards[t] = fb.reward
        else:
            rewards.append(fb.reward)
            if fb.oracle_reward is not None:
                oracle.append(fb.oracle_reward)
        t += 1

    if not t:
        raise DataError("no rounds executed (no replay matches?)")
    runtime = time.perf_counter() - t0
    result = RunResult.from_rewards(policy.name, params_label, seed, rewards[:t],
                                    oracle_rewards=oracle if len(oracle) else None,
                                    matched_steps=t, runtime_s=runtime)
    return result, trace_rows


def _array_rounds(episode, policy: Policy, T: int):
    """``policy._run``'s (contexts, rewards, arm count, logged arms, cursor)
    for the episode, with its oracle rewards (none for a replay log), or None:
    no such arrays, a policy whose ``_runs_in_c()`` does not hold (any but an
    lnucb-ta, linucb, lin-knn-ucb or knn-ucb that can run in C), or a select
    or update not Policy's own (a subclass's, or a wrapper with __wrapped__)."""
    own = all(getattr(getattr(policy, v), "__func__", None) is getattr(Policy, v)
              and not hasattr(getattr(Policy, v), "__wrapped__") for v in ("select", "update"))
    if not (own and policy._runs_in_c()):
        return None
    if hasattr(episode, "log"):  # ReplayLogEnv holds its arrays contiguous
        got = episode.log()
        return (got, []) if got[0].shape[1] == policy.dim else None
    got = episode.arrays(T, policy.n_arms) if hasattr(episode, "arrays") else None
    if got is None or any(a.ndim != 2 or a.dtype != np.float64 for a in got[:2]) or (
            got[0].shape[1] != policy.dim or got[1].shape[1] < policy.n_arms):
        return None
    rounds = np.ascontiguousarray(got[0]), np.ascontiguousarray(got[1])
    return (*rounds, got[1].shape[1], None, None), got[2]


def run_cell(env_spec: EnvSpec, cell: Cell, trace: bool = False):
    env = build_env(env_spec)
    policy = make_policy(cell.policy_id, env.n_arms, env.dim, seed=cell.seed,
                         **cell.params_dict)
    return run_policy(env, policy, cell.T, cell.seed, trace=trace,
                      params_label=cell.slug)


def _worker(args) -> Tuple[Cell, RunResult]:
    env_spec, cell = args
    result, _ = run_cell(env_spec, cell)
    return cell, result


def execute_cells(env_spec: EnvSpec, cells: Sequence[Cell],
                  jobs: int = 1) -> List[Tuple[Cell, RunResult]]:
    """Run all cells and return them merged in canonical order.

    Parallelism never changes results: each cell owns its state, and the
    cells are sorted by (policy, params, seed) once, before they run;
    pool.map keeps that order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ordered = sorted(cells, key=Cell.sort_key)
    if jobs == 1 or len(ordered) <= 1:
        return [_worker((env_spec, c)) for c in ordered]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_worker, [(env_spec, c) for c in ordered]))
