"""Experiment orchestration: single runs, parallel cells, canonical merging."""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Policy, ScoreBreakdown, as_int
from .env import (DataError, load_classification_csv, load_news_csv,
                  replay_step, synthetic_hybrid)
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

    ``env.episode(seed, T)`` gives the run's rounds: ``arrays(T, n_arms)``,
    the contexts, every arm's rewards and the oracle rewards, whose round t
    reads row t; or a replay's ``log()`` (``_ReplayEpisode``), whose round
    reads the cursor's row and ``replay_step`` from the cursor.

    An untraced run takes its rounds in C where it can (``_in_c``); a
    round C leaves to Python resumes at the same round and cursor.

    Returns (RunResult, trace_rows); trace_rows, one ScoreBreakdown of the
    chosen arm per round, is None unless requested.
    """
    T, seed = as_int(T, "T", 1), as_int(seed, "seed", 0)
    if not hasattr(env, "episode"):
        raise TypeError(f"unsupported environment {type(env).__name__}")
    t0 = time.perf_counter()
    episode = env.episode(seed, T)
    rounds, oracle = _record(episode, policy, T)
    contexts, table, _, log, at = rounds
    in_c = not trace and _in_c(policy, rounds)
    # At most one round per row: a replay round consumes its matched row.
    rewards = np.empty(min(T, len(contexts)))
    trace_rows: Optional[List[ScoreBreakdown]] = [] if trace else None
    t = 0
    while t < len(rewards) and (log is None or at[0] < at[1]):
        if in_c:
            t = policy._run(*rounds, t, rewards)
            if t == len(rewards) or (log is not None and at[0] == at[1]):
                break
        x = contexts[t if log is None else at[0]]
        arm = policy.select(x, t)
        if log is None:
            reward = table[t, arm]
        else:
            fb, at[0] = replay_step(episode.env, arm, int(at[0]))
            if not fb.step_consumed:
                break
            reward = fb.reward
        if trace:
            trace_rows.append(policy.selected_table().row(arm))
        policy.update(arm, x, reward)
        rewards[t] = reward
        t += 1

    if not t:
        raise DataError("no rounds executed (no replay matches?)")
    runtime = time.perf_counter() - t0
    result = RunResult.from_rewards(policy.name, params_label, seed, rewards[:t],
                                    oracle_rewards=None if oracle is None else oracle[:t],
                                    matched_steps=t, runtime_s=runtime)
    return result, trace_rows


def _record(episode, policy: Policy, T: int):
    """The run's rounds as ``policy._run`` takes them, (contexts, rewards,
    arm count, logged arms, cursor), with the oracle rewards (None for a
    replay log): a replay's ``log()``, or ``arrays``' as float64 rows."""
    if hasattr(episode, "log"):
        return episode.log(), None
    if not hasattr(episode, "arrays"):
        raise TypeError(f"episode {type(episode).__name__} has neither "
                        "arrays(T, n_arms) nor log()")
    contexts, rewards, oracle = episode.arrays(T, policy.n_arms)
    contexts, rewards = (np.ascontiguousarray(a, dtype=np.float64) for a in (contexts, rewards))
    return (contexts, rewards, rewards.shape[1], None, None), oracle


def _in_c(policy: Policy, rounds) -> bool:
    """Whether ``policy._run`` takes the rounds: the policy's context width
    and arms, its ``_runs_in_c()`` (an lnucb-ta, linucb, lin-knn-ucb or
    knn-ucb that can run in C), and Policy's own select and update (not a
    subclass's, nor a wrapper with __wrapped__)."""
    own = all(getattr(getattr(policy, v), "__func__", None) is getattr(Policy, v)
              and not hasattr(getattr(Policy, v), "__wrapped__") for v in ("select", "update"))
    return (own and policy._runs_in_c() and rounds[0].shape[1] == policy.dim
            and (rounds[3] is not None or rounds[2] >= policy.n_arms))


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
