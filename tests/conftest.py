"""Shared benchmark fixtures: the synthetic suite every ordering test reuses."""
import contextlib
import hashlib
import importlib.util
import shutil
import sysconfig
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from banditlab import _cstep
from banditlab.env import ReplayLogEnv
from banditlab.knn import NeighborBank
from banditlab.runner import Cell, EnvSpec, execute_cells

# The steps to check: None (numpy's round, or the csv loop), then the
# compiled one where it is built.  PASS_STEPS are BLAS values for the
# round, PARSE_STEPS STEP values for load_news_csv.
PASS_STEPS = [None] + ([_cstep.BLAS] if _cstep.BLAS else [])
PARSE_STEPS = [None] + ([_cstep.STEP] if _cstep.STEP else [])
PASS_IDS = ["numpy", "compiled"][:len(PASS_STEPS)]
PARSE_IDS = ["loop", "compiled"][:len(PARSE_STEPS)]
# Where this holds, _cstep builds the compiled steps: the is-active tests
# fail if they do not load.
CAN_BUILD = (importlib.util.find_spec("cffi") is not None and shutil.which(
    (sysconfig.get_config_var("CC") or "cc").split()[0]) is not None)


@contextlib.contextmanager
def compiled_step(step=_cstep.STEP, blas=_cstep.BLAS):
    """Run with these ``_cstep.STEP`` and ``BLAS`` (None: without them); no
    BLAS without STEP, as _cstep loads them.  Numpy's round (no BLAS) also
    seeds each round's generator in numpy (``ROUND_SEED`` None)."""
    saved = _cstep.STEP, _cstep.BLAS, _cstep.ROUND_SEED
    _cstep.STEP, _cstep.BLAS = step, blas if step else None
    _cstep.ROUND_SEED = saved[2] if _cstep.BLAS else None
    try:
        yield
    finally:
        _cstep.STEP, _cstep.BLAS, _cstep.ROUND_SEED = saved


@pytest.fixture(params=PASS_STEPS, ids=PASS_IDS)
def each_pass(request):
    """Run the test under each round: numpy's, then the compiled one."""
    with compiled_step(blas=request.param):
        yield request.param


def load_spans():
    """bench/spans.py, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def held(obj, path="policy"):
    """(path, value) of every array, int array and number a policy holds,
    through its banditlab objects, lists and tuples.  The compiled steps'
    pointers and output buffers, the pass kept for update() and the
    generator reseeded every round are scratch; a bank's four per-arm
    arrays count over their windows."""
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from held(v, f"{path}[{i}]")
    elif isinstance(obj, NeighborBank):
        for k, v in vars(obj).items():
            if k in ("_ctx", "_rounds", "_norm2", "_rewards"):
                v = [obj.store(a)._window(v) for a in range(obj.n_arms)]
            if k not in ("_c", "_res"):
                yield from held(v, f"{path}.{k}")
    elif type(obj).__module__.startswith("banditlab."):
        for k, v in vars(obj).items():
            if k not in ("_c", "_kept", "_table_rows", "_gen"):
                yield from held(v, f"{path}.{k}")
    else:
        yield path, obj


def news_log(rows, seed=3):
    """A news-format log as the benchmark writes one, built in memory: a
    uniform logging policy over 10 arms, clicks that favour one direction
    per arm."""
    rng = np.random.default_rng([seed, 102])
    dirs = rng.standard_normal((10, 100))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = rng.standard_normal((rows, 100))
    X /= np.linalg.norm(X, axis=1)[:, None]
    arms = rng.integers(0, 10, size=rows)
    p = np.clip(0.75 + 2.0 * np.einsum("ij,ij->i", X, dirs[arms]), 0.02, 0.98)
    return ReplayLogEnv(arms, (rng.uniform(size=rows) < p) * 1.0, X)


def reward_digest(results) -> str:
    """The first 16 hex digits of a sha256 over the runs' cumulative_reward
    bytes, in the order given: the result bits tests/pinned.json pins."""
    h = hashlib.sha256()
    for result in results:
        h.update(result.cumulative_reward.tobytes())
    return h.hexdigest()[:16]


def held_bytes(policy):
    return [(path, (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
             else repr(v)) for path, v in held(policy)]


# One benchmark setting shared by the ordering, robustness, and ablation
# tests.  Everything here is frozen: the tests below compare policies on
# byte-identical reward streams, so their margins are reproducible.
SUITE_SPEC = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3,
                     noise_sigma=0.06, env_seed=0, radius=0.7)
SUITE_T = 2000
SUITE_SEEDS = tuple(range(20))

# Hybrid-policy settings used across the suite (alpha0 varies per run).
HYBRID_PARAMS = {
    "variance_scale": 50.0,
    "theta_min": 4,
    "kappa": 1.0,
    "floor_alpha_at_zero": True,
    "lam": 0.1,
    "gamma_cov": 0.05,
}
ALPHA0_GRID = (0.1, 1.0, 10.0)

# Baseline parameter grids; each baseline competes at its best grid point.
ALPHA_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 10.0)
RHO_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
EPS_GRID = (0.01, 0.05, 0.1, 0.2, 0.25, 0.5)


@dataclass
class SuiteData:
    """Final rewards per (policy, slug, seed) plus the wall time of the run,
    and the reward_digest of each policy's runs and of each cell's run."""

    finals: Dict[Tuple[str, str], np.ndarray] = field(default_factory=dict)
    mean_rewards: Dict[Tuple[str, str], np.ndarray] = field(default_factory=dict)
    wall_s: float = 0.0
    digests: Dict[str, str] = field(default_factory=dict)
    cell_digests: Dict[Cell, str] = field(default_factory=dict)

    def keys_for(self, policy_id: str):
        return [k for k in self.finals if k[0] == policy_id]

    def grid_means(self, policy_id: str) -> Dict[str, float]:
        return {k[1]: float(self.finals[k].mean())
                for k in self.keys_for(policy_id)}

    def best_key(self, policy_id: str) -> Tuple[str, str]:
        return max(self.keys_for(policy_id),
                   key=lambda k: self.finals[k].mean())


def _suite_cells():
    cells = []
    for a0 in ALPHA0_GRID:
        params = dict(alpha0=a0, **HYBRID_PARAMS)
        cells += [Cell.make("lnucb-ta", params, SUITE_T, s) for s in SUITE_SEEDS]
    for a in ALPHA_GRID:
        cells += [Cell.make("linucb", {"alpha": a}, SUITE_T, s)
                  for s in SUITE_SEEDS]
        cells += [Cell.make("lin-knn-ucb",
                            {"alpha": a, "variance_scale": 50.0}, SUITE_T, s)
                  for s in SUITE_SEEDS]
    for rho in RHO_GRID:
        cells += [Cell.make("knn-ucb", {"rho": rho, "variance_scale": 50.0},
                            SUITE_T, s)
                  for s in SUITE_SEEDS]
    return cells


@pytest.fixture(scope="session")
def synthetic_suite() -> SuiteData:
    """Run the full benchmark once per session: ~420 runs, 73-115 s on a 2-core VM."""
    t0 = time.perf_counter()
    pairs = execute_cells(SUITE_SPEC, _suite_cells(), jobs=1)
    wall = time.perf_counter() - t0
    by_key: Dict[Tuple[str, str], Dict[int, Tuple[float, float]]] = {}
    for cell, result in pairs:
        by_key.setdefault((cell.policy_id, cell.slug), {})[cell.seed] = (
            result.final_cumulative_reward(), result.final_mean_reward())
    data = SuiteData(wall_s=wall, cell_digests={c: reward_digest([r]) for c, r in pairs})
    for pid in dict.fromkeys(cell.policy_id for cell, _ in pairs):
        data.digests[pid] = reward_digest(r for c, r in pairs if c.policy_id == pid)
    for key, per_seed in by_key.items():
        data.finals[key] = np.array([per_seed[s][0] for s in SUITE_SEEDS])
        data.mean_rewards[key] = np.array([per_seed[s][1] for s in SUITE_SEEDS])
    return data


def alpha0_of(slug: str) -> float:
    for part in slug.split(","):
        k, _, v = part.partition("=")
        if k == "alpha0":
            return float(v)
    raise KeyError(f"no alpha0 in {slug!r}")
