"""The benchmark's workloads: seeded input generation and the timed experiment.

Each workload has three parts.  ``make_job`` runs in the parent, before any
timing: it turns the workload seed into the inputs banditlab receives (a
cell list, a generated CSV) and the expected shape of every run file.
``setup`` and ``run`` execute in a fresh child process and only call
banditlab's public entry points: ``setup`` covers env build, CSV load and
the dataset fingerprint, ``run`` the experiment and its output writes.
"""
from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

# The acceptance-suite setting (tests/conftest.py): env, horizon, grids.
SUITE_SPEC = dict(kind="synthetic", d=10, n_arms=5, bump_count=3,
                  noise_sigma=0.06, env_seed=0, radius=0.7)
SUITE_T = 2000
SUITE_SEED_POOL = 20
HYBRID_PARAMS = {"variance_scale": 50.0, "theta_min": 4, "kappa": 1.0,
                 "floor_alpha_at_zero": True, "lam": 0.1, "gamma_cov": 0.05}
ALPHA0_GRID = (0.1, 1.0, 10.0)
ALPHA_GRID = (0.01, 0.05, 0.1, 0.5, 1.0, 10.0)
RHO_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
# The c09 shape: long horizon with a capped store, so ring eviction runs.
CAPPED_T = 20_000
CAPPED_PARAMS = dict(alpha0=1.0, store_capacity=500, **HYBRID_PARAMS)

NEWS_T = 1000
NEWS_ROWS = 15 * NEWS_T  # uniform logging matches ~1/10 of rows; never runs dry
NEWS_POLICIES = [("lnucb-ta", {"gamma_cov": 0.05, "theta_min": 10,
                               "theta_max": 40}),
                 ("linucb", {}), ("random", {})]

CLASS_T = 200
CLASS_ROWS = 2000
CLASS_SEEDS = 8
CLASS_POLICIES = ("eps-greedy", "beta-thompson", "linthompson",
                  "enhanced-linthompson", "lnucb-ta")
# Only eps-greedy accepts eps, yet the sweep makes a cell per grid point for
# every policy; the duplicates are kept on purpose (runner.useful_cell_ratio).
# Three values, so the cheap policies' runs are not exactly half of the
# distinct runs and the per-run median does not sit on the gap between them.
CLASS_GRID = {"eps": (0.05, 0.1, 0.2)}
CLASS_JOBS = 2

WHY = {
    "synthetic-suite": "c07's 21 settings plus a capped c09 cell at d=10: "
                       "k-NN scans and ring eviction dominate, the ridge is cheap",
    "news-replay": "d=100 news-format log replay: the inflated ridge update, "
                   "replay scans and CSV parsing dominate, k-NN stores stay small",
    "classification-sweep": "120 short sweep cells at --jobs 2 through the CLI: "
                            "pool, per-round rngs, output writes and fixed per-run costs",
}
# Nominal seconds of one experiment repetition; the repetition count is
# fixed from --seconds with it, so both sides of a comparison pool the same
# number of runs.
NOMINAL_REP_S = {"synthetic-suite": 13.0, "news-replay": 1.2,
                 "classification-sweep": 1.6}


def run_slug(policy_id: str, params_slug: str, seed: int) -> str:
    return f"{policy_id}__{params_slug}__s{seed}"


# -- inputs (parent side) -------------------------------------------------

def _atomic_save(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.part"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_news_log(path: str, seed: int, rows: int = NEWS_ROWS) -> None:
    """A 102-column news log with a uniform logging policy over 10 arms.

    Each arm prefers one feature direction; click probability is centred
    high (about 0.75) so a replay's click-through rate is a steady
    quality guard.
    """
    rng = np.random.default_rng([seed, 102])
    dirs = rng.standard_normal((10, 100))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    X = rng.standard_normal((rows, 100))
    X /= np.linalg.norm(X, axis=1)[:, None]
    arms = rng.integers(0, 10, size=rows)
    p = np.clip(0.75 + 2.0 * np.einsum("ij,ij->i", X, dirs[arms]), 0.02, 0.98)
    clicks = (rng.uniform(size=rows) < p).astype(np.int64)
    lines = [f"{a + 1},{c}," + ",".join(f"{v:.5f}" for v in x)
             for a, c, x in zip(arms, clicks, X)]
    _atomic_save(path, "\n".join(lines) + "\n")


def write_classification_csv(bl, path: str, seed: int) -> None:
    """Rows of banditlab's two_class_bumps(seed): ten features, then the label."""
    env = bl.env.two_class_bumps(seed, CLASS_ROWS)
    lines = [",".join(repr(float(v)) for v in x) + f",{int(y)}"
             for x, y in zip(env.contexts, env.labels)]
    _atomic_save(path, "\n".join(lines) + "\n")


def _grid_points() -> List[Dict]:
    names = sorted(CLASS_GRID)
    points = [{}]
    for n in names:
        points = [{**p, n: v} for p in points for v in CLASS_GRID[n]]
    return points


def make_job(bl, workload: str, seed: int, input_dir: str) -> Dict:
    """Inputs for one workload seed, plus what every run file must show.

    ``expect`` maps each distinct run's file slug to its horizon;
    ``executed`` is the number of cells the experiment runs.
    """
    slug = bl.runner.param_slug
    if workload == "synthetic-suite":
        s = int(np.random.default_rng([seed, 7]).integers(SUITE_SEED_POOL))
        cells = [("lnucb-ta", dict(alpha0=a, **HYBRID_PARAMS), SUITE_T, s)
                 for a in ALPHA0_GRID]
        cells += [("linucb", {"alpha": a}, SUITE_T, s) for a in ALPHA_GRID]
        cells += [("lin-knn-ucb", {"alpha": a, "variance_scale": 50.0},
                   SUITE_T, s) for a in ALPHA_GRID]
        cells += [("knn-ucb", {"rho": r, "variance_scale": 50.0}, SUITE_T, s)
                  for r in RHO_GRID]
        cells.append(("lnucb-ta", CAPPED_PARAMS, CAPPED_T, s))
        expect = {run_slug(p, slug(kw), sd): T for p, kw, T, sd in cells}
        return {"workload": workload, "spec": SUITE_SPEC, "cells": cells,
                "expect": expect, "executed": len(cells), "n_arms": 5,
                "check_cell": run_slug("lnucb-ta", slug(cells[0][1]), s)}
    if workload == "news-replay":
        path = os.path.join(input_dir, f"news-s{seed}.csv")
        if not os.path.exists(path):
            write_news_log(path, seed)
        expect = {run_slug(p, slug(kw), seed): NEWS_T for p, kw in NEWS_POLICIES}
        return {"workload": workload, "data": path, "T": NEWS_T, "seed": seed,
                "policies": NEWS_POLICIES, "expect": expect,
                "executed": len(NEWS_POLICIES), "n_arms": 10,
                "check_cell": run_slug("lnucb-ta", slug(NEWS_POLICIES[0][1]), seed)}
    if workload == "classification-sweep":
        path = os.path.join(input_dir, f"classification-s{seed}.csv")
        if not os.path.exists(path):
            write_classification_csv(bl, path, seed)
        keys = bl.cli.POLICY_PARAM_KEYS
        expect = {}
        executed = 0
        for pid in CLASS_POLICIES:
            for point in _grid_points():
                kw = {k: v for k, v in point.items() if k in keys[pid]}
                for s in range(CLASS_SEEDS):
                    expect[run_slug(pid, slug(kw), s)] = CLASS_T
                    executed += 1
        argv = ["sweep", "--env", "classification", "--data", path,
                "--T", str(CLASS_T), "--seeds", f"0:{CLASS_SEEDS}"]
        for pid in CLASS_POLICIES:
            argv += ["--policy", pid]
        for name, values in sorted(CLASS_GRID.items()):
            argv += ["--grid", f"{name}=" + ",".join(str(v) for v in values)]
        return {"workload": workload, "data": path, "argv": argv,
                "jobs": CLASS_JOBS, "expect": expect, "executed": executed,
                "n_arms": 2, "check_cell": run_slug("lnucb-ta", "default", 0)}
    raise ValueError(f"unknown workload {workload!r}")


# -- experiment (child side) ----------------------------------------------

def setup(bl, job: Dict) -> Dict:
    """Env build or CSV load, plus the dataset fingerprint."""
    w = job["workload"]
    if w == "synthetic-suite":
        spec = bl.runner.EnvSpec(**job["spec"])
        env = bl.runner.build_env(spec)
    elif w == "news-replay":
        spec = bl.runner.EnvSpec(kind="news", path=job["data"])
        env = bl.runner.build_env(spec)
    else:
        # The CLI loads the CSV itself (in each worker); this measures the
        # same load without filling the runner's cache.
        spec = bl.runner.EnvSpec(kind="classification", path=job["data"])
        env = bl.env.load_classification_csv(job["data"])
    fingerprint = bl.cli._dataset_fingerprint(spec)
    return {"spec": spec, "env": env, "fingerprint": fingerprint}


def _write_outputs(bl, out: str, pairs, state: Dict, echo: Dict) -> None:
    """The files ``bandit compare`` writes: aggregate plus one pair per run."""
    cli = bl.cli
    meta = state["env"].metadata()
    fp = state["fingerprint"]
    agg = bl.metrics.aggregate([r for _, r in pairs])
    cli.atomic_write_text(os.path.join(out, "aggregate.csv"),
                          cli.aggregate_csv_text(agg))
    cli.atomic_write_text(os.path.join(out, "aggregate.json"),
                          cli.aggregate_json_text(agg, echo, meta, fp))
    for (pid, slug, seed), result in pairs:
        base = os.path.join(out, "runs", run_slug(pid, slug, seed))
        cli.atomic_write_text(base + ".csv", cli.result_csv_text(result))
        cli.atomic_write_text(base + ".json",
                              cli.result_json_text(result, echo, meta, fp))


def run(bl, state: Dict, job: Dict, out: str, jobs: int) -> None:
    w = job["workload"]
    if w == "synthetic-suite":
        cells = [bl.runner.Cell.make(*c) for c in job["cells"]]
        pairs = bl.runner.execute_cells(state["spec"], cells, jobs=1)
        pairs = [((c.policy_id, c.slug, c.seed), r) for c, r in pairs]
        _write_outputs(bl, out, pairs, state, {"workload": w})
    elif w == "news-replay":
        env = state["env"]
        pairs = []
        for pid, params in job["policies"]:
            policy = bl.policies.make_policy(pid, env.n_arms, env.dim,
                                             seed=job["seed"], **params)
            label = bl.runner.param_slug(params)
            result, _ = bl.runner.run_policy(env, policy, job["T"], job["seed"],
                                             params_label=label)
            pairs.append(((pid, label, job["seed"]), result))
        _write_outputs(bl, out, pairs, state, {"workload": w})
    else:
        code = bl.cli.main(job["argv"] + ["--jobs", str(jobs), "--out", out])
        if code != 0:
            raise RuntimeError(f"bandit sweep exited with {code}")


def rerun_check_cell(bl, state: Dict, job: Dict):
    """(policy, params, seed, T) of the cell whose rewards are compared bitwise,
    run untraced through run_policy."""
    w = job["workload"]
    if w == "synthetic-suite":
        pid, params, T, seed = job["cells"][0]
        env = state["env"]
    elif w == "news-replay":
        (pid, params), T, seed = job["policies"][0], job["T"], job["seed"]
        env = state["env"]
    else:
        pid, params, T, seed = "lnucb-ta", {}, CLASS_T, 0
        env = bl.runner.build_env(state["spec"])
    policy = bl.policies.make_policy(pid, env.n_arms, env.dim, seed=seed,
                                     **params)
    return bl.runner.run_policy(env, policy, T, seed,
                                params_label=bl.runner.param_slug(params))[0]
