"""End-to-end acceptance checks: numerical oracles, orderings, and harness
guarantees.  Each test states its tolerance inline; the benchmark-backed
tests share the session-scoped suite from conftest.
"""
import math
import os
import time

import numpy as np
import pytest

from banditlab.attention import AttentionParams
from banditlab.cli import main as cli_main
from banditlab.env import two_class_bumps
from banditlab.knn import NeighborStore, knn_score
from banditlab.linear import RidgeState
from banditlab.metrics import (DiagnosticsParams, beta_bound,
                               sublinearity_exponent)
from banditlab.policies import make_policy
from banditlab.runner import Cell, EnvSpec, execute_cells, run_policy

from conftest import (ALPHA0_GRID, EPS_GRID, HYBRID_PARAMS, SUITE_SEEDS,
                      SUITE_SPEC, SUITE_T, alpha0_of)
from oracles import (ConfidenceBall, det_sigma, exploration_rate,
                     knn_score_bruteforce, solve_batch, width_sq)


def test_c01_incremental_ridge_matches_batch_solve():
    """Incremental estimates equal the closed-form solve to 1e-8, under 10 s."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 11))
        T = int(rng.integers(1, 501))
        lam = float(rng.uniform(0.1, 5.0))
        state = RidgeState(d, lam, gamma_cov=0.0)
        X = rng.standard_normal((T, d))
        y = rng.standard_normal(T)
        for t in range(T):
            state.update(X[t], y[t])
        direct = solve_batch(X, y, lam)
        worst = max(worst, float(np.abs(state.mu_hat - direct).max()))
    assert worst <= 1e-8, f"max abs deviation {worst:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_c02_determinant_expansion_identity():
    """Every covariance update obeys its determinant identity to 1e-6 relative.

    An update is sigma' = sigma + gamma*e*I + x x^T.  Without inflation
    (gamma*e = 0) it is rank one: det(sigma') = (1 + w^2) * det(sigma), with
    w^2 = x^T sigma^-1 x read from the maintained inverse.  With inflation,
    the matrix determinant lemma holds after the isotropic shift
    S = sigma + gamma*e*I: det(sigma') = (1 + x^T S^-1 x) * det(S), with S
    built from sigma before the update and solved directly.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    checked = 0
    inflated = 0
    for _ in range(200):
        d = int(rng.integers(1, 6))
        gamma = float(rng.choice([0.0, 0.05, 0.5]))
        state = RidgeState(d, float(rng.uniform(0.5, 2.0)), gamma_cov=gamma)
        for _ in range(50):
            x = rng.standard_normal(d)
            e = float(rng.uniform(0.0, 2.0))
            shift = state.gamma_cov * e
            if shift > 0.0:
                shifted = state.sigma + shift * np.eye(d)
                w2 = float(x @ np.linalg.solve(shifted, x))
                det_before = float(np.linalg.det(shifted))
                inflated += 1
            else:
                w2 = width_sq(state, x)
                det_before = det_sigma(state)
            state.update(x, float(rng.standard_normal()), e)
            predicted = (1.0 + w2) * det_before
            rel = abs(det_sigma(state) - predicted) / abs(det_sigma(state))
            worst = max(worst, rel)
            checked += 1
    assert checked == 10_000
    assert 3 * inflated >= checked, f"only {inflated} inflated updates"
    assert worst <= 1e-6, f"worst relative determinant error {worst:.3e}"


def test_c03_width_bound_on_confidence_ball():
    """|(mu - mu_hat) . x| <= sqrt(beta * x Sigma^-1 x); equality when aligned."""
    rng = np.random.default_rng(13)
    for _ in range(1000):
        d = int(rng.integers(1, 8))
        A = rng.standard_normal((d, d))
        sigma = A @ A.T + np.eye(d) * float(rng.uniform(0.1, 1.0))
        center = rng.standard_normal(d)
        beta = float(rng.uniform(0.01, 10.0))
        ball = ConfidenceBall(center=center, shape=sigma, radius_sq=beta)
        x = rng.standard_normal(d)
        sigma_inv = np.linalg.inv(sigma)
        cap = math.sqrt(beta * float(x @ sigma_inv @ x))
        mu = ball.boundary_point(rng.standard_normal(d))
        assert abs(float((mu - center) @ x)) <= cap + 1e-9
        # The aligned boundary point attains the cap.
        vals, vecs = np.linalg.eigh(sigma)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        mu_star = ball.boundary_point(inv_sqrt @ x)
        assert abs(abs(float((mu_star - center) @ x)) - cap) <= 1e-6 * max(cap, 1.0)


def test_c04_log_det_growth_bound():
    """Log-det growth stays under d*log(1 + (T B^2 + sum gamma u^2)/(d lam)) + 1e-6."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = int(rng.integers(1, 8))
        T = int(rng.integers(10, 200))
        lam = float(rng.uniform(0.2, 3.0))
        B = float(rng.uniform(0.5, 2.0))
        state = RidgeState(d, lam, gamma_cov=0.0)
        log_det0 = d * math.log(lam)
        for _ in range(T):
            x = rng.standard_normal(d)
            n = np.linalg.norm(x)
            if n > 0:
                x = x * (B * rng.uniform() / n)
            state.update(x, 0.0)
        growth = math.log(det_sigma(state)) - log_det0
        bound = d * math.log(1.0 + (T * B * B + 0.0) / (d * lam))
        assert growth <= bound + 1e-6


def test_c05_attention_rate_monotone_in_pulls():
    """Strictly decreasing over N in [0, 1e4] for every mix; zero rewards give 0."""
    N = np.arange(0, 10_001, dtype=np.float64)
    for kappa in (0.0, 0.5, 1.0):
        for g in (0.1, 0.5, 1.0):
            for n in (0.1, 0.5, 1.0):
                params = AttentionParams(alpha0=1.0, kappa=kappa)
                rates = params.alpha0 / (N + 1) * (kappa * g + (1 - kappa) * n)
                spot = [exploration_rate(params, int(v), g, n)
                        for v in (0, 1, 57, 10_000)]
                assert np.allclose(spot, [rates[0], rates[1], rates[57], rates[-1]])
                assert (np.diff(rates) < 0).all()
    zero = AttentionParams(alpha0=1.0, kappa=0.5)
    assert all(exploration_rate(zero, int(v), 0.0, 0.0) == 0.0
               for v in (0, 3, 10_000))


def test_c06_neighbor_query_matches_bruteforce():
    """Partition-based selection equals the full-sort oracle, ties included."""
    rng = np.random.default_rng(19)
    t0 = time.perf_counter()
    for trial in range(1000):
        d = int(rng.integers(1, 101))
        n = int(rng.integers(1, 2001))
        store = NeighborStore(d)
        base = rng.standard_normal((max(n // 3, 1), d))
        for t in range(n):
            # Reuse rows so exact distance ties are common.
            row = base[int(rng.integers(base.shape[0]))]
            store.add(row, float(rng.standard_normal()), t)
        x = base[int(rng.integers(base.shape[0]))] if trial % 2 else rng.standard_normal(d)
        k = int(rng.integers(1, min(n, 25) + 1))
        got = knn_score(store, x, k)
        want = knn_score_bruteforce(store, x, k)
        assert got == want
    assert time.perf_counter() - t0 < 20.0


def test_c07_hybrid_tops_every_tuned_baseline(synthetic_suite):
    """Mean final reward at each alpha0 beats each baseline's best grid point."""
    assert synthetic_suite.wall_s < 120.0, f"suite took {synthetic_suite.wall_s:.0f}s"
    hybrid_keys = sorted(synthetic_suite.keys_for("lnucb-ta"),
                         key=lambda k: alpha0_of(k[1]))
    assert [alpha0_of(k[1]) for k in hybrid_keys] == list(ALPHA0_GRID)
    for baseline in ("linucb", "knn-ucb", "lin-knn-ucb"):
        best = synthetic_suite.best_key(baseline)
        best_mean = synthetic_suite.finals[best].mean()
        for key in hybrid_keys:
            ours = synthetic_suite.finals[key].mean()
            assert ours >= best_mean, (
                f"alpha0={alpha0_of(key[1])}: {ours:.2f} < {baseline} "
                f"best {best[1]} at {best_mean:.2f}")


def test_c08_flat_across_exploration_scale(synthetic_suite):
    """Cross-alpha0 spread of final mean reward is under half of LinUCB's grid spread."""
    hybrid = np.stack([synthetic_suite.mean_rewards[k]
                       for k in sorted(synthetic_suite.keys_for("lnucb-ta"),
                                       key=lambda k: alpha0_of(k[1]))])
    linucb = np.stack([synthetic_suite.mean_rewards[k]
                       for k in synthetic_suite.keys_for("linucb")])
    ours = hybrid.std(axis=0).mean()
    theirs = linucb.std(axis=0).mean()
    assert ours <= 0.5 * theirs, f"{ours:.4f} > 0.5 * {theirs:.4f}"


def test_c09_regret_grows_sublinearly():
    """Fitted regret exponent <= 0.9 at T=20000 while uniform-random stays >= 0.98."""
    spec = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3,
                   noise_sigma=0.02, env_seed=0, radius=0.7)
    t0 = time.perf_counter()
    params = dict(alpha0=1.0, store_capacity=500, **HYBRID_PARAMS)
    cells = [Cell.make("lnucb-ta", params, 20_000, s) for s in range(10)]
    cells += [Cell.make("random", {}, 20_000, s) for s in range(10)]
    pairs = execute_cells(spec, cells, jobs=1)
    curves = {"lnucb-ta": [], "random": []}
    for cell, result in pairs:
        curves[cell.policy_id].append(result.cumulative_regret)
    ours = sublinearity_exponent(np.mean(curves["lnucb-ta"], axis=0))
    anchor = sublinearity_exponent(np.mean(curves["random"], axis=0))
    assert time.perf_counter() - t0 < 120.0
    assert ours <= 0.9, f"hybrid exponent {ours:.3f}"
    assert anchor >= 0.98, f"random exponent {anchor:.3f}"


def test_c10_classification_ordering_vs_eps_greedy():
    """On bumpy two-class data the hybrid's regret undercuts tuned eps-greedy by >= 20%."""
    T = 5000
    hybrid_params = dict(alpha0=1.0, **HYBRID_PARAMS)
    ours = []
    eps_runs = {eps: [] for eps in EPS_GRID}
    for seed in range(10):
        env = two_class_bumps(seed, T)
        policy = make_policy("lnucb-ta", env.n_arms, env.dim, seed=seed,
                             **hybrid_params)
        result, _ = run_policy(env, policy, T, seed)
        ours.append(result.final_regret())
        for eps in EPS_GRID:
            baseline = make_policy("eps-greedy", env.n_arms, env.dim,
                                   seed=seed, eps=eps)
            result, _ = run_policy(env, baseline, T, seed)
            eps_runs[eps].append(result.final_regret())
    ours_mean = float(np.mean(ours))
    best_eps = min(float(np.mean(v)) for v in eps_runs.values())
    assert ours_mean < best_eps
    gap = (best_eps - ours_mean) / best_eps
    assert gap >= 0.20, f"gap {gap:.1%} (ours {ours_mean:.1f} vs {best_eps:.1f})"


def test_c11_component_flags_reproduce_ablation():
    """Full variant wins on mean reward; attention shrinks the cross-alpha0 spread."""
    variants = {
        "base": dict(use_attention=False, use_knn=False),
        "attention": dict(use_attention=True, use_knn=False),
        "knn": dict(use_attention=False, use_knn=True),
        "full": dict(use_attention=True, use_knn=True),
    }
    finals = {}
    mean_rewards = {}
    for name, flags in variants.items():
        per_alpha_final = []
        per_alpha_mean = []
        for a0 in ALPHA0_GRID:
            cells = [Cell.make("lnucb-ta",
                               dict(alpha0=a0, **HYBRID_PARAMS, **flags),
                               SUITE_T, s)
                     for s in SUITE_SEEDS]
            pairs = execute_cells(SUITE_SPEC, cells, jobs=1)
            per_alpha_final.append([r.final_cumulative_reward() for _, r in pairs])
            per_alpha_mean.append([r.final_mean_reward() for _, r in pairs])
        finals[name] = np.asarray(per_alpha_final)
        mean_rewards[name] = np.asarray(per_alpha_mean)
    overall = {name: v.mean() for name, v in finals.items()}
    assert max(overall, key=overall.get) == "full", overall
    spread = {name: mean_rewards[name].std(axis=0).mean()
              for name in ("base", "attention")}
    assert spread["attention"] < spread["base"], spread


def _strip_runtime(csv_text: str) -> str:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    drop = header.index("runtime_s_mean")
    return "\n".join(",".join(c for i, c in enumerate(line.split(","))
                              if i != drop)
                     for line in lines)


def test_c12_parallel_determinism_and_atomic_outputs(tmp_path):
    """--jobs 1 vs --jobs 8 agree byte-for-byte (minus runtime); failures leave nothing."""
    out1, out8 = tmp_path / "j1", tmp_path / "j8"
    common = ["compare", "--env", "synthetic", "--T", "200", "--seeds", "0:4",
              "--policy", "lnucb-ta", "--policy", "linucb",
              "--d", "6", "--arms", "4", "--noise-sigma", "0.06"]
    assert cli_main(common + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli_main(common + ["--jobs", "8", "--out", str(out8)]) == 0
    agg1 = (out1 / "aggregate.csv").read_text()
    agg8 = (out8 / "aggregate.csv").read_text()
    assert _strip_runtime(agg1) == _strip_runtime(agg8)
    runs1 = sorted(p.name for p in (out1 / "runs").glob("*.csv"))
    runs8 = sorted(p.name for p in (out8 / "runs").glob("*.csv"))
    assert runs1 == runs8 and runs1
    for name in runs1:
        assert (out1 / "runs" / name).read_bytes() == \
               (out8 / "runs" / name).read_bytes()

    bad_out = tmp_path / "bad"
    code = cli_main(["compare", "--env", "synthetic", "--T", "100",
                     "--seeds", "0:2", "--policy", "lnucb-ta",
                     "--param", "theta_min=9", "--param", "theta_max=5",
                     "--out", str(bad_out)])
    assert code == 2
    leftovers = [p for p in bad_out.rglob("*")] if bad_out.exists() else []
    assert not [p for p in leftovers if p.is_file()], leftovers


def test_c13_confidence_radius_reference_value():
    """beta at (sigma=1, d=2, T=100, B=W=1, u=0, delta=0.1) is 2 + 8 ln 51 + 8 ln 40."""
    params = DiagnosticsParams(sigma=1.0, delta=0.1, B=1.0, W=1.0, d=2,
                               u_sq_sum=0.0)
    expected = 2.0 + 8.0 * math.log(51.0) + 8.0 * math.log(40.0)
    assert abs(beta_bound(params, 100.0) - expected) <= 1e-9
    assert abs(expected - 62.97) < 0.1
