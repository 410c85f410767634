"""Component ablation: what each part of the hybrid policy buys.

Runs four flag variants of the same policy across an exploration-scale grid.
The attention term should both lift reward and flatten the curve across
alpha0, since the adaptive rate absorbs the initial scale.
"""
import numpy as np

from banditlab import Cell, EnvSpec, execute_cells, robustness_std

T = 1500
SEEDS = range(5)
ALPHA0 = (0.1, 1.0, 10.0)
BASE = {"variance_scale": 50.0, "theta_min": 4, "kappa": 1.0,
        "lam": 0.1, "gamma_cov": 0.05, "floor_alpha_at_zero": True}
VARIANTS = [
    ("linear only", {"use_attention": False, "use_knn": False}),
    ("+ attention", {"use_attention": True, "use_knn": False}),
    ("+ knn", {"use_attention": False, "use_knn": True}),
    ("full hybrid", {"use_attention": True, "use_knn": True}),
]


def main():
    spec = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3,
                   noise_sigma=0.06, env_seed=0)
    print(f"{'variant':<14} " + " ".join(f"a0={a:<6}" for a in ALPHA0)
          + "  spread")
    for label, flags in VARIANTS:
        cells = [Cell.make("lnucb-ta", {"alpha0": a, **BASE, **flags}, T, s)
                 for a in ALPHA0 for s in SEEDS]
        pairs = execute_cells(spec, cells, jobs=1)
        finals = {}
        for cell, result in pairs:
            a = cell.params_dict["alpha0"]
            finals.setdefault(a, []).append(result.final_mean_reward())
        means = [float(np.mean(finals[a])) for a in ALPHA0]
        spread = robustness_std(finals)
        print(f"{label:<14} " + " ".join(f"{m:<9.4f}" for m in means)
              + f" {spread:.4f}")


if __name__ == "__main__":
    main()
