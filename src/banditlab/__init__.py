"""Contextual bandit library: hybrid linear + k-NN policies with adaptive
exploration, baseline algorithms, environments, and a benchmark harness."""

__version__ = "0.1.0"

from .attention import (AttentionParams, RewardStats, exploration_rates,
                        softmax_attention)
from .core import (Policy, ScoreBreakdown, argmax_tiebreak, as_context,
                   round_rng)
from .env import (ClassificationBanditEnv, DataError, ReplayLogEnv,
                  SyntheticHybridEnv, load_classification_csv, load_news_csv,
                  replay_step, synthetic_hybrid, two_class_bumps)
from .knn import KnnScore, NeighborStore, knn_score, select_k
from .linear import RidgeState
from .metrics import (AggregateResult, DiagnosticsParams, RunResult, aggregate,
                      beta_bound, beta_formula, regret_bound_curve,
                      regret_series, robustness_std, sublinearity_exponent)
from .policies import (LNUCBTA, UCB, BetaThompson, EpsilonGreedy, KLUCB,
                       KnnKLUCB, KnnUCB, LinThompson, RandomPolicy,
                       lin_knn_ucb, linucb, make_policy)
from .runner import Cell, EnvSpec, execute_cells, run_cell, run_policy

__all__ = [
    "__version__",
    "AttentionParams", "RewardStats", "exploration_rates", "softmax_attention",
    "Policy", "ScoreBreakdown", "argmax_tiebreak", "as_context", "round_rng",
    "ClassificationBanditEnv", "DataError", "ReplayLogEnv",
    "SyntheticHybridEnv", "load_classification_csv", "load_news_csv",
    "replay_step", "synthetic_hybrid", "two_class_bumps",
    "KnnScore", "NeighborStore", "knn_score", "select_k",
    "RidgeState",
    "AggregateResult", "DiagnosticsParams", "RunResult", "aggregate",
    "beta_bound", "beta_formula", "regret_bound_curve", "regret_series",
    "robustness_std", "sublinearity_exponent",
    "LNUCBTA", "UCB", "BetaThompson",
    "EpsilonGreedy", "KLUCB", "KnnKLUCB", "KnnUCB", "LinThompson",
    "RandomPolicy", "lin_knn_ucb", "linucb", "make_policy",
    "Cell", "EnvSpec", "execute_cells", "run_cell", "run_policy",
]
