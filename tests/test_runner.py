"""Run orchestration: env construction, slugs, and the run loop conventions."""
import numpy as np
import pytest

from banditlab.env import DataError, ReplayLogEnv
from banditlab.knn import NeighborBank
from banditlab.policies import POLICIES, RandomPolicy, make_policy
from banditlab.runner import (Cell, EnvSpec, build_env, execute_cells,
                              param_slug, run_cell, run_policy)

SMALL = EnvSpec(kind="synthetic", d=4, n_arms=3, bump_count=1,
                noise_sigma=0.05, env_seed=0)


class TestEnvSpec:
    def test_build_each_kind(self, tmp_path):
        assert build_env(SMALL).n_arms == 3
        p = tmp_path / "c.csv"
        p.write_text("1,0,a\n0,1,b\n")
        env = EnvSpec(kind="classification", path=str(p)).build()
        assert env.n_arms == 2

    def test_build_env_caches_instances(self):
        assert build_env(SMALL) is build_env(SMALL)
        other = EnvSpec(kind="synthetic", d=4, n_arms=3, bump_count=1,
                        noise_sigma=0.05, env_seed=1)
        assert build_env(other) is not build_env(SMALL)

    def test_path_required_for_data_kinds(self):
        with pytest.raises(ValueError, match="data path"):
            EnvSpec(kind="classification").build()
        with pytest.raises(ValueError, match="data path"):
            EnvSpec(kind="news").build()
        with pytest.raises(ValueError, match="unknown env kind"):
            EnvSpec(kind="bespoke").build()


class TestSlugs:
    def test_param_slug_formats(self):
        assert param_slug({}) == "default"
        slug = param_slug({"b_flag": True, "alpha": 0.5, "k": 3, "name": "x"})
        assert slug == "alpha=0.5,b_flag=true,k=3,name=x"

    def test_float_repr_round_trips(self):
        assert param_slug({"eps": 0.1}) == "eps=0.1"
        assert param_slug({"eps": 1e-07}) == "eps=1e-07"

    def test_cell_identity(self):
        a = Cell.make("ucb", {"rho": 0.5, "tie_break": "lowest-index"}, 100, 3)
        b = Cell.make("ucb", {"tie_break": "lowest-index", "rho": 0.5}, 100, 3)
        assert a == b
        assert a.slug == "rho=0.5,tie_break=lowest-index"
        assert a.sort_key() == ("ucb", a.slug, 3)


class TestRunPolicy:
    def test_synthetic_regret_is_nonnegative_and_complete(self):
        env = build_env(SMALL)
        policy = make_policy("lnucb-ta", env.n_arms, env.dim, seed=0)
        result, trace = run_policy(env, policy, 50, 0)
        assert trace is None
        assert result.horizon == 50 and result.matched_steps == 50
        assert (np.diff(result.cumulative_regret) >= -1e-12).all()
        assert result.runtime_s > 0

    def test_same_seed_same_stream(self):
        env = build_env(SMALL)
        finals = []
        for _ in range(2):
            policy = make_policy("lnucb-ta", env.n_arms, env.dim, seed=4)
            result, _ = run_policy(env, policy, 40, 4)
            finals.append(result.cumulative_reward)
        assert np.array_equal(finals[0], finals[1])

    def test_policy_seed_and_stream_seed_travel_together(self):
        # Different seeds draw different context streams.
        env = build_env(SMALL)
        a, _ = run_policy(env, RandomPolicy(env.n_arms, env.dim, seed=0), 40, 0)
        b, _ = run_policy(env, RandomPolicy(env.n_arms, env.dim, seed=1), 40, 1)
        assert not np.array_equal(a.cumulative_reward, b.cumulative_reward)

    def test_trace_rows_align_with_rounds(self):
        env = build_env(SMALL)
        policy = make_policy("lnucb-ta", env.n_arms, env.dim, seed=0)
        result, rows = run_policy(env, policy, 20, 0, trace=True)
        assert len(rows) == 20
        for r in rows:
            assert r.ucb == pytest.approx(r.linear + r.knn
                                          + r.alpha * r.width)

    @pytest.mark.parametrize("pid", sorted(POLICIES))
    def test_traced_round_scores_once(self, pid, monkeypatch):
        # The trace row comes from select()'s own scoring pass: one pass
        # (and at most one k-NN query) per round, and the row equals a fresh
        # score_table() of the selected round.
        env = build_env(SMALL)
        policy = make_policy(pid, env.n_arms, env.dim, seed=0)
        passes, depth, queries = [0], [0], [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                passes[0] += depth[0] == 0  # nested calls are the same pass
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        for name in ("scores", "_scores", "score_table"):
            setattr(policy, name, counted(getattr(policy, name)))
        query = NeighborBank._query

        def counted_query(self, *args):
            queries[0] += 1
            return query(self, *args)

        monkeypatch.setattr(NeighborBank, "_query", counted_query)
        _, rows = run_policy(env, policy, 30, 0, trace=True)
        assert passes[0] == 30
        knn_ids = {"lnucb-ta", "lin-knn-ucb", "knn-ucb", "knn-kl-ucb",
                   "enhanced-eps-greedy", "enhanced-beta-thompson",
                   "enhanced-linthompson"}
        assert queries[0] == (30 if pid in knn_ids else 0)
        twin = make_policy(pid, env.n_arms, env.dim, seed=0)
        episode = env.episode(0, 30)
        for t, row in enumerate(rows):
            x = episode.context(t)
            arm = twin.select(x, t)
            assert twin.score_table(x, t).row(arm) == row
            twin.update(arm, x, episode.feedback(t, arm).reward)

    def test_classification_clamps_horizon(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("".join(f"1,{i},lab{i % 2}\n" for i in range(1, 6)))
        env = EnvSpec(kind="classification", path=str(p)).build()
        policy = make_policy("eps-greedy", env.n_arms, env.dim, seed=0)
        result, _ = run_policy(env, policy, 100, 0)
        assert result.horizon == 5 and result.matched_steps == 5
        assert result.cumulative_regret is not None

    def test_replay_counts_only_matches(self):
        arms = [0, 1, 0, 1, 0]
        env = ReplayLogEnv(arms, [1.0] * 5, np.zeros((5, 100)))

        class PinnedArm(RandomPolicy):
            def select(self, x, round):
                return 0

        result, _ = run_policy(env, PinnedArm(env.n_arms, env.dim), 10, 0)
        # Three logged rows show arm 0; the scan then exhausts the log.
        assert result.matched_steps == 3
        assert result.final_cumulative_reward() == 3.0
        assert result.cumulative_regret is None

    def test_replay_with_no_matches_raises(self):
        env = ReplayLogEnv([1, 1], [1.0, 1.0], np.zeros((2, 100)))

        class PinnedArm(RandomPolicy):
            def select(self, x, round):
                return 3

        with pytest.raises(DataError, match="no rounds"):
            run_policy(env, PinnedArm(env.n_arms, env.dim), 10, 0)

    def test_rejects_empty_horizon_and_odd_env(self):
        env = build_env(SMALL)
        with pytest.raises(ValueError, match="T must be >= 1"):
            run_policy(env, RandomPolicy(env.n_arms), 0, 0)
        with pytest.raises(TypeError, match="unsupported environment"):
            run_policy(object(), RandomPolicy(2), 10, 0)


class TestExecuteCells:
    def cells(self):
        return [Cell.make("ucb", {"rho": r}, 30, s)
                for r in (0.5, 1.0) for s in (0, 1)]

    def test_canonical_order_regardless_of_input_order(self):
        cells = self.cells()
        a = execute_cells(SMALL, cells, jobs=1)
        b = execute_cells(SMALL, list(reversed(cells)), jobs=1)
        assert [c.sort_key() for c, _ in a] == [c.sort_key() for c, _ in b]
        for (_, ra), (_, rb) in zip(a, b):
            assert np.array_equal(ra.cumulative_reward, rb.cumulative_reward)

    def test_results_carry_cell_labels(self):
        pairs = execute_cells(SMALL, self.cells(), jobs=1)
        for cell, result in pairs:
            assert result.policy_id == cell.policy_id
            assert result.params == cell.slug
            assert result.seed == cell.seed

    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            execute_cells(SMALL, self.cells(), jobs=0)

    def test_run_cell_builds_policy_from_slug_params(self):
        cell = Cell.make("eps-greedy", {"eps": 0.0}, 25, 2)
        result, _ = run_cell(SMALL, cell)
        assert result.params == "eps=0.0"
        assert result.horizon == 25
