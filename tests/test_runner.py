"""Run orchestration: env construction, slugs, and the run loop conventions."""
import dataclasses
import pickle
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import banditlab
import banditlab.cli  # noqa: F401  (the tracer wraps every layer's module)
from banditlab import _cstep
from banditlab.core import Policy
from banditlab.env import DataError, ReplayLogEnv, two_class_bumps
from banditlab.knn import THETA_MAX, NeighborBank
from banditlab.linear import RidgeState
from banditlab.policies import LNUCBTA, POLICIES, KnnUCB, RandomPolicy, make_policy
from banditlab.runner import (Cell, EnvSpec, build_env, execute_cells,
                              param_slug, run_cell, run_policy)
from conftest import compiled_step, held_bytes, load_spans, news_log

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

    def test_numpy_scalars_render_as_their_python_values(self):
        assert param_slug({"alpha": np.float64(0.1), "b": np.bool_(True)}) == "alpha=0.1,b=true"
        assert param_slug({"k": np.int64(3), "eps": np.float32(0.5)}) == "eps=0.5,k=3"

    def test_cell_checks_horizon_and_seed_by_name(self):
        with pytest.raises(ValueError, match="T must be an integer, got 2.7"):
            Cell.make("linucb", {}, 2.7, 1.9)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.9"):
            Cell.make("linucb", {}, 3, 1.9)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Cell.make("linucb", {}, 3, -1)
        with pytest.raises(ValueError, match="T must be >= 1"):
            Cell.make("linucb", {}, 0, 1)
        assert Cell.make("linucb", {}, 3.0, 2.0) == Cell.make("linucb", {}, 3, 2)

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

    @pytest.mark.usefixtures("each_pass")
    def test_trace_rows_align_with_rounds(self):
        env = build_env(SMALL)
        policy = make_policy("lnucb-ta", env.n_arms, env.dim, seed=0)
        result, rows = run_policy(env, policy, 20, 0, trace=True)
        assert len(rows) == 20
        for r in rows:
            assert r.ucb == pytest.approx(r.linear + r.knn
                                          + r.alpha * r.width)

    @pytest.mark.parametrize("pid", sorted(POLICIES))
    @pytest.mark.usefixtures("each_pass")
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
            queries[0] += args[0] != []  # no rows: linucb's compiled ridge scores
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
            x = episode.contexts[t]
            arm = twin.select(x, t)
            assert twin.score_table(x, t).row(arm) == row
            twin.update(arm, x, episode.realized[t, arm])

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

    @pytest.mark.parametrize("T, seed, message", [
        (2.5, 0, "T must be an integer, got 2.5"), (True, 0, "T must be an integer, got True"),
        (3, -1, "seed must be >= 0"), (3, 1.5, "seed must be an integer, got 1.5")])
    @pytest.mark.parametrize("env", [two_class_bumps(0, 50), build_env(SMALL)],
                             ids=["classification", "synthetic"])
    def test_horizon_and_seed_are_checked_by_name(self, env, T, seed, message):
        policy = make_policy("linucb", env.n_arms, env.dim)
        with pytest.raises(ValueError, match=message):
            run_policy(env, policy, T, seed)
        assert policy.ridges[0]._rank_one_updates[0] == 0

    def test_rejects_empty_horizon_and_odd_env(self):
        env = build_env(SMALL)
        with pytest.raises(ValueError, match="T must be >= 1"):
            run_policy(env, RandomPolicy(env.n_arms), 0, 0)
        with pytest.raises(TypeError, match="unsupported environment"):
            run_policy(object(), RandomPolicy(2), 10, 0)

    def test_an_episode_without_arrays_or_log_is_refused_by_name(self):
        # A run reads its rounds from arrays(T, n_arms) or a replay's log();
        # an episode with neither is refused before round 0.
        env = SimpleNamespace(episode=lambda seed, T: SimpleNamespace(context=None))
        policy = RandomPolicy(2, 3)
        with pytest.raises(TypeError, match=r"episode SimpleNamespace has neither "
                                            r"arrays\(T, n_arms\) nor log\(\)"):
            run_policy(env, policy, 10, 0)


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


needs_run = pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled steps are not built")
SUITE = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3, noise_sigma=0.06,
                env_seed=0, radius=0.7)
HYBRID = dict(variance_scale=50.0, theta_min=4, kappa=1.0, floor_alpha_at_zero=True,
              lam=0.1)
# On two_class_bumps(0, ...)'s 0/1 rewards a window that is half ones sits on
# this k's rounding boundary, where only the exact variance picks k.
BOUNDARY = dict(theta_min=1, theta_max=2, variance_scale=2.0)
# The news-replay k window; with gamma_cov = 0.05, the benchmark's lnucb-ta.
NEWS = dict(theta_min=10, theta_max=40)


NEWS_LOG = news_log(5000)


def run_state(policy):
    """held_bytes of a policy, the last select's scores aside."""
    return [(p, v) for p, v in held_bytes(policy) if not p.endswith("._selected")]


def result_bits(result):
    return [result.matched_steps] + [a if a is None else a.tobytes() for a in (
        result.cumulative_reward, result.mean_reward, result.cumulative_regret)]


@needs_run
@pytest.mark.parametrize("kind", ["synthetic", "classification", "replay"])
@pytest.mark.parametrize("pid, params", [
    ("lnucb-ta", {}), ("lnucb-ta", {"gamma_cov": 0.05}), ("lnucb-ta", {"store_capacity": 20}),
    ("lnucb-ta", {"gamma_cov": 0.05, "store_capacity": 20}), ("linucb", {}),
    ("lin-knn-ucb", {}), ("lin-knn-ucb", {"store_capacity": 20}),
    ("knn-ucb", {"variance_scale": 50.0}), ("knn-ucb", {"store_capacity": 20})])
def test_compiled_run_equals_the_per_round_loop(kind, pid, params, monkeypatch):
    # 400 rounds in C, against a twin run through the per-round loop
    # (trace=True): every RunResult array and everything the policy holds is
    # byte-equal, padding included.  On the way the compiled run grows each
    # uncapped row its add fills and runs each gamma_cov = 0 drift check
    # between two C calls; it makes no select and no numpy update.  A
    # replay's rounds read the cursor's row, which C and Python move alike,
    # and run to T with rows to spare.
    env = {"synthetic": build_env(SUITE), "classification": two_class_bumps(0, 400),
           "replay": NEWS_LOG}[kind]
    if pid == "lnucb-ta":
        params = {**{"synthetic": HYBRID, "classification": BOUNDARY, "replay": NEWS}[kind],
                  **params}
    events = Counter()

    def spy(owner, name, event):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            out = original(*args, **kwargs)
            events[event(args) if callable(event) else event] += 1
            return out
        monkeypatch.setattr(owner, name, counted)

    spy(LNUCBTA, "_scores", "select")
    spy(KnnUCB, "_scores", "select")
    spy(RidgeState, "_check", "numpy update")
    spy(NeighborBank, "_put", "numpy update")
    spy(NeighborBank, "_grow", "grow")
    spy(RidgeState, "_rank_one_done",
        lambda args: "drift check" if args[0]._rank_one_updates[0] == 0 else "counted")
    runs = []
    for trace in (False, True):
        policy = make_policy(pid, env.n_arms, env.dim, seed=3, **params)
        result, _ = run_policy(env, policy, 400, 3, trace=trace)
        runs.append((result_bits(result), run_state(policy)))
        if not trace:
            seen = dict(events)
    assert runs[0] == runs[1] and runs[0][0][0] == 400
    assert "select" not in seen and "numpy update" not in seen, seen
    if params.get("gamma_cov", 0.0) == 0.0 and pid != "knn-ucb":
        assert seen.get("drift check", 0) > 0, seen
    if pid == "linucb":
        return
    sizes = [len(policy.bank.store(a)) for a in range(env.n_arms)]
    if "store_capacity" in params:
        assert "grow" not in seen and max(sizes) == 20, (seen, sizes)
    else:
        assert seen.get("grow", 0) > 0, seen


@pytest.mark.parametrize("pid, params", [
    ("lnucb-ta", {"alpha0": 1.7e308, "lam": 0.1}), ("linucb", {"alpha": 1.7e308, "lam": 0.1}),
    ("knn-ucb", {"rho": 1.7e308})])
@pytest.mark.usefixtures("each_pass")
def test_an_overflowing_bonus_runs_silently_traced_or_not(pid, params):
    # A bonus near DBL_MAX overflows to inf in C and in numpy alike: numpy's
    # scores raise no RuntimeWarning (an error here), and the traced and
    # untraced runs give the same rewards.
    env = build_env(EnvSpec(kind="synthetic", env_seed=0))
    runs = []
    for trace in (False, True):
        policy = make_policy(pid, env.n_arms, env.dim, seed=1, **params)
        result, _ = run_policy(env, policy, 300, 1, trace=trace)
        runs.append(result_bits(result))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("where, value, message, rounds", [
    ("contexts", np.nan, "context is non-finite", 250),
    ("realized", np.inf, "reward must be finite", 250),
    ("contexts", 1e160, "context is non-finite or its squared norm overflows", 250),
    ("contexts", 4e150, "Singular matrix", 279)])
@pytest.mark.usefixtures("each_pass")
def test_a_bad_round_raises_after_the_same_rounds(where, value, message, rounds):
    # Round 250 of a hand-built stream holds a value the compiled run cannot
    # certify, so select and update take that round: they raise as the
    # per-round loop does, leaving the same state.  as_context accepts
    # 4e150, and a drift check's inverse of the sigma it leaves fails later,
    # after that update's bank add and stats record, under either update.
    stream = build_env(SUITE).episode(3, 300)
    bad = dataclasses.replace(stream, contexts=stream.contexts.copy(),
                              realized=stream.realized.copy())
    getattr(bad, where)[250] = value
    env = SimpleNamespace(episode=lambda seed, T: bad)
    states = []
    for trace in (False, True):
        policy = make_policy("lnucb-ta", 5, 10, seed=3, **HYBRID)
        with pytest.raises(ValueError, match=message):
            run_policy(env, policy, 300, 3, trace=trace)
        assert policy.stats.per_arm_count.sum() == rounds
        states.append(run_state(policy))
    assert states[0] == states[1]


def poisoned(log, round, value):
    """log with the row that round reads in an untraced lnucb-ta run (the
    news k window, seed 3) set to value."""
    episode = log.episode(3, round)
    run_policy(SimpleNamespace(episode=lambda seed, T: episode),
               make_policy("lnucb-ta", 10, 100, seed=3, **NEWS), round, 3)
    contexts = log.contexts.copy()
    contexts[episode.at[0]] = value
    return ReplayLogEnv(log.arms, log.clicks, contexts)


TA = ("lnucb-ta", 10, NEWS)
REPLAY_ENDS = {  # log, policy, T, then the run's rounds or the error it raises
    "log runs dry": (lambda: news_log(600), TA, 400, 64),
    "T first": (lambda: NEWS_LOG, TA, 100, 100),
    "arm never logged": (lambda: ReplayLogEnv(np.where(NEWS_LOG.arms == 9, 8, NEWS_LOG.arms),
                                              NEWS_LOG.clicks, NEWS_LOG.contexts),
                         TA, 400, 163),
    "no match": (lambda: ReplayLogEnv(NEWS_LOG.arms + (NEWS_LOG.arms == 0),
                                      NEWS_LOG.clicks, NEWS_LOG.contexts), TA, 400,
                 (DataError, "no rounds executed")),
    # ReplayLogEnv refuses this log when it is built.
    "NaN row": (lambda: poisoned(NEWS_LOG, 150, np.nan), TA, 400,
                (DataError, r"^row \d+: non-finite feature$")),
    "1e160 row": (lambda: poisoned(NEWS_LOG, 150, 1e160), TA, 400,
                  (ValueError, "context is non-finite or its squared norm overflows")),
    # A wide bound soon takes linucb to the arms it has not played.
    "12 arms": (lambda: NEWS_LOG, ("linucb", 12, {"alpha": 10.0}), 400,
                (ValueError, "arm 10 out of range")),
}


@needs_run
@pytest.mark.parametrize("end", sorted(REPLAY_ENDS))
def test_a_replay_run_ends_as_the_per_round_loop(end, monkeypatch):
    # Each way a replay run ends: after the same rounds and updates, and
    # with the same result or error, in C as in the per-round loop.  The
    # scan's own end (no row logged with the arm) leaves the select done and
    # the update not, and a row or an arm C cannot take goes to Python,
    # whose select or replay_step raises: the untraced run scores in Python
    # only the rounds whose update declines, and the 12-arm run's last one.
    build, (pid, arms, params), T, want = REPLAY_ENDS[end]
    if end == "NaN row":
        with pytest.raises(want[0], match=want[1]):
            build()
        return
    log = build()
    calls = Counter()
    for owner, name in ((LNUCBTA, "_scores"), (RidgeState, "_check")):
        monkeypatch.setattr(owner, name, lambda *args, f=getattr(owner, name), name=name: (
            calls.update([name]), f(*args))[1])
    runs = []
    for trace in (False, True):
        if trace:
            assert calls["_scores"] - calls["_check"] == (end == "12 arms"), calls
        policy = make_policy(pid, arms, 100, seed=3, **params)
        if isinstance(want, int):
            result, _ = run_policy(log, policy, T, 3, trace=trace)
            outcome = result_bits(result)
            assert result.matched_steps == want
        else:
            with pytest.raises(want[0], match=want[1]) as error:
                run_policy(log, policy, T, 3, trace=trace)
            outcome = str(error.value)
        runs.append((outcome, policy.stats.per_arm_count.sum(), run_state(policy)))
    assert runs[0] == runs[1]
    if end == "1e160 row":
        assert runs[0][1] == 150


@needs_run
@pytest.mark.parametrize("pid, params", [
    ("lnucb-ta", {}), ("lnucb-ta", {"store_capacity": 10}), ("linucb", {}), ("lin-knn-ucb", {}),
    ("lin-knn-ucb", {"store_capacity": 10}), ("knn-ucb", {}), ("knn-ucb", {"store_capacity": 10})])
def test_compiled_run_is_active(pid, params, monkeypatch):
    # A run of these ids calls neither select nor update, whether its rows
    # grow or are capped: a compiled run that fell back to the per-round
    # loop without a word fails here.
    def per_round(*args, **kwargs):
        raise AssertionError("the per-round loop ran")

    monkeypatch.setattr(Policy, "select", per_round)
    monkeypatch.setattr(Policy, "update", per_round)
    for env in (build_env(SUITE), NEWS_LOG):
        policy = make_policy(pid, env.n_arms, env.dim, seed=3, **params)
        result, _ = run_policy(env, policy, 300, 3)
        updates = policy.bank._adds[0] if pid == "knn-ucb" else policy.stats.per_arm_count.sum()
        assert result.matched_steps == updates == 300


@needs_run
@pytest.mark.parametrize("pid", ["lnucb-ta", "linucb", "lin-knn-ucb", "knn-ucb"])
def test_an_unpickled_policy_runs_in_c_like_its_original(pid, monkeypatch):
    # Pickled after a compiled run built its structs, a policy rebuilds them
    # from its own arrays: its runs call neither select nor update, and give
    # the bits and state of the original's.
    def per_round(*args, **kwargs):
        raise AssertionError("the per-round loop ran")

    for env in (build_env(SUITE), NEWS_LOG):
        policy = make_policy(pid, env.n_arms, env.dim, seed=3, **(HYBRID if pid == "lnucb-ta" else {}))
        run_policy(env, policy, 40, 2)
        twin = pickle.loads(pickle.dumps(policy))
        with monkeypatch.context() as patch:
            patch.setattr(Policy, "select", per_round)
            patch.setattr(Policy, "update", per_round)
            runs = [result_bits(run_policy(env, p, 300, 3)[0]) for p in (twin, policy)]
        assert runs[0] == runs[1] and runs[0][0] == 300
        assert held_bytes(twin) == held_bytes(policy)


@needs_run
@pytest.mark.parametrize("pid", ["lnucb-ta", "knn-ucb"])
def test_a_k_at_the_theta_max_bound_runs_alike_under_both_rounds(pid):
    # variance_scale 1e6 sends each k to theta_max, 2**53, where C's k is
    # numpy's; at 2**63 - 1 C's cast to int64 wrapped to k 1.
    runs = []
    for blas in (None, _cstep.BLAS):
        with compiled_step(blas=blas):
            policy = make_policy(pid, 5, 10, seed=1, theta_max=THETA_MAX, variance_scale=1e6)
            runs.append(result_bits(run_policy(build_env(SUITE), policy, 300, 1)[0]))
    assert runs[0] == runs[1]


@needs_run
def test_an_episode_of_arrays_alone_runs_in_c_and_in_python_alike(monkeypatch):
    # The one episode protocol: an episode that offers only arrays(T,
    # n_arms), a suite stream's, runs untraced in C with no Python select,
    # and traced through the per-round loop; both runs and a run of the
    # suite env itself give byte-equal results.
    stream = build_env(SUITE).episode(3, 300)
    arrays_env = SimpleNamespace(episode=lambda seed, T: SimpleNamespace(arrays=stream.arrays))
    select, selects = Policy.select, []

    def counted(self, x, round):
        selects[-1] += 1
        return select(self, x, round)

    monkeypatch.setattr(Policy, "select", counted)
    runs = []
    for env, trace in ((arrays_env, False), (arrays_env, True), (build_env(SUITE), False)):
        selects.append(0)
        policy = make_policy("lnucb-ta", 5, 10, seed=3, **HYBRID)
        result, _ = run_policy(env, policy, 300, 3, trace=trace)
        runs.append(result_bits(result))
    assert selects == [0, 300, 0]
    assert runs[0] == runs[1] == runs[2] and runs[0][0] == 300


@needs_run
def test_only_the_compiled_steps_and_the_lowest_index_rule_run_in_c():
    for pid in ("lnucb-ta", "knn-ucb"):
        assert make_policy(pid, 3, 2)._runs_in_c()
        assert not make_policy(pid, 3, 2, tie_break="seeded-random")._runs_in_c()
        with pytest.raises(ValueError, match=r"theta_max <= 2\*\*53"):
            make_policy(pid, 3, 2, theta_max=2 ** 53 + 1)
    assert not make_policy("knn-kl-ucb", 3, 2)._runs_in_c()  # a subclass
    for step, blas in ((None, None), (_cstep.STEP, None)):
        with compiled_step(step, blas):
            for pid in ("linucb", "knn-ucb"):
                assert not make_policy(pid, 3, 2)._runs_in_c()


def mix_spec(kind, tmp_path):
    """The EnvSpec of a suite, news or classification cell; news and
    classification read CSVs written here from news_log and two_class_bumps."""
    if kind == "synthetic":
        return SUITE
    path = tmp_path / f"{kind}.csv"
    if kind == "news":
        log = news_log(3000)
        rows = [[a + 1, int(c), *x] for a, c, x in zip(
            log.arms.tolist(), log.clicks.tolist(), log.contexts.tolist())]
    else:
        env = two_class_bumps(0, 400)
        rows = [[*x, label] for x, label in zip(env.contexts.tolist(), env.labels.tolist())]
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return EnvSpec(kind=kind, path=str(path))


@needs_run
@pytest.mark.parametrize("kind, pid, params, T", [
    ("synthetic", "lnucb-ta", {**HYBRID, "gamma_cov": 0.05}, 2000),
    ("synthetic", "linucb", {}, 2000),
    ("synthetic", "lin-knn-ucb", {"store_capacity": 50}, 2000),
    ("synthetic", "knn-ucb", {"variance_scale": 50.0}, 2000),
    ("news", "lnucb-ta", {**NEWS, "gamma_cov": 0.05}, 1000),
    ("news", "lin-knn-ucb", {}, 1000),
    ("classification", "lnucb-ta", HYBRID, 400),
    ("classification", "linthompson", {}, 400),
    ("classification", "enhanced-linthompson", {}, 400)])
def test_without_blas_every_policy_runs_numpy_with_the_same_bits(kind, pid, params, T,
                                                                 tmp_path, monkeypatch):
    # The one mix of the compiled steps a machine reaches besides all or
    # none: STEP loaded, BLAS None (numpy without the scipy_cblas_*64_
    # exports, or a failed with_blas check).  Every update is then numpy's
    # (knn-ucb's a bank add, the others' a ridge check first), the news log
    # is still parsed in C (the csv loop is gone here), and the run's bits
    # are those of a fully compiled run.
    spec, checks = mix_spec(kind, tmp_path), []
    if kind == "news":
        monkeypatch.setattr("banditlab.env._csv_rows", None)
    owner, name = (NeighborBank, "_put") if pid == "knn-ucb" else (RidgeState, "_check")
    monkeypatch.setattr(owner, name, lambda *args, f=getattr(owner, name): (
        checks.append(args[0]), f(*args))[1])
    runs = []
    for blas in (_cstep.BLAS, None):
        checks.clear()
        with compiled_step(_cstep.STEP, blas):
            env = spec.build()
            policy = make_policy(pid, env.n_arms, env.dim, seed=3, **params)
            result, _ = run_policy(env, policy, T, 3)
        runs.append((result_bits(result), run_state(policy)))
    assert runs[1] == runs[0]
    assert len(checks) == result.matched_steps > 0  # numpy's update, each round


@pytest.mark.parametrize("pid, params", [("lnucb-ta", HYBRID), ("linucb", {}),
                                         ("lin-knn-ucb", {}),
                                         ("knn-ucb", {"variance_scale": 50.0})])
def test_wrapped_or_overridden_select_runs_every_round(pid, params, monkeypatch):
    # bench/spans.py's Tracer wraps Policy.select and update, so a traced run
    # calls them once a round, with the rewards of an untraced run bit for bit
    # (the benchmark's traced-vs-untraced check); so do a subclass's select
    # and one set on the policy itself.
    env = build_env(SUITE)
    plain, _ = run_policy(env, make_policy(pid, 5, 10, seed=3, **params), 300, 3)
    tracer = load_spans().Tracer()
    tracer.install(banditlab)
    try:
        traced, _ = run_policy(env, make_policy(pid, 5, 10, seed=3, **params), 300, 3)
    finally:
        tracer.uninstall()
    selects = [n for n in tracer.names if n.startswith("policies.select")]
    assert selects and (tracer.name_idx.tolist().count(tracer.name_id(selects[0])) == 300)
    assert result_bits(traced) == result_bits(plain)
    calls = Counter()
    policy = make_policy(pid, 5, 10, seed=3, **params)

    class Counted(type(policy)):
        def select(self, x, round):
            calls["select"] += 1
            return super().select(x, round)

    policy.__class__ = Counted
    counted, _ = run_policy(env, policy, 300, 3)
    assert calls["select"] == 300 and result_bits(counted) == result_bits(plain)
    policy = make_policy(pid, 5, 10, seed=3, **params)
    policy.select = lambda x, round, select=policy.select: (
        calls.update(["select"]) or select(x, round))
    counted, _ = run_policy(env, policy, 300, 3)
    assert calls["select"] == 600 and result_bits(counted) == result_bits(plain)
