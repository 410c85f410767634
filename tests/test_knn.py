"""Neighbor store behavior and the adaptive-k query against independent oracles."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditlab import _cstep, core, knn, policies
from banditlab.attention import AttentionParams, RewardStats, exploration_rates
from banditlab.linear import RidgeState
from banditlab.knn import (THETA_MAX, KnnScore, NeighborBank, NeighborStore, knn_score,
                           reward_variance, select_k)
from banditlab.policies import make_policy
from banditlab.runner import EnvSpec, build_env, run_policy
from conftest import CAN_BUILD, PASS_IDS, PASS_STEPS, compiled_step, held_bytes
from oracles import knn_score_bruteforce


def _filled_store(rng, n, d, capacity=None, duplicate_from=None):
    store = NeighborStore(d, capacity)
    for t in range(n):
        if duplicate_from is not None and rng.uniform() < 0.5:
            row = duplicate_from[int(rng.integers(duplicate_from.shape[0]))]
        else:
            row = rng.standard_normal(d)
        store.add(row, float(rng.standard_normal()), t)
    return store


class TestNeighborStore:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborStore(0)
        with pytest.raises(ValueError):
            NeighborStore(2, capacity=0)
        store = NeighborStore(2)
        with pytest.raises(ValueError):
            store.add(np.ones(2), float("nan"), 0)

    def test_rounds_must_increase(self):
        store = NeighborStore(2)
        store.add(np.ones(2), 1.0, 5)
        with pytest.raises(ValueError, match="increasing"):
            store.add(np.ones(2), 1.0, 5)

    def test_growth_preserves_entries(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((100, 3))
        store = NeighborStore(3)
        for t, row in enumerate(rows):
            store.add(row, float(t), t)
        assert len(store) == 100
        assert np.array_equal(store.contexts, rows)
        assert np.array_equal(store.rewards, np.arange(100.0))
        assert np.array_equal(store.rounds, np.arange(100))

    def test_capacity_evicts_oldest(self):
        store = NeighborStore(1, capacity=3)
        for t in range(5):
            store.add(np.array([float(t)]), float(t), t)
        assert len(store) == 3
        assert store.rewards.tolist() == [2.0, 3.0, 4.0]
        assert store.rounds.tolist() == [2, 3, 4]

    def test_capacity_window_survives_many_evictions(self):
        # Enough adds to slide the ring's window back to the row start twice.
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((40, 2))
        store = NeighborStore(2, capacity=7)
        for t, row in enumerate(rows):
            store.add(row, float(t), 10 * t)
        assert len(store) == 7
        assert np.array_equal(store.contexts, rows[-7:])
        assert store.rewards.tolist() == [float(t) for t in range(33, 40)]
        assert store.rounds.tolist() == [10 * t for t in range(33, 40)]


class TestNeighborBank:
    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborBank(0, 2)
        bank = NeighborBank(2, 2)
        with pytest.raises(ValueError, match="out of range"):
            bank.add(2, np.ones(2), 1.0, 0)
        for arm, round, message in [(0, 2.7, "round must be an integer, got 2.7"),
                                    (0, True, "round must be an integer"),
                                    (0, -1, "round must be >= 0"),
                                    (1.5, 3, "arm must be an integer, got 1.5"),
                                    (-1, 3, "arm must be >= 0")]:
            with pytest.raises(ValueError, match=message):
                bank.add(arm, np.ones(2), 1.0, round)
        assert len(bank.store(0)) == len(bank.store(1)) == 0
        bank.add(np.int64(1), np.ones(2), 1.0, 2.0)
        assert bank.store(1).rounds.tolist() == [2]

    @pytest.mark.parametrize("step", PASS_STEPS, ids=PASS_IDS)
    def test_round_past_int64_changes_nothing(self, step):
        # A full capped row evicts before it stores: a round that no int64
        # slot holds must raise before that, under each step.
        with compiled_step(blas=step):
            store = NeighborStore(2, capacity=2)
            for t in range(2):
                store.add([0.0, float(t)], 0.5 + t, t)
            with pytest.raises(ValueError, match=r"round must be < 2\*\*63"):
                store.add([1.0, 1.0], 0.25, 2 ** 63)
            assert store.rewards.tolist() == [0.5, 1.5] and store.rounds.tolist() == [0, 1]

    def test_stores_are_rows_of_the_bank(self):
        bank = NeighborBank(3, 2)
        bank.add(1, np.array([1.0, 2.0]), 0.5, 0)
        bank.store(2).add(np.array([3.0, 4.0]), 0.25, 1)
        assert [len(bank.store(a)) for a in range(3)] == [0, 1, 1]
        assert bank.store(2).contexts.tolist() == [[3.0, 4.0]]
        got = bank._pass(np.zeros(2), True)
        assert got.applied.tolist() == [False, True, True]
        assert got.score.tolist() == [0.0, 0.5, 0.25]


class TestRewardVariance:
    def test_small_stores_are_zero(self):
        store = NeighborStore(1)
        assert reward_variance(store) == 0.0
        store.add(np.ones(1), 3.0, 0)
        assert reward_variance(store) == 0.0

    def test_population_variance(self):
        store = NeighborStore(1)
        for t, r in enumerate([1.0, 2.0, 3.0, 4.0]):
            store.add(np.ones(1), r, t)
        assert reward_variance(store) == pytest.approx(np.var([1, 2, 3, 4]))

    def test_memo_tracks_version(self):
        store = NeighborStore(1)
        for t in range(3):
            store.add(np.ones(1), float(t), t)
        first = reward_variance(store)
        assert reward_variance(store) == first  # reading changes nothing
        store.add(np.ones(1), 10.0, 3)
        assert reward_variance(store) != first


class TestSelectK:
    def test_variance_extremes(self):
        assert select_k(0.0, 2, 7) == 2
        assert select_k(1.0, 2, 7) == 7
        assert select_k(5.0, 2, 7) == 7  # clamped above 1
        # An overflowed variance * variance_scale is clamped the same way.
        assert select_k(float("inf"), 2, 7) == 7

    def test_round_half_up(self):
        # 2 + 5 * 0.5 = 4.5 rounds up to 5, even where floats would bank round.
        assert select_k(0.5, 2, 7) == 5
        assert select_k(0.1, 1, 2) == 1
        assert select_k(0.5, 1, 2) == 2

    def test_degenerate_window(self):
        assert select_k(0.3, 4, 4) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            select_k(0.5, 0, 3)
        with pytest.raises(ValueError):
            select_k(0.5, 4, 3)
        with pytest.raises(ValueError):
            select_k(-0.1, 1, 3)
        with pytest.raises(ValueError):
            select_k(float("nan"), 1, 3)

    def test_thetas_must_be_integers(self):
        with pytest.raises(ValueError, match="theta_min must be an integer"):
            select_k(0.5, 1.5, 3.9)
        with pytest.raises(ValueError, match="theta_max must be an integer"):
            select_k(0.5, 1, 3.9)
        with pytest.raises(ValueError, match="theta_max must be an integer"):
            select_k(0.5, 1, True)
        assert select_k(0.5, 2.0, 7.0) == 5


class TestKnnScore:
    def test_gate_requires_k_entries(self):
        rng = np.random.default_rng(1)
        store = _filled_store(rng, 4, 3)
        for step in PASS_STEPS:
            with compiled_step(blas=step):
                assert knn_score(store, np.zeros(3), 5) == KnnScore.not_applied()
                # A k far past the store gates without sizing anything by k.
                for k in (10**9, 10**30):
                    assert knn_score(store, np.zeros(3), k) == KnnScore.not_applied()
                assert knn_score(store, np.zeros(3), 4).applied
                assert (knn_score(store, np.zeros(3), 4.0)
                        == knn_score(store, np.zeros(3), 4))

    def test_a_k_at_the_theta_max_bound_gates_under_each_step(self):
        for step in PASS_STEPS:
            with compiled_step(blas=step):
                bank = NeighborBank(2, 2, None, THETA_MAX, THETA_MAX)
                for t in range(5):
                    bank.add(t % 2, np.full(2, float(t)), 0.5, t)
                assert not bank._pass(np.ones(2), True).applied.any()
                assert bank._pass(np.ones(2), False).k_used.tolist() == [3, 2]

    def test_theta_max_is_bounded_so_both_rounds_pick_the_same_k(self):
        # Rewards 0, 1, 0, 1 send arm 0's k to theta_max: at the bound the
        # compiled add picks numpy's k, and one past it raises by name.
        ks = []
        for step in PASS_STEPS:
            with compiled_step(blas=step):
                bank = NeighborBank(2, 2, None, 1, THETA_MAX, 10.0)
                for t, reward in enumerate([0.0, 1.0, 0.0, 1.0]):
                    bank.add(0, np.full(2, float(t)), reward, t)
                ks.append(list(bank._ks))
        assert ks == [[THETA_MAX, 1]] * len(PASS_STEPS)
        with pytest.raises(ValueError, match=r"theta_max <= 2\*\*53"):
            NeighborBank(2, 2, None, 1, THETA_MAX + 1)

    def test_matches_handrolled_oracle(self):
        # Independent check with plain sorted distances, no library internals.
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            n = int(rng.integers(3, 40))
            store = _filled_store(rng, n, d)
            x = rng.standard_normal(d)
            k = int(rng.integers(1, n + 1))
            dist = np.linalg.norm(store.contexts - x, axis=1)
            order = np.argsort(dist, kind="stable")[:k]
            got = knn_score(store, x, k)
            assert got.score == pytest.approx(store.rewards[order].mean(),
                                              abs=1e-12)
            assert got.u_max == pytest.approx(dist[order].max(), abs=1e-9)
            assert got.k_used == k

    def test_exact_distance_ties_go_to_earlier_round(self):
        store = NeighborStore(2)
        store.add(np.array([1.0, 0.0]), 10.0, 0)
        store.add(np.array([0.0, 1.0]), 20.0, 1)  # same distance from origin
        store.add(np.array([3.0, 0.0]), 99.0, 2)
        got = knn_score(store, np.zeros(2), 1)
        assert got.score == 10.0
        both = knn_score(store, np.zeros(2), 2)
        assert both.score == 15.0
        assert both.u_max == pytest.approx(1.0)

    def test_k_must_be_positive(self):
        store = NeighborStore(2)
        with pytest.raises(ValueError):
            knn_score(store, np.zeros(2), 0)
        with pytest.raises(ValueError, match="k must be an integer"):
            knn_score(store, np.zeros(2), 2.5)

    def test_oracle_checks_k_as_knn_score_does(self):
        store = _filled_store(np.random.default_rng(3), 4, 2)
        for k in (2.5, True, 0):
            with pytest.raises(ValueError) as want:
                knn_score(store, np.zeros(2), k)
            with pytest.raises(ValueError) as got:
                knn_score_bruteforce(store, np.zeros(2), k)
            assert str(got.value) == str(want.value)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 60),
    seed=st.integers(0, 100_000),
)
def test_partition_query_equals_fullsort_oracle(d, n, seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((max(n // 2, 1), d))
    store = _filled_store(rng, n, d, duplicate_from=base)
    x = base[0] if n % 2 else rng.standard_normal(d)
    k = int(rng.integers(1, n + 1))
    assert knn_score(store, x, k) == knn_score_bruteforce(store, x, k)


@settings(max_examples=120, deadline=None)
@given(
    n_arms=st.integers(1, 6),
    d=st.integers(1, 4),
    n=st.integers(0, 120),
    capped=st.booleans(),
    strict=st.booleans(),
    seed=st.integers(0, 100_000),
)
def test_bank_pass_equals_per_store_oracle(n_arms, d, n, capped, strict, seed):
    # A handful of distinct contexts makes ties at the k-th distance common.
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 25)) if capped else None
    bank = NeighborBank(n_arms, d, capacity)
    base = rng.standard_normal((3, d))
    for t in range(n):
        row = base[int(rng.integers(3))]
        bank.add(int(rng.integers(n_arms)), row, float(rng.standard_normal()), t)
    x = base[0] if seed % 2 else rng.standard_normal(d)
    ks = rng.integers(1, 9, size=n_arms).tolist()
    for step in PASS_STEPS:
        with compiled_step(blas=step):
            got = bank._query(None, x, ks, strict)[0]
        for a in range(n_arms):
            store = bank.store(a)
            k = ks[a] if strict else min(ks[a], max(len(store), 1))
            want = knn_score_bruteforce(store, x, k)
            assert got.row(a) == want
            assert got.score[a] == want.score and got.u_max[a] == want.u_max


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 25)),
    thetas=st.sampled_from([(1, 2), (1, 5), (4, 5), (2, 7), (3, 3)]),
    scale=st.sampled_from([1.0, 2.0, 4.0, 50.0]),
    levels=st.sampled_from([(0.0, 1.0), (0.0, 0.5, 1.0), (-1.0, 0.25, 2.0),
                            (0.1, 0.3), (0.1, 0.3, 0.7)]),
    n=st.integers(0, 300),
    seed=st.integers(0, 100_000),
)
@example(capacity=1, thetas=(1, 5), scale=4.0, levels=(0.0, 0.5, 1.0), n=40, seed=1)
@example(capacity=2, thetas=(2, 7), scale=2.0, levels=(0.1, 0.3), n=60, seed=2)
@example(capacity=3, thetas=(1, 2), scale=50.0, levels=(-1.0, 0.25, 2.0), n=80, seed=3)
@example(capacity=7, thetas=(1, 5), scale=1.0, levels=(0.1, 0.3, 0.7), n=120, seed=4)
def test_incremental_k_equals_the_exact_rule(capacity, thetas, scale, levels,
                                             n, seed):
    # Rewards from a small set put the interpolated k exactly on .5
    # boundaries (0.1 and 0.3, inexact in binary, land within rounding of
    # one); runs up to 12x a capacity copy capped windows back often (from
    # 6 capacities and 3 adds on, at least 3 times).  Under each round; the
    # two hold byte-equal windows of all four arrays, and the same ks, after
    # every add.
    runs = []
    for step in PASS_STEPS:
        rng, states, copies = np.random.default_rng(seed), [], 0
        with compiled_step(blas=step):
            bank = NeighborBank(2, 2, capacity, thetas[0], thetas[1], scale)
            for _ in range(n):
                arm = int(rng.integers(2))
                start = bank._start[arm]
                bank._add(arm, rng.standard_normal(2), float(rng.choice(levels)))
                copies += bank._start[arm] < start
                v = reward_variance(bank.store(arm)) * scale
                assert bank._ks[arm] == select_k(v, *thetas)
                states.append(held_bytes(bank))
        assert capacity is None or n < 6 * capacity + 3 or copies >= 3
        runs.append(states)
    assert runs[-1] == runs[0]


def test_incremental_k_falls_back_on_a_rounding_boundary():
    # Alternating 0/1 rewards give variance 0.25: 1 + 1 * (0.25 * 2) + 0.5
    # is exactly 2, so a variance a rounding error low would give k = 1.
    for step in PASS_STEPS:
        with compiled_step(blas=step):
            bank = NeighborBank(1, 1, None, 1, 2, 2.0)
            for t in range(40):
                bank._add(0, np.zeros(1), float(t % 2))
            assert reward_variance(bank.store(0)) == 0.25 and bank._ks[0] == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("capacity", [None, 1, 3])
@pytest.mark.parametrize("step", PASS_STEPS, ids=PASS_IDS)
def test_reward_at_the_overflow_boundary_changes_nothing(capacity, step, monkeypatch):
    # 8 * (the kept rewards' squared sum + reward^2) must be finite.  With a
    # primer of 2^510 kept (evicted at capacity 1), the least reward past
    # that bound is rejected, either sign, and changes nothing; the next
    # smaller one is accepted, in C under the compiled round.
    primer = 2.0 ** 510
    kept = 0.0 if capacity == 1 else primer * primer
    r = math.sqrt(sys.float_info.max / 8.0 - kept)
    while not math.isfinite(8.0 * (kept + r * r)):
        r = math.nextafter(r, 0.0)
    while math.isfinite(8.0 * (kept + r * r)):
        r = math.nextafter(r, math.inf)
    puts = []
    monkeypatch.setattr(NeighborBank, "_put", lambda *args, f=NeighborBank._put: (
        puts.append(args[3]), f(*args))[1])
    with compiled_step(blas=step):
        bank = NeighborBank(2, 2, capacity, 1, 3)
        bank.add(0, [1.0, 0.0], primer, 0)
        before = held_bytes(bank)
        for bad in (r, -r):
            with pytest.raises(ValueError, match=r"overflows arm 0's reward sums"):
                bank.add(0, [0.0, 1.0], bad, 1)
            assert held_bytes(bank) == before
        below = math.nextafter(r, 0.0)
        bank.add(0, [0.0, 1.0], below, 1)
    assert bank.store(0).rewards[-1] == below
    assert bank._ks[0] == select_k(reward_variance(bank.store(0)), 1, 3)
    assert puts == ([] if step else [primer, below])


@pytest.mark.usefixtures("each_pass")
def test_an_uncapped_row_grows_once_an_add_fills_it():
    # Under either round an arm's four arrays double right after the add
    # that fills them, so both rounds hold arrays of the same lengths after
    # every add, and the compiled add never meets a full arm.  An add
    # rejected where it would fill the arm changes nothing: growth follows a
    # committed add only.  The compiled round keeps its bank_t: a growth
    # points it at the grown arrays.
    bank = NeighborBank(2, 3, None, 1, 3)
    c = bank._args()  # None under numpy's round
    for t in range(33):
        if t == 15:
            before = held_bytes(bank)
            with pytest.raises(ValueError, match="overflows arm 0's reward sums"):
                bank.add(0, [1.0, 1.0, 0.0], 1e300, t)
            assert held_bytes(bank) == before
        bank.add(0, [float(t), 1.0, 0.0], 0.5 * (t % 3), t)
        want = 16 if t < 15 else 32 if t < 31 else 64
        assert [len(bufs[0]) for bufs in bank._arrays()] == [want] * 4
        assert [len(bufs[1]) for bufs in bank._arrays()] == [16] * 4
        assert bank._c is c and (c is None or list(c.lens[0:2]) == [want, 16])
    assert np.array_equal(bank.store(0).rounds, np.arange(33))
    assert np.array_equal(bank.store(0).rewards, 0.5 * (np.arange(33) % 3))


@pytest.mark.parametrize("pid", ["knn-ucb", "lin-knn-ucb", "lnucb-ta"])
def test_capped_trajectory_pass_equals_per_store_oracle(pid, monkeypatch):
    # Every round's bank pass, in both gating modes and under each step,
    # against the full-sort oracle per arm along a real capped run.  Arm
    # windows longer than, equal to and shorter than k must all occur.
    spec = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3,
                   noise_sigma=0.06, env_seed=0, radius=0.7)
    env = build_env(spec)
    # lnucb-ta as in the suite's capped cell, so every arm fills its store.
    params = (dict(theta_min=4, kappa=1.0, floor_alpha_at_zero=True, lam=0.1,
                   gamma_cov=0.05) if pid == "lnucb-ta" else {})
    policy = make_policy(pid, env.n_arms, env.dim, seed=3, store_capacity=7,
                         variance_scale=50.0, **params)
    bank = policy.bank
    windows = {"longer": 0, "equal": 0, "shorter": 0}
    query = NeighborBank._query

    def checked_query(self, arms, x, ks, strict, stacks=None):
        if self is not bank:
            return query(self, arms, x, ks, strict, stacks)
        rows = list(zip(range(self.n_arms) if arms is None else arms,
                        self._ks if ks is None else ks))
        for a, k in rows:
            n = len(self.store(a))
            windows["longer" if n > k else "equal" if n == k else "shorter"] += 1
        for gate in (not strict, strict):  # the policy's own pass last
            for step in PASS_STEPS:
                with compiled_step(blas=step):
                    got = query(self, arms, x, ks, gate, stacks)
                for a, k in rows:
                    store = self.store(a)
                    k = k if gate else min(k, max(len(store), 1))
                    assert got[0].row(a) == knn_score_bruteforce(store, x, k)
        return got

    monkeypatch.setattr(NeighborBank, "_query", checked_query)
    run_policy(env, policy, 300, 3, trace=True)  # the per-round loop: a pass each select
    assert max(len(bank.store(a)) for a in range(env.n_arms)) == 7
    assert min(windows.values()) > 0, windows


def _pass_bits(bank, arms, x, ks, strict):
    """Each step's (score, u_max, k_used) of one pass, as dtype and bytes."""
    out = []
    for step in PASS_STEPS:
        with compiled_step(blas=step):
            got = bank._query(arms, x, ks, strict)[0]
        out.append([(f.dtype.str, f.tobytes()) for f in got])
    return out


@pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled step is not built")
@settings(max_examples=120, deadline=None)
@given(
    n_arms=st.integers(1, 5),
    d=st.integers(1, 3),
    n=st.integers(0, 150),
    capacity=st.one_of(st.none(), st.integers(1, 20)),
    theta_max=st.sampled_from([1, 5, 9, 5000]),
    distinct=st.integers(1, 4),
    strict=st.booleans(),
    seed=st.integers(0, 100_000),
)
def test_compiled_and_numpy_steps_return_the_same_bits(
        n_arms, d, n, capacity, theta_max, distinct, strict, seed):
    # A few distinct contexts and reward levels make exact distance ties and
    # mixed adaptive ks common.  theta_max 5000 fills a row past 5000
    # entries, so the step keeps a 5000-slot selection.
    rng = np.random.default_rng(seed)
    if theta_max == 5000:
        n_arms, capacity, n = min(n_arms, 2), None, 5000 * min(n_arms, 2) + n
    bank = NeighborBank(n_arms, d, capacity, 1, theta_max, 50.0)
    base = rng.standard_normal((distinct, d))
    for t in range(n):
        bank.add(t % n_arms if theta_max == 5000 else int(rng.integers(n_arms)),
                 base[int(rng.integers(distinct))],
                 float(rng.choice([0.0, 0.05, 1.0])), t)
    x = base[0] if seed % 2 else rng.standard_normal(d)
    rows = list(range(n_arms))
    ks = [int(k) for k in rng.integers(1, theta_max + 2, size=n_arms)]
    for arms, kk, gate in [(None, None, strict), (None, ks, strict), (rows, ks, strict),
                           *(([a], [bank._ks[a]], True) for a in rows)]:
        numpy_bits, compiled_bits = _pass_bits(bank, arms, x, kk, gate)
        assert compiled_bits == numpy_bits


@pytest.mark.skipif(_cstep.STEP is None, reason="the compiled steps are not built")
@pytest.mark.parametrize("symbols", [
    ("scipy_cblas_dgemv64_", "no_such_symbol"),
    ("scipy_cblas_dgemv64_", "scipy_cblas_dsdot64_"),  # ddot's signature
    ("scipy_cblas_sgemv64_", "scipy_cblas_ddot64_"),  # dgemv's, but float
], ids=["missing", "ddot-mismatch", "dgemv-mismatch"])
def test_failed_blas_self_check_runs_the_numpy_pass(symbols, monkeypatch):
    # Such a BLAS leaves BLAS None and STEP loaded: the mix that
    # test_without_blas_every_policy_runs_numpy_with_the_same_bits runs.
    assert _cstep.with_blas(_cstep.STEP) == _cstep.BLAS is not None
    monkeypatch.setattr(_cstep, "BLAS_SYMBOLS", symbols)
    assert _cstep.with_blas(_cstep.STEP) is None


needs_build = pytest.mark.skipif(not CAN_BUILD, reason="no cffi or no cc")
needs_pass = pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled pass is not built")


@needs_build
def test_compiled_step_is_active():
    assert _cstep.STEP is not None and _cstep.BLAS is not None


@needs_build
@pytest.mark.parametrize("params", [{}, {"gamma_cov": 0.05}, {"use_knn": False},
                                    {"use_attention": False}])
def test_compiled_round_is_active(params, monkeypatch):
    # Each select and update of an LNUCB-TA policy is one C call here; no
    # step of the numpy round runs.  A self-check that failed without a
    # word would leave every twin test on the numpy path; this fails then.
    def numpy_round(*args, **kwargs):
        raise AssertionError("the numpy round ran")

    for owner, name in [(NeighborBank, "_scan"), (NeighborBank, "_check_reward"),
                        (NeighborBank, "_put"),
                        (RidgeState, "_check"), (RidgeState, "_update"),
                        (RewardStats, "record"), (RewardStats, "local_means"),
                        (policies, "exploration_rates"), (policies, "widths_sq"),
                        (core, "argmax_tiebreak")]:
        monkeypatch.setattr(owner, name, numpy_round)
    policy = make_policy("lnucb-ta", 3, 2, theta_max=3, store_capacity=4, **params)
    rng = np.random.default_rng(4)
    for t in range(40):  # the capped rows wrap
        x = rng.standard_normal(2)
        policy.update(policy.select(x, t), x, float(rng.uniform()))
    assert policy.stats.per_arm_count.sum() == 40


def _rates_table(sums, counts, width, alpha0, kappa, flags):
    """score_pass's table and argmax for no k-NN rows, with these stats and
    widths (widths 0 leaves them), and mu x for mu = x = [1, -1]."""
    ffi = _cstep.STEP.ffi
    n, x = len(sums), np.array([1.0, -1.0])
    table, mu = np.zeros((7, n)), np.tile(x, (n, 1))
    table[3] = width
    p = _cstep.struct("round_t", table=table, mu=mu, stat_sum=sums, stat_count=counts,
                      alpha0=alpha0, kappa=kappa, n=n, flags=flags)
    bank = _cstep.struct("bank_t", d=2, gemv=_cstep.BLAS[0], ddot=_cstep.BLAS[1])
    best = _cstep.STEP.lib.score_pass(x.tobytes(), 0, ffi.NULL, ffi.NULL, 1, p, bank)
    return table[:5], best


SPECIALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan, math.inf, -math.inf])


@needs_pass
@settings(max_examples=200, deadline=None)
@given(
    sums=st.lists(SPECIALS | st.floats(-3.0, 3.0), min_size=1, max_size=8),
    counts=st.lists(st.integers(0, 4), min_size=8, max_size=8),
    width=st.lists(SPECIALS, min_size=8, max_size=8),
    alpha0=st.sampled_from([0.0, 1.0, 1.5]),
    kappa=st.sampled_from([0.0, 0.25, 1.0]),
    flags=st.sampled_from([0, 2, 6]),
)
def test_compiled_rates_floor_and_argmax_equal_numpy(sums, counts, width, alpha0, kappa,
                                                     flags):
    # Signed zeros, ties, infinities and NaN (the first NaN wins the argmax,
    # np.maximum(-0.0, 0.0) is 0.0) through the compiled table's rates,
    # floor and ucb, against the numpy round's own calls.
    sums, n = np.array(sums), len(sums)
    counts, width = np.array(counts[:n]), np.array(width[:n])
    got, best = _rates_table(sums, counts, width, alpha0, kappa, flags)
    got = np.where(np.isnan(got), np.nan, got)  # a NaN's payload aside
    with np.errstate(all="ignore"):
        local = sums / np.maximum(counts, 1)
        alpha = np.full(n, alpha0)
        if flags & 2:
            alpha = exploration_rates(AttentionParams(alpha0, kappa), counts,
                                      float(np.add.reduce(local) / n), local)
        if flags & 4:
            np.maximum(alpha, 0.0, out=alpha)
        linear = np.full(n, 2.0)
        ucb = linear + np.zeros(n) + alpha * width
    want = np.array([linear, np.zeros(n), alpha, width, ucb])
    want = np.where(np.isnan(want), np.nan, want)
    assert got.tobytes() == want.tobytes()
    assert best == int(ucb.argmax())


@needs_pass
@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(0, 6), min_size=1, max_size=6), theta=st.integers(1, 4),
       rho=st.sampled_from([0.0, 0.5, 1.0, 1e300, sys.float_info.max]),
       seed=st.integers(0, 2 ** 16))
def test_knn_ucb_kind_equals_its_np_where(sizes, theta, rho, seed):
    # knn-ucb's score kind (flags 9), as its compiled run calls it, against
    # KnnUCB._scores on the same bank: score + rho * u_max, +inf where an
    # arm holds nothing, a huge rho's infinite bonus, and np.argmax's pick.
    rng = np.random.default_rng(seed)
    policy = make_policy("knn-ucb", len(sizes), 2, rho=rho, theta_min=theta, theta_max=theta)
    for a, n in enumerate(sizes):
        for _ in range(n):  # a grid of contexts, so distances tie
            policy.update(a, rng.integers(-2, 3, 2) * 0.5, float(rng.integers(0, 3)))
    x = rng.integers(-2, 3, 2) * 0.5
    want, bank = policy.scores(x, 0), policy.bank
    null = _cstep.STEP.ffi.NULL
    best = _cstep.STEP.lib.score_pass(x.tobytes(), len(sizes), null, null, 0,
                                      *policy._compiled())
    assert policy._table_rows[4].tobytes() == want.tobytes()
    assert best == int(want.argmax())


@needs_pass
@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 300) | st.sampled_from([1000, 8193, 20_001]),
    rows=st.integers(1, 4),
    pad=st.integers(0, 3),
    scale=st.sampled_from([1.0, 1e-300, 1e300]),
    zeros=st.sampled_from(["none", "some", "negative", "all-negative"]),
    seed=st.integers(0, 100_000),
)
def test_compiled_row_sums_equal_add_reduce(k, rows, pad, scale, zeros, seed):
    # The k-NN score's reward sum in C, and the variance's sums at window
    # lengths, against numpy's add.reduce 1-D and along axis=1 of padded
    # rows (inf past k, as the norms' padding): every branch of the pairwise
    # sum, signed zeros and both ends of the range.
    rng = np.random.default_rng(seed)
    a = np.full((rows, k + pad), np.inf)
    a[:, :k] = rng.standard_normal((rows, k)) * scale
    if zeros != "none":
        mask = rng.uniform(size=(rows, k)) < (1.0 if zeros == "all-negative" else 0.3)
        a[:, :k][mask] = -0.0 if "negative" in zeros else 0.0
    out = np.array([0.0 + _cstep.STEP.lib.pairwise(_cstep.STEP.ffi.from_buffer("double[]", r), k)
                    for r in a])  # add.reduce adds the sum to its identity
    assert out.tobytes() == np.add.reduce(a[:, :k], axis=1).tobytes()
    assert out.tobytes() == np.array([np.add.reduce(r[:k]) for r in a]).tobytes()


@needs_build
def test_concurrent_first_loads_share_one_artifact(tmp_path):
    # The artifacts and markers of other sources go when a new one is built.
    for stale in ("_csteps.0123456789abcdef.so", "_csteps.fedcba9876543210.so.failed"):
        (tmp_path / stale).touch()
    src = str(Path(knn.__file__).resolve().parents[1])
    code = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "from banditlab import _cstep; "
            "print(_cstep.load(Path(sys.argv[2])) is not None)")
    procs = [subprocess.Popen([sys.executable, "-c", code, src, str(tmp_path)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs == ["True\n", "True\n"]
    assert [p.name for p in tmp_path.iterdir()] == [Path(_cstep.STEP.__file__).name]


@needs_build
def test_failed_build_falls_back_and_is_not_retried(tmp_path, monkeypatch):
    monkeypatch.setattr(_cstep, "SOURCE", "this is not C")
    assert _cstep.load(tmp_path) is None
    (marker,) = tmp_path.iterdir()
    assert marker.name.endswith(".failed") and marker.read_text()  # why it failed

    def no_build(*args, **kwargs):
        raise AssertionError("rebuilt after a failed build")

    monkeypatch.setattr(_cstep.subprocess, "run", no_build)
    assert _cstep.load(tmp_path) is None
    assert [p.name for p in tmp_path.iterdir()] == [marker.name]


def _killed(*args, **kwargs):
    return subprocess.CompletedProcess(args, -9, b"", b"")


def _timed_out(*args, **kwargs):
    raise subprocess.TimeoutExpired(args, kwargs["timeout"])


@pytest.mark.parametrize("cause", ["no cffi", "no compiler", "killed", "timed out"])
def test_build_that_never_compiled_leaves_no_marker(tmp_path, monkeypatch, cause):
    # Only a source the compiler rejects marks the build failed: installing
    # cffi or a compiler later, or simply loading again, still builds.
    monkeypatch.setattr(_cstep, "SOURCE", "a source never built before")
    if cause == "no cffi":
        monkeypatch.setattr(_cstep, "find_spec", lambda name: None)
    elif cause == "no compiler":
        monkeypatch.setattr(_cstep.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(_cstep, "find_spec", lambda name: True)
        monkeypatch.setattr(_cstep.shutil, "which", lambda name: name)
        monkeypatch.setattr(_cstep.subprocess, "run",
                            _killed if cause == "killed" else _timed_out)
    assert _cstep.load(tmp_path) is None
    assert list(tmp_path.iterdir()) == []
