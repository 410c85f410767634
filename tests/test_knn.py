"""Neighbor store behavior and the adaptive-k query against independent oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import knn
from banditlab.knn import (KnnScore, NeighborBank, NeighborStore, knn_score,
                           knn_score_bruteforce, reward_variance, select_k)
from banditlab.policies import make_policy
from banditlab.runner import EnvSpec, build_env, run_policy


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
        with pytest.raises(ValueError):
            bank.query(np.ones(2), [1])
        with pytest.raises(ValueError):
            bank.query(np.ones(2), [1, 0])

    def test_stores_are_rows_of_the_bank(self):
        bank = NeighborBank(3, 2)
        bank.add(1, np.array([1.0, 2.0]), 0.5, 0)
        bank.store(2).add(np.array([3.0, 4.0]), 0.25, 1)
        assert [len(bank.store(a)) for a in range(3)] == [0, 1, 1]
        assert bank.store(2).contexts.tolist() == [[3.0, 4.0]]
        got = bank.query(np.zeros(2), [1, 1, 1])
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


class TestKnnScore:
    def test_gate_requires_k_entries(self):
        rng = np.random.default_rng(1)
        store = _filled_store(rng, 4, 3)
        assert knn_score(store, np.zeros(3), 5) == KnnScore.not_applied()
        assert knn_score(store, np.zeros(3), 4).applied

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
    got = bank.query(x, ks, strict=strict)
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
def test_incremental_k_equals_the_exact_rule(capacity, thetas, scale, levels,
                                             n, seed):
    # Rewards from a small set put the interpolated k exactly on .5
    # boundaries (0.1 and 0.3, inexact in binary, land within rounding of
    # one); runs up to 12x a capacity copy capped windows back often.
    rng = np.random.default_rng(seed)
    bank = NeighborBank(2, 2, capacity, thetas[0], thetas[1], scale)
    for _ in range(n):
        arm = int(rng.integers(2))
        bank._add(arm, rng.standard_normal(2), float(rng.choice(levels)))
        v = reward_variance(bank.store(arm)) * scale
        assert bank._ks[arm] == select_k(v, *thetas)


def test_incremental_k_falls_back_on_a_rounding_boundary(monkeypatch):
    # Alternating 0/1 rewards give variance 0.25: 1 + 1 * (0.25 * 2) + 0.5
    # is exactly 2, so only the exact rule can tell k = 2 from k = 1.
    exact = []
    monkeypatch.setattr(knn, "reward_variance",
                        lambda store: exact.append(1) or reward_variance(store))
    bank = NeighborBank(1, 1, None, 1, 2, 2.0)
    for t in range(40):
        bank._add(0, np.zeros(1), float(t % 2))
    assert bank._ks[0] == 2 and exact


@pytest.mark.parametrize("pid", ["knn-ucb", "lin-knn-ucb", "lnucb-ta"])
def test_capped_trajectory_pass_equals_per_store_oracle(pid, monkeypatch):
    # Every round's bank pass, in both gating modes, against the full-sort
    # oracle per arm along a real capped run.  bincount runs only on the
    # pass's tie, short-row and mixed-k branch; both it and the common
    # branch must have run on the way.
    spec = EnvSpec(kind="synthetic", d=10, n_arms=5, bump_count=3,
                   noise_sigma=0.06, env_seed=0, radius=0.7)
    env = build_env(spec)
    # lnucb-ta as in the suite's capped cell, so every arm fills its store.
    params = (dict(theta_min=4, kappa=1.0, floor_alpha_at_zero=True, lam=0.1,
                   gamma_cov=0.05) if pid == "lnucb-ta" else {})
    policy = make_policy(pid, env.n_arms, env.dim, seed=3, store_capacity=7,
                         variance_scale=50.0, **params)
    bank = policy.bank
    passes = {"common": 0, "bincount": 0}
    calls, bincount, query = [0], np.bincount, NeighborBank._query

    def spied_bincount(*args, **kwargs):
        calls[0] += 1
        return bincount(*args, **kwargs)

    def counted(self, arms, x, xx, ks, strict):
        before = calls[0]
        got = query(self, arms, x, xx, ks, strict)
        passes["bincount" if calls[0] > before else "common"] += 1
        return got

    def checked_query(self, arms, x, xx, ks, strict):
        if self is not bank:
            return query(self, arms, x, xx, ks, strict)
        for gate in (not strict, strict):  # the policy's own pass last
            got = counted(self, arms, x, xx, ks, gate)
            for a, k in zip(arms, ks):
                store = self.store(a)
                k = k if gate else min(k, max(len(store), 1))
                assert got.row(a) == knn_score_bruteforce(store, x, k)
        return got

    monkeypatch.setattr(np, "bincount", spied_bincount)
    monkeypatch.setattr(NeighborBank, "_query", checked_query)
    run_policy(env, policy, 300, 3)
    assert max(len(bank.store(a)) for a in range(env.n_arms)) == 7
    assert passes["common"] > 0 and passes["bincount"] > 0, passes
