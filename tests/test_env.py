"""Environment behavior: classification conversion, replay semantics, and the
synthetic reward generator's structural guarantees."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from banditlab.env import (ClassificationBanditEnv, DataError, ReplayLogEnv,
                           RoundFeedback, SyntheticHybridEnv,
                           load_classification_csv, load_news_csv,
                           replay_step, synthetic_hybrid, two_class_bumps)


def unit_rows(rng, n, d):
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1)[:, None]


class TestClassificationEnv:
    def test_reward_is_label_match(self):
        X = np.eye(3)
        env = ClassificationBanditEnv(X, [0, 1, 2], shuffle_seed=7)
        for t in range(3):
            label = env.labels[t]
            fb = env.feedback(t, int(label))
            assert fb.reward == 1.0 and fb.oracle_reward == 1.0
            miss = env.feedback(t, int((label + 1) % 3))
            assert miss.reward == 0.0 and miss.oracle_reward == 1.0

    def test_shuffle_is_seeded_permutation(self):
        rng = np.random.default_rng(0)
        X = unit_rows(rng, 50, 4)
        y = rng.integers(0, 3, size=50)
        a = ClassificationBanditEnv(X, y, shuffle_seed=1)
        b = ClassificationBanditEnv(X, y, shuffle_seed=1)
        c = ClassificationBanditEnv(X, y, shuffle_seed=2)
        assert np.array_equal(a.contexts, b.contexts)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.contexts, c.contexts)
        # Same multiset of rows either way.
        key = lambda env: np.lexsort(env.contexts.T)
        assert np.allclose(a.contexts[key(a)], c.contexts[key(c)])

    def test_rejects_non_unit_rows_unless_normalizing(self):
        X = np.array([[3.0, 4.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="unit"):
            ClassificationBanditEnv(X, [0, 1])
        env = ClassificationBanditEnv(X, [0, 1], normalize=True)
        assert np.allclose(np.linalg.norm(env.contexts, axis=1), 1.0)

    def test_zero_row_reports_position(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="row 2"):
            ClassificationBanditEnv(X, [0, 1])
        X[1] = 1e308
        with pytest.raises(DataError, match="row 2: feature vector norm is not"):
            ClassificationBanditEnv(X, [0, 1], normalize=True)

    def test_basic_validation(self):
        with pytest.raises(DataError, match="empty"):
            ClassificationBanditEnv(np.zeros((0, 2)), [])
        with pytest.raises(ValueError, match="align"):
            ClassificationBanditEnv(np.eye(2), [0])
        with pytest.raises(ValueError, match="nonnegative"):
            ClassificationBanditEnv(np.eye(2), [0, -1])

    def test_arm_count_and_metadata(self):
        env = ClassificationBanditEnv(np.eye(4), [0, 2, 1, 2],
                                      class_names=["cat", "dog", "bird"])
        assert env.n_arms == 3
        meta = env.metadata()
        assert meta["kind"] == "classification"
        assert meta["rows"] == 4 and meta["n_arms"] == 3
        assert meta["class_to_arm"] == {"cat": 0, "dog": 1, "bird": 2}


class TestTwoClassBumps:
    def test_shape_and_determinism(self):
        a = two_class_bumps(3, 400)
        b = two_class_bumps(3, 400)
        assert len(a) == 400 and a.n_arms == 2
        assert np.array_equal(a.contexts, b.contexts)
        assert np.array_equal(a.labels, b.labels)
        assert np.allclose(np.linalg.norm(a.contexts, axis=1), 1.0)

    def test_both_classes_present(self):
        env = two_class_bumps(0, 1000)
        frac = env.labels.mean()
        assert 0.2 < frac < 0.8

    def test_labels_not_linearly_clean(self):
        # The flip pockets must leave any single hyperplane wrong on a
        # nontrivial share of rows; least squares gives a cheap witness.
        env = two_class_bumps(0, 2000)
        y = 2.0 * env.labels - 1.0
        w, *_ = np.linalg.lstsq(env.contexts, y, rcond=None)
        errs = ((env.contexts @ w > 0) != (y > 0)).mean()
        assert errs > 0.05

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            two_class_bumps(0, 0)


class TestClassificationCsv(object):
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_first_appearance_class_map(self, tmp_path):
        p = self.write(tmp_path, "1,0,b\n0,1,a\n1,1,b\n")
        env = load_classification_csv(p)
        assert env.metadata()["class_to_arm"] == {"b": 0, "a": 1}
        assert env.n_arms == 2
        assert np.allclose(np.linalg.norm(env.contexts, axis=1), 1.0)

    def test_label_column_and_header(self, tmp_path):
        p = self.write(tmp_path, "label,f1,f2\nx,1,0\ny,0,1\n")
        env = load_classification_csv(p, label_column=0, has_header=True)
        assert len(env) == 2
        assert env.metadata()["class_to_arm"] == {"x": 0, "y": 1}

    def test_blank_lines_skipped(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\n\n0,1,b\n")
        assert len(load_classification_csv(p)) == 2

    def test_non_numeric_feature_names_row(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\noops,1,b\n")
        with pytest.raises(DataError, match="row 2: non-numeric"):
            load_classification_csv(p)

    def test_inconsistent_columns(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\n1,0,0,b\n")
        with pytest.raises(DataError, match="inconsistent column"):
            load_classification_csv(p)

    def test_inconsistent_columns_name_both_rows(self, tmp_path):
        p = self.write(tmp_path, "f1,f2,label\n1,0,a\n\n0,1,b\n1,0,0,b\n")
        with pytest.raises(DataError, match="row 5: 3 features, but row 2 has 2"):
            load_classification_csv(p, has_header=True)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_classification_csv(self.write(tmp_path, ""))

    def test_missing_label_column(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\n")
        with pytest.raises(DataError, match="row 1: missing label column 5"):
            load_classification_csv(p, label_column=5)

    def test_zero_feature_row(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\n0,0,b\n")
        with pytest.raises(DataError, match="row 2: zero feature"):
            load_classification_csv(p)

    def test_non_finite_feature(self, tmp_path):
        p = self.write(tmp_path, "1,0,a\nnan,1,b\n")
        with pytest.raises(DataError, match="row 2: non-finite"):
            load_classification_csv(p)

    @pytest.mark.parametrize("bad,msg", [
        ("0,0", "zero feature"), ("inf,1", "non-finite"),
        # Finite features whose norm overflows would otherwise load as zeros.
        ("1e308,1e308", "feature vector norm is not finite")])
    def test_bad_row_named_by_file_line(self, tmp_path, bad, msg):
        # A header and a blank line come first: the bad row is the third
        # data row but sits on line 5 of the file.
        p = self.write(tmp_path, f"f1,f2,label\n1,0,a\n\n0,1,b\n{bad},a\n")
        with pytest.raises(DataError, match=f"row 5: {msg}"):
            load_classification_csv(p, has_header=True)


LOADERS = {"classification": load_classification_csv, "news": load_news_csv}
# A news row (arm 1, no click, 100 features) and a classification row (101
# features, label "0.5") alike.
BOTH_ROW = "1,0," + ",".join(["0.5"] * 100) + "\n"


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_overlong_cell_names_its_line(tmp_path, kind):
    # The csv module refuses cells over 131,072 characters.
    p = tmp_path / "big.csv"
    p.write_text(BOTH_ROW + "\n" + "1," * 101 + "2" * 200_000 + "\n")
    with pytest.raises(DataError, match="row 3: field larger than field limit"):
        LOADERS[kind](p)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("offset", [4, 20_000])
def test_bytes_that_are_not_utf8_name_their_offset(tmp_path, kind, offset):
    # 20,000 lies past the text reader's first 8 KiB chunk.
    data = bytearray(BOTH_ROW.encode() * (offset // len(BOTH_ROW) + 1))
    data[offset] = 0xFF
    p = tmp_path / "bad.csv"
    p.write_bytes(bytes(data))
    with pytest.raises(DataError, match=f"^byte {offset}: not UTF-8$"):
        LOADERS[kind](p)


_CELLS = st.one_of(
    st.sampled_from(["0", "1", "10", "0.5", "-2", "1e308", "1e400", "nan",
                     "-inf", "a", "b", "", " ", '"', '"1,2"', "\x00", "\u00e9"]),
    st.text(max_size=4))


@st.composite
def _csv_bytes(draw):
    """CSV-shaped bytes: short rows, 102-column news rows, stray bytes."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            rows.append(draw(st.lists(_CELLS, max_size=5)))
            continue
        feats = ["0.25"] * draw(st.sampled_from([99, 100, 101]))
        for _ in range(draw(st.integers(0, 2))):
            feats[draw(st.integers(0, len(feats) - 1))] = draw(_CELLS)
        rows.append([draw(st.sampled_from(["1", "10", "0", "2.5", "x"])),
                     draw(st.sampled_from(["0", "1", "0.5", ""]))] + feats)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join(",".join(r) for r in rows).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.binary(max_size=3)) + data[cut:]


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_csv_bytes(), st.binary(max_size=64)),
       label_column=st.sampled_from([-1, 0, 2, -7]), has_header=st.booleans())
def test_loaders_return_an_env_or_raise_data_error(tmp_path_factory, data,
                                                    label_column, has_header):
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(data)
    for load in (lambda: load_news_csv(p),
                 lambda: load_classification_csv(p, label_column,
                                                 has_header=has_header)):
        try:
            env = load()
        except DataError:
            continue
        assert len(env) > 0 and env.contexts.shape[1] == env.dim


def make_log_text(arms, clicks, seed=0):
    """102-column rows: 1-based arm id, click, 100 features."""
    rng = np.random.default_rng(seed)
    lines = []
    for a, c in zip(arms, clicks):
        feats = rng.uniform(-1, 1, size=100)
        lines.append(",".join([str(a), str(c)] + [f"{v:.6f}" for v in feats]))
    return "\n".join(lines) + "\n"


class TestNewsReplay:
    def test_load_and_shapes(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text(make_log_text([1, 2, 1, 3, 2], [0, 1, 1, 0, 0]))
        env = load_news_csv(p)
        assert len(env) == 5
        assert env.n_arms == 10 and env.dim == 100
        assert env.arms.tolist() == [0, 1, 0, 2, 1]
        assert env.clicks.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0]
        assert env.metadata()["kind"] == "replay"

    @pytest.mark.parametrize("mutate,msg", [
        (lambda r: r[:-2], "expected 102 columns"),
        (lambda r: ["0"] + r[1:], "outside 1..10"),
        (lambda r: ["11"] + r[1:], "outside 1..10"),
        (lambda r: ["2.5"] + r[1:], "outside 1..10"),
        (lambda r: [r[0], "0.5"] + r[2:], "not in"),
        (lambda r: [r[0], "maybe"] + r[2:], "non-numeric"),
        (lambda r: ["nan"] + r[1:], "outside 1..10"),
        (lambda r: ["inf"] + r[1:], "outside 1..10"),
    ])
    def test_malformed_rows(self, tmp_path, mutate, msg):
        row = make_log_text([4], [1]).strip().split(",")
        p = tmp_path / "bad.csv"
        p.write_text(",".join(mutate(row)) + "\n")
        with pytest.raises(DataError, match=msg):
            load_news_csv(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_row(self, tmp_path, value):
        rows = make_log_text([4, 2, 7], [1, 0, 0]).splitlines()
        bad = rows[2].split(",")
        bad[50] = value
        p = tmp_path / "bad.csv"
        p.write_text("\n".join([rows[0], "", rows[1], ",".join(bad)]) + "\n")
        with pytest.raises(DataError, match="row 4: non-finite feature"):
            load_news_csv(p)

    def test_contexts_equal_a_plain_list_parse(self, tmp_path):
        rng = np.random.default_rng(5)
        text = make_log_text(rng.integers(1, 11, size=40).tolist(),
                             rng.integers(0, 2, size=40).tolist())
        p = tmp_path / "log.csv"
        p.write_text(text)
        plain = [[float(c) for c in line.split(",")][2:]
                 for line in text.splitlines()]
        assert np.array_equal(load_news_csv(p).contexts, np.asarray(plain))

    def test_empty_log(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("\n")
        with pytest.raises(DataError, match="empty"):
            load_news_csv(p)

    def test_replay_array_validation(self):
        ctx = np.zeros((2, 100))
        with pytest.raises(ValueError, match="align"):
            ReplayLogEnv([0, 1], [0.0], ctx)
        with pytest.raises(ValueError, match="outside"):
            ReplayLogEnv([0, 10], [0.0, 1.0], ctx)
        with pytest.raises(ValueError, match="0 or 1"):
            ReplayLogEnv([0, 1], [0.0, 0.3], ctx)


class TestReplayStep:
    def build(self):
        arms = [0, 1, 0, 2, 1]
        clicks = [0.0, 1.0, 1.0, 0.0, 1.0]
        return ReplayLogEnv(arms, clicks, np.zeros((5, 100)))

    def test_matches_scan_forward(self):
        env = self.build()
        fb, cur = replay_step(env, 0, 0)
        assert fb.step_consumed and fb.reward == 0.0 and cur == 1
        fb, cur = replay_step(env, 0, cur)
        assert fb.step_consumed and fb.reward == 1.0 and cur == 3
        fb, cur = replay_step(env, 1, cur)
        assert fb.step_consumed and fb.reward == 1.0 and cur == 5

    def test_skips_nonmatching_rows(self):
        env = self.build()
        fb, cur = replay_step(env, 2, 0)
        assert fb.step_consumed and cur == 4
        # Rows 0..2 were jumped over and never come back.
        fb, cur = replay_step(env, 0, cur)
        assert not fb.step_consumed and cur == len(env)

    def test_exhaustion_and_bounds(self):
        env = self.build()
        fb, cur = replay_step(env, 3, 0)  # arm never logged
        assert not fb.step_consumed and fb.reward == 0.0 and cur == 5
        fb, _ = replay_step(env, 0, len(env))
        assert not fb.step_consumed
        with pytest.raises(ValueError, match="cursor"):
            replay_step(env, 0, -1)
        with pytest.raises(ValueError, match="cursor"):
            replay_step(env, 0, len(env) + 1)
        with pytest.raises(ValueError, match="out of range"):
            replay_step(env, 10, 0)


class TestSyntheticHybrid:
    def test_constructor_validation(self):
        for bad in (dict(d=0), dict(n_arms=1), dict(bump_count=-1),
                    dict(noise_sigma=-0.1), dict(noise_sigma=float("nan"))):
            kw = dict(seed=0, d=4, n_arms=3, bump_count=2, noise_sigma=0.1)
            kw.update(bad)
            with pytest.raises(ValueError):
                SyntheticHybridEnv(**kw)

    def test_same_seed_same_structure(self):
        a = synthetic_hybrid(5, 8, 4, 2, 0.05)
        b = synthetic_hybrid(5, 8, 4, 2, 0.05)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.base, b.base)
        assert np.array_equal(a.bump_centers, b.bump_centers)
        assert np.array_equal(a.bump_values, b.bump_values)
        c = synthetic_hybrid(6, 8, 4, 2, 0.05)
        assert not np.array_equal(a.mu, c.mu)

    def test_play_equals_batch_of_one(self):
        env = synthetic_hybrid(0, 10, 5, 3, 0.06)
        for seed in range(10):
            one = env.play(np.random.default_rng(seed))
            batch = env.play_batch(np.random.default_rng(seed), 1)
            assert np.array_equal(one.context, batch.contexts[0])
            assert np.allclose(one.expected, batch.expected[0], atol=1e-12)
            assert np.allclose(one.realized, batch.realized[0], atol=1e-12)
            assert one.oracle_arm == batch.oracle_arm[0]

    @pytest.mark.parametrize("noise", [0.0, 0.06])
    def test_play_batch_equals_broadcast_formula(self, noise):
        # The (T, A, b, d) broadcast play_batch used to build, bit for bit.
        env = synthetic_hybrid(5, 10, 5, 3, noise)
        T = 700
        got = env.play_batch(np.random.default_rng(8), T)
        rng = np.random.default_rng(8)
        idx = rng.choice(env.CONTEXT_CLUSTERS, size=T, p=env.cluster_probs)
        X = env.cluster_centers[idx] + env._cluster_sigma * rng.standard_normal(
            (T, env.dim))
        X /= np.linalg.norm(X, axis=1)[:, None]
        diff = X[:, None, None, :] - env.bump_centers[None, :, :, :]
        dist = np.sqrt((diff * diff).sum(axis=3))
        expected = env.base + X @ env.mu.T + (
            (dist < env.radius) * env.bump_values[None, :, :]).sum(axis=2)
        realized = expected.copy()
        if noise > 0.0:
            lo = -1.0 - expected.min(axis=1)
            hi = 1.0 - expected.max(axis=1)
            a, b = ndtr(lo / noise), ndtr(hi / noise)
            xi = noise * ndtri(a + rng.uniform(size=T) * (b - a))
            realized = expected + np.clip(xi, lo, hi)[:, None]
        assert (dist < env.radius).any()
        assert np.array_equal(got.contexts, X)
        assert np.array_equal(got.expected, expected)
        assert np.array_equal(got.realized, realized)
        assert np.array_equal(got.oracle_arm, expected.argmax(axis=1))

    def test_bounded_rewards_and_shared_noise(self):
        env = synthetic_hybrid(1, 10, 5, 3, 0.2)
        batch = env.play_batch(np.random.default_rng(0), 500)
        assert np.allclose(np.linalg.norm(batch.contexts, axis=1), 1.0)
        assert (np.abs(batch.expected) <= 1.0).all()
        assert (np.abs(batch.realized) <= 1.0 + 1e-12).all()
        noise = batch.realized - batch.expected
        assert np.ptp(noise, axis=1).max() < 1e-12

    def test_oracle_dominates_realized_rows(self):
        env = synthetic_hybrid(2, 10, 5, 3, 0.1)
        batch = env.play_batch(np.random.default_rng(3), 300)
        rows = np.arange(len(batch))
        assert np.allclose(batch.realized[rows, batch.oracle_arm],
                           batch.realized.max(axis=1))
        assert np.array_equal(batch.oracle_arm, batch.expected.argmax(axis=1))

    def test_zero_noise_realizes_expectation(self):
        env = synthetic_hybrid(3, 6, 3, 2, 0.0)
        batch = env.play_batch(np.random.default_rng(1), 50)
        assert np.array_equal(batch.realized, batch.expected)

    def test_signal_budget_split(self):
        env = synthetic_hybrid(4, 10, 5, 3, 0.06)
        lo, hi = env.BASE_RANGE
        assert ((env.base >= lo) & (env.base <= hi)).all()
        assert (env.bump_values <= 0).all()
        total = (np.linalg.norm(env.mu, axis=1)
                 + np.abs(env.bump_values).sum(axis=1))
        assert np.allclose(total, env.SIGNAL_BUDGET)

    def test_bumps_sit_on_clusters_the_arm_wins(self):
        # Construction rule: each arm's dips go on clusters where its linear
        # part alone is the argmax, falling back to other clusters only when
        # it wins fewer than bump_count of them.
        for seed in range(4):
            env = synthetic_hybrid(seed, 10, 5, 3, 0.06)
            lin = env.base[:, None] + env.mu @ env.cluster_centers.T
            best = lin.argmax(axis=0)
            for a in range(env.n_arms):
                won = set(np.flatnonzero(best == a).tolist())
                on_won = 0
                for j in range(env.bump_count):
                    c = env.bump_centers[a, j]
                    idx = np.flatnonzero(
                        (env.cluster_centers == c).all(axis=1))
                    assert idx.size >= 1, "bump center is not a cluster center"
                    if int(idx[0]) in won:
                        on_won += 1
                assert on_won == min(env.bump_count, len(won))

    def test_bump_free_variant(self):
        env = synthetic_hybrid(0, 6, 3, 0, 0.05)
        assert env.bump_centers.shape == (3, 0, 6)
        assert np.allclose(np.linalg.norm(env.mu, axis=1), env.SIGNAL_BUDGET)
        x = np.ones(6) / np.sqrt(6.0)
        assert np.allclose(env.expected_rewards(x), env.base + env.mu @ x)

    def test_expected_rewards_single_matches_batch_formula(self):
        env = synthetic_hybrid(7, 8, 4, 2, 0.05)
        batch = env.play_batch(np.random.default_rng(2), 40)
        for t in (0, 13, 39):
            assert np.allclose(env.expected_rewards(batch.contexts[t]),
                               batch.expected[t], atol=1e-12)

    def test_metadata(self):
        env = synthetic_hybrid(9, 7, 4, 2, 0.03, radius=0.5)
        meta = env.metadata()
        assert meta == {"kind": "synthetic", "dim": 7, "n_arms": 4,
                        "bump_count": 2, "noise_sigma": 0.03, "radius": 0.5,
                        "seed": 9}


def test_round_feedback_defaults():
    fb = RoundFeedback(reward=0.4)
    assert fb.step_consumed and fb.oracle_reward is None
