"""Environment behavior: classification conversion, replay semantics, and the
synthetic reward generator's structural guarantees."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from banditlab import _cstep, env as env_module
from banditlab.env import (ClassificationBanditEnv, DataError, ReplayLogEnv,
                           RoundFeedback, SyntheticHybridEnv,
                           load_classification_csv, load_news_csv,
                           replay_step, synthetic_hybrid, two_class_bumps)
from banditlab.policies import make_policy
from banditlab.runner import run_policy
from conftest import PARSE_IDS, PARSE_STEPS, compiled_step


def expected_rewards(env, x):
    """Expected reward of every arm at one context, from the env's parts."""
    out = env.base + env.mu @ x
    if env.bump_count > 0:
        dist = np.linalg.norm(env.bump_centers - x, axis=2)
        out = out + (env.bump_values * (dist < env.radius)).sum(axis=1)
    return out


def play_one(env, rng):
    """One round drawn scalar by scalar: play_batch's reference at T = 1.

    Returns (context, expected, realized); the noise is one draw of
    N(0, sigma^2) conditioned on [-1 - min, 1 - max] of the expected rewards.
    """
    idx = int(rng.choice(env.CONTEXT_CLUSTERS, p=env.cluster_probs))
    x = env.cluster_centers[idx] + env._cluster_sigma * rng.standard_normal(env.dim)
    x = x / np.linalg.norm(x)
    expected = expected_rewards(env, x)
    xi = 0.0
    if env.noise_sigma > 0.0:
        lo, hi = -1.0 - float(expected.min()), 1.0 - float(expected.max())
        a, b = ndtr(lo / env.noise_sigma), ndtr(hi / env.noise_sigma)
        xi = float(env.noise_sigma * ndtri(a + rng.uniform() * (b - a)))
        xi = min(max(xi, lo), hi)
    return x, expected, expected + xi


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
        with pytest.raises(ValueError, match="shuffle_seed must be >= 0"):
            ClassificationBanditEnv(np.eye(2), [0, 1], shuffle_seed=-1)
        # A label is an arm index: no float is cut to one, no bool read as one.
        for labels, shown in (([0.5, 1.7], "0.5"), ([True, False], "True"),
                              ([np.nan, 1.0], "nan")):
            with pytest.raises(ValueError, match=f"label must be an integer, got {shown}"):
                ClassificationBanditEnv(np.eye(2), labels)
        assert ClassificationBanditEnv(np.eye(2), [1.0, 0.0]).labels.dtype == np.int64

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

    @pytest.mark.parametrize("kw, message", [
        (dict(T=2.5), "T must be an integer, got 2.5"),
        (dict(T="40"), "T must be an integer, got '40'"),
        (dict(d=0), "d must be >= 1"),
        (dict(d=2.5), "d must be an integer, got 2.5"),
        (dict(bump_count=-1), "bump_count must be >= 0"),
        (dict(bump_count="4"), "bump_count must be an integer"),
        (dict(seed=-1), "seed must be >= 0"),
        (dict(seed=2.5), "seed must be an integer, got 2.5"),
        (dict(bump_radius=float("nan")), "bump_radius must be positive and finite"),
        (dict(bump_radius=-1.0), "bump_radius must be positive and finite"),
        (dict(bump_radius="0.8"), "bump_radius must be a number"),
    ])
    def test_arguments_are_checked_by_name(self, kw, message):
        with pytest.raises(ValueError, match=message):
            two_class_bumps(**{"seed": 0, "T": 40, **kw})

    def test_integral_floats_build_the_same_rows(self):
        a, b = two_class_bumps(3, 40.0, d=4.0), two_class_bumps(3, 40, d=4)
        assert np.array_equal(a.contexts, b.contexts)
        assert np.array_equal(a.labels, b.labels)


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


@pytest.mark.parametrize("step", PARSE_STEPS, ids=PARSE_IDS)
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_overlong_cell_names_its_line(tmp_path, kind, step):
    # The csv module refuses cells over 131,072 characters.
    p = tmp_path / "big.csv"
    p.write_text(BOTH_ROW + "\n" + "1," * 101 + "2" * 200_000 + "\n")
    with compiled_step(step), pytest.raises(
            DataError, match="row 3: field larger than field limit"):
        LOADERS[kind](p)


@pytest.mark.parametrize("step", PARSE_STEPS, ids=PARSE_IDS)
@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("offset", [4, 20_000])
def test_bytes_that_are_not_utf8_name_their_offset(tmp_path, kind, offset, step):
    # 20,000 lies past the text reader's first 8 KiB chunk.
    data = bytearray(BOTH_ROW.encode() * (offset // len(BOTH_ROW) + 1))
    data[offset] = 0xFF
    p = tmp_path / "bad.csv"
    p.write_bytes(bytes(data))
    with compiled_step(step), pytest.raises(
            DataError, match=f"^byte {offset}: not UTF-8$"):
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


@pytest.mark.parametrize("step", PARSE_STEPS, ids=PARSE_IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_csv_bytes(), st.binary(max_size=64)),
       label_column=st.sampled_from([-1, 0, 2, -7]), has_header=st.booleans())
def test_loaders_return_an_env_or_raise_data_error(tmp_path_factory, data,
                                                    label_column, has_header,
                                                    step):
    p = tmp_path_factory.getbasetemp() / "fuzz.csv"
    p.write_bytes(data)
    for load in (lambda: load_news_csv(p),
                 lambda: load_classification_csv(p, label_column,
                                                 has_header=has_header)):
        try:
            with compiled_step(step):
                env = load()
        except DataError:
            continue
        assert len(env) > 0 and env.contexts.shape[1] == env.dim


# Cells float() reads, in the spellings a log may hold.
_NUMBERS = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["%r", "%.17e", "%g"])).map(lambda t: t[1] % t[0]),
    st.floats(-1e30, 1e30).map("%.5f".__mod__),
    st.sampled_from(["-0", ".5", "5.", "+.5e-3", "1e-400", "1e400", "nan",
                     "9007199254740993", "1E+05", "-.0e-0", "0e999"]),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(10**24, 10**25 - 1),
              st.integers(0, 25), st.integers(-340, 300)).map(  # 25-digit mantissas
        lambda t: f"{t[0]}{str(t[1])[:t[2]]}.{str(t[1])[t[2]:]}e{t[3]}"))


@st.composite
def _news_log_bytes(draw):
    """News logs of numeric cells: rows of an arm id, a click and 100 values
    (up to 10 drawn, then repeated), blank lines, and LF, CRLF or lone CR
    line ends, with now and then a _csv_bytes log in between."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        cells = [draw(st.sampled_from(["1", "10", "4.0", "+2", "1e0", "7"])),
                 draw(st.sampled_from(["0", "1", "-0", "1.0"]))]
        values = draw(st.lists(_NUMBERS, min_size=1, max_size=10))
        cells += [values[j % len(values)] for j in range(100)]
        lines.append(",".join(cells).encode())
        lines += [b""] * draw(st.integers(0, 1))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_csv_bytes()))
    ends = [draw(st.sampled_from([b"\n", b"\r\n"] * 3 + [b"\r"])) for _ in lines]
    return b"".join(line + end for line, end in zip(lines, ends))


def _news_outcome(path, step):
    """load_news_csv's three arrays as (dtype, shape, C-contiguity, bytes),
    or its DataError message."""
    try:
        with compiled_step(step):
            env = load_news_csv(path)
    except DataError as error:
        return str(error)
    return [(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (env.arms, env.clicks, env.contexts)]


@pytest.mark.skipif(len(PARSE_STEPS) < 2, reason="the compiled parse is not built")
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_news_log_bytes(), _csv_bytes()))
def test_compiled_parse_loads_what_the_loop_loads(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "news.csv"
    p.write_bytes(data)
    assert _news_outcome(p, PARSE_STEPS[1]) == _news_outcome(p, None)


@pytest.mark.skipif(len(PARSE_STEPS) < 2, reason="the compiled parse is not built")
def test_compiled_parse_reads_a_plain_log_itself(tmp_path, monkeypatch):
    p = tmp_path / "log.csv"
    p.write_text(make_log_text([1, 10, 3], [0, 1, 1]).replace("\n", "\r\n\n"))
    monkeypatch.setattr(env_module, "_csv_rows", None)  # no fallback to the loop
    with compiled_step(PARSE_STEPS[1]):
        env = load_news_csv(p)
    assert env.arms.tolist() == [0, 9, 2] and env.contexts.shape == (3, 100)


def _cell(value):
    """The change that sets the last cell of a log to value."""
    return lambda text: text[:text.rindex(",") + 1] + value + "\n"


@pytest.mark.skipif(len(PARSE_STEPS) < 2, reason="the compiled parse is not built")
@pytest.mark.parametrize("change", [
    lambda text: text.replace("\n", "\r", 1), lambda text: text + " \n",
    lambda text: text + ",,\n", lambda text: text.replace(",", ",,", 1),
    lambda text: text.replace("0,", "0 ,", 1), _cell('"0.5"'), _cell("inf"),
    _cell("nan"), _cell("1_0"), _cell("\u00e9"), _cell("0x1p0"), _cell("1e"),
    _cell("."), _cell("1" * 48), _cell("1e400"), _cell("0.5\r0")])
def test_compiled_parse_declines_what_it_does_not_read(tmp_path, monkeypatch,
                                                       change):
    p = tmp_path / "log.csv"
    p.write_text(change(make_log_text([4, 2], [1, 0])), encoding="utf-8")
    calls, loop = [], env_module._csv_rows
    monkeypatch.setattr(env_module, "_csv_rows",
                        lambda path: calls.append(path) or loop(path))
    with compiled_step(PARSE_STEPS[1]):
        try:
            load_news_csv(p)
        except DataError:
            pass
    assert calls == [p]


def test_scipy_special_is_loaded_by_the_synthetic_env_alone(tmp_path):
    news, classes = tmp_path / "news.csv", tmp_path / "classes.csv"
    news.write_text(make_log_text([1, 2], [0, 1]))
    classes.write_text("1,0,a\n0,1,b\n")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import banditlab, banditlab.cli; from banditlab import env; "
            "env.load_news_csv(sys.argv[2]); env.load_classification_csv(sys.argv[3]); "
            "print('scipy.special' in sys.modules); "
            "env.synthetic_hybrid(0, 4, 3, 1, 0.05); "
            "print('scipy.special' in sys.modules)")
    src = str(Path(env_module.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src, str(news), str(classes)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def make_log_text(arms, clicks, seed=0):
    """102-column rows: 1-based arm id, click, 100 features."""
    rng = np.random.default_rng(seed)
    lines = []
    for a, c in zip(arms, clicks):
        feats = rng.uniform(-1, 1, size=100)
        lines.append(",".join([str(a), str(c)] + [f"{v:.6f}" for v in feats]))
    return "\n".join(lines) + "\n"


class TestNewsReplay:
    @pytest.fixture(autouse=True, params=PARSE_STEPS, ids=PARSE_IDS)
    def each_parse_step(self, request):
        with compiled_step(request.param):
            yield

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
        for arms, bad in (([0.5, 1.7], "0.5"), ([0.0, np.nan], "nan"), ([True, False], "True"),
                          (np.array([1, 0], dtype=bool), "True")):
            with pytest.raises(ValueError, match=f"logged arm must be an integer, got {bad}"):
                ReplayLogEnv(arms, [0.0, 1.0], ctx)
        assert ReplayLogEnv([1.0, 9.0], [0.0, 1.0], ctx).arms.tolist() == [1, 9]
        with pytest.raises(ValueError, match="align"):
            ReplayLogEnv([[0], [1]], [0.0, 1.0], ctx)
        # A compiled run reads the log's arrays in place: a strided input is
        # copied once, here, and a contiguous one (a loader's) not at all.
        wide = np.zeros((2, 200))
        env = ReplayLogEnv(np.array([0, 0, 1, 1])[::2], np.array([0.0, 0, 1, 1])[::2],
                           wide[:, ::2])
        assert all(a.flags.c_contiguous for a in (env.arms, env.clicks, env.contexts))
        arms, clicks, contexts = np.array([0, 1]), np.array([0.0, 1.0]), np.zeros((2, 100))
        env = ReplayLogEnv(arms, clicks, contexts)
        assert env.arms is arms and env.clicks is clicks and env.contexts is contexts


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_replay_log_names_its_non_finite_row(value, row):
    # A run would read a non-finite row only if its cursor landed there, so
    # the log is refused when it is built, by its first such row.
    bad = np.zeros((3, 100))
    bad[row, 57] = value
    bad[2, 3] = np.nan
    with pytest.raises(DataError, match=f"^row {row + 1}: non-finite feature$"):
        ReplayLogEnv([0, 1, 2], [0.0, 1.0, 0.0], bad)


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

    @pytest.mark.parametrize("arm, cursor, message", [
        (1.5, 0, "chosen_arm must be an integer, got 1.5"),
        (True, 0, "chosen_arm must be an integer, got True"),
        (np.float64(0.5), 0, "chosen_arm must be an integer"),
        (0, 1.5, "cursor must be an integer, got 1.5"),
        (0, False, "cursor must be an integer, got False")])
    def test_arm_and_cursor_are_checked_by_name(self, arm, cursor, message):
        with pytest.raises(ValueError, match=message):
            replay_step(self.build(), arm, cursor)

    def test_integral_arm_and_cursor_of_other_types(self):
        fb, cur = replay_step(self.build(), np.int64(1), 2.0)
        assert fb.step_consumed and fb.reward == 1.0 and cur == 5


@pytest.mark.skipif(_cstep.BLAS is None, reason="the compiled steps are not built")
@settings(max_examples=200, deadline=None)
@given(arms=st.lists(st.integers(0, 9), max_size=30), seed=st.integers(0, 10_000),
       data=st.data())
def test_compiled_scan_picks_replay_steps_row(arms, seed, data):
    # run_rounds' forward scan against replay_step, on random small logs: a
    # linucb run in C ends after the same rounds with the same rewards, or
    # the same error, as the per-round loop's.
    clicks = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(arms),
                                max_size=len(arms)))
    env = ReplayLogEnv(arms, clicks, np.random.default_rng(seed).standard_normal((len(arms), 100)))
    outcomes = []
    for trace in (False, True):
        try:
            result, _ = run_policy(env, make_policy("linucb", 10, 100, alpha=3.0), 40, seed,
                                   trace=trace)
            outcomes.append((result.matched_steps, result.cumulative_reward.tobytes()))
        except DataError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


class TestSyntheticHybrid:
    def test_constructor_validation(self):
        for bad, match in (
                (dict(d=0), "d must"), (dict(n_arms=1), "n_arms must be >= 2"),
                (dict(bump_count=-1), "bump_count"),
                (dict(d=2.5), "d must be an integer, got 2.5"),
                (dict(d="3"), "d must be an integer, got '3'"),
                (dict(n_arms=2.5), "n_arms must be an integer, got 2.5"),
                (dict(n_arms=True), "n_arms must be an integer, got True"),
                (dict(bump_count=1.5), "bump_count must be an integer, got 1.5"),
                (dict(bump_count="1"), "bump_count must be an integer"),
                (dict(noise_sigma=-0.1), "noise_sigma must be >= 0"),
                (dict(noise_sigma=float("nan")), "noise_sigma must be >= 0"),
                (dict(noise_sigma="abc"), "noise_sigma must be a number"),
                (dict(radius=float("nan")), "radius must be positive"),
                (dict(radius=-1.0), "radius must be positive"),
                (dict(radius=0.0), "radius must be positive"),
                (dict(radius="abc"), "radius must be a number"),
                (dict(seed=-1), "env_seed must be >= 0"),
                (dict(seed=2.5), "env_seed must be an integer")):
            kw = dict(seed=0, d=4, n_arms=3, bump_count=2, noise_sigma=0.1)
            kw.update(bad)
            with pytest.raises(ValueError, match=match):
                SyntheticHybridEnv(**kw)

    def test_play_batch_and_episode_check_horizon_and_seed_by_name(self):
        env = synthetic_hybrid(0, 4, 3, 1, 0.05)
        for T, match in ((2.5, "T must be an integer, got 2.5"),
                         (True, "T must be an integer, got True"),
                         ("3", "T must be an integer, got '3'"), (0, "T must be >= 1")):
            with pytest.raises(ValueError, match=match):
                env.play_batch(np.random.default_rng(0), T)
            with pytest.raises(ValueError, match=match):
                env.episode(0, T)
        for seed, match in ((2.5, "seed must be an integer, got 2.5"),
                            (True, "seed must be an integer, got True"),
                            ("3", "seed must be an integer, got '3'"), (-1, "seed must be >= 0")):
            with pytest.raises(ValueError, match=match):
                env.episode(seed, 5)
        assert np.array_equal(env.episode(2.0, 5.0).realized, env.episode(2, 5).realized)

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
            context, expected, realized = play_one(env, np.random.default_rng(seed))
            batch = env.play_batch(np.random.default_rng(seed), 1)
            assert np.array_equal(context, batch.contexts[0])
            assert np.allclose(expected, batch.expected[0], atol=1e-12)
            assert np.allclose(realized, batch.realized[0], atol=1e-12)
            assert np.argmax(expected) == batch.oracle_arm[0]

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
        assert np.allclose(expected_rewards(env, x), env.base + env.mu @ x)

    def test_expected_rewards_single_matches_batch_formula(self):
        env = synthetic_hybrid(7, 8, 4, 2, 0.05)
        batch = env.play_batch(np.random.default_rng(2), 40)
        for t in (0, 13, 39):
            assert np.allclose(expected_rewards(env, batch.contexts[t]),
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
