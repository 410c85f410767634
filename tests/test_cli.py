"""CLI behavior: output schemas, config layering, determinism, error paths."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from banditlab.cli import (coerce_value, fmt, main as cli_main, parse_grid,
                           parse_seeds)
from banditlab.metrics import DiagnosticsParams, regret_bound_curve
from banditlab.policies import make_policy
from conftest import PARSE_IDS, PARSE_STEPS, compiled_step

SYN = ["--d", "4", "--arms", "3", "--bumps", "1", "--noise-sigma", "0.05"]


def read(path):
    return path.read_text()


def csv_header(path):
    return read(path).splitlines()[0].split(",")


def make_classification_csv(tmp_path, rows=12):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(rows):
        feats = rng.uniform(0.1, 1.0, size=3)
        lines.append(",".join(f"{v:.4f}" for v in feats)
                     + ("," + ("pos" if i % 2 else "neg")))
    p = tmp_path / "cls.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


def make_news_csv(tmp_path, rows=30):
    rng = np.random.default_rng(1)
    lines = []
    for _ in range(rows):
        arm = int(rng.integers(1, 11))
        click = int(rng.integers(0, 2))
        feats = rng.uniform(-1, 1, size=100)
        lines.append(",".join([str(arm), str(click)]
                              + [f"{v:.4f}" for v in feats]))
    p = tmp_path / "news.csv"
    p.write_text("\n".join(lines) + "\n")
    return p


class TestHelpers:
    def test_parse_seeds_forms(self):
        assert parse_seeds("7") == [7]
        assert parse_seeds("1,2,5") == [1, 2, 5]
        assert parse_seeds("0:4") == [0, 1, 2, 3]

    def test_parse_seeds_rejects_bad_input(self):
        from banditlab.cli import CliError
        with pytest.raises(CliError):
            parse_seeds("-3")
        with pytest.raises(CliError):
            parse_seeds("")
        for bad in ("a", "1,b", "0:x", "1.5"):
            with pytest.raises(CliError, match="seeds .*0:20"):
                parse_seeds(bad)

    def test_parse_grid(self):
        grid = parse_grid(["rho=0.1,0.5", "flag=true"])
        assert grid == {"rho": [0.1, 0.5], "flag": [True]}

    def test_coerce_value(self):
        assert coerce_value("true") is True
        assert coerce_value("off") is False
        assert coerce_value("none") is None
        assert coerce_value("3") == 3
        assert coerce_value("0.5") == 0.5
        assert coerce_value("text") == "text"

    def test_fmt_round_trips_floats(self):
        for v in (0.1, 1e-9, 123456.789, float(np.float64(1) / 3)):
            assert float(fmt(v)) == v


class TestRun:
    def test_result_schema_and_echo(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["run", "--policy", "lnucb-ta", "--T", "40",
                       "--seeds", "3", "--out", str(out)] + SYN)
        assert rc == 0
        header = csv_header(out / "result.csv")
        assert header == ["round", "cumulative_reward", "mean_reward",
                          "cumulative_regret"]
        assert len(read(out / "result.csv").splitlines()) == 41
        payload = json.loads(read(out / "result.json"))
        assert payload["seed"] == 3
        assert payload["policy"] == "lnucb-ta"
        assert payload["version"]
        assert len(payload["dataset_fingerprint"]) == 64
        assert payload["config_echo"]["T"] == 40
        assert payload["config_echo"]["seeds"] == [3]
        assert payload["summary"]["horizon"] == 40
        assert payload["env"]["kind"] == "synthetic"

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["run", "--policy", "lnucb-ta", "--T", "30", "--seeds", "0"] + SYN
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        assert read(a / "result.csv") == read(b / "result.csv")
        pa = json.loads(read(a / "result.json"))
        pb = json.loads(read(b / "result.json"))
        # Wall time and the output path are the only legitimate differences.
        for p in (pa, pb):
            p["summary"].pop("runtime_s")
            p["config_echo"]["options"].pop("out")
        assert pa == pb

    @pytest.mark.usefixtures("each_pass")
    def test_trace_columns(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["run", "--policy", "lnucb-ta", "--T", "15",
                       "--seeds", "0", "--trace", "--out", str(out)] + SYN)
        assert rc == 0
        header = csv_header(out / "result.csv")
        assert header[-5:] == ["linear", "knn", "alpha", "width", "ucb"]
        assert len(header) == 9

    def test_format_csv_only(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["run", "--policy", "random", "--T", "10", "--seeds", "0",
                       "--format", "csv", "--out", str(out)] + SYN)
        assert rc == 0
        assert (out / "result.csv").exists()
        assert not (out / "result.json").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\n"
            "T = 50\nseeds = 5\nd = 4\narms = 3\nbumps = 1\n"
            "noise_sigma = 0.08\n"
            "\n"
            "[policy:linucb]\n"
            "alpha = 0.3\n"
        )
        out = tmp_path / "o"
        rc = cli_main(["run", "--config", str(cfg), "--T", "25",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(read(out / "result.json"))
        assert payload["config_echo"]["T"] == 25  # flag beats config
        assert payload["config_echo"]["options"]["noise_sigma"] == 0.08
        assert payload["config_echo"]["policies"] == [
            {"id": "linucb", "params": {"alpha": 0.3}}]
        assert payload["summary"]["horizon"] == 25

    def test_classification_dataset(self, tmp_path):
        data = make_classification_csv(tmp_path)
        out = tmp_path / "o"
        rc = cli_main(["run", "--env", "classification", "--data", str(data),
                       "--policy", "eps-greedy", "--T", "10", "--seeds", "0",
                       "--out", str(out)])
        assert rc == 0
        lines = read(out / "result.csv").splitlines()
        assert len(lines) == 11
        assert "cumulative_regret" in lines[0]
        payload = json.loads(read(out / "result.json"))
        import hashlib
        want = hashlib.sha256(data.read_bytes()).hexdigest()
        assert payload["dataset_fingerprint"] == want
        assert payload["env"]["n_arms"] == 2

    def test_news_replay_dataset(self, tmp_path):
        data = make_news_csv(tmp_path)
        out = tmp_path / "o"
        rc = cli_main(["run", "--env", "news", "--data", str(data),
                       "--policy", "random", "--T", "20", "--seeds", "0",
                       "--out", str(out)])
        assert rc == 0
        lines = read(out / "result.csv").splitlines()
        # Replay has no oracle, so no regret column.
        assert lines[0] == "round,cumulative_reward,mean_reward"
        payload = json.loads(read(out / "result.json"))
        assert payload["summary"]["matched_steps"] <= 20
        assert payload["summary"]["final_regret"] is None


class TestCompare:
    def test_aggregate_rows_in_canonical_order(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["compare", "--policy", "linucb", "--policy",
                       "eps-greedy", "--T", "30", "--seeds", "0:2",
                       "--out", str(out)] + SYN)
        assert rc == 0
        lines = read(out / "aggregate.csv").splitlines()
        assert lines[0].split(",")[:2] == ["policy", "params"]
        assert [l.split(",")[0] for l in lines[1:]] == ["eps-greedy", "linucb"]
        run_files = sorted(p.name for p in (out / "runs").iterdir()
                           if p.suffix == ".csv")
        assert run_files == [
            "eps-greedy__default__s0.csv", "eps-greedy__default__s1.csv",
            "linucb__default__s0.csv", "linucb__default__s1.csv",
        ]

    def test_repeated_policy_runs_once(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["compare", "--policy", "linucb", "--policy", "linucb",
                       "--T", "20", "--seeds", "0:2", "--out", str(out)] + SYN)
        assert rc == 0
        rows = json.loads(read(out / "aggregate.json"))["rows"]
        assert [(r["policy"], r["n_seeds"]) for r in rows] == [("linucb", 2)]

    def test_trace_is_rejected(self, tmp_path, capsys):
        rc = cli_main(["compare", "--policy", "linucb", "--policy", "random",
                       "--T", "10", "--seeds", "0", "--trace",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert "compare does not take trace" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unshifted_compare_does_not_load_scipy_linalg(self, tmp_path):
        # scipy.linalg is loaded by the first shifted ridge only: the score
        # pass takes its BLAS from numpy.
        code = ("import sys; from banditlab.cli import main; "
                "rc = main(sys.argv[1:]); "
                "print(rc, 'scipy.linalg' in sys.modules)")
        args = ["compare", "--policy", "linucb", "--policy", "lnucb-ta",
                "--policy", "linthompson", "--policy", "lin-knn-ucb",
                "--policy", "knn-ucb", "--T", "30", "--seeds", "0"] + SYN
        for extra, loaded in (([], "False"), (["--param", "gamma_cov=0.05"],
                                               "True")):
            proc = subprocess.run(
                [sys.executable, "-c", code] + args + extra
                + ["--out", str(tmp_path / f"o{loaded}")],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["0", loaded]

    def test_needs_two_policies_or_seeds(self, tmp_path):
        rc = cli_main(["compare", "--policy", "linucb", "--T", "10",
                       "--seeds", "0", "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_grid_rows_and_tie_break_to_smaller_params(self, tmp_path):
        out = tmp_path / "o"
        # Capacity never binds at this horizon, so both grid points produce
        # identical runs; the tie must resolve to the smaller params string.
        rc = cli_main(["sweep", "--policy", "knn-ucb",
                       "--param", "theta_max=1",
                       "--grid", "store_capacity=100,200",
                       "--T", "40", "--seeds", "0:2", "--out", str(out)] + SYN)
        assert rc == 0
        sweep_lines = read(out / "sweep.csv").splitlines()
        assert len(sweep_lines) == 3
        params = [l.split(",")[1] for l in sweep_lines[1:]]
        assert params == ['"store_capacity=100', '"store_capacity=200']
        best_lines = read(out / "best.csv").splitlines()
        assert len(best_lines) == 2
        assert best_lines[1].startswith('knn-ucb,"store_capacity=100')
        # Identical behavior means identical finals in both rows; the wall
        # time in the last column is the one legitimate difference.
        a = sweep_lines[1].split('",')[1].split(",")[:-1]
        b = sweep_lines[2].split('",')[1].split(",")[:-1]
        assert a == b

    def test_each_distinct_cell_runs_once(self, tmp_path):
        # linucb does not accept eps, so both grid points give it the same
        # cells; listing it twice adds none either.
        out = tmp_path / "o"
        rc = cli_main(["sweep", "--policy", "linucb", "--policy", "eps-greedy",
                       "--policy", "linucb", "--grid", "eps=0.1,0.2",
                       "--T", "20", "--seeds", "0:2", "--out", str(out)] + SYN)
        assert rc == 0
        rows = json.loads(read(out / "sweep.json"))["rows"]
        assert [(r["policy"], r["params"], r["n_seeds"]) for r in rows] == [
            ("eps-greedy", "eps=0.1", 2), ("eps-greedy", "eps=0.2", 2),
            ("linucb", "default", 2)]
        best = json.loads(read(out / "best.json"))["rows"]
        assert [r["policy"] for r in best] == ["linucb", "eps-greedy"]
        assert len(list((out / "runs").glob("*.csv"))) == 6

    def test_trace_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "trace.ini"
        cfg.write_text("[experiment]\ntrace = true\n\n[policy:eps-greedy]\n")
        rc = cli_main(["sweep", "--config", str(cfg), "--grid", "eps=0.1,0.2",
                       "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert "sweep does not take trace" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_validation(self, tmp_path):
        rc = cli_main(["sweep", "--policy", "ucb", "--grid", "rho",
                       "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert not (tmp_path / "o").exists()


class TestBound:
    def test_curve_rows_and_b_scaling(self, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        base = ["bound", "--T", "30", "--d", "2", "--sigma", "0.5"]
        assert cli_main(base + ["--b", "1.0", "--out", str(out1)]) == 0
        assert cli_main(base + ["--b", "2.0", "--out", str(out2)]) == 0
        lines1 = read(out1 / "bound.csv").splitlines()
        lines2 = read(out2 / "bound.csv").splitlines()
        assert lines1[0] == "round,regret_bound"
        assert len(lines1) == 31
        assert lines1[1].split(",")[0] == "1"
        for l1, l2 in zip(lines1[1:], lines2[1:]):
            assert float(l2.split(",")[1]) == 2.0 * float(l1.split(",")[1])

    def test_defaults_are_the_diagnostics_defaults(self, tmp_path):
        # The flags are built from DiagnosticsParams, defaults included.
        assert cli_main(["bound", "--T", "50", "--out", str(tmp_path)]) == 0
        curve = regret_bound_curve(DiagnosticsParams(), 50)
        assert read(tmp_path / "bound.csv") == "round,regret_bound\n" + "".join(
            f"{t + 1},{fmt(curve[t])}\n" for t in range(50))

    def test_rejects_a_horizon_below_one_by_its_flag(self, tmp_path, capsys):
        rc = cli_main(["bound", "--T", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "T must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejects_bad_delta(self, tmp_path):
        rc = cli_main(["bound", "--delta", "2.0", "--T", "5",
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--sigma", "--delta", "--B", "--W", "--b",
                                      "--u-sq-sum"])
    def test_rejects_non_finite_inputs(self, tmp_path, capsys, flag, value):
        rc = cli_main(["bound", f"{flag}={value}", "--T", "5",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {name} ")
        assert not (tmp_path / "o").exists()


class TestErrorPaths:
    def test_unknown_policy(self, tmp_path):
        rc = cli_main(["run", "--policy", "nope", "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_classification_requires_data(self, tmp_path):
        rc = cli_main(["run", "--env", "classification", "--policy",
                       "eps-greedy", "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_dataset_path(self, tmp_path):
        rc = cli_main(["run", "--env", "news", "--data",
                       str(tmp_path / "absent.csv"), "--policy", "random",
                       "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_run_wants_one_seed(self, tmp_path):
        rc = cli_main(["run", "--policy", "random", "--T", "10",
                       "--seeds", "0:3", "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2

    def test_no_policy_given(self, tmp_path):
        rc = cli_main(["run", "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2

    def test_bad_policy_param_value(self, tmp_path):
        rc = cli_main(["run", "--policy", "lnucb-ta", "--param", "kappa=3.0",
                       "--T", "10", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert not (tmp_path / "o").exists()

    def test_misspelled_param_in_policy_section(self, tmp_path, capsys):
        cfg = tmp_path / "typo.ini"
        cfg.write_text("[policy:linucb]\nalph = 0.5\n")
        rc = cli_main(["run", "--config", str(cfg), "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert "'alph'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--policy", "linucb", "--param", "alpah=0.1"],
        ["sweep", "--policy", "linucb", "--grid", "alpah=0.1,0.5"],
        ["compare", "--policy", "linucb", "--policy", "ucb",
         "--param", "alpah=0.1"],
    ])
    def test_param_no_selected_policy_accepts(self, tmp_path, capsys, argv):
        rc = cli_main(argv + ["--T", "5", "--seeds", "0",
                              "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert "alpah" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_shared_param_goes_only_to_policies_accepting_it(self, tmp_path):
        out = tmp_path / "o"
        rc = cli_main(["compare", "--policy", "linucb", "--policy",
                       "eps-greedy", "--param", "eps=0.2", "--T", "10",
                       "--seeds", "0", "--out", str(out)] + SYN)
        assert rc == 0
        assert sorted(p.name for p in (out / "runs").glob("*.csv")) == [
            "eps-greedy__eps=0.2__s0.csv", "linucb__default__s0.csv"]

    def test_replay_without_matches(self, tmp_path, capsys):
        # Every logged row shows arm id 10; ucb's first pick is arm id 1.
        data = tmp_path / "news.csv"
        data.write_text("".join("10,1," + ",".join(["0.1"] * 100) + "\n"
                                for _ in range(5)))
        rc = cli_main(["run", "--env", "news", "--data", str(data),
                       "--policy", "ucb", "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "no rounds executed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("T = abc", "T must be a number, got 'abc'"),
        ("T = 7.9", "T must be an integer, got 7.9"),
        ("d = 2.5", "d must be an integer, got 2.5"),
        ("jobs = many", "jobs must be a number"),
        ("noise_sigma = fast", "noise_sigma must be a number"),
        ("has_header = maybe", "has_header must be true or false"),
        ("trace = 1", "trace must be true or false"),
    ])
    def test_bad_config_value_names_the_option(self, tmp_path, capsys, line,
                                               message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[experiment]\n{line}\n\n[policy:random]\n")
        rc = cli_main(["run", "--config", str(cfg), "--seeds", "0",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pid, param", [
        ("knn-ucb", "theta_max=2.5"),
        ("lnucb-ta", "theta_max=3.7"),
        ("lnucb-ta", "theta_min=true"),
        ("knn-kl-ucb", "theta_min=1.5"),
        ("lin-knn-ucb", "store_capacity=2.5"),
        ("enhanced-eps-greedy", "store_capacity=false"),
    ])
    def test_integer_policy_params_must_be_integral(self, tmp_path, capsys,
                                                    pid, param):
        rc = cli_main(["run", "--policy", pid, "--param", param, "--T", "5",
                       "--seeds", "0", "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        name = param.split("=")[0]
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pid, param, message", [
        ("lnucb-ta", "lam=abc", "lam must be a number, got 'abc'"),
        ("knn-ucb", "rho=abc", "rho must be a number, got 'abc'"),
        ("linucb", "alpha=abc", "alpha must be a number, got 'abc'"),
        ("lnucb-ta", "theta_min=abc", "theta_min must be an integer, got 'abc'"),
        ("knn-ucb", "variance_scale=abc", "variance_scale must be a number"),
        ("linthompson", "lam=abc", "lam must be a number, got 'abc'"),
        ("beta-thompson", "prior_a=abc", "prior_a must be a number"),
    ])
    def test_non_numeric_policy_params_name_the_parameter(self, tmp_path,
                                                          capsys, pid, param,
                                                          message):
        rc = cli_main(["run", "--policy", pid, "--param", param, "--T", "5",
                       "--seeds", "0", "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pid, param, message", [
        ("beta-thompson", "prior_a=nan", "prior_a must be positive and finite"),
        ("beta-thompson", "prior_b=inf", "prior_b must be positive and finite"),
        ("enhanced-beta-thompson", "prior_a=nan",
         "prior_a must be positive and finite"),
        ("enhanced-eps-greedy", "tie_break=bogus", "unknown tie_break 'bogus'"),
        ("lnucb-ta", "use_knn=abc", "use_knn must be true or false, got 'abc'"),
        ("lnucb-ta", "use_attention=nope",
         "use_attention must be true or false, got 'nope'"),
        ("lnucb-ta", "floor_alpha_at_zero=2",
         "floor_alpha_at_zero must be true or false, got 2"),
        ("lnucb-ta", "adaptive_k=false",
         "no selected policy accepts --param adaptive_k"),
        ("linucb", "alpha=-1", "alpha must be >= 0"),
        ("lin-knn-ucb", "alpha=nan", "alpha must be >= 0"),
        ("knn-ucb", f"theta_max={2 ** 53 + 1}", "theta_max <= 2**53"),
        ("lnucb-ta", f"theta_max={2 ** 63}", "theta_max <= 2**53"),
    ])
    def test_bad_policy_param_values_exit_2(self, tmp_path, capsys, pid, param,
                                           message):
        rc = cli_main(["run", "--policy", pid, "--param", param, "--T", "50",
                       "--seeds", "0", "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--radius", "nan"], "radius must be positive and finite"),
        (["--radius", "-1"], "radius must be positive and finite"),
        (["--radius", "0"], "radius must be positive and finite"),
        (["--env-seed", "-1"], "env_seed must be >= 0"),
        (["--env", "classification", "--shuffle-seed", "-1"],
         "shuffle_seed must be >= 0"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--jobs", "-3"], "jobs must be >= 1"),
    ], ids=["radius-nan", "radius-negative", "radius-zero", "env-seed",
            "shuffle-seed", "jobs-zero", "jobs-negative"])
    def test_bad_env_flags_name_the_flag(self, tmp_path, capsys, flags,
                                         message):
        env = (["--data", str(make_classification_csv(tmp_path))]
               if "classification" in flags else SYN)
        rc = cli_main(["run", "--policy", "random", "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + env + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("env, option, where", [
        ("synthetic", ["--shuffle-seed", "-1"], "flag"),
        ("synthetic", ["--label-column", "99"], "flag"),
        ("synthetic", ["--data", "x.csv"], "flag"),
        ("synthetic", ["--has-header"], "config"),
        ("classification", ["--radius", "nan"], "flag"),
        ("classification", ["--env-seed", "3"], "config"),
        ("news", ["--d", "4"], "flag"),
        ("news", ["--shuffle-seed", "2"], "config"),
    ])
    def test_env_option_of_another_kind_exits_2(self, tmp_path, capsys, env,
                                                option, where):
        name = option[0][2:].replace("-", "_")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[experiment]\n{name} = {(option + ['true'])[1]}\n"
                       if where == "config" else "")
        data = make_news_csv(tmp_path) if env == "news" else \
            make_classification_csv(tmp_path)
        rc = cli_main(["run", "--config", str(cfg), "--env", env, "--policy",
                       "random", "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")]
                      + (["--data", str(data)] if env != "synthetic" else [])
                      + (option if where == "flag" else []))
        assert rc == 2
        assert (f"the {env} env does not read {name} (--{name.replace('_', '-')})"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("step", PARSE_STEPS, ids=PARSE_IDS)
    @pytest.mark.parametrize("env", ["classification", "news"])
    @pytest.mark.parametrize("bad, message", [
        (b"1," * 101 + b"2" * 200_000, "row 2: field larger than field limit"),
        (b"1,0,\xff", "byte 408: not UTF-8"),
    ], ids=["overlong-cell", "not-utf8"])
    def test_malformed_dataset_exits_2(self, tmp_path, capsys, env, bad,
                                       message, step):
        # The first row, 404 bytes, reads as news and as classification.
        data = tmp_path / "bad.csv"
        data.write_bytes(b"1,0," + b",".join([b"0.5"] * 100) + b"\n" + bad
                         + b"\n")
        with compiled_step(step):
            rc = cli_main(["run", "--env", env, "--data", str(data), "--policy",
                           "random", "--T", "5", "--seeds", "0",
                           "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pid", ["knn-ucb", "lnucb-ta"])
    def test_integral_float_policy_params_are_integers(self, tmp_path, pid):
        outs = []
        for value in ("3", "3.0"):
            out = tmp_path / value
            assert cli_main(["run", "--policy", pid, "--param",
                             f"theta_max={value}", "--param",
                             f"store_capacity={value}", "--T", "40",
                             "--seeds", "0", "--out", str(out)] + SYN) == 0
            outs.append(read(out / "result.csv"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_bad_seeds_name_the_option(self, tmp_path, capsys, where):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[experiment]\nseeds = a\n" if where == "config" else "")
        argv = ["run", "--config", str(cfg), "--policy", "random", "--T", "5",
                "--out", str(tmp_path / "o")] + SYN
        rc = cli_main(argv + (["--seeds", "a"] if where == "flag" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert "seeds 'a'" in err and "1,2,5" in err and "0:20" in err
        assert not (tmp_path / "o").exists()

    def test_integral_config_values_convert(self, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[experiment]\nT = 12.0\nd = 4.0\narms = 3\n"
                       "noise_sigma = 1\n\n[policy:random]\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(cfg), "--seeds", "0",
                         "--out", str(out)]) == 0
        payload = json.loads(read(out / "result.json"))
        assert payload["summary"]["horizon"] == 12
        assert payload["config_echo"]["T"] == 12
        assert payload["env"]["dim"] == 4

    @pytest.mark.parametrize("formats", ["xml", "csv,xml", "csv,"])
    def test_unknown_format(self, tmp_path, capsys, formats):
        rc = cli_main(["run", "--policy", "random", "--T", "5", "--seeds", "0",
                       "--format", formats, "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown format" in err and "csv, json" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pid", ["LinUCB", "LNUCB-TA", "linucb "])
    def test_policy_ids_are_exact_everywhere(self, tmp_path, capsys, pid):
        rc = cli_main(["run", "--policy", pid, "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2
        assert "valid ids: " in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown policy id .*valid ids: "):
            make_policy(pid, 3, 4)

    def test_unknown_experiment_option_in_config(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nwarp = 9\n\n[policy:random]\n")
        rc = cli_main(["run", "--config", str(cfg), "--T", "5", "--seeds", "0",
                       "--out", str(tmp_path / "o")] + SYN)
        assert rc == 2


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "banditlab.cli", "bound", "--T", "5",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "bound.csv").exists()


def test_results_do_not_depend_on_blas_thread_count(tmp_path):
    # At d=40 the per-arm k-NN matvecs reach about 1,000 x 40, large enough
    # for a threaded BLAS to split them.
    argv = [sys.executable, "-m", "banditlab.cli", "compare",
            "--policy", "lnucb-ta", "--policy", "knn-ucb", "--policy", "linucb",
            "--param", "gamma_cov=0.05", "--T", "1500", "--seeds", "0",
            "--d", "40", "--arms", "3"]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            argv + ["--out", str(out)], capture_output=True, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs[threads] = {p.name: p.read_bytes()
                         for p in (out / "runs").glob("*.csv")}
    assert len(runs["1"]) == 3
    assert runs["1"] == runs["2"]
