"""Command-line harness: run / compare / sweep / bound with bit-stable outputs."""
from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .env import DataError
from .metrics import (AggregateResult, DiagnosticsParams, aggregate,
                      regret_bound_curve)
from .policies import POLICY_PARAM_KEYS
from .runner import Cell, EnvSpec, build_env, execute_cells, run_cell

RESULT_COLUMNS = ["round", "cumulative_reward", "mean_reward", "cumulative_regret"]
TRACE_COLUMNS = ["linear", "knn", "alpha", "width", "ucb"]
AGGREGATE_COLUMNS = [
    "policy", "params", "final_cum_reward_mean", "final_cum_reward_std",
    "final_mean_reward_mean", "final_mean_reward_std", "final_regret_mean",
    "final_regret_std", "runtime_s_mean",
]


class CliError(Exception):
    """User-facing configuration or data problem; exits with status 2."""


def fmt(v) -> str:
    """Shortest round-trip decimal for a float; plain text otherwise."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def atomic_write_text(path: str, text: str) -> None:
    """Write-then-rename so no partial file is ever observable."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def coerce_value(raw: str):
    """Parse a config/flag string into bool, int, float, None, or str."""
    s = raw.strip()
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    if low in ("none", "null", ""):
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_seeds(raw: str) -> List[int]:
    """Accept "7", "1,2,5", or "0:20" (half-open range)."""
    s = raw.strip()
    if ":" in s:
        lo, hi = s.split(":", 1)
        out = list(range(int(lo), int(hi)))
    else:
        out = [int(p) for p in s.split(",") if p.strip() != ""]
    if not out:
        raise CliError(f"no seeds in {raw!r}")
    if any(x < 0 for x in out):
        raise CliError("seeds must be nonnegative")
    return out


def parse_grid(items: Sequence[str]) -> Dict[str, list]:
    grid: Dict[str, list] = {}
    for item in items:
        if "=" not in item:
            raise CliError(f"grid entry {item!r} must look like name=v1,v2")
        name, vals = item.split("=", 1)
        values = [coerce_value(v) for v in vals.split(",") if v.strip() != ""]
        if not values:
            raise CliError(f"grid entry {item!r} has no values")
        grid[name.strip()] = values
    if not grid:
        raise CliError("empty parameter grid")
    return grid


def _dataset_fingerprint(spec: EnvSpec) -> str:
    if spec.path:
        h = hashlib.sha256()
        with open(spec.path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()
    meta = json.dumps(sorted(spec.__dict__.items()), default=str)
    return hashlib.sha256(meta.encode()).hexdigest()


def result_csv_text(result, trace_rows=None) -> str:
    cols = list(RESULT_COLUMNS)
    has_regret = result.cumulative_regret is not None
    if not has_regret:
        cols.remove("cumulative_regret")
    if trace_rows is not None:
        cols += TRACE_COLUMNS
    lines = [",".join(cols)]
    for t in range(result.horizon):
        row = [str(t), fmt(result.cumulative_reward[t]), fmt(result.mean_reward[t])]
        if has_regret:
            row.append(fmt(result.cumulative_regret[t]))
        if trace_rows is not None:
            tr = trace_rows[t]
            row += [fmt(tr.linear), fmt(tr.knn), fmt(tr.alpha), fmt(tr.width),
                    fmt(tr.ucb)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def result_json_text(result, spec_echo: dict, env_meta: dict,
                     fingerprint: str) -> str:
    payload = {
        "version": __version__,
        "policy": result.policy_id,
        "params": result.params,
        "seed": result.seed,
        "env": env_meta,
        "dataset_fingerprint": fingerprint,
        "config_echo": spec_echo,
        "summary": {
            "horizon": result.horizon,
            "matched_steps": result.matched_steps,
            "final_cumulative_reward": result.final_cumulative_reward(),
            "final_mean_reward": result.final_mean_reward(),
            "final_regret": (result.final_regret()
                             if result.cumulative_regret is not None else None),
            "runtime_s": result.runtime_s,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def aggregate_csv_text(agg: AggregateResult) -> str:
    lines = [",".join(AGGREGATE_COLUMNS)]
    for r in agg.rows:
        lines.append(",".join([
            r.policy, f"\"{r.params}\"",
            fmt(r.final_cum_reward_mean), fmt(r.final_cum_reward_std),
            fmt(r.final_mean_reward_mean), fmt(r.final_mean_reward_std),
            fmt(r.final_regret_mean), fmt(r.final_regret_std),
            fmt(r.runtime_s_mean),
        ]))
    return "\n".join(lines) + "\n"


def aggregate_json_text(agg: AggregateResult, spec_echo: dict, env_meta: dict,
                        fingerprint: str) -> str:
    payload = {
        "version": __version__,
        "env": env_meta,
        "dataset_fingerprint": fingerprint,
        "config_echo": spec_echo,
        "rows": [r.__dict__ for r in agg.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _filter_params(policy_id: str, params: Dict) -> Dict:
    allowed = POLICY_PARAM_KEYS.get(policy_id)
    if allowed is None:
        raise CliError(f"unknown policy id {policy_id!r}")
    return {k: v for k, v in params.items() if k in allowed}


def _reject_unaccepted(names, policies: List[tuple], flag: str) -> None:
    """Reject shared parameter names that none of the policies accepts.

    Each policy gets only the shared names it accepts, so a name no policy
    accepts (a misspelling) would otherwise be dropped without a word.
    """
    accepted = set().union(*(POLICY_PARAM_KEYS[pid] for pid, _ in policies))
    unknown = sorted(set(names) - accepted)
    if unknown:
        raise CliError(f"no selected policy accepts {flag} {', '.join(unknown)}")


def _read_config(path: Optional[str]):
    cp = configparser.ConfigParser()
    # Keep option case as written; the default folds "T" into "t".
    cp.optionxform = str
    if path:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        cp.read(path)
    return cp


def _build_env_spec(opts: Dict) -> EnvSpec:
    kind = opts.get("env", "synthetic")
    path = opts.get("data")
    if kind in ("classification", "news"):
        if not path:
            raise CliError(f"{kind} env requires --data")
        if not os.path.exists(path):
            raise CliError(f"dataset path not found: {path}")
    return EnvSpec(
        kind=kind, path=path,
        label_column=int(opts.get("label_column", -1)),
        has_header=bool(opts.get("has_header", False)),
        shuffle_seed=int(opts.get("shuffle_seed", 0)),
        env_seed=int(opts.get("env_seed", 0)),
        d=int(opts.get("d", 10)),
        n_arms=int(opts.get("arms", 5)),
        bump_count=int(opts.get("bumps", 3)),
        noise_sigma=float(opts.get("noise_sigma", 0.05)),
        radius=float(opts.get("radius", 0.7)),
    )


_EXPERIMENT_KEYS = ("env", "data", "T", "seeds", "jobs", "out", "format",
                    "trace", "label_column", "has_header", "shuffle_seed",
                    "env_seed", "d", "arms", "bumps", "noise_sigma", "radius")


def _collect_options(args, cp) -> Dict:
    """Merge config-file [experiment] options with CLI flags; flags win."""
    opts: Dict = {}
    if cp.has_section("experiment"):
        for k, v in cp.items("experiment"):
            if k not in _EXPERIMENT_KEYS:
                raise CliError(f"unknown experiment option {k!r}")
            opts[k] = coerce_value(v)
    for k in _EXPERIMENT_KEYS:
        v = getattr(args, k, None)
        if v is not None:
            opts[k] = v
    return opts


def _collect_policies(args, cp) -> List[tuple]:
    """Policy list as (id, params) from config sections plus --policy flags."""
    shared: Dict = {}
    for item in args.param or []:
        if "=" not in item:
            raise CliError(f"--param {item!r} must look like name=value")
        k, v = item.split("=", 1)
        shared[k.strip()] = coerce_value(v)
    policies: List[tuple] = []
    for section in cp.sections():
        if not section.startswith("policy:"):
            continue
        pid = section[len("policy:"):].strip()
        params = {k: coerce_value(v) for k, v in cp.items(section)}
        unknown = sorted(set(params) - set(_filter_params(pid, params)))
        if unknown:
            raise CliError(f"[{section}]: unknown {pid} parameters: {unknown}")
        params.update(_filter_params(pid, shared))
        policies.append((pid, params))
    for pid in args.policy or []:
        policies.append((pid, _filter_params(pid, shared)))
    if not policies:
        raise CliError("no policy given (use --policy or a [policy:*] section)")
    _reject_unaccepted(shared, policies, "--param")
    return policies


def _spec_echo(opts: Dict, policies: List[tuple], seeds: List[int],
               T: int) -> dict:
    return {
        "options": {k: opts.get(k) for k in sorted(opts)},
        "policies": [{"id": pid, "params": dict(sorted(params.items()))}
                     for pid, params in policies],
        "seeds": seeds,
        "T": T,
    }


def _run_slug(cell: Cell) -> str:
    return f"{cell.policy_id}__{cell.slug}__s{cell.seed}"


def cmd_run(args) -> int:
    cp = _read_config(args.config)
    opts = _collect_options(args, cp)
    policies = _collect_policies(args, cp)
    if len(policies) != 1:
        raise CliError("run takes exactly one policy")
    seeds = parse_seeds(str(opts.get("seeds", "0")))
    if len(seeds) != 1:
        raise CliError("run takes exactly one seed")
    T = int(opts.get("T", 1000))
    out = opts.get("out") or "results"
    formats = str(opts.get("format", "csv,json")).split(",")
    trace = bool(opts.get("trace", False))
    env_spec = _build_env_spec(opts)
    pid, params = policies[0]
    cell = Cell.make(pid, params, T, seeds[0])
    result, trace_rows = run_cell(env_spec, cell, trace=trace)
    env_meta = build_env(env_spec).metadata()
    echo = _spec_echo(opts, policies, seeds, T)
    fingerprint = _dataset_fingerprint(env_spec)
    if "csv" in formats:
        atomic_write_text(os.path.join(out, "result.csv"),
                          result_csv_text(result, trace_rows if trace else None))
    if "json" in formats:
        atomic_write_text(os.path.join(out, "result.json"),
                          result_json_text(result, echo, env_meta, fingerprint))
    return 0


def _emit_run_artifacts(out: str, formats: Sequence[str], pairs, echo, env_meta,
                        fingerprint) -> None:
    for cell, result in pairs:
        slug = _run_slug(cell)
        if "csv" in formats:
            atomic_write_text(os.path.join(out, "runs", slug + ".csv"),
                              result_csv_text(result))
        if "json" in formats:
            atomic_write_text(os.path.join(out, "runs", slug + ".json"),
                              result_json_text(result, echo, env_meta,
                                               fingerprint))


def cmd_compare(args) -> int:
    cp = _read_config(args.config)
    opts = _collect_options(args, cp)
    policies = _collect_policies(args, cp)
    seeds = parse_seeds(str(opts.get("seeds", "0")))
    if len(policies) < 2 and len(seeds) < 2:
        raise CliError("compare needs >= 2 policies or >= 2 seeds")
    T = int(opts.get("T", 1000))
    jobs = int(opts.get("jobs", 1))
    out = opts.get("out") or "results"
    formats = str(opts.get("format", "csv,json")).split(",")
    env_spec = _build_env_spec(opts)
    cells = [Cell.make(pid, params, T, seed)
             for pid, params in policies for seed in seeds]
    pairs = execute_cells(env_spec, cells, jobs=jobs)
    agg = aggregate([r for _, r in pairs])
    env_meta = build_env(env_spec).metadata()
    echo = _spec_echo(opts, policies, seeds, T)
    fingerprint = _dataset_fingerprint(env_spec)
    if "csv" in formats:
        atomic_write_text(os.path.join(out, "aggregate.csv"),
                          aggregate_csv_text(agg))
    if "json" in formats:
        atomic_write_text(os.path.join(out, "aggregate.json"),
                          aggregate_json_text(agg, echo, env_meta, fingerprint))
    _emit_run_artifacts(out, formats, pairs, echo, env_meta, fingerprint)
    return 0


def _grid_points(grid: Dict[str, list]) -> List[Dict]:
    names = sorted(grid)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(grid[n] for n in names))]


def cmd_sweep(args) -> int:
    cp = _read_config(args.config)
    opts = _collect_options(args, cp)
    policies = _collect_policies(args, cp)
    grid_items = list(args.grid or [])
    if cp.has_section("sweep"):
        grid_items = [f"{k}={v}" for k, v in cp.items("sweep")] + grid_items
    grid = parse_grid(grid_items)
    _reject_unaccepted(grid, policies, "--grid")
    seeds = parse_seeds(str(opts.get("seeds", "0")))
    T = int(opts.get("T", 1000))
    jobs = int(opts.get("jobs", 1))
    out = opts.get("out") or "results"
    formats = str(opts.get("format", "csv,json")).split(",")
    env_spec = _build_env_spec(opts)
    points = _grid_points(grid)
    cells = []
    for pid, params in policies:
        for point in points:
            merged = {**params, **_filter_params(pid, point)}
            for seed in seeds:
                cells.append(Cell.make(pid, merged, T, seed))
    pairs = execute_cells(env_spec, cells, jobs=jobs)
    agg = aggregate([r for _, r in pairs])
    env_meta = build_env(env_spec).metadata()
    echo = _spec_echo(opts, policies, seeds, T)
    echo["grid"] = {k: grid[k] for k in sorted(grid)}
    fingerprint = _dataset_fingerprint(env_spec)
    # Best grid point per policy: highest mean final reward, ties to the
    # smaller parameter values.
    best_rows = []
    for pid, _ in policies:
        rows = [r for r in agg.rows if r.policy == pid]
        if not rows:
            continue
        rows.sort(key=lambda r: (-r.final_mean_reward_mean, r.params))
        best_rows.append(rows[0])
    best = AggregateResult(rows=best_rows)
    if "csv" in formats:
        atomic_write_text(os.path.join(out, "sweep.csv"), aggregate_csv_text(agg))
        atomic_write_text(os.path.join(out, "best.csv"), aggregate_csv_text(best))
    if "json" in formats:
        atomic_write_text(os.path.join(out, "sweep.json"),
                          aggregate_json_text(agg, echo, env_meta, fingerprint))
        atomic_write_text(os.path.join(out, "best.json"),
                          aggregate_json_text(best, echo, env_meta, fingerprint))
    _emit_run_artifacts(out, formats, pairs, echo, env_meta, fingerprint)
    return 0


def cmd_bound(args) -> int:
    params = DiagnosticsParams(sigma=args.sigma, delta=args.delta, B=args.B,
                               W=args.W, d=args.d, b=args.b,
                               u_sq_sum=args.u_sq_sum)
    horizon = args.T if args.T is not None else 10000
    curve = regret_bound_curve(params, horizon)
    out = args.out or "results"
    lines = ["round,regret_bound"]
    lines += [f"{t + 1},{fmt(curve[t])}" for t in range(horizon)]
    atomic_write_text(os.path.join(out, "bound.csv"), "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit",
        description="Contextual bandit benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file; flags override it")
        p.add_argument("--env", choices=("synthetic", "classification", "news"))
        p.add_argument("--data", help="dataset path for classification/news")
        p.add_argument("--policy", action="append",
                       help="policy id (repeatable)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="policy parameter (repeatable)")
        p.add_argument("--T", type=int, help="horizon (rounds)")
        p.add_argument("--seeds", help='seed list "1,2,5" or range "0:20"')
        p.add_argument("--jobs", type=int, help="parallel worker count")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", help="output formats, e.g. csv,json")
        p.add_argument("--trace", action="store_const", const=True,
                       help="emit per-round score breakdown columns")
        p.add_argument("--env-seed", dest="env_seed", type=int)
        p.add_argument("--d", type=int, help="synthetic context dimension")
        p.add_argument("--arms", type=int, help="synthetic arm count")
        p.add_argument("--bumps", dest="bumps", type=int,
                       help="synthetic bump count per arm")
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
        p.add_argument("--radius", type=float, help="synthetic bump radius")
        p.add_argument("--label-column", dest="label_column", type=int)
        p.add_argument("--has-header", dest="has_header", action="store_const",
                       const=True)
        p.add_argument("--shuffle-seed", dest="shuffle_seed", type=int)

    p_run = sub.add_parser("run", help="one policy, one seed")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="aggregate policies across seeds")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="parameter grid search")
    add_common(p_sweep)
    p_sweep.add_argument("--grid", action="append", metavar="NAME=V1,V2",
                         help="grid values (repeatable)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bound = sub.add_parser("bound", help="theoretical regret bound curve")
    p_bound.add_argument("--sigma", type=float, default=1.0)
    p_bound.add_argument("--delta", type=float, default=0.1)
    p_bound.add_argument("--B", type=float, default=1.0)
    p_bound.add_argument("--W", type=float, default=1.0)
    p_bound.add_argument("--d", type=int, default=1)
    p_bound.add_argument("--b", type=float, default=1.0)
    p_bound.add_argument("--u-sq-sum", dest="u_sq_sum", type=float, default=0.0)
    p_bound.add_argument("--T", type=int, default=None)
    p_bound.add_argument("--out", default="results")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: path not found: {exc.filename}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
