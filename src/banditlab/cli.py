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
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .core import ScoreBreakdown, as_bool, as_int, as_real
from .metrics import (AggregateResult, AggregateRow, DiagnosticsParams,
                      RunResult, aggregate, regret_bound_curve)
from .policies import POLICY_PARAM_KEYS
from .runner import Cell, EnvSpec, build_env, execute_cells, run_cell

RESULT_COLUMNS = ["round", "cumulative_reward", "mean_reward", "cumulative_regret"]
TRACE_COLUMNS = [f.name for f in fields(ScoreBreakdown)]
AGGREGATE_COLUMNS = [f.name for f in fields(AggregateRow) if f.name != "n_seeds"]
FORMATS = ("csv", "json")
# Parser destinations that are not [experiment] options.
_NOT_OPTIONS = ("command", "func", "config", "policy", "param", "grid")
# EnvSpec fields whose option has another name.
_ENV_OPTIONS = {"kind": "env", "path": "data", "n_arms": "arms",
                "bump_count": "bumps"}


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
    for parse in (int, float):
        try:
            return parse(s)
        except ValueError:
            pass
    return s


def parse_seeds(raw: str) -> List[int]:
    """Accept "7", "1,2,5", or "0:20" (half-open range)."""
    s = raw.strip()
    try:
        if ":" in s:
            lo, hi = s.split(":", 1)
            out = list(range(int(lo), int(hi)))
        else:
            out = [int(p) for p in s.split(",") if p.strip() != ""]
    except ValueError:
        raise CliError(f"seeds {raw!r}: use 7, 1,2,5 or 0:20 (half-open)") from None
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
            row += [fmt(getattr(trace_rows[t], c)) for c in TRACE_COLUMNS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json_text(spec_echo: dict, env_meta: dict, fingerprint: str,
               **body) -> str:
    """The JSON every output shares (version, env, fingerprint, echo) plus body."""
    payload = {
        "version": __version__,
        "env": env_meta,
        "dataset_fingerprint": fingerprint,
        "config_echo": spec_echo,
        **body,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def result_json_text(result, spec_echo: dict, env_meta: dict,
                     fingerprint: str) -> str:
    return _json_text(spec_echo, env_meta, fingerprint,
                      policy=result.policy_id, params=result.params,
                      seed=result.seed, summary={
        "horizon": result.horizon,
        "matched_steps": result.matched_steps,
        "final_cumulative_reward": result.final_cumulative_reward(),
        "final_mean_reward": result.final_mean_reward(),
        "final_regret": (result.final_regret()
                         if result.cumulative_regret is not None else None),
        "runtime_s": result.runtime_s,
    })


def aggregate_csv_text(agg: AggregateResult) -> str:
    lines = [",".join(AGGREGATE_COLUMNS)]
    for r in agg.rows:
        lines.append(",".join([r.policy, f"\"{r.params}\""] + [
            fmt(getattr(r, c)) for c in AGGREGATE_COLUMNS[2:]]))
    return "\n".join(lines) + "\n"


def aggregate_json_text(agg: AggregateResult, spec_echo: dict, env_meta: dict,
                        fingerprint: str) -> str:
    return _json_text(spec_echo, env_meta, fingerprint,
                      rows=[r.__dict__ for r in agg.rows])


def _filter_params(policy_id: str, params: Dict) -> Dict:
    allowed = POLICY_PARAM_KEYS.get(policy_id)
    if allowed is None:
        raise CliError(f"unknown policy id {policy_id!r}; valid ids: "
                       f"{', '.join(POLICY_PARAM_KEYS)}")
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


def _typed(opts: Dict, name: str, default):
    """Option ``name`` (``default`` when not given) as the type of ``default``.

    Config-file values arrive as coerce_value parsed them, so a non-number,
    a non-integral value for an int or a non-bool for a bool is rejected
    with an error naming the option instead of being coerced.
    """
    value = opts.get(name, default)
    if isinstance(default, bool):
        return as_bool(value, name)
    if isinstance(default, (int, float)):
        value = as_real(value, name)
        return as_int(value, name) if isinstance(default, int) else value
    return None if value is None else str(value)


def _build_env_spec(opts: Dict) -> EnvSpec:
    """EnvSpec from the options; a field not given keeps EnvSpec's default,
    and an option the env kind does not read is rejected by name."""
    defaults = EnvSpec(kind="synthetic")
    spec = EnvSpec(**{f.name: _typed(opts, _ENV_OPTIONS.get(f.name, f.name),
                                     getattr(defaults, f.name))
                      for f in fields(EnvSpec)})
    given = [name for f in fields(EnvSpec)
             if f.name not in ("kind", *EnvSpec.READS.get(spec.kind, ()))
             and (name := _ENV_OPTIONS.get(f.name, f.name)) in opts]
    if spec.kind in EnvSpec.READS and given:
        raise CliError(f"the {spec.kind} env does not read " + ", ".join(
            f"{name} (--{name.replace('_', '-')})" for name in given))
    if spec.kind in ("classification", "news"):
        if not spec.path:
            raise CliError(f"{spec.kind} env requires --data")
        if not os.path.exists(spec.path):
            raise CliError(f"dataset path not found: {spec.path}")
    return spec


def _collect_options(args, cp) -> Dict:
    """Merge config-file [experiment] options with CLI flags; flags win.

    The options are the parser's destinations other than _NOT_OPTIONS.
    """
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    opts: Dict = {}
    if cp.has_section("experiment"):
        for k, v in cp.items("experiment"):
            if k not in flags:
                raise CliError(f"unknown experiment option {k!r}")
            opts[k] = coerce_value(v)
    opts.update((k, v) for k, v in flags.items() if v is not None)
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


class Experiment:
    """What run, compare and sweep share, from the config file plus flags."""

    def __init__(self, args):
        self.config = _read_config(args.config)
        opts = _collect_options(args, self.config)
        self.policies = _collect_policies(args, self.config)
        self.seeds = parse_seeds(str(opts.get("seeds", "0")))
        self.T = _typed(opts, "T", 1000)
        self.jobs = as_int(_typed(opts, "jobs", 1), "jobs", 1)
        self.trace = _typed(opts, "trace", False)
        if self.trace and args.command != "run":
            raise CliError(f"{args.command} does not take trace (--trace or "
                           f"trace = true); only run writes trace columns")
        self.out = opts.get("out") or "results"
        self.formats = str(opts.get("format", "csv,json")).split(",")
        unknown = [f for f in self.formats if f not in FORMATS]
        if unknown:
            raise CliError(f"unknown format {', '.join(map(repr, unknown))}; "
                           f"formats are {', '.join(FORMATS)}")
        self.spec = _build_env_spec(opts)
        self.echo = {
            "options": {k: opts[k] for k in sorted(opts)},
            "policies": [{"id": pid, "params": dict(sorted(params.items()))}
                         for pid, params in self.policies],
            "seeds": self.seeds,
            "T": self.T,
        }

    def execute(self, points: Sequence[Dict] = ({},)):
        """Run each distinct (policy, params, seed) once, a policy taking each
        grid point restricted to the keys it accepts; returns the aggregate
        and the per-run outputs."""
        cells = dict.fromkeys(
            Cell.make(pid, {**params, **_filter_params(pid, point)}, self.T,
                      seed)
            for pid, params in self.policies for point in points
            for seed in self.seeds)
        pairs = execute_cells(self.spec, list(cells), jobs=self.jobs)
        runs = {os.path.join("runs", f"{c.policy_id}__{c.slug}__s{c.seed}"): r
                for c, r in pairs}
        return aggregate([r for _, r in pairs]), runs

    def write(self, outputs: Dict[str, object], trace_rows=None) -> None:
        """Write <stem>.csv and/or <stem>.json under out for each RunResult or
        AggregateResult; ``trace_rows`` go with run's one result."""
        env_meta = build_env(self.spec).metadata()
        fingerprint = _dataset_fingerprint(self.spec)
        for stem, result in outputs.items():
            path = os.path.join(self.out, stem)
            run = isinstance(result, RunResult)
            if "csv" in self.formats:
                atomic_write_text(path + ".csv",
                                  result_csv_text(result, trace_rows) if run
                                  else aggregate_csv_text(result))
            if "json" in self.formats:
                to_json = result_json_text if run else aggregate_json_text
                atomic_write_text(path + ".json", to_json(
                    result, self.echo, env_meta, fingerprint))


def cmd_run(args) -> int:
    ex = Experiment(args)
    if len(ex.policies) != 1:
        raise CliError("run takes exactly one policy")
    if len(ex.seeds) != 1:
        raise CliError("run takes exactly one seed")
    pid, params = ex.policies[0]
    cell = Cell.make(pid, params, ex.T, ex.seeds[0])
    result, trace_rows = run_cell(ex.spec, cell, trace=ex.trace)
    ex.write({"result": result}, trace_rows)
    return 0


def cmd_compare(args) -> int:
    ex = Experiment(args)
    if len(ex.policies) < 2 and len(ex.seeds) < 2:
        raise CliError("compare needs >= 2 policies or >= 2 seeds")
    agg, runs = ex.execute()
    ex.write({"aggregate": agg, **runs})
    return 0


def cmd_sweep(args) -> int:
    ex = Experiment(args)
    grid_items = list(args.grid or [])
    if ex.config.has_section("sweep"):
        grid_items = [f"{k}={v}" for k, v in ex.config.items("sweep")] + grid_items
    grid = parse_grid(grid_items)
    _reject_unaccepted(grid, ex.policies, "--grid")
    names = sorted(grid)
    ex.echo["grid"] = {k: grid[k] for k in names}
    agg, runs = ex.execute([dict(zip(names, combo)) for combo in
                            itertools.product(*(grid[n] for n in names))])
    # Best grid point per policy: highest mean final reward, ties to the
    # smaller parameter values.
    best = AggregateResult(rows=[
        min((r for r in agg.rows if r.policy == pid),
            key=lambda r: (-r.final_mean_reward_mean, r.params))
        for pid in dict.fromkeys(pid for pid, _ in ex.policies)])
    ex.write({"sweep": agg, "best": best, **runs})
    return 0


def cmd_bound(args) -> int:
    params = DiagnosticsParams(**{f.name: getattr(args, f.name)
                                  for f in fields(DiagnosticsParams)})
    curve = regret_bound_curve(params, as_int(args.T, "T", 1))
    lines = ["round,regret_bound"] + [f"{t + 1},{fmt(v)}" for t, v in enumerate(curve)]
    atomic_write_text(os.path.join(args.out, "bound.csv"),
                      "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit",
        description="Contextual bandit benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (("run", cmd_run, "one policy, one seed"),
                             ("compare", cmd_compare,
                              "aggregate policies across seeds"),
                             ("sweep", cmd_sweep, "parameter grid search")):
        p = sub.add_parser(name, help=text)
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
                       help="emit per-round score breakdown columns (run only)")
        p.add_argument("--env-seed", type=int)
        p.add_argument("--d", type=int, help="synthetic context dimension")
        p.add_argument("--arms", type=int, help="synthetic arm count")
        p.add_argument("--bumps", type=int, help="synthetic bump count per arm")
        p.add_argument("--noise-sigma", type=float)
        p.add_argument("--radius", type=float, help="synthetic bump radius")
        p.add_argument("--label-column", type=int)
        p.add_argument("--has-header", action="store_const", const=True)
        p.add_argument("--shuffle-seed", type=int)
        p.set_defaults(func=func)
        if name == "sweep":
            p.add_argument("--grid", action="append", metavar="NAME=V1,V2",
                           help="grid values (repeatable)")

    p_bound = sub.add_parser("bound", help="theoretical regret bound curve")
    for f in fields(DiagnosticsParams):
        p_bound.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             type=type(f.default), default=f.default)
    p_bound.add_argument("--T", type=int, default=10000)
    p_bound.add_argument("--out", default="results")
    p_bound.set_defaults(func=cmd_bound)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: path not found: {exc.filename}", file=sys.stderr)
        return 2
    except (CliError, ValueError, TypeError) as exc:
        # DataError, from the dataset loaders, is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
