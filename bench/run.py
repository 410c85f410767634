"""banditlab benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload synthetic-suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload news-replay --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --compare base.jsonl new.jsonl

``--trace 0`` runs fresh-process passes of the workload with tracing off
and prints every end-to-end metric; ``--trace 1`` runs one untraced and
one traced pass and prints every per-layer metric.  The last stdout line
is one JSON object.  ``--record FILE`` appends that object, with quartiles
and the machine stanza, to a JSON-lines file that ``--compare`` reads.
"""
import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import compare  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SETUP_ONLY_PASSES = 4
MIN_REPS = 2
MAX_CHILDREN = 3
CHILD_TIMEOUT_S = 150
C07_SEEDS = 20
C07_GATE_S = 120.0


def fail(msg: str, code: int = 2) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_program():
    if not (SRC / "banditlab" / "__init__.py").is_file():
        fail(f"no banditlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import banditlab
    import banditlab.cli  # noqa: F401
    if not Path(banditlab.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"banditlab imported from {banditlab.__file__}, not {SRC}")
    return banditlab


# -- machine stanza ---------------------------------------------------------

def machine_stanza() -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": None}
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit, "src_lines": src_lines}


# -- child passes -----------------------------------------------------------

class Pass:
    """One child process; ok is False when it exited non-zero."""

    def __init__(self, job: dict, mode: str, workdir: Path, tag: str,
                 jobs: int, reps: int = 1):
        out = workdir / f"out-{tag}"
        self.outs = [Path(f"{out}-r{i}") for i in range(reps)]
        spec = dict(job, mode=mode, jobs=jobs, reps=reps, src=str(SRC), out=str(out),
                    result=str(workdir / f"result-{tag}.json"),
                    spans=str(workdir / "spans"))
        job_path = workdir / f"job-{tag}.json"
        job_path.write_text(json.dumps(spec), encoding="utf-8")
        log_path = workdir / f"log-{tag}.txt"
        with open(log_path, "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            # Own process group, so a timeout also stops the child's workers.
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                start_new_session=True)
            try:
                self.ok = proc.wait(timeout=CHILD_TIMEOUT_S) == 0
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                self.ok = False
        if not self.ok:
            sys.stderr.write(f"bench: {mode} pass failed:\n"
                             + log_path.read_text(encoding="utf-8")[-4000:])
            self.data = {}
            return
        self.data = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        self.setup_s = self.data["t_ready"] - t_spawn


def read_runs(out: Path) -> list:
    """Summary of every run file pair under out/runs."""
    runs = []
    for js in sorted((out / "runs").glob("*.json")):
        summary = json.loads(js.read_text(encoding="utf-8"))
        s = summary["summary"]
        rows = js.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
        values = [float(v) for line in rows[1:] for v in line.split(",")]
        finite = all(math.isfinite(v) for v in values) and all(
            v is None or math.isfinite(v) for v in
            (s["final_cumulative_reward"], s["final_mean_reward"],
             s["final_regret"], s["runtime_s"]))
        runs.append({"slug": js.stem, "policy": summary["policy"],
                     "horizon": s["horizon"], "matched": s["matched_steps"],
                     "reward": s["final_mean_reward"], "runtime_s": s["runtime_s"],
                     "rows": len(rows) - 1, "finite": finite})
    return runs


def executed_cells(out: Path) -> tuple:
    """(cells executed, their summed runtime) from the aggregate rows."""
    name = "sweep.json" if (out / "sweep.json").exists() else "aggregate.json"
    rows = json.loads((out / name).read_text(encoding="utf-8"))["rows"]
    return (sum(r["n_seeds"] for r in rows),
            sum(r["n_seeds"] * r["runtime_s_mean"] for r in rows))


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((out / "runs").glob("*.csv")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_checks(job: dict, runs: list) -> list:
    """(c): every expected run present, with its horizon, finite values."""
    by_slug = {r["slug"]: r for r in runs}
    checks = [("run set", set(by_slug) == set(job["expect"]))]
    for slug, horizon in sorted(job["expect"].items()):
        r = by_slug.get(slug)
        ok = (r is not None and r["horizon"] == horizon == r["matched"]
              == r["rows"] and r["finite"])
        checks.append((f"run {slug}", ok))
    return checks


def _comparable(path: Path):
    """A run file's content minus runtime_s and the echoed jobs/out options."""
    if path.suffix == ".csv":
        return path.read_bytes()
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["summary"].pop("runtime_s")
    for key in ("jobs", "out"):
        payload["config_echo"]["options"].pop(key, None)
    return payload


def same_run_files(a: Path, b: Path) -> bool:
    """(b): run files byte-identical apart from runtime_s and echoed flags."""
    names_a = sorted(p.name for p in (a / "runs").iterdir())
    names_b = sorted(p.name for p in (b / "runs").iterdir())
    return bool(names_a) and names_a == names_b and all(
        _comparable(a / "runs" / n) == _comparable(b / "runs" / n)
        for n in names_a)


def rep_metrics(wall: float, rss_mb: float, runs: list) -> dict:
    def per_round(rs):
        rounds = sum(r["horizon"] for r in rs)
        return sum(r["runtime_s"] for r in rs) / rounds * 1e6

    ours = [r for r in runs if r["policy"] == "lnucb-ta"]
    others = [r for r in runs if r["policy"] != "lnucb-ta"]
    return {"wall_s": wall,
            "rounds_per_s": sum(r["horizon"] for r in runs) / wall,
            "us_per_round.lnucb-ta": per_round(ours),
            "us_per_round.baselines": per_round(others),
            "peak_rss_mb": rss_mb,
            "reward.lnucb-ta": sum(r["reward"] for r in ours) / len(ours)}


# -- the two modes ----------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def runs(self, n: int, ok: bool) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(name)


def rep_plan(seconds: int, workload: str) -> list:
    """Experiment repetitions per child: at least two in all, spread over
    at most three children; fixed by --seconds alone."""
    total = max(MIN_REPS, round(seconds / workloads.NOMINAL_REP_S[workload]))
    children = min(MAX_CHILDREN, total)
    return [total // children + (1 if i < total % children else 0)
            for i in range(children)]


def measure_e2e(job: dict, workdir: Path, seconds: int, tally: Tally):
    setups = []
    for i in range(SETUP_ONLY_PASSES):
        p = Pass(job, "setup", workdir, f"setup{i}", 1, reps=0)
        tally.check(f"setup pass {i}", p.ok)
        if p.ok:
            setups.append(p.setup_s)
    per_rep, run_ms, digests, c07 = [], [], [], []
    for i, reps in enumerate(rep_plan(seconds, job["workload"])):
        p = Pass(job, "run", workdir, f"run{i}", job.get("jobs", 1), reps)
        tally.runs(job["executed"] * reps, p.ok)
        if not p.ok:
            continue
        setups.append(p.setup_s)
        for out, wall in zip(p.outs, p.data["wall_s"]):
            runs = read_runs(out)
            for name, ok in run_checks(job, runs):
                tally.check(name, ok)
            d = digest(out)
            if digests:
                tally.check(f"{out.name} digest equals the first", d == digests[0])
            digests.append(d)
            per_rep.append(rep_metrics(wall, p.data["peak_rss_mb"], runs))
            run_ms += [r["runtime_s"] * 1e3 for r in runs]
            if job["workload"] == "synthetic-suite":
                c07.append(C07_SEEDS * sum(r["runtime_s"] for r in runs
                                           if r["horizon"] == workloads.SUITE_T))
            shutil.rmtree(out, ignore_errors=True)
    if not per_rep or not setups:
        fail("every pass failed", 1)
    samples = {k: [m[k] for m in per_rep] for k in per_rep[0]}
    samples["setup_s"] = setups
    tail_p = stats.tail_percentile(len(run_ms))
    samples["run_ms.p50"] = [stats.percentile(run_ms, 50)]
    samples["run_ms.tail"] = [stats.percentile(run_ms, tail_p if tail_p else 100.0)]
    info = {"runs_pooled": len(run_ms), "tail_percentile": tail_p or 100.0,
            "repetitions": len(per_rep), "result_digest": digests[0]}
    if c07:
        info["c07_projected_s"] = sorted(c07)[len(c07) // 2]
    return samples, info


def measure_layers(job: dict, workdir: Path, tally: Tally):
    jobs = job.get("jobs", 1)
    plain = Pass(job, "run", workdir, "plain", jobs)
    tally.runs(job["executed"], plain.ok)
    ref = plain
    if jobs != 1:
        ref = Pass(job, "run", workdir, "plain-j1", 1)
        tally.runs(job["executed"], ref.ok)
    traced = Pass(job, "trace", workdir, "traced", 1)
    tally.runs(job["executed"], traced.ok)
    if not (plain.ok and ref.ok and traced.ok):
        fail("a pass failed", 1)
    plain_out, traced_out = plain.outs[0], traced.outs[0]
    for out in (plain_out, traced_out):
        for name, ok in run_checks(job, read_runs(out)):
            tally.check(f"{name} ({out.name})", ok)
    a = traced.data["check_a"]
    tally.check(f"traced rewards of {a['cell']} equal run_policy's", a["ok"])
    tally.check("traced digest equals untraced", digest(plain_out) == digest(traced_out))
    if jobs != 1:
        tally.check(f"--jobs {jobs} run files equal traced --jobs 1",
                    same_run_files(plain_out, traced_out))
    layers = dict(traced.data["layers"])
    executed, busy = executed_cells(plain_out)
    layers["runner.parallel_efficiency"] = busy / (jobs * plain.data["wall_s"][0])
    layers["runner.useful_cell_ratio"] = len(read_runs(plain_out)) / executed
    layers["trace.overhead_ratio"] = traced.data["wall_s"][0] / ref.data["wall_s"][0]
    info = {"result_digest": digest(plain_out), "check_a_rounds": a["rounds"]}
    return {k: [v] for k, v in layers.items()}, info


# -- output -----------------------------------------------------------------

def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], bench_spec())

    bl = load_program()
    if args.workload not in workloads.WHY:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WHY)}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    machine = machine_stanza()
    inputs = OUT_ROOT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    workdir = OUT_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    job = workloads.make_job(bl, args.workload, args.seed, str(inputs))
    tally = Tally()
    declared = bench_spec()["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            samples, info = measure_layers(job, workdir, tally)
        else:
            samples, info = measure_e2e(job, workdir, args.seconds, tally)
            samples["success_rate"] = [1.0 - tally.failed / tally.attempted]
    finally:
        keep = workdir / "spans"
        if keep.exists():
            dest = OUT_ROOT / "spans" / args.workload
            shutil.rmtree(dest, ignore_errors=True)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(keep), str(dest))
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"why: {workloads.WHY[args.workload]}")
    metrics, quarts = {}, {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        q1, med, q3 = stats.quartiles(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        quarts[name] = [q1, q3]
        print(f"  {name:28s} {med:14.6g} {unit:7s} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}]")
    for key, val in sorted(info.items()):
        gate = f" (c07's gate: {C07_GATE_S:.0f} s)" if key == "c07_projected_s" else ""
        print(f"  {key}: {val}{gate}")
    if args.trace:
        shares = {n: m["value"] for n, m in metrics.items()
                  if n.startswith("layer_share.")}
        top = sorted(shares, key=shares.get, reverse=True)[:3]
        print("  dominant layers (self time share): "
              + ", ".join(f"{n.split('.', 1)[1]} {shares[n]:.1%}" for n in top))
    for note in tally.notes:
        print(f"  FAILED CHECK: {note}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "quartiles": quarts,
                                 "info": info, "machine": machine, "samples": samples,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
