"""One measured pass of a workload in a fresh process.

Usage: python3 bench/child.py JOB.json

The job file names the workload, its inputs and a mode: ``setup`` stops
once the first round could run, ``run`` also runs the experiment ``reps``
times (writing to ``<out>-r<i>``), and ``trace`` runs it once with every
layer boundary wrapped, then re-runs one cell untraced and times the
fixed-shape layer probes.  The result is written as JSON to the job's
``result`` path.  ``t_ready`` uses the monotonic clock,
which the parent shares, so set-up time includes interpreter start.
"""
import json
import os
import resource
import sys
import time


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)
    import banditlab
    import banditlab.cli  # noqa: F401  (loads every module the tracer wraps)
    if not os.path.abspath(banditlab.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"banditlab imported from {banditlab.__file__}, not {src}")
    import workloads

    tracer = None
    if job["mode"] == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(banditlab)
    state = workloads.setup(banditlab, job)
    out = {"t_ready": time.monotonic(), "wall_s": []}
    for i in range(job["reps"]):
        t0 = time.perf_counter()
        workloads.run(banditlab, state, job, f"{job['out']}-r{i}", job["jobs"])
        t1 = time.perf_counter()
        out["wall_s"].append(t1 - t0)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        import layers
        out["layers"] = layers.from_trace(tracer, t0, t1, job)
        out["check_a"] = layers.check_rewards(banditlab, tracer, state, job)
        out["layers"].update(layers.probes(banditlab, job, out["layers"]))
        tracer.dump(job["spans"])
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
