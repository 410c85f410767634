"""Per-layer metrics: read off a traced pass, or timed at a fixed shape.

``from_trace`` turns the spans and counts of one traced pass into the
workload's layer figures.  ``probes`` times single layer calls at fixed
shapes (store size, dimension, arm count), so those figures do not depend
on what a workload happens to exercise; an env figure that the workload's
own pass does not produce (play_batch outside the synthetic workload,
replay outside news) is taken from a small probe of that env instead.
"""
from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from spans import LAYERS, OUTPUT_SPANS, captured_rewards, layer_of, self_times
import workloads
from workloads import SUITE_SPEC, SUITE_T, run_slug

LOAD_SPANS = ("env.synthetic_hybrid", "env.load_news_csv",
              "env.load_classification_csv")


def from_trace(tracer, t0: float, t1: float, job: Dict) -> Dict[str, float]:
    nidx, start, end, parent = tracer.arrays()
    dur = end - start
    own = self_times(start, end, parent)
    window = start >= t0

    def mask(name: str, in_window: bool = True) -> np.ndarray:
        nid = tracer._ids.get(name, -1)
        m = nidx == nid
        return m & window if in_window else m

    def durations(name: str, in_window: bool = True) -> np.ndarray:
        return dur[mask(name, in_window)]

    out: Dict[str, float] = {}
    for verb in ("select", "update"):
        d = durations(f"policies.{verb}:lnucb-ta") * 1e6
        out[f"policies.{verb}_us.p50"] = float(np.percentile(d, 50))
        out[f"policies.{verb}_us.p99"] = float(np.percentile(d, 99))
    out["knn.store_rows.max"] = float(tracer.counts["knn.store_rows.max"])

    runs = mask("runner.run_policy")
    out["runner.self_share"] = float(own[runs].sum() / dur[runs].sum())
    out["metrics.from_rewards_us"] = float(np.median(
        durations("metrics.from_rewards")) * 1e6)
    out["metrics.aggregate_ms"] = float(np.median(
        durations("metrics.aggregate")) * 1e3)

    output_ids = {tracer._ids[n] for n in OUTPUT_SPANS if n in tracer._ids}
    is_output = np.isin(nidx, list(output_ids))
    parent_is_output = np.zeros_like(is_output)
    has_parent = parent >= 0
    parent_is_output[has_parent] = is_output[parent[has_parent]]
    top_output = is_output & ~parent_is_output & window
    n_runs = int(mask("metrics.from_rewards").sum())
    out["cli.output_ms.per_run"] = float(dur[top_output].sum() / n_runs * 1e3)
    out["cli.bytes_written"] = float(tracer.counts["cli.bytes_written"])
    out["cli.fingerprint_ms"] = float(np.median(
        durations("cli._dataset_fingerprint", False)) * 1e3)

    loads = np.flatnonzero(np.isin(nidx, [tracer._ids[n] for n in LOAD_SPANS
                                          if n in tracer._ids]))
    out["env.load_s"] = float(dur[loads[0]])
    play = durations("env.play_batch")
    if play.size:
        out["env.play_batch_ms"] = float(np.median(play) * 1e3)
    steps = durations("env.replay_step")
    if steps.size:
        out["env.replay_step_us"] = float(np.median(steps) * 1e6)
        out["env.replay_match_rate"] = (tracer.counts["replay.matched"]
                                        / tracer.counts["replay.consumed"])

    wall = t1 - t0
    layer_ids = np.array([LAYERS.index(layer_of(n)) for n in tracer.names])
    per_layer = np.bincount(layer_ids[nidx[window]], weights=own[window],
                            minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        out[f"layer_share.{layer}"] = float(per_layer[i] / wall)
    return out


def check_rewards(bl, tracer, state: Dict, job: Dict) -> Dict:
    """(a): the traced pass's rewards for the check cell equal, bit for bit,
    those of the same cell run untraced through run_policy."""
    traced = [c[3] for c in tracer.captured
              if run_slug(c[0], c[1], c[2]) == job["check_cell"]]
    with captured_rewards(bl.metrics) as got:
        workloads.rerun_check_cell(bl, state, job)
    ok = (len(traced) >= 1 and len(got) == 1
          and np.asarray(traced[0]).tobytes() == np.asarray(got[0]).tobytes())
    return {"ok": bool(ok), "cell": job["check_cell"],
            "rounds": len(got[0]) if got else 0}


def _per_call_us(fn: Callable[[int], object], calls: int,
                 repeats: int = 5) -> float:
    """Median over repeats of the mean time per call, in microseconds."""
    times = []
    i = 0
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(calls):
            fn(i)
            i += 1
        times.append((time.perf_counter() - t) / calls)
    return float(np.median(times) * 1e6)


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    X = rng.standard_normal((n, d))
    return X / np.linalg.norm(X, axis=1)[:, None]


def probes(bl, job: Dict, measured: Dict) -> Dict[str, float]:
    knn, linear = bl.knn, bl.linear
    rng = np.random.default_rng([job.get("seed", 0), 11])
    out: Dict[str, float] = {}

    store = knn.NeighborStore(10)
    rows = _unit_rows(rng, 50_000, 10)
    rewards = rng.uniform(size=50_000)
    queries = _unit_rows(rng, 500, 10)
    n = 0
    for label, size, calls in (("n1k", 1_000, 100), ("n10k", 10_000, 40),
                               ("n50k", 50_000, 20)):
        while n < size:
            store.add(rows[n], rewards[n], n)
            n += 1
        out[f"knn.query_us.{label}"] = _per_call_us(
            lambda i: knn.knn_score(store, queries[i % 500], 5), calls)

    ring = knn.NeighborStore(10, capacity=500)
    for i in range(500):
        ring.add(rows[i], rewards[i], i)
    out["knn.add_us.cap500"] = _per_call_us(
        lambda i: ring.add(rows[500 + i], rewards[500 + i], 500 + i), 400)

    for d, calls in ((10, 400), (100, 40)):
        xs = _unit_rows(rng, 5 * calls, d)
        for suffix, gamma in (("", 0.0), ("_infl", 0.05)):
            ridge = linear.RidgeState(d, 1.0, gamma)
            out[f"linear.update_us.d{d}{suffix}"] = _per_call_us(
                lambda i: ridge.update(xs[i], 0.5, 0.25), calls)

    arms = int(job["n_arms"])
    params = bl.attention.AttentionParams(1.0, 0.5)
    counts = rng.integers(1, 100, size=arms).astype(np.float64)
    local = rng.uniform(size=arms)
    out["attention.rates_us"] = _per_call_us(
        lambda i: bl.attention.exploration_rates(params, counts, 0.5, local), 2000)
    out["core.round_rng_us"] = _per_call_us(lambda i: bl.core.round_rng(7, i), 2000)

    if "env.play_batch_ms" not in measured:
        env = bl.env.synthetic_hybrid(SUITE_SPEC["env_seed"], SUITE_SPEC["d"],
                                      SUITE_SPEC["n_arms"], SUITE_SPEC["bump_count"],
                                      SUITE_SPEC["noise_sigma"], SUITE_SPEC["radius"])
        out["env.play_batch_ms"] = _per_call_us(
            lambda i: env.play_batch(np.random.default_rng([i, 1]), SUITE_T),
            1) / 1e3
    if "env.replay_step_us" not in measured:
        size = 5000
        log = bl.env.ReplayLogEnv(rng.integers(0, 10, size=size),
                                  (rng.uniform(size=size) < 0.5).astype(float),
                                  _unit_rows(rng, size, 100))
        picks = rng.integers(0, 10, size=size)
        matched = consumed = steps = 0
        cursor = 0
        t = time.perf_counter()
        while True:
            fb, nxt = bl.env.replay_step(log, int(picks[steps % size]), cursor)
            steps += 1
            if not fb.step_consumed:
                break
            matched += 1
            consumed += nxt - cursor
            cursor = nxt
        out["env.replay_step_us"] = (time.perf_counter() - t) / steps * 1e6
        out["env.replay_match_rate"] = matched / consumed
    return out
