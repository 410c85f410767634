"""Span recorder that wraps banditlab's public functions from outside.

Installing a Tracer replaces each boundary function listed in BOUNDARIES
with a wrapper that records (name, start, end, parent) and bumps counters,
in every banditlab module namespace that holds the same object, so calls
made through ``from .x import y`` bindings are seen too.  ``uninstall``
puts every original back.  Spans are kept in flat arrays and written out
once at the end.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("core", "attention", "knn", "linear", "policies", "env", "runner",
          "metrics", "cli")

# (module, attribute) pairs; "Class.method" wraps a method on the class.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "core": ("round_rng", "argmax_tiebreak"),
    "attention": ("exploration_rates", "softmax_attention",
                  "RewardStats.record", "RewardStats.local_means"),
    "knn": ("knn_score", "_score_prechecked", "reward_variance", "select_k",
            "NeighborStore.add"),
    "linear": ("RidgeState.update", "RidgeState.predict"),
    "env": ("load_news_csv", "load_classification_csv", "synthetic_hybrid",
            "replay_step", "SyntheticHybridEnv.play_batch",
            "ClassificationBanditEnv.context", "ClassificationBanditEnv.feedback"),
    "runner": ("run_policy", "run_cell", "execute_cells", "build_env"),
    "metrics": ("RunResult.from_rewards", "aggregate"),
    "cli": ("main", "atomic_write_text", "result_csv_text", "result_json_text",
            "aggregate_csv_text", "aggregate_json_text", "_dataset_fingerprint"),
}

# Policy classes get select/update wrapped per class, named by policy id.
POLICY_METHODS = ("select", "update")

OUTPUT_SPANS = ("cli.atomic_write_text", "cli.result_csv_text",
                "cli.result_json_text", "cli.aggregate_csv_text",
                "cli.aggregate_json_text")


class Tracer:
    """In-memory span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._pulls: Counter = Counter()  # (policy object id, arm) in this run
        self.captured: List[tuple] = []  # (policy, params, seed, rewards)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return wrapper

    def policy_span(self, verb: str, fn: Callable):
        """select/update wrapper whose span name carries the policy id."""

        @functools.wraps(fn)
        def wrapper(policy, *args, **kwargs):
            i = self._open(self.name_id(f"policies.{verb}:{policy.name}"))
            try:
                return fn(policy, *args, **kwargs)
            finally:
                self._close(i)
                if verb == "update":
                    self._pulls[(id(policy), int(args[0]))] += 1
        return wrapper

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap every boundary of ``package`` (the imported banditlab)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__
                   or name.startswith(package.__name__ + ".")]
        hooks = self._hooks()
        for layer, attrs in BOUNDARIES.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr.split('.')[-1]}"
                hook = hooks.get(name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        self._set(cls, meth, staticmethod(
                            self.span(name, raw.__func__, hook)))
                    else:
                        self._set(cls, meth, self.span(name, raw, hook))
                    continue
                original = getattr(mod, attr)
                wrapped = self.span(name, original, hook)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._set(m, key, wrapped)
        core = sys.modules[f"{package.__name__}.core"]
        for cls in _subclasses(core.Policy):
            for verb in POLICY_METHODS:
                if verb in cls.__dict__:
                    self._set(cls, verb, self.policy_span(verb, cls.__dict__[verb]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hooks(self) -> Dict[str, Callable]:
        counts = self.counts

        def replay(args, kwargs, out):
            fb, cursor = out
            before = args[2] if len(args) > 2 else kwargs["cursor"]
            counts["replay.consumed"] += cursor - before
            counts["replay.matched"] += int(fb.step_consumed)

        def written(args, kwargs, out):
            text = args[1] if len(args) > 1 else kwargs["text"]
            counts["cli.bytes_written"] += len(text.encode("utf-8"))

        def run_done(args, kwargs, out):
            most = max(self._pulls.values(), default=0)
            counts["knn.store_rows.max"] = max(counts["knn.store_rows.max"], most)
            self._pulls.clear()

        def rewards(args, kwargs, out):
            self.captured.append((out.policy_id, out.params, out.seed,
                                  list(args[3])))

        return {"env.replay_step": replay, "cli.atomic_write_text": written,
                "metrics.from_rewards": rewards, "runner.run_policy": run_done}

    # -- output ----------------------------------------------------------
    def arrays(self):
        """(name index, start, end, parent) as numpy views of the span store."""
        return (np.frombuffer(self.name_idx, dtype=np.intc),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.intc))

    def dump(self, directory: str) -> None:
        """Write names.json plus one raw native-endian column file per field."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "names.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": {
                str(k): v for k, v in self.counts.items()}}, fh)
        for field, col in (("name.i32", self.name_idx), ("start.f64", self.start),
                           ("end.f64", self.end), ("parent.i32", self.parent)):
            with open(os.path.join(directory, field), "wb") as fh:
                col.tofile(fh)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so children are disjoint and
    lie inside their parent; their durations can simply be subtracted.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - covered


@contextlib.contextmanager
def captured_rewards(metrics_module):
    """Collect the reward list of every RunResult.from_rewards call."""
    cls = metrics_module.RunResult
    raw = cls.__dict__["from_rewards"]
    got: List[list] = []

    def capture(*args, **kwargs):
        got.append(list(args[3]))
        return raw.__func__(*args, **kwargs)

    cls.from_rewards = staticmethod(capture)
    try:
        yield got
    finally:
        cls.from_rewards = raw
