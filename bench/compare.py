"""Compare two recorded result files metric by metric, workload by workload.

Each file is JSON lines written by ``run.py --record``.  Runs of the same
workload and trace mode are paired by seed.  For every metric the table
shows each side's median and quartiles, the ratio new/base with its base
value, and the verdict of ``stats.verdict``.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import stats


def load(path: str) -> Dict[Tuple[str, str], Dict[int, float]]:
    """(workload, metric) -> {seed: value}; a later line for a seed wins."""
    out: Dict[Tuple[str, str], Dict[int, float]] = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                out[(rec["workload"], name)][rec["seed"]] = m["value"]
    return out


def main(base_path: str, new_path: str, spec: Dict) -> int:
    base, new = load(base_path), load(new_path)
    meta = {m["name"]: m for key in ("end_to_end", "per_layer") for m in spec[key]}
    print(f"{'workload':22s} {'metric':28s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'new/base':>9s} verdict")
    shown = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        seeds = sorted(set(base[key]) & set(new[key]))
        if not seeds or name not in meta:
            continue
        b: List[float] = [base[key][s] for s in seeds]
        n: List[float] = [new[key][s] for s in seeds]
        bq, nq = stats.quartiles(b), stats.quartiles(n)
        verdict = stats.verdict(b, n, meta[name]["better"], meta[name].get("bound"))
        print(f"{workload:22s} {name:28s} "
              f"{bq[1]:11.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
              f"{nq[1]:11.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] "
              f"{stats.ratio(bq[1], nq[1]):9.4f} {verdict} (n={len(seeds)}, "
              f"base {bq[1]:.5g})")
        shown += 1
    if not shown:
        print("no metric has runs of the same workload and seed in both files",
              file=sys.stderr)
        return 1
    return 0
