"""Compare two result sets of the qspan benchmark, such as parent and change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records `run.py --record FILE` appends, one JSON line per
run. Runs are paired by (workload, trace, seed). For every (metric, workload)
the table gives each side's median and quartiles and a verdict:

improved    the change wins at least 9 of 10 pairs (ties count for neither)
            and the medians differ by more than the parent's quartile spread
unresolved  the parent's quartile spread, as a share of its median, exceeds
            the metric's bound (or, without a bound, the medians differ by
            more than that spread without the 9-of-10 rule holding), or
            fewer than 10 pairs were run
regressed   the change's median is worse than the parent's by more than the
            bound from BENCHMARK.json (per-layer metrics: loses 9 of 10
            pairs by more than the parent's spread)
unchanged   otherwise

A group (workload, trace) in which the change fails more requests than the
parent gets "regressed" on every metric: a gain bought with failures, such as
requests that fail fast, does not count. The failed counts are printed.

Records whose environment stamps differ in anything but the git commit are
never compared: the command exits with code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _stamp(rec: dict) -> dict:
    return {k: v for k, v in rec["env"].items() if k != "git_commit"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None, more_failures: bool = False) -> str:
    """Verdict for paired runs (parent[i] and change[i] share a seed);
    `more_failures`: the change failed more requests than the parent."""
    if more_failures:
        return "regressed"
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    if n < MIN_PAIRS:
        return "unresolved"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    spread = p3 - p1
    if wins >= WIN_SHARE * n and gain > spread:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * n and -gain > spread:
            return "regressed"
        return "unresolved" if abs(gain) > spread else "unchanged"
    if spread > bound * abs(pm):
        return "unresolved"
    if -gain > bound * abs(pm):
        return "regressed"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(p) for p in argv]
    stamps = {json.dumps(_stamp(r), sort_keys=True) for s in sides for r in s}
    if len(stamps) > 1:
        print("environment stamps differ; results are not comparable:",
              file=sys.stderr)
        for s in sorted(stamps):
            print("  " + s, file=sys.stderr)
        return 2

    def index(records):
        out = {}
        for r in records:
            d = r["details"]
            out[(d["workload"], d["trace"], d["seed"])] = r["result"]
        return out

    parent, change = (index(s) for s in sides)
    keys = sorted(set(parent) & set(change))
    groups = {}
    for key in keys:
        groups.setdefault(key[:2], []).append(key)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'metric':44s} {'workload':13s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} pairs verdict")
    for (workload, trace), members in sorted(groups.items()):
        p_failed = sum(parent[k]["failed"] for k in members)
        c_failed = sum(change[k]["failed"] for k in members)
        print(f"{'failed requests (trace ' + str(trace) + ')':44s} "
              f"{workload:13s} {p_failed:<32d} {c_failed:<32d} "
              f"{len(members):5d}")
        for name in parent[members[0]]["metrics"]:
            better, bound = defs.get(name, ("lower", None))
            p = [parent[k]["metrics"][name]["value"] for k in members]
            c = [change[k]["metrics"][name]["value"] for k in members]
            print(f"{name:44s} {workload:13s} {fmt(quartiles(p)):32s} "
                  f"{fmt(quartiles(c)):32s} {len(members):5d} "
                  f"{verdict(p, c, better, bound, c_failed > p_failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
