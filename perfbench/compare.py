#!/usr/bin/env python3
"""Compares two sets of benchmark results, one verdict per (workload, metric).

    python3 perfbench/compare.py BASE CHANGE   # verdicts; exit 1 on a regression
    python3 perfbench/compare.py RESULTS       # run-to-run spread of one set

BASE, CHANGE and RESULTS are directories of the records run.py keeps under
.perfbench/results/, searched recursively; only untraced runs count. Each
end-to-end metric of BENCHMARK.json is judged against its bound, a share of
the parent's (BASE's) median:

  improved    at least 10 seed-matched pairs, the change wins at least nine
              tenths of them (ties count for neither side), and the medians
              differ in the better direction by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  neither, and the run-to-run spread (interquartile range over
              median) of either side is wider than the bound, unless every
              run of the change reads better than every run of the parent;
  unchanged   otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound, pairs=()):
    """Verdict for one metric.

    `base` and `change` are the per-run values of each side, `pairs` the
    (base, change) values of runs with the same seed, `better` "lower" or
    "higher", `bound` the allowed worsening as a share of base's median.
    """
    if len(base) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    base_med = statistics.median(base)
    change_med = statistics.median(change)
    # Positive gain: the change is better.
    gain = sign * (base_med - change_med)
    q1, _, q3 = quartiles(base)
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base_med):
        return "worse"
    all_better = (max(change) < min(base) if better == "lower"
                  else min(change) > max(base))
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def load(directory):
    """{workload: {seed: metrics}} from the untraced records under `directory`."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError:
            continue
        if not isinstance(record, dict) or record.get("trace") != 0:
            continue
        metrics = {name: m["value"] for name, m in record["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = metrics
    return runs


def compare(spec, base, change):
    """Rows of (workload, metric, base median, change median, verdict)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r[name] for r in b_runs.values() if name in r]
            c = [r[name] for r in c_runs.values() if name in r]
            pairs = [(b_runs[s][name], c_runs[s][name])
                     for s in b_runs.keys() & c_runs.keys()
                     if name in b_runs[s] and name in c_runs[s]]
            rows.append((workload, name,
                         statistics.median(b) if b else None,
                         statistics.median(c) if c else None,
                         verdict(b, c, m["better"], m["bound"], pairs)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--spec", default=str(Path(__file__).resolve().parent.parent
                                              / "BENCHMARK.json"))
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    base = load(args.base)

    if args.change is None:
        print(f"{'workload':14s} {'metric':14s} {'runs':>4s} {'median':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for w in spec["workloads"]:
            runs = base.get(w["name"], {})
            for m in spec["end_to_end"]:
                values = [r[m["name"]] for r in runs.values() if m["name"] in r]
                if len(values) < 2:
                    continue
                s = spread(values)
                flag = "" if s <= m["bound"] / 3 else " (above a third of bound)"
                print(f"{w['name']:14s} {m['name']:14s} {len(values):4d} "
                      f"{statistics.median(values):12.6g} {s:7.3f} "
                      f"{m['bound']:6.2f}{flag}")
        return 0

    rows = compare(spec, base, load(args.change))
    print(f"{'workload':14s} {'metric':14s} {'base':>12s} {'change':>12s} "
          f"{'delta':>8s}  verdict")
    for workload, name, b, c, v in rows:
        delta = f"{(c - b) / b:+8.1%}" if b and c is not None else " " * 8
        fmt = lambda x: f"{x:12.6g}" if x is not None else " " * 12
        print(f"{workload:14s} {name:14s} {fmt(b)} {fmt(c)} {delta}  {v}")
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
