#!/usr/bin/env python3
"""Compare two benchmark result sets (e.g. parent commit vs change).

    python3 perfbench/compare.py <parent-dir> <change-dir>
    python3 perfbench/compare.py <dir>            # spreads of one set

A result set is a directory written by perfbench/sweep.py: one
<workload>/<seed>.json per run. For every workload and end-to-end metric it
prints the median and quartiles of each set (statistics.quantiles, n=4), the
spread (IQR / median), the change of the median in the direction of "worse"
from BENCHMARK.json, and a verdict:

  ok          change median within the bound of the parent median
  better      improved by more than the bound
  WORSE       worse by more than the bound
  unresolved  a set's spread exceeds the bound, so the medians cannot be told apart

It also compares failed_frac (failed / attempted over all runs) and the
correctness flags. Exit status 1 when any metric is WORSE, failed_frac grew,
or a run of the change set was not correct.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_set(path):
    """{workload: [result objects]} from a sweep directory."""
    runs = {}
    for f in sorted(Path(path).glob("*/*.json")):
        rec = json.loads(f.read_text())
        runs.setdefault(f.parent.name, []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results):
    """{metric: (q1, median, q3, spread)} for one workload's runs."""
    out = {}
    names = results[0]["metrics"].keys()
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        out[name] = (q1, med, q3, spread)
    return out


def failed_frac(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def report_one(runs, spec):
    for workload, results in sorted(runs.items()):
        print(f"\n{workload}: {len(results)} runs, failed_frac {failed_frac(results):.6f}, "
              f"correct {sum(r['correct'] for r in results)}/{len(results)}")
        for name, (q1, med, q3, spread) in summarize(results).items():
            bound = spec.get(name, {}).get("bound")
            flag = "" if bound is None or spread <= bound / 3 else \
                ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {name:14s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.2%}  bound {bound if bound is not None else '-'}{flag}")


def compare(parent, change, spec):
    bad = False
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"\n{workload}: only in {'parent' if workload in parent else 'change'}")
            bad = bad or workload in parent
            continue
        a, b = parent[workload], change[workload]
        fa, fb = failed_frac(a), failed_frac(b)
        ca = sum(r["correct"] for r in a)
        cb = sum(r["correct"] for r in b)
        print(f"\n{workload}: failed_frac {fa:.6f} -> {fb:.6f}, "
              f"correct {ca}/{len(a)} -> {cb}/{len(b)}")
        if fb > fa or cb < len(b):
            bad = True
            print("  CORRECTNESS REGRESSION")
        sa, sb = summarize(a), summarize(b)
        print(f"  {'metric':14s} {'parent':>12s} {'[q1, q3]':>25s} {'change':>12s} "
              f"{'[q1, q3]':>25s} {'worse by':>9s} {'bound':>6s}  verdict")
        for name in sa:
            if name not in sb:
                continue
            m = spec.get(name, {})
            bound = m.get("bound")
            lower_is_better = m.get("better", "lower") == "lower"
            q1a, meda, q3a, spa = sa[name]
            q1b, medb, q3b, spb = sb[name]
            worse = ((medb - meda) if lower_is_better else (meda - medb)) / meda if meda else 0.0
            if bound is None:
                verdict = "-"
            elif spa > bound or spb > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
                bad = True
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"  {name:14s} {meda:12.6g} [{q1a:11.5g}, {q3a:11.5g}] {medb:12.6g} "
                  f"[{q1b:11.5g}, {q3b:11.5g}] {worse:9.2%} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")
    return bad


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    spec = load_spec()
    if len(argv) == 2:
        report_one(load_set(argv[1]), spec)
        return 0
    return 1 if compare(load_set(argv[1]), load_set(argv[2]), spec) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
