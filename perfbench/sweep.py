#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/sweep.py --out <dir> [--workloads a,b] [--seeds 1-10]
                               [--seconds 10] [--trace 0]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
writes <dir>/<workload>/<seed>.json with the run's environment record, its
log lines and its final JSON result. Prints the spread table of the set at
the end (perfbench/compare.py <dir> prints it again; compare.py <a> <b>
compares two sets).
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    out = Path(a.out)
    status = 0
    for w in a.workloads.split(","):
        (out / w).mkdir(parents=True, exist_ok=True)
        for s in seed_list(a.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s),
                 "--seconds", str(a.seconds), "--trace", str(a.trace)],
                cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{w} seed {s}: no result (rc {proc.returncode}): "
                      f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
                status = 1
                continue
            env = next((json.loads(line[len("# env "):]) for line in lines
                        if line.startswith("# env ")), {})
            result = json.loads(lines[-1])
            (out / w / f"{s}.json").write_text(json.dumps(
                {"env": env, "log": lines[:-1], "result": result}, indent=1) + "\n")
            print(f"{w} seed {s}: rc {proc.returncode} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            status = status or proc.returncode
    compare.report_one(compare.load_set(out), compare.load_spec())
    return status


if __name__ == "__main__":
    sys.exit(main())
