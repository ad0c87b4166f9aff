#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use it builds perfbench_runner
(Release) and its gprof-instrumented twin from the repository sources into
.perfbench_build/. The workload runs in a child process on the serial engine
(SDT_SHARDS / SDT_SIM_WORKERS removed from its environment). The modeled
outputs are checked on every run: golden digests and per-op agreement for
the packet workloads, flow-table invariants for the reroute workload.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(span timings from the Release build plus gprof self time by layer from the
instrumented build). Log lines come first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. A golden-digest
mismatch exits 1 after printing it. See perfbench/README.md.

    python3 perfbench/run.py --record-golden 0-99   # (re)write golden.json
"""
import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".perfbench_build"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("t4_torus3d_alltoall", "serving_overload_ft4", "reroute_dragonfly_live")
# Workloads whose operations repeat identical inputs: every op must produce
# the same modeled digest, and that digest must match golden.json.
GOLDEN_WORKLOADS = ("t4_torus3d_alltoall", "serving_overload_ft4")
ENGINE_ENV = ("SDT_SHARDS", "SDT_SIM_WORKERS")
CHILD_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# gprof attribution: the first sdt:: *function* in a symbol decides its layer
# (so a closure invoker is charged to the function that created the
# closure), else the first sdt:: type it mentions (template instantiations
# on a layer's types), else the C/C++ runtime or the harness.
LAYERS = (
    "sim.engine", "sim.network", "sim.transport", "openflow", "routing",
    "workloads.mpi", "workloads.serving", "admission", "controller",
    "projection", "topo", "common", "runtime", "bench",
)
FUNC_RE = re.compile(r"sdt::(\w+)::((?:\w+::)*)(\w+)\(")
TYPE_RE = re.compile(r"sdt::(\w+)::(\w+)")
RUNTIME_RE = re.compile(
    r"^(std::|__gnu_cxx::|__cxxabiv1::|operator (new|delete)|_?_?(int_)?(malloc|free|"
    r"calloc|realloc|mem\w*|str\w*|cfree)|_int_|__libc|__memcpy|__memmove|__memset|"
    r"__strlen|__strcmp|__GI_|__nptl|_IO_|__vfprintf|__printf|vfprintf|printf|"
    r"__tls|_dl_|__lll|pthread|__pthread|tcache|unlink_chunk|sysmalloc|"
    r"malloc_consolidate|__mpn_|____strtod|__strtod|round_and_return|hack_digit|"
    r"__cxa|_Unwind|__gxx|__dynamic_cast|clock_gettime|__clock_gettime|__vdso)")


def log(msg):
    print(msg, flush=True)


def fail_setup(msg):
    """Exit non-zero without a result line (missing sources, build failure)."""
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


# ---- build ----------------------------------------------------------------

def build(variant):
    """Configure (once) and build one runner variant; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"repository sources not found under {ROOT / 'src'}")
    for tool in ("cmake", "g++"):
        if shutil.which(tool) is None:
            fail_setup(f"{tool} not found")
    out = BUILD / variant
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release",
                      f"-DPERFBENCH_GPROF={'ON' if variant == 'gprof' else 'OFF'}"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner", "-j", jobs])
    with open(logfile, "a") as f:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                tail = logfile.read_text(errors="replace").splitlines()[-30:]
                fail_setup(f"build of {variant} failed (rc {rc}):\n" + "\n".join(tail))
    return out / "perfbench_runner"


# ---- child runs -----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    for k in ENGINE_ENV:
        env.pop(k, None)
    return env


def run_runner(binary, args, cwd):
    """Run the runner; return (parsed last line, child CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run([str(binary)] + args, cwd=cwd, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail_setup(f"runner timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        fail_setup(f"runner exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail_setup("runner printed nothing")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return json.loads(lines[-1]), cpu


def runner_args(a, trace):
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    return args + ["--trace"] if trace else args


# ---- checks ---------------------------------------------------------------

def load_golden():
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text())
    return {}


def check(raw, workload, seed):
    """Return (correct, failed, notes) for one runner result."""
    notes = []
    correct = True
    eng = raw["engine"]
    if eng["env_shards"] != 1 or eng["env_workers"] != 1:
        notes.append(f"engine not at K=1: {eng}")
        correct = False
    ok = list(raw["op_ok"])
    digests = raw["op_digests"]
    golden = workload in GOLDEN_WORKLOADS
    if len(ok) != raw["attempted"] or (golden and len(digests) != raw["attempted"]):
        notes.append("runner op records are inconsistent")
        correct = False
    if golden and digests:
        ref = load_golden().get(workload, {}).get(str(seed))
        if ref is None:
            ref = digests[0]
            notes.append(f"golden: no digest recorded for seed {seed}; "
                         "checked that every op agrees with op 0")
        mismatched = [i for i, d in enumerate(digests) if d != ref]
        for i in mismatched:
            ok[i] = False
        if mismatched:
            correct = False
            notes.append(f"golden: {len(mismatched)} of {len(digests)} ops differ from "
                         f"{ref} (first: op {mismatched[0]} = {digests[mismatched[0]]})")
        else:
            notes.append(f"golden: all {len(digests)} ops match {ref}")
    failed = sum(1 for x in ok if not x)
    for f in raw["failures"]:
        notes.append(f"failure: {f}")
    return correct, failed, notes


# ---- metrics --------------------------------------------------------------

def tail(values):
    """Highest ladder percentile (nearest rank) with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:  # falls back to the median, the ladder's last rung
        k = max(1, math.ceil(n * p / 100.0))
        if n - k >= TAIL_MIN_BEYOND or p == TAIL_LADDER[-1]:
            return p, xs[k - 1], n - k


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    """End-to-end metrics. Times are at reference speed (runner.cpp,
    SpeedReference): each op's host time times its own scale, the setups'
    times the scale of the run's median kernel sample. The log line gives the
    host times they came from."""
    op_ms = [t * k for t, k in zip(raw["op_ms"], raw["op_scale"])]
    kernel = raw["ref_kernel_ms"]
    setup_scale = raw["ref_nominal_ms"] / statistics.median(kernel)
    p, tail_ms, beyond = tail(op_ms)
    m = {
        "setup_s": metric(statistics.median(raw["setup_s"]) * setup_scale, "s"),
        "run_s": metric(raw["ref_run_s"], "s"),
        "cpu_s": metric(raw["ref_cpu_s"], "s"),
        "work_rate": metric(raw["work"] / raw["ref_run_s"], "1/s"),
        "op_p50_ms": metric(statistics.median(op_ms), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    info = (f"work_rate counts {raw['work_unit']}; op_tail_ms is p{p:g} of "
            f"{len(op_ms)} ops ({beyond} beyond)\n"
            f"# host time: setup_s {statistics.median(raw['setup_s']):.6g}, "
            f"run_s {raw['run_s']:.6g}, cpu_s {raw['cpu_s']:.6g}, "
            f"op_p50_ms {statistics.median(raw['op_ms']):.6g}, "
            f"op_tail_ms {tail(raw['op_ms'])[1]:.6g}; reference kernel median "
            f"{statistics.median(kernel):.4g} ms over {len(kernel)} samples "
            f"(nominal {raw['ref_nominal_ms']:g} ms)")
    return m, info


def classify(name):
    if name.startswith("perfbench::") or name == "main":
        return "bench"
    m = FUNC_RE.search(name) or TYPE_RE.search(name)
    if m is None:
        return "runtime" if RUNTIME_RE.match(name) else None
    ns = m.group(1)
    scope = m.group(2) + m.group(3) if m.re is FUNC_RE else m.group(2)
    if ns == "sim":
        if scope.startswith("Simulator::"):
            return "sim.engine"
        if scope.startswith("TransportManager::"):
            return "sim.transport"
        if "lambda" in name and scope == "buildLogicalNetwork":
            return "routing"  # full-testbed forwarder closure: per-packet routing
        if "lambda" in name and scope == "buildProjectedNetwork":
            return "openflow"  # SDT forwarder closure: flow-table lookup
        return "sim.network"
    if ns == "workloads":
        return "workloads.serving" if scope.startswith("ServingRuntime") else "workloads.mpi"
    if ns == "partition":
        return "projection"
    if ns in ("openflow", "routing", "admission", "controller", "projection", "topo"):
        return ns
    return "common"  # json, strings, log, obs


def gprof_layers(binary, workdir):
    """Self seconds per layer from gmon.out, plus unattributed seconds."""
    out = subprocess.run(["gprof", "-b", "-p", str(binary), str(workdir / "gmon.out")],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                         cwd=workdir, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        fail_setup(f"gprof failed: {out.stderr.strip()[-1000:]}")
    row = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
    layers = {k: 0.0 for k in LAYERS}
    unattributed = 0.0
    top = []
    for line in out.stdout.splitlines():
        m = row.match(line)
        if not m:
            continue
        self_s, name = float(m.group(1)), m.group(2).strip()
        if self_s <= 0:
            continue
        layer = classify(name)
        if layer is None:
            unattributed += self_s
        else:
            layers[layer] += self_s
        if len(top) < 12:
            top.append((self_s, layer or "?", name[:110]))
    return layers, unattributed, top


def per_layer(rel, gp_raw, gp_cpu, layers, unattributed):
    """Per-layer metrics: counts and spans of the Release run `rel`, gprof
    self time per layer of the instrumented run `gp_raw`."""
    c = rel["counts"]
    sp = rel.get("spans", {})
    t = rel.get("timings", {})

    def cnt(k):
        return c.get(k, 0)

    def span(k, field="median_s"):
        return sp.get(k, {}).get(field, 0.0)

    hops = cnt("sim.hops")
    attempts = cnt("controller.retries") + cnt("controller.rounds_acked")
    m = {}
    for k in ("openflow.adds", "openflow.removes", "openflow.lookups"):
        m[k] = metric(cnt(k), "count")
    m["openflow.lookups_per_hop"] = metric(cnt("openflow.lookups") / hops if hops else 0.0, "ratio")
    m["openflow.install_s"] = metric(span("openflow.install"), "s")
    m["sim.events"] = metric(cnt("sim.events"), "count")
    m["sim.events_per_hop"] = metric(cnt("sim.events") / hops if hops else 0.0, "ratio")
    m["sim.host_ns_per_event"] = metric(
        1e9 * rel["run_s"] / cnt("sim.events") if cnt("sim.events") else 0.0, "ns")
    m["sim.peak_queue_bytes"] = metric(cnt("sim.peak_queue_bytes"), "bytes")
    for k in ("sim.drops", "sim.pauses", "sim.cnps", "sim.ctrl_msgs_sent",
              "sim.ctrl_msgs_delivered", "sim.ctrl_msgs_dropped",
              "workloads.mpi_messages", "workloads.serving_offered",
              "workloads.serving_completed", "admission.samples", "admission.admitted",
              "admission.shed", "controller.flow_mods", "controller.barrier_round_trips",
              "controller.retries", "controller.rollbacks"):
        m[k] = metric(cnt(k), "count")
    m["controller.retry_ratio"] = metric(cnt("controller.retries") / attempts if attempts else 0.0,
                                         "ratio")
    m["sim.build_s"] = metric(span("sim.build"), "s")
    m["routing.deadlock_s"] = metric(span("routing.deadlock"), "s")
    m["projection.plan_s"] = metric(span("projection.plan"), "s")
    m["projection.project_s"] = metric(span("projection.project"), "s")
    m["controller.compile_s"] = metric(span("controller.compile"), "s")
    m["controller.deploy_s"] = metric(t.get("controller.deploy_s", span("controller.deploy")), "s")
    m["controller.plan_s"] = metric(span("controller.plan", "total_s"), "s")
    m["controller.tx_s"] = metric(span("controller.tx", "total_s"), "s")

    sampled = sum(layers.values()) + unattributed
    for layer in LAYERS:
        # "sim.engine" -> sim.engine_self_s; "openflow" -> openflow.self_s
        key = f"{layer}_self_s" if "." in layer else f"{layer}.self_s"
        share_key = f"{layer}_share" if "." in layer else f"{layer}.share"
        m[key] = metric(layers[layer], "s")
        m[share_key] = metric(100.0 * layers[layer] / sampled if sampled else 0.0, "%")
    m["trace.cpu_s"] = metric(gp_cpu, "s")
    m["trace.sampled_s"] = metric(sampled, "s")
    m["trace.coverage_pct"] = metric(
        100.0 * (sampled - unattributed) / sampled if sampled else 0.0, "%")
    m["trace.overhead_pct"] = metric(100.0 * (gp_raw["run_s"] / rel["run_s"] - 1.0), "%")
    steps = t.get("controller.deploy_steps_s", 0.0)
    whole = t.get("controller.deploy_s", 0.0)
    m["trace.deploy_agreement"] = metric(steps / whole if whole else 0.0, "ratio")
    return m


# ---- environment ----------------------------------------------------------

def src_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():  # a plain checkout: no history to name
        return "none"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def environment(a, raw):
    return {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "hw_threads": raw["hw_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "git_sha": git_sha(),
        "src_sha256_16": src_digest(),
        "engine": "serial, K=1 (checked on every instance)",
        "engine_env": raw["engine"],
        "env_removed": {k: os.environ.get(k) for k in ENGINE_ENV},
    }


# ---- golden recording -----------------------------------------------------

def record_golden(seed_range):
    first, _, last = seed_range.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    binary = build("release")
    golden = load_golden()
    for w in GOLDEN_WORKLOADS:
        table = golden.setdefault(w, {})
        for s in seeds:
            raw, _ = run_runner(binary, ["--workload", w, "--seed", str(s), "--seconds", "1",
                                         "--setups", "1", "--ops", "2"], ROOT)
            if len(set(raw["op_digests"])) != 1 or not all(raw["op_ok"]):
                fail_setup(f"{w} seed {s}: ops disagree or failed, not recording")
            table[str(s)] = raw["op_digests"][0]
            log(f"{w} seed {s}: {table[str(s)]}")
        golden[w] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


# ---- main -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", metavar="FIRST-LAST")
    a = ap.parse_args()
    if a.record_golden:
        record_golden(a.record_golden)
        return 0
    if a.workload is None:
        ap.error("--workload is required")

    release = build("release")
    gprof_bin = build("gprof")  # built up front so every later run is fast

    t0 = time.monotonic()
    raw, _ = run_runner(release, runner_args(a, a.trace == 1), ROOT)
    correct, failed, notes = check(raw, a.workload, a.seed)
    log("# env " + json.dumps(environment(a, raw), sort_keys=True))
    for n in notes:
        log("# " + n)
    log(f"# failed_frac {failed / raw['attempted']:.6f} ({failed}/{raw['attempted']} ops)")

    if a.trace == 0:
        metrics, info = end_to_end(raw)
        log("# " + info)
    else:
        if shutil.which("gprof") is None:
            fail_setup("gprof not found")
        workdir = BUILD / "trace" / f"{a.workload}-{a.seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        gmon = workdir / "gmon.out"
        if gmon.exists():
            gmon.unlink()
        gp_raw, gp_cpu = run_runner(gprof_bin, runner_args(a, True), workdir)
        gp_ok, _, gp_notes = check(gp_raw, a.workload, a.seed)
        if not gp_ok:
            correct = False
            for n in gp_notes:
                log("# gprof build: " + n)
        (workdir / "spans.json").write_text(json.dumps(raw.get("span_records", [])))
        layers, unattributed, top = gprof_layers(gprof_bin, workdir)
        metrics = per_layer(raw, gp_raw, gp_cpu, layers, unattributed)
        log(f"# traced: cpu {gp_cpu:.2f} s, gprof sampled "
            f"{metrics['trace.sampled_s']['value']:.2f} s, unattributed {unattributed:.2f} s")
        for self_s, layer, name in top:
            log(f"#   {self_s:7.2f} s  {layer:18s} {name}")
    log(f"# wall {time.monotonic() - t0:.1f} s")

    print(json.dumps({"correct": bool(correct), "attempted": int(raw["attempted"]),
                      "failed": int(failed), "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
