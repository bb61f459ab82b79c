#!/usr/bin/env python3
"""Wall-clock benchmark of the PREMA reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_driver (perfbench/CMakeLists.txt,
which compiles ../src) into .bench_build/perfbench, runs one workload for the
given time, checks its outputs, prints every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The run's
envelope (compiler, build type, cores, git sha, seed, workload) and metrics
are also written to .bench_build/perfbench/result-<workload>-trace<t>.json.
Workloads and metrics are documented in perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 2003
DRIVER_TIMEOUT_S = 170

# Workload name -> why it was chosen, from BENCHMARK.json.
WORKLOADS = {w["name"]: w["why"]
             for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}

# name -> unit, in the order they are printed.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
CALLBACKS = ("on_poll", "on_message", "on_work_arrived", "on_gossip")
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    **{f"fig.{p}_s": "s" for p in "abcdef"},
    "dmcs.msgs": "count",
    "dmcs.bytes": "bytes",
    "dmcs.pingpong_ns.sim": "ns",
    "dmcs.pingpong_us.thread": "us",
    "dmcs.timer_lag_ms.p50": "ms",
    "dmcs.timer_lag_ms.p99": "ms",
    "mol.migrations": "count",
    "mol.migrations_per_unit": "ratio",
    **{k: u for cb in CALLBACKS for k, u in ((f"ilb.{cb}.calls", "count"), (f"ilb.{cb}.ns", "ns"))},
    "ilb.policy_s": "s",
    "ilb.policy_share": "ratio",
    "ilb.policy_msgs": "count",
    "ilb.poll_wakeups": "count",
    "ilb.sfc_cuts": "count",
    "ilb.migrations_per_policy_msg": "ratio",
    "prema.term_waves": "count",
    "prema.handler_s": "s",
    "service.arrivals": "count",
    "service.completions": "count",
    "service.arrival_shortfall": "ratio",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p99": "ms",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def percentile(samples, q):
    """Percentile by linear interpolation between order statistics, clamped to
    the observed max. Returns (value, n, supported); a quantile is supported
    only when at least 10 samples lie beyond it."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0, False
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = min(s[lo] + (s[hi] - s[lo]) * (pos - lo), s[-1])
    return value, n, n - math.ceil(q * n) >= 10


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_driver"


def run_driver(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    return json.loads(stdout)


def git_sha():
    """HEAD's sha read from .git without running git (the benchmark reads only
    inside its checkout); "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted}")


OUTCOME_KEYS = ("makespan", "migrations", "executed", "audit_ok")


def check_sim(raw, checks):
    reference = json.loads((HERE / "reference.json").read_text())[raw["workload"]]
    units = raw["nprocs"] * raw["units_per_proc"]
    first = {}
    for call in raw["calls"]:
        panel = call["panel"]
        checks.check(call["audit_ok"] and call["executed"] == units,
                     f"panel ({panel}) audit")
        # The emulator is deterministic: every sweep repeats the first.
        first.setdefault(panel, call)
        for k in OUTCOME_KEYS:
            checks.check(call[k] == first[panel][k], f"panel ({panel}) {k} differs between sweeps")
        if raw["seed"] == REFERENCE_SEED:
            for k in OUTCOME_KEYS:
                checks.check(call[k] == reference[panel][k],
                             f"panel ({panel}) {k} {call[k]!r} != reference {reference[panel][k]!r}")
        if "traced" in call:
            for k in OUTCOME_KEYS:
                checks.check(call["traced"][k] == call[k],
                             f"panel ({panel}) traced {k} differs from run_synthetic")


def check_service(raw, checks):
    for w in raw["windows"]:
        # Every injected request is an attempt; one never completed failed.
        checks.count(w["arrivals"], max(0, w["arrivals"] - w["completions"]),
                     "requests not completed")
        checks.check(w["completions"] == len(w["sojourn_ms"]), "sojourn sample count")
        checks.check(w["ledger_arrivals"] == w["arrivals"], "ledger arrivals != sink arrivals")
        checks.check(w["audit_ok"], "shard census")
        checks.check(w["arrivals"] <= w["scheduled_arrivals"], "more arrivals than scheduled")
        if w["traced"]:
            checks.check(w["mirror_mismatches"] == 0, "arrival mirror out of step")
            checks.check(w["trace_arrivals"] == w["arrivals"], "trace arrivals != sink arrivals")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def latency_metrics(samples_ms, metrics, notes, label):
    for q, name in ((0.50, "latency_p50_ms"), (0.99, "latency_p99_ms")):
        v, n, ok = percentile(samples_ms, q)
        metrics[name] = v
        notes[name] = f"n={n} {label}" + ("" if ok else ", unsupported: <10 samples beyond")


def sim_end_to_end(raw, metrics, notes):
    sweeps = raw["sweep_walls_s"]
    units_per_sweep = sum(c["executed"] for c in raw["calls"]) / len(sweeps)
    metrics["wall_s"] = median(sweeps)
    notes["wall_s"] = f"median of {len(sweeps)} sweeps"
    metrics["work_per_s"] = median([units_per_sweep / w for w in sweeps])
    notes["work_per_s"] = "work units executed per sweep second"
    # Panels differ by design, so each panel's calls are first reduced to
    # their median; the percentiles then run over the workload's panels.
    panels = {}
    for c in raw["calls"]:
        panels.setdefault(c["panel"], []).append(c["wall_s"] * 1e3)
    latency_metrics([median(v) for v in panels.values()], metrics, notes,
                    f"panels, each the median of {len(sweeps)} run_synthetic calls")


def service_end_to_end(raw, metrics, notes):
    w = raw["windows"][0]
    metrics["wall_s"] = w["wall_s"]
    notes["wall_s"] = f"one run_service call, window {w['window_s']:g} s + drain"
    metrics["work_per_s"] = w["completions"] / w["window_s"]
    notes["work_per_s"] = f"completions per window second, offered {raw['offered_rps']:.1f}"
    latency_metrics(w["sojourn_ms"], metrics, notes, "request sojourns (exact samples)")
    shortfall = 1.0 - w["arrivals"] / w["scheduled_arrivals"]
    notes["arrival_shortfall"] = (f"{shortfall:.4f} (injected {w['arrivals']} of "
                                  f"{w['scheduled_arrivals']} scheduled)")


def layer_defaults(raw):
    m = {name: 0.0 for name in PER_LAYER}
    m["dmcs.pingpong_ns.sim"] = raw["pingpong_sim_ns"]
    m["dmcs.pingpong_us.thread"] = raw["pingpong_thread_us"]
    return m


def add_policy_layers(m, parts, sweeps, run_wall_s):
    """Callback counts and self times summed over `parts` (traced calls or
    windows), reported per sweep."""
    policy_self = 0.0
    for cb in CALLBACKS:
        calls = sum(p[cb]["calls"] for p in parts)
        self_s = sum(p[cb]["self_s"] for p in parts)
        policy_self += self_s
        m[f"ilb.{cb}.calls"] = calls / sweeps
        m[f"ilb.{cb}.ns"] = self_s / calls * 1e9 if calls else 0.0
    m["ilb.policy_s"] = policy_self / sweeps
    m["ilb.policy_share"] = policy_self / run_wall_s
    for key, name in (("policy_msgs", "ilb.policy_msgs"), ("poll_wakeups", "ilb.poll_wakeups"),
                      ("sfc_cuts", "ilb.sfc_cuts"), ("msgs", "dmcs.msgs"),
                      ("bytes", "dmcs.bytes"), ("term_waves", "prema.term_waves"),
                      ("migrations", "mol.migrations"), ("handler_s", "prema.handler_s")):
        m[name] = sum(p[key] for p in parts) / sweeps
    policy_msgs = sum(p["policy_msgs"] for p in parts)
    m["ilb.migrations_per_policy_msg"] = (
        sum(p["migrations"] for p in parts) / policy_msgs if policy_msgs else 0.0)
    return policy_self


def sim_per_layer(raw):
    m = layer_defaults(raw)
    sweeps = len(raw["sweep_walls_s"])
    for p in "abcdef":
        walls = [c["wall_s"] for c in raw["calls"] if c["panel"] == p]
        if walls:
            m[f"fig.{p}_s"] = median(walls)
    traced = [c["traced"] for c in raw["calls"] if "traced" in c]
    run_wall = sum(t["run_wall_s"] for t in traced)
    policy_self = add_policy_layers(m, traced, sweeps, run_wall)
    events = sum(t["events"] for t in traced)
    m["sim.events"] = events / sweeps
    m["sim.ns_per_event"] = (run_wall - policy_self - sum(t["handler_s"] for t in traced)) \
        / events * 1e9
    m["mol.migrations_per_unit"] = sum(t["migrations"] for t in traced) / sum(
        t["units"] for t in traced)
    untraced = sum(c["wall_s"] for c in raw["calls"] if "traced" in c)
    m["trace.overhead_pct"] = (sum(t["call_wall_s"] for t in traced) - untraced) / untraced * 100
    return m


def service_per_layer(raw):
    m = layer_defaults(raw)
    base, traced = raw["windows"]
    add_policy_layers(m, [traced], 1, traced["wall_s"])
    m["mol.migrations_per_unit"] = traced["migrations"] / max(1, traced["completions"])
    m["dmcs.timer_lag_ms.p50"] = percentile(traced["timer_lag_ms"], 0.50)[0]
    m["dmcs.timer_lag_ms.p99"] = percentile(traced["timer_lag_ms"], 0.99)[0]
    m["service.arrivals"] = traced["trace_arrivals"]
    m["service.completions"] = traced["completions"]
    m["service.arrival_shortfall"] = 1.0 - traced["arrivals"] / traced["scheduled_arrivals"]
    m["service.wait_ms.p50"] = percentile(traced["wait_ms"], 0.50)[0]
    m["service.wait_ms.p99"] = percentile(traced["wait_ms"], 0.99)[0]
    cpu_per_request = [w["cpu_s"] / max(1, w["completions"]) for w in (base, traced)]
    m["trace.overhead_pct"] = (cpu_per_request[1] / cpu_per_request[0] - 1.0) * 100
    return m


# ---------------------------------------------------------------------------

def parse_args():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main():
    args = parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: the program's sources ({ROOT / 'src'}) are missing")
        return 1
    try:
        binary = build()
        raw = run_driver(binary, args)
    except (subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    checks = Checks()
    metrics, notes = {}, {}
    sim = raw["workload"] != "service-thread"
    (check_sim if sim else check_service)(raw, checks)
    if args.trace:
        metrics = sim_per_layer(raw) if sim else service_per_layer(raw)
        units = PER_LAYER
    else:
        (sim_end_to_end if sim else service_end_to_end)(raw, metrics, notes)
        metrics["setup_s"] = raw["setup_s"]
        notes["setup_s"] = "median of repeated machine + runtime construction"
        metrics["peak_rss_mb"] = raw["peak_rss_mb"]
        units = END_TO_END

    print(f"perfbench {args.workload}  seed {args.seed}  {args.seconds} s  trace {args.trace}")
    print(f"  why: {WORKLOADS[args.workload]}")
    print(f"  build: {raw['compiler']}, {raw['build_type']}, {os.cpu_count()} cores, "
          f"git {git_sha()}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}{note}")
    if "arrival_shortfall" in notes:
        print(f"  {'arrival_shortfall':32s} {notes['arrival_shortfall']}")
    print(f"  checks: {checks.attempted - checks.failed}/{checks.attempted} passed, "
          f"failed_frac {checks.failed / checks.attempted:.6g}")
    for n in checks.notes[:20]:
        print(f"  FAILED: {n}")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    envelope = {
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "compiler": raw["compiler"],
        "build_type": raw["build_type"], "cores": os.cpu_count(), "git_sha": git_sha(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "notes": notes,
        **result,
    }
    out = build_dir() / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(envelope, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
