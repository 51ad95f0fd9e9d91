#!/usr/bin/env python3
"""Host-performance benchmark of the agentsim simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the simulator's layer archives from src/) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs one workload:

  --trace 0  end-to-end metrics from the untraced binary: requests_per_s,
             setup_s, peak_rss_mb (error_rate is printed beside them)
  --trace 1  per-layer metrics: the traced binary's layer self times and
             call counts, the simulated per-layer counts, and the tracing
             overhead against the untraced binary

Every unit run is checked: it must not fail, its simulated statistics
must repeat exactly across passes, it must keep the conservation
invariants, and at the default seed it must match reference.json. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is non-zero when any check
fails. --write-reference regenerates reference.json at the default seed.
See README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 2026
SETUP_PROBES = 6

# Entry points of the traced binary that each workload must reach, by
# layer. Their union covers every wrapped entry point.
BASE_ENTRIES = {
    "kv::BlockManager::allocatePrompt", "kv::BlockManager::appendToken",
    "kv::BlockManager::release", "llm::PerfModel::stepCost",
    "workload::makeTokens", "sim::EventQueue::push", "sim::EventQueue::pop",
}
AGENT_ENTRIES = BASE_ENTRIES | {"agents::PromptBuilder::build"}
WORKLOADS = {
    "agent_prefix": {"expect": AGENT_ENTRIES, "telemetry": False},
    "chat_short": {"expect": BASE_ENTRIES, "telemetry": False},
    "kv_pressure": {
        "expect": AGENT_ENTRIES | {"kv::BlockManager::parkChain",
                                   "kv::BlockManager::prefetchChain"},
        "telemetry": False,
    },
    "fleet_observed": {
        "expect": AGENT_ENTRIES | {
            "telemetry::TraceSink::complete",
            "telemetry::TraceSink::instant",
            "telemetry::TraceSink::counter",
            "telemetry::SpanCollector::child",
            "telemetry::SpanCollector::end",
            "telemetry::EngineSampler::record",
            "telemetry::SloTracker::observe",
        },
        "telemetry": True,
    },
}
LAYERS = ["kv", "workload", "agents", "llm", "sim", "telemetry"]


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


class Aborted(Exception):
    """A benchmark process died after set-up: the unit it was running
    failed, and the run has no metrics."""

    def __init__(self, message, reps):
        super().__init__(message)
        self.reps = reps


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure and build both binaries; return their dir."""
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", "4", "--target",
              "perfbench", "perfbench_traced"]]
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out


def run_binary(path, workload, seed, seconds, setup_only=False):
    """Run one benchmark process; return (set-up seconds, events)."""
    cmd = [str(path), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    events = []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            events.append(json.loads(line))
    timed = [e for e in events if e["event"] == "timed_start"]
    if proc.returncode != 0:
        message = (f"{path.name} {workload} exited with {proc.returncode}: "
                   f"{proc.stderr.strip()[-2000:]}")
        if not timed:
            raise BenchError(message)
        reps = reps_of(events)
        last = f"{reps[-1]['unit']} (pass {reps[-1]['pass']})" \
            if reps else "set-up"
        raise Aborted(f"aborted after {last}; {message}", reps)
    if not timed:
        raise BenchError(f"{path.name} printed no timed_start")
    # time.monotonic() and std::chrono::steady_clock both read
    # CLOCK_MONOTONIC on Linux.
    return timed[0]["steady_s"] - start, events


def invariant_errors(stats):
    """Conservation invariants a unit's statistics must keep."""
    errs = []
    if "ledger_gpu_s" in stats:
        busy, ledger = stats["busy_s"], stats["ledger_gpu_s"]
        if abs(ledger - busy) > 0.01 * busy:
            errs.append(f"cost ledger {ledger:.6g} GPU-s vs engine busy "
                        f"{busy:.6g} s (more than 1% apart)")
    if "kv.lookup_tokens" in stats and \
            stats["kv.hit_tokens"] > stats["kv.lookup_tokens"]:
        errs.append("kv.hit_tokens > kv.lookup_tokens")
    if "failed" in stats and \
            stats["completed"] + stats["failed"] != stats["offered"]:
        errs.append("completed + failed != offered")
    if stats.get("completed", 0) < 1:
        errs.append("no request completed")
    return errs


def check_reps(workload, seed, reps, reference):
    """Check every unit run; return (attempted, failed). Prints one line
    per failure naming the unit and field."""
    first = {}
    failed = 0
    ref = None
    if seed == DEFAULT_SEED:
        ref = (reference or {}).get("workloads", {}).get(workload, {})
    for rep in reps:
        unit, stats = rep["unit"], rep["stats"]
        errs = []
        if "error" in rep:
            errs.append(f"aborted: {rep['error']}")
        errs += invariant_errors(stats)
        if unit not in first:
            first[unit] = stats
        elif stats != first[unit]:
            diff = [k for k in stats if stats[k] != first[unit].get(k)]
            errs.append(f"not repeatable across passes: {diff}")
        if ref is not None:
            want = ref.get(unit)
            if want is None:
                errs.append("no reference values")
            else:
                for field in sorted(set(want) | set(stats)):
                    if stats.get(field) != want.get(field):
                        errs.append(f"{field} = {stats.get(field)!r}, "
                                    f"reference {want.get(field)!r}")
        if errs:
            failed += 1
            for e in errs:
                print(f"FAIL {workload} unit {unit} pass {rep['pass']}: {e}")
    return len(reps), failed


def fastest_walls(reps):
    """Each unit's fastest run. On a shared host, contention only adds
    time to a run: on a 4-vCPU VM, across eight 10 s runs of chat_short
    the per-unit medians spread by 26% (quartile distance over median),
    the minima by 4%."""
    walls = {}
    for rep in reps:
        walls.setdefault(rep["unit"], []).append(rep["wall_s"])
    return {u: min(w) for u, w in walls.items()}


def reps_of(events):
    return [e for e in events if e["event"] == "rep"]


def end_of(events):
    return next(e for e in events if e["event"] == "end")


def end_to_end(binaries, workload, seed, seconds):
    setups = [run_binary(binaries / "perfbench", workload, seed, 0, True)[0]
              for _ in range(SETUP_PROBES)]
    setup, events = run_binary(binaries / "perfbench", workload, seed,
                               seconds)
    setups.append(setup)
    reps = reps_of(events)
    walls = fastest_walls(reps)
    first = {}
    for rep in reps:
        first.setdefault(rep["unit"], rep["requests"])
    requests_per_s = sum(first.values()) / sum(walls.values())
    metrics = {
        "requests_per_s": (requests_per_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (end_of(events)["first_pass_peak_rss_kb"] / 1024.0,
                        "MB"),
    }
    print(f"{workload}: {len(walls)} units x {end_of(events)['passes']} "
          f"passes, {sum(first.values())} requests per pass")
    return metrics, reps


def per_layer(binaries, workload, seed, seconds):
    half = seconds / 2.0
    _, plain = run_binary(binaries / "perfbench", workload, seed, half)
    _, traced = run_binary(binaries / "perfbench_traced", workload, seed,
                           half)
    plain_reps, traced_reps = reps_of(plain), reps_of(traced)
    passes = end_of(traced)["passes"]
    trace = next(e for e in traced if e["event"] == "trace")
    entries = {e["entry"]: e for e in trace["entries"]}
    problems = []

    missing = [n for n, e in entries.items() if not e["present"]]
    if missing:
        problems.append(f"wrapped entry points missing from the build: "
                        f"{missing}")
    silent = sorted(n for n in WORKLOADS[workload]["expect"]
                    if entries.get(n, {}).get("calls", 0) == 0)
    if silent:
        problems.append(f"wrapped entry points never called: {silent}")

    wall = sum(r["wall_s"] for r in traced_reps) / passes

    def per_pass(v):
        return v / passes

    layer_self = {}
    layer_calls = {}
    for layer in LAYERS:
        es = [e for e in entries.values() if e["layer"] == layer]
        layer_self[layer] = per_pass(sum(e["self_ns"] for e in es)) / 1e9
        layer_calls[layer] = per_pass(sum(e["calls"] for e in es))
    other = wall - per_pass(trace["covered_ns"]) / 1e9
    accounted = sum(layer_self.values()) + other
    if abs(accounted - wall) > 0.01 * wall or other < 0:
        problems.append(f"self time not conserved: layers + other = "
                        f"{accounted:.6f} s vs traced wall {wall:.6f} s")
    if not WORKLOADS[workload]["telemetry"] and layer_calls["telemetry"]:
        problems.append(f"telemetry.calls = {layer_calls['telemetry']} "
                        f"on a workload with no observer")

    def ns_per_call(name):
        e = entries[name]
        return e["self_ns"] / e["calls"] if e["calls"] else 0.0

    first = {}
    for rep in traced_reps:
        first.setdefault(rep["unit"], rep["stats"])

    def total(key):
        return sum(s.get(key, 0) for s in first.values())

    lookup = total("kv.lookup_tokens")
    if lookup:
        hit_rate = total("kv.hit_tokens") / lookup
    else:  # cluster units report only the request-weighted hit rate
        hit_rate = statistics.mean(s["kv.hit_rate"] for s in first.values())

    plain_walls = fastest_walls(plain_reps)
    traced_walls = fastest_walls(traced_reps)
    overhead = (sum(traced_walls.values()) / sum(plain_walls.values())
                - 1.0) * 100.0

    def host(layer, self_name="self_s"):
        return {f"{layer}.{self_name}": (layer_self[layer], "s"),
                f"{layer}.share": (layer_self[layer] / wall, "ratio")}

    def calls(name):
        return per_pass(entries[name]["calls"])

    m = {
        "kv.calls": (layer_calls["kv"], "count"),
        **host("kv"),
        "kv.alloc_ns_per_call": (
            ns_per_call("kv::BlockManager::allocatePrompt"), "ns"),
        "kv.append_ns_per_call": (
            ns_per_call("kv::BlockManager::appendToken"), "ns"),
        "kv.release_ns_per_call": (
            ns_per_call("kv::BlockManager::release"), "ns"),
        "kv.lookup_tokens": (lookup, "tokens"),
        "kv.hit_rate": (hit_rate, "ratio"),
        "kv.evictions": (total("kv.evictions"), "blocks"),
        "kv.tier_demotions": (total("kv.tier_demotions"), "blocks"),
        "kv.restored_tokens": (total("kv.restored_tokens"), "tokens"),
        "workload.make_tokens_calls": (calls("workload::makeTokens"),
                                       "count"),
        "workload.tokens_made": (
            per_pass(entries["workload::makeTokens"]["work"]), "tokens"),
        **host("workload"),
        "agents.prompt_builds": (calls("agents::PromptBuilder::build"),
                                 "count"),
        **host("agents"),
        "llm.step_cost_calls": (calls("llm::PerfModel::stepCost"), "count"),
        **host("llm"),
        "sim.events": (calls("sim::EventQueue::pop"), "count"),
        **host("sim", "queue_self_s"),
        "serving.steps": (total("serving.steps"), "count"),
        "serving.preemptions": (total("serving.preemptions"), "count"),
        "serving.prefill_tokens": (total("serving.prefill_tokens"),
                                   "tokens"),
        "serving.decode_tokens": (total("serving.decode_tokens"), "tokens"),
        "telemetry.calls": (layer_calls["telemetry"], "count"),
        **host("telemetry"),
        "other.self_s": (other, "s"),
        "other.share": (other / wall, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
    }
    print(f"{workload}: traced {passes} passes, {wall:.4f} s per pass; "
          f"layers + other = {accounted:.6f} s")
    return m, plain_reps + traced_reps, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json at the default seed")
    args = ap.parse_args()
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    try:
        binaries = build()
        if args.write_reference:
            ref = {"seed": DEFAULT_SEED, "workloads": {}}
            for w in WORKLOADS:
                _, events = run_binary(binaries / "perfbench", w,
                                       DEFAULT_SEED, 0)
                ref["workloads"][w] = {r["unit"]: r["stats"]
                                       for r in reps_of(events)}
            REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
            print(f"wrote {REFERENCE}")
            return 0
        reference = (json.loads(REFERENCE.read_text())
                     if REFERENCE.exists() else None)
        if args.trace:
            metrics, reps, problems = per_layer(
                binaries, args.workload, args.seed, args.seconds)
        else:
            metrics, reps = end_to_end(binaries, args.workload, args.seed,
                                       args.seconds)
            problems = []
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    except Aborted as e:
        attempted, failed = check_reps(args.workload, args.seed, e.reps,
                                       reference)
        print(f"FAIL {args.workload}: {e}")
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1

    attempted, failed = check_reps(args.workload, args.seed, reps,
                                   reference)
    for p in problems:
        print(f"FAIL {args.workload}: {p}")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    for k in bad:
        print(f"FAIL {args.workload}: metric {k} is not finite")
    correct = failed == 0 and not problems and not bad
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} (failed units {failed} of "
          f"{attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None,
                        "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
