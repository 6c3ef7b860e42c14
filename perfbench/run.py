#!/usr/bin/env python3
"""End-to-end benchmark of the imprecise-OLAP library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (and with it the
library under src/) into .bench_build/perfbench, runs one workload in a
fresh runner process, checks its outputs and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (the runner then also runs a traced
phase whose Chrome trace this script turns into per-layer span times).
A human-readable summary and the host fingerprint go to stderr, and the
full record is kept under .perfbench/results/<workload>/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
# Everything after the build must finish within this many seconds.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 840

# Span-name prefixes whose self time the traced run reports per operation.
LAYER_PREFIXES = ["bench", "alloc", "transitive", "sort", "serve", "maint",
                  "synopsis", "exec"]
# The benchmark-side spans that mark a workload's measured operation.
ALLOC_OP_SPANS = {"bench.allocator_run"}
READ_OP_SPANS = {"bench.aggregate", "bench.rollup", "bench.bounded"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources at", ROOT / "src")
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed:", err)
            return None
        if proc.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return None
    return out / "perfbench_runner"


def cmake_cache(key):
    try:
        for line in (build_dir() / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def compiler():
    """Compiler id and version as CMake detected them."""
    for path in sorted((build_dir() / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split(" ", 1)[1].strip(' ")')
        if fields:
            return " ".join(fields.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def source_digest():
    """SHA-1 over the library sources: identifies the code without git."""
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True,
                               timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def filesystem(path):
    """Type of the filesystem holding `path`, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                parts = line.split()
                if len(parts) >= 3 and str(path).startswith(parts[1]) \
                        and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(load_at_start):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "git_sha": git_sha(),
        "src_sha1": source_digest(),
        "filesystem": filesystem(STATE),
        "loadavg_1m_at_start": load_at_start,
        "kernel": platform.release(),
    }


def self_times(events):
    """Per span name of complete ("X") events: (count, total duration,
    total self time) in us.

    Spans nest by time on one thread; a span's self time is its duration
    minus the durations of its direct children.
    """
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    stats = {}
    for spans in by_tid.values():
        # Parents first: earlier start, and the longer span on a tie.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, event, child_us]

        def close(entry):
            _, ev, child = entry
            s = stats.setdefault(ev["name"], [0, 0, 0])
            s[0] += 1
            s[1] += ev["dur"]
            s[2] += max(0, ev["dur"] - child)

        for e in spans:
            while stack and e["ts"] >= stack[-1][0]:
                close(stack.pop())
            if stack:
                stack[-1][2] += e["dur"]
            stack.append([e["ts"] + e["dur"], e, 0])
        while stack:
            close(stack.pop())
    return stats


def load_spans(trace_path):
    """(span events, total event count) of a Chrome trace.

    The exporter writes one event per line, so counter samples are skipped
    without parsing them; any other layout is parsed whole.
    """
    spans, total = [], 0
    with open(trace_path) as trace:
        for line in trace:
            if not line.startswith('{"name"'):
                continue
            total += 1
            if '"ph":"X"' in line:
                spans.append(json.loads(line.rstrip().rstrip(",")))
    if total == 0:
        events = json.loads(Path(trace_path).read_text())["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        total = len(events)
    return spans, total


def trace_metrics(trace_path, workload, report_metrics):
    """Per-layer metrics derived from the traced phase's spans."""
    events, total = load_spans(trace_path)
    stats = self_times(events)
    op_spans = ALLOC_OP_SPANS if workload.startswith("alloc_") else READ_OP_SPANS
    ops = sum(stats.get(name, [0])[0] for name in op_spans) or 1
    out = {"trace.events": float(total), "trace.ops": float(ops)}
    for prefix in LAYER_PREFIXES:
        self_us = sum(s[2] for name, s in stats.items()
                      if name.split(".", 1)[0] == prefix)
        out[f"trace.self_ms_per_op.{prefix}"] = self_us / 1e3 / ops

    def seconds_per_op(name):
        return stats.get(name, [0, 0, 0])[1] / 1e6 / ops

    out["alloc.ccid_s"] = seconds_per_op("transitive.ccid")
    out["sort.run_gen_s"] = seconds_per_op("sort.run_gen")
    out["sort.merge_s"] = seconds_per_op("sort.merge")
    # The large components are the ones with the most tuples; the census
    # says how many there are.
    components = sorted((e for e in events if e.get("name") == "transitive.component"),
                        key=lambda e: -e.get("args", {}).get("tuples", 0))
    per_run = report_metrics.get("alloc.large_components", 0)
    runs = stats.get("bench.allocator_run", [0])[0]
    large = int(per_run * runs)
    out["alloc.large_component_s"] = sum(e["dur"] for e in components[:large]) / 1e6 / ops
    out["alloc.small_components_s"] = sum(e["dur"] for e in components[large:]) / 1e6 / ops
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        log("perfbench: cannot read BENCHMARK.json:", err)
        return 1
    load_at_start = os.getloadavg()[0]

    runner = build()
    if runner is None:
        return 1
    # Flush what the build (or anything before it) left dirty, so its
    # writeback does not land inside the measurement.
    os.sync()

    start = time.monotonic()
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report_path = work / "report.json"
    trace_path = work / "trace.json"
    cmd = [str(runner), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work={work}", f"--out={report_path}"]
    if args.trace:
        cmd.append(f"--trace-out={trace_path}")
    try:
        # run() kills the runner and waits for it on timeout.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_BUDGET_S)
        if proc.returncode != 0:
            log(f"perfbench: runner exited with {proc.returncode}")
            return 1
        report = json.loads(report_path.read_text())
        metrics = dict(report["metrics"])
        if args.trace:
            metrics.update(trace_metrics(trace_path, args.workload, metrics))
    except subprocess.TimeoutExpired:
        log(f"perfbench: runner ran past {RUN_BUDGET_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics["op_fail_frac"] = report["failed"] / max(1, report["attempted"])
    section = "per_layer" if args.trace else "end_to_end"
    # Metrics a workload does not exercise (alloc counters on a serve
    # workload, say) read 0.
    chosen = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                          "unit": m["unit"]}
              for m in spec[section]}
    result = {"correct": bool(report["correct"]),
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": chosen}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": time.monotonic() - start,
              "host": fingerprint(load_at_start),
              "notes": report.get("notes", []),
              "all_metrics": metrics, **result}
    results = STATE / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}")
    for note in record["notes"]:
        log("  note:", note)
    log("  host:", json.dumps(record["host"], sort_keys=True))
    for name, m in chosen.items():
        log(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
