#!/usr/bin/env python3
"""Host wall-clock benchmark of the IMPACC runtime.

    python3 hostbench/run.py --workload jacobi_titan|storm_psg|coll_psg
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds the impacc library and the benchmark
binaries from source into .bench_build/hostbench, then runs the benchmark in
separate processes: the functional twins (check), then for --seconds
alternating processes of empty launches (setup) and of one timed launch
each (timed; their peak RSS is peak_rss_mb), or with --trace 1 the
per-layer run (traced), which also writes a Chrome-trace span file.

Prints each metric with its unit, a provenance line, and as the last line
one JSON object {"correct", "attempted", "failed", "metrics"}. Refuses to
run (exit 2, no result) while any IMPACC_* variable is set or when the build
fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "hostbench")
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("jacobi_titan", "storm_psg", "coll_psg")
# Scheduler workers pinned for every launch (capped at the host's cores).
WORKERS = 2
CHILD_TIMEOUT_S = 170
MIN_TIMED_LAUNCHES = 3
# Empty launches per set-up process, in seconds (at least 3 launches).
SETUP_PROCESS_S = 0.1


def die(msg):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH, "-B", BUILD,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")


def pinned_cpus(workers):
    """The last `workers` CPUs this process may use. Pinning the timed
    processes there stops the guest scheduler migrating the workers, which
    roughly halves the run-to-run spread on a shared VM; CPU 0 takes most
    interrupts, hence the last ones."""
    return sorted(os.sched_getaffinity(0))[-workers:]


def run_child(mode, args, workers, seconds, extra=(), cpus=None):
    """Run one hostbench mode, on `cpus` if given; returns (report, peak RSS
    in KiB)."""
    cmd = [os.path.join(BUILD, "hostbench"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--workers", str(workers), *extra]
    pin = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            preexec_fn=pin)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{mode} exited with {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss


def interleaved(args, workers, cpus):
    """Alternate set-up processes and timed processes until --seconds have
    passed (at least MIN_TIMED_LAUNCHES timed ones), so both sample the
    same stretch of host time. Returns (setup reports, timed reports, peak
    RSS in KiB of each timed process)."""
    setup, timed, rss_kib = [], [], []
    end = time.monotonic() + args.seconds
    while len(timed) < MIN_TIMED_LAUNCHES or time.monotonic() < end:
        setup.append(run_child("setup", args, workers, SETUP_PROCESS_S,
                               cpus=cpus)[0])
        report, kib = run_child("timed", args, workers, args.seconds,
                                cpus=cpus)
        timed.append(report)
        rss_kib.append(kib)
    return setup, timed, rss_kib


def series(reports, name):
    return [v for r in reports for v in r["series"].get(name, [])]


def median_metric(values, unit):
    return {"value": statistics.median(values) if values else 0.0,
            "unit": unit}


def src_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")
    leaked = sorted(k for k in os.environ if k.startswith("IMPACC_"))
    if leaked:
        die("refusing to run with " + ", ".join(leaked) +
            " set: they change what the runtime does")

    build()
    nproc = os.cpu_count() or 1
    workers = min(WORKERS, nproc)
    cpus = pinned_cpus(workers)
    reports = [run_child("check", args, workers, args.seconds, cpus=cpus)[0]]
    if args.trace:
        trace_path = os.path.join(BUILD, f"trace_{args.workload}.json")
        traced, _ = run_child("traced", args, workers, args.seconds,
                              ("--trace-out", trace_path))
        reports.append(traced)
        metrics = dict(traced["metrics"])
        provenance_series = traced["series"]
    else:
        setup, timed, rss_kib = interleaved(args, workers, cpus)
        reports += setup + timed
        metrics = {
            "wall_s": median_metric(series(timed, "wall_s"), "s"),
            "ops_per_s": median_metric(series(timed, "ops_per_s"), "1/s"),
            "vtime_ms": median_metric(series(timed, "vtime_ms"), "sim_ms"),
            "setup_s": median_metric(series(setup, "setup_s"), "s"),
            "peak_rss_mb": median_metric([k / 1024 for k in rss_kib], "MB"),
        }
        provenance_series = {
            name: series(reports, name)
            for name in ("setup_s", "wall_s", "vtime_ms", "ops_per_s")}
        provenance_series["peak_rss_mb"] = [k / 1024 for k in rss_kib]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [why for r in reports for why in r["failures"]]
    for name, m in metrics.items():
        # A non-finite value reaches here as JSON null.
        if not isinstance(m["value"], (int, float)):
            m["value"] = 0.0
            attempted += 1
            failed += 1
            failures.append(f"{name} is not a finite number")
    for why in failures:
        print(f"hostbench: FAILED {why}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_digest": src_digest(),
        "build_type": BUILD_TYPE, "workers": workers, "nproc": nproc,
        "pinned_cpus": None if args.trace else cpus,
        "series": provenance_series,
    }
    for name, m in sorted(metrics.items()):
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results",
                           f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"provenance": provenance, **result}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
