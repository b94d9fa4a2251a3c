#!/usr/bin/env python3
"""Builds the library and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke     # every workload and check, reduced sizes

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; traced runs write their Chrome trace-event
JSON to <build>/traces/. The last line of standard output is the result JSON
the benchmark binary prints; build logs and tables go to standard error.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["train-gat-pubmed", "train-gat-reddit-k4", "serve-gcn-gat-mix"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result line.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def run(binary, args, timeout):
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {' '.join(args)} timed out after {timeout} s",
              file=sys.stderr)
        return 1, ""
    finally:
        # Also on SIGTERM: the benchmark never leaves its process behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload, traced and untraced, at reduced sizes")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required (or --smoke)")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)

    def args_for(workload, trace, seconds, smoke):
        args = ["--workload", workload, "--seed", str(a.seed), "--seconds",
                str(seconds), "--trace", str(trace)]
        if trace:
            args += ["--trace-out",
                     os.path.join(traces, f"{workload}-seed{a.seed}.json")]
        return args + (["--smoke"] if smoke else [])

    if a.smoke:
        status = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, out = run(binary, args_for(workload, trace, 2, True),
                                RUN_TIMEOUT_S)
                last = out.strip().splitlines()[-1] if out.strip() else "(no result)"
                print(f"{workload} trace={trace}: exit {code}: {last}")
                status = status or code
        return status

    code, out = run(binary, args_for(a.workload, a.trace, a.seconds, False),
                    RUN_TIMEOUT_S)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
