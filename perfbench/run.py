#!/usr/bin/env python3
"""Run one workload of the repository benchmark, or all of them.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Builds bin/renamed.exe and
perfbench/perfbench.exe from source into .bench_build/ (release profile,
dune cache off, so nothing is written outside the checkout), then runs
the workload.  The last line of standard output is the JSON result;
with "all", each run prints its own, and the exit code is the worst.
Build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve_open", "serve_closed", "serve_journal", "sim_trials")
# The closed loops run the generator and the daemon on one CPU.  Left to
# the scheduler on a 2-vCPU host they are bistable: about 350k or about
# 150k acquires/s, each regime lasting tens of seconds, as cross-CPU
# wakeups turn cheap or dear.  On one CPU they repeat within ~1%.
ONE_CPU = ("serve_closed", "serve_journal")
BUILD = os.path.join(".bench_build", "dune")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    os.makedirs(".bench_build", exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD),
           "--profile", "release", "./bin/renamed.exe", "./perfbench/perfbench.exe"]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed", 3)


def run_one(workload, seed, seconds, trace, rev, nproc):
    """Run one workload; returns its exit code."""
    exe = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
    renamed = os.path.join(BUILD, "default", "bin", "renamed.exe")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--renamed", renamed, "--rev", rev, "--nproc", str(nproc)]
    pin = None
    if workload in ONE_CPU:
        cpu = min(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})
    # A new process group, so a timeout can take the daemon down with the benchmark.
    proc = subprocess.Popen(cmd, start_new_session=True, preexec_fn=pin)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 4)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(
        description="One workload, or 'all': every workload untraced, then traced.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.workload != "all" and a.trace is None:
        ap.error("--trace is required for a single workload")
    for f in ("dune-project", os.path.join("bin", "renamed.ml"), os.path.join("lib", "service")):
        if not os.path.exists(f):
            fail("not a source checkout (missing %s); run from the repository root" % f)
    build()
    rev, nproc = git_rev(), len(os.sched_getaffinity(0))
    if a.workload != "all":
        sys.exit(run_one(a.workload, a.seed, a.seconds, a.trace, rev, nproc))
    codes = [run_one(w, a.seed, a.seconds, t, rev, nproc) for t in (0, 1) for w in WORKLOADS]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
