#!/usr/bin/env python3
"""Builds and runs the AugurV2 benchmark.

    python3 perfbench/run.py --workload gibbs-lda|hmc-hlr|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles
perfbench/ (the AugurV2 libraries from src/ plus the benchmark program)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only check that the build is current. Then it runs the workload: the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 1 reports per-layer metrics instead of the
end-to-end ones and writes the recorded spans next to the build.

Exits nonzero, without a result line, when the sources are missing or
the build fails, and nonzero when an output check fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gibbs-lda", "hmc-hlr", "serve-mix")
BUILD_TIMEOUT_S = 840
# Slack over --seconds for the last job's overshoot, checks and probes;
# a run that needs more is stuck and is killed.
RUN_SLACK_S = 120


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out after %d s: %s" % (timeout, " ".join(cmd)))
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no AugurV2 sources at %s/src; nothing to benchmark" % ROOT)
        return 1

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # Compilers and the native backend's host-cc runs put their temporary
    # files under TMPDIR; keep those inside the checkout.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(build_dir, env):
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    rc = run_group(cmd, args.seconds + RUN_SLACK_S, cwd=ROOT, env=env)
    return 1 if rc is None else rc


if __name__ == "__main__":
    sys.exit(main())
