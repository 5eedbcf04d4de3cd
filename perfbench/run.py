#!/usr/bin/env python3
"""Builds the benchmark and the schedtaskd daemon from source, then runs
one workload and relays its result.

    python3 perfbench/run.py --workload sim_fig7|fleet_hot|fleet_cold \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Build output goes to CARGO_TARGET_DIR
(default .bench_build); fleet cache directories and span files go under
its perfbench-tmp/. The last line of standard output is the result JSON.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("sim_fig7", "fleet_hot", "fleet_cold")
# One run must finish within 180 s once built; leave room for cleanup.
RUN_TIMEOUT_S = 170


def build(root, env):
    for cmd in (
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--offline", "--release", "--quiet",
         "-p", "schedtask-serve", "--bin", "schedtaskd"],
    ):
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def reap_group(pgid):
    """Kills whatever is left of the benchmark's process group and waits
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(root, env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(release, "schedtaskd"),
        "--tmp-dir", os.path.join(target, "perfbench-tmp"),
    ]
    # A terminated driver still reaps the group (via the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Its own session, so every daemon it starts can be reaped as a group.
    # Pinned to one CPU, which the daemons inherit: on a 2-vCPU VM,
    # cross-CPU wake-ups made the fleet's round trip drift between two
    # speeds from one moment to the next.
    cpu = min(os.sched_getaffinity(0))
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        reap_group(child.pid)
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
