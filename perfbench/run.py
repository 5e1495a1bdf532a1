#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload bst-read --seed 1 --seconds 30 --trace 0

Builds perfbench/ (its own CMake project, optimised) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
arithmetic self-test, then runs the benchmark. Its stdout passes through:
a host-context line, then the result object as the last line. With
--trace 1 the Chrome trace of the traced run is written next to the build
as trace-<workload>-<seed>.json. Any build, self-test or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def call(command, timeout, stdout=sys.stderr):
    """Run `command` in its own process group; on a timeout or any error
    the whole group (a build's compilers too) is killed and reaped."""
    proc = subprocess.Popen(command, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, command)
    return output


def build(out):
    if not os.path.exists(os.path.join(out, "Makefile")):
        call(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             BUILD_TIMEOUT_S)
    call(["cmake", "--build", out, "-j", "4"], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
        call([os.path.join(out, "perfbench_selftest")], RUN_TIMEOUT_S)
        command = [os.path.join(out, "perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            command += ["--trace-out", os.path.join(
                out, "trace-%s-%d.json" % (args.workload, args.seed))]
        stdout = call(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except (OSError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: no result line in the output", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
