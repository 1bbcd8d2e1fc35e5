#!/usr/bin/env python3
"""Build and run the ftmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds the
libraries, the `ftmc` CLI and the ftmc_perfbench driver from source into
.bench_build/ (Release); later calls rebuild incrementally.  Each run gets a
fresh scratch directory under .bench_run/ (system files, stores, access
logs), removed afterwards.  The driver's stdout passes through: a context
line, then the result line {"correct", "attempted", "failed", "metrics"}.
The exit code is the driver's (non-zero when a correctness gate fails), or
1 when the build fails or the run exceeds its time limit or is interrupted;
then the driver and every process it started are killed.  See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("dse-dtlarge", "campaign-dtmed-2w", "serve-cruise-warm")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                  "--target", "ftmc_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def interrupt(signum, frame):
    """SIGTERM handler: unwinds like Ctrl-C, so the driver is stopped."""
    raise KeyboardInterrupt


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    run_dir = os.path.join(RUNS, "%s-%d-%d-%d" % (args.workload, args.seed,
                                                  args.trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    command = [os.path.join(BUILD, "ftmc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir]
    # Its own process group, so a timeout or an interrupt also stops the
    # `ftmc serve` daemons and workers the driver started.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    signal.signal(signal.SIGTERM, interrupt)
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt) as error:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        print("perfbench: run %s" % (
            "interrupted" if isinstance(error, KeyboardInterrupt)
            else "exceeded %d s" % RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(stdout)
        print("perfbench: the driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(stdout)
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
