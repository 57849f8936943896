#!/usr/bin/env python3
"""Build and run the end-to-end diagnosis benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-burst --seed 1 --seconds 10 --trace 0

Workloads: paper-burst, flow-accuse, scale-churn. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced replay.
The benchmark is built from source with dune (build output goes to
standard error); the last line of standard output is one JSON object.
The exit code is the benchmark's: non-zero when the build fails or a
correctness gate fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "bench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
# The program under test and the benchmark's own package.
REQUIRED = ["dune-project", "lib", os.path.join("perfbench", "dune-project")]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(command, timeout, stdout):
    process = subprocess.Popen(command, cwd=ROOT, stdout=stdout)
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        fail("%s timed out after %d s" % (command[0], timeout))
    except BaseException:
        process.kill()
        process.wait()
        raise


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def main():
    missing = [path for path in REQUIRED if not os.path.exists(os.path.join(ROOT, path))]
    if missing:
        fail("run from the repository root; missing: " + ", ".join(missing))
    build = dune_command() + ["build", "--root", ".", "./perfbench/bin/bench.exe"]
    # Build chatter goes to stderr: the last stdout line belongs to the benchmark.
    if run(build, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("build failed")
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, None))


if __name__ == "__main__":
    main()
