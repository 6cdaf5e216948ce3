#!/usr/bin/env python3
"""Build and run the tdg application benchmark (see README.md here).

Run from the repository root:

    python3 appbench/run.py --workload lulesh_rediscover --seed 1 \
        --seconds 20 --trace 0
    python3 appbench/run.py --self-test

The first call configures and builds the runtime and the driver from source
into .bench_build/appbench (RelWithDebInfo); later calls only re-check the
build. The last line of standard output is the driver's JSON result; build
output goes to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "appbench")
BINARY = os.path.join(BUILD, "appbench")
WORKLOADS = ["lulesh_rediscover", "lulesh_ptsg", "cholesky_tiles", "halo_mpi"]
# A run measures for --seconds; the reference solve, warm-up and the last
# operation come on top. Past this the driver is killed and no result is
# printed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg, code=2):
    print("appbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "runtime.hpp")):
        fail("runtime sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "appbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            fail("build step %s exited with %d" % (cmd[:2], rc))


def source_id():
    """git sha when the tree is a git checkout, else a digest of the sources
    the benchmark compiles, so every result names the code it measured."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def run_driver(args):
    # TDG_* variables reconfigure the runtime (metrics, tracing, faults,
    # verification); the benchmark measures the default configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TDG_")}
    proc = subprocess.Popen([BINARY] + args, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver exceeded %d s and was killed" % RUN_TIMEOUT_S, 3)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check count repeatability and the result checks")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    build()
    if a.self_test:
        failed = 0
        for w in [a.workload] if a.workload else WORKLOADS:
            failed += run_driver(["--self-test", "--workload", w,
                                  "--seed", str(a.seed)]) != 0
        print("self-test: %s" % ("FAILED" if failed else "passed"))
        return 1 if failed else 0
    return run_driver(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace),
                       "--source-id", source_id()])


if __name__ == "__main__":
    sys.exit(main())
