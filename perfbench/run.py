#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the simulator libraries, the
dynace-serve daemon and the perfbench binary (Release) into .bench_build/;
later calls only rebuild what changed. The binary's output is passed
through: its last line is the JSON result. Build output goes to
.bench_build/build.log and is shown only when the build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
# Whole-run deadline for one workload run; the build has its own.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def kill_run(sid):
    """SIGKILLs the run and every process it started: all share its sid
    (it is started with setsid), the dynace-serve daemon, which has a
    process group of its own, and the daemon's workers included."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            try:
                os.kill(int(entry), signal.SIGKILL)
            except OSError:
                pass


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "dynace-serve"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = None
                log.write("%s: %s\n" % (" ".join(cmd), e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail("build step failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    for needed in ("src/CMakeLists.txt", "tools/dynace-serve/dynace-serve.cpp"):
        if not os.path.isfile(needed):
            fail("no simulator sources here (%s is missing); run from the "
                 "root of a full checkout" % needed, 2)
    # Compilers and the run keep their temporary files inside the checkout.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    build()
    binary = os.path.join(BUILD_DIR, "perfbench")
    cmd = [binary] + args
    if "--selftest" not in args:
        cmd += ["--serve-bin", os.path.join(BUILD_DIR, "dynace-serve")]
    # Started with setsid, so a run that overstays its deadline is stopped
    # together with the daemon and workers it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_run(proc.pid)
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except KeyboardInterrupt:
        kill_run(proc.pid)
        proc.wait()
        raise
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
