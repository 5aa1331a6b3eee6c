#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/perfbench.exe with dune,
runs it in its own process group, relays its output (the last stdout line
is the JSON result) and exits with its code. Whatever the benchmark leaves
running in its process group is killed and waited for before this exits.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(code)


def reap_group(pgid):
    """Kill every process left in the group and wait until none is left."""
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
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", 3)

    # a terminated wrapper still reaps the benchmark's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        reap_group(proc.pid)
        # the scratch directory of a run that was killed before its cleanup
        shutil.rmtree(os.path.join(".bench_out", "tmp-%d" % proc.pid),
                      ignore_errors=True)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
