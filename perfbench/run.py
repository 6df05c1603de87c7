#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-large|sim-small|service-sweep \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (the benchmark and the `tpc_service`
daemon it spawns) into $CARGO_TARGET_DIR, `.bench_build` by default,
then runs the benchmark with the given arguments. The benchmark's last
line of standard output is its JSON result; the exit code is nonzero
when the build fails or any correctness check fails.
"""

import os
import signal
import subprocess
import sys

# The benchmark itself finishes well inside this; the limit only stops
# a wedged run, together with any daemon it spawned.
RUN_TIMEOUT_S = 170

# glibc allocator policy for the benchmark and every process it starts.
# By default glibc moves its mmap and trim thresholds as a process frees
# memory, and whether the simulator's freed tables are then reused or
# returned to the kernel and faulted in again differs from process to
# process: the same set-up took 0.04 s in some processes and 0.2-0.3 s
# in others. Fixed thresholds keep freed tables in the heap for reuse in
# every process, so timings do not switch between the two modes.
ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--daemon", os.path.join(release, "tpc_service")]
    proc = subprocess.Popen(command, env={**env, **ALLOCATOR_ENV},
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
