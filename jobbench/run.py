#!/usr/bin/env python3
"""Build and run the whole-job benchmark (see jobbench/NOTES.md).

usage, from the repository root:
    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--heldout-seed M]
    python3 jobbench/run.py --selftest

The solver library, fecim_solve and the jobbench executable are built from
source into .bench_build/jobbench (Release, the root CMakeLists' options).
Build output goes to stderr; jobbench's last stdout line is the result
object.  The exit status is the build's or jobbench's.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "jobbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "jobbench"], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"jobbench: build failed: {error}", file=sys.stderr)
        return 1
    work_dir = os.path.join(ROOT, ".bench_build", "jobbench-work")
    command = [os.path.join(BUILD, "jobbench"), *sys.argv[1:],
               "--work-dir", work_dir]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
