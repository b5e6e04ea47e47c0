#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 fjbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else to .bench_build; the first run compiles the library and the driver
(about a minute on 4 cores), later runs reuse the build. The driver's
output is passed through; its last line is the JSON result. The exit code
is non-zero when the build fails, a response check fails or the result
line is missing.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    log_path = os.path.join(build_dir, "fjbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "fjbench", "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("fjbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "fjbench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n")
    last = out.splitlines()[-1] if out else ""
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if result is None:
        sys.stdout.write(out + "\n")
        sys.stderr.write("fjbench: no result line (exit %d)\n" % proc.returncode)
        return proc.returncode or 3
    sys.stdout.write(out + "\n")
    if proc.returncode != 0 or not result.get("correct"):
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
