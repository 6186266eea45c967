#!/usr/bin/env python3
"""Build and run the hecmine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (the hecmine libraries plus the benchmark binary, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The binary is then run twice with --setup-only
and once for real; the real run folds the three set-up times into the
median it reports as setup_s. Its output, whose last line is the JSON
result, is passed through unchanged. --self-test builds and runs the tests
of the benchmark's own logic instead.

Build output goes to stderr. Exit codes: the binary's, or 2 when the
sources or the toolchain are missing or the build fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("price-symmetric", "price-profile", "pool-scale", "campaign-live")
SETUP_REPEATS = 2  # extra set-up-only processes; the real run adds one more


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(REPO, root, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(REPO, "src", "core", "CMakeLists.txt")):
        fail(f"no hecmine sources under {REPO}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    # Compiler temporaries and anything else that honours TMPDIR stay in
    # the build tree.
    os.environ["TMPDIR"] = os.path.join(out, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target", *targets])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return out


def setup_sample(binary, args):
    proc = subprocess.run([binary, *args, "--setup-only"], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("set-up run failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    if opts.self_test:
        out = build(["perfbench_tests"])
        tests = os.path.join(out, "perfbench_tests")
        if not os.path.isfile(tests):
            fail("GoogleTest not found; perfbench_tests was not built")
        return subprocess.run([tests], cwd=out).returncode

    if opts.workload is None or opts.seed is None or opts.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    out = build(["hecmine_perfbench"])
    binary = os.path.join(out, "hecmine_perfbench")
    work = os.path.join(out, f"run-{os.getpid()}")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace,
            "--reference-dir", os.path.join(HERE, "reference"),
            "--work-dir", work]
    try:
        samples = [setup_sample(binary, args) for _ in range(SETUP_REPEATS)]
        run_args = [*args, "--setup-samples", ",".join(map(repr, samples))]
        if opts.trace == "1":
            run_args += ["--trace-out", os.path.join(
                out, "traces", f"{opts.workload}-seed{opts.seed}.json")]
        sys.stdout.flush()
        return subprocess.run([binary, *run_args]).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
