#!/usr/bin/env python3
"""Build the cluster benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under that root; traced runs also write their
spans there, under spans/. The last line of stdout is the JSON
result; build output goes to stderr. Exits non-zero when the build
fails, the sources are missing, or the run is not correct.
"""
import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"run.py: {' '.join(cmd)} exceeded {timeout} s")
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S,
        )
        if code != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, _ = run(
        ["cmake", "--build", build_dir, "--target", "cluster_bench", "-j", jobs],
        BUILD_TIMEOUT_S,
    )
    if code != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "cluster_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = os.path.join(build_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out",
                    os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
