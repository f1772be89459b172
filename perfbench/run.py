#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a source tree.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake project that
compiles the library sources under src/) into .bench_build/perfbench, or
under $CARGO_TARGET_DIR when that is set; later calls only rebuild what
changed. The benchmark binary then runs one workload with one seed and
prints every metric by name, ending with one JSON result line. Lakes and
other working files live in .bench_work/ and are removed when the run
ends; a traced run (--trace 1) leaves its spans and obs snapshot in
.bench_out/. --self-test builds and runs the benchmark's own tests, which
feed every output check a corrupted answer.

Build output goes to stderr, so standard output carries only the
benchmark's report. The exit code is the benchmark's: 0 when every output
check passed, non-zero otherwise or when the build fails.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(target):
    """Configure once and build `target`; returns the binary's path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return None
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build tree.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        cmd = ["cmake", "--build", build_dir, "--target", target, "-j", str(nproc())]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    os.chdir(ROOT)
    binary = build("perfbench_check_test" if args.self_test else "perfbench")
    if binary is None:
        return 1
    if args.self_test:
        return subprocess.run([binary]).returncode

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--rev", source_rev()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
