#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; build output goes to stderr so that the last line
of stdout stays the benchmark's JSON result. Exits nonzero, printing no
result, when the sources are missing or the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-sgd", "train-scd", "serve-carried", "serve-keyed-churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT}")
    if not (out_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out_dir / "perfbench"


def source_digest():
    """sha256 over the program and benchmark sources, for the fingerprint
    (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".py", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update((ROOT / "CMakeLists.txt").read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--src-digest", source_digest(),
           "--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=str(ROOT))

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        fail(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"{args.workload} exited with code {code}")


if __name__ == "__main__":
    main()
