#!/usr/bin/env python3
"""Builds the benchmark harness from the checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The harness is compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traces go to
.bench_out/. The last line of standard output is the result JSON object;
the exit code is non-zero when the build fails, the sources are missing or
any frame failed its correctness check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_frames_wire", "tenant_churn", "heat_t8b2", "heat_t8b4")
# One run must end within 180 s; the harness gets what the build left.
RUN_LIMIT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no sources at {ROOT / 'src'}: the benchmark builds the repository's code")
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return out / "perfbench"


def source_id():
    """The commit when the checkout is a git work tree (with "-dirty" when
    the compiled sources differ from it), else a digest of the sources the
    harness compiles."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            changed = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                      "--untracked-files=no", "--", "src", "perfbench"],
                                     capture_output=True, text=True, timeout=10)
            return head.stdout.strip() + ("-dirty" if changed.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for tree in (ROOT / "src", HERE):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def run_harness(binary, args, limit_s):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out"), "--commit", source_id()]
    try:
        return subprocess.run(cmd, timeout=limit_s).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {limit_s:.0f} s")
        return 5


def self_test(binary):
    """The gate must trip: a run whose golden references were corrupted
    has to report failed frames and exit non-zero."""
    failures = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", "7", "--seconds", "0.5",
             "--trace", "0", "--corrupt-golden"],
            capture_output=True, text=True, timeout=RUN_LIMIT_S)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        tripped = proc.returncode != 0 and not result["correct"] and result["failed"] > 0
        log(f"self-test {workload}: exit {proc.returncode}, {result['failed']} of "
            f"{result['attempted']} frames failed -> {'ok' if tripped else 'GATE DID NOT TRIP'}")
        failures += not tripped
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check on every workload that the correctness gate trips")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    binary = build()
    if args.self_test:
        return self_test(binary)
    return run_harness(binary, args, max(30.0, RUN_LIMIT_S - (time.monotonic() - start)))


if __name__ == "__main__":
    sys.exit(main())
