#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the swft simulator.

Usage (from the repository root):

    python3 e2ebench/run.py --workload knee_16ary2 --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --pin     # re-pin result digests (see README.md)

Builds e2ebench/ (which compiles the library from src/) into
.bench_build/e2ebench, checks one point of the workload against the dense
reference engine in a separate process, then runs the measuring process:
untraced end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Prints one metadata line, then the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build and progress output goes to stderr. Exits non-zero without a result
when the sources are missing, the build fails or a process crashes.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "e2ebench"
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
PINNED = BENCH_DIR / "pinned_digests.txt"

WORKLOADS = ("knee_16ary2", "faultstorm_8ary3", "sparse_32ary3")
# Seeds whose per-point result digests are pinned in pinned_digests.txt.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# Every run must end within this many seconds (the build excepted).
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850

# Environment the simulator must not see: a stale cache or results store
# would turn a cold grid into cache hits, and SWFT_SCALE would resize runs.
SCRUBBED_ENV = ("SWFT_CACHE_DIR", "SWFT_RESULTS_DIR", "SWFT_SCALE")


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("e2ebench: no swft sources (CMakeLists.txt, src/) at " + str(ROOT))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "swft_e2ebench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    return BUILD_DIR / "swft_e2ebench"


def child_env():
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


def run_mode(binary, mode, args, scratch, deadline, extra=()):
    report = scratch / f"{mode}.json"
    cmd = [str(binary), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--scratch", str(scratch / mode), "--report", str(report),
           "--pinned", str(PINNED), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True, timeout=timeout)
    with open(report) as f:
        return json.load(f)


def src_stats():
    """Line count and content hash of src/ (the code identity when the
    checkout is not a git repository)."""
    lines = 0
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if not path.is_file() or path.suffix not in (".hpp", ".cpp"):
            continue
        data = path.read_bytes()
        lines += data.count(b"\n")
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
    return lines, h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def pin(binary):
    lines = ["# e2ebench pinned result digests: one line per grid point.",
             "# workload seed engine_semantics_version point_index label fnv1a64(serializeResult)",
             f"# Seeds: {DEFAULT_SEED} (default) and {HELD_OUT_SEED} (held out)."]
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            out = subprocess.run([str(binary), "--mode", "digests", "--workload", workload,
                                  "--seed", str(seed)],
                                 env=child_env(), capture_output=True, text=True, check=True)
            lines += [ln for ln in out.stdout.splitlines() if ln and not ln.startswith("#")]
    PINNED.write_text("\n".join(lines) + "\n")
    log(f"wrote {PINNED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pinned_digests.txt for the default and held-out seeds")
    args = ap.parse_args()
    if not args.pin and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    binary = build()
    if args.pin:
        pin(binary)
        return 0

    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        oracle = run_mode(binary, "oracle", args, scratch, deadline)
        if args.trace:
            spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            measured = run_mode(binary, "trace", args, scratch, deadline,
                                ("--spans", str(spans)))
            log(f"spans written to {spans}")
        else:
            measured = run_mode(binary, "grid", args, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = oracle["attempted"] + measured["attempted"]
    failed = oracle["failed"] + measured["failed"]
    metrics = dict(measured["metrics"])
    if args.trace:
        metrics["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    lines, src_hash = src_stats()
    scalar = os.environ.get("SWFT_FORCE_SCALAR", "")
    meta = dict(measured["meta"])
    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_lines": lines,
        "src_sha256": src_hash,
        "swft_force_scalar": scalar,
        "simd_mode": "scalar" if scalar not in ("", "0") else "vector",
        "digests_pinned": measured["pinned"],
        "failures": oracle["failures"] + measured["failures"],
    })
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"command failed ({e.returncode}): {' '.join(map(str, e.cmd))}")
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        log(f"command timed out: {' '.join(map(str, e.cmd))}")
        sys.exit(1)
