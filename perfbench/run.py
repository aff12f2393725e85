#!/usr/bin/env python3
"""Host-speed benchmark of the MORC simulator, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mp16_morc --seed 0 \
        --seconds 38 --trace 0

Builds perfbench/ (which compiles the simulator libraries from src/)
into .bench_build/, runs one workload in one process, and passes its
output through. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Each run is also
recorded, with its manifest, under .bench_results/.

Further flags (--warmup N, --measure N, --expect-digest HEX) go to the
benchmark binary; the benchmark's own tests use them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
BINARY = BUILD_DIR / "morc_perfbench"
WORKLOADS = ("mp16_morc", "mesh64_uncomp", "kv_morc")

# A run must end within 180 s; no episode starts that would end after
# --seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) are missing")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
           "morc_perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_revision():
    """The git revision of this checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args, extra = ap.parse_known_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("perfbench: build failed")
        return 1

    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-rev", source_revision()] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: benchmark exited with %d" % proc.returncode)
        return proc.returncode

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        manifest = next(json.loads(l.split(" ", 1)[1]) for l in lines
                        if l.startswith("manifest "))
    except (IndexError, ValueError, StopIteration):
        log("perfbench: malformed benchmark output")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("perfbench: result object has unexpected keys")
        return 1

    RESULTS_DIR.mkdir(exist_ok=True)
    record = RESULTS_DIR / ("%s-seed%d-trace%d.json" %
                            (args.workload, args.seed, args.trace))
    record.write_text(json.dumps({"manifest": manifest, "result": result},
                                 indent=1) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
