#!/usr/bin/env python3
"""Repository benchmark: one workload, one process, one JSON result line.

    python3 lbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds lbbench_driver from
../src into $CARGO_TARGET_DIR/lbbench (default .bench_build/lbbench); later
runs rebuild only when a source file changed. The driver runs the workload
and writes its raw samples; this script summarises them, checks the
exact-count fingerprint against earlier runs of the same seed and source,
and prints a detail line followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. See lbbench/README.md for what each workload measures.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

import summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("theorem5", "campaign_warm", "scale_flood")
SETUP_ALLOWANCE_S = 120  # a run's set-ups and warm-up ops, beyond --seconds
BUILD_LIMIT_S = 880      # the build, on the first run in a checkout


def log(msg):
    print("lbbench: " + msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of every file the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode() + b"\0")
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    """The commit of a git checkout, or None outside one."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(build_dir, digest):
    """Build the driver unless this source digest is already built."""
    driver = os.path.join(build_dir, "lbbench_driver")
    stamp = os.path.join(build_dir, "source.digest")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(driver) and os.path.exists(stamp):
            with open(stamp) as fh:
                if fh.read().strip() == digest:
                    return driver
        log("building lbbench_driver in " + build_dir)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "--target",
                     "lbbench_driver", "-j", jobs]):
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_LIMIT_S)
        with open(stamp, "w") as fh:
            fh.write(digest + "\n")
    return driver


def check_fingerprint(store_dir, workload, seed, current):
    """Compare exact counts with earlier runs of this seed and source;
    returns the differing keys and stores any new ones."""
    os.makedirs(store_dir, exist_ok=True)
    path = os.path.join(store_dir, "%s-seed%d.json" % (workload, seed))
    with open(path + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stored = {}
        if os.path.exists(path):
            with open(path) as fh:
                stored = json.load(fh)
        differing = summary.compare_fingerprint(stored, current)
        merged = dict(current)
        merged.update(stored)
        if merged != stored:
            with open(path + ".tmp", "w") as fh:
                json.dump(merged, fh, sort_keys=True)
            os.replace(path + ".tmp", path)
    return differing


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src; run from a full "
            "checkout of the repository" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"))
    build_dir = os.path.join(out_root, "lbbench")
    digest = source_digest()
    driver = build(build_dir, digest)

    work = os.path.join(build_dir, "work", str(os.getpid()))
    raw_path = os.path.join(work, "raw.json")
    os.makedirs(work, exist_ok=True)
    try:
        subprocess.run([driver, "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", repr(args.seconds),
                        "--trace", str(args.trace),
                        "--work-dir", os.path.join(work, "data"),
                        "--out", raw_path],
                       check=True, stdout=sys.stderr,
                       timeout=args.seconds + SETUP_ALLOWANCE_S)
        with open(raw_path) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    differing = check_fingerprint(
        os.path.join(build_dir, "fingerprints", digest), args.workload,
        args.seed, raw["fingerprint"])
    if args.trace:
        values, layer_check = summary.per_layer(raw)
        metrics = summary.to_metrics(values, specs,
                                     summary.MEASURED[args.workload])
    else:
        values, layer_check = summary.end_to_end(raw), None
        metrics = summary.to_metrics(values, specs, values)
    summary.validate_metrics(metrics, specs)

    failed = raw["failed"]
    correct = failed == 0 and not differing and raw["attempted"] > 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": raw["seed_used"],
        "trace": args.trace,
        "samples": len(raw["op_ms"]),
        "traced_samples": len(raw["traced_op_ms"]),
        "setup_reps": len(raw["setup_s"]),
        "failures": raw["failures"],
        "fingerprint": raw["fingerprint"],
        "fingerprint_mismatch": differing,
        "layer_check": layer_check,
        "env": dict(raw["env"], git_sha=git_sha(), source_digest=digest),
    }
    print(json.dumps({"lbbench_detail": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
