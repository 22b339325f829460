#!/usr/bin/env python3
"""Builds and runs the full-stack benchmark for one workload.

    python3 perfbench/run.py --workload keyed_churn --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (CMake, Release) into
.bench_build (or $CARGO_TARGET_DIR); later calls only rebuild what changed.
The benchmark writes its logs and checkpoints under .bench_data/ and removes
them before it exits. The last line of standard output is the result JSON;
build output goes to standard error. `--selftest` builds and runs the
generator test instead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("housing_cofactor", "keyed_churn")
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds; returns True on success."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_identity():
    """(git sha or 'unavailable', sha256 over the library sources)."""
    sha = "unavailable"
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            sha = p.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    started = time.monotonic()
    out = build_dir()
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_workloads_test")]).returncode

    sha, digest = source_identity()
    env = dict(os.environ, PERFBENCH_GIT_SHA=sha, PERFBENCH_SRC_DIGEST=digest)
    data = os.path.join(ROOT, ".bench_data", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.dirname(data), exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", data]
    build_s = time.monotonic() - started
    # A first run may spend its time building; later runs get the full budget.
    timeout = RUN_TIMEOUT_S if build_s < 60 else max(RUN_TIMEOUT_S, 890 - build_s)
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % timeout, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = p.stdout.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout)
        print("perfbench: exited with %d" % p.returncode, file=sys.stderr)
        return p.returncode or 1
    result = json.loads(lines[-1])
    expected = {"correct", "attempted", "failed", "metrics"}
    if set(result) != expected:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
