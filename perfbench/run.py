#!/usr/bin/env python3
"""Served benchmark of lmds_serve: builds the repository from source, then runs
one workload and prints its metrics (see perfbench/README.md).

    python3 perfbench/run.py --list
    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `--workload all` runs every workload, served
and traced, one JSON line each. Everything is built and written under
.bench_build/ in the checkout root. The exit code is 0 only when every
correctness, drain and span check passed.
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
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "cmake"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_env():
    env = dict(os.environ)
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler and server scratch inside the checkout
    env["CCACHE_DISABLE"] = "1"
    return env


def build(env):
    """Configures once, then builds lmds_serve and the benchmark (incremental)."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "lmds_serve", "perfbench", "perfbench_tests"],
                   check=True, stdout=sys.stderr, env=env)


def source_digest():
    """SHA-256 over the program's sources: the build's identity without git."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run(argv, env):
    """Runs a built binary in its own process group, so a timeout also stops
    the lmds_serve processes it started."""
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="list the workloads")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    ap.add_argument("--workload", help="a workload name (see --list), or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "server").is_dir():
        fail(f"no lmds sources next to {HERE.name}/ (expected the repository checkout)")
    if not (args.list or args.self_test or args.workload):
        ap.error("one of --list, --self-test or --workload is required")

    env = build_env()
    try:
        build(env)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        fail(f"build failed: {e}", 1)

    if args.list:
        sys.exit(run([str(BUILD / "perfbench"), "--list"], env))
    if args.self_test:
        sys.exit(run([str(BUILD / "perfbench_tests")], env))

    if args.workload != "all":
        sys.exit(run_workload(args.workload, args.trace, args, env))
    listing = subprocess.run([str(BUILD / "perfbench"), "--list"], capture_output=True,
                             text=True, check=True, env=env).stdout
    codes = [run_workload(line.split()[0], trace, args, env)
             for line in listing.splitlines() for trace in (0, 1)]
    sys.exit(max(codes))


def run_workload(name, trace, args, env):
    work = BUILD_ROOT / "run" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run([str(BUILD / "perfbench"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--serve-bin", str(BUILD / "lmds" / "lmds_serve"), "--work-dir", str(work),
                    "--commit", commit(), "--source", source_digest()], env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
