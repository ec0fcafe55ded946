#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload tpcc-1wh --seed 1 --seconds 12 --trace 0

Builds the benchmark program, quecc_bench (perfbench/CMakeLists.txt,
Release), from the checkout's sources into $CARGO_TARGET_DIR (default
.bench_build), runs it, and passes its output through: the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A failed build or a failed
correctness check exits non-zero without printing a result.

--out DIR also stores the result, with the program's environment stamp, as
one JSON file in DIR, for perfbench/compare.py.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        fail(f"no engine sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=False)
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "quecc_bench", "-j", jobs],
                       stdout=sys.stderr, env=env, check=False)
    exe = build_dir / "quecc_bench"
    if r.returncode != 0 or not exe.is_file():
        fail("build failed")
    return exe


def git_sha():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if pathlib.Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="directory to store the result in")
    a = ap.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    # Keep the compiler's and quecc_bench's temporary files in the checkout.
    run_dir = ROOT / ".bench_run"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(run_dir / "tmp"))
    exe = build(build_dir, env)

    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", str(run_dir), "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"quecc_bench did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"quecc_bench exited with status {r.returncode}",
             r.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("quecc_bench printed a malformed result")
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), {})

    if a.out:
        out = pathlib.Path(a.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
                  "time": time.time(), "stamp": stamp, "result": result}
        name = f"{a.workload}-t{a.trace}-s{a.seed}-{time.time_ns()}.json"
        (out / name).write_text(json.dumps(record) + "\n")

    print("\n".join(lines))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
