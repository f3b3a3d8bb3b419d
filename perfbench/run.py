#!/usr/bin/env python3
"""Build and run the owl benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs rebuild only when a source file changed. owl_perfbench's last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "owl_perfbench"
WORK = Path(".bench_build") / "perfbench" / "run"


def source_digest():
    """Content hash of everything owl_perfbench is built from."""
    h = hashlib.sha1()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".in", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def ensure_built(digest):
    stamp = BUILD / "source.sha1"
    if BINARY.exists() and stamp.exists() and stamp.read_text() == digest:
        return True
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "owl_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    stamp.write_text(digest)
    return True


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_cmd(workload, seed, seconds, trace, digest, extra=()):
    return [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--pins", str(HERE.relative_to(ROOT) / "pins.json"),
            "--work-dir", str(WORK), "--commit", commit(),
            "--source-digest", digest, *extra]


def run_bench(cmd, trace, capture):
    env = dict(os.environ, OWL_OBS="1" if trace else "0")
    return subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def selftest(digest):
    """Quick one-seed run of every workload in both modes, then a run
    with a corrupted hole digest that must be reported as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def result_of(cmd, trace):
        proc = run_bench(cmd, trace, capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{' '.join(cmd[1:5])}: exit {proc.returncode}")
            return None
        return json.loads(lines[-1])

    for w in spec["workloads"]:
        for trace in (0, 1):
            res = result_of(bench_cmd(w["name"], 1, 1, trace, digest), trace)
            if res is None:
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace {trace}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics "
                                f"{sorted(set(got) ^ set(want[trace]))} "
                                "differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w['name']} trace {trace}: not correct")
            print(f"selftest: {w['name']} trace {trace}: "
                  f"{len(got)} metrics, {res['attempted']} checked",
                  flush=True)

    cmd = bench_cmd("bundle-small", 1, 1, 1, digest, ["--corrupt-digest"])
    res = result_of(cmd, 1)
    if res is not None:
        frac = res["metrics"]["fail_frac"]["value"]
        if res["correct"] or res["failed"] == 0 or not frac > 0:
            problems.append("a corrupted hole digest went unnoticed")
        print(f"selftest: corrupted digest: fail_frac {frac}", flush=True)

    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    os.chdir(ROOT)
    digest = source_digest()
    if not ensure_built(digest):
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(digest)
    cmd = bench_cmd(args.workload, args.seed, args.seconds, args.trace,
                     digest)
    return run_bench(cmd, args.trace, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
