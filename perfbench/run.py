#!/usr/bin/env python3
"""Build and run the layered-consensus benchmark, pinned to one CPU.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --noise [--seconds N]

Workloads: scan-full, scan-quotient, serve, paper-suite. The benchmark is
built with cargo into $CARGO_TARGET_DIR (default .bench_build) and started
pinned to one CPU, so its client and server threads and its reference
kernel share one core. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --noise runs only the
reference kernel on each allowed CPU in turn and prints its spread, to tell
a noisy host from a noisy change.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ["scan-full", "scan-quotient", "serve", "paper-suite"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build did not finish: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    return target_dir() / "release" / "perfbench"


def pinned_cpu():
    """The CPU every run is pinned to: the highest one this process may use."""
    return max(os.sched_getaffinity(0))


def run_pinned(cpu, argv):
    """Runs argv pinned to cpu; returns (exit code, stdout lines)."""
    work = target_dir() / "perfbench-work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The suite's certificate-store experiment writes under TMPDIR.
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(argv + ["--work-dir", str(work)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, []
    return proc.returncode, out.splitlines()


def last_json(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--noise", action="store_true",
                        help="run only the reference kernel on each CPU")
    args = parser.parse_args()
    if not args.noise and args.workload is None:
        parser.error("--workload or --noise is required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print(f"error: no layered-consensus sources under {ROOT}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 3

    if args.noise:
        return noise(binary, args.seconds)

    cpu = pinned_cpu()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    code = 0
    for name in names:
        rc, lines = run_pinned(cpu, [str(binary), "--workload", name,
                                     "--seed", str(args.seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)])
        body = lines[:-1] if args.workload == "all" else lines
        print("\n".join(body))
        results[name] = last_json(lines)
        code = code or rc
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r is not None and r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values() if r),
            "failed": sum(r["failed"] for r in results.values() if r),
            "metrics": {f"{w}/{k}": v for w, r in results.items() if r
                        for k, v in r["metrics"].items()},
        }))
    return code


def noise(binary, seconds):
    """Runs the reference kernel alone on each allowed CPU and compares them."""
    p50 = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        rc, lines = run_pinned(cpu, [str(binary), "--noise", "--seconds", str(seconds)])
        result = last_json(lines)
        if rc != 0 or result is None:
            print(f"error: noise probe failed on CPU {cpu}", file=sys.stderr)
            return rc or 1
        p50[cpu] = result["metrics"]["host.ref_ms.p50"]["value"]
        print(f"cpu {cpu}: {lines[0]}")
    spread = (max(p50.values()) - min(p50.values())) / min(p50.values())
    print(f"reference p50 across CPUs: {p50}; max/min - 1 = {spread:.4f}")
    print(json.dumps({"correct": True, "attempted": len(p50), "failed": 0,
                      "metrics": {"host.ref_ms.cpu_spread": {"value": spread,
                                                             "unit": "fraction"}}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
