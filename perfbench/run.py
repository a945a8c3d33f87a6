#!/usr/bin/env python3
"""Build and run the DNN-Life sweep benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--reference]

Builds perfbench/ (and with it the dnnlife library from the repository
root) into .bench_build/perfbench, then runs one workload, or all three in
turn, each in its own process. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit status is
non-zero when the build fails, a check fails (a summary digest that
differs from the one pinned in perfbench/digests.json included) or the
benchmark does not finish. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["cold-grid", "timeline-eval", "store-grid"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no dnnlife sources (CMakeLists.txt, src/) in {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.log", "w") as log:
        steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD), "-j", jobs]]
        for step in steps:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=log,
                          stderr=subprocess.STDOUT)
            if code != 0:
                log.flush()
                sys.stderr.write((BUILD / "build.log").read_text()[-4000:])
                sys.exit(f"perfbench: build step failed: {' '.join(step)}")


def pinned_digest(workload, seed):
    pins = json.loads((HERE / "digests.json").read_text())
    return pins["digests"][workload] if seed == pins["seed"] else None


def run_workload(args, workload):
    """Run one workload; return (exit code, parsed result or None)."""
    work = BUILD / "work" / str(os.getpid())
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    if args.reference:
        cmd.append("--reference")
    elif args.trace:
        cmd += ["--trace-file",
                str(BUILD / f"trace-{workload}-seed{args.seed}.json")]
    digest = pinned_digest(workload, args.seed)
    if digest and not args.reference:
        cmd += ["--expect-digest", digest]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 3, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    print("\n".join(lines), flush=True)
    return code, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", action="store_true",
                        help="run reuse off once and print the summary digest")
    args = parser.parse_args()
    build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    status = 0
    for workload in workloads:
        code, result = run_workload(args, workload)
        status = status or code
        if result is not None:
            results[workload] = result
    if args.reference or len(results) != len(workloads):
        return status or (0 if args.reference else 1)
    if len(workloads) == 1:
        combined = results[workloads[0]]
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
