#!/usr/bin/env python3
"""Build and run the ntcsim benchmark for one workload.

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload crash_campaign --seed 1 --seconds 5 --trace 0 --record

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the driver) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Each workload runs in its own driver process, so
its peak RSS is its own. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer split of one traced
pass. --record rewrites perfbench/golden/<workload>.txt (seed 1 only).
See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("paper_matrix", "cache_resident", "service_cluster", "crash_campaign")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (root if root.is_absolute() else Path.cwd() / root) / "perfbench"


def build():
    """Configure once, then bring the driver and self-test up to date."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                f.close()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return out


def self_test(out):
    ok = subprocess.run([str(out / "perfbench_selftest")]).returncode == 0
    lint = subprocess.run(
        [str(out / "ntclint" / "ntclint"), "--backend=lex", str(BENCH_DIR)])
    print(f"ntclint --backend=lex {BENCH_DIR.name}/: exit {lint.returncode}")
    return 0 if ok and lint.returncode == 0 else 1


def print_layers(metrics, spans_path):
    print("per-layer split of the traced pass (self time, counts):")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>20.6f} {m['unit']}")
    print(f"spans: {spans_path}")


def main():
    # A SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the build or driver child instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 1 or args.seconds < 1:
        ap.error("--seed and --seconds must be positive")

    out = build()
    if args.self_test:
        sys.exit(self_test(out))

    results = out / "out"
    results.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench_driver"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={results}",
           f"--golden={BENCH_DIR / 'golden'}"]
    if args.record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited {proc.returncode}")
    report = json.loads(lines[-1])

    attempted, failed = report["cells"], report["cells_failed"]
    print(f"workload {args.workload} seed {args.seed}: {report['passes']} "
          f"untraced pass(es), cells {attempted}, cells_failed {failed}")
    if args.trace:
        print_layers(report["metrics"], results / f"spans_{args.workload}.json")
    else:
        for name, m in report["metrics"].items():
            print(f"  {name:14s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))


if __name__ == "__main__":
    main()
