#!/usr/bin/env python3
"""Perf ratchet: compare self-perf reports against a committed baseline.

The simulator's ``--profile`` flag writes a machine-readable self-perf
report (``BENCH_selfperf.json``: total wall clock, cells/sec, per-cell
seconds). CI runs the profiled evaluation matrix and feeds the result(s)
here together with the committed ``bench/baseline_selfperf.json``; the job
fails when total wall clock regresses more than ``--max-regress`` (default
15%) against the baseline.

Several candidate reports may be given; the fastest one is compared
(best-of-N absorbs most scheduler noise on shared CI runners). Per-cell
deltas are printed for diagnosis but never gate — individual cells are far
noisier than the total.

Only equal work is compared: every candidate must report the baseline's
cell count and ``ticks_executed`` (simulated cycles the clock stepped
through). A run that ticked fewer cycles is not faster, it did less, so a
mismatch exits 2 and asks for a regenerated baseline instead of a verdict.

When a commit makes the simulator legitimately faster or slower (new
subsystem, algorithmic change), refresh the baseline with the same command
CI uses and commit the new file:

    ./build/tools/ntcsim --matrix --scale=0.02 --profile=bench/baseline_selfperf.json --jobs=1

Exit codes: 0 ok, 1 regression beyond threshold, 2 bad input or different
work (regenerate the baseline).
"""

import argparse
import json
import sys


def bad_input(message):
    print(f"perf-ratchet: {message}", file=sys.stderr)
    sys.exit(2)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as err:
        bad_input(f"cannot read {path}: {err}")
    if not isinstance(report, dict):
        bad_input(f"{path}: not a self-perf report")
    for key in ("wall_seconds", "cells", "cell_times", "ticks_executed"):
        if key not in report:
            bad_input(f"{path}: missing key '{key}'")
    wall = report["wall_seconds"]
    if not isinstance(wall, (int, float)) or wall <= 0:
        bad_input(f"{path}: wall_seconds must be a positive number")
    return report


def cell_map(report):
    return {c["label"]: c["seconds"] for c in report["cell_times"]}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="committed baseline self-perf JSON")
    parser.add_argument(
        "candidates", nargs="+", help="candidate self-perf JSON(s); fastest is compared"
    )
    parser.add_argument(
        "--max-regress",
        type=float,
        default=0.15,
        help="allowed fractional wall-clock regression (default 0.15)",
    )
    args = parser.parse_args(argv)

    base = load_report(args.baseline)
    runs = [(load_report(p), p) for p in args.candidates]
    for run, path in runs:
        for key in ("cells", "ticks_executed"):
            if run[key] != base[key]:
                bad_input(
                    f"{path} did different work: {key} is {run[key]}, the "
                    f"baseline's is {base[key]} — regenerate the baseline "
                    "(see --help)"
                )
    cand, cand_path = min(runs, key=lambda r: r[0]["wall_seconds"])

    base_wall = base["wall_seconds"]
    cand_wall = cand["wall_seconds"]
    delta = (cand_wall - base_wall) / base_wall

    print(f"perf-ratchet: baseline {base_wall:.2f}s, best candidate "
          f"{cand_wall:.2f}s ({cand_path}), delta {delta:+.1%} "
          f"(threshold +{args.max_regress:.0%})")

    base_cells = cell_map(base)
    worst = []
    for label, secs in sorted(cell_map(cand).items()):
        if label in base_cells and base_cells[label] > 0:
            cell_delta = (secs - base_cells[label]) / base_cells[label]
            worst.append((cell_delta, label, base_cells[label], secs))
    worst.sort(reverse=True)
    if worst:
        print("perf-ratchet: slowest-moving cells (informational):")
        for cell_delta, label, b, c in worst[:5]:
            print(f"  {label:<28} {b:8.3f}s -> {c:8.3f}s  {cell_delta:+.1%}")

    if delta > args.max_regress:
        print(
            f"perf-ratchet: FAIL — wall clock regressed {delta:+.1%}, "
            f"over the +{args.max_regress:.0%} budget. If the slowdown is "
            "intentional, refresh bench/baseline_selfperf.json (see --help).",
            file=sys.stderr,
        )
        return 1
    if delta < -args.max_regress:
        print(
            "perf-ratchet: note — the candidate is substantially faster than "
            "the baseline; consider refreshing bench/baseline_selfperf.json "
            "so the ratchet locks in the win."
        )
    print("perf-ratchet: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
