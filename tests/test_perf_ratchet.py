#!/usr/bin/env python3
"""tools/perf_ratchet.py on synthetic self-perf reports.

Usage: test_perf_ratchet.py <path to perf_ratchet.py>

Equal work compares wall clock (exit 0 within budget, 1 beyond it); a
candidate that executed a different number of ticks, or a malformed
report, exits 2 without a timing verdict.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

RATCHET = None


def report(wall, ticks=1000, cells=2):
    return {
        "wall_seconds": wall,
        "cells": cells,
        "ticks_executed": ticks,
        "cell_times": [
            {"label": "TC/sps", "seconds": wall / 2},
            {"label": "SP/sps", "seconds": wall / 2},
        ],
    }


class PerfRatchet(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.baseline = self.write("baseline.json", report(10.0))

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, content):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
        return path

    def ratchet(self, *candidates):
        return subprocess.run(
            [sys.executable, RATCHET, self.baseline, *candidates],
            capture_output=True, text=True, check=False)

    def test_same_work_within_budget_passes(self):
        r = self.ratchet(self.write("c.json", report(10.5)))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_same_work_twenty_percent_slower_fails(self):
        r = self.ratchet(self.write("c.json", report(12.0)))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_best_of_n_compares_the_fastest(self):
        r = self.ratchet(self.write("slow.json", report(12.0)),
                         self.write("fast.json", report(10.2)))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_different_ticks_is_not_compared(self):
        # Half the work in 40% less time is not a speedup.
        r = self.ratchet(self.write("c.json", report(6.0, ticks=500)))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("regenerate the baseline", r.stderr)

    def test_any_candidate_with_different_ticks_is_refused(self):
        r = self.ratchet(self.write("same.json", report(10.0)),
                         self.write("other.json", report(12.0, ticks=999)))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def test_different_cell_count_is_not_compared(self):
        r = self.ratchet(self.write("c.json", report(10.0, cells=3)))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def test_bad_input_exits_2(self):
        no_ticks = report(10.0)
        del no_ticks["ticks_executed"]
        text_wall = report(10.0)
        text_wall["wall_seconds"] = "fast"
        for name, content in (("junk.json", "{not json"),
                              ("list.json", "[]"),
                              ("no_ticks.json", no_ticks),
                              ("zero_wall.json", report(0.0)),
                              ("text_wall.json", text_wall)):
            r = self.ratchet(self.write(name, content))
            self.assertEqual(r.returncode, 2, name + ": " + r.stdout + r.stderr)
        r = self.ratchet(os.path.join(self.dir.name, "missing.json"))
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)


if __name__ == "__main__":
    RATCHET = sys.argv.pop(1)
    unittest.main()
