"""A short run of the benchmark command ends in a well-formed, correct result.

``perfbench/run.py`` judges every check against its known answer and prints
its result as the last stdout line. This test runs the fd4 workload for a
fraction of a second from the repository root, as BENCHMARK.json's command
does, and requires a JSON last line that reports no wrong or failed check
and every end-to-end metric BENCHMARK.json declares. It only reads
``perfbench/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_short_fd4_run_is_correct_and_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fd4", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
