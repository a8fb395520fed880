"""Smoke test of the benchmark: a fast slice of every workload, untraced and
traced.  It checks the output contract, not timings.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metric names each workload prints in its report, by op kind.
NAMED = {
    "reduce-small": ["reduce_s", "verify_s", "reduce_det_s"],
    "decide": ["decide_s", "degenerate_s"],
    "numtheory": ["decide_binomial_s", "find_prime_s", "density_s"],
}
LINE = re.compile(r"^(\S+)\s+(\S+) (\S+)\s+\(n=(\d+)(?:\s+p([\d.]+))?\)$")


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)), m.group(5))
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_untraced_slice_reports_every_metric(workload):
    result, printed = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert printed["fail_share"][0] == pytest.approx(result["failed"] / result["attempted"])
    names = ["setup_s", "peak_rss_mb"] + [f"{k}.p50" for k in NAMED[workload]]
    if workload == "reduce-small":
        names.append("transcript_mb")
    for name in names:
        assert name in printed, name
        assert printed[name][1] and printed[name][2] >= 1
    for kind in NAMED[workload]:
        n = printed[f"{kind}.p50"][2]
        assert (f"{kind}.tail" in printed) == (n >= 11)
        if n >= 11:
            assert printed[f"{kind}.tail"][3] is not None  # percentile recorded


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_traced_slice_reports_every_layer_metric(workload):
    result, _ = run(workload, 1)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["cli.overhead_s"]["value"] > 0
