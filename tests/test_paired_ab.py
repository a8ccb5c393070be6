import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_paired_ab_smoke_with_the_repo_on_both_sides():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"),
         "--parent", ROOT, "--change", ROOT, "--workload", "blind",
         "--seed", "3", "--cycles", "2", "--repeats", "2", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    # one file per smoke cycle, each run twice on each side
    assert summary["files"] == 2 and summary["pairs"] == 4
    assert summary["failed_pairs"] == 0
    assert summary["same_inputs"] == summary["same_outputs"] == 2
    assert (summary["ratio_q1"] <= summary["ratio_median"]
            <= summary["ratio_q3"])
    assert 0 <= summary["wins"] <= 4
