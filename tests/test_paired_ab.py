import json
import math
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    assert summary["differing_outputs"] == []
    # each worker's ru_maxrss after the same files, in MB
    assert set(summary["peak_rss_mb"]) == {"parent", "change"}
    assert all(0 < mb < math.inf for mb in summary["peak_rss_mb"].values())
    # one checkout on both sides: the same outputs score the same
    quality = summary["quality"]
    assert set(quality) == {"parent", "change"}
    assert quality["parent"] == quality["change"]
    change = quality["change"]
    assert set(change) == {"sisdr_gain_db", "lsd_db", "by_rt60",
                           "estimate_errors"}
    # the smoke settings have one RT60 cell, 0.3 s
    assert set(change["by_rt60"]) == {"0.3"}
    assert set(change["by_rt60"]["0.3"]) == {"sisdr_gain_db", "lsd_db"}
    assert set(change["estimate_errors"]) == {"rt60_abs_err_s",
                                              "drr_abs_err_db"}
    values = [change["sisdr_gain_db"], change["lsd_db"],
              *change["by_rt60"]["0.3"].values(),
              *change["estimate_errors"].values()]
    assert all(np.isfinite(v) for v in values)
    assert all(v >= 0 for v in change["estimate_errors"].values())
    assert summary["python"] == platform.python_version()
    assert summary["numpy"] == np.__version__
    assert summary["nproc"] >= 1


def test_paired_ab_names_the_files_whose_outputs_differ(tmp_path):
    # a change that halves every written output: same inputs, other outputs
    change = tmp_path / "change"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, change / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(change / "src" / "revmatch" / "cli.py", "a") as f:
        f.write("\n\n_write_wav = write_wav\n\n\n"
                "def write_wav(path, sig):\n"
                "    _write_wav(path, Signal(0.5 * sig.samples, "
                "sig.sample_rate))\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_ab.py"),
         "--parent", ROOT, "--change", change, "--workload", "blind",
         "--seed", "3", "--cycles", "2", "--repeats", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["same_inputs"] == 2 and summary["same_outputs"] == 0
    assert summary["differing_outputs"] == ["s3-00", "s3-01"]
    quality = summary["quality"]
    assert quality["parent"]["lsd_db"] != quality["change"]["lsd_db"]
