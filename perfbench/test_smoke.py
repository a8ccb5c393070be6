"""Smoke check of the benchmark: every workload, untraced and traced, on one
short input with tiny solves. Checks that the result line carries every metric
of BENCHMARK.json with its unit and that every output passed its check.

Run beside the tier-1 suite with ``python -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics the benchmark's definition asks for, by name
REQUIRED = {
    "setup_s", "file_s_p50", "rtf", "peak_rss_mb", "sisdr_gain_db", "lsd_db",
    "rt60_abs_err_s", "drr_abs_err_db", "fail_ratio",
    "cli.main.calls", "cli.main.self_ms", "signals.stft.ms",
    "signals.istft.ms", "rir.sample_rir.calls", "rir.sample_rir.ms",
    "tfconv.build_kernel.calls", "tfconv.build_kernel.ms",
    "tfconv.build_kernel.mb", "tfconv.apply.calls", "tfconv.apply.ms",
    "tfconv.apply_adjoint.calls", "tfconv.apply_adjoint.ms",
    "tfconv.builds_per_iter", "loss.rm_loss.calls", "loss.draws_per_call",
    "loss.rm_loss.self_ms", "solver.solve.calls", "solver.solve.self_ms",
    "solver.iterations", "solver.iter_ms_p50", "solver.iter_ms_p99",
    "solver.wasted_iter_ratio", "solver.converged_ratio",
    "blind.raw_decay_estimate.calls", "blind.raw_decay_estimate.ms",
    "blind.blind_drr.self_ms", "blind.analyze_blind.ms", "blind.fallbacks",
    "unattributed.ms", "trace.overhead_ratio",
}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_harness():
    assert _declared("end_to_end") == dict(END_TO_END)
    assert _declared("per_layer") == {n: u for n, u, _ in PER_LAYER}
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == {
        n: b for n, _, b in PER_LAYER}
    assert REQUIRED <= set(_declared("end_to_end")) | set(_declared("per_layer"))
    assert [w["name"] for w in SPEC["workloads"]] == [
        "oracle", "blind", "forward-full"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if trace:
        assert "# traced outputs byte-identical: True" in proc.stdout
