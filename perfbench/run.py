"""revmatch benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload blind --seed 1 --seconds 12 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``oracle``, ``blind``
and ``forward-full``. A single client runs a closed loop: each file starts
when the previous one returns, in whole cycles of a fixed mix of (RT60, DRR)
cells, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics from an unwrapped run.
``--trace 1`` runs every file twice, unwrapped and then with every public
revmatch layer wrapped by the recorder in ``spans.py``; it checks that both
runs write byte-identical outputs and reports the per-layer metrics.

Lines starting with ``#`` describe the run (environment, inputs, quality,
the bases of every ratio); the last line is the JSON result. A detailed
report, and for traced runs the spans, go to ``.perfbench_work/``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("file_s_p50", "s"),
    ("rtf", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["oracle", "blind", "forward-full"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="one short input and tiny solves: plumbing check only")
    return p.parse_args(argv)


def import_revmatch():
    """Import the package and its CLI from this checkout's ``src``, timed."""
    if not (SRC / "revmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no revmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # one client uses one core: a second BLAS thread only adds contention
    # with whatever else runs on a 2-core host, and run-to-run noise with it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    t0 = time.perf_counter()
    rm = importlib.import_module("revmatch")
    importlib.import_module("revmatch.cli")
    import_s = time.perf_counter() - t0
    if Path(rm.__file__).resolve().parent != SRC / "revmatch":
        raise SystemExit(f"error: imported revmatch from {rm.__file__}")
    return rm, import_s


def environment(rm, runner, items):
    import ctypes
    import glob

    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
        l3 = int(size.read_text().strip().rstrip("K")) * 1024
    except (OSError, ValueError):
        l3 = 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    from workloads import grid_shape, kernel_mib
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "l3_mib": round(l3 / 2 ** 20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "inputs": [
            {"file": it.index, "rt60": it.rt60, "drr_db": it.drr_db,
             "rir_taps": len(it.taps),
             "stft_grid": "x".join(map(str, grid_shape(rm, len(it.dry)))),
             "kernel_mib_computed": round(
                 kernel_mib(rm, len(it.taps), runner.band_radius), 1)}
            for it in items],
        "band_radius": runner.band_radius,
    }


def measure(make_cycle, seconds, run_one):
    """Closed loop over whole cycles until ``seconds`` have passed."""
    results = []
    t_start = time.perf_counter()
    cycle = 0
    while not results or time.perf_counter() - t_start < seconds:
        results.extend(run_one(item) for item in make_cycle(cycle))
        cycle += 1
    return results


def timing_metrics(records):
    from workloads import median
    ok = [r for r in records if r.ok]
    processed = sum(r.seconds for r in ok)
    audio = sum(r.item.audio_s for r in ok)
    return {
        "file_s_p50": median([r.seconds for r in ok]),
        "rtf": processed / audio if audio else 0.0,
    }


def quality_metrics(rm, runner, records, estimates):
    """Medians over passed files; blind errors use the analyzer's output."""
    from workloads import median, quality
    ok = [r for r in records if r.ok]
    out = {"sisdr_gain_db": 0.0, "lsd_db": 0.0,
           "rt60_abs_err_s": 0.0, "drr_abs_err_db": 0.0}
    if runner.dereverbs and ok:
        scores = [quality(rm, r) for r in ok]
        out["sisdr_gain_db"] = median([g for g, _ in scores])
        out["lsd_db"] = median([d for _, d in scores])
    if estimates:
        truth = {r.item.index: r.item for r in ok}
        errs = [(abs(e["rt60"] - truth[f].rt60),
                 abs(e["drr_db"] - truth[f].drr_db))
                for f, e in estimates.items() if f in truth]
        out["rt60_abs_err_s"] = median([a for a, _ in errs])
        out["drr_abs_err_db"] = median([b for _, b in errs])
    return out


def run_untraced(rm, runner, args, setup_once, make_cycle, outdir, import_s,
                 report):
    """End-to-end metrics. The only wrapper is a pass-through that records
    what ``analyze_blind`` returns, for the blind parameter errors."""
    from spans import record_returns
    from workloads import check_output, run_file
    setup = setup_once()
    report["setup_parts_s"] = {"import": import_s, "prepare_and_warmup": setup}
    found = []
    current = {"file": None}

    def run_one(item):
        current["file"] = item.index
        return run_file(runner, item, outdir / f"{item.index}.wav")

    with record_returns(rm.blind, "analyze_blind", found,
                        key=lambda: current["file"]):
        records = measure(make_cycle, args.seconds, run_one)
    for rec in records:
        check_output(runner, rec)
    metrics = {
        "setup_s": import_s + setup,
        **timing_metrics(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    estimates = {f: {"rt60": e.rt60, "drr_db": e.drr_db} for f, e in found}
    return records, metrics, estimates, dict(END_TO_END)


def run_traced(rm, runner, args, setup_once, make_cycle, outdir, report):
    """Per-layer metrics: each file runs unwrapped and then again under the
    span recorder, back to back so both see the same warm state, and both
    runs must write the same bytes."""
    from layers import PER_LAYER, layer_metrics
    from spans import Tracer, bindings
    from workloads import check_output, run_file
    tracer = Tracer(bindings(rm))
    tracer.install()
    try:
        setup_once()
    finally:
        tracer.uninstall()
    traced_dir = outdir.parent / "out-traced"
    traced_dir.mkdir()

    def run_pair(item):
        plain = run_file(runner, item, outdir / f"{item.index}.wav")
        tracer.install()
        try:
            with tracer.file_span(item.index):
                traced = run_file(runner, item,
                                  traced_dir / f"{item.index}.wav")
        finally:
            tracer.uninstall()
        return plain, traced

    pairs = measure(make_cycle, args.seconds, run_pair)
    plain = [a for a, _ in pairs]
    traced = [b for _, b in pairs]
    mismatched = []
    for a, b in zip(plain, traced):
        check_output(runner, a)
        check_output(runner, b)
        if not a.ok and b.ok:
            b.error = f"untraced pass failed: {a.error}"
        elif a.ok and b.ok and (Path(a.out_path).read_bytes()
                                != Path(b.out_path).read_bytes()):
            mismatched.append(a.item.index)
    report["traced_outputs_byte_identical"] = not mismatched
    report["mismatched_files"] = mismatched

    file_ids = [r.item.index for r in traced if r.ok]
    metrics, bases = layer_metrics(tracer.spans, file_ids)
    untraced_rtf = timing_metrics([a for a, b in zip(plain, traced)
                                   if b.ok])["rtf"]
    traced_rtf = timing_metrics(traced)["rtf"]
    metrics["trace.overhead_ratio"] = (traced_rtf / untraced_rtf
                                       if untraced_rtf else 0.0)
    bases["traced_rtf"] = traced_rtf
    bases["untraced_rtf"] = untraced_rtf
    report["bases"] = bases
    estimates = {s.file: s.info for s in tracer.spans
                 if s.name == "blind.analyze_blind" and s.info
                 and s.file in file_ids}
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.to_json()))
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return traced, metrics, estimates, {n: u for n, u, _ in PER_LAYER}


def run_benchmark(args, rm, import_s, workdir):
    from workloads import (FULL, RUNNERS, SMOKE, check_output, cycle_inputs,
                           run_file, warmup_input)
    settings = SMOKE if args.smoke else FULL
    runner = RUNNERS[args.workload](rm, settings, workdir)
    warm = warmup_input(rm, settings, workdir)

    def make_cycle(c):
        return cycle_inputs(runner, args.seed, c)

    def setup_once():
        t0 = time.perf_counter()
        runner.prepare()
        rec = run_file(runner, warm, workdir / "warmup-out.wav")
        check_output(runner, rec)
        if not rec.ok:
            raise SystemExit(f"error: warm-up file failed: {rec.error}")
        return time.perf_counter() - t0

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "closed_loop_clients": 1}
    outdir = workdir / "out"
    outdir.mkdir()
    if args.trace == 0:
        records, metrics, estimates, units = run_untraced(
            rm, runner, args, setup_once, make_cycle, outdir, import_s, report)
    else:
        records, metrics, estimates, units = run_traced(
            rm, runner, args, setup_once, make_cycle, outdir, report)

    failed = sum(1 for r in records if not r.ok)
    quality = quality_metrics(rm, runner, records, estimates)
    if args.trace == 1:
        metrics.update(quality)
        metrics["fail_ratio"] = failed / len(records)
    report["quality"] = quality
    report["fail_ratio"] = {"failed": failed, "attempted": len(records)}
    report["env"] = environment(rm, runner, [warm] + [r.item for r in records])
    report["files"] = [
        {"file": r.item.index, "rt60": r.item.rt60, "drr_db": r.item.drr_db,
         "audio_s": r.item.audio_s, "seconds": r.seconds, "ok": r.ok,
         "error": r.error, "rel_err": r.rel_err} for r in records]
    result = {
        "correct": failed == 0 and report.get(
            "traced_outputs_byte_identical", True),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return report, result


def print_report(report, result):
    env = report["env"]
    print(f"# workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} clients=1 (closed loop)")
    print(f"# env nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"l3={env['l3_mib']}MiB python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} "
          f"band_radius={env['band_radius']}")
    for row in env["inputs"]:
        print(f"# input {row['file']}: rt60={row['rt60']} "
              f"drr={row['drr_db']:+g}dB taps={row['rir_taps']} "
              f"grid={row['stft_grid']} "
              f"kernel={row['kernel_mib_computed']}MiB (computed; "
              f"L3 {env['l3_mib']}MiB)")
    for row in report["files"]:
        status = "ok" if row["ok"] else f"FAILED {row['error']}"
        print(f"# file {row['file']}: {row['seconds']:.4f}s {status}")
    ok = [row for row in report["files"] if row["ok"]]
    print(f"# timing over {len(ok)} passed files: "
          f"{sum(r['seconds'] for r in ok):.4f} s processing for "
          f"{sum(r['audio_s'] for r in ok):.1f} s of audio")
    fr = report["fail_ratio"]
    print(f"# fail_ratio={fr['failed']}/{fr['attempted']}")
    q = report["quality"]
    print("# quality " + " ".join(f"{k}={v:.4f}" for k, v in q.items()))
    if "setup_parts_s" in report:
        parts = report["setup_parts_s"]
        print(f"# setup: import {parts['import']:.4f} s + preparation and "
              f"warm-up {parts['prepare_and_warmup']:.4f} s")
    if "bases" in report:
        b = report["bases"]
        print(f"# bases files={b['files']} solves={b['solves']} "
              f"iterations={b['iterations']} builds_in_solves="
              f"{b['builds_in_solves']} rm_loss_calls={b['rm_loss_calls']} "
              f"draws={b['draws']} wasted_iterations={b['wasted_iterations']} "
              f"converged_solves={b['converged_solves']} "
              f"iteration_samples={b['iteration_samples']} "
              f"blind_fallback_files={b['blind_fallback_files']} "
              f"traced_rtf={b['traced_rtf']:.5f} "
              f"untraced_rtf={b['untraced_rtf']:.5f}")
        print(f"# traced outputs byte-identical: "
              f"{report['traced_outputs_byte_identical']}")
        metrics = result["metrics"]
        print(f"# baseline per-call medians at band radius "
              f"{env['band_radius']}:")
        for name, calls in b["baseline_calls"].items():
            print(f"#   {name:<22} {metrics[name + '.call_ms']['value']:9.3f} "
                  f"ms  ({calls} calls)")


def main(argv=None):
    args = parse_args(argv)
    rm, import_s = import_revmatch()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        report, result = run_benchmark(args, rm, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = (f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    (WORK / name).write_text(json.dumps({**report, "result": result},
                                        indent=1, default=str))
    print_report(report, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
