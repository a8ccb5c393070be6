"""Per-layer metrics derived from the traced run's spans.

Scopes: ``.calls`` and ``.ms`` are medians over measured files of the per-file
call count and per-file inclusive time (equal to self time for leaf layers);
``.self_ms`` is the per-file median of time not covered by child spans;
``.call_ms`` is the median of single calls pooled over the run's files;
``.setup_*`` covers the traced set-up phase (preparation plus warm-up file).
A layer that does not run on a workload reports 0.
"""

from collections import defaultdict

import numpy as np

from spans import SETUP
from workloads import median

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("signals.stft.ms", "ms", "lower"),
    ("signals.istft.ms", "ms", "lower"),
    ("signals.stft.call_ms", "ms", "lower"),
    ("signals.istft.call_ms", "ms", "lower"),
    ("rir.sample_rir.calls", "count", "lower"),
    ("rir.sample_rir.ms", "ms", "lower"),
    ("tfconv.build_kernel.calls", "count", "lower"),
    ("tfconv.build_kernel.ms", "ms", "lower"),
    ("tfconv.build_kernel.call_ms", "ms", "lower"),
    ("tfconv.build_kernel.mb", "MB", "lower"),
    ("tfconv.apply.calls", "count", "lower"),
    ("tfconv.apply.ms", "ms", "lower"),
    ("tfconv.apply.call_ms", "ms", "lower"),
    ("tfconv.apply_adjoint.calls", "count", "lower"),
    ("tfconv.apply_adjoint.ms", "ms", "lower"),
    ("tfconv.apply_adjoint.call_ms", "ms", "lower"),
    ("tfconv.builds_per_iter", "ratio", "lower"),
    ("loss.rm_loss.calls", "count", "lower"),
    ("loss.draws_per_call", "ratio", "lower"),
    ("loss.rm_loss.self_ms", "ms", "lower"),
    ("solver.solve.calls", "count", "lower"),
    ("solver.solve.self_ms", "ms", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.iter_ms_p50", "ms", "lower"),
    ("solver.iter_ms_p99", "ms", "lower"),
    ("solver.wasted_iter_ratio", "ratio", "lower"),
    ("solver.converged_ratio", "ratio", "higher"),
    ("blind.raw_decay_estimate.calls", "count", "lower"),
    ("blind.raw_decay_estimate.ms", "ms", "lower"),
    ("blind.raw_decay_estimate.setup_calls", "count", "lower"),
    ("blind.raw_decay_estimate.setup_ms", "ms", "lower"),
    ("blind.blind_drr.self_ms", "ms", "lower"),
    ("blind.analyze_blind.ms", "ms", "lower"),
    ("blind.fallbacks", "ratio", "lower"),
    ("unattributed.ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("sisdr_gain_db", "dB", "higher"),
    ("lsd_db", "dB", "lower"),
    ("rt60_abs_err_s", "s", "lower"),
    ("drr_abs_err_db", "dB", "lower"),
    ("fail_ratio", "ratio", "lower"),
]

_PER_FILE = [
    # (metric prefix, span name, which per-file sums to report)
    ("cli.main", "cli.main", ("calls", "self_ms")),
    ("signals.stft", "signals.stft", ("ms",)),
    ("signals.istft", "signals.istft", ("ms",)),
    ("rir.sample_rir", "rir.sample_rir", ("calls", "ms")),
    ("tfconv.build_kernel", "tfconv.build_kernel", ("calls", "ms")),
    ("tfconv.apply", "tfconv.apply", ("calls", "ms")),
    ("tfconv.apply_adjoint", "tfconv.apply_adjoint", ("calls", "ms")),
    ("loss.rm_loss", "loss.rm_loss", ("calls", "self_ms")),
    ("solver.solve", "solver.solve", ("calls", "self_ms")),
    ("blind.raw_decay_estimate", "blind.raw_decay_estimate", ("calls", "ms")),
    ("blind.blind_drr", "blind.blind_drr", ("self_ms",)),
    ("blind.analyze_blind", "blind.analyze_blind", ("ms",)),
]

# per-call medians that regenerate the ROADMAP baseline table
BASELINE = ["tfconv.build_kernel", "tfconv.apply", "tfconv.apply_adjoint",
            "signals.stft", "signals.istft"]


def _ancestor(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None


def layer_metrics(spans, file_ids):
    """Per-layer metrics over the given files, plus the bases of each ratio.

    Returns (metrics, bases): ``metrics`` maps name -> value for every
    per-layer metric except quality, fail_ratio and trace.overhead_ratio,
    which the run computes from outputs; ``bases`` holds the counts behind
    each ratio and percentile.
    """
    files = set(file_ids)
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += s.dur
            children[s.parent].append(i)

    sums = {f: defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for f in files}
    setup = defaultdict(lambda: {"calls": 0, "ms": 0.0})
    for i, s in enumerate(spans):
        if s.file == SETUP:
            setup[s.name]["calls"] += 1
            setup[s.name]["ms"] += s.dur * 1e3
        elif s.file in files:
            agg = sums[s.file][s.name]
            agg["calls"] += 1
            agg["ms"] += s.dur * 1e3
            agg["self_ms"] += (s.dur - child_time[i]) * 1e3

    m = {}
    for prefix, span_name, keys in _PER_FILE:
        for key in keys:
            m[f"{prefix}.{key}"] = median(
                [sums[f][span_name][key] for f in files])
    for name in BASELINE:
        m[f"{name}.call_ms"] = median(
            [s.dur * 1e3 for s in spans if s.file in files and s.name == name])
    m["tfconv.build_kernel.mb"] = median(
        [sum(s.info["nbytes"] for s in spans
             if s.file == f and s.name == "tfconv.build_kernel") / 2 ** 20
         for f in files])
    m["blind.raw_decay_estimate.setup_calls"] = setup[
        "blind.raw_decay_estimate"]["calls"]
    m["blind.raw_decay_estimate.setup_ms"] = setup[
        "blind.raw_decay_estimate"]["ms"]

    in_files = [i for i, s in enumerate(spans) if s.file in files]
    solves = [i for i in in_files if spans[i].name == "solver.solve"]
    iterations = sum(spans[i].info["iterations"] for i in solves)
    per_file_iters = defaultdict(int)
    for i in solves:
        per_file_iters[spans[i].file] += spans[i].info["iterations"]
    m["solver.iterations"] = median([per_file_iters[f] for f in files])
    wasted = sum(spans[i].info["iterations"] - 1 - spans[i].info["best"]
                 for i in solves)
    m["solver.wasted_iter_ratio"] = wasted / iterations if iterations else 0.0
    converged = sum(spans[i].info["converged"] for i in solves)
    m["solver.converged_ratio"] = converged / len(solves) if solves else 0.0

    # one iteration: from one rm_loss start to the next within a solve; the
    # last runs to the end of the solve
    iter_ms = []
    for i in solves:
        starts = sorted(spans[c].start for c in children[i]
                        if spans[c].name == "loss.rm_loss")
        ends = starts[1:] + [spans[i].end]
        iter_ms.extend((b - a) * 1e3 for a, b in zip(starts, ends))
    m["solver.iter_ms_p50"] = (float(np.percentile(iter_ms, 50))
                               if iter_ms else 0.0)
    m["solver.iter_ms_p99"] = (float(np.percentile(iter_ms, 99))
                               if iter_ms else 0.0)

    builds_in_solves = sum(1 for i in in_files
                           if spans[i].name == "tfconv.build_kernel"
                           and _ancestor(spans, i, "solver.solve") is not None)
    m["tfconv.builds_per_iter"] = (builds_in_solves / iterations
                                   if iterations else 0.0)
    losses = [i for i in in_files if spans[i].name == "loss.rm_loss"]
    draws = sum(1 for i in losses for c in children[i]
                if spans[c].name == "tfconv.apply")
    m["loss.draws_per_call"] = draws / len(losses) if losses else 0.0

    roots = [i for i in in_files if spans[i].name == "file"]
    m["unattributed.ms"] = median(
        [(spans[i].dur - child_time[i]) * 1e3 for i in roots])

    # a blind file falls back to pass-through when cli.main runs no solve of
    # its own (the DRR grid's inner solve sits below analyze_blind)
    blind_files = {s.file for s in spans
                   if s.file in files and s.name == "blind.analyze_blind"}
    main_solve_files = {spans[i].file for i in solves
                        if spans[spans[i].parent].name == "cli.main"}
    fallbacks = len(blind_files - main_solve_files)
    m["blind.fallbacks"] = fallbacks / len(files) if blind_files else 0.0

    bases = {
        "files": len(files),
        "solves": len(solves),
        "iterations": iterations,
        "builds_in_solves": builds_in_solves,
        "wasted_iterations": wasted,
        "converged_solves": converged,
        "iteration_samples": len(iter_ms),
        "rm_loss_calls": len(losses),
        "draws": draws,
        "blind_fallback_files": fallbacks,
        "baseline_calls": {name: sum(1 for i in in_files
                                     if spans[i].name == name)
                           for name in BASELINE},
    }
    return m, bases
