"""Batch command-line front end.

Subcommands: sample-rir, analyze-rir, analyze-blind, calibrate, reverberate,
dereverb, eval, bench. Every run is fully determined by (config, seed,
inputs): all randomness derives from the global seed through fixed stream ids
and counters (see seeding), so parallel and serial runs produce identical
bytes. Commands validate inputs before computing and write outputs through a
temporary file plus atomic rename, so failed runs leave no partial files.

Config files, reports and calibration files are ``key=value`` records (see
records); config keys match the long option names with ``-`` replaced by
``_``, and explicit command-line flags override them.
"""

import argparse
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
from scipy.signal import fftconvolve

from . import tfconv
from .blind import (BlindConfig, Rt60Calibration, analyze_blind,
                    calibrate_rt60, speech_like_noise)
from .loss import LossConfig
from .metrics import evaluate
from .records import format_records, read_records
from .rir import (AcousticParams, Rir, analyze_rir, params_from_file,
                  read_rir, sample_rir, write_rir)
from .seeding import STREAM_CLI_TASKS, STREAM_SYNTH, derive_rng
from .signals import Signal, default_stft_config, istft, read_wav, stft, write_wav
from .solver import SolverConfig, dereverb_pipeline
# not called here; perfbench/spans.py wraps cli.trainingless_dereverb by name
from .solver import trainingless_dereverb  # noqa: F401

CLI_SAMPLE_RATE = 16000


def _atomic_write(path, writer):
    """Write a file through a temp sibling + rename, so errors leave nothing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-revmatch-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Options:
    """Resolution order: explicit CLI flag > config file > default."""

    def __init__(self, args):
        self.args = vars(args)
        self.config = {}
        if self.args.get("config"):
            self.config = read_records(self.args["config"])

    def get(self, key, default=None, cast=str):
        val = self.args.get(key)
        if val is not None:
            return val
        if key in self.config:
            raw = self.config[key]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes")
            return cast(raw)
        return default


def _band_radius(value):
    if value is None or value == "full":
        return "full"
    return int(value)


def _read_input_wav(path):
    return read_wav(path, expect_rate=CLI_SAMPLE_RATE)


def _write_text(path, text):
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
    _atomic_write(path, writer)


def cmd_sample_rir(opts):
    params = AcousticParams(
        rt60=opts.get("rt60", cast=float),
        drr_db=opts.get("drr", cast=float),
        n_d=opts.get("nd", 40, cast=int),
        sample_rate=opts.get("rate", CLI_SAMPLE_RATE, cast=int),
        noise_mode=opts.get("noise_mode", "centered-gaussian"),
    )
    length = opts.get("length", cast=int)
    seed = opts.get("seed", 0, cast=int)
    rir = sample_rir(params, length, rng=derive_rng(seed, STREAM_CLI_TASKS, 0))
    out = opts.get("output")

    def writer(tmp):
        # the temp file lacks the extension; honor the final path's format
        if str(out).endswith(".wav"):
            write_wav(tmp, Signal(rir.taps, rir.sample_rate), fmt="float32")
        else:
            write_rir(tmp + ".txt", rir)
            os.replace(tmp + ".txt", tmp)

    _atomic_write(out, writer)
    return 0


def cmd_analyze_rir(opts):
    rir = read_rir(opts.get("input"))
    analysis = analyze_rir(rir, n_d=opts.get("nd", 40, cast=int))
    keys = ("rt60_est", "sigma_est", "drr_est_db", "t5", "t25", "e_5_25")
    _write_text(opts.get("output"),
                format_records((k, getattr(analysis, k)) for k in keys))
    return 0


def cmd_reverberate(opts):
    dry = _read_input_wav(opts.get("input"))
    rir = read_rir(opts.get("rir"))
    if rir.sample_rate != dry.sample_rate:
        raise ValueError("unsupported sample rate: RIR rate differs from input")
    domain = opts.get("domain", "time")
    if domain not in ("time", "stft"):
        raise ValueError("domain must be 'time' or 'stft'")
    if domain == "time":
        wet = fftconvolve(dry.samples, rir.taps)
    else:
        cfg = default_stft_config()
        kernel = tfconv.build_kernel(
            rir, cfg, _band_radius(opts.get("band_radius", "full")))
        spec = stft(dry, cfg)
        wet_spec = tfconv.apply(kernel, spec)
        wet = istft(wet_spec)
    sig = Signal(wet, dry.sample_rate)
    out = opts.get("output")
    _atomic_write(out, lambda tmp: write_wav(tmp, sig, fmt="float32"))
    return 0


def _synthetic_pair(seed, index, duration, cfg):
    rng = derive_rng(seed, STREAM_SYNTH, index)
    rt60 = rng.uniform(0.2, 1.0)
    drr = rng.uniform(-6.0, 10.0)
    params = AcousticParams(rt60=rt60, drr_db=drr, sample_rate=CLI_SAMPLE_RATE)
    rir = sample_rir(params, rng=rng)
    dry = speech_like_noise(int(duration * CLI_SAMPLE_RATE), CLI_SAMPLE_RATE,
                            rng=rng)
    wet = fftconvolve(dry, rir.taps)
    return stft(wet, cfg), rt60


def cmd_calibrate(opts):
    cfg = default_stft_config()
    manifest = opts.get("manifest")
    synthetic = opts.get("synthetic", cast=int)
    seed = opts.get("seed", 0, cast=int)
    pairs = []
    if manifest:
        with open(manifest, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                path, rt60 = line.rsplit(None, 1)
                sig = _read_input_wav(path)
                pairs.append((stft(sig, cfg), float(rt60)))
    elif synthetic:
        if synthetic < 3:
            raise ValueError("insufficient calibration data: need >= 3 pairs")
        duration = opts.get("duration", 4.0, cast=float)
        for i in range(synthetic):
            pairs.append(_synthetic_pair(seed, i, duration, cfg))
    else:
        raise ValueError("calibrate requires --manifest or --synthetic N")
    cal = calibrate_rt60(pairs, CLI_SAMPLE_RATE)
    _atomic_write(opts.get("output"), cal.to_file)
    return 0


def _blind_config(opts):
    return BlindConfig(
        draws_per_point=opts.get("draws", 3, cast=int),
        k_inner=opts.get("k_inner", 18, cast=int),
        band_radius=_band_radius(opts.get("band_radius", 8)),
        seed=opts.get("seed", 0, cast=int),
        noise_mode=opts.get("noise_mode", "centered-gaussian"),
    )


def cmd_analyze_blind(opts):
    sig = _read_input_wav(opts.get("input"))
    cal = Rt60Calibration.from_file(opts.get("calibration"))
    cfg = default_stft_config()
    spec = stft(sig, cfg)
    est = analyze_blind(spec, cal, _blind_config(opts),
                        sample_rate=sig.sample_rate)
    _write_text(opts.get("output"), format_records(asdict(est).items()))
    return 0


def _solver_config(opts, seed):
    variant = opts.get("variant", "single")
    draws = opts.get("draws", cast=int)
    loss_cfg = LossConfig(variant=variant, num_draws=draws)
    return SolverConfig(
        max_iters=opts.get("max_iters", 500, cast=int),
        step_rule=opts.get("step_rule", "adam"),
        step_size=opts.get("step_size", 5e-2, cast=float),
        stop_rel_tol=opts.get("stop_rel_tol", 1e-4, cast=float),
        loss_cfg=loss_cfg,
        band_radius=_band_radius(opts.get("band_radius", 8)),
        seed=seed,
    )


def _dereverb_one(path, out_path, trace_path, opts, task_seed):
    sig = _read_input_wav(path)
    rt60 = opts.get("rt60", cast=float)
    if rt60 is not None:
        acoustics = AcousticParams(
            rt60=rt60, drr_db=opts.get("drr", 0.0, cast=float),
            n_d=opts.get("nd", 40, cast=int), sample_rate=sig.sample_rate,
            noise_mode=opts.get("noise_mode", "centered-gaussian"))
    else:
        cal_path = opts.get("calibration")
        if not cal_path:
            raise ValueError("dereverb requires --calibration or --rt60/--drr")
        acoustics = Rt60Calibration.from_file(cal_path)
    result, trace = dereverb_pipeline(sig, acoustics,
                                      _solver_config(opts, task_seed),
                                      _blind_config(opts))
    _atomic_write(out_path, lambda tmp: write_wav(
        tmp, result, fmt="float32"))
    if trace_path and trace is not None:
        _write_text(trace_path, trace.to_lines())
    return 0


def cmd_dereverb(opts):
    inputs = opts.get("inputs") or []
    if not inputs:
        raise ValueError("dereverb requires at least one input file")
    out = opts.get("output")
    seed = opts.get("seed", 0, cast=int)
    trace_path = opts.get("trace")
    workers = opts.get("workers", 1, cast=int)
    if len(inputs) == 1:
        return _dereverb_one(inputs[0], out, trace_path, opts,
                             (seed, STREAM_CLI_TASKS, 0))
    if not os.path.isdir(out):
        raise ValueError("multiple inputs require an output directory")
    tasks = []
    for i, path in enumerate(inputs):
        out_path = os.path.join(out, os.path.basename(path))
        tasks.append((path, out_path, None, opts, (seed, STREAM_CLI_TASKS, i)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_dereverb_one, *t) for t in tasks]
            for fut in futures:
                fut.result()
    else:
        for t in tasks:
            _dereverb_one(*t)
    return 0


def cmd_eval(opts):
    est = _read_input_wav(opts.get("est"))
    ref = _read_input_wav(opts.get("ref"))
    report = evaluate(est, ref)
    truth_path = opts.get("true_params")
    est_report = opts.get("est_report")
    if truth_path and est_report:
        truth = params_from_file(truth_path)
        kv = read_records(est_report)
        rt60_est = float(kv.get("rt60", kv.get("rt60_est")))
        drr_est = float(kv.get("drr_db", kv.get("drr_est_db")))
        report.rt60_abs_err_s = abs(rt60_est - truth.rt60)
        report.drr_abs_err_db = abs(drr_est - truth.drr_db)
    _write_text(opts.get("output"), report.to_lines())
    return 0


def cmd_bench(opts):
    seed = opts.get("seed", 0, cast=int)
    radii_arg = opts.get("band_radii", "1,2,4,8,16,full")
    radii = [r.strip() for r in radii_arg.split(",") if r.strip()]
    with_timings = bool(opts.get("timings", False))
    cfg = default_stft_config()
    rng = derive_rng(seed, STREAM_CLI_TASKS, 0)
    # 1500-tap decaying RIR keeps the full-band reference cheap
    taps = rng.standard_normal(1500) * np.exp(
        -np.arange(1500) / (0.35 * CLI_SAMPLE_RATE / (3 * math.log(10.0))))
    taps[0] = 1.0
    rir = Rir(taps, CLI_SAMPLE_RATE)
    dry = speech_like_noise(CLI_SAMPLE_RATE, CLI_SAMPLE_RATE, rng=rng)
    wet = fftconvolve(dry, rir.taps)
    y_ref = stft(wet, cfg)
    spec = stft(dry, cfg)
    t_ref = y_ref.num_frames
    lines = ["band_radius\trel_error" + ("\tapply_seconds" if with_timings else "")]
    for radius in radii:
        band = _band_radius(radius)
        kernel = tfconv.build_kernel(rir, cfg, band)
        t0 = time.perf_counter()
        yhat = tfconv.apply(kernel, spec)
        elapsed = time.perf_counter() - t0
        t_max = max(t_ref, yhat.num_frames)
        ref_pad = np.zeros((cfg.num_bins, t_max), dtype=complex)
        ref_pad[:, :t_ref] = y_ref.data
        hat_pad = np.zeros((cfg.num_bins, t_max), dtype=complex)
        hat_pad[:, :yhat.num_frames] = yhat.data
        rel = np.linalg.norm(hat_pad - ref_pad) / np.linalg.norm(ref_pad)
        row = f"{radius}\t{rel:.17g}"
        if with_timings:
            row += f"\t{elapsed:.6f}"
        lines.append(row)
    _write_text(opts.get("output"), "\n".join(lines) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="revmatch",
        description="Model-based dereverberation via reverberation matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None)
        p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("sample-rir", help="draw an RIR from acoustic parameters")
    common(p)
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=None)
    p.add_argument("--nd", type=int, default=None)
    p.add_argument("--rate", type=int, default=None)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--noise-mode", dest="noise_mode",
                   choices=["centered-gaussian", "half-normal"], default=None)

    p = sub.add_parser("analyze-rir", help="non-blind analysis of an RIR file")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--nd", type=int, default=None)

    p = sub.add_parser("reverberate", help="convolve a dry signal with an RIR")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--rir", required=True)
    p.add_argument("--domain", choices=["time", "stft"], default=None)
    p.add_argument("--band-radius", dest="band_radius", default=None)

    p = sub.add_parser("calibrate", help="fit the blind RT60 calibration")
    common(p)
    p.add_argument("--manifest", default=None)
    p.add_argument("--synthetic", type=int, default=None)
    p.add_argument("--duration", type=float, default=None)

    p = sub.add_parser("analyze-blind", help="blind acoustic analysis of a wav")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--k-inner", dest="k_inner", type=int, default=None)
    p.add_argument("--band-radius", dest="band_radius", default=None)
    p.add_argument("--noise-mode", dest="noise_mode",
                   choices=["centered-gaussian", "half-normal"], default=None)

    p = sub.add_parser("dereverb", help="training-less dereverberation")
    common(p)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--calibration", default=None)
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=None)
    p.add_argument("--nd", type=int, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--step-rule", dest="step_rule",
                   choices=["adam", "fixed"], default=None)
    p.add_argument("--step-size", dest="step_size", type=float, default=None)
    p.add_argument("--stop-rel-tol", dest="stop_rel_tol", type=float,
                   default=None)
    p.add_argument("--variant", choices=["single", "average", "best"],
                   default=None)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--band-radius", dest="band_radius", default=None)
    p.add_argument("--noise-mode", dest="noise_mode",
                   choices=["centered-gaussian", "half-normal"], default=None)
    p.add_argument("--k-inner", dest="k_inner", type=int, default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate an estimate against a reference")
    common(p)
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--true-params", dest="true_params", default=None)
    p.add_argument("--est-report", dest="est_report", default=None)

    p = sub.add_parser("bench", help="kernel accuracy/throughput vs band radius")
    common(p)
    p.add_argument("--band-radii", dest="band_radii", default=None)
    p.add_argument("--timings", action="store_true", default=None)

    return parser


_HANDLERS = {
    "sample-rir": cmd_sample_rir,
    "analyze-rir": cmd_analyze_rir,
    "reverberate": cmd_reverberate,
    "calibrate": cmd_calibrate,
    "analyze-blind": cmd_analyze_blind,
    "dereverb": cmd_dereverb,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    opts = _Options(args)
    handler = _HANDLERS[args.command]
    try:
        return handler(opts)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
