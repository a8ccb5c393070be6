"""Batch command-line front end.

Subcommands: sample-rir, analyze-rir, analyze-blind, calibrate, reverberate,
dereverb, eval, bench. Every run is fully determined by (config, seed,
inputs): all randomness derives from the global seed through fixed stream ids
and counters (see seeding), so parallel and serial runs produce identical
bytes. Commands validate inputs before computing and write outputs through a
temporary file plus atomic rename, so failed runs leave no partial files.

Config files, reports and calibration files are ``key=value`` records (see
records). Argparse resolves every option: an explicit flag wins over a config
record, which wins over the option's default, taken from the library object
that owns it. Config keys match the long option names with ``-`` replaced by
``_`` and are converted by the option's type, as flags are.
"""

import argparse
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import tfconv
from .blind import (BlindConfig, Rt60Calibration, analyze_blind,
                    calibrate_rt60, speech_like_noise)
from .loss import VARIANTS, LossConfig, _align_frames
from .metrics import evaluate
from .records import format_records, read_records, record_number
from .rir import (DEFAULT_DIRECT_DELAY, NOISE_MODES, AcousticParams, Rir,
                  analyze_rir, params_from_file, read_rir, sample_rir,
                  write_rir)
from .seeding import STREAM_CLI_TASKS, STREAM_SYNTH, derive_rng
from .signals import (Signal, default_stft_config, fft_convolve, istft,
                      read_wav, stft, write_wav)
from .solver import SolverConfig, dereverb_pipeline
# not called here; perfbench/spans.py wraps cli.trainingless_dereverb by name
from .solver import trainingless_dereverb  # noqa: F401

CLI_SAMPLE_RATE = 16000
DOMAINS = ("time", "stft")

# config keys that stay ignored: the files named on the command line, by
# option name or destination (a string default would break ``--in``'s
# append), and the subcommand itself
_COMMAND_LINE_ONLY = ("command", "config", "in", "input", "inputs", "output")


def _atomic_write(path, writer):
    """Write a file through a temp sibling + rename, so errors leave nothing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # the temp file keeps the final suffix, so writers that pick a format by
    # extension (write_rir) see the right one
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-revmatch-",
                               suffix=os.path.splitext(str(path))[1])
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_input_wav(path):
    return read_wav(path, expect_rate=CLI_SAMPLE_RATE)


def _write_text(path, text):
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
    _atomic_write(path, writer)


def cmd_sample_rir(args):
    # not required by the parser: a config file may supply them
    for name in ("rt60", "drr"):
        if getattr(args, name) is None:
            raise ValueError(f"sample-rir requires --{name}")
    params = AcousticParams(rt60=args.rt60, drr_db=args.drr, n_d=args.nd,
                            sample_rate=args.rate, noise_mode=args.noise_mode)
    rir = sample_rir(params, args.length,
                     rng=derive_rng(args.seed, STREAM_CLI_TASKS, 0))
    _atomic_write(args.output, lambda tmp: write_rir(tmp, rir))
    return 0


def cmd_analyze_rir(args):
    analysis = analyze_rir(read_rir(args.input), n_d=args.nd)
    keys = ("rt60_est", "sigma_est", "drr_est_db", "t5", "t25", "e_5_25")
    _write_text(args.output,
                format_records((k, getattr(analysis, k)) for k in keys))
    return 0


def cmd_reverberate(args):
    dry = _read_input_wav(args.input)
    rir = read_rir(args.rir)
    if rir.sample_rate != dry.sample_rate:
        raise ValueError("unsupported sample rate: RIR rate differs from input")
    # argparse checks choices on flags only, not on config values
    if args.domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}")
    if args.domain == "time":
        wet = fft_convolve(dry.samples, rir.taps)
    else:
        cfg = default_stft_config()
        wet = istft(tfconv.forward_full(rir.taps, stft(dry, cfg)))
    sig = Signal(wet, dry.sample_rate)
    _atomic_write(args.output, lambda tmp: write_wav(tmp, sig))
    return 0


def _synthetic_pair(seed, index, duration, cfg):
    rng = derive_rng(seed, STREAM_SYNTH, index)
    rt60 = rng.uniform(0.2, 1.0)
    drr = rng.uniform(-6.0, 10.0)
    params = AcousticParams(rt60=rt60, drr_db=drr, sample_rate=CLI_SAMPLE_RATE)
    rir = sample_rir(params, rng=rng)
    dry = speech_like_noise(int(duration * CLI_SAMPLE_RATE), CLI_SAMPLE_RATE,
                            rng=rng)
    wet = fft_convolve(dry, rir.taps)
    return stft(wet, cfg), rt60


def _manifest_pairs(manifest, cfg):
    """(Spectrogram, RT60) per ``PATH RT60`` line of a manifest; blank lines
    and ``#`` comments are skipped, and a bad label names its line."""
    with open(manifest, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{manifest}:{number}"
            fields = line.rsplit(None, 1)
            if len(fields) != 2:
                raise ValueError(
                    f"{where}: expected 'PATH RT60', got {line!r}")
            path, label = fields
            try:
                rt60 = float(label)
            except ValueError:
                raise ValueError(
                    f"{where}: RT60 label {label!r} is not a number") from None
            if not 0 < rt60 < math.inf:
                raise ValueError(f"{where}: RT60 label {label!r} must be "
                                 "positive and finite")
            yield stft(_read_input_wav(path), cfg), rt60


def cmd_calibrate(args):
    # pairs are generated one at a time: calibrate_rt60 keeps one number each
    cfg = default_stft_config()
    if not 0 < args.duration < math.inf:
        raise ValueError("duration must be positive and finite")
    if args.manifest is not None and args.synthetic is not None:
        raise ValueError("calibrate takes one source: --manifest or "
                         "--synthetic N, not both")
    if args.manifest is not None:
        pairs = _manifest_pairs(args.manifest, cfg)
    elif args.synthetic is not None:
        if args.synthetic < 3:
            raise ValueError("insufficient calibration data: need >= 3 pairs")
        pairs = (_synthetic_pair(args.seed, i, args.duration, cfg)
                 for i in range(args.synthetic))
    else:
        raise ValueError("calibrate requires --manifest or --synthetic N")
    cal = calibrate_rt60(pairs, CLI_SAMPLE_RATE)
    _atomic_write(args.output, cal.to_file)
    return 0


def _blind_config(args):
    return BlindConfig(k_inner=args.k_inner, seed=args.seed,
                       noise_mode=args.noise_mode)


def cmd_analyze_blind(args):
    sig = _read_input_wav(args.input)
    cal = Rt60Calibration.from_file(args.calibration)
    spec = stft(sig, default_stft_config())
    est = analyze_blind(spec, cal, _blind_config(args),
                        sample_rate=sig.sample_rate)
    _write_text(args.output, format_records(asdict(est).items()))
    return 0


def _solver_config(args, seed):
    return SolverConfig(
        max_iters=args.max_iters, step_size=args.step_size,
        stop_rel_tol=args.stop_rel_tol,
        loss_cfg=LossConfig(variant=args.variant, num_draws=args.draws),
        seed=seed)


def _dereverb_one(path, out_path, trace_path, acoustics, args, task_seed):
    sig = _read_input_wav(path)
    result, trace = dereverb_pipeline(sig, acoustics,
                                      _solver_config(args, task_seed),
                                      _blind_config(args))
    _atomic_write(out_path, lambda tmp: write_wav(tmp, result))
    if trace_path:
        _write_text(trace_path, trace.to_lines())
    return 0


def _same_file(a, b):
    """Whether two paths name one file: ``samefile`` when both exist,
    otherwise the resolved paths compared."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def cmd_dereverb(args):
    inputs, out, trace_path = args.inputs, args.output, args.trace
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    # flags and config records alike; inputs are read at CLI_SAMPLE_RATE
    if args.rt60 is not None and args.calibration:
        raise ValueError("dereverb takes one source: --calibration or "
                         "--rt60/--drr, not both")
    if args.rt60 is not None:
        acoustics = AcousticParams(
            rt60=args.rt60, drr_db=args.drr, n_d=args.nd,
            sample_rate=CLI_SAMPLE_RATE, noise_mode=args.noise_mode)
    elif args.calibration:
        acoustics = Rt60Calibration.from_file(args.calibration)
    else:
        raise ValueError("dereverb requires --calibration or --rt60/--drr")
    if len(inputs) == 1:
        if trace_path and _same_file(out, trace_path):
            raise ValueError(f"trace {trace_path} would overwrite output "
                             f"{out}")
        outputs = [out]
    else:
        if trace_path:
            raise ValueError("--trace takes a single input")
        if not os.path.isdir(out):
            raise ValueError("multiple inputs require an output directory")
        names = [os.path.basename(path) for path in inputs]
        clashes = sorted({name for name in names if names.count(name) > 1})
        if clashes:
            raise ValueError("inputs would write the same output file: "
                             + ", ".join(clashes))
        outputs = [os.path.join(out, name) for name in names]
    for path in outputs + ([trace_path] if trace_path else []):
        for src in inputs:
            if _same_file(path, src):
                raise ValueError(f"output {path} would overwrite input {src}")
    # a batch has no trace: it was refused above
    tasks = [(path, out_path, trace_path, acoustics, args,
              (args.seed, STREAM_CLI_TASKS, i))
             for i, (path, out_path) in enumerate(zip(inputs, outputs))]
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            futures = [pool.submit(_dereverb_one, *t) for t in tasks]
            for fut in futures:
                fut.result()
    else:
        for t in tasks:
            _dereverb_one(*t)
    return 0


def _report_value(kv, path, *keys):
    """The finite value of the first of ``keys`` present in a report's
    records."""
    for key in keys:
        if key in kv:
            val = record_number(kv, path, key)
            if not math.isfinite(val):
                raise ValueError(f"{path}: {key} must be finite, "
                                 f"not {kv[key]}")
            return val
    raise ValueError(f"{path}: report has no {' or '.join(keys)} record")


def cmd_eval(args):
    if bool(args.true_params) != bool(args.est_report):
        raise ValueError("eval takes --true-params and --est-report together")
    report = evaluate(_read_input_wav(args.est), _read_input_wav(args.ref))
    if args.true_params:
        truth = params_from_file(args.true_params)
        kv = read_records(args.est_report)
        rt60_est = _report_value(kv, args.est_report, "rt60", "rt60_est")
        drr_est = _report_value(kv, args.est_report, "drr_db", "drr_est_db")
        report.rt60_abs_err_s = abs(rt60_est - truth.rt60)
        report.drr_abs_err_db = abs(drr_est - truth.drr_db)
    _write_text(args.output, report.to_lines())
    return 0


def cmd_bench(args):
    radii = [r.strip() for r in args.band_radii.split(",") if r.strip()]
    if not radii:
        raise ValueError("bench requires at least one band radius")
    cfg = default_stft_config()
    rng = derive_rng(args.seed, STREAM_CLI_TASKS, 0)
    # 1500-tap decaying RIR keeps the full-band reference cheap
    taps = rng.standard_normal(1500) * np.exp(
        -np.arange(1500) / (0.35 * CLI_SAMPLE_RATE / (3 * math.log(10.0))))
    taps[0] = 1.0
    rir = Rir(taps, CLI_SAMPLE_RATE)
    dry = speech_like_noise(CLI_SAMPLE_RATE, CLI_SAMPLE_RATE, rng=rng)
    y_ref = stft(fft_convolve(dry, rir.taps), cfg)
    spec = stft(dry, cfg)
    lines = ["band_radius\trel_error"]
    for radius in radii:
        band = "full" if radius == "full" else int(radius)
        yhat = tfconv.apply(tfconv.build_kernel(rir, cfg, band), spec)
        t_max = max(y_ref.num_frames, yhat.num_frames)
        ref = _align_frames(y_ref.data, t_max)
        rel = (np.linalg.norm(_align_frames(yhat.data, t_max) - ref)
               / np.linalg.norm(ref))
        lines.append(f"{radius}\t{rel:.17g}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def build_parser(config=None):
    """The ``revmatch`` parser. ``config`` holds a config file's records,
    which become every subcommand's defaults (keys in ``_COMMAND_LINE_ONLY``
    aside), so argparse converts them with each option's type and explicit
    flags still win. A record that names no option of any subcommand is a
    ``ValueError``."""
    parser = argparse.ArgumentParser(
        prog="revmatch",
        description="Model-based dereverberation via reverberation matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        p.add_argument("-o", "--output", required=True)
        return p

    p = command("sample-rir", "draw an RIR from acoustic parameters")
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=None)
    p.add_argument("--nd", type=int, default=DEFAULT_DIRECT_DELAY)
    p.add_argument("--rate", type=int, default=CLI_SAMPLE_RATE)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=AcousticParams.noise_mode)

    p = command("analyze-rir", "non-blind analysis of an RIR file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--nd", type=int, default=DEFAULT_DIRECT_DELAY)

    p = command("reverberate", "convolve a dry signal with an RIR")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--rir", required=True)
    p.add_argument("--domain", choices=DOMAINS, default="time")

    p = command("calibrate", "fit the blind RT60 calibration")
    p.add_argument("--manifest", default=None)
    p.add_argument("--synthetic", type=int, default=None)
    p.add_argument("--duration", type=float, default=4.0)

    p = command("analyze-blind", "blind acoustic analysis of a wav")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--k-inner", type=int, default=BlindConfig.k_inner)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=BlindConfig.noise_mode)

    p = command("dereverb", "training-less dereverberation")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--calibration", default=None)
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=0.0)
    p.add_argument("--nd", type=int, default=DEFAULT_DIRECT_DELAY)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--step-size", type=float, default=SolverConfig.step_size)
    p.add_argument("--stop-rel-tol", type=float,
                   default=SolverConfig.stop_rel_tol)
    p.add_argument("--variant", choices=VARIANTS, default=LossConfig.variant)
    p.add_argument("--draws", type=int, default=LossConfig.num_draws)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=AcousticParams.noise_mode)
    p.add_argument("--k-inner", type=int, default=BlindConfig.k_inner)
    p.add_argument("--trace", default=None)
    p.add_argument("--workers", type=int, default=1)

    p = command("eval", "evaluate an estimate against a reference")
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--true-params", default=None)
    p.add_argument("--est-report", default=None)

    p = command("bench", "kernel accuracy vs band radius")
    p.add_argument("--band-radii", default="1,2,4,8,16,full")

    if config:
        defaults = {key: val for key, val in config.items()
                    if key not in _COMMAND_LINE_ONLY}
        options = {action.dest for p in sub.choices.values()
                   for action in p._actions}
        unknown = sorted(defaults.keys() - options)
        if unknown:
            raise ValueError("unknown config key: " + ", ".join(unknown))
        for p in sub.choices.values():
            p.set_defaults(**defaults)
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
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parse again with the file's records as the defaults
            args = build_parser(read_records(args.config)).parse_args(argv)
        # before any work: the temp file beside an output would be refused
        # only after it, naming that hidden file; batch dereverb writes into
        # its -o directory
        batch = args.command == "dereverb" and len(args.inputs) > 1
        for path, name in ((args.output, "output"),
                           (getattr(args, "trace", None), "trace")):
            if not path:
                continue
            parent = os.path.dirname(path)
            if parent and not os.path.isdir(parent):
                raise ValueError(f"directory {parent} of {path} does not "
                                 "exist")
            if os.path.isdir(path) and not (batch and name == "output"):
                raise ValueError(f"{name} {path} is a directory, not a file")
        return _HANDLERS[args.command](args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
