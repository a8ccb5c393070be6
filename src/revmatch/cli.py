"""Batch command-line front end.

Subcommands: sample-rir, analyze-rir, analyze-blind, calibrate, reverberate,
dereverb, eval, bench. Every run is fully determined by (config, seed,
inputs): all randomness derives from the global seed through fixed stream ids
and counters (see seeding), so parallel and serial runs produce identical
bytes. Before any work, ``main`` checks every file a command reads and writes
(``_check_files``), so no output names an input. Commands validate inputs
before computing (dereverb checks its solver and blind settings before it
reads an input, and reads all its inputs before the first solve;
analyze-blind, dereverb given a calibration, and calibrate check each input
against the blind analyzer's minimum length by name; dereverb given --rt60
refuses an all-zero input by name; calibrate checks every manifest line) and
write outputs through a temporary file plus atomic rename, so failed runs
leave no partial files.

Config files, reports and calibration files are ``key=value`` records (see
records). Argparse resolves every option: an explicit flag wins over a config
record, which wins over the option's default, taken from the library object
that owns it. Config keys match the long option names with ``-`` replaced by
``_`` and are converted by the option's type, as flags are.
"""

import argparse
import dataclasses
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blind, records, tfconv
from .blind import MIN_SECONDS, BlindConfig, Rt60Calibration, calibrate_rt60
from .loss import VARIANTS, LossConfig
from .metrics import MetricReport, sisdr
from .records import format_records, read_lines, read_records, record_number
from .rir import (DEFAULT_DIRECT_DELAY, NOISE_MODES, AcousticParams,
                  analyze_rir, read_rir, sample_rir, synthetic_pair,
                  tau_from_rt60, write_rir)
from .seeding import STREAM_CLI_TASKS, derive_rng
from .signals import (SAMPLE_RATE, Signal, default_stft_config, fft_convolve,
                      istft, read_wav, speech_like_noise, stft, write_wav)
from .solver import SolverConfig, trainingless_dereverb

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
    return read_wav(path, expect_rate=SAMPLE_RATE)


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
                            noise_mode=args.noise_mode)
    rir = sample_rir(params, derive_rng(args.seed, STREAM_CLI_TASKS, 0))
    _atomic_write(args.output, lambda tmp: write_rir(tmp, rir))
    return 0


def cmd_analyze_rir(args):
    rir = read_rir(args.input)
    try:
        analysis = analyze_rir(rir, n_d=args.nd)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _write_text(args.output, records.dump(analysis))
    return 0


def cmd_reverberate(args):
    dry = _read_input_wav(args.input)
    rir = read_rir(args.rir)
    if rir.sample_rate != dry.sample_rate:
        raise ValueError(f"{args.rir}: unsupported sample rate: RIR at "
                         f"{rir.sample_rate} Hz, input at {dry.sample_rate} Hz")
    # argparse checks choices on flags only, not on config values
    if args.domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}")
    if args.domain == "time":
        wet = fft_convolve(dry.samples, rir.taps)
    else:
        cfg = default_stft_config()
        grid = tfconv.forward_full(
            rir.taps, tfconv.stft_full(dry.samples, cfg), cfg)
        wet = tfconv.istft_full(grid, cfg, len(dry) + len(rir.taps) - 1)
    sig = Signal(wet, dry.sample_rate)
    _atomic_write(args.output, lambda tmp: write_wav(tmp, sig))
    return 0


def _synthetic_pair(seed, index, duration, cfg, read):
    read.append(f"synthetic pair {index} (--duration {duration:g} s and its "
                "RIR)")
    params, _, _, wet = synthetic_pair(seed, index, duration)
    _check_blind_length(read[-1], len(wet))
    return stft(wet, cfg), params.rt60


def _manifest_pair(manifest, path, rt60, cfg, read):
    read.append(f"{manifest}: {path}")
    sig = _read_input_wav(path)
    _check_blind_length(read[-1], len(sig))
    return stft(sig, cfg), rt60


def _check_blind_length(name, num_samples):
    """Refuse, by name, an input shorter than the blind analyzer reads."""
    if num_samples < MIN_SECONDS * SAMPLE_RATE:
        raise ValueError(f"{name}: input shorter than {MIN_SECONDS} s, the "
                         "blind analyzer's minimum")


def _manifest_labels(manifest):
    """(path, RT60) per ``PATH RT60`` line of a manifest, every line checked
    before any WAV is read; blank lines and ``#`` comments are skipped, and
    a bad label or a path that is not a file names its line."""
    labels = []
    for where, line in read_lines(manifest):
        if line.startswith("#"):
            continue
        fields = line.rsplit(None, 1)
        if len(fields) != 2:
            raise ValueError(f"{where}: expected 'PATH RT60', got {line!r}")
        path, label = fields
        try:
            rt60 = float(label)
        except ValueError:
            raise ValueError(
                f"{where}: RT60 label {label!r} is not a number") from None
        if not 0 < rt60 < math.inf:
            raise ValueError(f"{where}: RT60 label {label!r} must be "
                             "positive and finite")
        if not os.path.isfile(path):
            raise ValueError(f"{where}: {path} is not a file")
        labels.append((path, rt60))
    return labels


def cmd_calibrate(args):
    # pairs are generated one at a time: calibrate_rt60 keeps one number each
    cfg = default_stft_config()
    if args.manifest is not None and args.synthetic is not None:
        raise ValueError("calibrate takes one source: --manifest or "
                         "--synthetic N, not both")
    read = []  # each pair's name as it is read: a refusal names the last
    if args.manifest is not None:
        # flags and config records alike: a duration would be ignored
        if args.duration is not None:
            raise ValueError("calibrate takes --duration with --synthetic "
                             "only, not with --manifest")
        pairs = (_manifest_pair(args.manifest, path, rt60, cfg, read)
                 for path, rt60 in _manifest_labels(args.manifest))
    elif args.synthetic is not None:
        duration = 4.0 if args.duration is None else args.duration
        if not 0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if args.synthetic < 3:
            raise ValueError("insufficient calibration data: need >= 3 pairs")
        if int(duration * SAMPLE_RATE) < 2:
            raise ValueError(f"--duration {duration:g} s: a synthetic "
                             "pair's dry signal needs at least 2 samples at "
                             f"{SAMPLE_RATE} Hz")
        pairs = (_synthetic_pair(args.seed, i, duration, cfg, read)
                 for i in range(args.synthetic))
    else:
        raise ValueError("calibrate requires --manifest or --synthetic N")
    try:
        cal = calibrate_rt60(pairs)
    except blind.InsufficientDecay as exc:
        raise ValueError(f"{read[-1]}: {exc}") from None
    _write_text(args.output, records.dump(cal))
    return 0


def _blind_config(args):
    k_inner = BlindConfig.k_inner if args.k_inner is None else args.k_inner
    return BlindConfig(k_inner=k_inner, seed=args.seed,
                       noise_mode=args.noise_mode)


def cmd_analyze_blind(args):
    sig = _read_input_wav(args.input)
    _check_blind_length(args.input, len(sig))
    cal = records.load(Rt60Calibration, args.calibration)
    spec = stft(sig, default_stft_config())
    try:
        est = blind.analyze_blind(spec, cal, _blind_config(args))
    except blind.InsufficientDecay as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _write_text(args.output, records.dump(est))
    return 0


def _dereverb_one(sig, out_path, trace_path, acoustics, blind_cfg,
                  solver_cfg):
    """Dereverberate one input: STFT, solve under ``solver_cfg``, iSTFT at
    the input's length; write the output and, given ``trace_path``, the
    solve's trace.

    Given an ``Rt60Calibration``, the blind analyzer supplies the acoustics
    under ``blind_cfg``. When it finds no usable decay or maps to a
    near-anechoic RT60, the input is written unchanged and the trace is one
    ``passthrough`` record naming the cause, ``insufficient-decay`` or
    ``anechoic``.
    """
    spec = stft(sig, default_stft_config())
    params, cause = acoustics, None
    if isinstance(acoustics, Rt60Calibration):
        try:
            est = blind.analyze_blind(spec, acoustics, blind_cfg)
            cause = "anechoic" if est.anechoic else None
        except blind.InsufficientDecay:
            cause = "insufficient-decay"
        if cause is None:
            params = AcousticParams(rt60=est.rt60, drr_db=est.drr_db,
                                    noise_mode=blind_cfg.noise_mode)
    if cause is None:
        shat, solve_trace = trainingless_dereverb(spec, params, solver_cfg)
        out = Signal(istft(shat, length=len(sig)), sig.sample_rate)
        trace = solve_trace.to_lines()
    else:
        out, trace = sig, format_records([("passthrough", cause)])
    _atomic_write(out_path, lambda tmp: write_wav(tmp, out))
    if trace_path:
        _write_text(trace_path, trace)


def cmd_dereverb(args):
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    # flags and config records alike; inputs are read at SAMPLE_RATE
    if args.rt60 is not None and args.calibration:
        raise ValueError("dereverb takes one source: --calibration or "
                         "--rt60/--drr, not both")
    if args.rt60 is None and not args.calibration:
        raise ValueError("dereverb requires --calibration or --rt60/--drr")
    # the settings are checked before any input is read
    solver_cfg = SolverConfig(
        max_iters=args.max_iters, step_size=args.step_size,
        stop_rel_tol=args.stop_rel_tol,
        loss_cfg=LossConfig(variant=args.variant, num_draws=args.draws))
    blind_cfg = None
    if args.rt60 is not None:
        # the DRR search's inner budget would be ignored
        if args.k_inner is not None:
            raise ValueError("dereverb takes --k-inner with --calibration "
                             "only, not with --rt60")
        acoustics = AcousticParams(
            rt60=args.rt60, drr_db=0.0 if args.drr is None else args.drr,
            n_d=DEFAULT_DIRECT_DELAY if args.nd is None else args.nd,
            noise_mode=args.noise_mode)
    else:
        # the blind analyzer supplies the acoustics; a DRR or direct delay
        # given with it would be ignored
        if args.drr is not None or args.nd is not None:
            raise ValueError("dereverb takes --drr and --nd with --rt60 "
                             "only, not with --calibration")
        blind_cfg = _blind_config(args)
        acoustics = records.load(Rt60Calibration, args.calibration)
    # every input is read and checked before the first solve
    signals = [_read_input_wav(path) for path in args.inputs]
    for path, sig in zip(args.inputs, signals):
        if isinstance(acoustics, Rt60Calibration):
            _check_blind_length(path, len(sig))
        elif not np.any(sig.samples):
            # the blind analyzer passes a silent input through; a solve
            # cannot scale it
            raise ValueError(f"{path}: input is identically zero, nothing "
                             "to dereverberate")
    # a batch has no trace: _check_files refuses it
    tasks = [(sig, out_path, args.trace, acoustics, blind_cfg,
              dataclasses.replace(solver_cfg,
                                  seed=(args.seed, STREAM_CLI_TASKS, i)))
             for i, (sig, out_path) in enumerate(zip(signals, _outputs(args)))]

    def attempt(task):  # every file runs; the first failure re-raises below
        try:
            _dereverb_one(*task)
        except Exception as exc:  # noqa: BLE001 - re-raised in input order
            return exc
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            failures = list(pool.map(attempt, tasks))
    else:  # inline: a pool of one raises peak memory
        failures = [attempt(t) for t in tasks]
    for exc in filter(None, failures):
        raise exc
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
    est, ref = _read_input_wav(args.est), _read_input_wav(args.ref)
    if len(est) != len(ref):
        raise ValueError(f"signals must have equal lengths: --est {args.est} "
                         f"has {len(est)} samples, --ref {args.ref} "
                         f"{len(ref)}")
    for path, sig, what in ((args.ref, ref, "reference"),
                            (args.est, est, "estimate")):
        if not np.any(sig.samples):
            raise ValueError(f"{path}: zero {what}")
    value, perfect = sisdr(est.samples, ref.samples)
    report = MetricReport(sisdr_db=value, sisdr_perfect=perfect)
    if args.true_params:
        truth = records.load(AcousticParams, args.true_params)
        kv = read_records(args.est_report)
        rt60_est = _report_value(kv, args.est_report, "rt60", "rt60_est")
        drr_est = _report_value(kv, args.est_report, "drr_db", "drr_est_db")
        report.rt60_abs_err_s = abs(rt60_est - truth.rt60)
        report.drr_abs_err_db = abs(drr_est - truth.drr_db)
    _write_text(args.output, records.dump(report))
    return 0


def cmd_bench(args):
    radii = [r.strip() for r in args.band_radii.split(",") if r.strip()]
    if not radii:
        raise ValueError("bench requires at least one band radius")
    for radius in radii:
        if radius != "full" and not radius.lstrip("+").isdecimal():
            raise ValueError(f"--band-radii: {radius!r} is neither a "
                             "non-negative integer nor 'full'")
    cfg = default_stft_config()
    rng = derive_rng(args.seed, STREAM_CLI_TASKS, 0)
    # 1500-tap decaying RIR keeps the full-band reference cheap
    taps = rng.standard_normal(1500) * np.exp(
        -np.arange(1500) / tau_from_rt60(0.35, SAMPLE_RATE))
    taps[0] = 1.0
    dry = speech_like_noise(SAMPLE_RATE, rng=rng)
    y_ref = tfconv.stft_full(fft_convolve(dry, taps), cfg)
    spec = tfconv.stft_full(dry, cfg)
    lines = ["band_radius\trel_error"]
    for radius in radii:
        band = "full" if radius == "full" else int(radius)
        yhat = tfconv.apply(tfconv.build_kernel(taps, cfg, band), spec)
        t_max = max(y_ref.shape[1], yhat.shape[1])
        ref = tfconv.align_frames(y_ref, t_max)
        rel = (np.linalg.norm(tfconv.align_frames(yhat, t_max) - ref)
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

    def command(name, help, handler):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)
        p.add_argument("-o", "--output", required=True)
        return p

    p = command("sample-rir", "draw an RIR from acoustic parameters",
                cmd_sample_rir)
    p.add_argument("--rt60", type=float, default=None)
    p.add_argument("--drr", type=float, default=None)
    p.add_argument("--nd", type=int, default=DEFAULT_DIRECT_DELAY)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=AcousticParams.noise_mode)

    p = command("analyze-rir", "non-blind analysis of an RIR file",
                cmd_analyze_rir)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--nd", type=int, default=DEFAULT_DIRECT_DELAY)

    p = command("reverberate", "convolve a dry signal with an RIR",
                cmd_reverberate)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--rir", required=True)
    p.add_argument("--domain", choices=DOMAINS, default="time")

    p = command("calibrate", "fit the blind RT60 calibration", cmd_calibrate)
    p.add_argument("--manifest", default=None)
    p.add_argument("--synthetic", type=int, default=None)
    # unset, it is 4 s (see cmd_calibrate)
    p.add_argument("--duration", type=float, default=None)

    p = command("analyze-blind", "blind acoustic analysis of a wav",
                cmd_analyze_blind)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--k-inner", type=int, default=BlindConfig.k_inner)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=BlindConfig.noise_mode)

    p = command("dereverb", "training-less dereverberation", cmd_dereverb)
    p.add_argument("--in", dest="inputs", action="append", required=True)
    p.add_argument("--calibration", default=None)
    p.add_argument("--rt60", type=float, default=None)
    # unset, they are 0 dB and DEFAULT_DIRECT_DELAY (see cmd_dereverb)
    p.add_argument("--drr", type=float, default=None)
    p.add_argument("--nd", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    p.add_argument("--step-size", type=float, default=SolverConfig.step_size)
    p.add_argument("--stop-rel-tol", type=float,
                   default=SolverConfig.stop_rel_tol)
    p.add_argument("--variant", choices=VARIANTS, default=LossConfig.variant)
    p.add_argument("--draws", type=int, default=LossConfig.num_draws)
    p.add_argument("--noise-mode", choices=NOISE_MODES,
                   default=AcousticParams.noise_mode)
    # unset, it is BlindConfig.k_inner (see _blind_config)
    p.add_argument("--k-inner", type=int, default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--workers", type=int, default=1)

    p = command("eval", "evaluate an estimate against a reference", cmd_eval)
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--true-params", default=None)
    p.add_argument("--est-report", default=None)

    p = command("bench", "kernel accuracy vs band radius", cmd_bench)
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


# options whose values name files a command reads
_READS = ("config", "input", "inputs", "rir", "calibration", "manifest",
          "est", "ref", "true_params", "est_report")


def _same_file(a, b):
    """Whether two paths name one file: ``samefile`` when both exist,
    otherwise the resolved paths compared."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _outputs(args):
    """The result files: ``-o``, or ``-o``/NAME for each batch input NAME."""
    if len(getattr(args, "inputs", ())) < 2:
        return [args.output]
    return [os.path.join(args.output, os.path.basename(p))
            for p in args.inputs]


def _check_files(args):
    """The CLI's file policy, checked after the config file is parsed and
    before any other input is read: a file written needs an existing
    directory, is no directory and names no file read; a trace does not name
    the output; a batch has an -o directory, distinct names and no trace."""
    trace, outputs = getattr(args, "trace", None), _outputs(args)
    if len(outputs) > 1:
        if trace:
            raise ValueError("--trace takes a single input")
        if not os.path.isdir(args.output):
            raise ValueError("multiple inputs require an output directory")
        clashes = sorted({os.path.basename(path) for path in outputs
                          if outputs.count(path) > 1})
        if clashes:
            raise ValueError("inputs would write the same output file: "
                             + ", ".join(clashes))
    elif trace and _same_file(args.output, trace):
        raise ValueError(f"trace {trace} would overwrite output "
                         f"{args.output}")
    values = [getattr(args, name, None) for name in _READS]
    reads = [p for v in values for p in (v if isinstance(v, list) else [v])
             if p]
    if getattr(args, "manifest", None):
        reads += [path for path, _ in _manifest_labels(args.manifest)]
    for name, path in ([("output", path) for path in outputs]
                       + ([("trace", trace)] if trace else [])):
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise ValueError(f"directory {parent} of {path} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"{name} {path} is a directory, not a file")
        for src in reads:
            if _same_file(path, src):
                raise ValueError(f"output {path} would overwrite input {src}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # parse again with the file's records as the defaults
            args = build_parser(read_records(args.config)).parse_args(argv)
        _check_files(args)
        return args.handler(args)
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
