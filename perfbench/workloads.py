"""Seeded inputs, the three workload runners, and the per-file output checks.

Every input is a function of the workload seed. RT60 sets the kernel size and
the cost of `oracle` and `forward-full` files; on `blind` the iteration count
at which the solver stops varies from file to file as well. Files come in
cycles whose mix of (RT60, DRR) cells is the same whatever the seed, in a
seeded order, so every run measures the same mix of costs:

- `oracle` and `forward-full`: every cell of the grid once, 9 files;
- `blind`: its files cost 5-7 s, and a whole grid does not fit in a run, so a
  cycle holds two transversals of a seeded Latin square over the grid: 6
  distinct cells, each RT60 twice and each DRR twice.
"""

import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.io import wavfile
from scipy.signal import fftconvolve

FS = 16000

# independent seed streams of the benchmark's own generator
_CYCLE_STREAM, _FILE_STREAM, _WARMUP_STREAM = 1, 2, 3

# README: the full-band STFT path matches time-domain convolution to ~1e-8
FORWARD_REL_TOL = 1e-8


@dataclass(frozen=True)
class Settings:
    duration_s: float = 3.0
    rt60s: tuple = (0.3, 0.6, 0.9)
    drrs: tuple = (-3.0, 0.0, 6.0)
    # transversals of the RT60 x DRR Latin square in one blind cycle
    blind_transversals: int = 2
    # the known-RIR solve never stops early; its default 500 iterations take
    # ~28 s per file, more than one run may spend, so the budget is fixed lower
    oracle_iters: int = 40
    calibrate_args: tuple = ("--synthetic", "40")
    dereverb_args: tuple = ()


FULL = Settings()
# one short input per workload and few iterations: checks the plumbing only
SMOKE = replace(FULL, duration_s=1.5, rt60s=(0.3,), drrs=(0.0,),
                blind_transversals=1, oracle_iters=4,
                calibrate_args=("--synthetic", "3", "--duration", "1.5"),
                dereverb_args=("--max-iters", "4", "--k-inner", "2"))


def _f32(x):
    """Round to float32, the precision every WAV file of the run holds."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def _write(path, samples):
    wavfile.write(path, FS, np.asarray(samples, dtype=np.float32))


@dataclass
class FileInput:
    index: object
    rt60: float
    drr_db: float
    dry: np.ndarray
    taps: np.ndarray
    wet: np.ndarray
    dry_path: str
    rir_path: str
    wet_path: str

    @property
    def audio_s(self):
        return len(self.dry) / FS


def make_input(rm, settings, workdir, seed, index, key, rt60, drr_db):
    """Dry speech-like noise, a sampled RIR and the reverberant mixture cut to
    the dry length, all stored as float32 WAV before any timing starts."""
    rng = np.random.default_rng([seed, *key])
    n = int(round(settings.duration_s * FS))
    dry = _f32(rm.blind.speech_like_noise(n, FS, rng=rng))
    params = rm.rir.AcousticParams(rt60=rt60, drr_db=drr_db, sample_rate=FS)
    taps = _f32(rm.rir.sample_rir(params, rng=rng).taps)
    wet = _f32(fftconvolve(dry, taps)[:n])
    paths = [str(Path(workdir) / f"{index}-{kind}.wav")
             for kind in ("dry", "rir", "wet")]
    for path, samples in zip(paths, (dry, taps, wet)):
        _write(path, samples)
    return FileInput(index, rt60, drr_db, dry, taps, wet, *paths)


def warmup_input(rm, settings, workdir):
    """The set-up's warm-up file: the cheapest cell (shortest RIR, highest
    DRR), and the same file for every workload seed, so set-up time does not
    depend on the draw."""
    return make_input(rm, settings, workdir, 0, "warmup", (_WARMUP_STREAM, 0),
                      min(settings.rt60s), max(settings.drrs))


def cycle_inputs(runner, seed, cycle):
    """The files of one cycle: the runner's cells in an order drawn from the
    seed, each with its own seeded signal and RIR."""
    rng = np.random.default_rng([seed, _CYCLE_STREAM, cycle])
    cells = runner.cycle_cells(rng)
    items = []
    for j, k in enumerate(rng.permutation(len(cells))):
        rt60, drr = cells[k]
        index = cycle * len(cells) + j
        items.append(make_input(runner.rm, runner.settings, runner.workdir,
                                seed, index, (_FILE_STREAM, index),
                                float(rt60), float(drr)))
    return items


class Runner:
    """One workload: optional program-side preparation, then one call per
    file through the package's public entry point."""

    band_radius = 8
    dereverbs = True

    def __init__(self, rm, settings, workdir):
        self.rm = rm
        self.settings = settings
        self.workdir = Path(workdir)

    def prepare(self):
        pass

    def cycle_cells(self, rng):
        """The (RT60, DRR) cells of one cycle: the whole grid."""
        return [(r, d) for r in self.settings.rt60s for d in self.settings.drrs]

    def run(self, item, out_path):
        raise NotImplementedError

    def expected_length(self, item):
        return len(item.dry)

    def reference(self, item):
        return None

    def _cli(self, *argv):
        rc = self.rm.cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"revmatch exited with code {rc}")


class Oracle(Runner):
    """Known RIR: no CLI surface, so stft -> solve -> istft through the
    library, with the WAV read and write a CLI run would do."""

    def run(self, item, out_path):
        signals, solver = self.rm.signals, self.rm.solver
        sig = signals.read_wav(item.wet_path, expect_rate=FS)
        spec = signals.stft(sig, signals.default_stft_config())
        cfg = solver.SolverConfig(max_iters=self.settings.oracle_iters)
        shat, _ = solver.trainingless_dereverb(
            spec, self.rm.rir.Rir(item.taps, FS), cfg)
        out = signals.istft(shat, length=len(sig))
        signals.write_wav(out_path, signals.Signal(out, FS))


class Blind(Runner):
    def cycle_cells(self, rng):
        """Transversals of a Latin square with seeded rows and columns: no
        cell twice, every RT60 and every DRR once per transversal."""
        rt60s = rng.permutation(self.settings.rt60s)
        drrs = rng.permutation(self.settings.drrs)
        return [(r, drrs[(i + k) % len(drrs)])
                for k in range(self.settings.blind_transversals)
                for i, r in enumerate(rt60s)]

    def prepare(self):
        self.calibration = self.workdir / "cal.txt"
        self._cli("calibrate", *self.settings.calibrate_args,
                  "-o", self.calibration)

    def run(self, item, out_path):
        self._cli("dereverb", "--in", item.wet_path,
                  "--calibration", self.calibration, "--workers", 1,
                  *self.settings.dereverb_args, "-o", out_path)


class ForwardFull(Runner):
    band_radius = "full"
    dereverbs = False

    def run(self, item, out_path):
        self._cli("reverberate", "--in", item.dry_path, "--rir", item.rir_path,
                  "--domain", "stft", "-o", out_path)

    def expected_length(self, item):
        return len(item.dry) + len(item.taps) - 1

    def reference(self, item):
        return _f32(fftconvolve(item.dry, item.taps))


RUNNERS = {"oracle": Oracle, "blind": Blind, "forward-full": ForwardFull}


@dataclass
class FileRecord:
    item: FileInput
    out_path: str
    seconds: float
    error: str | None = None
    output: np.ndarray | None = None
    rel_err: float | None = None

    @property
    def ok(self):
        return self.error is None


def run_file(runner, item, out_path):
    """Time one call, from WAV read to WAV write; a raise marks a failure."""
    t0 = time.perf_counter()
    try:
        runner.run(item, out_path)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed file is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return FileRecord(item, str(out_path), time.perf_counter() - t0, error)


def check_output(runner, rec):
    """Output checks: the call succeeded, the output is finite, it has the
    expected length, and forward-full matches time-domain convolution."""
    if not rec.ok:
        return
    try:
        out = wavfile.read(rec.out_path)[1].astype(np.float64)
    except (OSError, ValueError) as exc:
        rec.error = f"unreadable output: {exc}"
        return
    if not np.all(np.isfinite(out)):
        rec.error = "non-finite output"
        return
    want = runner.expected_length(rec.item)
    if len(out) != want:
        rec.error = f"output has {len(out)} samples, expected {want}"
        return
    ref = runner.reference(rec.item)
    if ref is not None:
        rec.rel_err = float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
        if not rec.rel_err <= FORWARD_REL_TOL:
            rec.error = (f"relative error {rec.rel_err:.3g} against time-domain "
                         f"convolution exceeds {FORWARD_REL_TOL:g}")
            return
    rec.output = out


def lsd_db(est, ref, win=512, hop=256):
    """Log-spectral distance in dB: per-frame RMS over frequency of the
    difference of log power spectra, averaged over frames. Bins more than
    60 dB below the reference's peak are floored."""
    window = np.hanning(win + 1)[:-1]

    def power(x):
        buf = np.concatenate([np.zeros(win - hop), x, np.zeros(win)])
        frames = np.lib.stride_tricks.sliding_window_view(buf, win)[::hop]
        return np.abs(np.fft.rfft(frames * window, axis=1)) ** 2

    p_est, p_ref = power(est), power(ref)
    floor = 1e-6 * p_ref.max()
    diff = 10.0 * (np.log10(p_est + floor) - np.log10(p_ref + floor))
    return float(np.mean(np.sqrt(np.mean(diff ** 2, axis=1))))


def quality(rm, rec):
    """SI-SDR change against the reverberant input and LSD, both against the
    dry signal."""
    dry = rec.item.dry
    gain = (rm.metrics.sisdr(rec.output, dry)[0]
            - rm.metrics.sisdr(rec.item.wet, dry)[0])
    return gain, lsd_db(rec.output, dry)


def kernel_mib(rm, num_taps, band_radius):
    """Computed size of one complex128 kernel, without building it."""
    cfg = rm.signals.default_stft_config()
    offsets = len(rm.tfconv.band_offsets(cfg.num_bins, band_radius))
    frames = (rm.tfconv.kernel_frames(num_taps, cfg)
              + (cfg.win_len - 1) // cfg.hop)
    return cfg.num_bins * offsets * frames * 16 / 2 ** 20


def grid_shape(rm, num_samples):
    cfg = rm.signals.default_stft_config()
    return cfg.num_bins, rm.signals.num_frames_for(num_samples, cfg)


def median(values):
    return float(statistics.median(values)) if values else 0.0
