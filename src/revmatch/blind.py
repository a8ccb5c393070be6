"""Blind acoustic analysis from a reverberant spectrogram: subband decay-run
regression with polynomial calibration for RT60, and a reverberation-matching
grid search for DRR.

The raw decay statistic finds every maximal strictly-decreasing run of
log-energy in every band in one array pass over the ``(bands, frames)``
matrix, fits a line per run, converts each slope to a decay time, and takes
the median over all runs and bands. Its slopes are bit-equal to fitting each
run of each band on its own. The statistic is systematically biased (short
noisy runs are steep), which is exactly what the quadratic calibration
absorbs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rir, tfconv
from .loss import LossConfig
from .records import format_records, read_records, record_number
from .rir import NOISE_MODES, AcousticParams
from .seeding import STREAM_DRR_GRID, STREAM_SYNTH, derive_rng
from .signals import istft, row_weights, stft

DEFAULT_DRR_GRID = (-6.0, -3.0, 0.0, 3.0, 6.0, 10.0)
# a mapped RT60 below this (seconds) is anechoic: the DRR grid is skipped
MIN_RT60 = 0.05
# the shortest strictly-decreasing run of frames the decay statistic fits
MIN_RUN = 3
# bands whose mean energy sits more than this far (dB) below the loudest
# band are left out of the decay statistic
BAND_FLOOR_DB = 60.0


class InsufficientDecay(ValueError):
    """No usable decay evidence in the spectrogram."""


@dataclass(frozen=True)
class Rt60Calibration:
    """Quadratic map from the raw decay statistic to RT60 seconds."""

    c0: float
    c1: float
    c2: float
    n_pairs: int = 0
    residual: float = 0.0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"calibration {name} must be finite")

    def map(self, raw):
        return self.c0 + self.c1 * raw + self.c2 * raw * raw

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(format_records([
                ("c0", self.c0), ("c1", self.c1), ("c2", self.c2),
                ("residual", self.residual), ("n_pairs", self.n_pairs)]))

    @classmethod
    def from_file(cls, path):
        kv = read_records(path, required=("c0", "c1", "c2"))
        return cls(*(record_number(kv, path, k) for k in ("c0", "c1", "c2")),
                   residual=record_number(kv, path, "residual", 0.0),
                   n_pairs=record_number(kv, path, "n_pairs", 0, int))


@dataclass
class BlindEstimate:
    """Output of the blind analyzer."""

    rt60: float
    drr_db: float
    raw_median_decay: float
    rm_loss_at_estimate: float
    anechoic: bool = False


@dataclass(frozen=True)
class BlindConfig:
    """Knobs of the blind analyzer: the DRR grid search and the noise model
    of its draws. The decay statistic's thresholds are the module constants
    ``MIN_RT60``, ``MIN_RUN`` and ``BAND_FLOOR_DB``."""

    drr_grid: tuple = DEFAULT_DRR_GRID
    draws_per_point: int = 3
    k_inner: int = 18
    seed: int = 0
    noise_mode: str = "centered-gaussian"

    def __post_init__(self):
        if self.draws_per_point < 1:
            raise ValueError("draws_per_point must be >= 1")
        if self.k_inner < 1:
            raise ValueError("k_inner must be >= 1")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")


def _run_slopes(log_e, min_run):
    """Least-squares slopes of every maximal strictly-decreasing run of at
    least ``min_run`` points along the rows of a ``(bands, frames)``
    log-energy matrix, in one array pass.

    The decrease mask, padded with ``False`` at both ends, rises (+1) at a
    run's first point and falls (-1) at its last, so in row-major order the
    nonzero edges alternate: first, last, first, last. Runs of one length are
    gathered into one ``(runs, n)`` block sharing the centred abscissa
    ``xm``. ``np.vecdot`` takes each row's numerator with the same 1-D dot
    routine as ``np.dot(xm, run)``, so the slopes are bit-equal to fitting
    each run on its own; a matrix-vector product (``block @ xm``) sums in
    another order and is not.
    """
    dec = np.diff(log_e, axis=1) < 0
    edges = np.diff(np.pad(dec, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    first, last = np.flatnonzero(edges).reshape(-1, 2).T
    npts = last - first + 1
    flat = log_e.ravel()
    slopes = []
    for n in np.unique(npts[npts >= min_run]):
        block = flat[first[npts == n, None] + np.arange(n)]
        x = np.arange(n, dtype=np.float64)
        xm = x - x.mean()
        slopes.append(np.vecdot(xm, block) / np.dot(xm, xm))
    return np.concatenate(slopes) if slopes else np.empty(0)


def raw_decay_estimate(spec, sample_rate=16000):
    """Median per-run decay time (seconds) over all bands of a spectrogram.

    The log-energies of the bands whose mean energy is within
    ``BAND_FLOOR_DB`` of the loudest band's form one ``(bands, frames)``
    matrix; one array pass finds the maximal strictly-decreasing runs of at
    least ``MIN_RUN`` frames in every band and fits each with a least-squares
    line (see ``_run_slopes``). Each negative slope ``s`` (dB per frame)
    gives the decay time ``-60 * hop / (rate * s)``.

    Parameters
    ----------
    spec : Spectrogram
        Must span at least 1 s of audio.
    sample_rate : int

    Raises
    ------
    InsufficientDecay
        If no band contains a qualifying decreasing run.
    """
    if spec.num_samples < sample_rate:
        raise ValueError("input shorter than 1 s")
    energy = np.abs(spec.half().data) ** 2
    band_mean = energy.mean(axis=1)
    peak = band_mean.max()
    if peak <= 0:
        raise InsufficientDecay("insufficient decay evidence")
    keep = band_mean > peak * 10.0 ** (-BAND_FLOOR_DB / 10.0)
    log_e = 10.0 * np.log10(energy + 1e-300)
    slopes = _run_slopes(log_e[keep], MIN_RUN)
    slopes = slopes[slopes < 0]
    if not slopes.size:
        raise InsufficientDecay("insufficient decay evidence")
    frame_dt = spec.config.hop / float(sample_rate)
    return float(np.median(-60.0 * frame_dt / slopes))


def fit_rt60_polynomial(raw_values, rt60_values):
    """Least-squares quadratic fit rt60 ~ c0 + c1 r + c2 r^2.

    Returns an Rt60Calibration carrying the fit residual (RMS).
    """
    raw = np.asarray(raw_values, dtype=np.float64)
    true = np.asarray(rt60_values, dtype=np.float64)
    if raw.ndim != 1 or raw.shape != true.shape:
        raise ValueError("raw and rt60 value lists must be equal-length 1-D")
    if len(raw) < 3:
        raise ValueError("insufficient calibration data: need >= 3 pairs")
    if not np.all(np.isfinite(raw)) or not np.all(np.isfinite(true)):
        raise ValueError("calibration pairs contain non-finite values")
    if np.ptp(raw) == 0:
        raise ValueError("degenerate design matrix: all raw estimates equal")
    design = np.vstack([np.ones_like(raw), raw, raw ** 2]).T
    coeffs, _, rank, _ = np.linalg.lstsq(design, true, rcond=None)
    if rank < 3 and len(np.unique(raw)) < 3:
        raise ValueError("degenerate design matrix: fewer than 3 distinct raw values")
    resid = float(np.sqrt(np.mean((design @ coeffs - true) ** 2)))
    return Rt60Calibration(c0=float(coeffs[0]), c1=float(coeffs[1]),
                           c2=float(coeffs[2]), n_pairs=len(raw),
                           residual=resid)


def calibrate_rt60(pairs, sample_rate=16000):
    """Fit the calibration polynomial on (Spectrogram, rt60 seconds) pairs.

    ``pairs`` is read in one pass and may be any iterable: a generator holds
    one spectrogram at a time, since only its raw decay statistic is kept.
    """
    raws, rt60s = [], []
    for spec, rt60 in pairs:
        raws.append(raw_decay_estimate(spec, sample_rate))
        rt60s.append(rt60)
    return fit_rt60_polynomial(raws, rt60s)


def blind_drr(spec, rt60, grid=None,
              draws_per_point=BlindConfig.draws_per_point,
              k_inner=BlindConfig.k_inner, seed=0, sample_rate=16000,
              noise_mode=BlindConfig.noise_mode):
    """Pick a DRR grid point by reverberation matching at a fixed RT60.

    One cheap training-less solve (budget ``k_inner``) at the most reverberant
    grid point produces a shared dry reference; each grid point is then scored
    by how closely the expected energy of the re-reverberated reference, over
    ``draws_per_point`` Monte-Carlo draws, matches the observed energy. The
    draws share one seed stream across points (common random numbers), so the
    comparison is deterministic for a fixed seed; exact ties resolve to the
    lowest dB. The one-sided grids are scored with the energies summed under
    :func:`~revmatch.signals.row_weights`.

    Draw ``i`` at DRR ``d`` is the direct tap plus ``sigma(d) / sigma(d0)``
    times draw ``i``'s tail at the first grid point ``d0`` (the tail noise
    scales with ``sigma``, see :func:`~revmatch.rir.sigma_from_drr`), and the
    forward operator is linear in the taps. So its model is
    ``A + (sigma(d) / sigma(d0)) B_i``, with ``A`` the reference's one-sided
    STFT and ``B_i`` the forward of draw ``i``'s tail, and every point's mean
    energy and mean residual follow from three weighted sums per draw. The
    search costs one reference solve plus ``draws_per_point`` forwards, and
    does not grow with the grid.

    The residual value of the matching loss itself is NOT a usable selection
    statistic here: for sign-symmetric tail draws its expectation is
    monotonically decreasing in candidate DRR (the anechoic trivial solution),
    so the energy balance above is matched instead. Measured, the pick
    carries no DRR information: it is 0 dB on 18 of 18 files given the true
    RT60 and on 27 of 27 given a calibrated RT60. It follows the default
    step size of the inner solve instead: at 1e-1 it is -6 dB on all six
    files of the ``blind`` benchmark's cycle 0, and the median SI-SDR change
    of blind dereverberation on them falls from -0.43 to -4.01 dB.

    Returns
    -------
    (drr_db, loss) : the selected grid value and the reverberation-matching
    complex term evaluated at the reference estimate under the selected
    parameters.
    """
    from .solver import SolverConfig, trainingless_dereverb

    if grid is None:
        grid = DEFAULT_DRR_GRID
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("DRR grid must be non-empty")
    if len(grid) == 1:
        return grid[0], math.nan

    ref_params = AcousticParams(rt60=rt60, drr_db=grid[0],
                                sample_rate=sample_rate, noise_mode=noise_mode)
    ref_seed = int(derive_rng(seed, STREAM_DRR_GRID).integers(0, 2 ** 62))
    solver_cfg = SolverConfig(max_iters=k_inner, seed=ref_seed,
                              loss_cfg=LossConfig())
    shat, _ = trainingless_dereverb(spec, ref_params, solver_cfg)
    x = istft(shat)

    y_half = spec.half().data
    weights = row_weights(spec.config)
    y_energy = float(np.sum(weights * np.abs(y_half) ** 2))
    a = stft(x, spec.config, one_sided=True).data
    resid = a - y_half
    a_energy = float(np.sum(weights * np.abs(a) ** 2))
    resid_energy = float(np.sum(weights * np.abs(resid) ** 2))
    # per draw: ||B||^2, Re<A, B> and Re<A - Y, B> under the row weights
    sums = np.empty((draws_per_point, 3))
    scratch = tfconv.Scratch(len(x), spec.config)
    for i in range(draws_per_point):
        tail = rir.sample_rir(
            ref_params, rng=derive_rng(seed, STREAM_DRR_GRID, 1, i)).taps
        tail[0] = 0.0  # the draw without its direct tap
        b = tfconv.ExactConv(tail, spec.config).forward(x, scratch).data
        b_w = weights * b
        sums[i] = [np.vdot(b_w, b).real, np.vdot(b_w, a).real,
                   np.vdot(b_w, resid).real]
    bb, ab, rb = sums.mean(axis=0)
    tau = rir.tau_from_rt60(rt60, sample_rate)
    sigmas = np.array([rir.sigma_from_drr(db, tau, ref_params.n_d)
                       for db in grid])
    scale = sigmas / sigmas[0]
    energies = a_energy + 2.0 * scale * ab + scale ** 2 * bb
    scores = np.abs(np.log(energies) - math.log(y_energy))
    best = int(np.argmin(scores))
    rm_value = resid_energy + 2.0 * scale[best] * rb + scale[best] ** 2 * bb
    return grid[best], float(rm_value)


def analyze_blind(spec, cal, cfg=None, sample_rate=16000):
    """Blind estimate of (RT60, DRR) from a reverberant spectrogram.

    Composes the raw decay statistic, the calibration polynomial, and the DRR
    grid search. A mapped RT60 below the anechoic floor short-circuits the
    grid search and flags the estimate.
    """
    if cfg is None:
        cfg = BlindConfig()
    raw = raw_decay_estimate(spec, sample_rate)
    rt60 = float(cal.map(raw))
    if rt60 < MIN_RT60:
        return BlindEstimate(rt60=rt60, drr_db=max(cfg.drr_grid),
                             raw_median_decay=raw,
                             rm_loss_at_estimate=math.nan, anechoic=True)
    drr_db, loss_val = blind_drr(
        spec, rt60, grid=cfg.drr_grid, draws_per_point=cfg.draws_per_point,
        k_inner=cfg.k_inner, seed=cfg.seed,
        sample_rate=sample_rate, noise_mode=cfg.noise_mode)
    return BlindEstimate(rt60=rt60, drr_db=drr_db, raw_median_decay=raw,
                         rm_loss_at_estimate=loss_val)


def speech_shaped_noise(num_samples, sample_rate=16000, rng=None):
    """Stationary noise with a speech-like long-term spectral envelope:
    band-passed around the low hundreds of Hz with a gentle high-frequency
    roll-off. Unit RMS."""
    if num_samples < 2:
        # one sample holds only DC, which the envelope removes
        raise ValueError("speech-shaped noise needs at least 2 samples")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = derive_rng(0 if rng is None else int(rng), STREAM_SYNTH)
    white = rng.standard_normal(num_samples)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate)
    envelope = (freqs / (freqs + 120.0)) / np.sqrt(1.0 + (freqs / 1000.0) ** 2)
    shaped = np.fft.irfft(spec * envelope, n=num_samples)
    rms = np.sqrt(np.mean(shaped ** 2))
    return shaped / rms


def speech_like_noise(num_samples, sample_rate=16000, rng=None):
    """Speech-shaped noise with a syllabic temporal envelope.

    Alternates voiced bursts and pauses (with raised-cosine edges and
    per-burst level variation), so a reverberated copy exhibits free-decay
    regions after offsets. Blind decay estimation has no evidence to work
    with on strictly stationary sources. Unit RMS.
    """
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = derive_rng(0 if rng is None else int(rng), STREAM_SYNTH, 1)
    carrier = speech_shaped_noise(num_samples, sample_rate, rng)
    env = np.zeros(num_samples)
    ramp = max(1, int(0.010 * sample_rate))
    edge = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
    pos = 0
    while pos < num_samples:
        burst = int(rng.uniform(0.08, 0.40) * sample_rate)
        pause = int(rng.uniform(0.06, 0.30) * sample_rate)
        level = 10.0 ** (rng.uniform(-6.0, 0.0) / 20.0)
        b0, b1 = pos, min(pos + burst, num_samples)
        env[b0:b1] = level
        if b1 - b0 > 2 * ramp:
            env[b0:b0 + ramp] = level * edge
            env[b1 - ramp:b1] = level * edge[::-1]
        pos = b1 + pause
    out = carrier * env
    rms = np.sqrt(np.mean(out ** 2))
    if rms == 0:
        return carrier
    return out / rms
