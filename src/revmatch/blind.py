"""Blind acoustic analysis from a reverberant spectrogram: subband decay-run
regression with polynomial calibration for RT60, and a reverberation-matching
grid search for DRR. The analyzer works at ``signals.SAMPLE_RATE``, the rate
a calibration is fitted at.

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

from . import loss, rir, solver, tfconv
from .rir import NOISE_MODES, AcousticParams
from .seeding import STREAM_DRR_GRID, derive_rng
from .signals import SAMPLE_RATE, istft, weighted_dot
# not called here: perfbench/workloads.py draws its inputs as
# rm.blind.speech_like_noise
from .signals import speech_like_noise  # noqa: F401

# the DRR search's candidates (dB, ascending) and its tail draws
DEFAULT_DRR_GRID = (-6.0, -3.0, 0.0, 3.0, 6.0, 10.0)
DRR_DRAWS = 3
# the shortest input (seconds) the decay statistic reads
MIN_SECONDS = 1
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
    residual: float = 0.0
    n_pairs: int = 0

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"calibration {name} must be finite")

    def map(self, raw):
        return self.c0 + self.c1 * raw + self.c2 * raw * raw


@dataclass
class BlindEstimate:
    """Output of the blind analyzer: the mapped RT60, the picked DRR (the
    grid's maximum when ``anechoic``), and the raw decay statistic."""

    rt60: float
    drr_db: float
    raw_median_decay: float
    anechoic: bool = False


@dataclass(frozen=True)
class BlindConfig:
    """Knobs of the blind analyzer, which :func:`analyze_blind` passes whole
    to the DRR search :func:`blind_drr`: the search's inner solve budget,
    its seed and the noise model of its draws. The search's grid and draw
    count are the module constants ``DEFAULT_DRR_GRID`` and ``DRR_DRAWS``;
    the decay statistic's thresholds are ``MIN_RT60``, ``MIN_RUN`` and
    ``BAND_FLOOR_DB``."""

    k_inner: int = 18
    seed: int = 0
    noise_mode: str = "centered-gaussian"

    def __post_init__(self):
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


def raw_decay_estimate(spec):
    """Median per-run decay time (seconds) over all bands of a spectrogram.

    The log-energies of the bands whose mean energy is within
    ``BAND_FLOOR_DB`` of the loudest band's form one ``(bands, frames)``
    matrix; one array pass finds the maximal strictly-decreasing runs of at
    least ``MIN_RUN`` frames in every band and fits each with a least-squares
    line (see ``_run_slopes``). Each negative slope ``s`` (dB per frame)
    gives the decay time ``-60 * hop / (SAMPLE_RATE * s)``.

    Parameters
    ----------
    spec : Spectrogram
        Must span at least ``MIN_SECONDS`` of audio.

    Raises
    ------
    ValueError
        If the input is shorter than ``MIN_SECONDS`` or its grid holds a
        non-finite value.
    InsufficientDecay
        If no band contains a qualifying decreasing run.
    """
    if spec.num_samples < MIN_SECONDS * SAMPLE_RATE:
        raise ValueError(f"input shorter than {MIN_SECONDS} s")
    grid = spec.data
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid contains non-finite values")
    energy = np.abs(grid) ** 2
    band_mean = energy.mean(axis=1)
    peak = band_mean.max()
    if peak <= 0:
        raise InsufficientDecay("insufficient decay evidence")
    keep = band_mean > peak * 10.0 ** (-BAND_FLOOR_DB / 10.0)
    log_e = 10.0 * np.log10(energy[keep] + 1e-300)
    slopes = _run_slopes(log_e, MIN_RUN)
    slopes = slopes[slopes < 0]
    if not slopes.size:
        raise InsufficientDecay("insufficient decay evidence")
    frame_dt = spec.config.hop / float(SAMPLE_RATE)
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


def calibrate_rt60(pairs):
    """Fit the calibration polynomial on (Spectrogram, rt60 seconds) pairs.

    ``pairs`` is read in one pass and may be any iterable: a generator holds
    one spectrogram at a time, since only its raw decay statistic is kept.
    """
    raws, rt60s = [], []
    for spec, rt60 in pairs:
        raws.append(raw_decay_estimate(spec))
        rt60s.append(rt60)
    return fit_rt60_polynomial(raws, rt60s)


def blind_drr(spec, rt60, cfg):
    """Pick a DRR from ``DEFAULT_DRR_GRID`` by energy matching at a fixed
    RT60, under the :class:`BlindConfig` ``cfg``.

    One cheap training-less solve (budget ``cfg.k_inner``) at the grid's
    lowest point produces a shared dry reference; each grid point is then
    scored by how closely the expected energy of the re-reverberated
    reference, over ``DRR_DRAWS`` draws of ``cfg.noise_mode``, matches the
    observed energy. The draws share one seed stream of ``cfg.seed`` across
    points (common random numbers); exact ties resolve to the lowest dB. The
    input is a :class:`~revmatch.loss.Observation`: the forwards run in its
    scratch, and energies are summed under its row weights.

    Draw ``i`` at DRR ``d`` is the direct tap plus ``sigma(d) / sigma(d0)``
    times draw ``i``'s tail at the lowest point ``d0`` (the tail noise scales
    with ``sigma``, see :func:`~revmatch.rir.sigma_from_drr`), and the
    forward operator is linear in the taps. So its model is
    ``A + (sigma(d) / sigma(d0)) B_i``, with ``A`` the reference's one-sided
    STFT and ``B_i`` the forward of draw ``i``'s tail, and every point's mean
    energy follows from two weighted sums per draw. The search costs one
    reference solve plus ``DRR_DRAWS`` forwards.

    The matching residual is not a usable selection statistic here: for
    sign-symmetric tail draws its expectation is monotonically decreasing in
    candidate DRR (the anechoic trivial solution), so the energy balance
    above is matched instead. Measured, the pick carries no DRR information:
    it is 0 dB on 18 of 18 files given the true RT60 and on 27 of 27 given a
    calibrated RT60. It follows the default step size of the inner solve
    instead: at 1e-1 it is -6 dB on all six files of the ``blind``
    benchmark's cycle 0, and the median SI-SDR change of blind
    dereverberation on them falls from -0.43 to -4.01 dB.

    Returns
    -------
    float : the picked grid value (dB).
    """
    ref_params = AcousticParams(rt60=rt60, drr_db=DEFAULT_DRR_GRID[0],
                                noise_mode=cfg.noise_mode)
    ref_seed = int(derive_rng(cfg.seed, STREAM_DRR_GRID).integers(0, 2 ** 62))
    solver_cfg = solver.SolverConfig(max_iters=cfg.k_inner, seed=ref_seed)
    shat, _ = solver.trainingless_dereverb(spec, ref_params, solver_cfg)
    x = istft(shat)

    obs = loss.Observation(spec)
    weights = obs.weights
    a = shat.data
    a_energy = weighted_dot(a, a, weights)
    # per draw: ||B||^2 and Re<A, B> under the row weights
    sums = np.empty((DRR_DRAWS, 2))
    for i in range(DRR_DRAWS):
        tail = rir.sample_rir(
            ref_params, rng=derive_rng(cfg.seed, STREAM_DRR_GRID, 1, i)).taps
        tail[0] = 0.0  # the draw without its direct tap
        b = tfconv.forward(tail, x, obs.scratch)
        sums[i] = [weighted_dot(b, b, weights), weighted_dot(a, b, weights)]
    bb, ab = sums.mean(axis=0)
    sigmas = np.array([rir.sigma_from_drr(db, ref_params.tau, ref_params.n_d)
                       for db in DEFAULT_DRR_GRID])
    scale = sigmas / sigmas[0]
    energies = a_energy + 2.0 * scale * ab + scale ** 2 * bb
    scores = np.abs(np.log(energies) - math.log(obs.energy))
    return DEFAULT_DRR_GRID[int(np.argmin(scores))]


def analyze_blind(spec, cal, cfg):
    """Blind estimate of (RT60, DRR) from a reverberant spectrogram, under
    the :class:`BlindConfig` ``cfg``.

    Composes the raw decay statistic, the calibration polynomial, and the DRR
    search. A mapped RT60 below the anechoic floor short-circuits the search
    and flags the estimate, with the grid's maximum as its DRR.
    """
    raw = raw_decay_estimate(spec)
    rt60 = float(cal.map(raw))
    if rt60 < MIN_RT60:
        return BlindEstimate(rt60=rt60, drr_db=max(DEFAULT_DRR_GRID),
                             raw_median_decay=raw, anechoic=True)
    drr_db = blind_drr(spec, rt60, cfg)
    return BlindEstimate(rt60=rt60, drr_db=drr_db, raw_median_decay=raw)
