"""Room impulse response model: scalar acoustic parameters, stochastic RIR
synthesis with an exponentially decaying noise tail, energy decay curves, and
non-blind parameter recovery by decay-curve regression."""

import math
from dataclasses import dataclass

import numpy as np

from .records import read_lines
from .seeding import STREAM_SYNTH, derive_rng
from .signals import (SAMPLE_RATE, Signal, fft_convolve, read_wav,
                      speech_like_noise, write_wav)

LN10 = math.log(10.0)

NOISE_MODES = ("centered-gaussian", "half-normal")

# default direct-path delay: ~2.5 ms at 16 kHz
DEFAULT_DIRECT_DELAY = 40

# the uniform ranges synthetic_pair draws RT60 (seconds) and DRR (dB) from
SYNTH_RT60_RANGE = (0.2, 1.0)
SYNTH_DRR_RANGE = (-6.0, 10.0)

# the longest RIR (seconds) AcousticParams admits: an RIR lasts about its
# RT60, so this takes every real room and every SYNTH_RT60_RANGE draw, and
# refuses an RT60 typed in milliseconds (5000 for 5 s: 0.6 GiB of taps)
# before its taps are allocated
MAX_RIR_SECONDS = 30


@dataclass(frozen=True)
class AcousticParams:
    """Scalar reverberation descriptors (RT60, DRR, direct-path delay) and,
    derived once as attributes that are not fields, their tail model: ``tau``
    (:func:`tau_from_rt60`), ``sigma`` (:func:`sigma_from_drr`) and
    ``rir_length``, the direct path and ``tau * ln 1000`` taps of tail, at
    most ``MAX_RIR_SECONDS`` of audio."""

    rt60: float
    drr_db: float
    n_d: int = DEFAULT_DIRECT_DELAY
    sample_rate: int = SAMPLE_RATE
    noise_mode: str = "centered-gaussian"

    def __post_init__(self):
        for name in ("rt60", "drr_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rt60 <= 0:
            raise ValueError("rt60 must be positive")
        if self.n_d < 0:
            raise ValueError("n_d must be nonnegative")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}")
        tau = tau_from_rt60(self.rt60, self.sample_rate)
        try:
            sigma = sigma_from_drr(self.drr_db, tau, self.n_d)
        except (OverflowError, ZeroDivisionError):
            sigma = math.inf
        if not math.isfinite(sigma):
            raise ValueError(
                f"rt60={self.rt60:g} s, n_d={self.n_d} and drr_db="
                f"{self.drr_db:g} give no finite tail scale")
        length = int(math.ceil(tau * math.log(1000.0))) + self.n_d + 1
        if length > MAX_RIR_SECONDS * self.sample_rate:
            raise ValueError(
                f"rt60={self.rt60:g} s and n_d={self.n_d} give an RIR of "
                f"{length} taps, longer than {MAX_RIR_SECONDS} s at "
                f"{self.sample_rate} Hz")
        for name, value in (("tau", tau), ("sigma", sigma),
                            ("rir_length", length)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Rir:
    """Time-domain room impulse response."""

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        object.__setattr__(self, "taps", taps)
        if taps.ndim != 1 or len(taps) == 0:
            raise ValueError("RIR taps must be a non-empty 1-D array")
        if not np.all(np.isfinite(taps)):
            raise ValueError("RIR contains non-finite taps")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass
class EdcAnalysis:
    """Energy-decay-curve analysis of an RIR tail, in report order."""

    rt60_est: float
    sigma_est: float
    drr_est_db: float
    t5: int
    t25: int
    e_5_25: float


def tau_from_rt60(rt60, fs):
    """Decay constant (in samples) of the exponential tail envelope:
    tau = RT60 * fs / (3 ln 10)."""
    if rt60 <= 0 or fs <= 0:
        raise ValueError("rt60 and fs must be positive")
    return rt60 * fs / (3.0 * LN10)


def rt60_from_tau(tau, fs):
    if tau <= 0 or fs <= 0:
        raise ValueError("tau and fs must be positive")
    return 3.0 * LN10 * tau / fs


def sigma_from_drr(drr_db, tau, n_d):
    """Tail noise std such that, with unit direct-path energy, the expected
    reverberant energy equals the inverse of the linear DRR:

        sigma = sqrt(2 exp(2 n_d / tau) / (tau * DRR_lin))
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    drr_lin = 10.0 ** (drr_db / 10.0)
    return math.sqrt(2.0 * math.exp(2.0 * n_d / tau) / (tau * drr_lin))


def reverberant_energy(sigma, tau, n_d):
    """Expected tail energy of the exponential-envelope noise model:
    E_R = sigma^2 (tau/2) exp(-2 n_d / tau)."""
    return sigma ** 2 * (tau / 2.0) * math.exp(-2.0 * n_d / tau)


def sample_rir(params, rng):
    """Draw one RIR of ``params.rir_length`` taps: unit peak at n = 0,
    silence up to the direct-path delay, then an exponentially decaying
    noise tail.

    Parameters
    ----------
    params : AcousticParams
        Define the RIR distribution on their own.
    rng : numpy Generator or int seed
        Required: the same generator state or seed gives the same taps.

    Returns
    -------
    Rir
    """
    length = params.rir_length
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    b = rng.normal(0.0, params.sigma, size=length - params.n_d - 1)
    if params.noise_mode == "half-normal":
        b = np.abs(b)
    taps = np.zeros(length)
    taps[0] = 1.0
    n = np.arange(params.n_d + 1, length)
    taps[params.n_d + 1:] = b * np.exp(-n / params.tau)
    return Rir(taps, params.sample_rate)


def synthetic_pair(seed, index, duration, sample_rate=SAMPLE_RATE):
    """The seeded, parameter-labelled (dry, RIR, wet) pair number ``index``.

    One generator, ``derive_rng(seed, STREAM_SYNTH, index)``, draws in
    order: RT60 uniform on ``SYNTH_RT60_RANGE``, DRR uniform on
    ``SYNTH_DRR_RANGE``, the RIR (:func:`sample_rir`, default direct delay
    and noise mode), and ``int(duration * sample_rate)`` samples of
    :func:`~revmatch.signals.speech_like_noise`. The wet signal is their
    full linear convolution, RIR tail included.

    Returns
    -------
    (AcousticParams, Rir, ndarray, ndarray) : params, RIR, dry, wet
    """
    rng = derive_rng(seed, STREAM_SYNTH, index)
    params = AcousticParams(rt60=rng.uniform(*SYNTH_RT60_RANGE),
                            drr_db=rng.uniform(*SYNTH_DRR_RANGE),
                            sample_rate=sample_rate)
    rir = sample_rir(params, rng)
    dry = speech_like_noise(int(duration * sample_rate), sample_rate, rng=rng)
    return params, rir, dry, fft_convolve(dry, rir.taps)


def edc(taps):
    """Energy decay curve of an RIR's taps array: edc[t] = sum_{u >= t}
    h(u)^2 (Schroeder integral of the squared impulse response)."""
    if len(taps) == 0:
        raise ValueError("empty RIR")
    return np.cumsum((taps ** 2)[::-1])[::-1]


def analyze_rir(rir, n_d=DEFAULT_DIRECT_DELAY):
    """Non-blind acoustic analysis of an RIR.

    Fits the decay slope of the energy decay curve restricted to the -5 dB to
    -25 dB range below the post-direct-path level, then recovers the tail
    noise std from the energy within that range and the DRR from the modeled
    tail energy (keeping late-tail noise out of the estimate).

    Raises
    ------
    ValueError
        If the EDC never decays 25 dB after the direct path.
    """
    if not isinstance(rir, Rir):
        raise TypeError("analyze_rir expects a Rir")
    if n_d < 0:
        raise ValueError("n_d must be nonnegative")
    fs = rir.sample_rate
    curve = edc(rir.taps)
    ref_idx = n_d + 1
    if ref_idx >= len(curve) or curve[ref_idx] <= 0:
        raise ValueError("insufficient dynamic range: no tail after n_d")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(curve / curve[ref_idx])
    tail_db = db[ref_idx:]
    below5 = np.nonzero(tail_db <= -5.0)[0]
    below25 = np.nonzero(tail_db <= -25.0)[0]
    if len(below25) == 0 or len(below5) == 0:
        raise ValueError("insufficient dynamic range: EDC never reaches -25 dB")
    t5 = int(below5[0]) + ref_idx
    t25 = int(below25[0]) + ref_idx
    t = np.arange(t5, t25 + 1)
    design = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(design, db[t5:t25 + 1], rcond=None)[0]
    if slope >= 0:
        raise ValueError("insufficient dynamic range: non-decaying EDC window")
    tau_est = -20.0 / (slope * LN10)
    rt60_est = rt60_from_tau(tau_est, fs)
    e_5_25 = float(curve[t5] - curve[t25])
    span = math.exp(-2.0 * t5 / tau_est) - math.exp(-2.0 * t25 / tau_est)
    sigma_est = math.sqrt(e_5_25 / (tau_est / 2.0 * span))
    direct = float(np.sum(rir.taps[:n_d + 1] ** 2))
    e_r = reverberant_energy(sigma_est, tau_est, n_d)
    drr_est_db = 10.0 * math.log10(direct / e_r)
    return EdcAnalysis(rt60_est=rt60_est, sigma_est=sigma_est,
                       drr_est_db=drr_est_db, t5=t5, t25=t25, e_5_25=e_5_25)


def write_rir(path, rir):
    """Store an RIR as float32 WAV or columnar text (one tap per line),
    chosen by file extension: ``.wav`` in any case is a WAV."""
    path = str(path)
    if path.lower().endswith(".wav"):
        write_wav(path, Signal(rir.taps, rir.sample_rate))
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# sample_rate={rir.sample_rate}\n")
            for tap in rir.taps:
                f.write(f"{tap:.17g}\n")


def read_rir(path):
    """Load an RIR written by :func:`write_rir`; in a text RIR, a tap that
    is not a finite number or a rate header that is not a positive integer
    is a ``ValueError`` naming ``FILE:LINE``, and a missing header or no
    taps at all one naming ``FILE``."""
    path = str(path)
    if path.lower().endswith(".wav"):
        sig = read_wav(path)
        return Rir(sig.samples, sig.sample_rate)
    rate = None
    taps = []
    for where, line in read_lines(path):
        try:
            if line.startswith("#"):
                if "sample_rate=" in line:
                    rate = int(line.split("sample_rate=")[1])
                    if rate <= 0:
                        raise ValueError("sample_rate must be positive")
            else:
                taps.append(float(line))
                if not math.isfinite(taps[-1]):
                    raise ValueError("RIR contains non-finite taps")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if rate is None:
        raise ValueError(f"{path}: text RIR lacks a sample_rate header")
    if not taps:
        raise ValueError(f"{path}: text RIR has no taps")
    return Rir(np.array(taps), rate)

