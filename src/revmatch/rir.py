"""Room impulse response model: scalar acoustic parameters, stochastic RIR
synthesis with an exponentially decaying noise tail, energy decay curves, and
non-blind parameter recovery by decay-curve regression."""

import math
from dataclasses import dataclass

import numpy as np

from .records import read_records, record_number
from .signals import Signal, read_wav, write_wav

LN10 = math.log(10.0)

NOISE_MODES = ("centered-gaussian", "half-normal")

# default direct-path delay: ~2.5 ms at 16 kHz
DEFAULT_DIRECT_DELAY = 40


@dataclass(frozen=True)
class AcousticParams:
    """Scalar reverberation descriptors (RT60, DRR, direct-path delay)."""

    rt60: float
    drr_db: float
    n_d: int = DEFAULT_DIRECT_DELAY
    sample_rate: int = 16000
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

    def __len__(self):
        return len(self.taps)


@dataclass
class EdcAnalysis:
    """Energy-decay-curve analysis of an RIR tail."""

    edc: np.ndarray
    t5: int
    t25: int
    e_5_25: float
    rt60_est: float
    sigma_est: float
    drr_est_db: float


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


def min_rir_length(params):
    """Shortest admissible RIR length for the given parameters
    (tail truncation rule: N_h >= tau * ln 1000)."""
    tau = tau_from_rt60(params.rt60, params.sample_rate)
    return int(math.ceil(tau * math.log(1000.0))) + params.n_d + 1


def sample_rir(params, length=None, rng=None):
    """Draw one RIR: unit peak at n = 0, silence up to the direct-path delay,
    then an exponentially decaying noise tail.

    Parameters
    ----------
    params : AcousticParams
    length : int, optional
        Number of taps; defaults to the minimum admissible length. Must
        satisfy the tail truncation rule (N_h >= tau * ln 1000).
    rng : numpy Generator or int seed, optional

    Returns
    -------
    Rir
    """
    tau = tau_from_rt60(params.rt60, params.sample_rate)
    n_min = min_rir_length(params)
    if length is None:
        length = n_min
    if length <= params.n_d:
        raise ValueError("RIR length must exceed the direct-path delay")
    if length < n_min:
        raise ValueError(
            f"RIR length {length} too short: tail truncation rule requires "
            f">= {n_min} taps for rt60={params.rt60}")
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    sigma = sigma_from_drr(params.drr_db, tau, params.n_d)
    n_tail = length - params.n_d - 1
    b = rng.normal(0.0, sigma, size=n_tail)
    if params.noise_mode == "half-normal":
        b = np.abs(b)
    taps = np.zeros(length)
    taps[0] = 1.0
    n = np.arange(params.n_d + 1, length)
    taps[params.n_d + 1:] = b * np.exp(-n / tau)
    return Rir(taps, params.sample_rate)


def edc(rir):
    """Energy decay curve: edc[t] = sum_{u >= t} h(u)^2 (Schroeder integral
    of the squared impulse response)."""
    taps = rir.taps if isinstance(rir, Rir) else np.asarray(rir, dtype=np.float64)
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
    curve = edc(rir)
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
    return EdcAnalysis(edc=curve, t5=t5, t25=t25, e_5_25=e_5_25,
                       rt60_est=rt60_est, sigma_est=sigma_est,
                       drr_est_db=drr_est_db)


def write_rir(path, rir):
    """Store an RIR as float32 WAV or columnar text (one tap per line),
    chosen by file extension."""
    path = str(path)
    if path.endswith(".wav"):
        write_wav(path, Signal(rir.taps, rir.sample_rate))
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# sample_rate={rir.sample_rate}\n")
            for tap in rir.taps:
                f.write(f"{tap:.17g}\n")


def read_rir(path):
    """Load an RIR written by :func:`write_rir`."""
    path = str(path)
    if path.endswith(".wav"):
        sig = read_wav(path)
        return Rir(sig.samples, sig.sample_rate)
    rate = None
    taps = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "sample_rate=" in line:
                    rate = int(line.split("sample_rate=")[1])
                continue
            taps.append(float(line))
    if rate is None:
        raise ValueError("text RIR lacks a sample_rate header")
    return Rir(np.array(taps), rate)


def params_from_file(path):
    kv = read_records(path, required=("rt60", "drr_db"))
    return AcousticParams(
        rt60=record_number(kv, path, "rt60"),
        drr_db=record_number(kv, path, "drr_db"),
        n_d=record_number(kv, path, "n_d", DEFAULT_DIRECT_DELAY, int),
        sample_rate=record_number(kv, path, "sample_rate", 16000, int),
        noise_mode=kv.get("noise_mode", "centered-gaussian"),
    )
