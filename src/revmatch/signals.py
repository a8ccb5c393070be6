"""Time-domain signals, FFT convolution, STFT/iSTFT with a
perfect-reconstruction window pair, and WAV file I/O.

Framing convention
------------------
Frames are left-aligned on a lattice with hop ``L``: frame ``t`` covers buffer
samples ``[t*L, t*L + N)``. The signal is placed into the buffer with a fixed
head pad of ``N - L`` zeros (plus tail zero-padding), so every real sample has
full window coverage. This keeps the cross-band kernel index algebra on the
pure lattice while making ``istft(stft(x)) == x`` hold to machine precision.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.io import wavfile


@dataclass(frozen=True)
class Signal:
    """A mono time-domain signal."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError("mono required")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return len(self.samples)


def hann_window(n):
    """Periodic Hann window of length n."""
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / n))


def canonical_dual_window(analysis, hop):
    """Synthesis window giving perfect reconstruction for the given analysis
    window and hop (requires hop to divide the window length)."""
    n = len(analysis)
    if n % hop != 0:
        raise ValueError("window length must be a multiple of the hop")
    denom = np.zeros(hop)
    for k in range(n // hop):
        denom += analysis[k * hop:(k + 1) * hop] ** 2
    if np.any(denom <= 0):
        raise ValueError("analysis window has a dead phase; no dual exists")
    return analysis / np.tile(denom, n // hop)


@dataclass(frozen=True)
class StftConfig:
    """STFT analysis/synthesis parameters.

    ``num_bins`` equals the window length: the operator math is defined on the
    full band. ``half_bins`` (``N // 2 + 1``) is the row count of a one-sided
    grid (see :class:`Spectrogram`); ``win_len`` must exceed 2 so the two row
    counts differ. ``head_pad`` is the fixed leading zero-pad (``N - L``).
    """

    win_len: int
    hop: int
    analysis_window: np.ndarray
    synthesis_window: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "analysis_window",
            np.asarray(self.analysis_window, dtype=np.float64))
        object.__setattr__(
            self, "synthesis_window",
            np.asarray(self.synthesis_window, dtype=np.float64))
        if self.hop <= 0 or self.win_len <= 0:
            raise ValueError("win_len and hop must be positive")
        if self.win_len <= 2:
            raise ValueError("win_len must exceed 2: a one-sided grid would "
                             "have as many rows as a full one")
        if self.hop > self.win_len:
            raise ValueError("hop must not exceed win_len")
        if self.win_len % self.hop != 0:
            raise ValueError("win_len must be a multiple of hop")
        if len(self.analysis_window) != self.win_len:
            raise ValueError("analysis window length mismatch")
        if len(self.synthesis_window) != self.win_len:
            raise ValueError("synthesis window length mismatch")

    @property
    def num_bins(self):
        return self.win_len

    @property
    def half_bins(self):
        return self.win_len // 2 + 1

    @property
    def head_pad(self):
        return self.win_len - self.hop

    def reconstruction_residual(self):
        """Max deviation of sum_k g_s(n+kL) g_a(n+kL) from 1."""
        prod = self.analysis_window * self.synthesis_window
        cola = np.zeros(self.hop)
        for k in range(self.win_len // self.hop):
            cola += prod[k * self.hop:(k + 1) * self.hop]
        return float(np.abs(cola - 1.0).max())

    def is_perfect_reconstruction(self, tol=1e-10):
        return self.reconstruction_residual() <= tol

    def same_grid(self, other):
        return (self.win_len == other.win_len and self.hop == other.hop
                and np.array_equal(self.analysis_window, other.analysis_window)
                and np.array_equal(self.synthesis_window, other.synthesis_window))


def default_stft_config(win_len=512, hop=256):
    """512-sample Hann analysis window, 50% overlap, canonical dual synthesis."""
    g_a = hann_window(win_len)
    g_s = canonical_dual_window(g_a, hop)
    return StftConfig(win_len=win_len, hop=hop,
                      analysis_window=g_a, synthesis_window=g_s)


def row_weights(cfg):
    """(half_bins, 1) weights that turn a sum over a one-sided grid into the
    sum over its Hermitian full grid: 1 for DC (and Nyquist when F is even),
    2 for every other bin, which stands for itself and its mirror."""
    w = np.full((cfg.half_bins, 1), 2.0)
    w[0] = 1.0
    if cfg.num_bins % 2 == 0:
        w[-1] = 1.0
    return w


@dataclass
class Spectrogram:
    """Complex STFT grid, shape (rows, T), in one of two layouts told apart
    by the row count:

    - full: ``num_bins`` (F) rows, any complex grid;
    - one-sided: ``half_bins`` (F // 2 + 1) rows, the non-negative bins of a
      real signal's STFT, standing for its Hermitian full grid. The imaginary
      parts of the DC (and, for even F, Nyquist) rows are ignored, as a real
      inverse FFT ignores them.
    """

    data: np.ndarray
    config: StftConfig
    num_samples: int | None = field(default=None)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (F x T)")
        if self.data.shape[0] not in (self.config.num_bins,
                                      self.config.half_bins):
            raise ValueError("spectrogram row count must equal num_bins "
                             "(full) or num_bins // 2 + 1 (one-sided)")

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def one_sided(self):
        return self.data.shape[0] != self.config.num_bins

    def half(self):
        """The one-sided grid: the first F // 2 + 1 rows."""
        return Spectrogram(self.data[:self.config.half_bins], self.config,
                           self.num_samples)


def num_frames_for(num_samples, cfg):
    """Frame count for a signal of the given length under the framing policy."""
    return -(-(num_samples + cfg.head_pad) // cfg.hop)


def stft(x, cfg, one_sided=False):
    """Short-time Fourier transform of a signal (or raw 1-D array).

    Parameters
    ----------
    x : Signal or ndarray
        Non-empty mono signal.
    cfg : StftConfig
    one_sided : bool
        Return only the F // 2 + 1 non-negative bins, computed with a real
        FFT; they equal the full grid's first rows to rounding.

    Returns
    -------
    Spectrogram
        Full-band complex grid (F = win_len rows), or its one-sided half.
    """
    samples = x.samples if isinstance(x, Signal) else np.asarray(x, dtype=np.float64)
    if samples.ndim != 1 or len(samples) == 0:
        raise ValueError("stft input must be a non-empty 1-D signal")
    n_samp = len(samples)
    n, hop = cfg.win_len, cfg.hop
    t_frames = num_frames_for(n_samp, cfg)
    buf = np.zeros((t_frames - 1) * hop + n)
    buf[cfg.head_pad:cfg.head_pad + n_samp] = samples
    frames = np.lib.stride_tricks.sliding_window_view(buf, n)[::hop]
    fft = np.fft.rfft if one_sided else np.fft.fft
    spec = fft(frames * cfg.analysis_window, axis=1).T
    return Spectrogram(np.ascontiguousarray(spec), cfg, num_samples=n_samp)


def istft(spec, length=None):
    """Inverse STFT by overlap-add with the synthesis window, of a full grid
    (real part of a complex inverse FFT) or a one-sided one (``irfft``).

    ``length`` defaults to the spectrogram's recorded ``num_samples`` when
    available, otherwise to the full frame lattice span.
    """
    cfg = spec.config
    if not cfg.is_perfect_reconstruction():
        raise ValueError("config lacks the perfect-reconstruction property")
    n, hop = cfg.win_len, cfg.hop
    t_frames = spec.num_frames
    if length is None:
        length = spec.num_samples
    if length is None:
        length = t_frames * hop
    buf = np.zeros((t_frames - 1) * hop + n)
    if spec.one_sided:
        frames = np.fft.irfft(spec.data.T, n=n, axis=1)
    else:
        frames = np.real(np.fft.ifft(spec.data.T, axis=1))
    frames = frames * cfg.synthesis_window
    for t in range(t_frames):
        buf[t * hop:t * hop + n] += frames[t]
    out = np.zeros(length)
    avail = min(length, len(buf) - cfg.head_pad)
    out[:avail] = buf[cfg.head_pad:cfg.head_pad + avail]
    return out


def fft_convolve(a, b):
    """Full linear convolution of two real 1-D numpy arrays.

    The same steps as ``scipy.signal.fftconvolve(a, b)``, so the result is
    bit-equal to it, without importing ``scipy.signal`` (about 1 s at start-up):
    real FFTs padded to the next fast length, and a plain product when either
    operand has one sample.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n_out = len(a) + len(b) - 1
    n = next_fast_len(n_out, True)
    return irfft(rfft(a, n) * rfft(b, n), n)[:n_out]


def read_wav(path, expect_rate=None):
    """Read a mono PCM16 or float32 WAV file into a Signal.

    16-bit samples are scaled by 2^-15; float data is passed through.
    """
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise ValueError("mono required")
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(
            f"unsupported sample rate: {rate} Hz (expected {expect_rate} Hz)")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample format: {data.dtype}")
    return Signal(samples, int(rate))


def write_wav(path, sig, fmt="float32"):
    """Write a Signal as mono WAV, IEEE float32 by default or PCM16."""
    if fmt == "float32":
        wavfile.write(path, sig.sample_rate, sig.samples.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(sig.samples, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, sig.sample_rate,
                      np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise ValueError(f"unknown WAV format: {fmt}")
