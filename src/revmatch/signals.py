"""Time-domain signals, FFT convolution, a one-sided STFT/iSTFT (real FFTs)
with a perfect-reconstruction window pair, seeded speech-like test signals,
and WAV file I/O, on numpy alone.

Every analysis of a real signal is one-sided: a :class:`Spectrogram` holds
the F // 2 + 1 non-negative bins. The complex full grid is the cross-band
kernel reference's, in :mod:`revmatch.tfconv`, which frames and
overlap-adds with :func:`analysis_frames` and :func:`synthesize`.

Framing convention
------------------
Frames are left-aligned on a lattice with hop ``L``: frame ``t`` covers buffer
samples ``[t*L, t*L + N)``. The signal is placed into the buffer with a fixed
head pad of ``N - L`` zeros (plus tail zero-padding), so every real sample has
full window coverage. This keeps the cross-band kernel index algebra on the
pure lattice while making ``istft(stft(x)) == x`` hold to machine precision.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .seeding import STREAM_SYNTH, derive_rng

# the rate (Hz) the CLI reads and writes, and a blind calibration is fitted at
SAMPLE_RATE = 16000


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

    ``num_bins`` equals the window length, the bin count of a frame's DFT;
    ``half_bins`` (``N // 2 + 1``) is the row count of a
    :class:`Spectrogram`, its non-negative bins. ``head_pad`` is the fixed
    leading zero-pad (``N - L``). A window pair without perfect
    reconstruction (residual > 1e-10) is refused.
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
        if self.hop > self.win_len:
            raise ValueError("hop must not exceed win_len")
        if self.win_len % self.hop != 0:
            raise ValueError("win_len must be a multiple of hop")
        if len(self.analysis_window) != self.win_len:
            raise ValueError("analysis window length mismatch")
        if len(self.synthesis_window) != self.win_len:
            raise ValueError("synthesis window length mismatch")
        if self.reconstruction_residual() > 1e-10:
            raise ValueError("config lacks the perfect-reconstruction property")

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


def default_stft_config():
    """512-sample Hann analysis window, 50% overlap, canonical dual synthesis."""
    g_a = hann_window(512)
    g_s = canonical_dual_window(g_a, 256)
    return StftConfig(win_len=512, hop=256,
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


def weighted_dot(a, b, weights):
    """sum_f w_f Re sum_t a[f, t] conj(b[f, t]), one ``vecdot`` over float
    views of two C-contiguous (rows, T) arrays: under :func:`row_weights`,
    the inner product of the full grids two one-sided grids stand for."""
    if np.iscomplexobj(a):
        a, b = a.view(np.float64), b.view(np.float64)
    return float(weights[:, 0] @ np.vecdot(a, b))


@dataclass
class Spectrogram:
    """One-sided STFT of a real signal of ``num_samples`` samples: a complex
    (``half_bins``, T) grid, the F // 2 + 1 non-negative bins of each frame,
    standing for its Hermitian full grid. The imaginary parts of the DC
    (and, for even F, Nyquist) rows are ignored, as a real inverse FFT
    ignores them. :func:`istft` inverts it."""

    data: np.ndarray
    config: StftConfig
    num_samples: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 2:
            raise ValueError("spectrogram data must be 2-D (F x T)")
        if self.data.shape[0] != self.config.half_bins:
            raise ValueError(f"spectrogram has {self.data.shape[0]} rows, "
                             f"not the config's half_bins "
                             f"({self.config.half_bins})")

    @property
    def num_frames(self):
        return self.data.shape[1]


def num_frames_for(num_samples, cfg):
    """Frame count for a signal of the given length under the framing policy."""
    return -(-(num_samples + cfg.head_pad) // cfg.hop)


def analysis_frames(x, cfg):
    """The (T, N) frames of a non-empty real 1-D array under the framing
    policy, times the analysis window: what an STFT transforms."""
    samples = np.asarray(x, dtype=np.float64)
    if samples.ndim != 1 or len(samples) == 0:
        raise ValueError("stft input must be a non-empty 1-D signal")
    n_samp = len(samples)
    n, hop = cfg.win_len, cfg.hop
    t_frames = num_frames_for(n_samp, cfg)
    buf = np.zeros((t_frames - 1) * hop + n)
    buf[cfg.head_pad:cfg.head_pad + n_samp] = samples
    frames = np.lib.stride_tricks.sliding_window_view(buf, n)[::hop]
    return frames * cfg.analysis_window


def stft(x, cfg):
    """One-sided short-time Fourier transform of a signal (or raw 1-D
    array), by a real FFT of every frame.

    Parameters
    ----------
    x : Signal or ndarray
        Non-empty mono signal.
    cfg : StftConfig

    Returns
    -------
    Spectrogram
        The ``half_bins`` (F // 2 + 1) non-negative bins of each frame.
    """
    samples = x.samples if isinstance(x, Signal) else x
    spec = np.fft.rfft(analysis_frames(samples, cfg), axis=1).T
    return Spectrogram(np.ascontiguousarray(spec), cfg, len(samples))


def overlap_add(frames, hop, out=None):
    """Sum (T, N) frames placed at multiples of ``hop`` into one buffer of
    (T - 1) * hop + N samples, ``out`` when given: the overlap-add of
    :func:`synthesize` and of tfconv."""
    t_frames, n = frames.shape
    k = n // hop
    blocks = frames.reshape(t_frames, k, hop)
    if out is None:
        out = np.zeros((t_frames + k - 1) * hop, dtype=frames.dtype)
    else:
        out.fill(0)
    buf = out.reshape(t_frames + k - 1, hop)
    for j in range(k):
        buf[j:j + t_frames] += blocks[:, j]
    return out


def synthesize(frames, cfg, length):
    """The signal of ``length`` samples whose analysis gave the (T, N)
    inverse-FFT ``frames``: their :func:`overlap_add` with the synthesis
    window, read from past the head pad and zero-padded to ``length``."""
    buf = overlap_add(frames * cfg.synthesis_window, cfg.hop)
    out = np.zeros(length)
    avail = min(length, len(buf) - cfg.head_pad)
    out[:avail] = buf[cfg.head_pad:cfg.head_pad + avail]
    return out


def istft(spec, length=None):
    """Inverse STFT of a one-sided grid: ``irfft`` of every frame, then
    :func:`synthesize`, at ``length`` samples (default
    ``spec.num_samples``)."""
    cfg = spec.config
    frames = np.fft.irfft(spec.data.T, n=cfg.win_len, axis=1)
    return synthesize(frames, cfg,
                      spec.num_samples if length is None else length)


@functools.cache
def next_fast_len(n, real):
    """Smallest length ``m >= n`` whose prime factors are all in {2, 3, 5}
    (``real``) or {2, 3, 5, 7, 11} (complex): the rule of
    ``scipy.fft.next_fast_len``, which the FFT lengths of this package keep."""
    n = int(n)
    if n < 1:
        raise ValueError("FFT length must be positive")
    # every such m is an odd factor times a power of two, and a power of two
    # in [n, 2n) bounds the answer, so only odd factors below 2n are tried
    odd = [1]
    for p in (3, 5) if real else (3, 5, 7, 11):
        for k in odd[:]:
            while (k := k * p) < 2 * n:
                odd.append(k)
    return min(k << (-(-n // k) - 1).bit_length() for k in odd)


def fft_convolve(a, b):
    """Full linear convolution of two real 1-D numpy arrays.

    The same steps as ``scipy.signal.fftconvolve(a, b)`` on the same
    pocketfft, so the result is bit-equal to it: real FFTs padded to
    :func:`next_fast_len`, and a plain product when either operand has one
    sample.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n_out = len(a) + len(b) - 1
    n = next_fast_len(n_out, True)
    return np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n)[:n_out]


def speech_shaped_noise(num_samples, sample_rate, rng):
    """Stationary noise with a speech-like long-term spectral envelope,
    drawn from the numpy Generator ``rng``: band-passed around the low
    hundreds of Hz with a gentle high-frequency roll-off. Unit RMS."""
    if num_samples < 2:
        # one sample holds only DC, which the envelope removes
        raise ValueError("speech-shaped noise needs at least 2 samples")
    white = rng.standard_normal(num_samples)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate)
    envelope = (freqs / (freqs + 120.0)) / np.sqrt(1.0 + (freqs / 1000.0) ** 2)
    shaped = np.fft.irfft(spec * envelope, n=num_samples)
    rms = np.sqrt(np.mean(shaped ** 2))
    return shaped / rms


def speech_like_noise(num_samples, sample_rate=SAMPLE_RATE, rng=None):
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
        pos = max(b1 + pause, pos + 1)  # both round to 0 at low rates
    out = carrier * env
    rms = np.sqrt(np.mean(out ** 2))
    if rms == 0:
        return carrier
    return out / rms


_WAVE_PCM, _WAVE_IEEE_FLOAT, _WAVE_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the last 12 bytes of a WAVE_FORMAT_EXTENSIBLE subformat GUID whose first
# four hold a plain format tag
_WAVE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> dtype read, divisor to full scale.
# 24-bit PCM is widened to left-justified int32, as scipy.io.wavfile reads it.
_WAV_SAMPLES = {
    (_WAVE_PCM, 2): ("<i2", 32768.0),
    (_WAVE_PCM, 3): ("V3", 2147483648.0),
    (_WAVE_PCM, 4): ("<i4", 2147483648.0),
    (_WAVE_IEEE_FLOAT, 4): ("<f4", None),
    (_WAVE_IEEE_FLOAT, 8): ("<f8", None),
}


def _wav_format(fmt):
    """(format tag, channels, rate, bytes per sample) of a ``fmt `` chunk's
    body, with WAVE_FORMAT_EXTENSIBLE mapped to its subformat. A sample
    layout outside :data:`_WAV_SAMPLES` (8-bit PCM, float of a width other
    than its container) reads as 0 bytes per sample."""
    if len(fmt) < 16:
        raise ValueError("malformed WAV fmt chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt)
    if tag == _WAVE_EXTENSIBLE and fmt[28:40] == _WAVE_GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    width = block_align // channels if channels else 0
    if bits <= 8 or (tag == _WAVE_IEEE_FLOAT and bits != 8 * width):
        width = 0
    return tag, channels, rate, width


def read_wav(path, expect_rate=None):
    """Read a mono WAV file into a Signal.

    PCM 16, 24 and 32 bit are scaled to [-1, 1) (24-bit data as left-justified
    32-bit words); IEEE float 32 and 64 bit data is passed through. Chunks
    other than ``fmt `` and ``data`` are skipped. 8-bit PCM, compressed
    formats, the RIFX and RF64 containers and a data chunk of no samples
    are refused. Every ``ValueError`` starts with the path: ``PATH:
    message``.
    """
    try:
        return _read_wav(path, expect_rate)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_wav(path, expect_rate):
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[8:12] != b"WAVE":
            raise ValueError("not a RIFF/WAVE file")
        if head[:4] != b"RIFF":
            raise ValueError("unsupported WAV sample format: "
                             f"{head[:4]!r} container")
        fmt = None
        while True:
            chunk = f.read(8)
            if len(chunk) < 8:
                raise ValueError("WAV file has no data chunk")
            chunk_id, size = chunk[:4], struct.unpack("<I", chunk[4:])[0]
            if chunk_id == b"data":
                break
            if chunk_id == b"fmt ":
                fmt = f.read(size)
                f.seek(size & 1, 1)
            else:
                f.seek(size + (size & 1), 1)
        if fmt is None:
            raise ValueError("WAV data chunk precedes its fmt chunk")
        tag, channels, rate, width = _wav_format(fmt)
        if channels != 1:
            raise ValueError("mono required")
        if expect_rate is not None and rate != expect_rate:
            raise ValueError(
                f"unsupported sample rate: {rate} Hz (expected {expect_rate} Hz)")
        if (tag, width) not in _WAV_SAMPLES:
            raise ValueError(f"unsupported WAV sample format: tag {tag:#06x}, "
                             f"{width} bytes per sample")
        dtype, full_scale = _WAV_SAMPLES[tag, width]
        count = size // width
        if count == 0:
            raise ValueError("WAV data chunk holds no samples")
        raw = np.fromfile(f, dtype=dtype, count=count)
    if len(raw) < count:
        raise ValueError("WAV data chunk is shorter than its declared size")
    if width == 3:
        words = np.zeros((count, 4), dtype=np.uint8)
        words[:, 1:] = raw.view(np.uint8).reshape(count, 3)
        raw = words.view("<i4")[:, 0]
    samples = raw.astype(np.float64)
    if full_scale is not None:
        samples /= full_scale
    return Signal(samples, int(rate))


def write_wav(path, sig):
    """Write a Signal as mono IEEE float32 WAV, with the header
    ``scipy.io.wavfile.write`` gives: an 18-byte ``fmt `` chunk and a
    ``fact`` chunk."""
    data, rate = sig.samples.astype("<f4"), sig.sample_rate
    body = struct.pack("<HHIIHH", _WAVE_IEEE_FLOAT, 1, rate, rate * 4, 4, 32)
    chunks = (b"fmt " + struct.pack("<I", len(body) + 2) + body + b"\x00\x00"
              + b"fact" + struct.pack("<II", 4, len(data))
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + data.nbytes)
                + b"WAVE" + chunks)
        f.write(data.data)
