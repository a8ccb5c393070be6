"""Exact STFT-domain convolution with a time-domain RIR, and its cross-band
kernel reference.

The exact operator of the solver, the loss, the blind analyzer and
``reverberate --domain stft`` is three functions of an RIR's taps, applied
matrix-free:

- ``forward(taps, x, scratch)`` models a real dry signal ``x`` of ``n``
  samples: the one-sided STFT of ``(h * x)[:n]``, by a real FFT convolution
  and ``rfft`` analysis. It is the analysis that made an ``n``-sample
  observation, so no frame count depends on the RIR. ``adjoint(taps, grid,
  scratch)`` maps a one-sided grid back to ``n`` samples (analysis adjoint,
  overlap-add, correlation with h, crop). Both work in a :class:`Scratch`,
  the work arrays and STFT config of one solve, which keys the RIR's
  spectrum on the taps array.
- ``forward_full(taps, s)`` reverberates a full complex grid: overlap-add
  synthesis with g_s, complex FFT convolution, analysis of every frame the
  convolution covers. Only ``reverberate --domain stft`` uses it.

Both overlap-adds are :func:`~revmatch.signals.overlap_add`, as in ``istft``.

The cross-band kernel (Avargel & Cohen, IEEE TASLP 2007) is the reference
that ``bench`` and the band-truncation study use. Its entry for output bin f,
input bin f' and frame lag t'' is

    H[f, f', t''] = sum_k h(t''*L + k) * (1/F) * Phi[f'-f](k) * e^{-2i pi f k / F}

with Phi_d(k) = sum_v g_s(v) g_a(v+k) e^{+2i pi d v / F}, the cross-window
spectrum at band offset d and lag k. :func:`build_kernel` evaluates it per
band offset, so a banded kernel costs O(F log F) per offset and frame instead
of O(F^2 N).

Window overlap makes the frame-lag filter slightly noncausal: taps of h inside
the first window length contribute at lag t'' = -1 (for 50% overlap). The
kernel therefore stores ``acausal`` extra leading frames; dropping them breaks
the equivalence with time-domain convolution at O(1) relative error.

:func:`apply` and :func:`apply_adjoint` have one path: they scatter the kernel
into its dense (F, T_tot * F) matrix on every call and do one matmul, at cost
O(F^2 * T_tot * T_y) whatever the band radius. Nothing is cached.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rir import Rir
from .signals import Spectrogram, next_fast_len, num_frames_for, overlap_add


def _phi_table(cfg):
    """Cross-window spectra Phi[k + N - 1, d] for all lags and band offsets."""
    n = cfg.win_len
    g_a, g_s = cfg.analysis_window, cfg.synthesis_window
    q = np.zeros((2 * n - 1, n))
    for k in range(-(n - 1), n):
        v0, v1 = max(0, -k), min(n, n - k)
        if v0 < v1:
            q[k + n - 1, v0:v1] = g_s[v0:v1] * g_a[v0 + k:v1 + k]
    return np.fft.ifft(q, axis=1) * n


def band_offsets(num_bins, band_radius):
    """Band offset list for a given radius; "full" covers every residue."""
    if band_radius == "full" or (isinstance(band_radius, (int, np.integer))
                                 and 2 * band_radius + 1 >= num_bins):
        return np.arange(-(num_bins // 2), num_bins - num_bins // 2)
    if not isinstance(band_radius, (int, np.integer)) or band_radius < 0:
        raise ValueError("band_radius must be a nonnegative int or 'full'")
    return np.arange(-band_radius, band_radius + 1)


@dataclass
class ConvKernel:
    """STFT-domain convolution kernel.

    ``data`` has shape (F, n_offsets, acausal + t_h); entry [f, i, j] couples
    input bin (f + offsets[i]) mod F to output bin f at frame lag j - acausal.
    """

    data: np.ndarray
    offsets: np.ndarray
    band_radius: object
    cfg: object
    t_h: int
    acausal: int
    rir_length: int

    @property
    def total_frames(self):
        return self.data.shape[2]


def kernel_frames(rir_length, cfg):
    """Causal frame count covering the RIR support."""
    return -(-(rir_length + cfg.win_len - 1) // cfg.hop)


def _rir_taps(h):
    taps = h.taps if isinstance(h, Rir) else np.asarray(h, dtype=np.float64)
    if taps.ndim != 1 or len(taps) == 0:
        raise ValueError("RIR must be a non-empty 1-D array")
    return taps


def build_kernel(h, cfg, band_radius="full"):
    """Build the convolution kernel for an RIR under a given STFT config.

    Parameters
    ----------
    h : Rir or 1-D ndarray
    cfg : StftConfig
    band_radius : int or "full"
        Offsets |f - f'| <= band_radius (circular) are kept; the rest are zero.

    Returns
    -------
    ConvKernel
    """
    taps = _rir_taps(h)
    n, hop, f_bins = cfg.win_len, cfg.hop, cfg.num_bins
    n_h = len(taps)
    t_h = kernel_frames(n_h, cfg)
    acausal = (n - 1) // hop
    t_tot = t_h + acausal
    offsets = band_offsets(f_bins, band_radius)
    phi = _phi_table(cfg)[:, np.asarray(offsets) % f_bins]
    data = np.empty((f_bins, len(offsets), t_tot), dtype=np.complex128)
    seg = np.zeros(2 * n - 1)
    for j in range(t_tot):
        tpp = j - acausal
        lo = tpp * hop - (n - 1)
        seg[:] = 0.0
        a, b = max(lo, 0), min(tpp * hop + n, n_h)
        if a < b:
            seg[a - lo:b - lo] = taps[a:b]
        c = seg[:, None] * phi
        z = c[n - 1:].copy()
        z[1:n] += c[:n - 1]
        data[:, :, j] = np.fft.fft(z, axis=0) / f_bins
    return ConvKernel(data=data, offsets=np.asarray(offsets),
                      band_radius=band_radius, cfg=cfg, t_h=t_h,
                      acausal=acausal, rir_length=n_h)


def _dense_matrix(kernel):
    """The kernel scattered into its (F, total_frames * F) matrix: entry
    [f, j * F + f'] couples input bin f' to output bin f at frame lag
    j - acausal; bins outside the band stay zero."""
    f_bins, _, t_tot = kernel.data.shape
    f = np.arange(f_bins)[:, None]
    mat = np.zeros((f_bins, t_tot, f_bins), dtype=np.complex128)
    mat[f, :, (f + kernel.offsets) % f_bins] = kernel.data
    return mat.reshape(f_bins, t_tot * f_bins)


def apply(kernel, spec):
    """Convolve a spectrogram with the kernel.

    Output has T_s + t_h - 1 frames; linear in the input.
    """
    if not kernel.cfg.same_grid(spec.config):
        raise ValueError("spectrogram config does not match kernel config")
    s = spec.data
    f_bins, t_s = s.shape
    t_y = t_s + kernel.t_h - 1
    t_tot = kernel.total_frames
    # stack[j] is the input delayed by lag j - acausal
    stack = np.zeros((t_tot, f_bins, t_y), dtype=np.complex128)
    for j in range(t_tot):
        tpp = j - kernel.acausal
        t0, t1 = max(0, tpp), min(t_y, t_s + tpp)
        if t0 < t1:
            stack[j, :, t0:t1] = s[:, t0 - tpp:t1 - tpp]
    y = _dense_matrix(kernel) @ stack.reshape(t_tot * f_bins, t_y)
    return Spectrogram(y, spec.config,
                       spec.num_samples + kernel.rir_length - 1)


def apply_adjoint(kernel, spec):
    """Adjoint of :func:`apply` under the inner product <A, B> = sum A conj(B).

    Maps a grid with T_y frames back to T_y - t_h + 1 frames.
    """
    if not kernel.cfg.same_grid(spec.config):
        raise ValueError("spectrogram config does not match kernel config")
    g = spec.data
    f_bins, t_y = g.shape
    t_s = t_y - kernel.t_h + 1
    if t_s < 1:
        raise ValueError("grid has fewer frames than the kernel support")
    t_tot = kernel.total_frames
    # mat^H g, computed as (g^H mat)^H so the matrix is not conjugated
    w = (g.conj().T @ _dense_matrix(kernel)).conj().T
    w = w.reshape(t_tot, f_bins, t_y)
    # fold each lag back onto the input frames
    x = np.zeros((f_bins, t_s), dtype=np.complex128)
    for j in range(t_tot):
        tpp = j - kernel.acausal
        a, b = max(0, -tpp), min(t_s, t_y - tpp)
        if a < b:
            x[:, a:b] += w[j, :, a + tpp:b + tpp]
    return Spectrogram(x, spec.config)


def _frames(x, n, hop, num_frames):
    """(num_frames, N) frames of ``x`` at multiples of ``hop``; ``x`` is cut
    or zero-padded to the span the frames cover."""
    span = (num_frames - 1) * hop + n
    if len(x) < span:
        x = np.concatenate([x, np.zeros(span - len(x), dtype=x.dtype)])
    return sliding_window_view(x[:span], n)[::hop]


class Scratch:
    """Work arrays of one solve: the signal- and grid-sized arrays that an
    iteration of :func:`~revmatch.solver.trainingless_dereverb` writes, for
    signals of ``num_samples`` samples under the STFT config ``cfg``.

    - :func:`forward` and :func:`adjoint`: the real-FFT buffers
      ``spec``/``time`` at the transform length ``n_fft`` and the spectrum
      ``h_f`` with its conjugate ``h_f_conj`` of the taps array
      ``spectrum_of`` (see :meth:`spectrum`); the STFT pad buffer ``pad``,
      the ``frames`` (windowed by ``forward``, synthesized by ``adjoint``),
      the one-sided ``grid`` and the overlap-add buffer ``ola``;
    - :func:`~revmatch.loss.rm_loss`: ``diff``, ``mag``, ``err``, ``denom``,
      ``g_m`` and the ``average`` variant's gradient sum ``grad_sum``.

    An array that a call returns is the scratch's, and its next use
    overwrites it. A scratch refuses a signal or grid of another size with
    ``ValueError``, and is never shared between threads.
    """

    def __init__(self, num_samples, cfg):
        n = num_samples
        t_frames = num_frames_for(n, cfg)
        grid = (cfg.half_bins, t_frames)
        self.num_samples, self.cfg = n, cfg
        self.n_fft = None
        self.spectrum_of = None
        self.pad = np.zeros((t_frames - 1) * cfg.hop + cfg.win_len)
        self.frames = np.empty((t_frames, cfg.win_len))
        self.grid = np.empty(grid, dtype=np.complex128)
        self.ola = np.empty(len(self.pad))
        self.diff = np.empty(grid, dtype=np.complex128)
        self.g_m = np.empty(grid, dtype=np.complex128)
        self.mag, self.err, self.denom = (np.empty(grid) for _ in range(3))
        self.grad_sum = np.empty(n)

    def spectrum(self, taps):
        """The transform length for an RIR of ``taps``, long enough that
        neither :func:`forward` nor :func:`adjoint` wraps around, with the
        real-FFT buffers sized for it and the spectrum of ``taps`` and its
        conjugate in ``h_f`` and ``h_f_conj``. These are computed only when
        another taps array was given last: the scratch keeps that array
        alive, so no other array can take its id."""
        if taps is not self.spectrum_of:
            n_fft = next_fast_len(self.num_samples + len(taps) - 1, True)
            if n_fft != self.n_fft:
                self.n_fft = n_fft
                self.time = np.empty(n_fft)
                self.spec, self.h_f, self.h_f_conj = (
                    np.empty(n_fft // 2 + 1, dtype=np.complex128)
                    for _ in range(3))
            np.fft.rfft(taps, n=n_fft, out=self.h_f)
            np.conj(self.h_f, out=self.h_f_conj)
            self.spectrum_of = taps
        return self.n_fft


def forward(taps, x, scratch):
    """One-sided STFT of ``(h * x)[:n]`` for an RIR of ``taps`` and a real
    dry signal ``x`` of the scratch's ``n`` samples: ``scratch.grid``."""
    s, cfg = scratch, scratch.cfg
    n = s.num_samples
    if np.ndim(x) != 1 or len(x) != n:
        raise ValueError(f"scratch is sized for 1-D signals of {n} samples, "
                         f"not shape {np.shape(x)}")
    n_fft = s.spectrum(taps)
    np.fft.rfft(x, n=n_fft, out=s.spec)
    s.spec *= s.h_f
    np.fft.irfft(s.spec, n=n_fft, out=s.time)
    # signals.stft(one_sided=True) of time[:n], on the scratch's buffers
    s.pad[cfg.head_pad:cfg.head_pad + n] = s.time[:n]
    frames = sliding_window_view(s.pad, cfg.win_len)[::cfg.hop]
    np.multiply(frames, cfg.analysis_window, out=s.frames)
    np.fft.rfft(s.frames, axis=1, out=s.grid.T)
    return s.grid


def adjoint(taps, grid, scratch):
    """Adjoint of :func:`forward` under <A, B> = sum_f w_f Re(A conj B), with
    the row weights of :func:`~revmatch.signals.row_weights` (the full-grid
    inner product of the Hermitian grids), and the dot product on signals:
    a one-sided grid of the scratch's shape back to a real signal of its
    ``n`` samples (analysis adjoint, overlap-add, correlation with h, crop)."""
    s, cfg = scratch, scratch.cfg
    n = s.num_samples
    if np.shape(grid) != s.grid.shape:
        raise ValueError(f"grid of shape {np.shape(grid)} is not the "
                         f"one-sided grid of {n} samples, {s.grid.shape}")
    np.fft.irfft(grid.T, n=cfg.win_len, axis=1, out=s.frames)
    s.frames *= cfg.win_len * cfg.analysis_window
    wet_adj = overlap_add(s.frames, cfg.hop, out=s.ola)[
        cfg.head_pad:cfg.head_pad + n]
    n_fft = s.spectrum(taps)
    np.fft.rfft(wet_adj, n=n_fft, out=s.spec)
    s.spec *= s.h_f_conj
    return np.fft.irfft(s.spec, n=n_fft, out=s.time)[:n]


def forward_full(taps, dry):
    """Reverberate a full complex grid with an RIR of ``taps``: complex
    overlap-add synthesis (no real part taken, so an inconsistent grid maps
    exactly), convolution, and analysis of all T_s + t_h - 1 frames the
    convolution covers. Equals ``apply(build_kernel(taps, dry.config,
    "full"), dry)`` to rounding."""
    cfg = dry.config
    frames = np.fft.ifft(dry.data.T, n=cfg.win_len, axis=1)
    signal = overlap_add(frames * cfg.synthesis_window, cfg.hop)
    wet_len = len(signal) + len(taps) - 1
    n_fft = next_fast_len(wet_len, False)
    wet = np.fft.ifft(np.fft.fft(signal, n=n_fft)
                      * np.fft.fft(taps, n=n_fft), n=n_fft)[:wet_len]
    t_h = kernel_frames(len(taps), cfg)
    frames = _frames(wet, cfg.win_len, cfg.hop, dry.num_frames + t_h - 1)
    y = np.fft.fft(frames * cfg.analysis_window, axis=1).T
    return Spectrogram(np.ascontiguousarray(y), cfg,
                       dry.num_samples + len(taps) - 1)
