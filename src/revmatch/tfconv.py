"""Exact STFT-domain convolution with a time-domain RIR, and its cross-band
kernel reference.

The exact operator of the solver, the loss and the blind analyzer is two
functions of an RIR's taps, applied matrix-free:

- ``forward(taps, x, scratch)`` models a real dry signal ``x`` of ``n``
  samples: the one-sided STFT of ``(h * x)[:n]``, by a real FFT convolution
  and ``rfft`` analysis. It is the analysis that made an ``n``-sample
  observation, :func:`~revmatch.signals.stft`, so no frame count depends on
  the RIR. ``adjoint(taps, grid, scratch)`` maps a one-sided grid back to
  ``n`` samples (analysis adjoint, overlap-add, correlation with h, crop).
  Both work in a :class:`Scratch`, the operator's work arrays and STFT
  config, which keys the RIR's spectrum on the taps array.

The complex full grid, a ``(num_bins, T)`` array, is this module's own: the
grid of the kernel reference below and of ``reverberate --domain stft``.
:func:`stft_full` analyses a real signal into it with a complex FFT, and
:func:`istft_full` synthesizes the real part back. ``forward_full(taps,
grid, cfg)`` reverberates a full grid: overlap-add synthesis with g_s,
complex FFT convolution, analysis of every frame the convolution covers.
Only ``reverberate --domain stft`` uses it.

Every overlap-add is :func:`~revmatch.signals.overlap_add`, as in ``istft``.

The cross-band kernel (Avargel & Cohen, IEEE TASLP 2007) is the reference
that ``bench`` and the band-truncation study use. Its entry for output bin f,
input bin f' and frame lag t'' is

    H[f, f', t''] = sum_k h(t''*L + k) * (1/F) * Phi[f'-f](k) * e^{-2i pi f k / F}

with Phi_d(k) = sum_v g_s(v) g_a(v+k) e^{+2i pi d v / F}, the cross-window
spectrum at band offset d and lag k. :func:`build_kernel` evaluates it per
band offset, at O(F log F) per offset and frame instead of O(F^2 N).

Window overlap makes the frame-lag filter slightly noncausal: taps of h inside
the first window length contribute at lag t'' = -1 (for 50% overlap). The
kernel therefore stores ``acausal`` extra leading frames; dropping them breaks
the equivalence with time-domain convolution at O(1) relative error.

The kernel is one stack of dense (F, F) matrices, one per frame lag, with
the out-of-band entries zero; :func:`build_kernel` fills each lag's in-band
entries once. :func:`apply` and :func:`apply_adjoint` walk the same lags on
full grids, one matmul each, at cost O(F^2 * T_tot * T_y) whatever the band
radius.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signals import (analysis_frames, next_fast_len, num_frames_for,
                      overlap_add, synthesize)


def stft_full(x, cfg):
    """The complex full STFT grid, ``(num_bins, T)``, of a non-empty real
    1-D array: a complex FFT of every frame of
    :func:`~revmatch.signals.analysis_frames`."""
    return np.ascontiguousarray(np.fft.fft(analysis_frames(x, cfg), axis=1).T)


def istft_full(grid, cfg, length):
    """The real signal of ``length`` samples of a full grid: the real part of
    a complex inverse FFT of every frame, then
    :func:`~revmatch.signals.synthesize`."""
    return synthesize(np.real(np.fft.ifft(grid.T, axis=1)), cfg, length)


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

    ``data`` has shape (acausal + t_h, F, F): ``data[j]`` is the dense matrix
    of frame lag j - acausal, whose entry [f, f'] couples input bin f' to
    output bin f. Entries outside the band are zero.
    """

    data: np.ndarray
    cfg: object
    t_h: int
    acausal: int


def kernel_frames(rir_length, cfg):
    """Causal frame count covering the RIR support."""
    return -(-(rir_length + cfg.win_len - 1) // cfg.hop)


def build_kernel(taps, cfg, band_radius):
    """Build the convolution kernel for an RIR under a given STFT config.

    Parameters
    ----------
    taps : 1-D ndarray
        The RIR's taps, at least one.
    cfg : StftConfig
    band_radius : int or "full"
        Offsets |f - f'| <= band_radius (circular) are kept; the rest are zero.

    Returns
    -------
    ConvKernel
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or len(taps) == 0:
        raise ValueError("RIR must be a non-empty 1-D array")
    n, hop, f_bins = cfg.win_len, cfg.hop, cfg.num_bins
    n_h = len(taps)
    t_h = kernel_frames(n_h, cfg)
    acausal = (n - 1) // hop
    t_tot = t_h + acausal
    offsets = band_offsets(f_bins, band_radius)
    phi = _phi_table(cfg)[:, offsets % f_bins]
    # in-band entries: row f, column (f + offsets[i]) mod F
    rows = np.arange(f_bins)[:, None]
    cols = (rows + offsets) % f_bins
    data = np.zeros((t_tot, f_bins, f_bins), dtype=np.complex128)
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
        data[j, rows, cols] = np.fft.fft(z, axis=0) / f_bins
    return ConvKernel(data=data, cfg=cfg, t_h=t_h, acausal=acausal)


def align_frames(arr, num_frames):
    """Crop or zero-pad the frame axis to num_frames: aligns the cross-band
    kernel's output with an observation's frames."""
    f_bins, t = arr.shape
    if t == num_frames:
        return arr
    out = np.zeros((f_bins, num_frames), dtype=arr.dtype)
    out[:, :min(t, num_frames)] = arr[:, :min(t, num_frames)]
    return out


def _check_grid(kernel, grid):
    f_bins = kernel.cfg.num_bins
    if np.ndim(grid) != 2 or np.shape(grid)[0] != f_bins:
        raise ValueError(f"the kernel needs a full grid of {f_bins} rows, "
                         f"not an array of shape {np.shape(grid)}")


def _lags(kernel, t_s, t_y):
    """(matrix, output frames, input frames) of each frame lag that couples
    some of ``t_s`` input frames to some of ``t_y`` output frames: output
    frame t takes input frame t - lag."""
    for j, mat in enumerate(kernel.data):
        lag = j - kernel.acausal
        t0, t1 = max(0, lag), min(t_y, t_s + lag)
        if t0 < t1:
            yield mat, slice(t0, t1), slice(t0 - lag, t1 - lag)


def apply(kernel, s):
    """Convolve a full grid ``s`` with the kernel.

    Output has T_s + t_h - 1 frames; linear in the input.
    """
    _check_grid(kernel, s)
    t_s = s.shape[1]
    t_y = t_s + kernel.t_h - 1
    y = np.zeros((s.shape[0], t_y), dtype=np.complex128)
    for mat, out, inp in _lags(kernel, t_s, t_y):
        y[:, out] += mat @ s[:, inp]
    return y


def apply_adjoint(kernel, g):
    """Adjoint of :func:`apply` under the inner product <A, B> = sum A conj(B).

    Maps a full grid ``g`` with T_y frames back to T_y - t_h + 1 frames.
    """
    _check_grid(kernel, g)
    t_y = g.shape[1]
    t_s = t_y - kernel.t_h + 1
    if t_s < 1:
        raise ValueError("grid has fewer frames than the kernel support")
    x = np.zeros((g.shape[0], t_s), dtype=np.complex128)
    for mat, out, inp in _lags(kernel, t_s, t_y):
        x[:, inp] += mat.conj().T @ g[:, out]
    return x


def _frames(x, n, hop, num_frames):
    """(num_frames, N) frames of ``x`` at multiples of ``hop``; ``x`` is cut
    or zero-padded to the span the frames cover."""
    span = (num_frames - 1) * hop + n
    if len(x) < span:
        x = np.concatenate([x, np.zeros(span - len(x), dtype=x.dtype)])
    return sliding_window_view(x[:span], n)[::hop]


class Scratch:
    """The operator's work arrays for signals of ``num_samples`` samples
    under the STFT config ``cfg`` (the loss's are its
    :class:`~revmatch.loss.Observation`'s): the real-FFT buffers
    ``spec``/``time`` at the transform length ``n_fft``, the spectrum
    ``h_f`` and its conjugate ``h_f_conj`` of the taps array
    ``spectrum_of`` (see :meth:`spectrum`), the STFT pad buffer ``pad``, the
    ``frames``, the one-sided ``grid`` and the overlap-add buffer ``ola``.
    An array a call returns is the scratch's until its next use. A scratch
    refuses a signal or grid of another size with ``ValueError``, and is
    never shared between threads."""

    def __init__(self, num_samples, cfg):
        n = num_samples
        t_frames = num_frames_for(n, cfg)
        self.num_samples, self.cfg = n, cfg
        self.n_fft = None
        self.spectrum_of = None
        self.pad = np.zeros((t_frames - 1) * cfg.hop + cfg.win_len)
        self.frames = np.empty((t_frames, cfg.win_len))
        self.grid = np.empty((cfg.half_bins, t_frames), dtype=np.complex128)
        self.ola = np.empty(len(self.pad))

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
    # signals.stft of time[:n], on the scratch's buffers
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


def forward_full(taps, grid, cfg):
    """Reverberate a full complex grid under ``cfg`` with an RIR of
    ``taps``: complex overlap-add synthesis (no real part taken, so an
    inconsistent grid maps exactly), convolution, and analysis of all
    T_s + t_h - 1 frames the convolution covers. Equals
    ``apply(build_kernel(taps, cfg, "full"), grid)`` to rounding."""
    frames = np.fft.ifft(grid.T, n=cfg.win_len, axis=1)
    signal = overlap_add(frames * cfg.synthesis_window, cfg.hop)
    wet_len = len(signal) + len(taps) - 1
    n_fft = next_fast_len(wet_len, False)
    wet = np.fft.ifft(np.fft.fft(signal, n=n_fft)
                      * np.fft.fft(taps, n=n_fft), n=n_fft)[:wet_len]
    t_h = kernel_frames(len(taps), cfg)
    frames = _frames(wet, cfg.win_len, cfg.hop, grid.shape[1] + t_h - 1)
    y = np.fft.fft(frames * cfg.analysis_window, axis=1).T
    return np.ascontiguousarray(y)
