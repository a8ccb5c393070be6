"""Inter-band/inter-frame convolution: build the STFT-domain kernel induced
by a time-domain RIR, and apply the operator or its adjoint.

The kernel entry for output bin f, input bin f' and frame lag t'' is

    H[f, f', t''] = sum_k h(t''*L + k) * (1/F) * Phi[f'-f](k) * e^{-2i pi f k / F}

with Phi_d(k) = sum_v g_s(v) g_a(v+k) e^{+2i pi d v / F}, the cross-window
spectrum at band offset d and lag k. This is the window cross-term form of the
kernel, evaluated per band offset so banded kernels cost O(F log F) per offset
and frame instead of O(F^2 N).

Window overlap makes the frame-lag filter slightly noncausal: taps of h inside
the first window length contribute at lag t'' = -1 (for 50% overlap). The
kernel therefore stores ``acausal`` extra leading frames; dropping them breaks
the equivalence with time-domain convolution at O(1) relative error.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .rir import Rir
from .signals import Spectrogram

# switch from the frame-FFT path to one big matmul for wide bands
_FFT_PATH_MAX_DELTAS = 64

_PHI_CACHE = {}
_PHI_CACHE_MAX = 4


def _phi_table(cfg):
    """Cross-window spectra Phi[k + N - 1, d] for all lags and band offsets."""
    key = (cfg.win_len, cfg.hop, cfg.analysis_window.tobytes(),
           cfg.synthesis_window.tobytes())
    cached = _PHI_CACHE.get(key)
    if cached is not None:
        return cached
    n = cfg.win_len
    g_a, g_s = cfg.analysis_window, cfg.synthesis_window
    q = np.zeros((2 * n - 1, n))
    for k in range(-(n - 1), n):
        v0, v1 = max(0, -k), min(n, n - k)
        if v0 < v1:
            q[k + n - 1, v0:v1] = g_s[v0:v1] * g_a[v0 + k:v1 + k]
    phi = np.fft.ifft(q, axis=1) * n
    if len(_PHI_CACHE) >= _PHI_CACHE_MAX:
        _PHI_CACHE.clear()
    _PHI_CACHE[key] = phi
    return phi


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
    _freq_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _gemm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_bins(self):
        return self.data.shape[0]

    @property
    def num_offsets(self):
        return self.data.shape[1]

    @property
    def total_frames(self):
        return self.data.shape[2]


def kernel_frames(rir_length, cfg):
    """Causal frame count covering the RIR support."""
    return -(-(rir_length + cfg.win_len - 1) // cfg.hop)


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
    taps = h.taps if isinstance(h, Rir) else np.asarray(h, dtype=np.float64)
    if taps.ndim != 1 or len(taps) == 0:
        raise ValueError("RIR must be a non-empty 1-D array")
    if not cfg.is_perfect_reconstruction():
        raise ValueError("config lacks the perfect-reconstruction property")
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


def _gather_index(kernel):
    f = np.arange(kernel.num_bins)
    return (f[:, None] + kernel.offsets[None, :]) % kernel.num_bins


def _kernel_freq(kernel, omega):
    hf = kernel._freq_cache.get(omega)
    if hf is None:
        hf = np.fft.fft(kernel.data, n=omega, axis=2)
        kernel._freq_cache.clear()
        kernel._freq_cache[omega] = hf
    return hf


def _kernel_gemm(kernel):
    mat = kernel._gemm_cache.get("mat")
    if mat is None:
        f_bins, n_off, t_tot = kernel.data.shape
        mat = np.zeros((f_bins, t_tot, f_bins), dtype=np.complex128)
        idx = _gather_index(kernel)
        rows = np.repeat(np.arange(f_bins)[:, None], n_off, axis=1)
        for j in range(t_tot):
            mat[rows, j, idx] = kernel.data[:, :, j]
        mat = mat.reshape(f_bins, t_tot * f_bins)
        kernel._gemm_cache["mat"] = mat
    return mat


def output_frames(kernel, num_input_frames):
    return num_input_frames + kernel.t_h - 1


def apply(kernel, spec):
    """Convolve a spectrogram with the kernel.

    Output has T_s + t_h - 1 frames; linear in the input.
    """
    if not kernel.cfg.same_grid(spec.config):
        raise ValueError("spectrogram config does not match kernel config")
    s = spec.data
    f_bins, t_s = s.shape
    t_y = output_frames(kernel, t_s)
    t_tot = kernel.total_frames
    if kernel.num_offsets <= _FFT_PATH_MAX_DELTAS:
        omega = next_fast_len(t_s + t_tot - 1)
        s_pad = np.zeros((f_bins, omega), dtype=np.complex128)
        s_pad[:, :t_s] = s
        s_f = np.fft.fft(s_pad, axis=1)
        h_f = _kernel_freq(kernel, omega)
        y_f = np.einsum("fdo,fdo->fo", h_f, s_f[_gather_index(kernel), :])
        y = np.fft.ifft(y_f, axis=1)[:, kernel.acausal:kernel.acausal + t_y]
    else:
        mat = _kernel_gemm(kernel)
        stack = np.zeros((t_tot, f_bins, t_y), dtype=np.complex128)
        for j in range(t_tot):
            tpp = j - kernel.acausal
            t0, t1 = max(0, tpp), min(t_y, t_s + tpp)
            if t0 < t1:
                stack[j, :, t0:t1] = s[:, t0 - tpp:t1 - tpp]
        y = mat @ stack.reshape(t_tot * f_bins, t_y)
    n_samp = None
    if spec.num_samples is not None:
        n_samp = spec.num_samples + kernel.rir_length - 1
    return Spectrogram(np.ascontiguousarray(y), spec.config, num_samples=n_samp)


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
    if kernel.num_offsets <= _FFT_PATH_MAX_DELTAS:
        omega = next_fast_len(t_s + t_tot - 1)
        g_pad = np.zeros((f_bins, omega), dtype=np.complex128)
        g_pad[:, kernel.acausal:kernel.acausal + t_y] = g
        g_f = np.fft.fft(g_pad, axis=1) / omega
        h_f = _kernel_freq(kernel, omega)
        prod = np.conj(h_f) * g_f[:, None, :]
        t_f = np.zeros((f_bins, omega), dtype=np.complex128)
        for i, off in enumerate(kernel.offsets):
            t_f += np.roll(prod[:, i, :], off, axis=0)
        x = np.fft.ifft(t_f, axis=1) * omega
        x = x[:, :t_s]
    else:
        mat = _kernel_gemm(kernel)
        w = (mat.conj().T @ g).reshape(t_tot, f_bins, t_y)
        x = np.zeros((f_bins, t_s), dtype=np.complex128)
        for j in range(t_tot):
            tpp = j - kernel.acausal
            a, b = max(0, -tpp), min(t_s, t_y - tpp)
            if a < b:
                x[:, a:b] += w[j, :, a + tpp:b + tpp]
    return Spectrogram(np.ascontiguousarray(x), spec.config)
