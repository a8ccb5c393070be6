"""Exact STFT-domain convolution with a time-domain RIR, and its cross-band
kernel reference.

:class:`ExactConv` is the operator of the solver, the loss, the blind
analyzer and ``reverberate --domain stft``. It applies the convolution
matrix-free as the product it stands for: overlap-add synthesis with g_s,
time-domain convolution with h, and analysis with g_a on the frame lattice.
It takes either layout of :class:`~revmatch.signals.Spectrogram` and returns
the same one:

- a full grid (F rows, any complex grid) goes through complex FFTs;
- a one-sided grid (F // 2 + 1 rows, standing for a Hermitian full grid)
  goes through real FFTs: ``irfft`` synthesis, a real ``rfft``/``irfft``
  convolution, and ``rfft`` analysis, at about half the cost. On Hermitian
  grids its output is the first F // 2 + 1 rows of the full path's.

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

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len

from .rir import Rir
from .signals import Spectrogram


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
    n_samp = None
    if spec.num_samples is not None:
        n_samp = spec.num_samples + kernel.rir_length - 1
    return Spectrogram(y, spec.config, num_samples=n_samp)


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


def _overlap_add(frames, hop):
    """Sum (T, N) frames placed at multiples of ``hop`` into one buffer of
    (T - 1) * hop + N samples."""
    t_frames, n = frames.shape
    k = n // hop
    blocks = frames.reshape(t_frames, k, hop)
    buf = np.zeros((t_frames + k - 1, hop), dtype=frames.dtype)
    for j in range(k):
        buf[j:j + t_frames] += blocks[:, j]
    return buf.reshape(-1)


def _frames(x, n, hop, num_frames):
    """(num_frames, N) frames of ``x`` at multiples of ``hop``; ``x`` is cut
    or zero-padded to the span the frames cover."""
    span = (num_frames - 1) * hop + n
    if len(x) < span:
        x = np.concatenate([x, np.zeros(span - len(x), dtype=x.dtype)])
    return sliding_window_view(x[:span], n)[::hop]


def _ffts(one_sided):
    """The (forward, inverse) FFT pair of a layout: real FFTs for one-sided
    grids, complex FFTs for full ones."""
    if one_sided:
        return np.fft.rfft, np.fft.irfft
    return np.fft.fft, np.fft.ifft


@dataclass
class DrySynthesis:
    """Overlap-add synthesis of a dry grid with ``g_s``, with its FFT cached
    per transform length: every RIR the grid is convolved with shares one
    synthesis and one transform. A full grid's synthesis is kept complex (no
    real part is taken, so an inconsistent grid maps exactly); a one-sided
    grid's is real, and its transform is a real FFT."""

    signal: np.ndarray
    num_frames: int
    config: object
    num_samples: int | None = None
    _spectra: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def one_sided(self):
        return not np.iscomplexobj(self.signal)

    def spectrum(self, n_fft):
        x_f = self._spectra.get(n_fft)
        if x_f is None:
            x_f = _ffts(self.one_sided)[0](self.signal, n=n_fft)
            self._spectra[n_fft] = x_f
        return x_f


def synthesize(spec):
    """Synthesis step of the exact operator for a dry Spectrogram: complex
    for a full grid, real (``irfft`` of the one-sided rows) for a one-sided
    grid."""
    cfg = spec.config
    ifft = _ffts(spec.one_sided)[1]
    frames = ifft(spec.data.T, n=cfg.win_len, axis=1) * cfg.synthesis_window
    return DrySynthesis(_overlap_add(frames, cfg.hop), spec.num_frames, cfg,
                        spec.num_samples)


class ExactConv:
    """Exact STFT-domain convolution with one RIR, applied matrix-free.

    On a full grid, ``forward`` equals ``apply(build_kernel(h, cfg, "full"),
    s)`` (up to rounding) for any complex grid ``s``, and ``adjoint`` is its
    adjoint under <A, B> = sum A conj(B).

    On a one-sided grid both maps use real FFTs and return one-sided grids.
    For a Hermitian full grid they equal the first F // 2 + 1 rows of the
    full maps, and ``adjoint`` is the adjoint of ``forward`` under
    <A, B> = sum_f w_f Re(A conj B), with the row weights of
    :func:`~revmatch.signals.row_weights` (the full-grid inner product of the
    Hermitian grids).

    The RIR's spectrum is computed once per transform length and layout and
    shared by the forward and adjoint maps.
    """

    def __init__(self, h, cfg):
        self.taps = _rir_taps(h)
        if not cfg.is_perfect_reconstruction():
            raise ValueError("config lacks the perfect-reconstruction property")
        self.cfg = cfg
        self.t_h = kernel_frames(len(self.taps), cfg)
        self._spectra = {}

    def _spectrum(self, dry_length, one_sided):
        """FFT length for a dry signal of the given length, and the RIR's
        spectrum at it (a real FFT for the one-sided layout); long enough
        that neither map wraps around."""
        n_fft = next_fast_len(dry_length + len(self.taps) - 1, one_sided)
        h_f = self._spectra.get((n_fft, one_sided))
        if h_f is None:
            h_f = _ffts(one_sided)[0](self.taps, n=n_fft)
            self._spectra[(n_fft, one_sided)] = h_f
        return n_fft, h_f

    def _check(self, cfg):
        if not self.cfg.same_grid(cfg):
            raise ValueError("spectrogram config does not match operator config")

    def forward(self, dry, num_frames=None):
        """Reverberate a dry grid (Spectrogram or its DrySynthesis).

        Returns ``num_frames`` analysis frames, by default all
        T_s + t_h - 1 frames the convolution covers; fewer frames crop the
        grid, more frames are zero. The output has the dry grid's layout.
        """
        if isinstance(dry, Spectrogram):
            dry = synthesize(dry)
        self._check(dry.config)
        cfg = self.cfg
        if num_frames is None:
            num_frames = dry.num_frames + self.t_h - 1
        fft, ifft = _ffts(dry.one_sided)
        n_fft, h_f = self._spectrum(len(dry.signal), dry.one_sided)
        wet_len = len(dry.signal) + len(self.taps) - 1
        wet = ifft(dry.spectrum(n_fft) * h_f, n=n_fft)[:wet_len]
        frames = _frames(wet, cfg.win_len, cfg.hop, num_frames)
        y = fft(frames * cfg.analysis_window, axis=1).T
        n_samp = None
        if dry.num_samples is not None:
            n_samp = dry.num_samples + len(self.taps) - 1
        return Spectrogram(np.ascontiguousarray(y), cfg, num_samples=n_samp)

    def adjoint(self, grid, num_frames):
        """Adjoint of :meth:`forward` for a dry grid of ``num_frames`` frames:
        maps any number of wet frames back to ``num_frames`` frames, in the
        wet grid's layout."""
        self._check(grid.config)
        cfg = self.cfg
        n = cfg.win_len
        fft, ifft = _ffts(grid.one_sided)
        frames = ifft(grid.data.T, n=n, axis=1) * (n * cfg.analysis_window)
        dry_len = (num_frames - 1) * cfg.hop + n
        n_fft, h_f = self._spectrum(dry_len, grid.one_sided)
        wet_adj = _overlap_add(frames, cfg.hop)[:dry_len + len(self.taps) - 1]
        dry_adj = ifft(fft(wet_adj, n=n_fft) * np.conj(h_f), n=n_fft)
        frames = _frames(dry_adj, n, cfg.hop, num_frames)
        x = fft(frames * cfg.synthesis_window, axis=1).T / n
        return Spectrogram(np.ascontiguousarray(x), cfg)
