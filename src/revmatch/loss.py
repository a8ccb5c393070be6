"""Reverberation-matching losses with gradient-norm balancing and Monte-Carlo
expectation variants, plus analytic gradients with respect to the dry STFT.

The complex term penalizes the full-band squared Frobenius distance between
the observed reverberant grid and the re-reverberated estimate; the magnitude
term measures the same distance between log(1 + |.|) magnitudes. The weight
balancing the two equalizes the Frobenius norms of their gradients taken with
respect to the re-reverberated grid, recomputed per draw.

Gradients follow the convention grad[f, t] = dL/dRe + i * dL/dIm, so a real
optimizer treats the real and imaginary parts as independent coordinates.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tfconv
from .seeding import STREAM_LOSS_DRAWS, derive_rng
from .signals import Spectrogram

VARIANTS = ("single", "average", "best")

_TINY = 1e-300


class DegenerateGradNorm(ValueError):
    """Raised when the magnitude-loss gradient vanishes and no weight can be
    derived from the gradient-norm balance."""


@dataclass(frozen=True)
class LossConfig:
    """Monte-Carlo strategy for the reverberation-matching loss."""

    variant: str = "single"
    num_draws: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.num_draws is not None:
            if self.num_draws < 1:
                raise ValueError("num_draws must be >= 1")
            if self.variant == "single" and self.num_draws != 1:
                raise ValueError("single variant implies num_draws == 1")

    @property
    def resolved_draws(self):
        if self.num_draws is not None:
            return self.num_draws
        return 1 if self.variant == "single" else 10


@dataclass
class LossReport:
    """Loss values for one evaluation (one draw or an aggregate)."""

    l_complex: float
    l_mag: float
    alpha: float
    total: float
    selected_draw: int | None = None
    per_draw: list = field(default_factory=list, repr=False)


def _as_grid(y):
    return y.data if isinstance(y, Spectrogram) else np.asarray(y)


def _check_shapes(y, yhat):
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {yhat.shape}")


def loss_complex(y, yhat):
    """Squared Frobenius distance over the full band."""
    ya, yb = _as_grid(y), _as_grid(yhat)
    _check_shapes(ya, yb)
    diff = yb - ya
    return float(np.sum(diff.real ** 2 + diff.imag ** 2))


def loss_mag(y, yhat):
    """Squared Frobenius distance between log(1 + |.|) magnitudes."""
    ya, yb = _as_grid(y), _as_grid(yhat)
    _check_shapes(ya, yb)
    err = np.log1p(np.abs(ya)) - np.log1p(np.abs(yb))
    return float(np.sum(err ** 2))


def grad_complex(y, yhat):
    """Gradient of loss_complex with respect to yhat."""
    return 2.0 * (yhat - y)


def grad_mag(y, yhat):
    """Gradient of loss_mag with respect to yhat; zero where |yhat| vanishes."""
    mag_y = np.abs(y)
    mag = np.abs(yhat)
    err = np.log1p(mag_y) - np.log1p(mag)
    denom = np.maximum(mag, _TINY) * (1.0 + mag)
    grad = (-2.0 * err / denom) * yhat
    grad[mag <= 0.0] = 0.0
    return grad


def gradnorm_alpha(y, yhat):
    """Weight equalizing the gradient norms of the two loss terms at yhat:
    alpha = ||d l_complex / d yhat|| / ||d l_mag / d yhat||."""
    ya, yb = _as_grid(y), _as_grid(yhat)
    _check_shapes(ya, yb)
    norm_c = np.linalg.norm(grad_complex(ya, yb))
    norm_m = np.linalg.norm(grad_mag(ya, yb))
    if norm_m == 0.0:
        raise DegenerateGradNorm("magnitude-loss gradient is zero")
    return float(norm_c / norm_m)


def _align_frames(arr, num_frames):
    """Crop or zero-pad the frame axis to num_frames."""
    f_bins, t = arr.shape
    if t == num_frames:
        return arr
    out = np.zeros((f_bins, num_frames), dtype=arr.dtype)
    out[:, :min(t, num_frames)] = arr[:, :min(t, num_frames)]
    return out


def _draw_terms(y_data, shat, kernel, alpha_fallback, want_grad):
    t_y = y_data.shape[1]
    yhat_spec = tfconv.apply(kernel, shat)
    yhat = _align_frames(yhat_spec.data, t_y)
    l_c = loss_complex(y_data, yhat)
    l_m = loss_mag(y_data, yhat)
    g_c = grad_complex(y_data, yhat)
    g_m = grad_mag(y_data, yhat)
    norm_m = np.linalg.norm(g_m)
    if norm_m == 0.0:
        alpha = float(alpha_fallback)
    else:
        alpha = float(np.linalg.norm(g_c) / norm_m)
    total = l_c + alpha * l_m
    grad = None
    if want_grad:
        g_y = g_c + alpha * g_m
        g_op = _align_frames(g_y, yhat_spec.num_frames)
        grad = tfconv.apply_adjoint(
            kernel, Spectrogram(g_op, shat.config)).data
    return l_c, l_m, alpha, total, grad


def rm_loss(y, shat, sampler, cfg, seed=0, band_radius=8, want_grad=False,
            alpha_fallback=1.0, kernels=None):
    """Reverberation-matching loss between an observed reverberant grid and a
    dry-estimate grid pushed through sampled RIRs.

    Parameters
    ----------
    y : Spectrogram
        Observed reverberant STFT (F x T_y).
    shat : Spectrogram
        Dry estimate (F x T_s).
    sampler : PolackSampler or DiracSampler
        Source of RIR draws; must match y's sample rate.
    cfg : LossConfig
    seed : int
        Draw i uses the stream (seed, STREAM_LOSS_DRAWS, i), so results do not
        depend on evaluation order.
    band_radius : int or "full"
        Kernel band truncation for the draws.
    want_grad : bool
        Also return the gradient with respect to shat (complex array, F x T_s).
    alpha_fallback : float
        Weight used when the magnitude-loss gradient vanishes.
    kernels : list of ConvKernel, optional
        Pre-built kernels to use instead of drawing (one per draw).

    Returns
    -------
    (LossReport, ndarray or None)
    """
    if shat.data.size == 0:
        raise ValueError("empty dry estimate")
    if not y.config.same_grid(shat.config):
        raise ValueError("y and shat configs do not match")
    if kernels is None and sampler is None:
        raise ValueError("either a sampler or pre-built kernels are required")
    from .rir import DiracSampler
    if kernels is None and isinstance(sampler, DiracSampler):
        # the expectation over a point mass is the single-draw loss
        kernels = [tfconv.build_kernel(sampler.rir, y.config, band_radius)]
    n_draws = cfg.resolved_draws if kernels is None else len(kernels)
    y_data = y.data
    per_draw = []
    grads = []
    for i in range(n_draws):
        if kernels is not None:
            kernel = kernels[i]
        else:
            rir = sampler.draw(derive_rng(seed, STREAM_LOSS_DRAWS, i))
            kernel = tfconv.build_kernel(rir, y.config, band_radius)
        l_c, l_m, alpha, total, grad = _draw_terms(
            y_data, shat, kernel, alpha_fallback, want_grad)
        per_draw.append((l_c, l_m, alpha, total))
        grads.append(grad)

    if cfg.variant in ("single",) or n_draws == 1:
        l_c, l_m, alpha, total = per_draw[0]
        report = LossReport(l_c, l_m, alpha, total, selected_draw=None,
                            per_draw=per_draw)
        return report, grads[0]
    if cfg.variant == "average":
        l_c = float(np.mean([d[0] for d in per_draw]))
        l_m = float(np.mean([d[1] for d in per_draw]))
        total = float(np.mean([d[3] for d in per_draw]))
        # effective weight keeping total == l_complex + alpha * l_mag exact
        alpha = (total - l_c) / l_m if l_m > 0 else float(
            np.mean([d[2] for d in per_draw]))
        grad = None
        if want_grad:
            grad = np.mean(grads, axis=0)
        return LossReport(l_c, l_m, alpha, total, selected_draw=None,
                          per_draw=per_draw), grad
    # best: backpropagate only through the lowest-loss draw with its own weight
    best = int(np.argmin([d[3] for d in per_draw]))
    l_c, l_m, alpha, total = per_draw[best]
    return LossReport(l_c, l_m, alpha, total, selected_draw=best,
                      per_draw=per_draw), grads[best]
