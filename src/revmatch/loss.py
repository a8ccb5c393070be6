"""Reverberation-matching losses with gradient-norm balancing and Monte-Carlo
expectation variants, plus analytic gradients with respect to the real dry
signal.

The complex term penalizes the squared Frobenius distance between the
observed reverberant grid and the re-reverberated estimate; the magnitude
term measures the same distance between log(1 + |.|) magnitudes. The weight
balancing the two equalizes the Frobenius norms of their gradients taken with
respect to the re-reverberated grid, recomputed per draw.

The grid helpers (:func:`loss_complex`, :func:`grad_mag`, ...) work on full
grids, with gradients in the convention grad[f, t] = dL/dRe + i * dL/dIm.
:func:`rm_loss` scores one-sided grids (F // 2 + 1 rows, see
:class:`~revmatch.signals.Spectrogram`): every sum over bins, in both terms
and in the gradient norms behind the weight, weights its rows by
:func:`~revmatch.signals.row_weights` (1 for DC and Nyquist, 2 for the
rest), so the values equal those of the Hermitian full grids to rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rir, tfconv
from .seeding import STREAM_LOSS_DRAWS, derive_rng
from .signals import Spectrogram, row_weights

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
    mag = np.abs(yhat)
    err = np.log1p(np.abs(y)) - np.log1p(mag)
    return _grad_mag(err, mag, yhat, np.empty_like(mag),
                     np.empty(mag.shape, dtype=bool),
                     np.empty(mag.shape, dtype=np.result_type(yhat, err)))


def _grad_mag(err, mag, yhat, denom, zero, out):
    """grad_mag from the log-magnitude error and |yhat|, written to ``out``;
    ``err`` and ``mag`` are overwritten, ``denom`` and ``zero`` are work
    arrays of their shape."""
    np.less_equal(mag, 0.0, out=zero)
    np.maximum(mag, _TINY, out=denom)
    mag += 1.0
    denom *= mag
    err *= -2.0
    err /= denom
    np.multiply(err, yhat, out=out)
    np.copyto(out, 0.0, where=zero)
    return out


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
    """Crop or zero-pad the frame axis to num_frames: aligns the cross-band
    kernel's output with an observation's frames."""
    f_bins, t = arr.shape
    if t == num_frames:
        return arr
    out = np.zeros((f_bins, num_frames), dtype=arr.dtype)
    out[:, :min(t, num_frames)] = arr[:, :min(t, num_frames)]
    return out


def _weighted_sq_sum(x, weights):
    """sum_f w_f sum_t |x[f, t]|^2 for a C-contiguous (rows, T) array: the
    squared Frobenius norm of the full grid a one-sided grid stands for."""
    flat = x.view(np.float64) if np.iscomplexobj(x) else x
    return float(weights[:, 0] @ np.vecdot(flat, flat))


def _draw_terms(y_data, log_mag_y, yhat, weights, alpha_fallback, want_grad,
                scratch):
    """Loss terms of one draw on one-sided grids, in the arrays of a
    :class:`~revmatch.tfconv.Scratch`: (l_c, l_m, alpha, total, g_y), with
    g_y (``scratch.diff``) the gradient with respect to yhat when
    ``want_grad``; ``log_mag_y`` is log(1 + |y_data|)."""
    _check_shapes(y_data, yhat)
    diff = np.subtract(yhat, y_data, out=scratch.diff)
    mag = np.abs(yhat, out=scratch.mag)
    err = np.subtract(log_mag_y, np.log1p(mag, out=scratch.err),
                      out=scratch.err)
    l_c = _weighted_sq_sum(diff, weights)
    l_m = _weighted_sq_sum(err, weights)
    g_m = _grad_mag(err, mag, yhat, scratch.denom, scratch.zero,
                    scratch.g_m)
    # doubling is exact, so ||2 diff|| is 2 sqrt(l_c) to the last bit
    norm_c = 2.0 * np.sqrt(l_c)
    norm_m = np.sqrt(_weighted_sq_sum(g_m, weights))
    if norm_m == 0.0:
        alpha = float(alpha_fallback)
    else:
        alpha = float(norm_c / norm_m)
    total = l_c + alpha * l_m
    if not want_grad:
        return l_c, l_m, alpha, total, None
    # 2 diff + alpha g_m, built in place
    g_m *= alpha
    diff *= 2.0
    diff += g_m
    return l_c, l_m, alpha, total, diff


def rm_loss(y, x, acoustics, cfg, seed=0, want_grad=False,
            alpha_fallback=1.0, log_mag_y=None, scratch=None):
    """Reverberation-matching loss between an observed reverberant grid and a
    real dry signal pushed through RIRs drawn from, or fixed by, the
    acoustics.

    Each draw is the exact convolution with its RIR, by one
    :class:`tfconv.ExactConv` per draw and call: the one-sided STFT of
    ``(h * x)`` cut to ``len(x)`` samples, scored against ``y``'s first
    F // 2 + 1 rows with row-weighted sums, so the loss values and the weight
    equal those of the Hermitian full grids to rounding.

    Parameters
    ----------
    y : Spectrogram
        Observed reverberant STFT (full or one-sided) of ``len(x)`` samples.
    x : ndarray
        Real dry estimate, 1-D.
    acoustics : AcousticParams or Rir
        AcousticParams give ``cfg.resolved_draws`` draws of
        :func:`~revmatch.rir.sample_rir`; a known Rir is the single draw
        (the expectation over a point mass is the single-draw loss); any
        other type raises TypeError. Must match y's sample rate.
    cfg : LossConfig
    seed : int
        Draw i uses the stream (seed, STREAM_LOSS_DRAWS, i), so results do not
        depend on evaluation order.
    want_grad : bool
        Also return the gradient with respect to x (a real array of its
        length).
    alpha_fallback : float
        Weight used when the magnitude-loss gradient vanishes.
    log_mag_y : ndarray, optional
        ``log1p(abs(y.half().data))``, for a caller that scores one
        observation many times; computed here when not given.
    scratch : tfconv.Scratch, optional
        Work arrays for ``len(x)`` samples under ``y.config``, for a caller
        that scores many times; it keys the RIR's spectrum on the taps
        array, so a known Rir's is computed once per scratch. The gradient
        returned is then the scratch's and its next use overwrites it. A
        fresh one is made when not given.

    Returns
    -------
    (LossReport, ndarray or None)
    """
    if isinstance(acoustics, rir.Rir):
        draws = [acoustics]
    elif isinstance(acoustics, rir.AcousticParams):
        draws = [rir.sample_rir(acoustics,
                                rng=derive_rng(seed, STREAM_LOSS_DRAWS, i))
                 for i in range(cfg.resolved_draws)]
    else:
        raise TypeError("acoustics must be AcousticParams or a Rir")
    ops = [tfconv.ExactConv(h, y.config) for h in draws]
    n_draws = len(ops)
    y_data = y.half().data
    if log_mag_y is None:
        log_mag_y = np.log1p(np.abs(y_data))
    if scratch is None:
        scratch = tfconv.Scratch(len(x), y.config)
    weights = row_weights(y.config)

    def backprop(op, g_y):
        return op.adjoint(Spectrogram(g_y, y.config, len(x)), scratch)

    # the next draw overwrites the scratch: the average sums its gradients
    # in draw order as it goes, and each grid another variant may
    # backpropagate later is copied out
    summing = want_grad and cfg.variant == "average" and n_draws > 1
    per_draw = []
    grids = []
    for i, op in enumerate(ops):
        yhat = op.forward(x, scratch).data
        l_c, l_m, alpha, total, g_y = _draw_terms(
            y_data, log_mag_y, yhat, weights, alpha_fallback, want_grad,
            scratch)
        per_draw.append((l_c, l_m, alpha, total))
        if summing:
            if i == 0:
                np.copyto(scratch.grad_sum, backprop(op, g_y))
            else:
                scratch.grad_sum += backprop(op, g_y)
        elif want_grad:
            grids.append(g_y if n_draws == 1 else g_y.copy())

    def grad_of(i):
        return backprop(ops[i], grids[i]) if want_grad else None

    if cfg.variant in ("single",) or n_draws == 1:
        l_c, l_m, alpha, total = per_draw[0]
        report = LossReport(l_c, l_m, alpha, total, selected_draw=None,
                            per_draw=per_draw)
        return report, grad_of(0)
    if cfg.variant == "average":
        l_c = float(np.mean([d[0] for d in per_draw]))
        l_m = float(np.mean([d[1] for d in per_draw]))
        total = float(np.mean([d[3] for d in per_draw]))
        # effective weight keeping total == l_complex + alpha * l_mag exact
        alpha = (total - l_c) / l_m if l_m > 0 else float(
            np.mean([d[2] for d in per_draw]))
        grad = None
        if want_grad:
            # the division of np.mean after its sum in draw order
            grad = scratch.grad_sum
            grad /= n_draws
        return LossReport(l_c, l_m, alpha, total, selected_draw=None,
                          per_draw=per_draw), grad
    # best: backpropagate only through the lowest-loss draw with its own weight
    best = int(np.argmin([d[3] for d in per_draw]))
    l_c, l_m, alpha, total = per_draw[best]
    return LossReport(l_c, l_m, alpha, total, selected_draw=best,
                      per_draw=per_draw), grad_of(best)
