"""Reverberation-matching losses with gradient-norm balancing and Monte-Carlo
expectation variants, plus analytic gradients with respect to the real dry
signal.

The complex term penalizes the squared Frobenius distance between the
observed reverberant grid and the re-reverberated estimate; the magnitude
term measures the same distance between log(1 + |.|) magnitudes. The weight
balancing the two equalizes the Frobenius norms of their gradients taken with
respect to the re-reverberated grid, recomputed per draw.

The grid helpers (:func:`loss_complex`, :func:`grad_mag`, ...) take complex
arrays and sum every entry, with gradients in the convention grad[f, t] =
dL/dRe + i * dL/dIm: on the full grids of :func:`~revmatch.tfconv.stft_full`
they are the references :func:`rm_loss` is tested against. :func:`rm_loss`
scores one-sided grids (see :class:`~revmatch.signals.Spectrogram`)
against an :class:`Observation`, built once per solve: every sum over bins,
in both terms and in the gradient norms behind the weight, weights its rows
by :func:`~revmatch.signals.row_weights` (1 for DC and Nyquist, 2 for the
rest), so the values equal those of the Hermitian full grids to rounding.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rir, tfconv
from .seeding import STREAM_LOSS_DRAWS, derive_rng
from .signals import row_weights, weighted_dot

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


def _check_shapes(y, yhat):
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {yhat.shape}")


def loss_complex(y, yhat):
    """Squared Frobenius distance, summed over every entry."""
    ya, yb = np.asarray(y), np.asarray(yhat)
    _check_shapes(ya, yb)
    diff = yb - ya
    return float(np.sum(diff.real ** 2 + diff.imag ** 2))


def loss_mag(y, yhat):
    """Squared Frobenius distance between log(1 + |.|) magnitudes."""
    ya, yb = np.asarray(y), np.asarray(yhat)
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
                     np.empty(mag.shape, dtype=np.result_type(yhat, err)))


def _grad_mag(err, mag, yhat, denom, out):
    """grad_mag from the log-magnitude error and |yhat|, written to ``out``;
    ``err`` and ``mag`` are overwritten, ``denom`` is a work array of their
    shape. Where |yhat| is 0 the quotient stays finite (the denominator is at
    least ``_TINY``), so its product with yhat is a signed zero."""
    np.maximum(mag, _TINY, out=denom)
    mag += 1.0
    denom *= mag
    err *= -2.0
    err /= denom
    return np.multiply(err, yhat, out=out)


def gradnorm_alpha(y, yhat):
    """Weight equalizing the gradient norms of the two loss terms at yhat:
    alpha = ||d l_complex / d yhat|| / ||d l_mag / d yhat||."""
    ya, yb = np.asarray(y), np.asarray(yhat)
    _check_shapes(ya, yb)
    norm_c = np.linalg.norm(grad_complex(ya, yb))
    norm_m = np.linalg.norm(grad_mag(ya, yb))
    if norm_m == 0.0:
        raise DegenerateGradNorm("magnitude-loss gradient is zero")
    return float(norm_c / norm_m)


class Observation:
    """One solve's observed :class:`~revmatch.signals.Spectrogram` ``y``, as
    :func:`rm_loss` scores it: its grid ``data`` and its ``log_mag``,
    log(1 + |data|); the :func:`~revmatch.signals.row_weights` ``weights``
    and the full grid's ``energy``; the loss's work arrays ``diff``, ``mag``,
    ``err``, ``denom``, ``g_m``, ``grad_sum`` (the ``average``'s) and
    ``g_best`` (the ``best``'s); and ``scratch``, the operator's
    :class:`~revmatch.tfconv.Scratch` for ``y.num_samples`` samples under
    ``y.config``. A gradient :func:`rm_loss` returns is the observation's
    until its next call. It is never shared between threads."""

    def __init__(self, y):
        self.data = np.ascontiguousarray(y.data)
        self.log_mag = np.log1p(np.abs(self.data))
        self.weights = row_weights(y.config)
        self.energy = weighted_dot(self.data, self.data, self.weights)
        self.scratch = tfconv.Scratch(y.num_samples, y.config)
        _check_shapes(self.data, self.scratch.grid)
        grid = self.data.shape
        self.diff, self.g_m, self.g_best = (
            np.empty(grid, dtype=np.complex128) for _ in range(3))
        self.mag, self.err, self.denom = (np.empty(grid) for _ in range(3))
        self.grad_sum = np.empty(y.num_samples)


def _draw_terms(obs, yhat, alpha_fallback, want_grad):
    """Loss terms of one draw's one-sided grid ``yhat`` against ``obs``, in
    its arrays: (l_c, l_m, alpha, total, g_y), with g_y (``obs.diff``) the
    gradient with respect to yhat when ``want_grad``."""
    w = obs.weights
    diff = np.subtract(yhat, obs.data, out=obs.diff)
    mag = np.abs(yhat, out=obs.mag)
    err = np.subtract(obs.log_mag, np.log1p(mag, out=obs.err), out=obs.err)
    l_c = weighted_dot(diff, diff, w)
    l_m = weighted_dot(err, err, w)
    g_m = _grad_mag(err, mag, yhat, obs.denom, obs.g_m)
    # doubling is exact, so ||2 diff|| is 2 sqrt(l_c) to the last bit
    norm_c = 2.0 * np.sqrt(l_c)
    norm_m = np.sqrt(weighted_dot(g_m, g_m, w))
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


def rm_loss(obs, x, acoustics, cfg, seed=0, want_grad=False,
            alpha_fallback=1.0):
    """Reverberation-matching loss between an observed reverberant grid and a
    real dry signal pushed through RIRs drawn from, or fixed by, the
    acoustics.

    Each draw is the exact convolution with its RIR, :func:`tfconv.forward`:
    the one-sided STFT of ``(h * x)`` cut to ``len(x)`` samples, scored
    against the observation's one-sided rows with row-weighted sums, so the
    loss values and the weight equal those of the Hermitian full grids to
    rounding. The gradient goes back through :func:`tfconv.adjoint`: once
    per draw for the ``average``, summed in draw order, and once for the
    selected draw of the ``best``, the first of the lowest total.

    Parameters
    ----------
    obs : Observation
        The observed grid, in whose arrays the loss and the operator work;
        a known Rir's spectrum is computed once per observation.
    x : ndarray
        Real dry estimate, 1-D, of the observation's sample count; another
        length is refused with ValueError by :func:`tfconv.forward`.
    acoustics : AcousticParams or Rir
        AcousticParams give ``cfg.resolved_draws`` draws of
        :func:`~revmatch.rir.sample_rir`; a known Rir is the single draw
        (the expectation over a point mass is the single-draw loss); any
        other type raises TypeError. Must match the observation's sample
        rate.
    cfg : LossConfig
    seed : int
        Draw i uses the stream (seed, STREAM_LOSS_DRAWS, i), so results do not
        depend on evaluation order.
    want_grad : bool
        Also return the gradient with respect to x (a real array of its
        length, the observation's until its next call).
    alpha_fallback : float
        Weight used when the magnitude-loss gradient vanishes.

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
    n_draws = len(draws)
    scratch = obs.scratch

    # the next draw overwrites the observation's arrays: the average sums
    # its gradients in draw order as it goes, and the best keeps a copy of
    # the grid of its lowest-loss draw so far
    summing = want_grad and cfg.variant == "average" and n_draws > 1
    keeping = want_grad and cfg.variant == "best" and n_draws > 1
    per_draw = []
    best = 0
    for i, h in enumerate(draws):
        yhat = tfconv.forward(h.taps, x, scratch)
        l_c, l_m, alpha, total, g_y = _draw_terms(obs, yhat, alpha_fallback,
                                                  want_grad)
        per_draw.append((l_c, l_m, alpha, total))
        if summing:
            g_x = tfconv.adjoint(h.taps, g_y, scratch)
            if i == 0:
                np.copyto(obs.grad_sum, g_x)
            else:
                obs.grad_sum += g_x
        # strict: the first of equal totals, as argmin picks
        elif i == 0 or total < per_draw[best][3]:
            best = i
            if keeping:
                np.copyto(obs.g_best, g_y)

    if cfg.variant == "average" and n_draws > 1:
        l_c = float(np.mean([d[0] for d in per_draw]))
        l_m = float(np.mean([d[1] for d in per_draw]))
        total = float(np.mean([d[3] for d in per_draw]))
        # effective weight keeping total == l_complex + alpha * l_mag exact
        alpha = (total - l_c) / l_m if l_m > 0 else float(
            np.mean([d[2] for d in per_draw]))
        # the division of np.mean after its sum in draw order
        grad = (np.divide(obs.grad_sum, n_draws, out=obs.grad_sum)
                if want_grad else None)
        return LossReport(l_c, l_m, alpha, total, selected_draw=None,
                          per_draw=per_draw), grad
    # one draw, or the best's lowest-loss draw with its own weight
    l_c, l_m, alpha, total = per_draw[best]
    grad = (tfconv.adjoint(draws[best].taps, obs.g_best if keeping else g_y,
                           scratch) if want_grad else None)
    selected = best if cfg.variant == "best" and n_draws > 1 else None
    return LossReport(l_c, l_m, alpha, total, selected_draw=selected,
                      per_draw=per_draw), grad
