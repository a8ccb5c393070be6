"""Training-less dereverberation: per-sample minimization of the
reverberation-matching objective over the real dry signal, with RIRs drawn
from acoustic parameters or one known RIR."""

from dataclasses import dataclass, field

import numpy as np

from . import blind, tfconv
from .loss import LossConfig, rm_loss
from .records import format_records
from .rir import AcousticParams
from .seeding import STREAM_SOLVER_ITERS, as_path
from .signals import (Signal, Spectrogram, default_stft_config, istft,
                      row_weights, stft)


class DivergenceError(RuntimeError):
    """Objective exceeded the divergence guard during a solve."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and Adam step size for the per-sample solver.

    ``step_size`` is relative to the dry signal, which the solver normalizes
    to unit RMS.
    """

    max_iters: int = 500
    step_size: float = 5e-2
    stop_rel_tol: float = 1e-4
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        if np.isnan(self.stop_rel_tol):
            raise ValueError("stop_rel_tol must not be NaN")


@dataclass
class SolveTrace:
    """Per-iteration loss history of one solve."""

    reports: list
    best_index: int
    iterations_used: int
    converged: bool

    @property
    def totals(self):
        return np.array([r.total for r in self.reports])

    def to_lines(self):
        out = []
        for i, r in enumerate(self.reports):
            out.append(f"iter={i} l_complex={r.l_complex:.17g} "
                       f"l_mag={r.l_mag:.17g} alpha={r.alpha:.17g} "
                       f"total={r.total:.17g}")
        return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Passthrough:
    """Why a blind dereverb returned its input unchanged:
    ``insufficient-decay`` (the analyzer found no usable decay) or
    ``anechoic`` (the mapped RT60 is below the anechoic floor)."""

    cause: str

    def to_lines(self):
        return format_records([("passthrough", self.cause)])


def trainingless_dereverb(y, params, cfg=None):
    """Minimize the reverberation-matching objective over the real dry signal.

    The iterate ``x`` has the observation's ``n = y.num_samples`` samples and
    starts from them; its model under an RIR ``h`` is the one-sided STFT of
    ``(h * x)[:n]`` (see :meth:`tfconv.ExactConv.forward`), scored against
    ``y``'s first F // 2 + 1 rows. Iterates first-order updates, drawing
    fresh RIRs from acoustic parameters on every iteration, and returns the
    one-sided STFT of the best-loss iterate, which ``istft`` turns back into
    that iterate.

    Parameters
    ----------
    y : Spectrogram
        Observed reverberant STFT of a real signal of ``y.num_samples``
        samples; only its first F // 2 + 1 rows are read.
    params : AcousticParams or Rir
        Acoustic parameters to draw RIRs from, or the known RIR; any other
        type raises TypeError (from :func:`~revmatch.loss.rm_loss`).
    cfg : SolverConfig, optional

    Returns
    -------
    (Spectrogram, SolveTrace)

    Raises
    ------
    ValueError
        If the observation holds a non-finite value or is identically zero.
    DivergenceError
        If the loss turns non-finite or exceeds 10x its initial value.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not np.all(np.isfinite(y.data)):
        raise ValueError("observation contains non-finite values")

    n = y.num_samples
    y_half = y.half()
    x = istft(y_half, length=n)
    scale = np.sqrt(np.mean(x ** 2))
    if scale == 0:
        raise ValueError("observation is identically zero")
    x /= scale
    y_norm = Spectrogram(y_half.data / scale, y.config, n)
    floor = 1e-14 * float(np.sum(row_weights(y.config)
                                 * np.abs(y_norm.data) ** 2))
    log_mag_y = np.log1p(np.abs(y_norm.data))

    # the operator's and the loss's arrays live in one scratch per solve,
    # Adam's here; best_x is a copy, as x is updated in place
    scratch = tfconv.Scratch(n, y.config)
    m, v = np.zeros(n), np.zeros(n)
    step, denom = np.empty(n), np.empty(n)
    reports = []
    best_total = np.inf
    best_x = np.empty_like(x)
    best_index = 0
    alpha_prev = 1.0
    converged = False

    for it in range(cfg.max_iters):
        report, grad = rm_loss(
            y_norm, x, params, cfg.loss_cfg,
            seed=(*as_path(cfg.seed), STREAM_SOLVER_ITERS, it),
            want_grad=True, alpha_fallback=alpha_prev, log_mag_y=log_mag_y,
            scratch=scratch)
        alpha_prev = report.alpha
        reports.append(report)
        total = report.total
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        if total < best_total:
            best_total = total
            np.copyto(best_x, x)
            best_index = it
        if it == 0:
            initial = total
        elif total > 10.0 * initial:
            raise DivergenceError(
                f"loss {total:.3e} exceeded 10x initial {initial:.3e} "
                f"at iteration {it}")
        if total <= floor:
            converged = True
            break
        if it >= 10:
            prev = reports[it - 10].total
            if (prev - total) / max(prev, 1e-300) < cfg.stop_rel_tol:
                converged = True
                break

        # Adam, in place; grad is the scratch's and only read
        b1, b2, eps = 0.9, 0.999, 1e-8
        m *= b1
        m += np.multiply(grad, 1 - b1, out=step)
        np.square(grad, out=denom)
        denom *= 1 - b2
        v *= b2
        v += denom
        tcorr = it + 1
        np.divide(m, 1 - b1 ** tcorr, out=step)
        np.divide(v, 1 - b2 ** tcorr, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step *= cfg.step_size
        step /= denom
        x -= step

    trace = SolveTrace(reports=reports, best_index=best_index,
                       iterations_used=len(reports), converged=converged)
    return stft(best_x * scale, y.config, one_sided=True), trace


def dereverb_pipeline(sig, acoustics, solver_cfg=None, blind_cfg=None):
    """Dereverberate a time-domain signal: STFT -> solve -> iSTFT, with the
    output at the input's length.

    ``acoustics`` is either known ``AcousticParams``, solved for directly, or
    an ``Rt60Calibration``: blind analysis then supplies the parameters, and
    the input passes through unchanged when the analyzer finds no usable decay
    or maps to a near-anechoic RT60.

    Returns
    -------
    (Signal, SolveTrace or Passthrough)
        A Passthrough, naming its cause, when the input passed through without
        a solve.
    """
    if solver_cfg is None:
        solver_cfg = SolverConfig()
    spec = stft(sig, default_stft_config())
    params = acoustics
    if isinstance(acoustics, blind.Rt60Calibration):
        if blind_cfg is None:
            blind_cfg = blind.BlindConfig()
        try:
            est = blind.analyze_blind(spec, acoustics, blind_cfg,
                                      sample_rate=sig.sample_rate)
        except blind.InsufficientDecay:
            est = None
        if est is None or est.anechoic:
            cause = "insufficient-decay" if est is None else "anechoic"
            unchanged = Signal(sig.samples.copy(), sig.sample_rate)
            return unchanged, Passthrough(cause)
        params = AcousticParams(rt60=est.rt60, drr_db=est.drr_db,
                                sample_rate=sig.sample_rate,
                                noise_mode=blind_cfg.noise_mode)
    shat, trace = trainingless_dereverb(spec, params, solver_cfg)
    return Signal(istft(shat, length=len(sig)), sig.sample_rate), trace
