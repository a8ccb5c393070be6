"""Training-less dereverberation: per-sample minimization of the
reverberation-matching objective over the real dry signal, with RIRs drawn
from acoustic parameters or one known RIR."""

from dataclasses import dataclass, field

import numpy as np

from .loss import LossConfig, Observation, rm_loss
from .seeding import STREAM_SOLVER_ITERS, as_path
from .signals import Spectrogram, istft, stft


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
    """Per-iteration loss history of one solve; ``iterations_used`` is
    derived, the number of reports."""

    reports: list
    best_index: int
    converged: bool

    @property
    def iterations_used(self):
        return len(self.reports)

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


def _adam_step(x, grad, t, step_size, m, v, step, denom):
    """Adam's update of ``x`` in place at step ``t`` >= 1, bias correction
    included (Kingma & Ba, ICLR 2015). The moments ``m`` and ``v`` are
    updated in place, ``step`` and ``denom`` are work arrays of ``x``'s
    size, and ``grad`` is only read."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m *= b1
    m += np.multiply(grad, 1 - b1, out=step)
    np.square(grad, out=denom)
    denom *= 1 - b2
    v *= b2
    v += denom
    np.divide(m, 1 - b1 ** t, out=step)
    np.divide(v, 1 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += eps
    step *= step_size
    step /= denom
    x -= step


def trainingless_dereverb(y, params, cfg):
    """Minimize the reverberation-matching objective over the real dry signal.

    The iterate ``x`` has the observation's ``n = y.num_samples`` samples and
    starts from them; its model under an RIR ``h`` is the one-sided STFT of
    ``(h * x)[:n]`` (see :func:`tfconv.forward`), scored against ``y``.
    Iterates first-order updates, drawing fresh RIRs from acoustic
    parameters on every iteration, and returns the one-sided STFT of the
    best-loss iterate, which ``istft`` turns back into that iterate.

    Parameters
    ----------
    y : Spectrogram
        Observed reverberant STFT of a real signal of ``y.num_samples``
        samples.
    params : AcousticParams or Rir
        Acoustic parameters to draw RIRs from, or the known RIR; any other
        type raises TypeError (from :func:`~revmatch.loss.rm_loss`).
    cfg : SolverConfig

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
    if not np.all(np.isfinite(y.data)):
        raise ValueError("observation contains non-finite values")

    n = y.num_samples
    x = istft(y)
    scale = np.sqrt(np.mean(x ** 2))
    if scale == 0:
        raise ValueError("observation is identically zero")
    x /= scale
    obs = Observation(Spectrogram(y.data / scale, y.config, n))
    floor = 1e-14 * obs.energy

    # the operator's and the loss's arrays live in the observation, Adam's
    # here; best_x is a copy, as x is updated in place
    m, v = np.zeros(n), np.zeros(n)
    step, denom = np.empty(n), np.empty(n)
    reports = []
    best_x = np.empty_like(x)
    best_index = 0

    for it in range(cfg.max_iters):
        # nothing reads x after the last capped iteration: no gradient, no
        # step
        last = it == cfg.max_iters - 1
        report, grad = rm_loss(
            obs, x, params, cfg.loss_cfg,
            seed=(*as_path(cfg.seed), STREAM_SOLVER_ITERS, it),
            want_grad=not last,
            alpha_fallback=reports[-1].alpha if reports else 1.0)
        reports.append(report)
        total = report.total
        if it == 0 or total < reports[best_index].total:
            best_index = it
            np.copyto(best_x, x)
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        if total > 10.0 * reports[0].total:
            raise DivergenceError(
                f"loss {total:.3e} exceeded 10x initial "
                f"{reports[0].total:.3e} at iteration {it}")
        # the stop tests: the loss is at its floor, or it fell by less than
        # stop_rel_tol over the last 10 iterations
        converged = total <= floor or (
            it >= 10 and (reports[it - 10].total - total)
            / max(reports[it - 10].total, 1e-300) < cfg.stop_rel_tol)
        if converged or last:
            break
        _adam_step(x, grad, it + 1, cfg.step_size, m, v, step, denom)

    trace = SolveTrace(reports=reports, best_index=best_index,
                       converged=converged)
    return stft(best_x * scale, y.config), trace

