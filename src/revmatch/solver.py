"""Training-less dereverberation: per-sample minimization of the
reverberation-matching objective over the dry STFT, with probabilistic or
degenerate (known-RIR) samplers. The solve runs on the one-sided grid of the
real dry signal (see :class:`~revmatch.signals.Spectrogram`)."""

from dataclasses import dataclass, field

import numpy as np

from . import blind, tfconv
from .loss import LossConfig, rm_loss
from .records import format_records
from .rir import AcousticParams, DiracSampler, PolackSampler, Rir
from .seeding import STREAM_SOLVER_ITERS, as_path
from .signals import Signal, Spectrogram, default_stft_config, istft, stft

STEP_RULES = ("adam", "fixed")


class DivergenceError(RuntimeError):
    """Objective exceeded the divergence guard during a solve."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and step rule for the per-sample solver.

    ``step_size`` applies to the internally unit-RMS-normalized observation.
    """

    max_iters: int = 500
    step_rule: str = "adam"
    step_size: float = 5e-2
    stop_rel_tol: float = 1e-4
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.step_rule not in STEP_RULES:
            raise ValueError(f"step_rule must be one of {STEP_RULES}")


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


def _as_sampler(params):
    if isinstance(params, (PolackSampler, DiracSampler)):
        return params
    if isinstance(params, AcousticParams):
        return PolackSampler(params)
    if isinstance(params, Rir):
        return DiracSampler(params)
    raise TypeError("params must be AcousticParams, Rir, or a sampler")


def dry_frames(num_wet_frames, rir_length, cfg):
    """Dry-grid frame count for a wet grid and an RIR of known length."""
    shift = -(-(rir_length - 1) // cfg.hop)
    t_s = num_wet_frames - shift
    if t_s < 1:
        raise ValueError("observation shorter than the RIR support")
    return t_s


def trainingless_dereverb(y, params, cfg=None):
    """Minimize the reverberation-matching objective over the dry STFT.

    Starts from the observation itself, iterates first-order updates with
    per-iteration RIR resampling for probabilistic samplers, and returns the
    best-loss iterate.

    The iterate, the loss and the operator work on the one-sided grid, the
    F // 2 + 1 non-negative bins of a real signal's STFT: the observation's
    half is taken once, and the returned grid is the Hermitian extension of
    the best one-sided iterate, so ``istft``'s real part drops nothing.

    Parameters
    ----------
    y : Spectrogram
        Observed reverberant STFT of a real signal; only its first
        F // 2 + 1 rows are read.
    params : AcousticParams, Rir, PolackSampler or DiracSampler
        Acoustic description; a Rir or DiracSampler pins the draw.
    cfg : SolverConfig, optional

    Returns
    -------
    (Spectrogram, SolveTrace)

    Raises
    ------
    ValueError
        If the observation holds a non-finite value.
    DivergenceError
        If the loss turns non-finite or exceeds 10x its initial value.
    """
    if cfg is None:
        cfg = SolverConfig()
    sampler = _as_sampler(params)
    if sampler.sample_rate <= 0:
        raise ValueError("sampler sample rate invalid")
    if not np.all(np.isfinite(y.data)):
        raise ValueError("observation contains non-finite values")
    t_s = dry_frames(y.num_frames, sampler.rir_length, y.config)

    scale = np.linalg.norm(y.data) / np.sqrt(y.data.size)
    if scale == 0:
        raise ValueError("observation is identically zero")
    floor = 1e-14 * float(np.sum(np.abs(y.data / scale) ** 2))
    y_norm = Spectrogram(y.half().data / scale, y.config, y.num_samples)
    shat = y_norm.data[:, :t_s].copy()

    fixed_ops = None
    if isinstance(sampler, DiracSampler):
        fixed_ops = [tfconv.ExactConv(sampler.rir, y.config)]

    reports = []
    best_total = np.inf
    best_shat = shat.copy()
    best_index = 0
    alpha_prev = 1.0
    moments = None
    converged = False

    for it in range(cfg.max_iters):
        spec = Spectrogram(shat, y.config)
        report, grad = rm_loss(
            y_norm, spec, sampler, cfg.loss_cfg,
            seed=(*as_path(cfg.seed), STREAM_SOLVER_ITERS, it),
            want_grad=True, alpha_fallback=alpha_prev, operators=fixed_ops)
        alpha_prev = report.alpha
        reports.append(report)
        total = report.total
        if not np.isfinite(total):
            raise DivergenceError(f"non-finite loss at iteration {it}")
        if total < best_total:
            best_total = total
            best_shat = shat.copy()
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

        if cfg.step_rule == "fixed":
            shat = shat - cfg.step_size * grad
        else:
            # the real and imaginary parts are independent Adam coordinates
            g = grad.view(np.float64)
            if moments is None:
                moments = (np.zeros_like(g), np.zeros_like(g))
            m, v = moments
            b1, b2, eps = 0.9, 0.999, 1e-8
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g ** 2
            moments = (m, v)
            tcorr = it + 1
            mhat = m / (1 - b1 ** tcorr)
            vhat = v / (1 - b2 ** tcorr)
            step = mhat / (np.sqrt(vhat) + eps)
            shat = shat - (cfg.step_size * step).view(np.complex128)

    trace = SolveTrace(reports=reports, best_index=best_index,
                       iterations_used=len(reports), converged=converged)
    out = Spectrogram(best_shat * scale, y.config, y.num_samples).hermitian()
    return out, trace


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
        if est is None or est.rt60 < blind_cfg.min_rt60:
            cause = "insufficient-decay" if est is None else "anechoic"
            unchanged = Signal(sig.samples.copy(), sig.sample_rate)
            return unchanged, Passthrough(cause)
        params = AcousticParams(rt60=est.rt60, drr_db=est.drr_db,
                                sample_rate=sig.sample_rate,
                                noise_mode=blind_cfg.noise_mode)
    shat, trace = trainingless_dereverb(spec, params, solver_cfg)
    return Signal(istft(shat, length=len(sig)), sig.sample_rate), trace
