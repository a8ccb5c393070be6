"""Evaluation metrics: scale-invariant SDR for signals and absolute parameter
errors for the analyzers."""

from dataclasses import asdict, dataclass

import numpy as np

from .records import format_records

SISDR_CAP_DB = 100.0


@dataclass
class MetricReport:
    sisdr_db: float | None = None
    sisdr_perfect: bool = False
    rt60_abs_err_s: float | None = None
    drr_abs_err_db: float | None = None

    def to_lines(self):
        """``key=value`` records of the fields that are set."""
        fields = asdict(self)
        if self.sisdr_db is None:
            del fields["sisdr_perfect"]
        return format_records((k, v) for k, v in fields.items()
                              if v is not None)


def sisdr(est, ref):
    """Scale-invariant signal-to-distortion ratio in dB.

    Projects the estimate onto the reference and returns the energy ratio of
    the projection to the residual. Invariant to positive scaling of the
    estimate; a zero residual is flagged as perfect and capped at +100 dB.

    Returns
    -------
    (value_db, perfect) : float, bool
    """
    est = est.samples if hasattr(est, "samples") else np.asarray(est, dtype=np.float64)
    ref = ref.samples if hasattr(ref, "samples") else np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError("signals must have equal lengths")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("zero reference")
    scale = float(np.dot(est, ref)) / ref_energy
    target = scale * ref
    residual = est - target
    res_energy = float(np.dot(residual, residual))
    tgt_energy = float(np.dot(target, target))
    if res_energy == 0.0:
        return SISDR_CAP_DB, True
    value = 10.0 * np.log10(tgt_energy / res_energy)
    return float(min(value, SISDR_CAP_DB)), False


def param_errors(est, truth):
    """Absolute RT60 (s) and DRR (dB) errors of an analyzer output.

    Accepts blind estimates (rt60/drr_db fields) or non-blind analyses
    (rt60_est/drr_est_db fields).
    """
    rt60_est = getattr(est, "rt60", None)
    if rt60_est is None:
        rt60_est = getattr(est, "rt60_est")
    drr_est = getattr(est, "drr_db", None)
    if drr_est is None:
        drr_est = getattr(est, "drr_est_db")
    return MetricReport(
        rt60_abs_err_s=abs(float(rt60_est) - truth.rt60),
        drr_abs_err_db=abs(float(drr_est) - truth.drr_db),
    )


def evaluate(est_sig, ref_sig):
    value, perfect = sisdr(est_sig, ref_sig)
    return MetricReport(sisdr_db=value, sisdr_perfect=perfect)
