"""Evaluation metrics: scale-invariant SDR of sample arrays, in a report that
also carries the analyzers' absolute parameter errors."""

from dataclasses import dataclass

import numpy as np

SISDR_CAP_DB = 100.0


@dataclass
class MetricReport:
    sisdr_db: float | None = None
    sisdr_perfect: bool | None = None
    rt60_abs_err_s: float | None = None
    drr_abs_err_db: float | None = None


def sisdr(est, ref):
    """Scale-invariant signal-to-distortion ratio in dB of two 1-D sample
    arrays.

    Projects the estimate onto the reference and returns the energy ratio of
    the projection to the residual. Invariant to positive scaling of the
    estimate; a zero residual is flagged as perfect and capped at +100 dB.

    Returns
    -------
    (value_db, perfect) : float, bool

    Raises
    ------
    ValueError
        If the lengths differ, either signal holds a non-finite value, the
        reference is zero or the estimate is zero.
    """
    est = np.asarray(est, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError("signals must have equal lengths")
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(ref))):
        raise ValueError("signals contain non-finite values")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("zero reference")
    if not np.any(est):
        raise ValueError("zero estimate")
    scale = float(np.dot(est, ref)) / ref_energy
    target = scale * ref
    residual = est - target
    res_energy = float(np.dot(residual, residual))
    tgt_energy = float(np.dot(target, target))
    if res_energy == 0.0:
        return SISDR_CAP_DB, True
    value = 10.0 * np.log10(tgt_energy / res_energy)
    return float(min(value, SISDR_CAP_DB)), False
