import numpy as np
import pytest

from revmatch.metrics import SISDR_CAP_DB, MetricReport, sisdr
from revmatch.records import dump


def test_sisdr_perfect_and_cap():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    value, perfect = sisdr(x, x)
    assert perfect
    assert value == SISDR_CAP_DB


def test_sisdr_scale_invariance():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(500)
    est = ref + 0.1 * rng.standard_normal(500)
    base, _ = sisdr(est, ref)
    for a in [0.5, 2.0, 1e3]:
        scaled, _ = sisdr(a * est, ref)
        assert scaled == pytest.approx(base, rel=1e-10)
    # exact positive scaling of the reference itself is perfect
    value, perfect = sisdr(2.0 * ref, ref)
    assert perfect and value == SISDR_CAP_DB


def test_sisdr_hand_computed_case():
    # ref = [1, 0], est = [1, 1]: projection scale 1, target energy 1,
    # residual energy 1 -> 0 dB
    value, perfect = sisdr(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert not perfect
    assert value == pytest.approx(0.0, abs=1e-12)


def test_sisdr_errors():
    with pytest.raises(ValueError, match="equal lengths"):
        sisdr(np.ones(3), np.ones(4))
    with pytest.raises(ValueError, match="zero reference"):
        sisdr(np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="zero estimate"):
        sisdr(np.zeros(3), np.ones(3))


def test_sisdr_rejects_non_finite_arrays():
    ref = np.random.default_rng(3).standard_normal(64)
    for bad in (np.nan, np.inf, -np.inf):
        broken = ref.copy()
        broken[17] = bad
        for est, r in ((broken, ref), (ref, broken)):
            with pytest.raises(ValueError, match="non-finite"):
                sisdr(est, r)


def test_evaluate_report_lines():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(100)
    value, perfect = sisdr(ref, ref)
    report = MetricReport(sisdr_db=value, sisdr_perfect=perfect)
    text = dump(report)
    assert "sisdr_db=100" in text
    assert "sisdr_perfect=1" in text
    partial = MetricReport(rt60_abs_err_s=0.25)
    assert dump(partial) == "rt60_abs_err_s=0.25\n"
