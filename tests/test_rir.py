import dataclasses
import math

import numpy as np
import pytest

from revmatch.records import format_records
from revmatch.rir import (AcousticParams, Rir, analyze_rir, edc,
                          min_rir_length, params_from_file, read_rir,
                          reverberant_energy, sample_rir, sigma_from_drr,
                          tau_from_rt60, write_rir)

FS = 16000


def test_tau_formula_reference_value():
    # independent high-precision evaluation of rt60*fs/(3 ln 10)
    expected = 0.5 * 16000 / (3.0 * math.log(10.0))
    assert tau_from_rt60(0.5, 16000) == pytest.approx(expected, rel=1e-15)
    assert round(expected, 2) == 1158.12


def test_tau_proportional_and_unit_case():
    assert tau_from_rt60(1.0, FS) == pytest.approx(2 * tau_from_rt60(0.5, FS))
    assert tau_from_rt60(3.0 * math.log(10.0) / FS, FS) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tau_from_rt60(0.0, FS)
    with pytest.raises(ValueError):
        tau_from_rt60(0.5, -1)


def test_sigma_zero_drr_zero_delay():
    tau = 1234.5
    assert sigma_from_drr(0.0, tau, 0) == pytest.approx(math.sqrt(2.0 / tau))


def test_sigma_inverts_reverberant_energy_identity():
    # plugging sigma back into the tail-energy formula returns 1/DRR_lin
    for drr_db, tau, n_d in [(0.0, 500.0, 0), (10.0, 1000.0, 40),
                             (-6.0, 2000.0, 40)]:
        sigma = sigma_from_drr(drr_db, tau, n_d)
        e_r = reverberant_energy(sigma, tau, n_d)
        assert e_r == pytest.approx(10.0 ** (-drr_db / 10.0), rel=1e-12)


def test_sigma_monte_carlo_tail_energy():
    # 1e4 draws of the tail noise reproduce the target tail energy within 3%
    drr_db, tau, n_d = 10.0, 1000.0, 40
    sigma = sigma_from_drr(drr_db, tau, n_d)
    rng = np.random.default_rng(0)
    n = np.arange(n_d + 1, int(10 * tau))
    env = np.exp(-n / tau)
    energies = []
    for _ in range(10_000):
        b = rng.normal(0.0, sigma, size=len(n))
        energies.append(np.sum((b * env) ** 2))
    assert np.mean(energies) == pytest.approx(0.1, rel=0.03)


def test_sample_rir_head_structure():
    params = AcousticParams(rt60=0.3, drr_db=0.0, sample_rate=FS)
    rir = sample_rir(params, rng=0)
    assert rir.taps[0] == 1.0
    assert np.all(rir.taps[1:params.n_d + 1] == 0.0)
    assert np.any(rir.taps[params.n_d + 1:] != 0.0)


def test_sample_rir_tail_energy_matches_target():
    params = AcousticParams(rt60=0.5, drr_db=0.0, sample_rate=FS)
    energies = []
    for seed in range(1000):
        rir = sample_rir(params, rng=seed)
        energies.append(np.sum(rir.taps[params.n_d + 1:] ** 2))
    assert np.mean(energies) == pytest.approx(1.0, rel=0.05)


def test_sample_rir_deterministic_given_seed():
    params = AcousticParams(rt60=0.25, drr_db=3.0, sample_rate=FS)
    a = sample_rir(params, rng=42)
    b = sample_rir(params, rng=42)
    np.testing.assert_array_equal(a.taps, b.taps)


def test_sample_rir_rejects_short_length():
    params = AcousticParams(rt60=0.5, drr_db=0.0, sample_rate=FS)
    with pytest.raises(ValueError, match="truncation"):
        sample_rir(params, length=min_rir_length(params) - 1)


def test_half_normal_mode_tail_sign_and_energy():
    base = dict(rt60=0.4, drr_db=0.0, sample_rate=FS)
    half = AcousticParams(noise_mode="half-normal", **base)
    rir = sample_rir(half, rng=1)
    assert np.all(rir.taps[half.n_d + 1:] >= 0.0)
    # both noise modes share the tail second moment
    cent = AcousticParams(noise_mode="centered-gaussian", **base)
    e_half = np.mean([np.sum(sample_rir(half, rng=s).taps[41:] ** 2)
                      for s in range(300)])
    e_cent = np.mean([np.sum(sample_rir(cent, rng=s).taps[41:] ** 2)
                      for s in range(300)])
    assert e_half == pytest.approx(e_cent, rel=0.15)
    assert e_half == pytest.approx(1.0, rel=0.1)


def test_edc_basic_cases():
    np.testing.assert_array_equal(edc(np.array([1.0, 0.0, 0.0])), [1, 0, 0])
    np.testing.assert_array_equal(edc(np.array([1.0, 1.0])), [2, 1])
    rng = np.random.default_rng(3)
    h = rng.standard_normal(500)
    curve = edc(h)
    assert curve[0] == pytest.approx(np.sum(h ** 2), rel=1e-12)
    assert np.all(np.diff(curve) <= 1e-15)


def test_edc_nonincreasing_for_sampled_rirs():
    params = AcousticParams(rt60=0.3, drr_db=-3.0, sample_rate=FS)
    for seed in range(5):
        curve = edc(sample_rir(params, rng=seed))
        assert np.all(np.diff(curve) <= 1e-18)


def test_analyze_deterministic_exponential():
    # noiseless exponential tail: the decay-window regression is exact
    tau0 = 800.0
    n = np.arange(int(12 * tau0))
    h = Rir(np.exp(-n / tau0), FS)
    analysis = analyze_rir(h, n_d=0)
    expected = 3.0 * math.log(10.0) * tau0 / FS
    assert analysis.rt60_est == pytest.approx(expected, rel=1e-4)
    assert analysis.t5 < analysis.t25
    assert analysis.e_5_25 > 0


def test_analyze_rejects_insufficient_range():
    h = Rir(np.ones(100), FS)
    with pytest.raises(ValueError, match="insufficient dynamic range"):
        analyze_rir(h, n_d=0)


def test_analyze_roundtrip_rt60_and_drr():
    params = AcousticParams(rt60=0.5, drr_db=0.0, sample_rate=FS)
    rt, dr = [], []
    for seed in range(100):
        rir = sample_rir(params, rng=seed)
        a = analyze_rir(rir, n_d=params.n_d)
        rt.append(a.rt60_est)
        dr.append(a.drr_est_db)
    assert abs(np.median(rt) - 0.5) <= 0.05
    assert abs(np.median(dr) - 0.0) <= 1.5


def test_rir_file_roundtrip(tmp_path):
    params = AcousticParams(rt60=0.2, drr_db=0.0, sample_rate=FS)
    rir = sample_rir(params, rng=1)
    wav = tmp_path / "h.wav"
    write_rir(wav, rir)
    back = read_rir(wav)
    assert back.sample_rate == FS
    np.testing.assert_allclose(back.taps, rir.taps, atol=2e-7)
    txt = tmp_path / "h.txt"
    write_rir(txt, rir)
    back_txt = read_rir(txt)
    np.testing.assert_array_equal(back_txt.taps, rir.taps)


def test_params_file_roundtrip(tmp_path):
    params = AcousticParams(rt60=0.37, drr_db=-2.5, n_d=40, sample_rate=FS,
                            noise_mode="half-normal")
    path = tmp_path / "params.txt"
    path.write_text(format_records(dataclasses.asdict(params).items()))
    back = params_from_file(path)
    assert back == params


def test_params_validation():
    with pytest.raises(ValueError):
        AcousticParams(rt60=-0.1, drr_db=0.0)
    with pytest.raises(ValueError):
        AcousticParams(rt60=0.5, drr_db=0.0, noise_mode="uniform")
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="rt60 must be finite"):
            AcousticParams(rt60=bad, drr_db=0.0)
        with pytest.raises(ValueError, match="drr_db must be finite"):
            AcousticParams(rt60=0.5, drr_db=bad)
