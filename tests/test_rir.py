import math
import re
from dataclasses import fields

import numpy as np
import pytest

from revmatch.records import dump, load
from revmatch.rir import (DEFAULT_DIRECT_DELAY, MAX_RIR_SECONDS,
                          SYNTH_DRR_RANGE, SYNTH_RT60_RANGE, AcousticParams,
                          Rir, analyze_rir, edc, read_rir, reverberant_energy,
                          sample_rir, sigma_from_drr, synthetic_pair,
                          tau_from_rt60, write_rir)
from revmatch.signals import fft_convolve

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
    assert len(rir.taps) == params.rir_length
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
        curve = edc(sample_rir(params, rng=seed).taps)
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
    path.write_text(dump(params))
    back = load(AcousticParams, path)
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


@pytest.mark.parametrize("rt60, drr_db, n_d", [
    (0.3, 0.0, 1_000_000), (1e-6, 0.0, 40), (0.5, -4000.0, 40),
    (0.5, 4000.0, 40)])
def test_params_refuse_acoustics_that_overflow_the_tail_model(rt60, drr_db,
                                                              n_d):
    # sigma_from_drr's exp(2 n_d / tau) or 10 ** (drr_db / 10) leaves the
    # float range
    with pytest.raises(ValueError, match=f"rt60={rt60:g} s, n_d={n_d} and "
                       "drr_db=.* give no finite tail scale"):
        AcousticParams(rt60=rt60, drr_db=drr_db, n_d=n_d)


@pytest.mark.parametrize("rt60, n_d, sample_rate", [
    (1e6, 40, FS), (5000.0, 40, FS), (30.0, 40, FS), (29.9, 20_000, FS),
    (31.0, 40, 8000)])
def test_params_refuse_an_rir_longer_than_max_rir_seconds(rt60, n_d,
                                                          sample_rate):
    # 1e6 s would be 16e9 taps (119 GiB); only the params are built here
    message = (re.escape(f"rt60={rt60:g} s and n_d={n_d} give an RIR of ")
               + rf"\d+ taps, longer than {MAX_RIR_SECONDS} s at "
               f"{sample_rate} Hz")
    with pytest.raises(ValueError, match=message):
        AcousticParams(rt60=rt60, drr_db=0.0, n_d=n_d,
                       sample_rate=sample_rate)


def test_params_admit_every_synthetic_rt60_and_a_long_real_room():
    for rt60 in (*SYNTH_RT60_RANGE, 12.0, 29.9):
        params = AcousticParams(rt60=rt60, drr_db=0.0)
        assert params.rir_length <= MAX_RIR_SECONDS * params.sample_rate


@pytest.mark.parametrize("kwargs", [
    dict(rt60=0.3, drr_db=0.0), dict(rt60=0.9, drr_db=-6.0, n_d=7),
    dict(rt60=0.5, drr_db=3.0, sample_rate=8000, noise_mode="half-normal")])
def test_params_derive_the_tail_model_once_outside_their_fields(kwargs):
    params = AcousticParams(**kwargs)
    tau = tau_from_rt60(params.rt60, params.sample_rate)
    assert params.tau == tau
    assert params.sigma == sigma_from_drr(params.drr_db, tau, params.n_d)
    assert params.rir_length == (int(math.ceil(tau * math.log(1000.0)))
                                 + params.n_d + 1)
    assert [f.name for f in fields(params)] == [
        "rt60", "drr_db", "n_d", "sample_rate", "noise_mode"]
    assert [line.split("=")[0] for line in dump(params).splitlines()] == [
        "rt60", "drr_db", "n_d", "sample_rate", "noise_mode"]


@pytest.mark.parametrize("seed, index", [(0, 0), (0, 7), (2, 3)])
def test_synthetic_pair_is_seeded_labelled_and_convolved(seed, index):
    params, rir, dry, wet = synthetic_pair(seed, index, 0.5)
    params2, rir2, dry2, wet2 = synthetic_pair(seed, index, 0.5)
    assert params2 == params
    np.testing.assert_array_equal(rir2.taps, rir.taps)
    np.testing.assert_array_equal(dry2, dry)
    np.testing.assert_array_equal(wet2, wet)
    np.testing.assert_array_equal(wet, fft_convolve(dry, rir.taps))
    assert SYNTH_RT60_RANGE[0] <= params.rt60 < SYNTH_RT60_RANGE[1]
    assert SYNTH_DRR_RANGE[0] <= params.drr_db < SYNTH_DRR_RANGE[1]
    assert (params.n_d, params.sample_rate) == (DEFAULT_DIRECT_DELAY, FS)
    assert params.noise_mode == "centered-gaussian"
    assert len(rir.taps) == params.rir_length
    assert len(dry) == FS // 2
    # another pair index is another draw
    assert synthetic_pair(seed, index + 1, 0.5)[0] != params


def test_synthetic_pair_labels_are_its_first_draws():
    # pinned: calibrate --synthetic files depend on the draw order (both
    # labels, then the RIR, then the dry signal)
    params = synthetic_pair(0, 0, 0.5)[0]
    assert (params.rt60, params.drr_db) == (0.9064575484861834,
                                            -2.342517251286697)
