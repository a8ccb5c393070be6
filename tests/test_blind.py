import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

import revmatch.rir as rir
from revmatch.blind import (DEFAULT_DRR_GRID, MIN_RUN, BlindConfig,
                            InsufficientDecay, Rt60Calibration, _run_slopes,
                            analyze_blind, blind_drr, calibrate_rt60,
                            fit_rt60_polynomial, raw_decay_estimate,
                            speech_like_noise, speech_shaped_noise)
from revmatch.loss import LossConfig
from revmatch.rir import NOISE_MODES, AcousticParams, sample_rir, tau_from_rt60
from revmatch.seeding import STREAM_DRR_GRID, STREAM_SYNTH, derive_rng
from revmatch.signals import Spectrogram, istft, row_weights, stft
from revmatch.solver import SolverConfig, trainingless_dereverb
from revmatch.tfconv import ExactConv, Scratch

FS = 16000

# median raw statistic for pure exponential decays, pinned from the build-time
# oracle run (seeds 1000..1019, 4 s excerpts); the statistic is biased low by
# design, the calibration polynomial absorbs it
PURE_DECAY_PINNED = {0.2: 0.1308, 0.5: 0.1774, 1.0: 0.1978}


def make_reverberant(rt60, drr, noise_seed, rir_seed, duration=4.0, cfg=None):
    params = AcousticParams(rt60=rt60, drr_db=drr, sample_rate=FS)
    h = sample_rir(params, rng=rir_seed)
    s = speech_like_noise(int(duration * FS), FS, rng=noise_seed)
    return stft(fftconvolve(s, h.taps), cfg)


@pytest.mark.parametrize("rt60", [0.2, 0.5, 1.0])
def test_raw_decay_on_pure_decays_matches_pinned_oracle(cfg, rt60):
    tau0 = tau_from_rt60(rt60, FS)
    raws = []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = 4 * FS
        x = rng.standard_normal(n) * np.exp(-np.arange(n) / tau0)
        raws.append(raw_decay_estimate(stft(x, cfg), FS))
    assert np.median(raws) == pytest.approx(PURE_DECAY_PINNED[rt60], abs=0.02)


def test_raw_decay_increases_with_rt60(cfg):
    medians = []
    for rt60 in [0.2, 0.5, 1.0]:
        raws = [raw_decay_estimate(
            make_reverberant(rt60, 0.0, 6000 + t, 5000 + t, cfg=cfg), FS)
            for t in range(5)]
        medians.append(np.median(raws))
    assert medians[0] < medians[1] < medians[2]


def test_raw_decay_scale_invariant(cfg):
    spec = make_reverberant(0.4, 0.0, 1, 2, duration=2.0, cfg=cfg)
    raw = raw_decay_estimate(spec, FS)
    scaled = Spectrogram(spec.data * 37.5, cfg, spec.num_samples)
    assert raw_decay_estimate(scaled, FS) == pytest.approx(raw, rel=1e-12)


def test_raw_decay_errors(cfg):
    zero = Spectrogram(np.zeros((512, 80), dtype=complex), cfg,
                       num_samples=80 * 256)
    with pytest.raises(InsufficientDecay):
        raw_decay_estimate(zero, FS)
    spec = make_reverberant(0.4, 0.0, 3, 4, duration=2.0, cfg=cfg)
    short = Spectrogram(spec.data[:, :10], cfg, num_samples=100)
    with pytest.raises(ValueError, match="shorter than 1 s"):
        raw_decay_estimate(short, FS)
    # growing or flat energy leaves no strictly-decreasing runs
    growing = Spectrogram(
        np.exp(np.linspace(0, 8, 512 * 80)).reshape(512, 80) + 0j, cfg,
        num_samples=80 * 256)
    flat = Spectrogram(np.ones((512, 80), dtype=complex), cfg,
                       num_samples=80 * 256)
    for spec in (growing, flat):
        with pytest.raises(InsufficientDecay):
            raw_decay_estimate(spec, FS)


def _run_slopes_per_band(log_e, min_run):
    """The per-band scan the array pass replaced, kept verbatim as the
    reference: slopes of maximal strictly-decreasing runs (>= min_run points)
    in one band's log-energy sequence."""
    d = np.diff(log_e)
    dec = d < 0
    slopes = []
    t = len(log_e)
    i = 0
    while i < t - 1:
        if not dec[i]:
            i += 1
            continue
        j = i
        while j < t - 1 and dec[j]:
            j += 1
        # run covers points i..j inclusive
        npts = j - i + 1
        if npts >= min_run:
            x = np.arange(npts, dtype=np.float64)
            y = log_e[i:j + 1]
            xm = x - x.mean()
            slopes.append(float(np.dot(xm, y) / np.dot(xm, xm)))
        i = j
    return slopes


def assert_slopes_match_reference(log_e, min_run):
    log_e = np.asarray(log_e, dtype=np.float64)
    want = sorted(s for row in log_e for s in _run_slopes_per_band(row, min_run))
    got = sorted(_run_slopes(log_e, min_run).tolist())
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("min_run", [2, 3, 5])
def test_run_slopes_bit_equal_to_per_band_scan_on_random_matrices(min_run):
    rng = np.random.default_rng(60 + min_run)
    for bands, frames in [(1, 2), (3, 7), (40, 250), (257, 64)]:
        # white noise (short runs), random walks with a downward drift (long
        # runs, some reaching the last frame) and a coarse integer grid
        # (frequent plateaus, which break runs)
        assert_slopes_match_reference(
            rng.standard_normal((bands, frames)), min_run)
        assert_slopes_match_reference(np.cumsum(
            rng.standard_normal((bands, frames)) - 0.8, axis=1), min_run)
        assert_slopes_match_reference(
            rng.integers(0, 4, (bands, frames)), min_run)


def test_run_slopes_edge_cases():
    # a run ending on the last frame
    assert assert_slopes_match_reference([[0.0, 1.0, 5.0, 4.0, 3.0]], 3) == [-1.0]
    # a run of exactly min_run points counts, one point short does not
    assert assert_slopes_match_reference([[0.0, 3.0, 2.0, 1.0, 4.0]], 3) == [-1.0]
    assert assert_slopes_match_reference([[0.0, 3.0, 2.0, 1.0, 4.0]], 4) == []
    # a plateau breaks a run: (5, 4) and (4, 3, 1)
    assert assert_slopes_match_reference([[5.0, 4.0, 4.0, 3.0, 1.0]], 3) == [-1.5]
    assert assert_slopes_match_reference(
        [[5.0, 4.0, 4.0, 3.0, 1.0]], 2) == [-1.5, -1.0]
    # min_run=2 counts every single decreasing step, one row after another
    assert assert_slopes_match_reference(
        [[3.0, 1.0, 2.0], [0.0, 0.0, -0.5]], 2) == [-2.0, -0.5]
    # flat and growing rows hold no run
    assert assert_slopes_match_reference(np.ones((3, 9)), 2) == []
    assert assert_slopes_match_reference(np.arange(12.0).reshape(2, 6), 2) == []


def test_raw_decay_bit_equal_to_per_band_scan(cfg):
    for seed in range(3):
        spec = make_reverberant(0.3 + 0.3 * seed, 3.0 * seed, 40 + seed,
                                50 + seed, duration=2.0, cfg=cfg)
        f_half = cfg.num_bins // 2 + 1
        energy = np.abs(spec.data[:f_half]) ** 2
        band_mean = energy.mean(axis=1)
        keep = band_mean > band_mean.max() * 10.0 ** (-60.0 / 10.0)
        log_e = 10.0 * np.log10(energy + 1e-300)
        frame_dt = cfg.hop / float(FS)
        decay_times = [-60.0 * frame_dt / slope
                       for f in np.nonzero(keep)[0]
                       for slope in _run_slopes_per_band(log_e[f], 3)
                       if slope < 0]
        assert raw_decay_estimate(spec, FS) == float(np.median(decay_times))


def test_raw_decay_floor_cut_band_holding_the_only_runs(cfg):
    # every loud band grows; the one band that decays sits over 120 dB down
    frames = 80
    data = np.tile(np.exp(np.linspace(0.0, 4.0, frames)), (cfg.num_bins, 1))
    data[5] = 1e-6 * np.exp(-np.linspace(0.0, 4.0, frames))
    spec = Spectrogram(data + 0j, cfg, num_samples=frames * cfg.hop)
    with pytest.raises(InsufficientDecay):
        raw_decay_estimate(spec, FS)
    # the runs are there: the cut band's log-energy is one decaying run
    slopes = _run_slopes(10.0 * np.log10(np.abs(data[5:6]) ** 2), MIN_RUN)
    assert len(slopes) == 1 and slopes[0] < 0


def test_fit_polynomial_exact_quadratic_relation():
    raw = np.linspace(0.1, 1.0, 10)
    cal = fit_rt60_polynomial(raw, 2.0 * raw)
    assert cal.c0 == pytest.approx(0.0, abs=1e-8)
    assert cal.c1 == pytest.approx(2.0, abs=1e-8)
    assert cal.c2 == pytest.approx(0.0, abs=1e-8)
    assert cal.residual <= 1e-10
    assert cal.map(0.5) == pytest.approx(1.0, abs=1e-8)


def test_fit_polynomial_errors():
    with pytest.raises(ValueError, match="insufficient calibration data"):
        fit_rt60_polynomial([0.1, 0.2], [0.2, 0.4])
    with pytest.raises(ValueError, match="degenerate"):
        fit_rt60_polynomial([0.3, 0.3, 0.3, 0.3], [0.2, 0.4, 0.5, 0.6])


def test_fit_polynomial_order2_no_worse_than_order1():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 0.9, 40)
    true = 0.3 + 1.4 * raw + 0.8 * raw ** 2 + rng.normal(0, 0.02, 40)
    quad = fit_rt60_polynomial(raw, true)
    design = np.vstack([np.ones_like(raw), raw]).T
    coeffs, _, _, _ = np.linalg.lstsq(design, true, rcond=None)
    lin_resid = math.sqrt(np.mean((design @ coeffs - true) ** 2))
    assert quad.residual <= lin_resid + 1e-12


def test_calibration_file_roundtrip(tmp_path):
    cal = Rt60Calibration(c0=0.1, c1=-2.5, c2=14.0, n_pairs=100,
                          residual=0.12)
    path = tmp_path / "cal.txt"
    cal.to_file(path)
    assert Rt60Calibration.from_file(path) == cal


def test_calibrate_rt60_reads_a_generator_in_one_pass(cfg):
    cases = [(0.3, 0.0), (0.6, 3.0), (0.9, -3.0), (0.45, 6.0)]

    def pairs():
        for i, (rt60, drr) in enumerate(cases):
            yield make_reverberant(rt60, drr, 50 + i, 60 + i, duration=1.5,
                                   cfg=cfg), rt60

    from_list = calibrate_rt60(list(pairs()), FS)
    assert calibrate_rt60(pairs(), FS) == from_list
    assert from_list.n_pairs == len(cases)


def test_calibration_experiment_accuracy(cfg):
    # build-time pinned protocol: 100 train / 50 held-out pairs, uniform
    # rt60 in [0.2, 1.0] s and drr in [-6, 10] dB; measured median abs err
    # 0.062 s on this seeding
    def make_pair(idx, seed):
        rng = derive_rng(seed, STREAM_SYNTH, idx)
        rt60 = rng.uniform(0.2, 1.0)
        drr = rng.uniform(-6.0, 10.0)
        params = AcousticParams(rt60=rt60, drr_db=drr, sample_rate=FS)
        h = sample_rir(params, rng=rng)
        s = speech_like_noise(4 * FS, FS, rng=rng)
        return stft(fftconvolve(s, h.taps), cfg), rt60

    train = [make_pair(i, 1) for i in range(100)]
    test = [make_pair(i, 2) for i in range(50)]
    cal = calibrate_rt60(train, FS)
    errs = [abs(cal.map(raw_decay_estimate(spec, FS)) - rt60)
            for spec, rt60 in test]
    median = float(np.median(errs))
    assert median <= 0.15   # contract bound
    assert median <= 0.10   # re-pinned from the build-time run (0.062)


def test_blind_drr_single_point_grid(cfg):
    spec = make_reverberant(0.3, 0.0, 7, 8, duration=1.0, cfg=cfg)
    db, _ = blind_drr(spec, 0.3, grid=[2.5], sample_rate=FS)
    assert db == 2.5


def test_blind_drr_duplicate_points_tie_to_first(cfg):
    spec = make_reverberant(0.3, 0.0, 9, 10, duration=0.75, cfg=cfg)
    db, _ = blind_drr(spec, 0.3, grid=[0.0, 0.0, 6.0], draws_per_point=2,
                      k_inner=6, seed=3, sample_rate=FS)
    assert db in (0.0, 6.0)
    # identical dB points share their derived seeds, so they tie exactly and
    # the lowest-index (lowest dB) entry wins over its duplicate
    db2, _ = blind_drr(spec, 0.3, grid=[0.0, 0.0], draws_per_point=2,
                       k_inner=6, seed=3, sample_rate=FS)
    assert db2 == 0.0


def test_blind_drr_deterministic(cfg):
    spec = make_reverberant(0.3, 0.0, 11, 12, duration=0.75, cfg=cfg)
    a = blind_drr(spec, 0.3, draws_per_point=2, k_inner=6, seed=4,
                  sample_rate=FS)
    b = blind_drr(spec, 0.3, draws_per_point=2, k_inner=6, seed=4,
                  sample_rate=FS)
    assert a == b


def test_blind_drr_selection_invariant_to_input_scaling(cfg):
    # rescaling the observation rescales every loss by the same positive
    # factor, which must not move the selected grid point
    spec = make_reverberant(0.3, 0.0, 15, 16, duration=0.75, cfg=cfg)
    db, _ = blind_drr(spec, 0.3, draws_per_point=2, k_inner=6, seed=8,
                      sample_rate=FS)
    scaled = Spectrogram(4.2 * spec.data, cfg, spec.num_samples)
    db_scaled, _ = blind_drr(scaled, 0.3, draws_per_point=2, k_inner=6,
                             seed=8, sample_rate=FS)
    assert db_scaled == db


def test_blind_drr_selection_experiment(cfg):
    # true DRR 0 dB: the median selected point stays within one 3 dB grid
    # step (per-sample DRR evidence is weak; see module docstring)
    grid = [-6.0, -3.0, 0.0, 3.0, 6.0]
    selected = []
    for trial in range(12):
        spec = make_reverberant(0.3, 0.0, 8000 + trial, 7000 + trial,
                                duration=0.75, cfg=cfg)
        db, _ = blind_drr(spec, 0.3, grid=grid, draws_per_point=3,
                          k_inner=18, seed=trial, sample_rate=FS)
        selected.append(db)
    assert abs(np.median(selected)) <= 3.0


def test_analyze_blind_composition(cfg):
    spec = make_reverberant(0.35, 0.0, 21, 22, duration=2.0, cfg=cfg)
    cal = Rt60Calibration(c0=0.05, c1=1.5, c2=0.0)
    bcfg = BlindConfig(draws_per_point=2, k_inner=6, seed=5)
    est = analyze_blind(spec, cal, bcfg, sample_rate=FS)
    raw = raw_decay_estimate(spec, FS)
    assert est.raw_median_decay == pytest.approx(raw, rel=1e-12)
    assert est.rt60 == pytest.approx(cal.map(raw), rel=1e-12)
    db, loss_val = blind_drr(spec, est.rt60, grid=bcfg.drr_grid,
                             draws_per_point=2, k_inner=6, seed=5,
                             sample_rate=FS)
    assert est.drr_db == db
    assert est.rm_loss_at_estimate == pytest.approx(loss_val, rel=1e-12)
    assert not est.anechoic


def test_analyze_blind_anechoic_flag(cfg):
    # stationary dry noise maps to a near-zero RT60 under a zero calibration
    rng = np.random.default_rng(23)
    spec = stft(speech_shaped_noise(2 * FS, FS, rng=rng), cfg)
    cal = Rt60Calibration(c0=0.0, c1=0.0, c2=0.0)
    est = analyze_blind(spec, cal, BlindConfig(), sample_rate=FS)
    assert est.anechoic
    assert est.rt60 < 0.05
    assert math.isnan(est.rm_loss_at_estimate)


def test_speech_like_noise_properties():
    x = speech_like_noise(32000, FS, rng=3)
    assert len(x) == 32000
    assert np.sqrt(np.mean(x ** 2)) == pytest.approx(1.0, rel=1e-9)
    # bursts and pauses: a noticeable fraction of near-silent samples
    frac_quiet = np.mean(np.abs(x) < 0.05)
    assert 0.1 < frac_quiet < 0.9


def test_blind_config_rejects_an_inner_budget_below_one():
    with pytest.raises(ValueError, match="k_inner must be >= 1"):
        BlindConfig(k_inner=0)


def _per_draw_blind_drr(spec, rt60, grid, draws_per_point, k_inner, seed,
                        noise_mode):
    """The grid search with one forward per (grid point, draw): every draw
    of every point convolves the reference signal directly."""
    grid = sorted(float(g) for g in grid)
    ref_params = AcousticParams(rt60=rt60, drr_db=grid[0], sample_rate=FS,
                                noise_mode=noise_mode)
    ref_seed = int(derive_rng(seed, STREAM_DRR_GRID).integers(0, 2 ** 62))
    solver_cfg = SolverConfig(max_iters=k_inner, seed=ref_seed,
                              loss_cfg=LossConfig())
    shat, _ = trainingless_dereverb(spec, ref_params, solver_cfg)
    x = istft(shat)

    y_half = spec.half().data
    weights = row_weights(spec.config)
    y_energy = float(np.sum(weights * np.abs(y_half) ** 2))
    scratch = Scratch(len(x), spec.config)
    scores = []
    rm_values = []
    for db in grid:
        params = AcousticParams(rt60=rt60, drr_db=db, sample_rate=FS,
                                noise_mode=noise_mode)
        energies = []
        l_c = []
        for i in range(draws_per_point):
            h = sample_rir(params, rng=derive_rng(seed, STREAM_DRR_GRID, 1, i))
            yhat = ExactConv(h, spec.config).forward(x, scratch).data
            energies.append(float(np.sum(weights * np.abs(yhat) ** 2)))
            l_c.append(float(np.sum(weights * np.abs(yhat - y_half) ** 2)))
        scores.append(abs(math.log(np.mean(energies)) - math.log(y_energy)))
        rm_values.append(float(np.mean(l_c)))
    best = int(np.argmin(scores))
    return grid[best], rm_values[best]


@pytest.mark.parametrize("grid", [BlindConfig.drr_grid, (0.0, 6.0),
                                  (0.0, 0.0, 6.0)])
@pytest.mark.parametrize("draws", [1, 3])
@pytest.mark.parametrize("noise_mode", NOISE_MODES)
def test_blind_drr_closed_form_matches_per_draw_forwards(cfg, noise_mode,
                                                         draws, grid):
    # an input whose centered-gaussian pick lies inside the default grid
    spec = make_reverberant(0.6, -3.0, 35, 36, duration=0.75, cfg=cfg)
    args = dict(grid=grid, draws_per_point=draws, k_inner=6, seed=9,
                noise_mode=noise_mode)
    db, loss_val = blind_drr(spec, 0.6, sample_rate=FS, **args)
    want_db, want_loss = _per_draw_blind_drr(spec, 0.6, **args)
    assert db == want_db
    assert loss_val == pytest.approx(want_loss, rel=1e-12)


def test_blind_drr_draws_one_tail_per_draw(cfg, monkeypatch):
    # the inner solve draws one RIR per iteration; the grid draws each tail
    # once, not once per grid point
    spec = make_reverberant(0.3, 0.0, 33, 34, duration=0.75, cfg=cfg)
    calls = []

    def counting(*args, _real=rir.sample_rir, **kwargs):
        calls.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(rir, "sample_rir", counting)
    blind_drr(spec, 0.3, draws_per_point=3, k_inner=4, seed=2,
              sample_rate=FS)
    assert len(DEFAULT_DRR_GRID) > 1
    assert len(calls) == 4 + 3
