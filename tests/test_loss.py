import numpy as np
import pytest

import revmatch.tfconv as tfconv
from revmatch.loss import (DegenerateGradNorm, LossConfig, _align_frames,
                           grad_complex, grad_mag, gradnorm_alpha,
                           loss_complex, loss_mag, rm_loss)
from revmatch.rir import AcousticParams, DiracSampler, PolackSampler, sample_rir
from revmatch.signals import (Spectrogram, StftConfig, canonical_dual_window,
                              hann_window, stft)
from scipy.signal import fftconvolve

FS = 16000


def small_cfg(n=6, hop=3):
    g_a = hann_window(n)
    return StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))


def random_grid(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_loss_complex_cases():
    rng = np.random.default_rng(0)
    y = random_grid(rng, (8, 5))
    assert loss_complex(y, y) == 0.0
    yhat = y.copy()
    yhat[3, 2] += 0.75j
    assert loss_complex(y, yhat) == pytest.approx(0.75 ** 2, rel=1e-12)
    yhat = random_grid(rng, (8, 5))
    brute = sum(abs(y[f, t] - yhat[f, t]) ** 2
                for f in range(8) for t in range(5))
    assert loss_complex(y, yhat) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError, match="shape"):
        loss_complex(y, yhat[:, :3])


def test_loss_mag_cases():
    rng = np.random.default_rng(1)
    y = random_grid(rng, (8, 5))
    assert loss_mag(y, y) == 0.0
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (8, 5)))
    assert loss_mag(y, y * phases) <= 1e-25
    yhat = random_grid(rng, (8, 5))
    brute = sum((np.log1p(abs(y[f, t])) - np.log1p(abs(yhat[f, t]))) ** 2
                for f in range(8) for t in range(5))
    assert loss_mag(y, yhat) == pytest.approx(brute, rel=1e-12)


def test_gradnorm_alpha_properties():
    rng = np.random.default_rng(2)
    y = random_grid(rng, (6, 4))
    yhat = random_grid(rng, (6, 4))
    alpha = gradnorm_alpha(y, yhat)
    g_c = grad_complex(y, yhat)
    g_m = grad_mag(y, yhat)
    assert np.linalg.norm(g_c) == pytest.approx(
        alpha * np.linalg.norm(g_m), rel=1e-6)
    # scaling the complex-loss gradient scales alpha by the same factor
    yhat3 = y + 3.0 * (yhat - y)
    alpha3 = gradnorm_alpha(y, yhat3)
    g_m3 = grad_mag(y, yhat3)
    expected = 3.0 * np.linalg.norm(g_c) / np.linalg.norm(g_m3)
    assert alpha3 == pytest.approx(expected, rel=1e-12)


def test_gradnorm_alpha_unit_when_norms_equal():
    rng = np.random.default_rng(3)
    y = random_grid(rng, (6, 4))
    yhat = random_grid(rng, (6, 4))
    g_c = grad_complex(y, yhat)
    g_m = grad_mag(y, yhat)
    scale = np.linalg.norm(g_c) / np.linalg.norm(g_m)
    # evaluate alpha where both gradients have been equalized numerically
    assert gradnorm_alpha(y, yhat) == pytest.approx(scale, rel=1e-12)


def test_gradnorm_degenerate_raises():
    y = np.zeros((4, 3), dtype=complex)
    with pytest.raises(DegenerateGradNorm):
        gradnorm_alpha(y, np.zeros((4, 3), dtype=complex))


def make_problem(seed=7, n_h=400, n_s=4000, cfg=None):
    cfg = cfg or small_cfg()
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    rng = np.random.default_rng(seed)
    h = sample_rir(params, rng=rng)
    s = rng.standard_normal(n_s)
    wet = fftconvolve(s, h.taps)
    return h, s, wet


def test_rm_loss_dirac_exact_match(cfg):
    # re-reverberating the true dry grid with the true kernel matches Y
    h, s, wet = make_problem(seed=8)
    y = stft(wet, cfg)
    s_spec = stft(s, cfg)
    report, _ = rm_loss(y, s_spec, DiracSampler(h), LossConfig(),
                        band_radius="full")
    assert report.l_complex <= 1e-12 * np.sum(np.abs(y.data) ** 2)


def test_rm_loss_dirac_collapse_across_variants(cfg):
    h, s, wet = make_problem(seed=9)
    y = stft(wet, cfg)
    shat = Spectrogram(stft(s, cfg).data * 0.9, cfg)
    sampler = DiracSampler(h)
    reports = {}
    for variant, draws in [("single", 1), ("average", 10), ("best", 10)]:
        rep, _ = rm_loss(y, shat, sampler,
                         LossConfig(variant=variant, num_draws=draws),
                         seed=3, band_radius=8)
        reports[variant] = rep
    assert reports["single"].total == reports["average"].total
    assert reports["single"].total == reports["best"].total
    assert reports["single"].l_complex == reports["best"].l_complex


def test_rm_loss_best_not_worse_than_average(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    sampler = PolackSampler(params)
    rng = np.random.default_rng(10)
    s = rng.standard_normal(5000)
    h = sample_rir(params, rng=0)
    y = stft(fftconvolve(s, h.taps), cfg)
    shat = stft(s, cfg)
    for seed in range(5):
        avg, _ = rm_loss(y, shat, sampler,
                         LossConfig(variant="average", num_draws=4),
                         seed=seed, band_radius=8)
        best, _ = rm_loss(y, shat, sampler,
                          LossConfig(variant="best", num_draws=4),
                          seed=seed, band_radius=8)
        assert best.total <= avg.total
        # the same draw set underlies both reports
        assert [d[3] for d in best.per_draw] == [d[3] for d in avg.per_draw]


def test_rm_loss_selected_draw_is_argmin_and_scale_invariant(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    sampler = PolackSampler(params)
    rng = np.random.default_rng(11)
    s = rng.standard_normal(4000)
    h = sample_rir(params, rng=1)
    y = stft(fftconvolve(s, h.taps), cfg)
    shat = stft(s, cfg)
    report, grad = rm_loss(y, shat, sampler,
                           LossConfig(variant="best", num_draws=5),
                           seed=4, band_radius=8, want_grad=True)
    totals = np.array([d[3] for d in report.per_draw])
    assert report.selected_draw == int(np.argmin(totals))
    # a positive rescale of all totals keeps the argmin and the direction
    assert int(np.argmin(13.7 * totals)) == report.selected_draw
    g2 = 13.7 * grad
    cos = np.abs(np.vdot(grad, g2)) / (np.linalg.norm(grad) * np.linalg.norm(g2))
    assert cos == pytest.approx(1.0, rel=1e-12)


def test_rm_loss_gradient_matches_finite_differences():
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    h = sample_rir(params, rng=rng)
    sampler = DiracSampler(h)
    t_s, t_y = 4, 6
    y = Spectrogram(random_grid(rng, (6, t_y)), cfg)
    s0 = random_grid(rng, (6, t_s))
    report, grad = rm_loss(y, Spectrogram(s0, cfg), sampler, LossConfig(),
                           want_grad=True, band_radius="full")
    alpha = report.alpha
    kernel = tfconv.build_kernel(h, cfg, "full")

    def loss_at(grid):
        yhat = _align_frames(
            tfconv.apply(kernel, Spectrogram(grid, cfg)).data, t_y)
        return loss_complex(y.data, yhat) + alpha * loss_mag(y.data, yhat)

    eps = 1e-4
    fd = np.zeros_like(s0)
    for f in range(6):
        for t in range(t_s):
            for comp in (1.0, 1j):
                plus = s0.copy()
                plus[f, t] += eps * comp
                minus = s0.copy()
                minus[f, t] -= eps * comp
                d = (loss_at(plus) - loss_at(minus)) / (2 * eps)
                fd[f, t] += d if comp == 1.0 else 1j * d
    assert np.linalg.norm(fd - grad) / np.linalg.norm(fd) <= 1e-5


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(variant="median")
    with pytest.raises(ValueError):
        LossConfig(variant="single", num_draws=3)
    assert LossConfig(variant="average").resolved_draws == 10
    assert LossConfig(variant="single").resolved_draws == 1


def test_rm_loss_gradnorm_fallback_on_zero_estimate(cfg):
    # a zero dry estimate re-reverberates to zero, the magnitude gradient
    # vanishes, and the weight falls back to the supplied value
    h, s, wet = make_problem(seed=14)
    y = stft(wet, cfg)
    t_s = stft(s, cfg).num_frames
    zero = Spectrogram(np.zeros((cfg.num_bins, t_s), dtype=complex), cfg)
    rep, grad = rm_loss(y, zero, DiracSampler(h), LossConfig(),
                        band_radius=8, want_grad=True, alpha_fallback=2.5)
    assert rep.alpha == 2.5
    assert rep.l_mag > 0
    assert rep.total == pytest.approx(rep.l_complex + 2.5 * rep.l_mag)
    assert np.all(np.isfinite(grad.real)) and np.all(np.isfinite(grad.imag))


def test_loss_report_invariant_average(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    sampler = PolackSampler(params)
    rng = np.random.default_rng(13)
    s = rng.standard_normal(4000)
    y = stft(fftconvolve(s, sample_rir(params, rng=2).taps), cfg)
    shat = stft(s, cfg)
    rep, _ = rm_loss(y, shat, sampler, LossConfig(variant="average", num_draws=3),
                     seed=5, band_radius=8)
    assert rep.total == pytest.approx(rep.l_complex + rep.alpha * rep.l_mag,
                                      rel=1e-12)
