import numpy as np
import pytest

import revmatch.rir as rir
from revmatch.loss import (DegenerateGradNorm, LossConfig, grad_complex,
                           grad_mag, gradnorm_alpha, loss_complex, loss_mag,
                           rm_loss)
from revmatch.rir import AcousticParams, sample_rir
from revmatch.seeding import STREAM_LOSS_DRAWS, derive_rng
from revmatch.signals import (StftConfig, canonical_dual_window, hann_window,
                              stft)
from revmatch.tfconv import Scratch, adjoint, forward
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


def padded(s, y):
    """The dry signal zero-padded to the observation's length."""
    return np.concatenate([s, np.zeros(y.num_samples - len(s))])


def make_problem(seed=7, n_h=400, n_s=4000, cfg=None):
    cfg = cfg or small_cfg()
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    rng = np.random.default_rng(seed)
    h = sample_rir(params, rng=rng)
    s = rng.standard_normal(n_s)
    wet = fftconvolve(s, h.taps)
    return h, s, wet


def test_rm_loss_dirac_exact_match(cfg):
    # re-reverberating the true dry signal with the true RIR matches Y
    h, s, wet = make_problem(seed=8)
    y = stft(wet, cfg)
    report, _ = rm_loss(y, padded(s, y), h, LossConfig())
    assert report.l_complex <= 1e-12 * np.sum(np.abs(y.data) ** 2)


def test_rm_loss_dirac_collapse_across_variants(cfg):
    h, s, wet = make_problem(seed=9)
    y = stft(wet, cfg)
    shat = 0.9 * padded(s, y)
    reports = {}
    for variant, draws in [("single", 1), ("average", 10), ("best", 10)]:
        rep, _ = rm_loss(y, shat, h,
                         LossConfig(variant=variant, num_draws=draws),
                         seed=3)
        reports[variant] = rep
    assert reports["single"].total == reports["average"].total
    assert reports["single"].total == reports["best"].total
    assert reports["single"].l_complex == reports["best"].l_complex


def test_rm_loss_best_not_worse_than_average(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rng = np.random.default_rng(10)
    s = rng.standard_normal(5000)
    h = sample_rir(params, rng=0)
    y = stft(fftconvolve(s, h.taps), cfg)
    shat = padded(s, y)
    for seed in range(5):
        avg, _ = rm_loss(y, shat, params,
                         LossConfig(variant="average", num_draws=4),
                         seed=seed)
        best, _ = rm_loss(y, shat, params,
                          LossConfig(variant="best", num_draws=4),
                          seed=seed)
        assert best.total <= avg.total
        # the same draw set underlies both reports
        assert [d[3] for d in best.per_draw] == [d[3] for d in avg.per_draw]


def test_rm_loss_selected_draw_is_argmin_and_scale_invariant(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rng = np.random.default_rng(11)
    s = rng.standard_normal(4000)
    h = sample_rir(params, rng=1)
    y = stft(fftconvolve(s, h.taps), cfg)
    shat = padded(s, y)
    report, grad = rm_loss(y, shat, params,
                           LossConfig(variant="best", num_draws=5),
                           seed=4, want_grad=True)
    totals = np.array([d[3] for d in report.per_draw])
    assert report.selected_draw == int(np.argmin(totals))
    # a positive rescale of all totals keeps the argmin and the direction
    assert int(np.argmin(13.7 * totals)) == report.selected_draw
    g2 = 13.7 * grad
    cos = np.abs(np.vdot(grad, g2)) / (np.linalg.norm(grad) * np.linalg.norm(g2))
    assert cos == pytest.approx(1.0, rel=1e-12)


def reference_loss(y, x, taps, alpha):
    """l_complex + alpha * l_mag of one draw on the full grids: the STFT of
    (h * x) cut to len(x), against y's full grid."""
    yhat = stft(fftconvolve(x, taps)[:len(x)], y.config).data
    return loss_complex(y.data, yhat) + alpha * loss_mag(y.data, yhat)


def test_rm_loss_gradient_matches_finite_differences():
    # central differences in every sample of x, with the weight held at the
    # value the analytic gradient treats as constant
    cfg = small_cfg()
    rng = np.random.default_rng(12)
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    h = sample_rir(params, rng=rng)
    x0 = rng.standard_normal(20)
    y = stft(rng.standard_normal(20), cfg)
    report, grad = rm_loss(y, x0, h, LossConfig(),
                           want_grad=True)
    assert grad.shape == x0.shape
    eps = 1e-4
    fd = np.zeros_like(x0)
    for k in range(len(x0)):
        step = np.zeros_like(x0)
        step[k] = eps
        plus = reference_loss(y, x0 + step, h.taps, report.alpha)
        minus = reference_loss(y, x0 - step, h.taps, report.alpha)
        fd[k] = (plus - minus) / (2 * eps)
    assert np.linalg.norm(fd - grad) / np.linalg.norm(fd) <= 1e-5


def test_rm_loss_gradient_is_the_adjoint_of_the_reference_grid_gradient(cfg):
    # bit for bit: the gradient grid is assembled in place from the same
    # operations as 2 (yhat - y) + alpha grad_mag(y, yhat)
    h, s, wet = make_problem(seed=19)
    y = stft(wet, cfg, one_sided=True)
    x = padded(s, y) + 0.1 * np.random.default_rng(19).standard_normal(
        y.num_samples)
    report, grad = rm_loss(y, x, h, LossConfig(), want_grad=True)
    scratch = Scratch(len(x), cfg)
    yhat = forward(h.taps, x, scratch).copy()
    g_y = 2.0 * (yhat - y.data) + report.alpha * grad_mag(y.data, yhat)
    assert np.array_equal(grad, adjoint(h.taps, g_y, scratch))


@pytest.mark.parametrize("variant, draws", [
    ("single", 1), ("average", 3), ("best", 3)])
def test_rm_loss_leaves_its_inputs_unchanged(cfg, variant, draws):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rng = np.random.default_rng(20)
    y = stft(fftconvolve(rng.standard_normal(4000),
                         sample_rir(params, rng=3).taps), cfg)
    x = rng.standard_normal(y.num_samples)
    log_mag_y = np.log1p(np.abs(y.half().data))
    before = [y.data.copy(), x.copy(), log_mag_y.copy()]
    loss_cfg = LossConfig(variant=variant, num_draws=draws)
    first = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True)
    second = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True)
    given = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True,
                    log_mag_y=log_mag_y)
    for arr, copy in zip([y.data, x, log_mag_y], before):
        assert np.array_equal(arr, copy)
    for report, grad in (second, given):
        assert report == first[0]
        assert np.array_equal(grad, first[1])


SCRATCH_CASES = [("single", 1), ("average", 1), ("average", 3), ("best", 1),
                 ("best", 3)]


def scratch_problem(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rng = np.random.default_rng(21)
    y = stft(fftconvolve(rng.standard_normal(4000),
                         sample_rir(params, rng=3).taps), cfg)
    return y, rng.standard_normal(y.num_samples), params


@pytest.mark.parametrize("variant, draws", SCRATCH_CASES)
def test_rm_loss_in_a_shared_scratch_equals_a_fresh_one(cfg, variant, draws):
    # a scratch that earlier calls used, under a longer known RIR and at
    # another estimate, gives the bits of a call that makes its own; both
    # give the bits of the per-draw gradients, summed in draw order by the
    # average, and of the selected draw's (draw 1 of 3) by the best
    y, x, params = scratch_problem(cfg)
    loss_cfg = LossConfig(variant=variant, num_draws=draws)
    fresh = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True)
    singles = [rm_loss(y, x, sample_rir(
        params, rng=derive_rng(6, STREAM_LOSS_DRAWS, i)), LossConfig(),
        want_grad=True)[1] for i in range(draws)]
    if variant == "average":
        expected = np.mean(singles, axis=0)
    else:
        expected = singles[fresh[0].selected_draw or 0]
    assert fresh[0].selected_draw == (1 if (variant, draws) == ("best", 3)
                                      else None)
    assert np.array_equal(fresh[1], expected)
    scratch = Scratch(len(x), cfg)
    longer = sample_rir(AcousticParams(rt60=0.4, drr_db=0.0, sample_rate=FS),
                        rng=4)
    rm_loss(y, 2.0 * x, longer, LossConfig(), want_grad=True,
            scratch=scratch)
    rm_loss(y, x[::-1].copy(), params, loss_cfg, seed=7, want_grad=True,
            scratch=scratch)
    shared = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True,
                     scratch=scratch)
    assert shared[0] == fresh[0]
    assert np.array_equal(shared[1], fresh[1])


@pytest.mark.parametrize("variant, draws", SCRATCH_CASES)
def test_rm_loss_gradient_without_a_scratch_is_the_callers(cfg, variant,
                                                          draws):
    y, x, params = scratch_problem(cfg)
    loss_cfg = LossConfig(variant=variant, num_draws=draws)
    _, grad = rm_loss(y, x, params, loss_cfg, seed=6, want_grad=True)
    kept = grad.copy()
    rm_loss(y, 2.0 * x, params, loss_cfg, seed=7, want_grad=True)
    assert np.array_equal(grad, kept)


def test_rm_loss_refuses_a_scratch_of_another_length(cfg):
    y, x, params = scratch_problem(cfg)
    with pytest.raises(ValueError, match="samples, not"):
        rm_loss(y, x, params, LossConfig(), want_grad=True,
                scratch=Scratch(len(x) + 1, cfg))


def test_rm_loss_refuses_a_scratch_of_another_config(cfg):
    # the operator holds no config: rm_loss checks the scratch's against
    # the observation's once per call; this one has the same grid shape and
    # another window, so nothing else would notice
    y, x, params = scratch_problem(cfg)
    g_a = np.sqrt(hann_window(cfg.win_len))
    other = StftConfig(cfg.win_len, cfg.hop, g_a,
                       canonical_dual_window(g_a, cfg.hop))
    with pytest.raises(ValueError, match="another STFT config"):
        rm_loss(y, x, params, LossConfig(), want_grad=True,
                scratch=Scratch(len(x), other))


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
    zero = np.zeros(y.num_samples)
    rep, grad = rm_loss(y, zero, h, LossConfig(),
                        want_grad=True, alpha_fallback=2.5)
    assert rep.alpha == 2.5
    assert rep.l_mag > 0
    assert rep.total == pytest.approx(rep.l_complex + 2.5 * rep.l_mag)
    assert np.all(np.isfinite(grad))


def test_loss_report_invariant_average(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rng = np.random.default_rng(13)
    s = rng.standard_normal(4000)
    y = stft(fftconvolve(s, sample_rir(params, rng=2).taps), cfg)
    shat = padded(s, y)
    rep, _ = rm_loss(y, shat, params, LossConfig(variant="average", num_draws=3),
                     seed=5)
    assert rep.total == pytest.approx(rep.l_complex + rep.alpha * rep.l_mag,
                                      rel=1e-12)


@pytest.mark.parametrize("variant, draws", [
    ("single", 1), ("average", 3), ("best", 3)])
@pytest.mark.parametrize("n, hop", [(6, 3), (8, 4), (512, 256)])
def test_rm_loss_one_sided_equals_full_hermitian(n, hop, variant, draws):
    # the row-weighted loss on the one-sided grids is the full-band loss of
    # the full grids, draw by draw, with the full-band gradient-norm weight;
    # the gradient is the derivative of the full-band loss along any
    # direction
    g_a = hann_window(n)
    op_cfg = StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    rng = np.random.default_rng(15)
    y = stft(fftconvolve(rng.standard_normal(2000),
                         sample_rir(params, rng=rng).taps), op_cfg)
    x = rng.standard_normal(y.num_samples)
    cfg = LossConfig(variant=variant, num_draws=draws)
    rep, grad = rm_loss(y, x, params, cfg, seed=4, want_grad=True)
    taps = [sample_rir(params, rng=derive_rng(4, STREAM_LOSS_DRAWS, i)).taps
            for i in range(draws)]
    for (l_c, l_m, alpha, total), h in zip(rep.per_draw, taps):
        yhat = stft(fftconvolve(x, h)[:len(x)], op_cfg).data
        assert l_c == pytest.approx(loss_complex(y, yhat), rel=1e-12)
        assert l_m == pytest.approx(loss_mag(y, yhat), rel=1e-12)
        assert alpha == pytest.approx(gradnorm_alpha(y, yhat), rel=1e-12)
        assert total == pytest.approx(l_c + alpha * l_m, rel=1e-12)
    totals = [d[3] for d in rep.per_draw]
    used = range(draws) if variant == "average" else [int(np.argmin(totals))]
    if variant == "best":
        assert rep.selected_draw == used[0]

    def loss_along(t, v):
        return np.mean([reference_loss(y, x + t * v, taps[i],
                                       rep.per_draw[i][2]) for i in used])

    eps = 1e-4
    for _ in range(3):
        v = rng.standard_normal(len(x))
        v /= np.linalg.norm(v)
        fd = (loss_along(eps, v) - loss_along(-eps, v)) / (2 * eps)
        assert np.dot(grad, v) == pytest.approx(fd, rel=1e-5)


def test_rm_loss_rejects_an_estimate_off_the_observation_frames(cfg):
    h, s, wet = make_problem(seed=16)
    y = stft(wet, cfg)
    with pytest.raises(ValueError, match="shape"):
        rm_loss(y, s, h, LossConfig())


def test_rm_loss_rejects_acoustics_of_another_type(cfg):
    h, s, wet = make_problem(seed=17)
    y = stft(wet, cfg)
    with pytest.raises(TypeError, match="AcousticParams or a Rir"):
        rm_loss(y, padded(s, y), h.taps, LossConfig())


@pytest.mark.parametrize("variant", ["single", "average"])
def test_rm_loss_draws_through_the_rir_module(cfg, monkeypatch, variant):
    # every draw calls revmatch.rir.sample_rir as looked up at call time
    # (the traced benchmark run wraps that attribute); a known RIR draws none
    h, s, wet = make_problem(seed=18)
    y = stft(wet, cfg)
    x = padded(s, y)
    calls = []

    def counting(*args, _real=rir.sample_rir, **kwargs):
        calls.append(1)
        return _real(*args, **kwargs)

    monkeypatch.setattr(rir, "sample_rir", counting)
    loss_cfg = LossConfig(variant=variant)
    rm_loss(y, x, h, loss_cfg)
    assert calls == []
    params = AcousticParams(rt60=0.05, drr_db=0.0, sample_rate=FS, n_d=5)
    rm_loss(y, x, params, loss_cfg)
    assert len(calls) == loss_cfg.resolved_draws
