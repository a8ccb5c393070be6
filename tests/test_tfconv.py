import numpy as np
import pytest
from scipy.signal import fftconvolve

from conftest import rel_frame_error
from revmatch.rir import AcousticParams, sample_rir
from revmatch.signals import (StftConfig, canonical_dual_window,
                              default_stft_config, fft_convolve, hann_window,
                              num_frames_for, row_weights, speech_like_noise,
                              stft)
from revmatch.tfconv import (Scratch, adjoint, apply, apply_adjoint,
                             build_kernel, forward, forward_full, istft_full,
                             kernel_frames, stft_full)

FS = 16000


def small_cfg(n=8, hop=4):
    g_a = hann_window(n)
    return StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))


def oracle_error(s, h, cfg, band_radius):
    """Relative error of the kernel path against time-domain convolution."""
    wet = fftconvolve(s, h)
    y_ref = stft_full(wet, cfg)
    kernel = build_kernel(h, cfg, band_radius)
    yhat = apply(kernel, stft_full(s, cfg))
    return rel_frame_error(yhat, y_ref)


def test_full_band_matches_time_domain_oracle(cfg):
    rng = np.random.default_rng(10)
    h = rng.standard_normal(2000) * np.exp(-np.arange(2000) / 400.0)
    s = rng.standard_normal(16000)
    assert oracle_error(s, h, cfg, "full") <= 1e-8


def test_full_band_oracle_small_sizes():
    cfg = small_cfg()
    rng = np.random.default_rng(11)
    for trial in range(5):
        h = rng.standard_normal(rng.integers(1, 30))
        s = rng.standard_normal(rng.integers(20, 200))
        assert oracle_error(s, h, cfg, "full") <= 1e-10


def test_delta_kernel_is_identity(cfg):
    rng = np.random.default_rng(12)
    s = rng.standard_normal(6000)
    spec = stft_full(s, cfg)
    kernel = build_kernel(np.array([1.0]), cfg, "full")
    out = apply(kernel, spec)
    assert out.shape[1] == spec.shape[1] + kernel.t_h - 1
    assert rel_frame_error(out, spec) <= 1e-10


@pytest.mark.parametrize("length", [16000, 700, 40])
def test_full_grid_roundtrip_perfect_reconstruction(cfg, length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    grid = stft_full(x, cfg)
    assert grid.shape == (cfg.num_bins, num_frames_for(length, cfg))
    back = istft_full(grid, cfg, length)
    assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-10


def test_kernel_linear_in_rir(cfg):
    rng = np.random.default_rng(13)
    h = rng.standard_normal(700)
    k1 = build_kernel(h, cfg, 4)
    k2 = build_kernel(3.5 * h, cfg, 4)
    np.testing.assert_allclose(k2.data, 3.5 * k1.data, atol=1e-12)


def test_apply_zero_and_linearity():
    cfg = small_cfg()
    rng = np.random.default_rng(14)
    kernel = build_kernel(rng.standard_normal(10), cfg, "full")
    zero = np.zeros((8, 5), dtype=complex)
    assert np.all(apply(kernel, zero) == 0)
    s1 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    s2 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = apply(kernel, a * s1 + b * s2)
    rhs = a * apply(kernel, s1) + b * apply(kernel, s2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_rejects_config_mismatch(cfg):
    # the full grid of another window length has another row count
    other = small_cfg()
    kernel = build_kernel(np.ones(5), cfg, 2)
    spec = stft_full(np.ones(40), other)
    with pytest.raises(ValueError, match="full grid of 512 rows"):
        apply(kernel, spec)


def test_apply_and_adjoint_refuse_a_one_sided_grid(cfg):
    # a grid whose row count is not num_bins, here half_bins, is refused
    rng = np.random.default_rng(17)
    kernel = build_kernel(rng.standard_normal(300), cfg, 2)
    half = stft(rng.standard_normal(4000), cfg).data
    for op in (apply, apply_adjoint):
        with pytest.raises(ValueError, match="the kernel needs a full grid"):
            op(kernel, half)


@pytest.mark.parametrize("make_cfg", [default_stft_config, small_cfg])
def test_banded_kernel_is_the_full_kernel_with_the_band_kept(make_cfg):
    # bit for bit: the band only chooses which entries are computed
    op_cfg = make_cfg()
    f_bins = op_cfg.num_bins
    rng = np.random.default_rng(18)
    h = rng.standard_normal(700) * np.exp(-np.arange(700) / 200.0)
    full = build_kernel(h, op_cfg, "full").data
    d = np.arange(f_bins)[None, :] - np.arange(f_bins)[:, None]
    distance = np.minimum(d % f_bins, -d % f_bins)
    for radius in (1, 4, 16, f_bins // 2):
        banded = build_kernel(h, op_cfg, radius).data
        assert np.array_equal(banded, np.where(distance <= radius, full, 0))


def test_band_truncation_error_monotone(cfg):
    rng = np.random.default_rng(15)
    h = rng.standard_normal(1200) * np.exp(-np.arange(1200) / 350.0)
    s = rng.standard_normal(8000)
    errors = [oracle_error(s, h, cfg, b) for b in [1, 2, 4, 8, "full"]]
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi * (1.0 + 1e-9)
    assert errors[-1] <= 1e-8


@pytest.mark.parametrize("band_radius", [1, 2, "full"])
def test_adjoint_inner_product_identity(band_radius):
    cfg = small_cfg()
    rng = np.random.default_rng(16)
    for trial in range(20):
        h = rng.standard_normal(rng.integers(2, 20))
        kernel = build_kernel(h, cfg, band_radius)
        t_s = int(rng.integers(1, 7))
        s = random_grid(rng, (8, t_s))
        y = apply(kernel, s)
        g = random_grid(rng, y.shape)
        x = apply_adjoint(kernel, g)
        assert x.shape == s.shape
        lhs = np.sum(y * np.conj(g))
        rhs = np.sum(s * np.conj(x))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_zero_kernel_adjoint_is_zero():
    cfg = small_cfg()
    kernel = build_kernel(np.zeros(6), cfg, "full")
    g = np.ones((8, 5), dtype=complex)
    assert np.all(apply_adjoint(kernel, g) == 0)


def test_delta_kernel_adjoint_truncates_frames(cfg):
    # the delta-RIR operator is an orthogonal projection on consistent grids,
    # so its adjoint returns such grids unchanged up to frame truncation
    rng = np.random.default_rng(19)
    s = rng.standard_normal(6000)
    kernel = build_kernel(np.array([1.0]), cfg, "full")
    g = stft_full(s, cfg)
    x = apply_adjoint(kernel, g)
    t_s = g.shape[1] - kernel.t_h + 1
    interior = slice(0, t_s - 1)
    err = (np.linalg.norm(x[:, interior] - g[:, interior])
           / np.linalg.norm(g[:, interior]))
    assert err <= 1e-8


def test_kernel_frames_counts(cfg):
    assert kernel_frames(1, cfg) == 2
    assert kernel_frames(2000, cfg) == 10
    kernel = build_kernel(np.ones(2000), cfg, 1)
    assert kernel.t_h == 10
    assert kernel.acausal == 1
    assert len(kernel.data) == 11


def test_acausal_frames_are_required(cfg):
    # dropping the acausal frame breaks time-domain equivalence at O(1)
    rng = np.random.default_rng(20)
    h = rng.standard_normal(900) * np.exp(-np.arange(900) / 300.0)
    s = rng.standard_normal(6000)
    full = oracle_error(s, h, cfg, "full")
    kernel = build_kernel(h, cfg, "full")
    assert np.linalg.norm(kernel.data[0]) > 1e-3 * np.linalg.norm(
        kernel.data)
    assert full <= 1e-10


def test_sampled_rir_oracle(cfg):
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    rir = sample_rir(params, rng=4)
    rng = np.random.default_rng(21)
    s = rng.standard_normal(8000)
    assert oracle_error(s, rir.taps, cfg, "full") <= 1e-8


def random_grid(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("num_taps", [300, 1300])
def test_exact_operator_matches_full_band_kernel(cfg, num_taps):
    # one RIR shorter and one longer than the 512-sample window, on an
    # arbitrary complex (inconsistent) grid
    rng = np.random.default_rng(22)
    h = rng.standard_normal(num_taps) * np.exp(-np.arange(num_taps) / 300.0)
    s = random_grid(rng, (cfg.num_bins, 6))
    ref = apply(build_kernel(h, cfg, "full"), s)
    y = forward_full(h, s, cfg)
    assert y.shape == ref.shape
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 1e-12


@pytest.mark.parametrize("num_samples, rt60", [
    (FS, 0.3), (FS, 0.9), (3 * FS + 77, 0.6), (300, 0.2)])
def test_istft_of_forward_full_is_the_linear_convolution(cfg, num_samples,
                                                         rt60):
    # reverberate --domain stft's contract in float64: every sample of the
    # full linear convolution, tail included, whatever grid carries it
    rng = np.random.default_rng(23)
    dry = speech_like_noise(num_samples, FS, rng=rng)
    taps = sample_rir(AcousticParams(rt60=rt60, drr_db=0.0), rng=rng).taps
    grid = forward_full(taps, stft_full(dry, cfg), cfg)
    wet = istft_full(grid, cfg, len(dry) + len(taps) - 1)
    ref = fft_convolve(dry, taps)
    assert len(wet) == len(dry) + len(taps) - 1
    assert np.linalg.norm(wet - ref) / np.linalg.norm(ref) <= 1e-12


@pytest.mark.parametrize("n, hop, num_taps", [
    (8, 4, 3), (8, 4, 21), (6, 3, 2), (6, 3, 17), (512, 256, 300),
    (512, 256, 1300)])
def test_one_sided_operator_equals_full_rows(n, hop, num_taps):
    # forward(x) is the first F // 2 + 1 rows of the full STFT of the
    # reverberant signal cut to len(x): signals shorter and longer than the
    # RIR and the window; 6/3 has no Nyquist row
    op_cfg = small_cfg(n, hop)
    rng = np.random.default_rng(25)
    h = rng.standard_normal(num_taps)
    for num_samples in (1, num_taps // 2 + 1, 12 * n + 5):
        x = rng.standard_normal(num_samples)
        y = forward(h, x, Scratch(num_samples, op_cfg))
        wet = fft_convolve(x, h)[:num_samples]
        ref = stft_full(wet, op_cfg)
        assert y.shape == (op_cfg.half_bins, ref.shape[1])
        assert (np.linalg.norm(y - ref[:op_cfg.half_bins])
                <= 1e-12 * np.linalg.norm(ref))


@pytest.mark.parametrize("n, hop", [(8, 4), (6, 3)])
def test_one_sided_adjoint_identity(n, hop):
    # <A x, g>_w == x . A* g with <a, b>_w = sum_f w_f Re(a conj b), for
    # arbitrary one-sided grids g (DC and Nyquist rows not real) and signals
    # shorter and longer than the RIR
    op_cfg = small_cfg(n, hop)
    w = row_weights(op_cfg)
    rng = np.random.default_rng(26)
    worst = 0.0
    for trial in range(100):
        h = rng.standard_normal(int(rng.integers(2, 24)))
        x = rng.standard_normal(int(rng.integers(1, 40)))
        scratch = Scratch(len(x), op_cfg)
        y = forward(h, x, scratch).copy()
        g = random_grid(rng, y.shape)
        x_adj = adjoint(h, g, scratch)
        assert x_adj.shape == x.shape and not np.iscomplexobj(x_adj)
        lhs = np.sum(w * np.real(y * np.conj(g)))
        rhs = np.dot(x, x_adj)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_operator_in_a_shared_scratch_equals_fresh_calls(cfg):
    # one scratch for RIRs of two lengths, used in turn, gives the bits of
    # calls in a fresh scratch each
    rng = np.random.default_rng(27)
    n = 4000
    rirs = [rng.standard_normal(k) for k in (300, 1300)]
    scratch = Scratch(n, cfg)
    for h in rirs + rirs[::-1]:
        x = rng.standard_normal(n)
        y = forward(h, x, Scratch(n, cfg))
        g = random_grid(rng, y.shape)
        x_adj = adjoint(h, g, Scratch(n, cfg))
        assert np.array_equal(forward(h, x, scratch), y)
        assert np.array_equal(adjoint(h, g, scratch), x_adj)


def test_scratch_refuses_another_length_or_grid(cfg):
    h = np.ones(5)
    scratch = Scratch(4000, cfg)
    for x in (np.zeros(4001), np.zeros(0), np.zeros((2, 4000))):
        with pytest.raises(ValueError, match="1-D signals of 4000 samples"):
            forward(h, x, scratch)
    t_frames = scratch.grid.shape[1]
    for shape in ((cfg.num_bins, t_frames), (cfg.half_bins, t_frames + 1)):
        with pytest.raises(ValueError, match="not the one-sided grid"):
            adjoint(h, np.zeros(shape, dtype=complex), scratch)
