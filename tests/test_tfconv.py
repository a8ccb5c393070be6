import numpy as np
import pytest
from scipy.signal import fftconvolve

from conftest import rel_frame_error
from revmatch.rir import AcousticParams, sample_rir
from revmatch.signals import (Spectrogram, StftConfig, canonical_dual_window,
                              hann_window, row_weights, stft)
from revmatch.tfconv import (ExactConv, Scratch, apply, apply_adjoint,
                             build_kernel, kernel_frames)

FS = 16000


def small_cfg(n=8, hop=4):
    g_a = hann_window(n)
    return StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))


def oracle_error(s, h, cfg, band_radius):
    """Relative error of the kernel path against time-domain convolution."""
    wet = fftconvolve(s, h)
    y_ref = stft(wet, cfg)
    kernel = build_kernel(h, cfg, band_radius)
    yhat = apply(kernel, stft(s, cfg))
    return rel_frame_error(yhat.data, y_ref.data)


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
    spec = stft(s, cfg)
    kernel = build_kernel(np.array([1.0]), cfg, "full")
    out = apply(kernel, spec)
    assert out.num_frames == spec.num_frames + kernel.t_h - 1
    assert rel_frame_error(out.data, spec.data) <= 1e-10


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
    zero = Spectrogram(np.zeros((8, 5), dtype=complex), cfg)
    assert np.all(apply(kernel, zero).data == 0)
    s1 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    s2 = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    a, b = 1.5 - 0.5j, -2.0 + 1.0j
    lhs = apply(kernel, Spectrogram(a * s1 + b * s2, cfg)).data
    rhs = (a * apply(kernel, Spectrogram(s1, cfg)).data
           + b * apply(kernel, Spectrogram(s2, cfg)).data)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_rejects_config_mismatch(cfg):
    other = small_cfg()
    kernel = build_kernel(np.ones(5), cfg, 2)
    spec = Spectrogram(np.zeros((8, 4), dtype=complex), other)
    with pytest.raises(ValueError, match="config"):
        apply(kernel, spec)


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
        s = Spectrogram(
            rng.standard_normal((8, t_s)) + 1j * rng.standard_normal((8, t_s)),
            cfg)
        y = apply(kernel, s)
        g = Spectrogram(
            rng.standard_normal(y.data.shape)
            + 1j * rng.standard_normal(y.data.shape), cfg)
        x = apply_adjoint(kernel, g)
        assert x.data.shape == s.data.shape
        lhs = np.sum(y.data * np.conj(g.data))
        rhs = np.sum(s.data * np.conj(x.data))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_zero_kernel_adjoint_is_zero():
    cfg = small_cfg()
    kernel = build_kernel(np.zeros(6), cfg, "full")
    g = Spectrogram(np.ones((8, 5), dtype=complex), cfg)
    assert np.all(apply_adjoint(kernel, g).data == 0)


def test_delta_kernel_adjoint_truncates_frames(cfg):
    # the delta-RIR operator is an orthogonal projection on consistent grids,
    # so its adjoint returns such grids unchanged up to frame truncation
    rng = np.random.default_rng(19)
    s = rng.standard_normal(6000)
    kernel = build_kernel(np.array([1.0]), cfg, "full")
    g = stft(s, cfg)
    x = apply_adjoint(kernel, g)
    t_s = g.num_frames - kernel.t_h + 1
    interior = slice(0, t_s - 1)
    err = (np.linalg.norm(x.data[:, interior] - g.data[:, interior])
           / np.linalg.norm(g.data[:, interior]))
    assert err <= 1e-8


def test_kernel_frames_counts(cfg):
    assert kernel_frames(1, cfg) == 2
    assert kernel_frames(2000, cfg) == 10
    kernel = build_kernel(np.ones(2000), cfg, 1)
    assert kernel.t_h == 10
    assert kernel.acausal == 1
    assert kernel.total_frames == 11


def test_acausal_frames_are_required(cfg):
    # dropping the acausal frame breaks time-domain equivalence at O(1)
    rng = np.random.default_rng(20)
    h = rng.standard_normal(900) * np.exp(-np.arange(900) / 300.0)
    s = rng.standard_normal(6000)
    full = oracle_error(s, h, cfg, "full")
    kernel = build_kernel(h, cfg, "full")
    assert np.linalg.norm(kernel.data[:, :, 0]) > 1e-3 * np.linalg.norm(
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
    s = Spectrogram(random_grid(rng, (cfg.num_bins, 6)), cfg)
    ref = apply(build_kernel(h, cfg, "full"), s).data
    y = ExactConv(h, cfg).forward_full(s).data
    assert y.shape == ref.shape
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) <= 1e-12


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
    op = ExactConv(h, op_cfg)
    for num_samples in (1, num_taps // 2 + 1, 12 * n + 5):
        x = rng.standard_normal(num_samples)
        y = op.forward(x)
        ref = stft(fftconvolve(x, h)[:num_samples], op_cfg)
        assert y.one_sided and y.num_samples == num_samples
        assert y.data.shape == (op_cfg.half_bins, ref.num_frames)
        assert (np.linalg.norm(y.data - ref.data[:op_cfg.half_bins])
                <= 1e-12 * np.linalg.norm(ref.data))


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
        op = ExactConv(rng.standard_normal(int(rng.integers(2, 24))), op_cfg)
        x = rng.standard_normal(int(rng.integers(1, 40)))
        y = op.forward(x)
        g = Spectrogram(random_grid(rng, y.data.shape), op_cfg, len(x))
        x_adj = op.adjoint(g)
        assert x_adj.shape == x.shape and not np.iscomplexobj(x_adj)
        lhs = np.sum(w * np.real(y.data * np.conj(g.data)))
        rhs = np.dot(x, x_adj)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    assert worst <= 1e-10


def test_operator_in_a_shared_scratch_equals_fresh_calls(cfg):
    # one scratch for operators of two RIR lengths, used in turn, gives the
    # bits of calls that make their own
    rng = np.random.default_rng(27)
    n = 4000
    ops = [ExactConv(rng.standard_normal(k), cfg) for k in (300, 1300)]
    scratch = Scratch(n, cfg)
    for op in ops + ops[::-1]:
        x = rng.standard_normal(n)
        y = op.forward(x)
        g = Spectrogram(random_grid(rng, y.data.shape), cfg, n)
        x_adj = op.adjoint(g)
        assert np.array_equal(op.forward(x, scratch).data, y.data)
        assert np.array_equal(op.adjoint(g, scratch), x_adj)


def test_scratch_refuses_another_length_config_or_grid(cfg):
    op = ExactConv(np.ones(5), cfg)
    scratch = Scratch(4000, cfg)
    with pytest.raises(ValueError, match="4000 samples, not 4001"):
        op.forward(np.zeros(4001), scratch)
    with pytest.raises(ValueError, match="4000 samples, not 4001"):
        op.adjoint(op.forward(np.zeros(4001)), scratch)
    other = ExactConv(np.ones(5), small_cfg(512, 128))
    with pytest.raises(ValueError, match="another STFT config"):
        other.forward(np.zeros(4000), scratch)
    for x in (np.zeros(0), np.zeros((2, 4000))):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            op.forward(x, scratch)
    y = op.forward(np.zeros(4000))
    for data in (np.zeros((cfg.num_bins, y.num_frames)),
                 np.zeros((cfg.half_bins, y.num_frames + 1))):
        with pytest.raises(ValueError, match="not the one-sided grid"):
            op.adjoint(Spectrogram(data, cfg, 4000), scratch)
