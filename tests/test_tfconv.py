import numpy as np
import pytest
from scipy.signal import fftconvolve

import revmatch.tfconv as tfconv
from conftest import rel_frame_error
from revmatch.rir import AcousticParams, sample_rir
from revmatch.signals import (Spectrogram, StftConfig, canonical_dual_window,
                              hann_window, stft)
from revmatch.tfconv import apply, apply_adjoint, build_kernel, kernel_frames

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


def test_adjoint_identity_on_gemm_path(monkeypatch):
    monkeypatch.setattr(tfconv, "_FFT_PATH_MAX_DELTAS", 0)
    cfg = small_cfg()
    rng = np.random.default_rng(17)
    h = rng.standard_normal(12)
    kernel = build_kernel(h, cfg, 3)
    s = Spectrogram(rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5)), cfg)
    y = apply(kernel, s)
    g = Spectrogram(rng.standard_normal(y.data.shape)
                    + 1j * rng.standard_normal(y.data.shape), cfg)
    x = apply_adjoint(kernel, g)
    lhs = np.sum(y.data * np.conj(g.data))
    rhs = np.sum(s.data * np.conj(x.data))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_gemm_and_fft_paths_agree(monkeypatch):
    cfg = small_cfg()
    rng = np.random.default_rng(18)
    h = rng.standard_normal(15)
    s = Spectrogram(rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6)), cfg)
    kernel = build_kernel(h, cfg, "full")
    y_fft = apply(kernel, s).data
    monkeypatch.setattr(tfconv, "_FFT_PATH_MAX_DELTAS", 0)
    kernel2 = build_kernel(h, cfg, "full")
    y_gemm = apply(kernel2, s).data
    np.testing.assert_allclose(y_gemm, y_fft, atol=1e-12)


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
