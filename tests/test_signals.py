import numpy as np
import pytest
from scipy.signal import fftconvolve

from revmatch.signals import (Signal, Spectrogram, StftConfig,
                              canonical_dual_window, fft_convolve,
                              hann_window, istft, num_frames_for, overlap_add,
                              read_wav, stft, write_wav)


def test_default_config_is_perfect_reconstruction(cfg):
    assert cfg.win_len == 512
    assert cfg.hop == 256
    assert cfg.num_bins == 512
    assert cfg.reconstruction_residual() <= 1e-12


def test_zero_signal_gives_zero_spectrogram(cfg):
    spec = stft(np.zeros(4000), cfg)
    assert np.all(spec.data == 0)


def test_delta_framing_convention(cfg):
    # a unit impulse at sample 0 sits at buffer position head_pad in frame 0;
    # direct evaluation of the windowed DFT gives the expected frame
    x = np.zeros(1000)
    x[0] = 1.0
    spec = stft(x, cfg)
    pos = cfg.head_pad
    f = np.arange(cfg.num_bins)
    expected = cfg.analysis_window[pos] * np.exp(
        -2j * np.pi * f * pos / cfg.num_bins)
    np.testing.assert_allclose(spec.data[:, 0], expected, atol=1e-12)
    # frame 1 sees the impulse at position head_pad - hop = 0
    expected1 = cfg.analysis_window[0] * np.ones(cfg.num_bins)
    np.testing.assert_allclose(spec.data[:, 1], expected1, atol=1e-12)


@pytest.mark.parametrize("length", [16000, 12345, 700, 256, 40])
def test_roundtrip_perfect_reconstruction(cfg, length):
    rng = np.random.default_rng(length)
    x = rng.standard_normal(length)
    back = istft(stft(x, cfg))
    assert len(back) == length
    assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-10


@pytest.mark.parametrize("n, hop", [(512, 256), (8, 4)])
@pytest.mark.parametrize("length", [1000, 1001])
def test_istft_inverts_a_one_sided_grid(n, hop, length):
    g_a = hann_window(n)
    cfg = StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))
    x = np.random.default_rng(length).standard_normal(length)
    full = stft(x, cfg)
    half = stft(x, cfg, one_sided=True)
    assert half.one_sided
    assert np.linalg.norm(half.data - full.half().data) <= (
        1e-12 * np.linalg.norm(full.data))
    ref = istft(full)
    for grid in (full.half(), half):
        back = istft(grid)
        assert len(back) == length
        assert np.linalg.norm(back - ref) <= 1e-12 * np.linalg.norm(ref)


def test_stft_linearity(cfg):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5000)
    y = rng.standard_normal(5000)
    a, b = 2.5, -1.25
    lhs = stft(a * x + b * y, cfg).data
    rhs = a * stft(x, cfg).data + b * stft(y, cfg).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_istft_zero_and_scaling(cfg):
    zero = Spectrogram(np.zeros((512, 8), dtype=complex), cfg, num_samples=1500)
    assert np.all(istft(zero) == 0)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4000)
    spec = stft(x, cfg)
    doubled = Spectrogram(2.0 * spec.data, cfg, spec.num_samples)
    np.testing.assert_allclose(istft(doubled), 2.0 * istft(spec), atol=1e-12)


def test_istft_rejects_non_reconstructing_config():
    # matched Hann/Hann violates the product overlap-add condition, so no
    # config (and no grid for istft to invert) can be built on it
    g_a = hann_window(512)
    with pytest.raises(ValueError, match="perfect-reconstruction"):
        StftConfig(512, 256, g_a, g_a)


@pytest.mark.parametrize("frames", [2, 9, 40])
def test_grid_without_a_sample_count_inverts_to_its_frames(cfg, frames):
    # the longest signal whose analysis gives those frames
    rng = np.random.default_rng(frames)
    data = rng.standard_normal((cfg.num_bins, frames)) + 0j
    spec = Spectrogram(data, cfg)
    assert spec.num_samples == frames * cfg.hop - cfg.head_pad
    back = istft(spec)
    assert len(back) == spec.num_samples
    assert num_frames_for(len(back), cfg) == frames
    assert stft(back, cfg).num_frames == frames


@pytest.mark.parametrize("n, hop", [(512, 256), (8, 2)])
@pytest.mark.parametrize("frames", [1, 2, 7])
def test_overlap_add_equals_per_frame_loop(n, hop, frames):
    rng = np.random.default_rng(n + frames)
    x = rng.standard_normal((frames, n))
    ref = np.zeros((frames - 1) * hop + n)
    for t in range(frames):
        ref[t * hop:t * hop + n] += x[t]
    out = overlap_add(x, hop)
    if n // hop == 2:
        # two terms per sample: the same sum in either order
        assert np.array_equal(out, ref)
    else:
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)


def test_parseval_energy_bounds(cfg):
    # per-sample analysis weight sum lies in [1/2, 1] for this window pair,
    # so  F/2 <= ||X||^2 / ||x||^2 <= F;  average weight gives F*||g_a||^2/L
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16000)
    ratio = np.sum(np.abs(stft(x, cfg).data) ** 2) / np.sum(x ** 2)
    f_bins = cfg.num_bins
    assert f_bins / 2 * 0.999 <= ratio <= f_bins * 1.001
    nominal = f_bins * np.sum(cfg.analysis_window ** 2) / cfg.hop
    assert abs(ratio - nominal) / nominal < 0.05


def test_full_band_grid_conjugate_symmetric_for_real_input(cfg):
    rng = np.random.default_rng(77)
    spec = stft(rng.standard_normal(4000), cfg).data
    f_bins = cfg.num_bins
    flipped = np.conj(spec[(-np.arange(f_bins)) % f_bins, :])
    np.testing.assert_allclose(spec, flipped, atol=1e-12)


def test_stft_rejects_empty(cfg):
    with pytest.raises(ValueError):
        stft(np.array([]), cfg)


def test_config_validation():
    g = hann_window(512)
    with pytest.raises(ValueError):
        StftConfig(512, 513, g, g)
    with pytest.raises(ValueError):
        StftConfig(512, 96, g, g)  # hop must divide win_len
    dual = canonical_dual_window(g, 256)
    assert StftConfig(512, 256, g, dual).reconstruction_residual() <= 1e-10


def test_signal_validation():
    with pytest.raises(ValueError, match="mono"):
        Signal(np.zeros((2, 100)), 16000)
    with pytest.raises(ValueError):
        Signal(np.array([np.nan]), 16000)
    with pytest.raises(ValueError):
        Signal(np.zeros(10), 0)


def test_wav_float_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(3000).astype(np.float32).astype(np.float64)
    sig = Signal(samples, 16000)
    path = tmp_path / "x.wav"
    write_wav(path, sig, fmt="float32")
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_array_equal(back.samples, samples)


def test_wav_pcm16_quantization(tmp_path):
    rng = np.random.default_rng(9)
    samples = rng.uniform(-0.9, 0.9, 2000)
    sig = Signal(samples, 16000)
    path = tmp_path / "x16.wav"
    write_wav(path, sig, fmt="pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - samples)) <= 2.0 ** -15


def test_wav_rejects_stereo(tmp_path):
    from scipy.io import wavfile
    path = tmp_path / "st.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mono required"):
        read_wav(path)


def test_wav_rejects_unexpected_rate(tmp_path):
    from scipy.io import wavfile
    path = tmp_path / "hi.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError, match="unsupported sample rate"):
        read_wav(path, expect_rate=16000)


@pytest.mark.parametrize("la, lb", [(48000, 9641), (16000, 1500), (64000, 8041),
                                    (1500, 16000), (100, 1), (1, 100),
                                    (1, 1), (2, 2), (7, 3)])
def test_fft_convolve_bit_equal_to_scipy_signal(la, lb):
    rng = np.random.default_rng(la + 7 * lb)
    a, b = rng.standard_normal(la), rng.standard_normal(lb)
    want = fftconvolve(a, b)
    got = fft_convolve(a, b)
    assert got.shape == want.shape == (la + lb - 1,)
    assert np.array_equal(got, want)
