import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as scipy_fft
from scipy.io import wavfile
from scipy.signal import fftconvolve

import revmatch.blind as blind
from revmatch.signals import (Signal, Spectrogram, StftConfig,
                              canonical_dual_window, fft_convolve,
                              hann_window, istft, next_fast_len, overlap_add,
                              read_wav, row_weights, speech_like_noise, stft,
                              weighted_dot, write_wav)
from revmatch.tfconv import istft_full, stft_full

FS = 16000


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
    f = np.arange(cfg.half_bins)
    expected = cfg.analysis_window[pos] * np.exp(
        -2j * np.pi * f * pos / cfg.num_bins)
    np.testing.assert_allclose(spec.data[:, 0], expected, atol=1e-12)
    # frame 1 sees the impulse at position head_pad - hop = 0
    expected1 = cfg.analysis_window[0] * np.ones(cfg.half_bins)
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
    # the real FFT's grid is the first half_bins rows of the complex full
    # grid, and each inverts to the signal
    g_a = hann_window(n)
    cfg = StftConfig(n, hop, g_a, canonical_dual_window(g_a, hop))
    x = np.random.default_rng(length).standard_normal(length)
    full = stft_full(x, cfg)
    half = stft(x, cfg)
    assert half.data.shape == (cfg.half_bins, full.shape[1])
    assert np.linalg.norm(half.data - full[:cfg.half_bins]) <= (
        1e-12 * np.linalg.norm(full))
    ref = istft_full(full, cfg, length)
    back = istft(half)
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
    zero = Spectrogram(np.zeros((cfg.half_bins, 8), dtype=complex), cfg,
                       num_samples=1500)
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


def test_spectrogram_refuses_a_full_grid(cfg):
    # one layout: a grid of num_bins rows is refused, naming half_bins
    with pytest.raises(ValueError, match="half_bins"):
        Spectrogram(np.zeros((cfg.num_bins, 8), dtype=complex), cfg, 1500)


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
    ratio = np.sum(np.abs(stft_full(x, cfg)) ** 2) / np.sum(x ** 2)
    f_bins = cfg.num_bins
    assert f_bins / 2 * 0.999 <= ratio <= f_bins * 1.001
    nominal = f_bins * np.sum(cfg.analysis_window ** 2) / cfg.hop
    assert abs(ratio - nominal) / nominal < 0.05


def test_full_band_grid_conjugate_symmetric_for_real_input(cfg):
    rng = np.random.default_rng(77)
    spec = stft_full(rng.standard_normal(4000), cfg)
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
    write_wav(path, sig)
    back = read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_array_equal(back.samples, samples)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="mono required"):
        read_wav(path)


def test_wav_rejects_unexpected_rate(tmp_path):
    path = tmp_path / "hi.wav"
    wavfile.write(path, 44100, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError, match="unsupported sample rate"):
        read_wav(path, expect_rate=16000)


def test_write_wav_bytes_equal_scipy(tmp_path):
    samples = np.random.default_rng(10).uniform(-1.2, 1.2, 1001)
    ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
    write_wav(ours, Signal(samples, 16000))
    wavfile.write(theirs, 16000, samples.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()


def _scipy_read(path):
    """Rate and samples as read through scipy.io.wavfile, integer data
    scaled to full scale by its container width: the reference reader."""
    rate, data = wavfile.read(path)
    scale = {np.dtype(np.int16): 32768.0,
             np.dtype(np.int32): 2147483648.0}.get(data.dtype, 1.0)
    return rate, data.astype(np.float64) / scale


_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _fmt_chunk(tag, bits, width, extensible=False, channels=1, rate=16000):
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels,
                       rate, rate * width * channels, width * channels, bits)
    if extensible:
        body += (struct.pack("<HHI", 22, bits, 4) + struct.pack("<I", tag)
                 + _GUID_TAIL)
    return b"fmt " + struct.pack("<I", len(body)) + body


def _riff(fmt_chunk, payload, chunks=b""):
    body = (b"WAVE" + fmt_chunk + chunks + b"data"
            + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("tag, bits, width, dtype", [
    (1, 16, 2, "<i2"), (1, 24, 3, "<i4"), (1, 32, 4, "<i4"),
    (3, 32, 4, "<f4"), (3, 64, 8, "<f8")])
@pytest.mark.parametrize("extensible", [False, True])
@pytest.mark.parametrize("chunks", [b"", b"LIST\x05\x00\x00\x00INFOx\x00"])
def test_read_wav_equals_scipy(tmp_path, tag, bits, width, dtype, extensible,
                               chunks):
    rng = np.random.default_rng(bits + width)
    values = (rng.uniform(-1, 1, 777) if tag == 3 else
              rng.integers(-2 ** (bits - 1), 2 ** (bits - 1), 777)).astype(dtype)
    # 24-bit samples keep the low three bytes of each little-endian word
    payload = values.view(np.uint8).reshape(777, -1)[:, :width].tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(_riff(_fmt_chunk(tag, bits, width, extensible), payload,
                           chunks))
    rate, want = _scipy_read(path)
    got = read_wav(path)
    assert got.sample_rate == rate == 16000
    assert np.array_equal(got.samples, want)


def test_read_wav_rejects_uint8_truncated_and_other_containers(tmp_path):
    path = tmp_path / "x.wav"
    wavfile.write(path, 16000, np.full(100, 128, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported WAV sample format"):
        read_wav(path)
    write_wav(path, Signal(np.zeros(100), 16000))
    whole = path.read_bytes()
    path.write_bytes(whole[:-3])
    with pytest.raises(ValueError, match="shorter than its declared size"):
        read_wav(path)
    for container in (b"RIFX", b"RF64"):
        path.write_bytes(container + whole[4:])
        with pytest.raises(ValueError, match="unsupported WAV sample format"):
            read_wav(path)


def test_read_wav_refuses_a_data_chunk_of_no_samples(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, Signal(np.zeros(0), 16000))
    with pytest.raises(ValueError,
                       match=f"^{path}: WAV data chunk holds no samples$"):
        read_wav(path)


def test_next_fast_len_equals_scipy():
    sizes = list(range(1, 20001)) + [
        int(n) for n in np.random.default_rng(11).integers(1, 10 ** 7, 200)]
    for real in (True, False):
        assert ([next_fast_len(n, real) for n in sizes]
                == [scipy_fft.next_fast_len(n, real) for n in sizes])
    assert (next_fast_len(np.int64(1001), False)
            == scipy_fft.next_fast_len(1001, False))
    with pytest.raises(ValueError):
        next_fast_len(0, True)


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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_weighted_dot_is_the_row_weighted_real_inner_product(cfg, dtype):
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((2, cfg.half_bins, 22)).view(dtype)
    w = row_weights(cfg)
    want = np.sum(w * (a * np.conj(b)).real)
    assert weighted_dot(a, b, w) == pytest.approx(want, rel=1e-12)
    assert weighted_dot(a, b, w) == pytest.approx(weighted_dot(b, a, w),
                                                  rel=1e-12)
    # of one array: the float view's squared norm per row, row-weighted
    flat = a.view(np.float64)
    assert weighted_dot(a, a, w) == float(w[:, 0] @ np.vecdot(flat, flat))


def test_weighted_dot_of_a_one_sided_grid_is_its_full_grid_energy(cfg):
    x = speech_like_noise(3000, FS, rng=9)
    full, half = stft_full(x, cfg), stft(x, cfg)
    energy = weighted_dot(half.data, half.data, row_weights(cfg))
    assert energy == pytest.approx(np.sum(np.abs(full) ** 2), rel=1e-12)


def test_speech_like_noise_properties():
    x = speech_like_noise(32000, FS, rng=3)
    assert len(x) == 32000
    assert np.sqrt(np.mean(x ** 2)) == pytest.approx(1.0, rel=1e-9)
    # bursts and pauses: a noticeable fraction of near-silent samples
    frac_quiet = np.mean(np.abs(x) < 0.05)
    assert 0.1 < frac_quiet < 0.9


@pytest.mark.parametrize("call", [
    "signals.speech_like_noise(10, sample_rate=2, rng=0)",
    "rir.synthetic_pair(0, 0, 5.0, sample_rate=2)"])
def test_speech_like_noise_returns_at_a_rate_whose_bursts_round_to_zero(
        call):
    # at 2 Hz a burst and a pause both round to 0 samples, and the loop must
    # still advance; a subprocess, so a hang fails instead of stalling
    code = f"from revmatch import rir, signals; {call}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(blind.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def test_blind_binds_the_benchmark_generator_from_signals():
    # the benchmark draws its inputs as revmatch.blind.speech_like_noise
    assert blind.speech_like_noise is speech_like_noise
