import os

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import fftconvolve

from revmatch.cli import main
from revmatch.blind import Rt60Calibration, speech_like_noise
from revmatch.rir import AcousticParams, params_to_file, sample_rir
from revmatch.signals import Signal, read_wav, stft, write_wav

FS = 16000


def run(*args):
    return main([str(a) for a in args])


def file_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_sample_rir_deterministic_and_valid(tmp_path):
    out1 = tmp_path / "a.wav"
    out2 = tmp_path / "b.wav"
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0, "--seed", 5,
               "-o", out1) == 0
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0, "--seed", 5,
               "-o", out2) == 0
    assert file_bytes(out1) == file_bytes(out2)
    rir = read_wav(out1)
    assert rir.samples[0] == 1.0


def test_sample_rir_validation_no_partial_output(tmp_path):
    out = tmp_path / "bad.wav"
    assert run("sample-rir", "--rt60", -1, "--drr", 0, "-o", out) == 2
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]
    assert leftovers == []


def test_sample_rir_analyze_roundtrip(tmp_path):
    rir_path = tmp_path / "h.wav"
    report = tmp_path / "report.txt"
    assert run("sample-rir", "--rt60", 0.4, "--drr", 0, "--seed", 1,
               "-o", rir_path) == 0
    assert run("analyze-rir", "--in", rir_path, "-o", report) == 0
    kv = dict(line.split("=") for line in report.read_text().splitlines())
    assert abs(float(kv["rt60_est"]) - 0.4) <= 0.08
    assert abs(float(kv["drr_est_db"])) <= 2.5


def test_reverberate_paths_agree(tmp_path):
    dry_path = tmp_path / "dry.wav"
    rir_path = tmp_path / "h.wav"
    wet_time = tmp_path / "wet_time.wav"
    wet_stft = tmp_path / "wet_stft.wav"
    dry = speech_like_noise(FS // 2, FS, rng=1).astype(np.float32)
    write_wav(dry_path, Signal(dry.astype(np.float64), FS))
    assert run("sample-rir", "--rt60", 0.2, "--drr", 0, "--seed", 2,
               "-o", rir_path) == 0
    assert run("reverberate", "--in", dry_path, "--rir", rir_path,
               "--domain", "time", "-o", wet_time) == 0
    assert run("reverberate", "--in", dry_path, "--rir", rir_path,
               "--domain", "stft", "--band-radius", "full",
               "-o", wet_stft) == 0
    a = read_wav(wet_time).samples
    b = read_wav(wet_stft).samples
    n = min(len(a), len(b))
    assert np.linalg.norm(a[:n] - b[:n]) / np.linalg.norm(a[:n]) <= 1e-6


def test_reverberate_rejects_wrong_rate(tmp_path):
    bad = tmp_path / "bad.wav"
    wavfile.write(bad, 44100, np.zeros(1000, dtype=np.float32))
    rir_path = tmp_path / "h.wav"
    assert run("sample-rir", "--rt60", 0.2, "--drr", 0, "-o", rir_path) == 0
    out = tmp_path / "wet.wav"
    assert run("reverberate", "--in", bad, "--rir", rir_path,
               "-o", out) == 2
    assert not out.exists()


def test_eval_perfect_flag(tmp_path):
    sig_path = tmp_path / "x.wav"
    report = tmp_path / "eval.txt"
    x = speech_like_noise(FS // 4, FS, rng=2)
    write_wav(sig_path, Signal(x, FS))
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "-o", report) == 0
    kv = dict(line.split("=") for line in report.read_text().splitlines())
    assert kv["sisdr_perfect"] == "1"
    assert float(kv["sisdr_db"]) == 100.0


def test_eval_param_errors(tmp_path):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    params_to_file(truth_path, AcousticParams(rt60=0.5, drr_db=2.0))
    est_report = tmp_path / "est.txt"
    est_report.write_text("rt60=0.6\ndrr_db=-1.0\n")
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "--true-params", truth_path, "--est-report", est_report,
               "-o", out) == 0
    kv = dict(line.split("=") for line in out.read_text().splitlines())
    assert float(kv["rt60_abs_err_s"]) == pytest.approx(0.1)
    assert float(kv["drr_abs_err_db"]) == pytest.approx(3.0)


def test_bench_monotone_and_deterministic(tmp_path):
    out1 = tmp_path / "bench1.txt"
    out2 = tmp_path / "bench2.txt"
    assert run("bench", "--seed", 3, "--band-radii", "1,4,16,full",
               "-o", out1) == 0
    assert run("bench", "--seed", 3, "--band-radii", "1,4,16,full",
               "-o", out2) == 0
    assert file_bytes(out1) == file_bytes(out2)
    rows = [line.split("\t") for line in out1.read_text().splitlines()[1:]]
    errors = [float(r[1]) for r in rows]
    assert all(a >= b * (1 - 1e-9) for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-8


def test_calibrate_and_analyze_blind(tmp_path):
    cal_path = tmp_path / "cal.txt"
    assert run("calibrate", "--synthetic", 12, "--duration", 2.0,
               "--seed", 4, "-o", cal_path) == 0
    kv = dict(line.split("=") for line in cal_path.read_text().splitlines())
    assert int(kv["n_pairs"]) == 12

    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.4, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=5)
    s = speech_like_noise(2 * FS, FS, rng=6)
    write_wav(wet_path, Signal(fftconvolve(s, h.taps), FS))
    report = tmp_path / "blind.txt"
    assert run("analyze-blind", "--in", wet_path, "--calibration", cal_path,
               "--k-inner", 4, "--draws", 1, "-o", report) == 0
    out = dict(line.split("=") for line in report.read_text().splitlines())
    assert 0.0 < float(out["rt60"]) < 1.5
    assert float(out["drr_db"]) in (-6.0, -3.0, 0.0, 3.0, 6.0, 10.0)


def test_calibrate_requires_source(tmp_path):
    assert run("calibrate", "-o", tmp_path / "cal.txt") == 2


def test_dereverb_oracle_params(tmp_path):
    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.25, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=7)
    s = speech_like_noise(FS // 2, FS, rng=8)
    write_wav(wet_path, Signal(fftconvolve(s, h.taps), FS))
    out = tmp_path / "dry.wav"
    trace = tmp_path / "trace.txt"
    assert run("dereverb", "--in", wet_path, "--rt60", 0.25, "--drr", 0,
               "--max-iters", 8, "--seed", 9, "--trace", trace,
               "-o", out) == 0
    dried = read_wav(out)
    wet = read_wav(wet_path)
    assert len(dried) == len(wet)
    lines = trace.read_text().splitlines()
    assert len(lines) >= 1
    assert lines[0].startswith("iter=0")


def test_dereverb_blind_writes_trace(tmp_path):
    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.4, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=12)
    s = speech_like_noise(2 * FS, FS, rng=13)
    write_wav(wet_path, Signal(fftconvolve(s, h.taps)[:2 * FS], FS))
    cal = tmp_path / "cal.txt"
    Rt60Calibration(c0=0.0, c1=1.0, c2=0.0).to_file(cal)
    trace = tmp_path / "t.txt"
    assert run("dereverb", "--in", wet_path, "--calibration", cal,
               "--max-iters", 4, "--k-inner", 2, "--trace", trace,
               "-o", tmp_path / "dry.wav") == 0
    lines = trace.read_text().splitlines()
    assert 1 <= len(lines) <= 4
    assert lines[0].startswith("iter=0")


def test_dereverb_requires_params_or_calibration(tmp_path):
    wet_path = tmp_path / "wet.wav"
    write_wav(wet_path, Signal(speech_like_noise(FS, FS, rng=1), FS))
    assert run("dereverb", "--in", wet_path, "-o", tmp_path / "d.wav") == 2


def test_dereverb_workers_reproducible(tmp_path):
    # two inputs, serial vs two workers: byte-identical outputs
    params = AcousticParams(rt60=0.25, drr_db=0.0, sample_rate=FS)
    inputs = []
    for i in range(2):
        h = sample_rir(params, rng=20 + i)
        s = speech_like_noise(FS // 2, FS, rng=30 + i)
        path = tmp_path / f"wet{i}.wav"
        write_wav(path, Signal(fftconvolve(s, h.taps), FS))
        inputs.append(path)
    out_serial = tmp_path / "serial"
    out_parallel = tmp_path / "parallel"
    out_serial.mkdir()
    out_parallel.mkdir()
    base = ["dereverb", "--in", inputs[0], "--in", inputs[1],
            "--rt60", 0.25, "--drr", 0, "--max-iters", 6, "--seed", 11]
    assert run(*base, "--workers", 1, "-o", out_serial) == 0
    assert run(*base, "--workers", 2, "-o", out_parallel) == 0
    for i in range(2):
        name = f"wet{i}.wav"
        assert file_bytes(out_serial / name) == file_bytes(out_parallel / name)


def test_config_file_with_cli_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("rt60=0.3\ndrr=0\nseed=5\n")
    out1 = tmp_path / "c1.wav"
    out2 = tmp_path / "c2.wav"
    assert run("sample-rir", "--config", config, "-o", out1) == 0
    # explicit flag overrides the config value
    assert run("sample-rir", "--config", config, "--seed", 6, "-o", out2) == 0
    assert file_bytes(out1) != file_bytes(out2)
    reference = tmp_path / "ref.wav"
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0, "--seed", 5,
               "-o", reference) == 0
    assert file_bytes(out1) == file_bytes(reference)


def test_missing_input_file_is_validation_error(tmp_path):
    assert run("analyze-rir", "--in", tmp_path / "nope.wav",
               "-o", tmp_path / "r.txt") == 2
