import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import fftconvolve

import revmatch.blind as blind
import revmatch.cli as cli
from revmatch.cli import main
from revmatch.blind import BlindConfig, Rt60Calibration, speech_like_noise
from revmatch.records import format_records, read_records
from revmatch.rir import AcousticParams, read_rir, sample_rir
from revmatch.signals import (Signal, default_stft_config, read_wav, stft,
                              write_wav)
from revmatch.solver import SolverConfig

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


def test_sample_rir_text_matches_wav(tmp_path):
    wav_path = tmp_path / "h.wav"
    txt_path = tmp_path / "h.txt"
    for out in (wav_path, txt_path):
        assert run("sample-rir", "--rt60", 0.3, "--drr", 0, "--seed", 5,
                   "-o", out) == 0
    from_wav, from_txt = read_rir(wav_path), read_rir(txt_path)
    assert from_wav.sample_rate == from_txt.sample_rate == FS
    np.testing.assert_array_equal(from_txt.taps.astype(np.float32),
                                  from_wav.taps.astype(np.float32))
    assert txt_path.read_text().splitlines()[0] == "# sample_rate=16000"
    assert sorted(os.listdir(tmp_path)) == ["h.txt", "h.wav"]


def test_sample_rir_analyze_roundtrip(tmp_path):
    rir_path = tmp_path / "h.wav"
    report = tmp_path / "report.txt"
    assert run("sample-rir", "--rt60", 0.4, "--drr", 0, "--seed", 1,
               "-o", rir_path) == 0
    assert run("analyze-rir", "--in", rir_path, "-o", report) == 0
    kv = dict(line.split("=") for line in report.read_text().splitlines())
    assert abs(float(kv["rt60_est"]) - 0.4) <= 0.08
    assert abs(float(kv["drr_est_db"])) <= 2.5


def test_analyze_rir_rejects_a_negative_direct_delay(tmp_path, capsys):
    rir_path = tmp_path / "h.wav"
    assert run("sample-rir", "--rt60", 0.4, "--drr", 0, "-o", rir_path) == 0
    report = tmp_path / "report.txt"
    assert run("analyze-rir", "--in", rir_path, "--nd", -1,
               "-o", report) == 2
    assert "n_d must be nonnegative" in capsys.readouterr().err
    assert not report.exists()


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
               "--domain", "stft", "-o", wet_stft) == 0
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


def test_eval_zero_estimate_is_validation_error(tmp_path, capsys):
    ref, est = tmp_path / "ref.wav", tmp_path / "est.wav"
    write_wav(ref, Signal(speech_like_noise(FS // 4, FS, rng=2), FS))
    write_wav(est, Signal(np.zeros(FS // 4), FS))
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", est, "--ref", ref, "-o", out) == 2
    assert "zero estimate" in capsys.readouterr().err
    assert not out.exists()


def _write_params(path, params):
    path.write_text(format_records(asdict(params).items()))


def test_eval_param_errors(tmp_path):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    _write_params(truth_path, AcousticParams(rt60=0.5, drr_db=2.0))
    est_report = tmp_path / "est.txt"
    out = tmp_path / "eval.txt"
    # blind (analyze-blind) and non-blind (analyze-rir) report keys
    for records in ("rt60=0.6\ndrr_db=-1.0\n",
                    "rt60_est=0.6\ndrr_est_db=-1.0\n"):
        est_report.write_text(records)
        assert run("eval", "--est", sig_path, "--ref", sig_path,
                   "--true-params", truth_path, "--est-report", est_report,
                   "-o", out) == 0
        kv = dict(line.split("=") for line in out.read_text().splitlines())
        assert float(kv["rt60_abs_err_s"]) == pytest.approx(0.1)
        assert float(kv["drr_abs_err_db"]) == pytest.approx(3.0)


@pytest.mark.parametrize("records", ["rt60_s=0.5\n", "rt60=0.6\n"],
                         ids=["no-rt60", "no-drr"])
def test_eval_est_report_missing_key_is_validation_error(tmp_path, capsys,
                                                         records):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    _write_params(truth_path, AcousticParams(rt60=0.5, drr_db=2.0))
    est_report = tmp_path / "est.txt"
    est_report.write_text(records)
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "--true-params", truth_path, "--est-report", est_report,
               "-o", out) == 2
    assert not out.exists()
    missing = "drr_db" if records.startswith("rt60=") else "rt60"
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("records", ["rt60=nan\ndrr_db=0.0\n",
                                     "rt60_est=0.6\ndrr_est_db=inf\n"],
                         ids=["nan-rt60", "inf-drr"])
def test_eval_est_report_non_finite_value_is_validation_error(
        tmp_path, capsys, records):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    _write_params(truth_path, AcousticParams(rt60=0.5, drr_db=2.0))
    est_report = tmp_path / "est.txt"
    est_report.write_text(records)
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "--true-params", truth_path, "--est-report", est_report,
               "-o", out) == 2
    assert not out.exists()
    key = "rt60" if records.startswith("rt60=") else "drr_est_db"
    assert f"{est_report}: {key} must be finite" in capsys.readouterr().err


def test_true_params_without_drr_is_validation_error(tmp_path, capsys):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    truth_path.write_text("rt60=0.5\n")
    est_report = tmp_path / "est.txt"
    est_report.write_text("rt60=0.6\ndrr_db=-1.0\n")
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "--true-params", truth_path, "--est-report", est_report,
               "-o", out) == 2
    assert not out.exists()
    assert f"{truth_path}: no drr_db record" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--true-params", "--est-report"])
def test_eval_takes_both_parameter_files_or_neither(tmp_path, capsys, flag):
    # the named file need not exist: the pairing is checked first
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               flag, tmp_path / "missing.txt", "-o", out) == 2
    err = capsys.readouterr().err
    assert "--true-params and --est-report together" in err
    assert not out.exists()


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
               "--k-inner", 4, "-o", report) == 0
    out = dict(line.split("=") for line in report.read_text().splitlines())
    assert 0.0 < float(out["rt60"]) < 1.5
    assert float(out["drr_db"]) in (-6.0, -3.0, 0.0, 3.0, 6.0, 10.0)


def _blind_inputs(tmp_path, calibration):
    """A 1.25 s reverberant wav and a calibration file of the given records."""
    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.4, drr_db=0.0, sample_rate=FS)
    wet = fftconvolve(speech_like_noise(FS, FS, rng=6),
                      sample_rir(params, rng=5).taps)[:FS * 5 // 4]
    write_wav(wet_path, Signal(wet, FS))
    cal_path = tmp_path / "cal.txt"
    cal_path.write_text(calibration)
    return wet_path, cal_path


def test_analyze_blind_rejects_a_config_noise_mode(tmp_path, capsys):
    # an all-zero calibration maps to an anechoic estimate, which builds no
    # AcousticParams to check the noise mode
    wet_path, cal_path = _blind_inputs(tmp_path, "c0=0\nc1=0\nc2=0\n")
    config = tmp_path / "run.cfg"
    config.write_text("noise_mode=bogus\n")
    report = tmp_path / "blind.txt"
    assert run("analyze-blind", "--in", wet_path, "--calibration", cal_path,
               "--config", config, "-o", report) == 2
    assert "noise_mode must be one of" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["analyze-blind", "dereverb"])
def test_zero_inner_budget_is_validation_error_naming_k_inner(tmp_path,
                                                             capsys, command):
    wet_path, cal_path = _blind_inputs(tmp_path, "c0=0.5\nc1=0\nc2=0\n")
    out = tmp_path / "out"
    assert run(command, "--in", wet_path, "--calibration", cal_path,
               "--k-inner", 0, "-o", out) == 2
    err = capsys.readouterr().err
    assert "k_inner must be >= 1" in err and "max_iters" not in err
    assert not out.exists()


def test_calibration_without_c2_is_validation_error(tmp_path, capsys):
    wet_path, cal_path = _blind_inputs(tmp_path, "c0=0.5\nc1=0\n")
    report = tmp_path / "blind.txt"
    assert run("analyze-blind", "--in", wet_path, "--calibration", cal_path,
               "-o", report) == 2
    assert f"{cal_path}: no c2 record" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["analyze-blind", "dereverb"])
def test_non_finite_calibration_is_validation_error(tmp_path, capsys,
                                                    command, value):
    wet_path, cal_path = _blind_inputs(tmp_path, f"c0={value}\nc1=0\nc2=0\n")
    out = tmp_path / "out.txt"
    assert run(command, "--in", wet_path, "--calibration", cal_path,
               "-o", out) == 2
    assert "calibration c0 must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_requires_source(tmp_path, capsys):
    out = tmp_path / "cal.txt"
    assert run("calibrate", "-o", out) == 2
    assert "requires --manifest or --synthetic N" in capsys.readouterr().err
    # --synthetic 0 is a source with too few pairs, not a missing source
    assert run("calibrate", "--synthetic", 0, "-o", out) == 2
    assert "need >= 3 pairs" in capsys.readouterr().err
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("")
    assert run("calibrate", "--manifest", manifest, "--synthetic", 5,
               "-o", out) == 2
    assert "one source" in capsys.readouterr().err
    assert not out.exists()


def _manifest_wavs(tmp_path):
    """Three 1.25 s reverberant wavs with their RT60 labels."""
    labels = []
    for i, rt60 in enumerate((0.3, 0.6, 0.9)):
        params = AcousticParams(rt60=rt60, drr_db=0.0, sample_rate=FS)
        wet = fftconvolve(speech_like_noise(FS * 5 // 4, FS, rng=40 + i),
                          sample_rir(params, rng=50 + i).taps)[:FS * 5 // 4]
        path = tmp_path / f"wet{i}.wav"
        write_wav(path, Signal(wet, FS))
        labels.append((path, rt60))
    return labels


def test_calibrate_manifest_matches_the_library_fit(tmp_path):
    labels = _manifest_wavs(tmp_path)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# path rt60\n\n" + "".join(
        f"{path} {rt60}\n" for path, rt60 in labels))
    out = tmp_path / "cal.txt"
    assert run("calibrate", "--manifest", manifest, "-o", out) == 0
    cfg = default_stft_config()
    want = tmp_path / "want.txt"
    blind.calibrate_rt60([(stft(read_wav(path), cfg), rt60)
                          for path, rt60 in labels], FS).to_file(want)
    assert file_bytes(out) == file_bytes(want)


@pytest.mark.parametrize("bad, message", [
    ("{path}", "expected 'PATH RT60'"),
    ("{path} slow", "'slow' is not a number"),
    ("{path} inf", "'inf' must be positive and finite"),
    ("{path} nan", "'nan' must be positive and finite"),
    ("{path} 0", "'0' must be positive and finite"),
    ("{path} -0.5", "'-0.5' must be positive and finite")])
def test_calibrate_manifest_rejects_a_bad_label(tmp_path, capsys, bad,
                                                message):
    labels = _manifest_wavs(tmp_path)
    lines = [f"{path} {rt60}" for path, rt60 in labels]
    lines[1] = bad.format(path=labels[1][0])
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# path rt60\n" + "\n".join(lines) + "\n")
    out = tmp_path / "cal.txt"
    assert run("calibrate", "--manifest", manifest, "-o", out) == 2
    err = capsys.readouterr().err
    assert f"{manifest}:3: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("duration, message", [
    ("inf", "duration must be positive and finite"),
    ("-1", "duration must be positive and finite"),
    ("0", "duration must be positive and finite"),
    ("0.0001", "at least 2 samples")])
def test_calibrate_rejects_a_bad_duration(tmp_path, capsys, duration,
                                          message):
    out = tmp_path / "cal.txt"
    assert run("calibrate", "--synthetic", 3, "--duration", duration,
               "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radii", [",", ""])
def test_bench_rejects_an_empty_radius_list(tmp_path, capsys, radii):
    out = tmp_path / "bench.txt"
    assert run("bench", "--band-radii", radii, "-o", out) == 2
    assert "at least one band radius" in capsys.readouterr().err
    assert not out.exists()


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


def test_dereverb_passthrough_writes_its_cause(tmp_path):
    # a calibration mapping every input to RT60 0 passes the file through
    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.4, drr_db=0.0, sample_rate=FS)
    wet = fftconvolve(speech_like_noise(FS, FS, rng=14),
                      sample_rir(params, rng=15).taps)[:FS]
    write_wav(wet_path, Signal(wet, FS))
    cal = tmp_path / "cal.txt"
    cal.write_text("c0=0\nc1=0\nc2=0\n")
    trace = tmp_path / "t.txt"
    out = tmp_path / "dry.wav"
    assert run("dereverb", "--in", wet_path, "--calibration", cal,
               "--trace", trace, "-o", out) == 0
    assert read_records(trace) == {"passthrough": "anechoic"}
    np.testing.assert_array_equal(read_wav(out).samples,
                                  read_wav(wet_path).samples)


def test_dereverb_draws_set_only_the_loss_draws(tmp_path, monkeypatch):
    # --draws is the loss draw count; the blind search has no draw knob
    wet_path = tmp_path / "wet.wav"
    write_wav(wet_path, Signal(speech_like_noise(FS, FS, rng=1), FS))
    cal = tmp_path / "cal.txt"
    Rt60Calibration(c0=0.0, c1=1.0, c2=0.0).to_file(cal)
    received = []

    def recording_analyzer(spec, calibration, cfg, sample_rate):
        received.append(cfg)
        raise blind.InsufficientDecay("recorded")

    monkeypatch.setattr(blind, "analyze_blind", recording_analyzer)
    assert run("dereverb", "--in", wet_path, "--calibration", cal,
               "--variant", "average", "--draws", 2,
               "-o", tmp_path / "dry.wav") == 0
    assert received == [BlindConfig()]


def test_dereverb_defaults_are_the_config_defaults():
    # with no flag and no config file, the CLI builds the library's defaults
    args = cli.build_parser().parse_args(
        ["dereverb", "--in", "wet.wav", "-o", "dry.wav"])
    assert cli._solver_config(args, (7, 1)) == SolverConfig(seed=(7, 1))
    assert cli._blind_config(args) == BlindConfig()


def test_dereverb_requires_params_or_calibration(tmp_path):
    wet_path = tmp_path / "wet.wav"
    write_wav(wet_path, Signal(speech_like_noise(FS, FS, rng=1), FS))
    assert run("dereverb", "--in", wet_path, "-o", tmp_path / "d.wav") == 2


def _dereverb_serial_and_parallel(tmp_path, *extra):
    """Outputs, as bytes, of dereverbing two reverberant inputs made in
    ``tmp_path`` with one worker and with two: {workers: [bytes of wet0,
    bytes of wet1]}."""
    tmp_path.mkdir(exist_ok=True)
    params = AcousticParams(rt60=0.25, drr_db=0.0, sample_rate=FS)
    inputs = []
    for i in range(2):
        h = sample_rir(params, rng=20 + i)
        s = speech_like_noise(FS // 2, FS, rng=30 + i)
        path = tmp_path / f"wet{i}.wav"
        write_wav(path, Signal(fftconvolve(s, h.taps), FS))
        inputs.append(path)
    base = ["dereverb", "--in", inputs[0], "--in", inputs[1],
            "--rt60", 0.25, "--drr", 0, "--max-iters", 6, "--seed", 11,
            *extra]
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        out.mkdir()
        assert run(*base, "--workers", workers, "-o", out) == 0
        outputs[workers] = [file_bytes(out / p.name) for p in inputs]
    return outputs


def test_dereverb_workers_reproducible(tmp_path):
    # two inputs, serial vs two workers: byte-identical outputs
    outputs = _dereverb_serial_and_parallel(tmp_path)
    assert outputs[1] == outputs[2]


def test_dereverb_multi_draw_variants_reproducible_across_workers(tmp_path):
    # the average sums its draws' gradients in draw order and the best
    # backpropagates a kept copy of its lowest-loss draw's: both give the
    # same bytes with one worker and with two, and differ from each other
    by_variant = {
        variant: _dereverb_serial_and_parallel(
            tmp_path / variant, "--variant", variant, "--draws", 3)
        for variant in ("average", "best")}
    for outputs in by_variant.values():
        assert outputs[1] == outputs[2]
    assert by_variant["average"][1] != by_variant["best"][1]


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


@pytest.mark.parametrize("given,missing", [(("--drr", 0), "--rt60"),
                                           (("--rt60", 0.3), "--drr")],
                         ids=["no-rt60", "no-drr"])
def test_sample_rir_without_rt60_or_drr_is_validation_error(
        tmp_path, capsys, given, missing):
    out = tmp_path / "h.wav"
    assert run("sample-rir", *given, "-o", out) == 2
    assert missing in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag, field", [("rt60", "rt60"), ("drr", "drr_db")])
@pytest.mark.parametrize("command", ["sample-rir", "dereverb"])
def test_non_finite_acoustic_parameter_is_validation_error(
        tmp_path, capsys, command, flag, field, value):
    given = {"rt60": "0.3", "drr": "0", flag: value}
    inputs = ["--in", _short_wet(tmp_path)] if command == "dereverb" else []
    out = tmp_path / "out.wav"
    assert run(command, *inputs, "--rt60", given["rt60"], "--drr",
               given["drr"], "-o", out) == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--step-size", "nan", "step_size"), ("--step-size", "inf", "step_size"),
    ("--stop-rel-tol", "nan", "stop_rel_tol")])
def test_non_finite_solver_setting_is_validation_error(tmp_path, capsys, flag,
                                                       value, field):
    out = tmp_path / "out.wav"
    assert run("dereverb", "--in", _short_wet(tmp_path), "--rt60", 0.3,
               "--drr", 0, "--max-iters", 2, flag, value, "-o", out) == 2
    assert f"{field} must" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    out = tmp_path / "h.wav"
    assert run("sample-rir", "--config", tmp_path / "nope.cfg",
               "-o", out) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _short_wet(tmp_path):
    wet_path = tmp_path / "wet.wav"
    params = AcousticParams(rt60=0.25, drr_db=0.0, sample_rate=FS)
    wet = fftconvolve(speech_like_noise(FS // 2, FS, rng=8),
                      sample_rir(params, rng=7).taps)
    write_wav(wet_path, Signal(wet, FS))
    return wet_path


def test_dereverb_config_file_equals_the_same_flags(tmp_path):
    wet_path = _short_wet(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("max_iters=3\nstep_size=0.1\nvariant=average\n"
                      "draws=2\nseed=9\n")
    base = ["dereverb", "--in", wet_path, "--rt60", 0.25, "--drr", 0]
    outs = {}
    for name, extra in [("flags", ["--max-iters", 3, "--step-size", 0.1,
                                   "--variant", "average", "--draws", 2,
                                   "--seed", 9]),
                        ("config", ["--config", config])]:
        out, trace = tmp_path / f"{name}.wav", tmp_path / f"{name}.txt"
        assert run(*base, *extra, "--trace", trace, "-o", out) == 0
        outs[name] = (file_bytes(out), file_bytes(trace))
    assert outs["config"] == outs["flags"]
    assert len(outs["flags"][1].splitlines()) == 3


def test_config_with_a_repeated_key_is_validation_error(tmp_path, capsys):
    # the last of the two values is not taken without a word
    config = tmp_path / "c.cfg"
    config.write_text("rt60=0.5\nrt60=0.7\n")
    out = tmp_path / "h.wav"
    assert run("sample-rir", "--config", config, "--drr", 0, "-o", out) == 2
    assert f"{config}: repeated rt60 record" in capsys.readouterr().err
    assert not out.exists()


def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("rt60=abc\n")
    out = tmp_path / "h.wav"
    errors = []
    for extra in (["--config", config], ["--rt60", "abc"]):
        with pytest.raises(SystemExit) as exc:
            run("sample-rir", "--drr", 0, *extra, "-o", out)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[0] == errors[1]
    assert "argument --rt60: invalid float value: 'abc'" in errors[0]
    assert not out.exists()


def test_config_value_outside_the_choices_is_validation_error(tmp_path,
                                                             capsys):
    # argparse checks choices on flags only; the handler checks the rest
    dry_path = tmp_path / "dry.wav"
    write_wav(dry_path, Signal(speech_like_noise(FS // 4, FS, rng=1), FS))
    rir_path = tmp_path / "h.wav"
    assert run("sample-rir", "--rt60", 0.2, "--drr", 0, "-o", rir_path) == 0
    config = tmp_path / "run.cfg"
    config.write_text("domain=freq\n")
    out = tmp_path / "wet.wav"
    assert run("reverberate", "--in", dry_path, "--rir", rir_path,
               "--config", config, "-o", out) == 2
    assert "domain must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_naming_command_line_files_are_ignored(tmp_path):
    wet_path = _short_wet(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"in={tmp_path / 'nope.wav'}\n"
                      f"inputs={tmp_path / 'nope.wav'}\n"
                      f"output={tmp_path / 'other.wav'}\ncommand=eval\n"
                      # keys of other subcommands: one file may serve several
                      "domain=stft\nband_radii=1,2\n")
    base = ["dereverb", "--in", wet_path, "--rt60", 0.25, "--drr", 0,
            "--max-iters", 2]
    assert run(*base, "--config", config, "-o", tmp_path / "a.wav") == 0
    assert run(*base, "-o", tmp_path / "b.wav") == 0
    assert file_bytes(tmp_path / "a.wav") == file_bytes(tmp_path / "b.wav")
    assert not (tmp_path / "other.wav").exists()


@pytest.mark.parametrize("record", ["max_iter=2", "step_rule=fixed"])
def test_config_key_naming_no_option_is_a_usage_error(tmp_path, capsys,
                                                      record):
    wet_path = _short_wet(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"max_iters=2\n{record}\n")
    out = tmp_path / "a.wav"
    assert run("dereverb", "--in", wet_path, "--rt60", 0.25, "--drr", 0,
               "--config", config, "-o", out) == 2
    key = record.split("=")[0]
    assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_is_validation_error(tmp_path):
    assert run("analyze-rir", "--in", tmp_path / "nope.wav",
               "-o", tmp_path / "r.txt") == 2


def _noise_wavs(tmp_path, *names):
    paths = []
    for i, name in enumerate(names):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        write_wav(path, Signal(speech_like_noise(FS // 2, FS, rng=40 + i), FS))
        paths.append(path)
    return paths


def _recording_reads(monkeypatch):
    reads = []
    read_input_wav = cli._read_input_wav

    def recording(path):
        reads.append(path)
        return read_input_wav(path)

    monkeypatch.setattr(cli, "_read_input_wav", recording)
    return reads


def test_dereverb_batch_rejects_trace(tmp_path, monkeypatch):
    a, b = _noise_wavs(tmp_path, "a.wav", "b.wav")
    out = tmp_path / "out"
    out.mkdir()
    trace = tmp_path / "t.txt"
    reads = _recording_reads(monkeypatch)
    assert run("dereverb", "--in", a, "--in", b, "--rt60", 0.25, "--drr", 0,
               "--max-iters", 2, "--trace", trace, "-o", out) == 2
    assert reads == []
    assert os.listdir(out) == []
    assert not trace.exists()


def test_dereverb_batch_rejects_duplicate_output_names(tmp_path, monkeypatch):
    a, b, c = _noise_wavs(tmp_path, "a/x.wav", "b/x.wav", "c/y.wav")
    out = tmp_path / "out"
    out.mkdir()
    reads = _recording_reads(monkeypatch)
    for workers in (1, 2):
        assert run("dereverb", "--in", a, "--in", c, "--in", b, "--rt60", 0.25,
                   "--drr", 0, "--max-iters", 2, "--workers", workers,
                   "-o", out) == 2
    assert reads == []
    assert os.listdir(out) == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, revmatch.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_dereverb_refuses_to_overwrite_an_input(tmp_path, monkeypatch):
    x0, x1 = _noise_wavs(tmp_path, "d/x0.wav", "d/x1.wav")
    before = [file_bytes(x0), file_bytes(x1)]
    reads = _recording_reads(monkeypatch)
    base = ["dereverb", "--rt60", 0.3, "--drr", 0, "--max-iters", 2]
    d = tmp_path / "d"
    assert run(*base, "--in", x0, "-o", x0) == 2
    assert run(*base, "--in", x0, "-o", d / ".." / "d" / "x0.wav") == 2
    assert run(*base, "--in", x0, "--trace", x0, "-o", tmp_path / "o.wav") == 2
    assert run(*base, "--in", x0, "--in", x1, "-o", d) == 2
    assert reads == []
    assert [file_bytes(x0), file_bytes(x1)] == before
    assert sorted(os.listdir(d)) == ["x0.wav", "x1.wav"]
    assert not (tmp_path / "o.wav").exists()


def test_dereverb_refuses_a_trace_naming_the_output(tmp_path, monkeypatch,
                                                    capsys):
    (x0,) = _noise_wavs(tmp_path, "x0.wav")
    reads = _recording_reads(monkeypatch)
    out = tmp_path / "o.wav"
    for trace in (out, tmp_path / "." / "o.wav"):
        assert run("dereverb", "--in", x0, "--rt60", 0.3, "--drr", 0,
                   "--max-iters", 2, "--trace", trace, "-o", out) == 2
        assert "would overwrite output" in capsys.readouterr().err
    assert reads == []
    assert not out.exists()


def test_dereverb_single_input_to_directory_is_validation_error(
        tmp_path, monkeypatch):
    (x0,) = _noise_wavs(tmp_path, "x0.wav")
    out = tmp_path / "outd"
    out.mkdir()
    reads = _recording_reads(monkeypatch)
    assert run("dereverb", "--in", x0, "--rt60", 0.3, "--drr", 0,
               "--max-iters", 2, "-o", out) == 2
    assert reads == []
    assert os.listdir(out) == []
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp")] == []


@pytest.mark.parametrize("workers", [0, -1])
def test_dereverb_rejects_workers_below_one(tmp_path, monkeypatch, workers):
    a, b = _noise_wavs(tmp_path, "a.wav", "b.wav")
    out = tmp_path / "out"
    out.mkdir()
    reads = _recording_reads(monkeypatch)
    base = ["dereverb", "--rt60", 0.3, "--drr", 0, "--max-iters", 2,
            "--workers", workers]
    assert run(*base, "--in", a, "-o", tmp_path / "single.wav") == 2
    assert run(*base, "--in", a, "--in", b, "-o", out) == 2
    assert reads == []
    assert os.listdir(out) == []
    assert not (tmp_path / "single.wav").exists()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_dereverb_refuses_rt60_and_a_calibration_together(tmp_path,
                                                          monkeypatch, capsys,
                                                          source):
    # a calibration next to --rt60 used to be ignored without a word
    (x0,) = _noise_wavs(tmp_path, "x0.wav")
    cal = tmp_path / "cal.txt"
    Rt60Calibration(c0=0.0, c1=1.0, c2=0.0).to_file(cal)
    config = tmp_path / "run.cfg"
    config.write_text(f"calibration={cal}\n")
    extra = (["--calibration", cal] if source == "flags"
             else ["--config", config])
    reads = _recording_reads(monkeypatch)
    out = tmp_path / "o.wav"
    assert run("dereverb", "--in", x0, "--rt60", 0.3, "--max-iters", 2,
               *extra, "-o", out) == 2
    assert ("dereverb takes one source: --calibration or --rt60/--drr, "
            "not both") in capsys.readouterr().err
    assert reads == []
    assert not out.exists()


@pytest.mark.parametrize("missing", ["output", "trace"])
def test_dereverb_missing_output_directory_is_found_before_the_solve(
        tmp_path, monkeypatch, capsys, missing):
    (x0,) = _noise_wavs(tmp_path, "x0.wav")
    nodir = tmp_path / "nodir"
    out = nodir / "o.wav" if missing == "output" else tmp_path / "o.wav"
    trace = nodir / "t.txt" if missing == "trace" else tmp_path / "t.txt"
    before = sorted(os.listdir(tmp_path))
    reads = _recording_reads(monkeypatch)
    assert run("dereverb", "--in", x0, "--rt60", 0.3, "--drr", 0,
               "--max-iters", 2, "--trace", trace, "-o", out) == 2
    assert f"directory {nodir} of" in capsys.readouterr().err
    assert reads == []
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("bad", ["true-params", "est-report"])
def test_eval_non_numeric_record_names_its_file_and_key(tmp_path, capsys,
                                                        bad):
    sig_path = tmp_path / "x.wav"
    write_wav(sig_path, Signal(speech_like_noise(FS // 4, FS, rng=3), FS))
    truth_path = tmp_path / "truth.txt"
    truth_path.write_text("rt60=0.5\ndrr_db="
                          + ("x" if bad == "true-params" else "2") + "\n")
    est_report = tmp_path / "est.txt"
    est_report.write_text("rt60=0.6\ndrr_db="
                          + ("x" if bad == "est-report" else "-1") + "\n")
    out = tmp_path / "eval.txt"
    assert run("eval", "--est", sig_path, "--ref", sig_path,
               "--true-params", truth_path, "--est-report", est_report,
               "-o", out) == 2
    path = truth_path if bad == "true-params" else est_report
    assert (f"{path}: drr_db record 'x' is not a valid float"
            in capsys.readouterr().err)
    assert not out.exists()


_MISSING_DIR_ARGS = {
    "sample-rir": ("--rt60", 0.3, "--drr", 0),
    "analyze-rir": ("--in", "{rir}"),
    "reverberate": ("--in", "{wav}", "--rir", "{rir}"),
    "calibrate": ("--synthetic", 5, "--duration", 1.0),
    "analyze-blind": ("--in", "{wav}", "--calibration", "{cal}"),
    "eval": ("--est", "{wav}", "--ref", "{wav}"),
    "bench": ("--band-radii", "1"),
}


@pytest.mark.parametrize("command", sorted(_MISSING_DIR_ARGS))
def test_missing_output_directory_is_found_before_the_work(
        tmp_path, monkeypatch, capsys, command):
    (wav,) = _noise_wavs(tmp_path, "x.wav")
    files = {"wav": wav, "rir": tmp_path / "h.wav",
             "cal": tmp_path / "cal.txt"}
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0,
               "-o", files["rir"]) == 0
    Rt60Calibration(c0=0.0, c1=1.0, c2=0.0).to_file(files["cal"])
    fits = []
    monkeypatch.setattr(cli, "calibrate_rt60",
                        lambda *a, **k: fits.append(a))
    before = sorted(os.listdir(tmp_path))
    nodir = tmp_path / "nodir"
    args = [str(a).format(**files) for a in _MISSING_DIR_ARGS[command]]
    assert run(command, *args, "-o", nodir / "out.txt") == 2
    assert f"directory {nodir} of" in capsys.readouterr().err
    assert fits == []
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", sorted(_MISSING_DIR_ARGS))
def test_output_naming_a_directory_is_refused_before_the_work(
        tmp_path, monkeypatch, capsys, command):
    # the rename onto a directory used to fail only after the work, with
    # exit 1
    (wav,) = _noise_wavs(tmp_path, "x.wav")
    files = {"wav": wav, "rir": tmp_path / "h.wav",
             "cal": tmp_path / "cal.txt"}
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0,
               "-o", files["rir"]) == 0
    Rt60Calibration(c0=0.0, c1=1.0, c2=0.0).to_file(files["cal"])
    fits = []
    monkeypatch.setattr(cli, "calibrate_rt60",
                        lambda *a, **k: fits.append(a))
    reads = _recording_reads(monkeypatch)
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    before = sorted(os.listdir(tmp_path))
    args = [str(a).format(**files) for a in _MISSING_DIR_ARGS[command]]
    assert run(command, *args, "-o", outdir) == 2
    assert (f"output {outdir} is a directory, not a file"
            in capsys.readouterr().err)
    assert fits == [] and reads == []
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(outdir) == []


def test_dereverb_trace_naming_a_directory_is_refused_before_the_solve(
        tmp_path, monkeypatch, capsys):
    # the output used to be written before the trace failed, with exit 1
    (x0,) = _noise_wavs(tmp_path, "x0.wav")
    trace = tmp_path / "tracedir"
    trace.mkdir()
    out = tmp_path / "o.wav"
    reads = _recording_reads(monkeypatch)
    assert run("dereverb", "--in", x0, "--rt60", 0.3, "--drr", 0,
               "--max-iters", 2, "--trace", trace, "-o", out) == 2
    assert (f"trace {trace} is a directory, not a file"
            in capsys.readouterr().err)
    assert reads == []
    assert not out.exists()
    assert os.listdir(trace) == []


@pytest.mark.parametrize("option", ["rir", "calibration", "config"])
def test_input_naming_a_directory_is_a_validation_error(tmp_path, capsys,
                                                        option):
    (wav,) = _noise_wavs(tmp_path, "x.wav")
    rir_path = tmp_path / "h.wav"
    assert run("sample-rir", "--rt60", 0.3, "--drr", 0, "-o", rir_path) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "o.wav"
    args = {
        "rir": ["reverberate", "--in", wav, "--rir", folder],
        "calibration": ["dereverb", "--in", wav, "--calibration", folder],
        "config": ["reverberate", "--in", wav, "--rir", rir_path,
                   "--config", folder],
    }[option]
    assert run(*args, "-o", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert not out.exists()
