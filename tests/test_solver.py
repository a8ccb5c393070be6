import dataclasses

import numpy as np
import pytest
from scipy.signal import fftconvolve

import revmatch.rir as rir
import revmatch.solver as solver
import revmatch.tfconv as tfconv
from revmatch.loss import Observation, rm_loss
from revmatch.rir import AcousticParams, Rir, sample_rir
from revmatch.seeding import STREAM_SOLVER_ITERS, as_path
from revmatch.signals import (Spectrogram, default_stft_config, fft_convolve,
                              istft, speech_like_noise, stft)
from revmatch.solver import (DivergenceError, SolverConfig,
                             trainingless_dereverb)

FS = 16000


def test_adam_step_is_the_textbook_update():
    # Kingma & Ba's Algorithm 1, out of place, in the same association as
    # the in-place step; the step's work arrays start as garbage
    rng = np.random.default_rng(21)
    x = rng.standard_normal(257)
    ref_x, ref_m, ref_v = x.copy(), np.zeros_like(x), np.zeros_like(x)
    m, v = np.zeros_like(x), np.zeros_like(x)
    step, denom = np.full_like(x, np.nan), np.full_like(x, np.nan)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 5e-2
    for t in range(1, 8):
        grad = rng.standard_normal(x.size) * 10.0 ** rng.integers(-3, 3)
        kept = grad.copy()
        solver._adam_step(x, grad, t, lr, m, v, step, denom)
        ref_m = b1 * ref_m + (1 - b1) * grad
        ref_v = b2 * ref_v + (1 - b2) * grad ** 2
        m_hat = ref_m / (1 - b1 ** t)
        v_hat = ref_v / (1 - b2 ** t)
        ref_x = ref_x - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_array_equal(grad, kept)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)
        np.testing.assert_array_equal(x, ref_x)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    for step_size in (0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="step_size"):
            SolverConfig(step_size=step_size)
    with pytest.raises(ValueError, match="stop_rel_tol"):
        SolverConfig(stop_rel_tol=np.nan)
    SolverConfig(stop_rel_tol=-np.inf)


def test_dirac_delta_rir_immediate_stop(cfg):
    # identity filter: the start iterate already matches, so the solver stops
    # at iteration 0 (exactness needs the untruncated kernel)
    rng = np.random.default_rng(0)
    y = stft(rng.standard_normal(6000), cfg)
    delta = Rir(np.array([1.0]), FS)
    scfg = SolverConfig(max_iters=50)
    shat, trace = trainingless_dereverb(y, delta, scfg)
    assert trace.iterations_used == 1
    assert trace.converged
    y_norm_energy = y.data.size  # unit-RMS normalization inside the solver
    assert trace.totals[0] <= 1e-14 * y_norm_energy
    np.testing.assert_allclose(shat.data, y.data, atol=1e-12)


def test_dirac_oracle_deconvolution_quick(cfg):
    # known-RIR solve drives the complex term far below its initial value
    params = AcousticParams(rt60=0.15, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=3)
    s = speech_like_noise(FS // 2, FS, rng=11)
    y = stft(fftconvolve(s, h.taps), cfg)
    scfg = SolverConfig(max_iters=120, seed=0)
    shat, trace = trainingless_dereverb(y, h, scfg)
    l_c = np.array([r.l_complex for r in trace.reports])
    assert l_c.min() <= 1e-2 * l_c[0]
    assert trace.totals[trace.best_index] <= trace.totals[0]


def test_probabilistic_strict_decrease(cfg):
    params = AcousticParams(rt60=0.25, drr_db=0.0, sample_rate=FS)
    for seed in range(3):
        h = sample_rir(params, rng=50 + seed)
        s = speech_like_noise(FS // 2, FS, rng=60 + seed)
        y = stft(fftconvolve(s, h.taps), cfg)
        scfg = SolverConfig(max_iters=20, seed=seed)
        _, trace = trainingless_dereverb(y, params, scfg)
        assert trace.totals.min() < trace.totals[0]
        assert trace.iterations_used == len(trace.reports)


def test_returned_iterate_not_worse_than_initial(cfg):
    params = AcousticParams(rt60=0.2, drr_db=3.0, sample_rate=FS)
    h = sample_rir(params, rng=9)
    s = speech_like_noise(FS // 2, FS, rng=10)
    y = stft(fftconvolve(s, h.taps), cfg)
    _, trace = trainingless_dereverb(
        y, params, SolverConfig(max_iters=15, seed=1))
    assert trace.totals[trace.best_index] <= trace.totals[0]


def test_non_finite_observation_rejected(cfg):
    y = stft(speech_like_noise(FS // 2, FS, rng=4), cfg)
    y.data[3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        trainingless_dereverb(y, AcousticParams(rt60=0.2, drr_db=0.0),
                              SolverConfig(max_iters=3))


def test_acoustics_of_another_type_rejected(cfg):
    y = stft(speech_like_noise(FS // 2, FS, rng=4), cfg)
    with pytest.raises(TypeError, match="AcousticParams or a Rir"):
        trainingless_dereverb(y, (0.2, 0.0), SolverConfig(max_iters=3))


def test_non_finite_loss_is_divergence(cfg, monkeypatch):
    params = AcousticParams(rt60=0.2, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=5)
    y = stft(fftconvolve(speech_like_noise(FS // 2, FS, rng=6), h.taps), cfg)
    real_rm_loss = solver.rm_loss
    calls = []

    def nan_at_third_iteration(*args, **kwargs):
        report, grad = real_rm_loss(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            report = dataclasses.replace(report, total=np.nan)
        return report, grad

    monkeypatch.setattr(solver, "rm_loss", nan_at_third_iteration)
    with pytest.raises(DivergenceError, match="iteration 2"):
        trainingless_dereverb(y, h, SolverConfig(max_iters=6))


def test_determinism(cfg):
    params = AcousticParams(rt60=0.2, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=5)
    s = speech_like_noise(FS // 2, FS, rng=6)
    y = stft(fftconvolve(s, h.taps), cfg)
    scfg = SolverConfig(max_iters=12, seed=7)
    a, trace_a = trainingless_dereverb(y, params, scfg)
    b, trace_b = trainingless_dereverb(y, params, scfg)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(trace_a.totals, trace_b.totals)


def test_divergence_guard(cfg):
    params = AcousticParams(rt60=0.2, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=5)
    s = speech_like_noise(FS // 2, FS, rng=6)
    y = stft(fftconvolve(s, h.taps), cfg)
    # Adam's first steps are step_size per sample, far past the dry signal
    scfg = SolverConfig(max_iters=200, step_size=10.0, seed=0)
    with pytest.raises(DivergenceError, match="exceeded 10x initial"):
        trainingless_dereverb(y, params, scfg)


def test_trace_lines_format(cfg):
    params = AcousticParams(rt60=0.2, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=5)
    s = speech_like_noise(FS // 2, FS, rng=6)
    y = stft(fftconvolve(s, h.taps), cfg)
    _, trace = trainingless_dereverb(
        y, h, SolverConfig(max_iters=3))
    lines = trace.to_lines().splitlines()
    assert len(lines) == trace.iterations_used
    assert lines[0].startswith("iter=0 l_complex=")


@pytest.mark.parametrize("which", [0, 1], ids=["dirac", "polack"])
def test_loss_of_the_written_output_is_the_best_total(which):
    # the loss scores exactly the samples istft writes: recomputed from the
    # returned grid, on the solver's unit-RMS scale, it is the best total
    y, acoustics = known_rir_and_params()
    scfg = SolverConfig(max_iters=15, stop_rel_tol=-np.inf, seed=5)
    shat, trace = trainingless_dereverb(y, acoustics[which], scfg)
    scale = np.sqrt(np.mean(istft(y) ** 2))
    y_norm = Spectrogram(y.data / scale, y.config, y.num_samples)
    report, _ = rm_loss(
        Observation(y_norm), istft(shat) / scale, acoustics[which],
        scfg.loss_cfg,
        seed=(*as_path(scfg.seed), STREAM_SOLVER_ITERS, trace.best_index))
    best = trace.totals[trace.best_index]
    assert trace.best_index > 0
    assert abs(report.total - best) <= 1e-12 * best


def test_best_iterate_is_not_overwritten_by_later_iterates():
    # the solver steps x in place and keeps a copy of the best iterate:
    # with later iterates after it, the returned grid still re-scores to
    # the best total under the RIR drawn at best_index
    y, acoustics = known_rir_and_params()
    params = acoustics[1]
    scfg = SolverConfig(max_iters=15, stop_rel_tol=-np.inf, seed=1)
    shat, trace = trainingless_dereverb(y, params, scfg)
    assert trace.best_index < trace.iterations_used - 1
    scale = np.sqrt(np.mean(istft(y) ** 2))
    y_norm = Spectrogram(y.data / scale, y.config, y.num_samples)
    report, _ = rm_loss(
        Observation(y_norm), istft(shat) / scale, params, scfg.loss_cfg,
        seed=(*as_path(scfg.seed), STREAM_SOLVER_ITERS, trace.best_index))
    best = trace.totals[trace.best_index]
    assert abs(report.total - best) <= 1e-9 * best


def test_a_solve_of_another_length_in_between_changes_nothing(cfg):
    # every solve sizes its own scratch: a solve of another length between
    # two equal solves leaves the second bit-equal to the first
    y, acoustics = known_rir_and_params()
    other = stft(speech_like_noise(FS // 3, FS, rng=23), cfg)
    scfg = SolverConfig(max_iters=4, seed=2)
    for acoustic in acoustics:
        first, first_trace = trainingless_dereverb(y, acoustic, scfg)
        trainingless_dereverb(other, acoustic, scfg)
        again, again_trace = trainingless_dereverb(y, acoustic, scfg)
        assert np.array_equal(again.data, first.data)
        assert again_trace.to_lines() == first_trace.to_lines()


def test_cut_observation_output_has_no_zero_tail(cfg):
    # a recording is cut at its own length: every output sample is
    # estimated, up to the last one
    params = AcousticParams(rt60=0.9, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=31)
    n = 3 * FS
    wet = fft_convolve(speech_like_noise(n, FS, rng=32), h.taps)[:n]
    shat, _ = trainingless_dereverb(stft(wet, cfg), h,
                                    SolverConfig(max_iters=3))
    out = istft(shat, length=n)
    assert np.all(out[-cfg.hop:] != 0.0)


def known_rir_and_params():
    params = AcousticParams(rt60=0.3, drr_db=0.0, sample_rate=FS)
    h = sample_rir(params, rng=21)
    y = stft(fftconvolve(speech_like_noise(FS // 2, FS, rng=22), h.taps),
             default_stft_config())
    return y, [h, params]


@pytest.mark.parametrize("which", [0, 1], ids=["dirac", "polack"])
def test_solve_runs_no_complex_fft(which, monkeypatch):
    y, acoustics = known_rir_and_params()
    calls = []
    for name in ("fft", "ifft"):
        def counting(*args, _real=getattr(np.fft, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    _, trace = trainingless_dereverb(y, acoustics[which],
                                     SolverConfig(max_iters=5))
    assert trace.iterations_used >= 2
    assert calls == []


@pytest.mark.parametrize("which", [0, 1], ids=["dirac", "polack"])
def test_solve_leaves_its_inputs_unchanged(which):
    # the step works in place on the scratch's arrays and the iterate only
    y, acoustics = known_rir_and_params()
    before = y.data.copy()
    taps = acoustics[0].taps.copy()
    trainingless_dereverb(y, acoustics[which],
                          SolverConfig(max_iters=5))
    assert np.array_equal(y.data, before)
    assert np.array_equal(acoustics[0].taps, taps)


def test_an_rir_spectrum_is_computed_once_per_taps_array(monkeypatch):
    # the scratch keys the RIR's spectrum on its taps array, not on the
    # operator, which rm_loss makes anew on every call: a known RIR's
    # spectrum is computed once per solve, a drawn RIR's once in its draw
    y, (h, params) = known_rir_and_params()
    drawn = []
    sample = rir.sample_rir

    def recording(*args, **kwargs):
        drawn.append(sample(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(rir, "sample_rir", recording)
    inputs = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        inputs.append(a)
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)

    def spectra(taps):
        return sum(a is taps for a in inputs)

    scfg = SolverConfig(max_iters=7, stop_rel_tol=-np.inf)
    _, trace = trainingless_dereverb(y, h, scfg)
    assert trace.iterations_used == 7
    assert spectra(h.taps) == 1
    assert drawn == []
    inputs.clear()
    _, trace = trainingless_dereverb(y, params, scfg)
    assert trace.iterations_used == len(drawn) == 7
    assert [spectra(d.taps) for d in drawn] == [1] * 7


def test_last_capped_iteration_takes_no_gradient(monkeypatch):
    # nothing reads the iterate after the last capped iteration, so that
    # iteration is scored but not backpropagated
    y, (h, _) = known_rir_and_params()
    adjoints = []
    adjoint = tfconv.adjoint

    def counting(*args, **kwargs):
        adjoints.append(1)
        return adjoint(*args, **kwargs)

    monkeypatch.setattr(tfconv, "adjoint", counting)
    _, trace = trainingless_dereverb(
        y, h, SolverConfig(max_iters=5, stop_rel_tol=-np.inf))
    assert trace.iterations_used == 5
    assert len(adjoints) == 4

