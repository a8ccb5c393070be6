"""Model-based dereverberation built on reverberation matching: stochastic
RIR synthesis from scalar acoustic parameters, exact STFT-domain convolution,
acoustic parameter estimation, and a per-sample training-less solver."""

from .blind import (BlindConfig, BlindEstimate, InsufficientDecay,
                    Rt60Calibration, analyze_blind, blind_drr, calibrate_rt60,
                    fit_rt60_polynomial, raw_decay_estimate,
                    speech_like_noise, speech_shaped_noise)
from .loss import (DegenerateGradNorm, LossConfig, LossReport, gradnorm_alpha,
                   loss_complex, loss_mag, rm_loss)
from .metrics import MetricReport, evaluate, sisdr
from .rir import (AcousticParams, EdcAnalysis, Rir, analyze_rir, edc,
                  min_rir_length, read_rir, sample_rir, sigma_from_drr,
                  tau_from_rt60, write_rir)
from .signals import (Signal, Spectrogram, StftConfig, default_stft_config,
                      istft, read_wav, stft, write_wav)
from .solver import (DivergenceError, Passthrough, SolverConfig, SolveTrace,
                     dereverb_pipeline, trainingless_dereverb)
from .tfconv import ConvKernel, apply, apply_adjoint, build_kernel

__version__ = "0.1.0"

__all__ = [
    "AcousticParams", "BlindConfig", "BlindEstimate", "ConvKernel",
    "DegenerateGradNorm", "DivergenceError", "EdcAnalysis",
    "InsufficientDecay", "LossConfig", "LossReport", "MetricReport",
    "Passthrough", "Rir", "Rt60Calibration", "Signal",
    "SolveTrace",
    "SolverConfig", "Spectrogram", "StftConfig", "analyze_blind",
    "analyze_rir", "apply", "apply_adjoint", "blind_drr", "build_kernel",
    "calibrate_rt60", "default_stft_config", "dereverb_pipeline", "edc",
    "evaluate", "fit_rt60_polynomial", "gradnorm_alpha", "istft",
    "loss_complex", "loss_mag",
    "min_rir_length", "raw_decay_estimate", "read_rir",
    "read_wav", "rm_loss", "sample_rir", "sigma_from_drr", "sisdr",
    "speech_like_noise", "speech_shaped_noise", "stft", "tau_from_rt60",
    "trainingless_dereverb", "write_rir", "write_wav",
]
