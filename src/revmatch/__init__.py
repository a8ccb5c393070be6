"""Model-based dereverberation built on reverberation matching: stochastic
RIR synthesis from scalar acoustic parameters, exact STFT-domain convolution,
acoustic parameter estimation, and a per-sample training-less solver.

Every name is imported from its module, e.g. ``revmatch.rir.sample_rir``."""

from . import (blind, loss, metrics, records, rir, seeding, signals, solver,
               tfconv)
