"""In-memory span recorder for the traced run.

The recorder wraps public revmatch functions at the module attribute that
their callers look up at call time, so nothing inside the package changes:
a wrapper times the call, remembers its caller span, and passes arguments and
return value through untouched. ``uninstall`` puts every original binding
back. Spans stay in memory until the run writes them out at the end.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SETUP = "setup"


@dataclass
class Span:
    name: str
    file: object
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


def _solve_info(result):
    _, trace = result
    return {"iterations": trace.iterations_used, "best": trace.best_index,
            "converged": bool(trace.converged)}


def _kernel_info(kernel):
    return {"nbytes": int(kernel.data.nbytes)}


def _blind_info(est):
    return {"rt60": float(est.rt60), "drr_db": float(est.drr_db),
            "anechoic": bool(est.anechoic)}


def bindings(rm):
    """(module, attribute, span name, return-value recorder) per wrapped call.

    ``rm`` is the imported ``revmatch`` package. Each function is wrapped at
    every binding a caller resolves at call time: the ``cli`` and ``solver``
    modules hold their own references to ``stft``, ``istft`` and the solver,
    while ``loss`` and ``blind`` reach ``tfconv`` through its module.
    """
    cli, solver, signals = rm.cli, rm.solver, rm.signals
    tfconv, rir, blind = rm.tfconv, rm.rir, rm.blind
    return [
        (cli, "main", "cli.main", None),
        (cli, "stft", "signals.stft", None),
        (cli, "istft", "signals.istft", None),
        (cli, "trainingless_dereverb", "solver.solve", _solve_info),
        (solver, "stft", "signals.stft", None),
        (solver, "istft", "signals.istft", None),
        (solver, "trainingless_dereverb", "solver.solve", _solve_info),
        (solver, "rm_loss", "loss.rm_loss", None),
        (signals, "stft", "signals.stft", None),
        (signals, "istft", "signals.istft", None),
        (tfconv, "build_kernel", "tfconv.build_kernel", _kernel_info),
        (tfconv, "apply", "tfconv.apply", None),
        (tfconv, "apply_adjoint", "tfconv.apply_adjoint", None),
        (rir, "sample_rir", "rir.sample_rir", None),
        (blind, "raw_decay_estimate", "blind.raw_decay_estimate", None),
        (blind, "blind_drr", "blind.blind_drr", None),
        (blind, "analyze_blind", "blind.analyze_blind", _blind_info),
    ]


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self, binding_list):
        self._bindings = binding_list
        self._saved = []
        self._stack = []
        self.spans = []
        self.file = SETUP

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.file,
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(result)
            return result
        return traced

    def install(self):
        for module, attr, name, info in self._bindings:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def file_span(self, file_id):
        """Root span of one file; every call made inside it shares its id."""
        self.file = file_id
        span = Span("file", file_id, None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.file = SETUP

    def to_json(self):
        return [{"name": s.name, "file": s.file, "parent": s.parent,
                 "start": s.start, "end": s.end, "error": s.error,
                 "info": s.info} for s in self.spans]


@contextmanager
def record_returns(module, attr, sink, key):
    """Pass-through wrapper that only appends ``(key(), return value)``."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((key(), result))
        return result

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)
