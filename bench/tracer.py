"""Per-layer spans recorded from outside the package.

Each layer is a set of public qiopa functions.  :func:`install` wraps every
one of them and patches the wrapper into each qiopa module that bound the
function's name (``from .fock import rotate_dense`` makes a second binding in
``qiopa.witnesses``), so calls between modules are seen too.  A span's self
time is its duration minus the time of the spans it called; a layer's
``calls`` counts entries into the layer from outside it.  With memory
tracking on, a span's peak is the most memory tracemalloc saw allocated
above the span's starting point while it ran.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# layer -> (module, functions)
LAYERS = {
    "cli.resolve": ("qiopa.cli", ("resolve_config",)),
    # the CLI's output stage has no public name
    "cli.emit": ("qiopa.cli", ("_emit",)),
    "fock.rotate": ("qiopa.fock", ("rotate_dense", "rotate_basis")),
    "amplifier.state": ("qiopa.amplifier", (
        "macro_qubit", "hv_macro_state", "micro_macro_state", "micro_macro_state_hv", "amplified_vacuum",
    )),
    "channels.kraus": ("qiopa.channels", ("loss_kraus_images", "lossy_channel")),
    "channels.condition": ("qiopa.channels", (
        "conditioning_cutoff", "attenuate_to_single_photon", "attenuated_injection_pipeline",
    )),
    "measurement.sigma_op": ("qiopa.measurement", ("sigma_operator",)),
    "measurement.stokes": ("qiopa.measurement", (
        "stokes_terms", "stokes_operators", "stokes_correlation", "stokes_correlation_lossy",
    )),
    "measurement.fringe": ("qiopa.measurement", ("lossy_fringe_probabilities", "visibility")),
    "witnesses.sigma": ("qiopa.witnesses", ("sigma_witness_lossy", "micro_macro_sigma_witness")),
    "witnesses.ofilter": ("qiopa.witnesses", ("ofilter_witness_lossy", "ofilter_witness")),
    "witnesses.spin": ("qiopa.witnesses", ("simon_spin_witness_lossy", "simon_spin_witness")),
    "metrics.concurrence": ("qiopa.metrics", (
        "concurrence_2x2", "analytic_concurrence", "concurrence_with_injection",
    )),
    "metrics.pcrit_scan": ("qiopa.metrics", ("critical_injection_scan",)),
}

# (layer, statistic) pairs reported per pass, each as <layer>.<stat>.cold/.warm
REPORTED = (
    ("cli.resolve", "self_s"), ("cli.emit", "self_s"),
    ("fock.rotate", "self_s"), ("fock.rotate", "calls"),
    ("amplifier.state", "self_s"), ("amplifier.state", "calls"),
    ("channels.kraus", "self_s"), ("channels.kraus", "calls"), ("channels.kraus", "peak_mb"),
    ("channels.condition", "self_s"), ("channels.condition", "calls"),
    ("measurement.sigma_op", "self_s"), ("measurement.stokes", "self_s"),
    ("measurement.fringe", "self_s"), ("measurement.fringe", "calls"),
    ("witnesses.sigma", "self_s"), ("witnesses.ofilter", "self_s"), ("witnesses.spin", "self_s"),
    ("witnesses.sigma", "peak_mb"),
    ("metrics.concurrence", "self_s"), ("metrics.pcrit_scan", "self_s"), ("metrics.pcrit_scan", "calls"),
)

UNITS = {"self_s": "s", "calls": "count", "peak_mb": "MB"}


class _Frame:
    __slots__ = ("layer", "start", "children", "mem_start", "mem_peak")

    def __init__(self, layer, start, mem_start):
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.mem_start = mem_start
        self.mem_peak = mem_start


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.peak_bytes = dict.fromkeys(LAYERS, 0)

    def _enter(self, layer: str) -> None:
        if not self._stack or self._stack[-1].layer != layer:
            self.calls[layer] += 1
        mem = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)
            tracemalloc.reset_peak()
            mem = current
        self._stack.append(_Frame(layer, time.perf_counter(), mem))

    def _exit(self) -> None:
        frame = self._stack.pop()
        duration = time.perf_counter() - frame.start
        self.self_s[frame.layer] += duration - frame.children
        if self._stack:
            self._stack[-1].children += duration
        if self.memory:
            peak = max(frame.mem_peak, tracemalloc.get_traced_memory()[1])
            used = peak - frame.mem_start
            self.peak_bytes[frame.layer] = max(self.peak_bytes[frame.layer], used)
            if self._stack:
                parent = self._stack[-1]
                parent.mem_peak = max(parent.mem_peak, peak)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def snapshot(self, scale: float) -> dict[str, float]:
        """Every layer's calls and the reported statistics of the spans
        since :meth:`reset`; times are multiplied by ``scale`` (the pass's
        calibration factor)."""
        out = {f"{layer}.calls": calls for layer, calls in self.calls.items()}
        for layer, stat in REPORTED:
            if stat == "self_s":
                out[f"{layer}.self_s"] = self.self_s[layer] * scale
            elif stat == "peak_mb":
                out[f"{layer}.peak_mb"] = self.peak_bytes[layer] / 2**20
        return out


def install(tracer: Tracer) -> list:
    """Patch a traced wrapper over every layer function into every loaded
    qiopa module that binds it; returns what :func:`uninstall` restores."""
    modules = [m for name, m in sys.modules.items() if name == "qiopa" or name.startswith("qiopa.")]
    patched = []
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules.get(module_name)
        if module is None:  # the workload never loads it
            continue
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                print(f"tracer: {module_name}.{name} not found; layer {layer} misses it", file=sys.stderr)
                continue
            wrapper = tracer.wrap(layer, original)
            for m in modules:
                if getattr(m, name, None) is original:
                    setattr(m, name, wrapper)
                    patched.append((m, name, original))
    return patched


def uninstall(patched: list) -> None:
    for module, name, original in reversed(patched):
        setattr(module, name, original)
