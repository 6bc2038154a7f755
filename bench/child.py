"""One fresh interpreter of the benchmark; started by run.py, never by hand.

``python3 bench/child.py '<json>'`` with keys ``mode``, ``workload``,
``seed`` and ``budget_s``.  The modes:

* ``run``: time the set-up (import plus resolved configuration), the first
  (cold) pass and warm passes until the budget is spent;
* ``trace``: a traced cold pass, then untraced and traced warm passes in
  turn, for the per-layer self times and the tracing overhead;
* ``memory``: a cold and a warm pass under tracemalloc, for span peaks;
* ``importtime``: import ``qiopa.cli`` under ``-X importtime`` after a
  marker line on stderr.

Every timed pass is bracketed by the calibration kernel and reported in
calibrated seconds next to its raw wall time.  Prints one JSON object as the
last line of stdout.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import statistics
import sys
import time

import workloads

IMPORT_MARKER = "bench: importing qiopa.cli"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.spec = workloads.WORKLOADS[workload]
        self.ops = self.spec.build(seed)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: dict[str, str] = {}
        self.calibrate = None

    def setup(self) -> dict:
        start = time.perf_counter()
        importlib.import_module(self.spec.entry)
        self.resolved = [op.resolve() for op in self.ops]
        raw = time.perf_counter() - start
        import calibrate  # numpy is loaded by now, so it is not charged to set-up

        self.calibrate = calibrate
        self.cal = calibrate.measure()
        return {"raw": raw, "cal": raw * calibrate.REFERENCE_S / self.cal}

    def timed_pass(self) -> dict:
        """One round of every operation, timed and then checked."""
        gc.collect()
        before = self.cal if self.cal is not None else self.calibrate.measure()
        start = time.perf_counter()
        outputs = []
        for op, resolved in zip(self.ops, self.resolved):
            try:
                outputs.append(op.run(resolved))
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(exc)
        raw = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = self.calibrate.measure()
        self.cal = None
        scale = self.calibrate.REFERENCE_S / (0.5 * (before + after))
        self._check(outputs)
        return {"raw": raw, "cal": raw * scale, "scale": scale, "rss_mb": rss_mb}

    def _check(self, outputs) -> None:
        for op, out in zip(self.ops, outputs):
            self.attempted += 1
            problems = [f"raised {out!r}"] if isinstance(out, Exception) else op.check(out)
            if not problems:
                continue
            self.failed += 1
            if op.known_fault is None:
                self.unexpected.append(f"{op.label}: " + "; ".join(problems[:3]))
            else:
                self.known[op.label] = f"{op.known_fault} ({problems[0]})"

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected[:10],
            "known": self.known,
        }


def _median_metrics(snapshots: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in snapshots) for key in snapshots[0]}


def mode_run(runner: Runner, budget: float, start: float) -> dict:
    setup = runner.setup()
    cold = runner.timed_pass()
    warm = []
    while not warm or time.perf_counter() - start + warm[-1]["raw"] * 1.1 < budget:
        warm.append(runner.timed_pass())
    return {"setup": setup, "cold": cold, "warm": warm}


def mode_trace(runner: Runner, budget: float, start: float) -> dict:
    import tracer

    runner.setup()
    spans = tracer.Tracer()
    patched = tracer.install(spans)
    cold = runner.timed_pass()
    cold_layers = spans.snapshot(cold["scale"])
    traced, untraced, warm_layers = [], [], []
    while not traced or time.perf_counter() - start + 2.2 * traced[-1]["raw"] < budget:
        tracer.uninstall(patched)
        untraced.append(runner.timed_pass())
        patched = tracer.install(spans)
        spans.reset()
        traced.append(runner.timed_pass())
        warm_layers.append(spans.snapshot(traced[-1]["scale"]))
    tracer.uninstall(patched)
    return {
        "cold": cold_layers,
        "warm": _median_metrics(warm_layers),
        "overhead_s": statistics.median(p["cal"] for p in traced)
        - statistics.median(p["cal"] for p in untraced),
    }


def mode_memory(runner: Runner, budget: float, start: float) -> dict:
    import tracemalloc

    import tracer

    runner.setup()
    spans = tracer.Tracer(memory=True)
    patched = tracer.install(spans)
    tracemalloc.start()
    runner.timed_pass()
    cold = spans.snapshot(1.0)
    spans.reset()
    runner.timed_pass()
    warm = spans.snapshot(1.0)
    tracemalloc.stop()
    tracer.uninstall(patched)
    peaks = [key for key in cold if key.endswith(".peak_mb")]
    return {"cold": {k: cold[k] for k in peaks}, "warm": {k: warm[k] for k in peaks}}


def mode_importtime() -> dict:
    print(IMPORT_MARKER, file=sys.stderr, flush=True)
    importlib.import_module("qiopa.cli")
    import calibrate

    return {"scale": calibrate.REFERENCE_S / calibrate.measure()}


def main() -> None:
    start = time.perf_counter()
    cfg = json.loads(sys.argv[1])
    if cfg["mode"] == "importtime":
        result = mode_importtime()
    else:
        runner = Runner(cfg["workload"], cfg["seed"])
        mode = {"run": mode_run, "trace": mode_trace, "memory": mode_memory}[cfg["mode"]]
        result = mode(runner, cfg["budget_s"], start)
        result.update(runner.counts())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
