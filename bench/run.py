"""qiopa benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload witness-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-manifest

Run from any directory of a checkout that holds ``src/qiopa``; the package is
taken from source through ``PYTHONPATH``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Human-readable lines,
raw wall times among them, come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--write-manifest`` writes ``BENCHMARK.json`` at the root of the checkout.
See README.md for what each metric means and how the times are calibrated.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 36
CHILDREN = 4          # fresh interpreters per end-to-end run
IMPORT_SAMPLES = 3    # -X importtime interpreters per traced run
TIME_LIMIT_S = 170.0  # every run ends well inside 180 s

END_TO_END = (
    ("setup_s", "s", 0.25),
    ("cold_s", "s", 0.25),
    ("warm_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
)
# cli.import_s is the whole `import qiopa.cli`; the others one module's share
MODULE_IMPORTS = {"channels.import_s": "qiopa.channels", "witnesses.import_s": "qiopa.witnesses"}
IMPORT_METRICS = ("cli.import_s", *MODULE_IMPORTS)


def per_layer_metrics() -> list[tuple[str, str]]:
    names = [(name, "s") for name in IMPORT_METRICS]
    for layer, stat in tracer.REPORTED:
        for phase in ("cold", "warm"):
            names.append((f"{layer}.{stat}.{phase}", tracer.UNITS[stat]))
    return names + [("trace.overhead_s", "s")]


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"} for name, unit in per_layer_metrics()],
    }


class ChildError(RuntimeError):
    pass


class Session:
    """Starts the fresh interpreters of one run, each to completion."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.env = dict(os.environ)
        self.env.update({
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        })

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return self.seconds - self.elapsed()

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        timeout = TIME_LIMIT_S - self.elapsed()
        if timeout <= 0:
            raise ChildError("out of time before starting a child")
        try:
            proc = subprocess.run([sys.executable] + args, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise ChildError(f"child {args} ran past the time limit") from exc
        if proc.returncode != 0:
            raise ChildError(f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def child(self, cfg: dict, *flags: str) -> tuple[dict, str]:
        proc = self._spawn(list(flags) + [str(HERE / "child.py"), json.dumps(cfg)])
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr

    def warm_up(self) -> None:
        """Compile the bytecode on a checkout's first run, untimed."""
        if not (ROOT / "src" / "qiopa" / "__pycache__").is_dir():
            self._spawn(["-c", "import qiopa.cli"])


def end_to_end(session: Session, workload: str, seed: int) -> tuple[list[dict], dict, dict]:
    results = []
    for i in range(CHILDREN):
        budget = session.left() / (CHILDREN - i)
        cfg = {"mode": "run", "workload": workload, "seed": seed, "budget_s": budget}
        results.append(session.child(cfg)[0])
    warm = [p for r in results for p in r["warm"]]
    metrics = {
        "setup_s": statistics.median(r["setup"]["cal"] for r in results),
        "cold_s": statistics.median(r["cold"]["cal"] for r in results),
        "warm_s": statistics.median(p["cal"] for p in warm),
        "peak_rss_mb": statistics.median(r["cold"]["rss_mb"] for r in results),
    }
    raw = {
        "setup_s": statistics.median(r["setup"]["raw"] for r in results),
        "cold_s": statistics.median(r["cold"]["raw"] for r in results),
        "warm_s": statistics.median(p["raw"] for p in warm),
    }
    print(f"{workload}: {len(results)} fresh interpreters, {len(warm)} warm passes")
    return results, metrics, raw


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the layer modules, and of the
    whole ``import qiopa.cli`` (its top-level entries after the marker)."""
    lines = stderr.split(child.IMPORT_MARKER, 1)[1].splitlines()
    total, module_s = 0.0, {}
    for line in lines:
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative_s = int(match.group(2)) * 1e-6
        name = match.group(4)
        module_s[name] = cumulative_s
        if len(match.group(3)) == 1:
            total += cumulative_s
    out = {"cli.import_s": total}
    for metric, module in MODULE_IMPORTS.items():
        out[metric] = module_s.get(module, 0.0)
    return out


def per_layer(session: Session, workload: str, seed: int) -> tuple[list[dict], dict]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        result, stderr = session.child({"mode": "importtime"}, "-X", "importtime")
        samples.append({k: v * result["scale"] for k, v in import_times(stderr).items()})
    metrics = {name: statistics.median(s[name] for s in samples) for name in IMPORT_METRICS}
    cfg = {"workload": workload, "seed": seed}
    traced = session.child(dict(cfg, mode="trace", budget_s=max(0.6 * session.left(), 0.0)))[0]
    results = [traced]
    # peaks need a second interpreter under tracemalloc, which slows Python
    # code several times over; skip it when no span it would measure ran
    peaks = {layer for layer, stat in tracer.REPORTED if stat == "peak_mb"}
    if any(traced["cold"][f"{layer}.calls"] for layer in peaks):
        memory = session.child(dict(cfg, mode="memory", budget_s=0))[0]
        results.append(memory)
        for phase in ("cold", "warm"):
            traced[phase].update(memory[phase])
    for phase in ("cold", "warm"):
        for layer, stat in tracer.REPORTED:
            metrics[f"{layer}.{stat}.{phase}"] = traced[phase][f"{layer}.{stat}"]
    metrics["trace.overhead_s"] = traced["overhead_s"]
    return results, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qiopa" / "__init__.py").is_file():
        print(f"bench: no qiopa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    session = Session(args.seconds)
    try:
        session.warm_up()
        if args.trace:
            results, metrics = per_layer(session, args.workload, args.seed)
            units = dict(per_layer_metrics())
        else:
            results, metrics, raw = end_to_end(session, args.workload, args.seed)
            units = {name: unit for name, unit, _ in END_TO_END}
            for name, value in raw.items():
                print(f"raw {name} = {value:.6f} s (calibrated {metrics[name]:.6f} s)")
    except ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    unexpected = [u for r in results for u in r["unexpected"]]
    known = {label: why for r in results for label, why in r["known"].items()}
    for label, why in sorted(known.items()):
        print(f"known fault, counted as failed: {label}: {why}")
    for problem in unexpected:
        print(f"FAILED CHECK: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"elapsed {session.elapsed():.1f} s")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
