"""Command-line front end: reproducible parameter sweeps and matrix dumps.

``qiopa EXPERIMENT [options]`` evaluates a deterministic parameter grid and
writes either CSV (``#``-prefixed metadata lines, a header row, the swept
variable in the first column, gnuplot-friendly) or line-delimited JSON
records.  One flat parser reads every flag, matched exactly; ``--help`` lists
the flags each experiment takes, and :func:`resolve_config` rejects any other,
on the command line or as a config-file key, with exit 2 and one line.
Output files embed a hash of the fully resolved configuration, and every row
of a truncated experiment carries its cutoff: ``--cutoff`` when given, else
``required_cutoff(g, min(tail, 1e-9))`` per gain, with ``tail`` from
``--tail-tol`` or the experiment's default.

A flat ``key=value`` config file can seed any run; repeated keys build grids
and command-line flags override file values.  Loss grids accept either
``eta`` or ``R = 1 - eta``; rows echo both.  Exit codes: 0 on success, 2 on
configuration errors (including a non-finite or negative gain, a negative
threshold, a probability outside [0, 1], a tail tolerance outside (0, 1)
and an unwritable output), 3 on numeric failures (unreachable cutoff, an
FFT longer than 2^23 entries, all-inconclusive visibility, vanishing
conditional probability, overflow at extreme gain, memory exhausted), 141
(a shell's status for SIGPIPE) when the reader of stdout closes it early,
as in ``qiopa pcrit | head -1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .amplifier import GainParams, required_cutoff
from .channels import InjectionParams, LossParams, attenuated_state_with_injection
from .fock import (
    ConditioningError,
    Cutoff,
    CutoffError,
    PolarizationBasis,
    TwoModeVector,
    UndefinedVisibilityError,
    fock_space,
    photon_distribution,
)
from .measurement import _fringe_grid, threshold_povm, visibility_ratio
from .metrics import (
    concurrence_of_t,
    concurrence_with_injection,
    critical_injection_probability,
    critical_injection_scan,
)
from .witnesses import (
    DICHOTOMIC_BOUND,
    SEPARABLE_BOUND,
    _ofilter_grid,
    sigma_witness_lossy,
    simon_spin_witness_lossy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141

_NUMERIC_FAILURES = (
    CutoffError, UndefinedVisibilityError, ConditioningError, OverflowError, MemoryError,
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; hashing covers every value in use."""

    experiment: str
    values: dict
    out: str | None
    fmt: str

    def canonical_text(self) -> str:
        lines = [f"experiment={self.experiment}", f"format={self.fmt}"]
        for key in sorted(self.values):
            joined = ",".join(str(v) for v in self.values[key])
            lines.append(f"{key}={joined}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


# --------------------------------------------------------------------------
# configuration plumbing
# --------------------------------------------------------------------------

def _entries(chunks) -> list[str]:
    """The values of comma lists, in order, without blanks."""
    return [part.strip() for part in ",".join(chunks).split(",") if part.strip()]


def _parse_config_file(path: str) -> dict[str, list[str]]:
    values: dict[str, list[str]] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                if parts := _entries([value]):
                    values.setdefault(key.strip().replace("-", "_"), []).extend(parts)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _floats(values: dict, key: str) -> list[float]:
    try:
        return [float(v) for v in values[key]]
    except ValueError as exc:
        raise ConfigError(f"parameter {key!r} expects numbers: {exc}") from exc


def _ints(values: dict, key: str) -> list[int]:
    try:
        return [int(v) for v in values[key]]
    except ValueError as exc:
        raise ConfigError(f"parameter {key!r} expects integers: {exc}") from exc


def _scalar(values: dict, key: str, convert) -> object:
    entries = values[key]
    if len(entries) != 1:
        raise ConfigError(f"parameter {key!r} expects a single value, got {entries}")
    try:
        return convert(entries[0])
    except ValueError as exc:
        raise ConfigError(f"parameter {key!r}: {exc}") from exc


def _eta_grid(values: dict) -> list[float]:
    if "eta" in values and "R" in values:
        raise ConfigError("give either an eta grid or an R grid, not both")
    if "R" in values:
        etas = [1.0 - r for r in _floats(values, "R")]
    else:
        etas = _floats(values, "eta")
    for eta in etas:
        if not 0.0 <= eta <= 1.0:
            raise ConfigError(f"transmittivity {eta} outside [0, 1]")
    return etas


def _gain_grid(values: dict) -> list[float]:
    gs = _floats(values, "g")
    for g in gs:
        if not (math.isfinite(g) and g >= 0.0):
            raise ConfigError(f"gain {g} must be finite and non-negative")
    return gs


def _threshold_grid(values: dict) -> list[int]:
    ks = _ints(values, "k")
    for k in ks:
        if k < 0:
            raise ConfigError(f"threshold k={k} must be non-negative")
    return ks


def _probability_grid(values: dict) -> list[float]:
    ps = _floats(values, "p")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"injection probability {p} outside [0, 1]")
    return ps


def _single(values: dict, key: str, grid) -> object:
    """The one value of a parameter, read and checked by its grid reader."""
    if len(values[key]) != 1:
        raise ConfigError(f"parameter {key!r} expects a single value, got {values[key]}")
    return grid(values)[0]


def _basis_from_label(label: str) -> PolarizationBasis:
    if label == "hv":
        return PolarizationBasis.hv()
    if label == "pm":
        return PolarizationBasis.plus_minus()
    if label == "rl":
        return PolarizationBasis.right_left()
    if label.startswith("eq:"):
        try:
            return PolarizationBasis.equatorial(float(label[3:]))
        except ValueError as exc:
            raise ConfigError(f"bad basis phase in {label!r}") from exc
    raise ConfigError(f"unknown basis {label!r} (use hv, pm, rl or eq:PHI)")


def _resolve_cutoff(values: dict, gain: GainParams, default_tail: float) -> Cutoff:
    """The one cutoff rule of every truncated experiment, applied per gain."""
    tail = _scalar(values, "tail_tol", float) if "tail_tol" in values else default_tail
    if not 0.0 < tail < 1.0:
        raise ConfigError(f"tail tolerance {tail} outside (0, 1)")
    if "cutoff" not in values:
        return Cutoff(required_cutoff(gain, min(tail, 1e-9)), tail)
    n_max = _scalar(values, "cutoff", int)
    if n_max < 1:
        raise ConfigError("cutoff must be a positive photon number")
    return Cutoff(n_max, tail)


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

def _run_visibility(cfg: RunConfig):
    values = cfg.values
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        cutoff = _resolve_cutoff(values, gain, 1e-9)
        ks = _threshold_grid(values)
        for k, probabilities in zip(ks, _fringe_grid(gain, etas, ks, cutoff).tolist()):
            for eta, (p_plus, p_minus, p_zero) in zip(etas, probabilities):
                loss = LossParams(eta)
                v = visibility_ratio(p_plus, p_minus, loss, k)
                rows.append(
                    (loss.R, eta, g, k, cutoff.n_max, p_plus, p_minus, p_zero, v)
                )
    columns = ["R", "eta", "g", "k", "cutoff", "P_plus", "P_minus", "P_zero", "V"]
    return {}, columns, rows


def _run_witness_sigma(cfg: RunConfig):
    values = cfg.values
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        cutoff = _resolve_cutoff(values, gain, 0.5)
        for eta in etas:
            rep = sigma_witness_lossy(gain, LossParams(eta), cutoff)
            rows.append(
                (1.0 - eta, eta, g, cutoff.n_max)
                + tuple(rep.terms)
                + (rep.value, SEPARABLE_BOUND, DICHOTOMIC_BOUND)
            )
    columns = [
        "R", "eta", "g", "cutoff", "term_1", "term_2", "term_3",
        "S", "bound_separable", "bound_dichotomic",
    ]
    return {}, columns, rows


def _run_witness_ofilter(cfg: RunConfig):
    values = cfg.values
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        cutoff = _resolve_cutoff(values, gain, 0.5)
        ks = _threshold_grid(values)
        for k, reports in zip(ks, _ofilter_grid(gain, etas, ks, cutoff)):
            for eta, rep in zip(etas, reports):
                rows.append(
                    (1.0 - eta, eta, g, k, cutoff.n_max)
                    + tuple(rep.terms)
                    + (rep.value, SEPARABLE_BOUND)
                )
    columns = [
        "R", "eta", "g", "k", "cutoff", "term_1", "term_2", "term_3",
        "S", "nominal_bound",
    ]
    meta = {"caveat": "bound valid only under the coherent-amplification assumption"}
    return meta, columns, rows


def _run_witness_stokes(cfg: RunConfig):
    values = cfg.values
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        cutoff = _resolve_cutoff(values, gain, 1e-8)
        for eta in etas:
            rep = simon_spin_witness_lossy(gain, LossParams(eta), cutoff)
            rows.append(
                (eta, 1.0 - eta, g, cutoff.n_max)
                + tuple(rep.terms)
                + (rep.params["mean_photons_b"], rep.value, 0.0)
            )
    columns = [
        "eta", "R", "g", "cutoff", "term_1", "term_2", "term_3",
        "mean_photons_b", "value", "bound",
    ]
    return {}, columns, rows


def _run_concurrence(cfg: RunConfig):
    values = cfg.values
    if "t" in values:
        rows = []
        for t in _floats(values, "t"):
            if not 0.0 <= t < 1.0:
                raise ConfigError(f"t={t} outside [0, 1)")
            rows.append((t, concurrence_of_t(t)))
        return {}, ["t", "C"], rows
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        for eta in etas:
            loss = LossParams(eta)
            t = loss.R * gain.tanh_g
            for p in _probability_grid(values):
                c = concurrence_with_injection(gain, loss, InjectionParams(p))
                p_crit = critical_injection_probability(gain, loss)
                rows.append((g, eta, loss.R, p, t, c, p_crit))
    columns = ["g", "eta", "R", "p", "t", "C", "p_crit"]
    return {}, columns, rows


def _run_pcrit(cfg: RunConfig):
    values = cfg.values
    etas = _eta_grid(values)
    rows = []
    for g in _gain_grid(values):
        gain = GainParams(g)
        for eta in etas:
            loss = LossParams(eta)
            closed = critical_injection_probability(gain, loss)
            scanned = critical_injection_scan(gain, loss, tol=1e-6)
            rows.append((g, eta, loss.R, closed, scanned))
    columns = ["g", "eta", "R", "p_crit", "p_crit_scan"]
    return {}, columns, rows


def _run_ofilter_dist(cfg: RunConfig):
    values = cfg.values
    n = _scalar(values, "n", int)
    m = _scalar(values, "m", int)
    if n < 0 or m < 0 or n + m < 1:
        raise ConfigError("the Fock state needs a non-negative photon pair with n+m >= 1")
    prep = _basis_from_label(_scalar(values, "prep_basis", str))
    target = _basis_from_label(_scalar(values, "basis", str))
    k = _single(values, "k", _threshold_grid)
    total = n + m
    state = TwoModeVector.from_amplitudes({(n, m): 1.0}, total, prep)
    dist = photon_distribution(state, target)
    povm = threshold_povm(target, k, total)
    space = fock_space(total)
    # rotations conserve the total photon number, so only this sector carries weight
    sector = space.sector_slices[total]
    photons = zip(space.n[sector].tolist(), space.m[sector].tolist(), povm.signs[sector].tolist())
    rows = [(a, b, dist.get((a, b), 0.0), sign) for a, b, sign in photons]
    meta = {"state": f"|{n},{m}> in {prep.label}", "measured_in": target.label}
    return meta, ["n", "m", "probability", "outcome"], rows


def _run_density(cfg: RunConfig):
    values = cfg.values
    g = _single(values, "g", _gain_grid)
    etas = _eta_grid(values)
    if len(etas) != 1:
        raise ConfigError("the density experiment expects a single eta (or R)")
    p = _single(values, "p", _probability_grid)
    gain = GainParams(g)
    loss = LossParams(etas[0])
    mat = attenuated_state_with_injection(InjectionParams(p), gain, loss)
    rows = []
    for i in range(4):
        for j in range(4):
            rows.append((i, j, float(mat[i, j].real), float(mat[i, j].imag)))
    meta = {
        "basis_order": "HH,HV,VH,VV",
        "t": loss.R * gain.tanh_g,
        "g": g,
        "eta": loss.eta,
        "p": p,
    }
    return meta, ["row", "col", "re", "im"], rows


_EXPERIMENTS = {
    "visibility": (
        _run_visibility, "Fringe visibility of the lossy macro-qubit versus losses.",
        {"g": ["1.8"], "k": ["0"], "R": [f"{r / 20:.2f}" for r in range(20)]},
        {"g", "k", "eta", "R", "cutoff", "tail_tol"},
    ),
    "witness-sigma": (
        _run_witness_sigma, "Pseudo-Pauli witness S(eta) curves.",
        {"g": ["0", "0.3", "0.6", "0.9", "1.2", "1.5"],
         "eta": [f"{e / 20:.2f}" for e in range(20, -1, -1)]},
        {"g", "eta", "R", "cutoff", "tail_tol"},
    ),
    "witness-ofilter": (
        _run_witness_ofilter, "Threshold-filter witness S(eta, k) curves.",
        {"g": ["1.2"], "k": ["0", "1", "2"],
         "eta": [f"{e / 20:.2f}" for e in range(20, -1, -1)]},
        {"g", "k", "eta", "R", "cutoff", "tail_tol"},
    ),
    "witness-stokes": (
        _run_witness_stokes, "Spin-criterion value, expected 2*eta.",
        {"g": ["0.3", "0.6", "1.0"], "eta": ["0", "0.25", "0.5", "0.75", "1.0"]},
        {"g", "eta", "R", "cutoff", "tail_tol"},
    ),
    "concurrence": (
        _run_concurrence, "Attenuated-regime concurrence (t grid or g/eta/p grids).",
        {"t": [f"{t / 50:.2f}" for t in range(50)]},
        {"t", "g", "eta", "R", "p"},
    ),
    "pcrit": (
        _run_pcrit, "Critical injection probability, closed form and PPT scan.",
        {"g": [f"{x / 5:.1f}" for x in range(16)], "eta": ["0.0001", "0.01", "0.1", "0.5"]},
        {"g", "eta", "R"},
    ),
    "ofilter-dist": (
        _run_ofilter_dist, "Photon-number distribution of a Fock state in a basis.",
        {"n": ["10"], "m": ["0"], "prep_basis": ["pm"], "basis": ["rl"], "k": ["5"]},
        {"n", "m", "prep_basis", "basis", "k"},
    ),
    "density": (
        _run_density, "Attenuated joint density matrix (basis HH, HV, VH, VV).",
        {"g": ["3"], "eta": ["0.0001"], "p": ["1"]},
        {"g", "eta", "R", "p"},
    ),
}


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value + 0.0, ".12g")
    return str(value)


def _write_csv(stream, cfg: RunConfig, meta: dict, columns, rows) -> None:
    stream.write(f"# experiment={cfg.experiment}\n")
    stream.write(f"# config_sha256={cfg.sha256()}\n")
    for key in sorted(cfg.values):
        stream.write(f"# {key}={','.join(str(v) for v in cfg.values[key])}\n")
    for key in sorted(meta):
        if key not in cfg.values:
            stream.write(f"# {key}={_format_value(meta[key])}\n")
    stream.write(f"# columns: {' '.join(columns)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_value(v) for v in row) + "\n")


def _write_records(stream, cfg: RunConfig, meta: dict, columns, rows) -> None:
    header = {
        "experiment": cfg.experiment,
        "config_sha256": cfg.sha256(),
        "config": {k: list(map(str, v)) for k, v in sorted(cfg.values.items())},
        "meta": {k: meta[k] for k in sorted(meta)},
        "columns": list(columns),
    }
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    for row in rows:
        record = dict(zip(columns, row))
        stream.write(json.dumps(record, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# argument parsing and entry point
# --------------------------------------------------------------------------

# every parameter flag, in help order; a grid takes repeated flags or comma lists
_FLAGS = {
    "g": "gain grid",
    "eta": "transmittivity grid",
    "R": "losses grid (1 - eta)",
    "k": "threshold grid",
    "p": "injection probability grid",
    "t": "coherence parameter grid",
    "cutoff": "maximum total photon number",
    "tail_tol": "maximum truncated probability mass",
    "n": "photons in the first mode",
    "m": "photons in the second mode",
    "prep_basis": "preparation basis (hv, pm, rl, eq:PHI)",
    "basis": "measurement basis (hv, pm, rl, eq:PHI)",
}
_GRIDS = ("g", "eta", "R", "k", "p", "t")


def _flag_list(keys) -> str:
    return " ".join("--" + key.replace("_", "-") for key in _FLAGS if key in keys)


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the experiment is a positional argument, each flag is
    added once, and the help lists the flags that each experiment takes."""
    lines = ["experiments, and the flags each takes besides --config, --out and --format:"]
    for name, (_, help_text, _, allowed) in _EXPERIMENTS.items():
        lines += [f"  {name:<17}{help_text}", " " * 19 + _flag_list(allowed)]
    parser = argparse.ArgumentParser(
        prog="qiopa",
        usage="%(prog)s EXPERIMENT [options]",
        description="Desk-scale sweeps for the seeded-amplifier micro-macro entanglement model.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS, metavar="EXPERIMENT", help="see below")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "records"), dest="fmt",
                        help="output format (default csv)")
    for key, help_text in _FLAGS.items():
        grid = {"action": "append", "metavar": "V[,V...]"} if key in _GRIDS else {}
        parser.add_argument("--" + key.replace("_", "-"), help=help_text, **grid)
    return parser


# one parser per process, built on the first call of main
@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The run that parsed arguments and their config file resolve to; the one
    place that rejects a flag or config-file key the experiment does not take."""
    experiment = args.experiment
    _, _, defaults, allowed = _EXPERIMENTS[experiment]
    flags = {key: value for key in _FLAGS if (value := getattr(args, key, None)) is not None}
    stray = [key for key in flags if key not in allowed]
    if stray:
        raise ConfigError(
            f"unrecognized arguments: {_flag_list(stray)} ({experiment} takes {_flag_list(allowed)})"
        )
    values: dict[str, list[str]] = {}
    out = args.out
    fmt = None
    if args.config:
        for key, entries in _parse_config_file(args.config).items():
            if key == "experiment":
                if entries != [experiment]:
                    raise ConfigError(f"config file is for experiment {entries[0]!r}, "
                                      f"not {experiment!r}")
            elif key == "out":
                out = entries[-1] if out is None else out
            elif key == "format":
                fmt = entries[-1]
            elif key in allowed:
                values[key] = entries
            else:
                raise ConfigError(f"unknown parameter {key!r} for {experiment}")
    for key, supplied in flags.items():  # a grid joins its repeated flags
        values[key] = _entries(supplied) if key in _GRIDS else [supplied]
    if "eta" in values and "R" in values:
        raise ConfigError("give either an eta grid or an R grid, not both")
    # a given loss grid of either name replaces the default one, and a given
    # g, eta, R or p switches concurrence from its analytic t curve to grids
    skip = set(values) | ({"eta", "R"} if {"eta", "R"} & set(values) else set())
    if experiment == "concurrence" and {"g", "eta", "R", "p"} & set(values):
        skip.add("t")
    values.update((key, list(entries)) for key, entries in defaults.items() if key not in skip)
    if experiment == "concurrence" and "t" not in values:
        values.setdefault("p", ["1"])
        if "eta" not in values and "R" not in values:
            raise ConfigError("the concurrence experiment needs eta (or R) grids when t is absent")
        if "g" not in values:
            raise ConfigError("the concurrence experiment needs a gain grid when t is absent")
    fmt = args.fmt or fmt or "csv"
    if fmt not in ("csv", "records"):
        raise ConfigError(f"unknown output format {fmt!r}")
    for key, entries in values.items():
        if not entries:
            raise ConfigError(f"parameter {key!r} resolved to an empty grid")
    return RunConfig(experiment, values, out, fmt)


def run_experiment(cfg: RunConfig) -> tuple[dict, list[str], list[tuple]]:
    """Evaluate an experiment grid; deterministic for a fixed configuration."""
    runner, _, _, _ = _EXPERIMENTS[cfg.experiment]
    return runner(cfg)


def _emit(cfg: RunConfig, meta: dict, columns, rows) -> int:
    writer = _write_csv if cfg.fmt == "csv" else _write_records
    if cfg.out is None:
        try:
            writer(sys.stdout, cfg, meta, columns, rows)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; on devnull the interpreter's last flush stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_PIPE
        return EXIT_OK
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as handle:
        writer(handle, cfg, meta, columns, rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = resolve_config(args)
        meta, columns, rows = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_FAILURES as exc:
        reason = str(exc)
        if isinstance(exc, MemoryError):  # a bare MemoryError carries no message
            reason = ": ".join(filter(None, ("memory ran out", reason)))
        print(f"numeric failure: {reason}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        return _emit(cfg, meta, columns, rows)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
