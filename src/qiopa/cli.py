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
configuration errors (an out-of-range value, see below, or an unwritable
output), 3 on numeric failures (unreachable cutoff, an FFT longer than 2^23
entries, all-inconclusive visibility, vanishing conditional probability,
overflow at extreme gain, memory exhausted; a ``CutoffError`` is one, though
a ``ValueError``), 141 (a shell's status for SIGPIPE) when the reader of
stdout closes it early, as in ``qiopa pcrit | head -1``.

Each range is checked once, by the library type or call that takes the
value: ``GainParams`` (``--g``), ``LossParams`` (``--eta``, or ``1 - R``),
``InjectionParams`` (``--p``), ``Cutoff`` and ``required_cutoff``
(``--cutoff``, ``--tail-tol``), ``_tail_grid`` and ``threshold_povm``
(``--k``).  Their ``ValueError`` prints one line, such as ``config error:
transmittivity must lie in [0, 1], got 2.0``.  The CLI itself checks that
values are numbers, the ``t`` range, the photon pair of ``ofilter-dist``,
single values, bases and the grid choices of :func:`resolve_config`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .amplifier import GainParams, required_cutoff
from .channels import InjectionParams, LossParams, attenuated_state_with_injection, coherence_parameter
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


def _numbers(values: dict, key: str, convert=float) -> list:
    """The values of a parameter, converted; each range check is left to the
    library type or call that takes the value."""
    try:
        return [convert(v) for v in values[key]]
    except ValueError as exc:
        kind = "integers" if convert is int else "numbers"
        raise ConfigError(f"parameter {key!r} expects {kind}: {exc}") from exc


def _one(values: dict, key: str, convert=float):
    """The one value of a single-value parameter."""
    if len(values[key]) != 1:
        raise ConfigError(f"parameter {key!r} expects a single value, got {values[key]}")
    return _numbers(values, key, convert)[0]


def _losses(values: dict) -> list[LossParams]:
    """The loss grid, given as eta or as R = 1 - eta (resolve_config allows one)."""
    if "R" in values:
        return [LossParams(1.0 - r) for r in _numbers(values, "R")]
    return [LossParams(eta) for eta in _numbers(values, "eta")]


def _gains(values: dict) -> list[GainParams]:
    return [GainParams(g) for g in _numbers(values, "g")]


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


def _cutoffs(values: dict, gains: list[GainParams], default_tail: float):
    """The one cutoff rule of every truncated experiment: one cutoff per gain,
    each searched for only when its gain's turn comes."""
    tail = _one(values, "tail_tol") if "tail_tol" in values else default_tail
    n_max = _one(values, "cutoff", int) if "cutoff" in values else None
    for gain in gains:
        yield Cutoff(required_cutoff(gain, min(tail, 1e-9)) if n_max is None else n_max, tail)


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

def _run_visibility(cfg: RunConfig):
    values = cfg.values
    losses, gains, ks = _losses(values), _gains(values), _numbers(values, "k", int)
    etas = [loss.eta for loss in losses]
    rows = []
    for gain, cutoff in zip(gains, _cutoffs(values, gains, 1e-9)):
        for k, probabilities in zip(ks, _fringe_grid(gain, etas, ks, cutoff).tolist()):
            for loss, (p_plus, p_minus, p_zero) in zip(losses, probabilities):
                v = visibility_ratio(p_plus, p_minus, loss, k)
                rows.append(
                    (loss.R, loss.eta, gain.g, k, cutoff.n_max, p_plus, p_minus, p_zero, v)
                )
    columns = ["R", "eta", "g", "k", "cutoff", "P_plus", "P_minus", "P_zero", "V"]
    return {}, columns, rows


def _run_witness_sigma(cfg: RunConfig):
    values = cfg.values
    losses, gains = _losses(values), _gains(values)
    rows = []
    for gain, cutoff in zip(gains, _cutoffs(values, gains, 0.5)):
        for loss in losses:
            rep = sigma_witness_lossy(gain, loss, cutoff)
            rows.append(
                (loss.R, loss.eta, gain.g, cutoff.n_max)
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
    losses, gains, ks = _losses(values), _gains(values), _numbers(values, "k", int)
    etas = [loss.eta for loss in losses]
    rows = []
    for gain, cutoff in zip(gains, _cutoffs(values, gains, 0.5)):
        for k, reports in zip(ks, _ofilter_grid(gain, etas, ks, cutoff)):
            for loss, rep in zip(losses, reports):
                rows.append(
                    (loss.R, loss.eta, gain.g, k, cutoff.n_max)
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
    losses, gains = _losses(values), _gains(values)
    rows = []
    for gain, cutoff in zip(gains, _cutoffs(values, gains, 1e-8)):
        for loss in losses:
            rep = simon_spin_witness_lossy(gain, loss, cutoff)
            rows.append(
                (loss.eta, loss.R, gain.g, cutoff.n_max)
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
        ts = _numbers(values, "t")
        for t in ts:
            if not 0.0 <= t < 1.0:
                raise ConfigError(f"t={t} outside [0, 1)")
        return {}, ["t", "C"], [(t, concurrence_of_t(t)) for t in ts]
    losses, gains = _losses(values), _gains(values)
    injections = [InjectionParams(p) for p in _numbers(values, "p")]
    rows = []
    for gain in gains:
        for loss in losses:
            t = coherence_parameter(gain, loss)
            p_crit = critical_injection_probability(gain, loss)
            for injection in injections:
                c = concurrence_with_injection(gain, loss, injection)
                rows.append((gain.g, loss.eta, loss.R, injection.p, t, c, p_crit))
    columns = ["g", "eta", "R", "p", "t", "C", "p_crit"]
    return {}, columns, rows


def _run_pcrit(cfg: RunConfig):
    values = cfg.values
    losses, gains = _losses(values), _gains(values)
    rows = []
    for gain in gains:
        for loss in losses:
            closed = critical_injection_probability(gain, loss)
            scanned = critical_injection_scan(gain, loss, tol=1e-6)
            rows.append((gain.g, loss.eta, loss.R, closed, scanned))
    columns = ["g", "eta", "R", "p_crit", "p_crit_scan"]
    return {}, columns, rows


def _run_ofilter_dist(cfg: RunConfig):
    values = cfg.values
    n = _one(values, "n", int)
    m = _one(values, "m", int)
    if n < 0 or m < 0 or n + m < 1:
        raise ConfigError("the Fock state needs a non-negative photon pair with n+m >= 1")
    prep = _basis_from_label(_one(values, "prep_basis", str))
    target = _basis_from_label(_one(values, "basis", str))
    total = n + m
    povm = threshold_povm(target, _one(values, "k", int), total)
    state = TwoModeVector.from_amplitudes({(n, m): 1.0}, total, prep)
    dist = photon_distribution(state, target)
    space = fock_space(total)
    # rotations conserve the total photon number, so only this sector carries weight
    sector = space.sector_slices[total]
    photons = zip(space.n[sector].tolist(), space.m[sector].tolist(), povm.signs[sector].tolist())
    rows = [(a, b, dist.get((a, b), 0.0), sign) for a, b, sign in photons]
    meta = {"state": f"|{n},{m}> in {prep.label}", "measured_in": target.label}
    return meta, ["n", "m", "probability", "outcome"], rows


def _run_density(cfg: RunConfig):
    values = cfg.values
    gain = GainParams(_one(values, "g"))
    losses = _losses(values)
    if len(losses) != 1:
        raise ConfigError("the density experiment expects a single eta (or R)")
    loss = losses[0]
    injection = InjectionParams(_one(values, "p"))
    mat = attenuated_state_with_injection(injection, gain, loss)
    rows = []
    for i in range(4):
        for j in range(4):
            rows.append((i, j, float(mat[i, j].real), float(mat[i, j].imag)))
    meta = {
        "basis_order": "HH,HV,VH,VV",
        "t": coherence_parameter(gain, loss),
        "g": gain.g,
        "eta": loss.eta,
        "p": injection.p,
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
        if "t" in values:
            raise ConfigError("concurrence takes either t or the g/eta/R/p grids, not both")
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
    except _NUMERIC_FAILURES as exc:
        reason = str(exc)
        if isinstance(exc, MemoryError):  # a bare MemoryError carries no message
            reason = ": ".join(filter(None, ("memory ran out", reason)))
        print(f"numeric failure: {reason}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # a ConfigError, or a value its library type rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _emit(cfg, meta, columns, rows)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
