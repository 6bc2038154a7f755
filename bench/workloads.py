"""The benchmark's three workloads, built from a seed.

A workload is a list of operations.  Each operation has a set-up step (the
resolved configuration), a run step that goes through qiopa's public entry
points only, and a check of its output from :mod:`checks`.  The seed picks
the grid values that do not change the amount of work (an interior
transmittivity, the loss values of the fringe sweep, the injection
probabilities), so every seed costs the same and every run attempts whole
rounds of the same operations.  Gains, cutoffs and grid sizes are fixed here
and passed explicitly, so a changed CLI default does not change a workload.
qiopa is imported inside the steps, so that its import is charged to set-up.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

import checks

SECTOR_FAULT = (
    "fock._sector_matrix loses unitarity in sectors above ~80 photons, so the "
    "spin witness at g=1.2 (cutoff 131) reads 1.99375 eta instead of 2 eta"
)


@dataclass(frozen=True)
class Op:
    label: str
    resolve: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object], list]
    known_fault: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str
    build: Callable[[int], list]


# --------------------------------------------------------------------------
# CLI operations
# --------------------------------------------------------------------------

def _cli_op(argv: list[str], check_rows, known_fault: str | None = None) -> Op:
    def resolve():
        import qiopa.cli as cli

        return cli.resolve_config(cli.build_parser().parse_args(argv))

    def run(_cfg):  # main resolves the configuration again, as every CLI run does
        import qiopa.cli as cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        return check_rows(checks.read_csv(text))

    return Op("qiopa " + " ".join(argv), resolve, run, check, known_fault)


WITNESS_CUTOFF = "40"
WITNESS_TAIL = "0.5"
SIGMA_GAINS = ("0", "0.6", "1.2", "1.5")
OFILTER_GAIN = "1.2"
OFILTER_KS = ("0", "2")
# cutoff that required_cutoff(g, 1e-9) resolves for each spin-witness gain
STOKES_CUTOFFS = {"0.3": "19", "0.6": "37", "1.0": "87", "1.2": "131"}
STOKES_TAIL = "1e-8"


def witness_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    etas = f"0,{rng.uniform(0.25, 0.75):.4f},1"
    common = ["--eta", etas, "--cutoff", WITNESS_CUTOFF, "--tail-tol", WITNESS_TAIL]
    ops = [_cli_op(["witness-sigma", "--g", g] + common, checks.check_sigma) for g in SIGMA_GAINS]
    ops += [_cli_op(["witness-ofilter", "--g", OFILTER_GAIN, "--k", k] + common, checks.check_ofilter)
            for k in OFILTER_KS]
    # g = 0, k = 0 is the one threshold-filter point with a closed form, 3 eta
    # at any cutoff; a small cutoff keeps it cheap
    argv = ["witness-ofilter", "--g", "0", "--k", "0", "--eta", etas, "--cutoff", "10", "--tail-tol", WITNESS_TAIL]
    ops.append(_cli_op(argv, checks.check_ofilter))
    for g, cutoff in STOKES_CUTOFFS.items():
        argv = ["witness-stokes", "--g", g, "--eta", etas, "--cutoff", cutoff, "--tail-tol", STOKES_TAIL]
        ops.append(_cli_op(argv, checks.check_stokes, SECTOR_FAULT if g == "1.2" else None))
    return ops


FRINGE_GAIN = 1.8
FRINGE_CUTOFF = 481
FRINGE_KS = (0, 4, 8)
FRINGE_LOSSES = 4


def fringe_visibility(seed: int) -> list[Op]:
    rng = random.Random(seed)
    losses = ["0"] + sorted(f"{rng.uniform(0.05, 0.9):.4f}" for _ in range(FRINGE_LOSSES))
    populations = []

    def op(k):
        argv = [
            "visibility", "--g", str(FRINGE_GAIN), "--k", str(k), "--R", ",".join(losses),
            "--cutoff", str(FRINGE_CUTOFF), "--tail-tol", "1e-9",
        ]
        expected = []

        def check_rows(rows):
            if not populations:
                populations.append(checks.macro_qubit_populations(FRINGE_GAIN, FRINGE_CUTOFF))
            if not expected:
                for r in losses:
                    eta = 1.0 - float(r)
                    ref = checks.fringe_reference(FRINGE_GAIN, FRINGE_CUTOFF, k, eta, populations[0])
                    expected.append((k, 1.0 - eta, ref))
            return checks.check_fringe(rows, expected)

        return _cli_op(argv, check_rows)

    return [op(k) for k in FRINGE_KS]


# --------------------------------------------------------------------------
# library operations (attenuated regime)
# --------------------------------------------------------------------------

HIGH_GAINS = (2.0, 3.0, 4.0)
ATTENUATIONS = (1e-4, 1e-3, 1e-2)
INJECTION_ETA = 1e-3


def _single_survivor(g: float, eta: float) -> Op:
    def resolve():
        import qiopa

        return qiopa.GainParams(g), qiopa.LossParams(eta)

    def run(params):
        import qiopa

        gain, loss = params
        cutoff = qiopa.conditioning_cutoff(gain, loss)
        state = qiopa.micro_macro_state_hv(gain, cutoff)
        rho = qiopa.attenuate_to_single_photon(state, loss)
        return qiopa.concurrence_2x2(rho).concurrence

    return Op(f"concurrence g={g} eta={eta}", resolve, run,
              lambda c: checks.check_concurrence(g, eta, c))


def _injection(g: float, eta: float, p: float) -> Op:
    def resolve():
        import qiopa

        return qiopa.GainParams(g), qiopa.LossParams(eta), qiopa.InjectionParams(p)

    def run(params):
        import qiopa

        gain, loss, injection = params
        cutoff = qiopa.conditioning_cutoff(gain, loss)
        rho = qiopa.attenuated_injection_pipeline(injection, gain, loss, cutoff)
        return qiopa.concurrence_2x2(rho).concurrence

    return Op(f"injection g={g} eta={eta} p={p!r}", resolve, run,
              lambda c: checks.check_injection(g, eta, p, c))


def _pcrit_scan(g: float, eta: float) -> Op:
    def resolve():
        import qiopa

        return qiopa.GainParams(g), qiopa.LossParams(eta)

    def run(params):
        import qiopa

        return qiopa.critical_injection_scan(*params, tol=1e-6)

    return Op(f"pcrit scan g={g} eta={eta}", resolve, run,
              lambda s: checks.check_pcrit(g, eta, s))


def attenuated_highgain(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [_single_survivor(g, eta) for g in HIGH_GAINS for eta in ATTENUATIONS]
    for g in HIGH_GAINS:
        # above the critical injection, so the concurrence is not clipped to 0
        p_crit = checks.critical_injection(g, INJECTION_ETA)
        ops.append(_injection(g, INJECTION_ETA, p_crit + (1.0 - p_crit) * rng.uniform(0.2, 0.8)))
    ops += [_pcrit_scan(g, eta) for g in HIGH_GAINS for eta in ATTENUATIONS]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "witness-sweep",
            "CLI witness sweeps at cutoff 40: Kraus loss channel, witness contractions and sector rotations carry the work",
            "qiopa.cli",
            witness_sweep,
        ),
        Workload(
            "fringe-visibility",
            "CLI visibility at g=1.8, cutoff 481: macro-qubit rebuilds and binomial thinning, no Kraus images or witnesses",
            "qiopa.cli",
            fringe_visibility,
        ),
        Workload(
            "attenuated-highgain",
            "library single-survivor pipeline at g=2-4, cutoffs to 37809: pair ladders, conditioning and concurrence",
            "qiopa",
            attenuated_highgain,
        ),
    )
}
