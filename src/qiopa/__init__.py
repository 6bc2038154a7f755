"""Desk-scale simulation of micro-macro entanglement from a seeded optical
parametric amplifier.

``import qiopa`` loads the core: state generation (``fock``, ``amplifier``),
photon loss and conditioning (``channels``) and entanglement metrics
(``metrics``).  Threshold detection and the pseudo-Pauli and Stokes
operators live in ``qiopa.measurement``, the entanglement witnesses in
``qiopa.witnesses``; import them from there."""

from .fock import (
    ConditioningError,
    Cutoff,
    CutoffError,
    DensityOperator,
    FockSpace,
    PolarizationBasis,
    TwoModeVector,
    UndefinedVisibilityError,
    expectation,
    fock_space,
    photon_distribution,
    rotate_basis,
)
from .amplifier import (
    GainParams,
    MacroQubit,
    MicroMacroState,
    amplified_vacuum,
    hv_macro_state,
    macro_qubit,
    macro_qubit_amplitude,
    micro_macro_state,
    micro_macro_state_hv,
    required_cutoff,
    seed_pair_amplitude,
)
from .channels import (
    InjectionParams,
    LossParams,
    attenuate_to_single_photon,
    attenuated_injection_pipeline,
    attenuated_state_with_injection,
    coherence_parameter,
    conditioning_cutoff,
    lossy_channel,
    mixed_injection_state,
)
from .metrics import (
    ConcurrenceReport,
    PptReport,
    analytic_concurrence,
    concurrence_2x2,
    concurrence_with_injection,
    critical_injection_probability,
    critical_injection_scan,
    partial_transpose,
    ppt_test,
)

__version__ = "0.1.0"
