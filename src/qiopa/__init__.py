"""Desk-scale simulation of micro-macro entanglement from a seeded optical
parametric amplifier: state generation, photon loss, threshold detection,
entanglement witnesses and entanglement metrics."""

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
from .measurement import (
    PseudoPauliOperator,
    ThresholdPOVM,
    lossy_fringe_probabilities,
    multi_detector_probabilities,
    ofilter_probabilities,
    pauli_matrix,
    sigma_operator,
    stokes_terms,
    threshold_povm,
    visibility,
)
from .witnesses import (
    DICHOTOMIC_BOUND,
    SEPARABLE_BOUND,
    DichotomicBound,
    SeparableCounterexample,
    WitnessReport,
    generalized_dichotomic_bound,
    micro_macro_sigma_witness,
    micro_micro_witness,
    ofilter_witness,
    ofilter_witness_lossy,
    separable_counterexample,
    sigma_witness_lossy,
    simon_spin_witness,
    simon_spin_witness_lossy,
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
