"""Microring-resonator photonic network simulator.

Builds the three-ring heralded phase gate, verifies its success
constraints by full Fock-space simulation, traces its optimal-operation
parameter manifolds, and assembles the post-selected dual-rail CNOT."""

from .analysis import (NlpsgVerdict, OffResonanceReport, OptimalPoint,
                       S11_FIXED, T1_OPTIMAL, T2_OPTIMAL, beta_sq_of_t1,
                       compensated_network, compensated_network_stack,
                       curve_network, curve_ring, curve_stack,
                       intersect_delta2, intersect_stack, off_resonance_check,
                       optimal_point,
                       optimize_t1, ring_phase_arg,
                       surface_stack, surface_theta, surface_theta_stack,
                       t2_from_equality, t3_of_t1, verdict, verdict_stack,
                       wrap_angle)
from .cnot import (CnotNetwork, CoherenceReport, DualRailQubit, TruthTableRow,
                   build_cnot, conditional_logical_matrix, embed,
                   normalize_global_phase, verify_coherence, verify_truth_table)
from .errors import (ConfigError, ConstraintError, DomainError, PoleError,
                     RingsimError, SingularPivotError, UndefinedPhaseError)
from .fock import (SUCCESS_PATTERN, MeasurementPattern, NlpsgInput,
                   OccupationBasis, SectoredState, enumerate_basis, evolve,
                   heralded_success_stack, lift_unitary, nlpsg_closed_form,
                   permanent, project)
from .network import (NetworkParams, NetworkStack, block_transfer,
                      closed_form_resonant, compose_scattering,
                      compose_scattering_stack, mode_swap3, unitarity_residual)
from .ring import (RESONANT_THETA, TWO_PI, CouplerStack, EffectiveCoupling,
                   RingCoupler, RingTransfer, build_coupler, build_couplers,
                   effective_coupling, invert_effective, on_resonance_transfer,
                   transfer_matrix, transfer_matrix_stack)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConstraintError", "DomainError", "PoleError",
    "RingsimError", "SingularPivotError", "UndefinedPhaseError",
    "RingCoupler", "RingTransfer", "EffectiveCoupling", "TWO_PI",
    "RESONANT_THETA", "build_coupler", "transfer_matrix",
    "CouplerStack", "build_couplers", "transfer_matrix_stack",
    "effective_coupling", "invert_effective", "on_resonance_transfer",
    "NetworkParams", "mode_swap3", "block_transfer", "compose_scattering",
    "NetworkStack", "compose_scattering_stack",
    "closed_form_resonant", "unitarity_residual",
    "OccupationBasis", "SectoredState", "MeasurementPattern", "NlpsgInput",
    "SUCCESS_PATTERN", "enumerate_basis", "permanent", "lift_unitary",
    "evolve", "project", "nlpsg_closed_form",
    "heralded_success_stack",
    "NlpsgVerdict", "OptimalPoint",
    "OffResonanceReport", "S11_FIXED", "T1_OPTIMAL", "T2_OPTIMAL",
    "verdict", "verdict_stack", "t3_of_t1", "beta_sq_of_t1", "optimize_t1",
    "t2_from_equality", "optimal_point", "curve_ring", "curve_network",
    "curve_stack", "surface_theta",
    "surface_theta_stack", "surface_stack", "ring_phase_arg",
    "compensated_network", "compensated_network_stack",
    "off_resonance_check",
    "intersect_delta2", "intersect_stack", "wrap_angle",
    "DualRailQubit", "CnotNetwork", "TruthTableRow", "CoherenceReport",
    "embed", "build_cnot", "verify_truth_table", "verify_coherence",
    "conditional_logical_matrix", "normalize_global_phase",
    "__version__",
]
