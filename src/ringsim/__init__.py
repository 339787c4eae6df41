"""Microring-resonator photonic network simulator.

Builds the three-ring heralded phase gate, verifies its success
constraints by full Fock-space simulation, traces its optimal-operation
parameter manifolds, and assembles the post-selected dual-rail CNOT."""

from .analysis import (NlpsgVerdict, OffResonanceReport, S11_FIXED, T1_OPTIMAL,
                       T2_OPTIMAL, beta_sq_of_t1, compensated_network_stack,
                       curve_network, curve_ring, curve_stack,
                       intersect_delta2, intersect_stack, off_resonance_check,
                       optimize_t1, surface_stack, surface_theta, surface_theta_stack,
                       t2_from_equality, verdict, verdict_stack, wrap_angle)
from .cnot import (CnotNetwork, CoherenceReport, TruthTableRow, build_cnot,
                   conditional_logical_matrix, normalize_global_phase,
                   verify_coherence, verify_truth_table)
from .errors import ConstraintError, DomainError, PoleError, RingsimError
from .fock import (SUCCESS_PATTERN, MeasurementPattern, NlpsgInput,
                   OccupationBasis, SectoredState, enumerate_basis, evolve,
                   nlpsg_closed_form, project)
from .network import (NetworkParams, NetworkStack, closed_form_resonant,
                      compose_scattering, compose_scattering_stack, unitarity_residual)
from .ring import (RESONANT_THETA, TWO_PI, CouplerStack, EffectiveCoupling,
                   RingCoupler, build_coupler, build_couplers,
                   effective_coupling, invert_effective, transfer_matrix_stack)

__version__ = "0.1.0"

__all__ = [
    "ConstraintError", "DomainError", "PoleError", "RingsimError",
    "RingCoupler", "EffectiveCoupling", "TWO_PI",
    "RESONANT_THETA", "build_coupler",
    "CouplerStack", "build_couplers", "transfer_matrix_stack",
    "effective_coupling", "invert_effective",
    "NetworkParams", "compose_scattering",
    "NetworkStack", "compose_scattering_stack",
    "closed_form_resonant", "unitarity_residual",
    "OccupationBasis", "SectoredState", "MeasurementPattern", "NlpsgInput",
    "SUCCESS_PATTERN", "enumerate_basis",
    "evolve", "project", "nlpsg_closed_form",
    "NlpsgVerdict",
    "OffResonanceReport", "S11_FIXED", "T1_OPTIMAL", "T2_OPTIMAL",
    "verdict", "verdict_stack", "beta_sq_of_t1", "optimize_t1",
    "t2_from_equality", "curve_ring", "curve_network",
    "curve_stack", "surface_theta",
    "surface_theta_stack", "surface_stack", "compensated_network_stack",
    "off_resonance_check",
    "intersect_delta2", "intersect_stack", "wrap_angle",
    "CnotNetwork", "TruthTableRow", "CoherenceReport",
    "build_cnot", "verify_truth_table", "verify_coherence",
    "conditional_logical_matrix", "normalize_global_phase",
    "__version__",
]
