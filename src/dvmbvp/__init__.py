"""Stationary discrete-velocity kinetic boundary-value solver.

Solves boundary-value problems for coplanar discrete-velocity models with
quadratic collision terms on strictly convex planar domains, via a damped
and truncated monotone characteristic iteration with continuation in the
damping and truncation parameters, plus a diagnostics suite measuring every
structural bound of the scheme.
"""

from .model import (CollisionRule, ModelCertificate, ModelError, StructuralError,
                    ValidationReport, Velocity, VelocityModel, certify_model,
                    check_genericity, check_normality, classical_broadwell,
                    find_positive_direction, generate_circle_model,
                    generate_shifted_model, load_model, save_model,
                    shifted_broadwell, validate_rules)
from .geometry import (BoundaryArc, CharacteristicSegment, ConvexDomain,
                       GeometryError, OutsideDomainError, boundary_quadrature,
                       change_of_variables_jacobian_check, tangency_thetas)
from .fields import (BoundaryData, Field, FieldError, Grid, mollify_field,
                     truncate_and_mollify_boundary)
from .collision import (CollisionEval, eval_convolved_truncated, eval_truncated,
                        eval_untruncated, truncated_factor)
from .solver import (ContinuationResult, SolveTrace, SolverConfig, SolverError,
                     SolverWorkspace, SweepResult, alpha_continuation,
                     compute_mass_cap, inner_monotone_solve, k_sweep,
                     outer_fixed_point, residual_mild, residual_renormalized)
from .diagnostics import (BalanceReport, ExceptionalSets, MassEnergyReport,
                          characteristic_balance, entropy_bound_check, entropy_dissipation,
                          exceptional_sets, integrated_collision_frequency,
                          mass_energy_flux, translation_modulus)

__version__ = "0.1.0"
