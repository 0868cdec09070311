"""Exterior-calculus toolkit for real Schur flows.

Periodic-grid differential forms, the pairwise Lie-invariant vorticity
decomposition, a barotropic box solver, and the frozen-in verification
harness.
"""

from .fields import (Grid, ScalarField, VectorField, divergence,
                     gradient_tensor, interpolate, partial_derivative,
                     taylor_green_2d)
from .exterior import (DiscreteMap, KForm, antisym_matrix_rep,
                       exterior_derivative, form_from_velocity,
                       interior_product, lie_derivative_cartan,
                       lie_derivative_components, pullback,
                       velocity_from_form, wedge)
from .rsf import (CanonicalRotation, DecompPlan, ZeroPattern,
                  canonical_antisymmetric, check_rsf,
                  component_velocity_forms, component_vorticities,
                  decomposition_plan, sym_antisym_split, zero_pattern)
from .solver import (FlowState, SolverConfig, cfl_dt, init_state,
                     parse_config, rhs, run_simulation, step_rk4)
from .trig import TrigPoly
from .verify import (FlowMap, VelocityHistory, VerificationReport,
                     advect_flowmap, fit_order, frozen_convergence_study,
                     identity_suite, kinematic_frozen_case, lemma1_check,
                     pullback_error, residual_pde, wedge_invariant_study)

__version__ = "0.1.0"
