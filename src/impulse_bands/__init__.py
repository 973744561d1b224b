"""Band policies and value functions for impulse control of 1-d diffusions."""

__version__ = "0.1.0"

from .errors import (CatalogMissError, ConfigError, ExprEvalError,
                     ExprSyntaxError, ImpulseError, OracleError,
                     SimulationError, SolverError, ValidationError)
from .expressions import Expr, parse_expr
from .fundamentals import (FundamentalPair, analytic_fundamentals,
                           fundamentals_for, hermite_fn, numeric_fundamentals,
                           parabolic_cylinder)
from .model import (BandPolicy, DiffusionSpec, ImpulseProblem, LoadedConfig,
                    SolverOptions, load_config, load_problem)
from .oracle import OracleGrid, concave_envelope, value_iteration
from .simulate import (DominanceReport, SimConfig, SimResult,
                       policy_dominance, simulate_policy)
from .solver import (NoIntervention, SlopeScan, StageResult,
                     ValueFunctionRep, assemble_value, scan_slopes,
                     smooth_fit_check, solve_gamma, tangency_solve)
from .transform import (TransformContext, boundary_data, build_context,
                        compute_g, concavity_profile, finiteness_check)

__all__ = [name for name in dir() if not name.startswith("_")]
