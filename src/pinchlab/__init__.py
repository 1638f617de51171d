"""Level-set laboratory for rotationally symmetric 3-metrics.

Builds warped-product metrics ds^2 + f(s)^2 g_{S^2}, solves the exterior
harmonic potential in closed radial form, evaluates the level-set
functionals and their monotonicity/decay estimates, and produces
refutation certificates identifying which of the three incompatible
hypotheses (Ricci pinching, superquadratic volume growth, sub-16pi
boundary Willmore energy) fails for a given profile.
"""

from .asymptotics import (Scenario, coarea_check, decay_check, holder_chain_check,
                          judge, li_yau_fit, refute, series_pinching, sweep)
from .config import ScenarioConfig
from .errors import (DomainError, NonparabolicityError, NumericError,
                     PinchLabError, UsageError)
from .functionals import (boundary_willmore, build_series, capacity_scaling_check,
                          check_G_ode, check_monotonicity,
                          genus_zero_inequality_check, sample_at)
from .metrics import (WarpFunction, build_metric, check_pinching, cone, curvature_at,
                      default_catalog, finite_difference_curvature_oracle,
                      flat_space, from_table, growth_fit, load_table_csv, power_law,
                      schwarzschild_slice, sphere_cap_blend, volume_ball)
from .potential import ExteriorDomain, PotentialSolution

__version__ = "0.1.0"
