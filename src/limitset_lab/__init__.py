"""limitset-lab: executable limit-set theory for nets of subsets.

Exact computation of limit sets, Kuratowski limits, semi-distances and
asymptotic compactness properties over three backends, with property-based
verification suites pairing every symbolic answer with a brute-force
oracle.  The net verdicts run on all three: finite topological spaces,
rational pseudo-metric spaces and cell grids, where ``omega`` reads the
omega limit set of a discrete semiflow as the limit set of its run.
"""

from .errors import (LimitsetError, MalformedInputError, MembershipError,
                     PreconditionError, SizeLimitError, UndefinedCaseError,
                     UnsupportedRuleError)
from .finite_topology import (SIERPINSKI, FiniteSpace, closure,
                              discrete_space, enumerate_spaces,
                              indiscrete_space, is_hausdorff,
                              is_neighborhood, is_pseudometrizable,
                              is_regular, separate_compact_from_point,
                              top_element)
from .pseudometric_core import (FinitePseudoMetric, RationalPointSpace,
                                compact_inner_radius)
from .rationals import INFINITY, as_point
from .semiflow_cells import (CellGrid, DiscreteSemiflow, OmegaResult,
                             attraction_trace_check, cell_image,
                             omega_limit_cells)
from .setvalued_maps import (SetValuedMap, image, is_lsc_at, is_usc_at,
                             lsc_via_semidistance)
from .subset_nets import (ZNN, AffineEscape, FiniteIndexNet,
                          GeometricConverge, NetAnalysis, Periodic,
                          SubsetNet, analyze,
                          below_iff_semidistance, cluster_set,
                          converges_from_above, converges_from_below,
                          eventually_in, frequently_in,
                          is_asymptotically_seq_compact,
                          is_eventually_lagrange_stable,
                          is_limit_set_compact,
                          is_weakly_asymptotically_seq_compact,
                          kuratowski_limits, limit_set,
                          limit_set_horizon_oracle,
                          semidistance_convergence_check,
                          sequential_limit_set)

__version__ = "0.1.0"
