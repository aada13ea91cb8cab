"""Numerical Gauss-Bonnet-Chern verification on Finsler surfaces.

Builds the characteristic and transgression forms of a metric-compatible
connection on the projective sphere bundle of a closed oriented Finsler
surface, and demonstrates numerically that the excised base integral of
(Omega^D + FrakE)/V converges to chi(M)/vol(S^1), alongside pointwise
checks of every intermediate identity.
"""

from .algebra import BigradedElement, SkewMatrixValuedForm, berezin, exp_truncated, pfaffian
from .chern_forms import TransgressionForms, mathai_quillen_Ut
from .connection import (
    CurvatureData,
    cartan_connection,
    chern_connection,
    modify,
    perturb_metric_compatible,
    to_orthonormal_frame,
)
from .manifolds import install_metric, sphere_atlas, torus_atlas
from .metric import (
    FinslerMetric,
    MinkowskiNorm,
    fiber_volume,
    sum_norms,
)
from .quadrature import (
    FormField,
    base_integral_excised,
    boundary_circle_integral,
    exterior_derivative,
    pullback_by_section,
)
from .topology import find_zeros, local_degree, poincare_hopf_sum

__version__ = "0.1.0"
