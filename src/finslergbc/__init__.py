"""Numerical Gauss-Bonnet-Chern verification on Finsler surfaces.

Builds the characteristic and transgression forms of a metric-compatible
connection on the projective sphere bundle of a closed oriented Finsler
surface, and demonstrates numerically that the excised base integral of
(Omega^D + FrakE)/V converges to chi(M)/vol(S^1), alongside pointwise
checks of every intermediate identity.

Each public name loads its module on first access (PEP 562), so
``import finslergbc`` alone compiles none of them.
"""

import importlib

_EXPORTS = {
    "algebra": ("BigradedElement", "SkewMatrixValuedForm", "berezin", "exp_truncated", "pfaffian"),
    "chern_forms": ("TransgressionForms",),
    "connection": ("CurvatureData", "cartan_connection", "chern_connection", "modify",
                   "perturb_metric_compatible", "to_orthonormal_frame"),
    "identities": ("mathai_quillen_Ut",),
    "manifolds": ("install_metric", "sphere_atlas", "torus_atlas"),
    "metric": ("FinslerMetric", "MinkowskiNorm", "fiber_volume", "sum_norms"),
    "quadrature": ("FormField", "base_integral_excised", "boundary_circle_integral",
                   "exterior_derivative", "pullback_by_section"),
    "topology": ("find_zeros", "local_degree", "poincare_hopf_sum"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        # an AttributeError lets ``from finslergbc import cli`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
