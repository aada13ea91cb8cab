"""The rank-2 production forms on the sphere bundle.

Built from the frame forms of a metric-compatible connection D and its
modification nabla: the fiber volume V and d log V, the Upsilon_1 weight,
and the fused GBC integrand (Omega^D + FrakE) / V, which reads the one
frame form varpi_0^1 of nabla.  The general-rank forms it is checked
against (Phi_k, Pi, Upsilon_0, FrakE, U_t) live in ``identities``.
"""

from __future__ import annotations

import math

import numpy as np

from .ad import partial, seed_pair, value
from .algebra import pfaffian_norm_constant
from .connection import AXES, CurvatureData, FrameConnection
from .metric import FIBER_ORDER, FinslerMetric, fiber_volume
from .quadrature import (
    ChartPoints,
    FormField,
    PointwiseForm,
    complex_step_partials,
    d_from_partials,
)

__all__ = ["upsilon1_coefficient", "TransgressionForms"]


def upsilon1_coefficient(n: int) -> float:
    """The weight u_1 with Upsilon_1 = u_1 Phi_0."""
    return (
        ((-1.0) ** (n - 1))
        / (2.0 * math.pi ** (n / 2.0))
        * math.gamma(n / 2.0)
        / math.factorial(n - 1)
    )


class TransgressionForms:
    """Builds the production forms for one (metric, D, nabla) triple and
    keeps the shared volume functions cached.  ``fiber_rules`` maps each
    chart to the largest fiber node count its V passes took and whether
    they all converged (``fiber_volume``)."""

    def __init__(self, metric: FinslerMetric, D: FrameConnection,
                 nabla: FrameConnection, order_fiber: int = FIBER_ORDER):
        self.metric = metric
        self.D = D
        self.nabla = nabla
        self.n = nabla.n
        self.order_fiber = order_fiber
        self.fiber_rules = {}
        self.curv_D = CurvatureData(D)
        self.curv_nabla = CurvatureData(nabla)

    # --- fiber volume -------------------------------------------------------
    def volume(self, pts: ChartPoints) -> np.ndarray:
        return pts.cached(("V", self), lambda: fiber_volume(
            self.metric, pts.coords[:2], pts.chart, self.order_fiber, self.fiber_rules))

    def dlog_volume(self, pts: ChartPoints):
        """(d log V / dx1, d log V / dx2), exact, from one fiber-volume pass:
        x1 and x2 are seeded on one leading axis of length 2 (the rows of
        the identity), so the pass carries dV/dx1 and dV/dx2 side by side.
        Its value part is V, which is cached for ``volume`` if no plain
        pass has run yet."""
        def dlog():
            jet = fiber_volume(self.metric, list(seed_pair(*pts.coords[:2])), pts.chart,
                               self.order_fiber, self.fiber_rules)
            V = pts.cached(("V", self), lambda: value(jet))
            dV = np.broadcast_to(partial(jet), (2,) + V.shape)
            return dV[0] / V, dV[1] / V

        return pts.cached(("dlogV", self), dlog)

    # --- fused GBC integrand ---------------------------------------------------
    def gbc_integrand(self, section=None) -> FormField:
        """(Omega^D + FrakE) / V as one fused 2-form field, from the single
        frame form pi_0^1 of nabla: on the bundle chart, or pulled back to
        the base by a section x -> (x, theta(x)) that has ``theta`` and
        ``theta_grad`` as a ``SectionField`` does.

        At rank 2 Pf is linear and so(2) is abelian, so Omega^D - d
        Upsilon_0 = Omega^nabla = Pf(-d pi_0^1)/(2 pi) point by point, and
        the integrand is (-c d pi_0^1 - d log V ^ u_1 pi_0^1)/V with c the
        Euler-form constant and u_1 the Upsilon_1 weight: D enters only
        through nabla = modify(D).  pi_0^1 and its d, exact to rounding,
        come from one complex-step sweep along the tangent rows J of the
        chart: the identity on the bundle (three rows), and (1, 0, t_1),
        (0, 1, t_2) with t = d theta for a section (two rows).  The sweep
        stacks its rows into one pass, so the metric jets, tensors and
        frame forms are built once per batch.  d commutes with pullback,
        so the pulled-back form is (J pi)_l = sum_j J_lj pi_j with partials
        D_k (J pi)_l = sum_j J_lj D_k pi_j: J is the section's Jacobian,
        whose own derivatives cancel in d.
        The identity suite (``identities``) checks the bundle form against
        the general-rank Omega^D + FrakE on the finite-difference stencil."""
        norm = pfaffian_norm_constant(2)
        u1c = upsilon1_coefficient(2)

        def payload(q: ChartPoints) -> dict:
            return {(a,): c for a, c in enumerate(self.nabla.pi(q))}

        def func(pts: ChartPoints) -> PointwiseForm:
            if section is None:
                q, rows = pts, _BUNDLE_ROWS
            else:
                x1, x2 = pts.coords
                t1, t2 = section.theta_grad(pts.chart, x1, x2)
                q = ChartPoints(pts.chart, (x1, x2, section.theta(pts.chart, x1, x2)))
                rows = ((1.0, 0.0, t1), (0.0, 1.0, t2))
            pi01, partials = complex_step_partials(payload, q, rows)
            dpi = d_from_partials([{(l,): _along(row, by_key) for l, row in enumerate(rows)}
                                   for by_key in partials])
            ups1 = PointwiseForm({(k,): u1c * _along(row, pi01) for k, row in enumerate(rows)})
            d1, d2 = self.dlog_volume(pts)
            dlogv = PointwiseForm({(0,): d1, (1,): d2})
            return (1.0 / self.volume(pts)) * ((-norm) * dpi - dlogv.wedge(ups1))

        return FormField(AXES if section is None else 2, 2, func)


# The tangent rows of the bundle chart itself: the sweep runs along the axes.
_BUNDLE_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _along(row, c: dict):
    """sum_j row[j] c[(j,)]: a 1-form's coefficient table contracted with
    one tangent row, skipping the weights that are the float 0.0 (x * 1.0
    is x, so on the bundle rows this is c[(l,)] bit for bit)."""
    terms = [w * c[(j,)] for j, w in enumerate(row) if not (isinstance(w, float) and w == 0.0)]
    return sum(terms[1:], terms[0])
