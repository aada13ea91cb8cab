"""The rank-2 production forms on the sphere bundle.

Built from the frame forms of a metric-compatible connection D and its
modification nabla: the fiber volume V at one node count per chart, d log
V, and the fused GBC integrand (Omega^D + FrakE) / V = -c d(pi_0^1 / V),
which reads the one frame form pi_0^1 of nabla.  The general-rank forms
it is checked against (Phi_k, Pi, Upsilon_0, Upsilon_1, FrakE, U_t) live
in ``identities``.
"""

from __future__ import annotations

import numpy as np

from .algebra import pfaffian_norm_constant
from .connection import AXES, FrameConnection
from .metric import FIBER_ORDER, FinslerMetric, fiber_volume, size_fiber_rule
from .quadrature import ChartPoints, FormField, complex_step_partials, d_from_partials

__all__ = ["TransgressionForms"]


class TransgressionForms:
    """Builds the production forms for one (metric, D, nabla) triple and
    keeps the shared volume functions cached.  ``fiber_rules`` maps each
    chart to the (nodes, converged) of its one fiber rule of at most
    order_fiber nodes, sized on the chart's probes of ``metric.atlas``
    (``metric.size_fiber_rule``)."""

    def __init__(self, metric: FinslerMetric, D: FrameConnection,
                 nabla: FrameConnection, order_fiber: int = FIBER_ORDER):
        self.metric = metric
        self.D = D
        self.nabla = nabla
        self.n = nabla.n
        self.order_fiber = order_fiber
        self.fiber_rules = {c: size_fiber_rule(metric, c, order_fiber)
                            for c in metric.charts}

    # --- fiber volume -------------------------------------------------------
    def volume_at(self, chart: str, x):
        """V at the base points x (real or complex) of the chart, at the
        chart's node count."""
        return fiber_volume(self.metric, x, chart, self.fiber_rules[chart][0])

    def volume(self, pts: ChartPoints) -> np.ndarray:
        return pts.cached(("V", self), lambda: self.volume_at(pts.chart, pts.coords[:2]))

    def dlog_volume(self, pts: ChartPoints):
        """(d log V / dx1, d log V / dx2), exact to rounding: the partials
        of one complex-step sweep of V along the two base axes
        (``complex_step_partials``), both stacked on one pass, over V from
        the plain pass of ``volume``.  The fused integrand does not read
        it: only the general-rank FrakE of ``IdentityForms``, which the
        tests check that integrand against, does."""
        def dlog():
            d1, d2 = complex_step_partials(
                lambda q: {"V": self.volume_at(q.chart, q.coords)},
                ChartPoints(pts.chart, pts.coords[:2]))
            V = self.volume(pts)
            return d1["V"] / V, d2["V"] / V

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
        Euler-form constant and u_1 = -c the Upsilon_1 weight: that is
        -c d(pi_0^1 / V), and D enters only through nabla = modify(D).
        pi_0^1 / V and its d, exact to rounding, come from one complex-step
        sweep along the tangent rows J of the chart: the identity on the
        bundle (three rows), and (1, 0, t_1), (0, 1, t_2) with t = d theta
        for a section (two rows).  V is taken on the sweep's own complex
        base points at the chart's node count.  The sweep stacks its rows
        into one pass, so the metric jets, tensors, frame forms and fiber
        sums are built once per batch.  d commutes with pullback, so the
        pulled-back form is (J pi)_l = sum_j J_lj pi_j with partials
        D_k (J pi)_l = sum_j J_lj D_k pi_j: J is the section's Jacobian,
        whose own derivatives cancel in d.
        The identity suite (``identities``) checks the bundle form against
        the general-rank Omega^D + FrakE on the finite-difference stencil."""
        norm = pfaffian_norm_constant(2)

        def payload(q: ChartPoints) -> dict:
            V = self.volume_at(q.chart, q.coords[:2])
            return {(a,): c / V for a, c in enumerate(self.nabla.pi(q))}

        def func(pts: ChartPoints):
            if section is None:
                q, rows = pts, _BUNDLE_ROWS
            else:
                x1, x2 = pts.coords
                t1, t2 = section.theta_grad(pts.chart, x1, x2)
                q = ChartPoints(pts.chart, (x1, x2, section.theta(pts.chart, x1, x2)))
                rows = ((1.0, 0.0, t1), (0.0, 1.0, t2))
            partials = complex_step_partials(payload, q, rows)
            return (-norm) * d_from_partials([{(l,): _along(row, by_key)
                                               for l, row in enumerate(rows)}
                                              for by_key in partials])

        return FormField(AXES if section is None else 2, 2, func)


# The tangent rows of the bundle chart itself: the sweep runs along the axes.
_BUNDLE_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _along(row, c: dict):
    """sum_j row[j] c[(j,)]: a 1-form's coefficient table contracted with
    one tangent row, skipping the weights that are the float 0.0 (x * 1.0
    is x, so on the bundle rows this is c[(l,)] bit for bit)."""
    terms = [w * c[(j,)] for j, w in enumerate(row) if not (isinstance(w, float) and w == 0.0)]
    return sum(terms[1:], terms[0])
