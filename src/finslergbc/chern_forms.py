"""Characteristic and transgression forms on the sphere bundle.

Built from the frame forms of a metric-compatible connection D and its
modification nabla: the contractions Phi_k, the transgression Pi with
d Pi = Omega^nabla, which at rank 2 is Upsilon_1 (its part Upsilon_2
vanishes below rank 4), the Chern-Weil interpolation term Upsilon_0, the
correction FrakE, and the Gaussian family U_t whose t = 0 slice is the
Pfaffian form.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .ad import partial, seed_pair, value
from .algebra import (
    BigradedElement,
    SkewMatrixValuedForm,
    berezin,
    exp_truncated,
    pfaffian,
    pfaffian_norm_constant,
    sort_with_parity,
)
from .connection import AXES, CurvatureData, FrameConnection
from .errors import ValidationError
from .metric import FIBER_ORDER, FinslerMetric, fiber_volume
from .quadrature import (
    ChartPoints,
    FormField,
    PointwiseForm,
    complex_step_partials,
    d_from_partials,
)

__all__ = [
    "phi_k",
    "pi_coefficients",
    "upsilon1_coefficient",
    "pi_form",
    "omega_pfaffian",
    "chern_weil_upsilon0",
    "frak_e",
    "mathai_quillen_Ut",
    "TransgressionForms",
]

IMAG_TOL = 1e-10


# ---------------------------------------------------------------------------
# coefficient tables


def pi_coefficients(n: int) -> list[float]:
    """Weights c_k with Pi = sum_k c_k Phi_k (gamma-function display)."""
    out = []
    for k in range(0, (n - 1) // 2 + 1):
        c = (
            ((-1.0) ** (n - 1))
            / math.pi ** (n / 2.0)
            * ((-1.0) ** k)
            * math.gamma((n - 2.0 * k) / 2.0)
            / (math.factorial(k) * math.factorial(n - 1 - 2 * k) * 2.0 ** (2 * k + 1))
        )
        out.append(c)
    return out


def upsilon1_coefficient(n: int) -> float:
    return (
        ((-1.0) ** (n - 1))
        / (2.0 * math.pi ** (n / 2.0))
        * math.gamma(n / 2.0)
        / math.factorial(n - 1)
    )


# ---------------------------------------------------------------------------
# the Phi_k contractions


def phi_k(curv: CurvatureData, conn: FrameConnection, k: int) -> FormField:
    """Phi_k = sum eps_{a_1..a_{n-1}} Omega^{a_2}_{a_1} ^ ... ^
    varpi^n_{a_{2k+1}} ^ ...: k curvature factors and n-1-2k frame-form
    factors, contracted with the Levi-Civita symbol."""
    n = conn.n
    if not 0 <= k <= (n - 1) // 2:
        raise ValidationError(f"phi_k index k={k} out of range for rank {n}")

    def func(pts: ChartPoints) -> PointwiseForm:
        om = curv.table(pts) if k > 0 else None
        pi = conn.table(pts)
        out = PointwiseForm()
        for alpha in permutations(range(n - 1)):
            _, sign = sort_with_parity(alpha)
            factors = []
            for s in range(k):
                factors.append(PointwiseForm(dict(om[alpha[2 * s]][alpha[2 * s + 1]])))
            for s in range(2 * k, n - 1):
                factors.append(
                    PointwiseForm({(a,): pi[alpha[s]][n - 1][a] for a in range(AXES)})
                )
            term = PointwiseForm({(): 1.0})
            for f in factors:
                term = term.wedge(f)
            out = out + float(sign) * term
        return out

    return FormField(AXES, n - 1, func)


def pi_form(curv: CurvatureData, conn: FrameConnection) -> FormField:
    """Pi = sum_k c_k Phi_k; satisfies d Pi = Omega^nabla (transgression)."""
    n = conn.n
    coeffs = pi_coefficients(n)
    out = None
    for k, c in enumerate(coeffs):
        term = c * phi_k(curv, conn, k)
        out = term if out is None else out + term
    return out


def omega_pfaffian(curv: CurvatureData) -> FormField:
    """Omega^nabla = Pf(-Omega)/(2 pi)^{n/2} through the Berezin integral;
    identically zero for odd rank."""
    n = curv.conn.n
    norm = pfaffian_norm_constant(n)

    def func(pts: ChartPoints) -> PointwiseForm:
        table = pfaffian(SkewMatrixValuedForm(n, AXES, curv.table(pts)))
        return PointwiseForm({K: norm * _real_part(c) for K, c in table.items()})

    return FormField(AXES, n, func)


def _real_part(c):
    arr = np.asarray(c)
    if np.iscomplexobj(arr):
        imag = float(np.max(np.abs(arr.imag)))
        if imag > IMAG_TOL:
            raise ValidationError(f"characteristic form has imaginary residue {imag}")
        return arr.real
    return arr


# ---------------------------------------------------------------------------
# Chern-Weil interpolation term


def chern_weil_upsilon0(D: FrameConnection, nabla: FrameConnection) -> FormField:
    """Upsilon_0 = int_0^1 B(exp(-Omega_s) . dD_s/ds) ds / (2 pi)^{n/2}
    for the family D_s = s nabla + (1-s) D.

    dD_s/ds = nabla - D embeds in A^{1,2}; exp(-Omega_s) contributes only
    fiber degrees up to n-2 against it, which vanishes below rank 4, so
    the curvature factor is skipped exactly for n = 2, 3.  The
    s-integrand is then constant, so the s-integral is its value."""
    n = D.n
    norm = pfaffian_norm_constant(n)
    if n >= 4:
        raise ValidationError("upsilon0 with curvature factors needs rank < 4 here")

    def func(pts: ChartPoints) -> PointwiseForm:
        pa = D.table(pts)
        pb = nabla.table(pts)
        diff = BigradedElement.zero(n, AXES)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for a in range(AXES):
                    diff.add_term((a,), (i, j), 0.5 * (pb[i][j][a] - pa[i][j][a]))
        table = berezin(diff)
        return PointwiseForm({K: norm * _real_part(c) for K, c in table.items()})

    return FormField(AXES, n - 1, func)


def frak_e(upsilon0: FormField, upsilon1: FormField, dlogv: FormField) -> FormField:
    """FrakE = -d Upsilon_0 - d log V ^ Upsilon_1.  The paper's third term,
    -d Upsilon_2, is zero here: Upsilon_2 = Pi - Upsilon_1 sums the Phi_k
    with k >= 1, and below rank 4 (the bundles here have rank N_RANK = 2)
    pi_coefficients has the k = 0 term only."""
    return (-1.0) * upsilon0.d() - dlogv.wedge(upsilon1)


# ---------------------------------------------------------------------------
# Mathai-Quillen family


def _theta_t(t: float, nabla_ell: BigradedElement, Omega: BigradedElement) -> BigradedElement:
    """Theta_t = t^2/2 + i t nabla_ell + Omega."""
    unit = BigradedElement.unit(nabla_ell.n, nabla_ell.form_dim)
    return (0.5 * t * t) * unit + (1j * t) * nabla_ell + Omega


def mathai_quillen_Ut(t: float, nabla_ell: BigradedElement,
                      Omega: BigradedElement) -> dict:
    """The coefficient table of U_t = B(exp(-Theta_t)); U_0 = Pf(-Omega)."""
    return berezin(exp_truncated((-1.0) * _theta_t(t, nabla_ell, Omega)))


# ---------------------------------------------------------------------------
# pipeline forms


class TransgressionForms:
    """Builds every pipeline form for one (metric, D, nabla) triple and
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

    def dlogv_field(self) -> FormField:
        def func(pts: ChartPoints) -> PointwiseForm:
            d1, d2 = self.dlog_volume(pts)
            return PointwiseForm({(0,): d1, (1,): d2})

        return FormField(AXES, 1, func)

    # --- named forms ----------------------------------------------------------
    def phi(self, k: int) -> FormField:
        return phi_k(self.curv_nabla, self.nabla, k)

    def pi(self) -> FormField:
        return pi_form(self.curv_nabla, self.nabla)

    def upsilon1(self) -> FormField:
        c = upsilon1_coefficient(self.n)
        return c * self.phi(0)

    def upsilon0(self) -> FormField:
        return chern_weil_upsilon0(self.D, self.nabla)

    def omega_nabla(self) -> FormField:
        return omega_pfaffian(self.curv_nabla)

    def omega_D(self) -> FormField:
        return omega_pfaffian(self.curv_D)

    def frak_e_field(self) -> FormField:
        return frak_e(self.upsilon0(), self.upsilon1(), self.dlogv_field())

    # --- algebra-level elements at sample points -------------------------------
    def nabla_ell_element(self, pts: ChartPoints) -> BigradedElement:
        """nabla l = varpi_n^j (x) e_j as an A^{1,1} element (batched)."""
        pi = self.nabla.table(pts)
        n = self.n
        out = BigradedElement.zero(n, AXES)
        for j in range(n):
            for a in range(AXES):
                out.add_term((a,), (j,), pi[n - 1][j][a] + 0.0j)
        return out

    def omega_element(self, pts: ChartPoints) -> BigradedElement:
        """Curvature of nabla as an A^{2,2} element (batched)."""
        om = self.curv_nabla.table(pts)
        n = self.n
        out = BigradedElement.zero(n, AXES)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for K, c in om[i][j].items():
                    out.add_term(K, (i, j), 0.5 * c + 0.0j)
        return out

    def mathai_quillen_field(self, t: float) -> FormField:
        """U_t as a closed n-form field on the bundle chart."""

        def func(pts: ChartPoints) -> PointwiseForm:
            U = mathai_quillen_Ut(t, self.nabla_ell_element(pts), self.omega_element(pts))
            return PointwiseForm({K: _real_part(c) for K, c in U.items()})

        return FormField(AXES, self.n, func)

    def mathai_quillen_primitive_field(self, t: float) -> FormField:
        """B(l . exp(-Theta_t)): the (n-1)-form in the t-transgression
        d U_t / dt = -i d [B(l . exp(-Theta_t))]."""

        def func(pts: ChartPoints) -> PointwiseForm:
            n = self.n
            theta = _theta_t(t, self.nabla_ell_element(pts), self.omega_element(pts))
            ell = BigradedElement(n, AXES, {((), (n - 1,)): 1.0 + 0.0j})
            table = berezin(ell * exp_truncated((-1.0) * theta))
            return PointwiseForm(dict(table))

        return FormField(AXES, self.n - 1, func)

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
        The identity suite checks the bundle form against the general-rank
        Omega^D + FrakE on the finite-difference stencil."""
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
