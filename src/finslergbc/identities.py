"""The identity suite and the general-rank forms it checks against.

Built from the frame forms of a metric-compatible connection D and its
modification nabla: the contractions Phi_k, the transgression Pi with
d Pi = Omega^nabla, which at rank 2 is Upsilon_1 (its part Upsilon_2
vanishes below rank 4), the Chern-Weil interpolation term Upsilon_0, the
correction FrakE, and the Gaussian family U_t whose t = 0 slice is the
Pfaffian form.  ``run_identity_suite`` holds each identity the rank-2
pipeline of ``chern_forms`` relies on to a bound, pointwise at random
bundle points.  Only the ``identities`` scenario loads this module.
"""

from __future__ import annotations

import math
import time
from itertools import permutations

import numpy as np

from .algebra import (BigradedElement, SkewMatrixValuedForm, berezin, exp_truncated, pfaffian,
                      pfaffian_norm_constant, sort_with_parity)
from .chern_forms import TransgressionForms
from .cli import ExperimentConfig, Report, _bound, _build_connections, _build_metric
from .connection import AXES, CurvatureData, FrameConnection, metric_compat_residual
from .errors import ValidationError
from .manifolds import Atlas
from .metric import FIBER_ORDER, FinslerMetric, fiber_volume_form
from .quadrature import ChartPoints, FormField, PointwiseForm, exterior_derivatives, gauss_legendre

__all__ = ["upsilon1_coefficient", "phi_k", "pi_coefficients", "pi_form", "omega_pfaffian",
           "chern_weil_upsilon0", "frak_e", "mathai_quillen_Ut", "IdentityForms",
           "IDENTITY_BOUNDS", "run_identity_suite"]

IMAG_TOL = 1e-10


# ---------------------------------------------------------------------------
# general-rank forms


def pi_coefficients(n: int) -> list[float]:
    """Weights c_k with Pi = sum_k c_k Phi_k (gamma-function display)."""
    return [((-1.0) ** (n - 1)) / math.pi ** (n / 2.0) * ((-1.0) ** k)
            * math.gamma((n - 2.0 * k) / 2.0)
            / (math.factorial(k) * math.factorial(n - 1 - 2 * k) * 2.0 ** (2 * k + 1))
            for k in range(0, (n - 1) // 2 + 1)]


def upsilon1_coefficient(n: int) -> float:
    """The weight u_1 with Upsilon_1 = u_1 Phi_0."""
    return (((-1.0) ** (n - 1)) / (2.0 * math.pi ** (n / 2.0)) * math.gamma(n / 2.0)
            / math.factorial(n - 1))


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
            factors = [PointwiseForm(dict(om[alpha[2 * s]][alpha[2 * s + 1]]))
                       for s in range(k)]
            factors += [PointwiseForm({(a,): pi[alpha[s]][n - 1][a] for a in range(AXES)})
                        for s in range(2 * k, n - 1)]
            term = PointwiseForm({(): 1.0})
            for f in factors:
                term = term.wedge(f)
            out = out + float(sign) * term
        return out

    return FormField(AXES, n - 1, func)


def pi_form(curv: CurvatureData, conn: FrameConnection) -> FormField:
    """Pi = sum_k c_k Phi_k; satisfies d Pi = Omega^nabla (transgression)."""
    terms = [c * phi_k(curv, conn, k) for k, c in enumerate(pi_coefficients(conn.n))]
    return sum(terms[1:], terms[0])


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
        pa, pb = D.table(pts), nabla.table(pts)
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


def _theta_t(t: float, nabla_ell: BigradedElement, Omega: BigradedElement) -> BigradedElement:
    """Theta_t = t^2/2 + i t nabla_ell + Omega."""
    unit = BigradedElement.unit(nabla_ell.n, nabla_ell.form_dim)
    return (0.5 * t * t) * unit + (1j * t) * nabla_ell + Omega


def mathai_quillen_Ut(t: float, nabla_ell: BigradedElement, Omega: BigradedElement) -> dict:
    """The coefficient table of U_t = B(exp(-Theta_t)); U_0 = Pf(-Omega)."""
    return berezin(exp_truncated((-1.0) * _theta_t(t, nabla_ell, Omega)))


class IdentityForms(TransgressionForms):
    """The forms of ``TransgressionForms`` and, beside its fused rank-2
    integrand, every general-rank form the identity suite checks it
    against, built through the skew tables and the bigraded algebra.
    ``curv_D`` and ``curv_nabla`` are the curvature data of D and nabla;
    the fused integrand reads neither."""

    def __init__(self, metric: FinslerMetric, D: FrameConnection,
                 nabla: FrameConnection, order_fiber: int = FIBER_ORDER):
        super().__init__(metric, D, nabla, order_fiber)
        self.curv_D = CurvatureData(D)
        self.curv_nabla = CurvatureData(nabla)

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
        return upsilon1_coefficient(self.n) * self.phi(0)

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


# ---------------------------------------------------------------------------
# scenario: identities


def _bundle_samples(cfg: ExperimentConfig, atlas: Atlas, count: int):
    """count random sphere-bundle points in one batch per chart: the
    charts share count evenly, the first ones taking one point more each
    until the remainder is used up; a chart with no share gets no batch."""
    rng = np.random.default_rng(cfg.seed)
    pts = []
    per, extra = divmod(count, len(atlas.chart_ids))
    for k, chart in enumerate(atlas.chart_ids):
        per_chart = per + (k < extra)
        if per_chart == 0:
            continue
        if atlas.name == "sphere":
            r = np.sqrt(rng.uniform(0.0, 0.92, per_chart))
            ph = rng.uniform(0.0, 2.0 * math.pi, per_chart)
            x1, x2 = r * np.cos(ph), r * np.sin(ph)
        else:
            x1 = rng.uniform(0.0, 2.0 * math.pi, per_chart)
            x2 = rng.uniform(0.0, 2.0 * math.pi, per_chart)
        th = rng.uniform(0.0, 2.0 * math.pi, per_chart)
        pts.append(ChartPoints.of(chart, x1, x2, th))
    return pts


# The identity rows of run_identity_suite and their bounds, in report order.
# At the default orders and seeds 1-20 every configuration passes.  On
# the sphere with round_sphere and randers (eps 0.1) and the torus with
# euclidean, riemannian and quartic, each with cartan and perturbed
# (amplitude 0.2), the worst residuals are eq33 6.6e-13, eq34
# 6.7e-13, prop51 9.1e-14, lemma35 closedness 1.7e-11 and ODE 2.6e-12.  On
# Randers eps 0.5, 0.8 and 0.9 with cartan and perturbed they are eq33
# 2.1e-12, eq34 1.95e-11, prop51 2.5e-13, closedness 4.2e-11 and ODE
# 9.7e-12.  The eq34 margin there is thin: Randers 0.9, seed 6, perturbed
# reads 1.95e-11 against 2e-11, and read 1.94e-11 with V sized at each
# point, so it is the stencil's error on the strongest metric, not the
# fiber rule; it grows as FD_STEP shrinks (3.7e-12 at 2e-4, 3.9e-11 at
# 5e-5), so rounding dominates it.
IDENTITY_BOUNDS = {
    "eq33_dPi_minus_omega_nabla": 1e-10,
    "eq34_gbc_exactness": 2e-11,
    "prop51_chern_weil": 5e-12,  # reads exactly 0 where D = nabla (cartan)
    "prop33_fiber_volume_form": 1e-8,
    "prop32_metric_compatibility": 1e-8,
    "lemma35_closedness": 1e-9,  # blind to a constant rescale of Omega: c Omega is closed
    "lemma35_transgression_ode": 5e-10,
}


def run_identity_suite(cfg: ExperimentConfig) -> Report:
    """Pointwise residuals of every identity the pipeline relies on."""
    cfg.validate()
    t0 = time.perf_counter()
    metric = _build_metric(cfg)
    fcD, fcN, nabla_data = _build_connections(cfg, metric)
    forms = IdentityForms(metric, fcD, fcN, order_fiber=cfg.order_fiber)
    batches = _bundle_samples(cfg, metric.atlas, cfg.identity_samples)

    worst = dict.fromkeys(IDENTITY_BOUNDS, 0.0)
    inv_v = lambda p: 1.0 / forms.volume(p)
    integrand = forms.gbc_integrand()
    u1_field = forms.mathai_quillen_field(1.0)
    # Every finite-difference row reads one stencil sweep per batch, so each
    # displaced batch evaluates V and the curvature of nabla once for all
    # five fields, the curvature along the two axes across the stack's: 3
    # stacks, 6 nested ones on them and 3 for the curvature at the batch.
    # Those 12 stacks hold 6 point sets (the 3 stacks and the 3 pairs of
    # axes), and pi, like a perturbation's P, runs in 4 passes per chart
    # batch: one on the 3 stacks together and one on each pair, whose 1,600
    # points stay the largest pass.  A stack reaching points seen before
    # takes them from the batch (ChartPoints.shared).
    # gbc_integrand takes its exact complex-step partials as in production,
    # so eq34 compares them with this FD sweep.
    differentiated = [forms.pi(), forms.upsilon1().scale_by(inv_v), forms.upsilon0(),
                      u1_field, forms.mathai_quillen_primitive_field(1.0)]
    for pts in batches:
        dpi, rhs, du0, du1, dprim = exterior_derivatives(differentiated, pts)
        omn = forms.omega_nabla()(pts)
        x1, x2, th = pts.coords
        # U_t = exp(-t^2/2) P(t) with P(t) = B(exp(-(i t nabla l + Omega))).
        # At rank 2 (N_RANK) the Berezin integral keeps fiber degree 2 only,
        # reached by (i t nabla l)^2 and by Omega, so P has degree at most 2
        # in t and its central difference is exact: dU/dt = exp(-t^2/2)
        # (P'(t) - t P(t)) carries rounding only, whatever h is.
        h = 1e-3
        P = lambda t: math.exp(0.5 * t * t) * forms.mathai_quillen_field(t)(pts)
        batch = {
            "eq33_dPi_minus_omega_nabla": (dpi - omn).max_abs(),
            "eq34_gbc_exactness": (integrand(pts) - rhs).max_abs(),
            "prop51_chern_weil": (du0 - (forms.omega_D()(pts) - omn)).max_abs(),
            "prop33_fiber_volume_form": float(np.max(np.abs(
                fiber_volume_form(metric, [x1, x2], th, pts.chart) - fcN.pi(pts)[2]))),
            "prop32_metric_compatibility": metric_compat_residual(metric, nabla_data, pts),
            "lemma35_closedness": du1.max_abs(),
            "lemma35_transgression_ode": ((math.exp(-0.5) / (2 * h)) * (P(1.0 + h) - P(1.0 - h))
                                          - u1_field(pts) + 1j * dprim).max_abs(),
        }
        worst = {name: float(np.maximum(worst[name], batch[name])) for name in worst}
        # Nothing reads the batch's entries again; the frame forms of its
        # stacks among them would otherwise stay until the suite returns.
        pts.cache.clear()

    rows = [_bound(name, worst[name], bound) for name, bound in IDENTITY_BOUNDS.items()]
    rows.append(_bound("eq32_component_identity", _eq32_residual(cfg.seed), 1e-10))
    rows.append(_bound("gamma_coefficient_identity", _gamma_identity_residual(), 1e-14))

    meta = {
        "metric": metric.label,
        "connection": fcD.label,
        "samples": cfg.identity_samples,
        "runtime_s": f"{time.perf_counter() - t0:.2f}",
        "seed": cfg.seed,
    }
    return Report("identities", rows, [], meta)


def _eq32_residual(seed: int) -> float:
    """Component of exp(-(i t nabla_l + Omega)) in A^{n-1,n-1} against the
    closed form (-i)^{n-1} sum_k (t nabla_l)^{n-1-2k} Omega^k / (k! (n-1-2k)!),
    at five random (t, nabla_l, Omega) per rank n.  The five are drawn one
    after the other, and evaluated at once as elements whose coefficients
    are length-5 arrays: the same bits as five scalar evaluations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3, 4):
        draws = [(rng.uniform(0.2, 2.0), rng.standard_normal(3 * n),
                  rng.standard_normal(3 * n * (n - 1) // 2)) for _ in range(5)]
        t, nl_coeffs, om_coeffs = (np.array(column) for column in zip(*draws))
        nl_coeffs, om_coeffs = iter(nl_coeffs.T + 0j), iter(om_coeffs.T + 0j)
        nl = BigradedElement.zero(n, 3)
        for j in range(n):
            for a in range(3):
                nl.add_term((a,), (j,), next(nl_coeffs))
        om = BigradedElement.zero(n, 3)
        for i in range(n):
            for j in range(i + 1, n):
                for a in range(3):
                    for b in range(a + 1, 3):
                        om.add_term((a, b), (i, j), next(om_coeffs))
        brute = exp_truncated((-1.0) * ((1j * t) * nl + om)).component(n - 1, n - 1)
        closed = BigradedElement.zero(n, 3)
        for k in range(0, (n - 1) // 2 + 1):
            term = BigradedElement.unit(n, 3)
            for _ in range(n - 1 - 2 * k):
                term = term * (t * nl)
            for _ in range(k):
                term = term * om
            weight = (-1j) ** (n - 1) / (math.factorial(k) * math.factorial(n - 1 - 2 * k))
            closed = closed + weight * term
        worst = max(worst, (brute - closed.component(n - 1, n - 1)).max_abs())
    return worst


def _gamma_identity_residual() -> float:
    """int_0^inf t^{n-1-2k} e^{-t^2} dt = Gamma((n-2k)/2) / 2, on 64 nodes."""
    worst = 0.0
    t, w = gauss_legendre(0.0, 12.0, 64)
    for n, k in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1)):
        m = n - 1 - 2 * k
        quad = float(np.sum(w * t ** m * np.exp(-t * t)))
        worst = max(worst, abs(quad - 0.5 * math.gamma((n - 2 * k) / 2.0)))
    return worst
