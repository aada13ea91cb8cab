"""Characteristic and transgression forms: coefficient identities, the
Pfaffian form, Chern-Weil interpolation, the correction term, and the
Gaussian t-family."""

import math
from itertools import permutations

import numpy as np
import pytest

from finslergbc.algebra import SkewMatrixValuedForm, pfaffian, sort_with_parity
from finslergbc.chern_forms import TransgressionForms, upsilon1_coefficient
from finslergbc.connection import (
    cartan_connection,
    modify,
    perturbed_connection_data,
    sinusoidal_perturbation,
    to_orthonormal_frame,
)
from finslergbc.identities import (
    IdentityForms,
    mathai_quillen_Ut,
    omega_pfaffian,
    phi_k,
    pi_coefficients,
    pi_form,
)
from finslergbc.metric import fiber_volume
from finslergbc.quadrature import (
    FD_STEP,
    ChartPoints,
    exterior_derivative,
    exterior_derivatives,
    gauss_legendre,
)

from conftest import bundle_points, zero_step_stack


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def pi_coefficients_display(n: int) -> list[float]:
    """The weights of pi_coefficients from the explicit even/odd displays;
    must agree with the gamma-function display identically."""
    out = []
    if n % 2 == 0:
        p = n // 2
        for k in range(0, p):
            c = (
                1.0
                / (2.0 * math.pi) ** p
                * ((-1.0) ** (k + 1))
                / (_double_factorial(2 * p - 2 * k - 1) * math.factorial(k) * 2.0 ** k)
            )
            out.append(c)
    else:
        p = (n - 1) // 2
        for k in range(0, p + 1):
            c = (
                1.0
                / (math.pi ** p * 2.0 ** (2 * p + 1) * math.factorial(p))
                * ((-1.0) ** k)
                * math.comb(p, k)
            )
            out.append(c)
    return out


def transgression_check(curv, conn, pts) -> float:
    """Pointwise residual of d Pi - Omega^nabla over the batch."""
    dpi = pi_form(curv, conn).d()(pts)
    return (dpi - omega_pfaffian(curv)(pts)).max_abs()


@pytest.fixture(scope="module")
def randers_forms(randers_metric, cartan_frame_randers):
    return IdentityForms(randers_metric, cartan_frame_randers, cartan_frame_randers)


@pytest.fixture(scope="module")
def round_forms(round_metric, cartan_frame_round):
    return IdentityForms(round_metric, cartan_frame_round, cartan_frame_round)


@pytest.fixture(scope="module")
def perturbed_setup(sphere, randers_metric, cartan_frame_randers):
    cart = cartan_connection()
    P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
    Dd = perturbed_connection_data(sphere, randers_metric, cart, P)
    fcD = to_orthonormal_frame(Dd, randers_metric)
    fcN = to_orthonormal_frame(modify(Dd), randers_metric)
    return IdentityForms(randers_metric, fcD, fcN)


class TestCoefficients:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_two_displays_agree(self, n):
        """The gamma-function display and the explicit even/odd displays of
        the Pi weights agree identically, using exact arithmetic for the
        rational parts (half-integer gamma values carry sqrt(pi)^m)."""
        a = pi_coefficients(n)
        b = pi_coefficients_display(n)
        assert len(a) == len(b) == (n - 1) // 2 + 1
        for x, y in zip(a, b):
            assert x == pytest.approx(y, rel=1e-14)

    def test_n2_values(self):
        """Pi = -Phi_0 / (2 pi) and Upsilon_1 = Pi for rank 2."""
        assert pi_coefficients(2) == [pytest.approx(-1.0 / (2 * math.pi))]
        assert upsilon1_coefficient(2) == pytest.approx(-1.0 / (2 * math.pi))

    def test_n3_pattern(self):
        """Odd display: Pi = (1/(8 pi)) (Phi_0 - Phi_1) for rank 3."""
        c = pi_coefficients(3)
        assert c[0] == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
        assert c[1] == pytest.approx(-1.0 / (8 * math.pi), rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_rank_exact_rational_identity(self, n):
        """For even rank the two displays agree as exact rationals once the
        common pi-power is stripped: Gamma((n-2k)/2) is an integer
        factorial, so everything lives in Q."""
        from fractions import Fraction

        p = n // 2
        for k in range(0, p):
            dfac = 1
            m = 2 * p - 2 * k - 1
            while m > 1:
                dfac *= m
                m -= 2
            q_display = Fraction((-1) ** (k + 1), dfac * math.factorial(k) * 2 ** k)
            q_display /= Fraction(2) ** p  # strip (2 pi)^p -> pi^p left
            gamma_int = math.factorial(p - k - 1)  # Gamma((n-2k)/2) exactly
            q_gamma = (
                Fraction((-1) ** (n - 1) * (-1) ** k * gamma_int,
                         math.factorial(k) * math.factorial(n - 1 - 2 * k)
                         * 2 ** (2 * k + 1))
            )
            assert q_display == q_gamma

    def test_gamma_quadrature_identity(self):
        """int_0^inf t^{n-1-2k} e^{-t^2} dt = Gamma((n-2k)/2)/2 for the
        (n, k) pairs the transgression uses, to 1e-14."""
        for n, k in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1)):
            m = n - 1 - 2 * k
            t, w = gauss_legendre(0.0, 14.0, 500)
            quad = float(np.sum(w * t ** m * np.exp(-t * t)))
            assert quad == pytest.approx(0.5 * math.gamma((n - 2 * k) / 2.0), abs=1e-14)


class TestPhiK:
    def test_n2_is_frame_form(self, randers_forms, cartan_frame_randers):
        pts = bundle_points("south", 12, seed=40)
        w = randers_forms.phi(0)(pts)
        pi = cartan_frame_randers.pi(pts)
        for a in range(3):
            assert np.max(np.abs(w.get((a,)) - pi[a])) < 1e-14

    def test_fiber_restriction_is_volume_density(self, randers_forms, randers_metric):
        """Phi_0 restricted to a fiber equals (n-1)! d nu = rho d theta."""
        from finslergbc.metric import fiber_volume_form

        pts = bundle_points("south", 20, seed=41)
        w = randers_forms.phi(0)(pts)
        x1, x2, th = pts.coords
        rho = fiber_volume_form(randers_metric, [x1, x2], th, "south")
        assert float(np.max(np.abs(w.get((2,)) - rho))) < 1e-10

    def test_out_of_range_k(self, randers_forms, cartan_frame_randers):
        from finslergbc.errors import ValidationError

        with pytest.raises(ValidationError):
            phi_k(randers_forms.curv_nabla, cartan_frame_randers, 1)

    def test_n4_against_permutation_oracle(self):
        """Phi_1 for rank 4 on synthetic frame data equals the explicit
        eps-contraction sum evaluated with dense antisymmetric wedges."""
        rng = np.random.default_rng(42)
        n, AX = 4, 3
        pi_tab = rng.standard_normal((n, n, AX))
        pi_tab -= np.transpose(pi_tab, (1, 0, 2))
        om_tab = rng.standard_normal((n, n, AX, AX))
        om_tab -= np.transpose(om_tab, (0, 1, 3, 2))  # antisymmetric in axes
        om_tab -= np.transpose(om_tab, (1, 0, 2, 3))  # and in the matrix slots

        class FakeConn:
            pass

        conn = FakeConn()
        conn.n = n
        conn.table = lambda pts: [
            [[pi_tab[i, j, a] for a in range(AX)] for j in range(n)] for i in range(n)
        ]

        class FakeCurv:
            def table(self, pts):
                return [
                    [
                        {(a, b): om_tab[i, j, a, b] for a in range(AX) for b in range(AX) if a < b}
                        for j in range(n)
                    ]
                    for i in range(n)
                ]

        pts = ChartPoints.of("south", [0.0], [0.0], [0.0])
        got = phi_k(FakeCurv(), conn, 1)(pts)

        # oracle: permutation enumeration with the hand-expanded wedge rule
        # (q ^ v)_{012} = q01 v2 - q02 v1 + q12 v0 for ordered 2-form coeffs
        want = 0.0
        for alpha in permutations(range(n - 1)):
            _, sign = sort_with_parity(alpha)
            q = om_tab[alpha[0], alpha[1]]
            v = pi_tab[alpha[2], n - 1]
            want += sign * (q[0, 1] * v[2] - q[0, 2] * v[1] + q[1, 2] * v[0])
        assert float(np.asarray(got.get((0, 1, 2)))) == pytest.approx(want, rel=1e-10)


class TestOmegaPfaffian:
    def test_n2_closed_form(self, randers_forms):
        """Omega^nabla = -Omega_1^2 / (2 pi): the eps-display specialised
        to rank 2, cross-checked against B(exp(-Omega))/(2 pi)."""
        pts = bundle_points("south", 15, seed=43)
        w = randers_forms.omega_nabla()(pts)
        om = randers_forms.curv_nabla.omega(pts)
        for key in ((0, 1), (0, 2), (1, 2)):
            want = -np.asarray(om[key]) / (2 * math.pi)
            assert float(np.max(np.abs(w.get(key) - want))) < 1e-10

    def test_flat_zero(self, flat_metric):
        fc = to_orthonormal_frame(cartan_connection(), flat_metric)
        forms = IdentityForms(flat_metric, fc, fc)
        pts = bundle_points("torus", 10, seed=44)
        assert forms.omega_nabla()(pts).max_abs() < 1e-12

    def test_odd_rank_zero(self):
        ent = [[{} for _ in range(3)] for _ in range(3)]
        ent[0][1] = {(0, 1): 1.0}
        ent[1][0] = {(0, 1): -1.0}
        assert pfaffian(SkewMatrixValuedForm(3, 3, ent)) == {}


class TestTransgression:
    @pytest.mark.parametrize("chart", ["south", "north"])
    def test_eq33_round(self, chart, round_forms, cartan_frame_round):
        pts = bundle_points(chart, 100, seed=45)
        assert transgression_check(round_forms.curv_nabla, cartan_frame_round, pts) < 1e-5

    def test_eq33_flat_both_sides_zero(self, flat_metric):
        fc = to_orthonormal_frame(cartan_connection(), flat_metric)
        forms = IdentityForms(flat_metric, fc, fc)
        pts = bundle_points("torus", 10, seed=46)
        dpi = exterior_derivative(forms.pi())(pts)
        assert dpi.max_abs() < 1e-10
        assert forms.omega_nabla()(pts).max_abs() < 1e-12

    @pytest.mark.parametrize("chart", ["south", "north"])
    def test_eq33_randers(self, chart, randers_forms, cartan_frame_randers):
        pts = bundle_points(chart, 100, seed=47)
        assert transgression_check(randers_forms.curv_nabla, cartan_frame_randers, pts) < 1e-5

    def test_pi_equals_upsilon1_rank2(self, randers_forms):
        pts = bundle_points("south", 10, seed=48)
        assert (randers_forms.pi()(pts) - randers_forms.upsilon1()(pts)).max_abs() < 1e-14


class TestUpsilon0:
    def test_equal_connections_zero(self, randers_forms):
        pts = bundle_points("south", 10, seed=49)
        assert randers_forms.upsilon0()(pts).max_abs() == 0.0

    def test_riemannian_pullback_d_upsilon0_zero(self, round_forms):
        """The round pullback connection is its own modification, so
        Upsilon_0 = 0 and d Upsilon_0 = 0."""
        pts = bundle_points("south", 10, seed=50)
        assert exterior_derivative(round_forms.upsilon0())(pts).max_abs() < 1e-12

    def test_chern_weil_identity_perturbed(self, perturbed_setup):
        """d Upsilon_0 = Omega^D - Omega^nabla with both sides nonzero."""
        forms = perturbed_setup
        assert forms.omega_D().degree == 2 and forms.upsilon0().degree == 1
        pts = bundle_points("south", 40, seed=51)
        du0 = exterior_derivative(forms.upsilon0())(pts)
        diff = forms.omega_D()(pts) - forms.omega_nabla()(pts)
        assert diff.max_abs() > 1e-4  # genuinely different connections
        assert (du0 - diff).max_abs() < 1e-5

    def test_matches_family_quadrature(self, perturbed_setup, cartan_frame_randers):
        """The s-integral route agrees with the closed rank-2 reduction
        (1/2pi)(varpi_nabla - varpi_D)_1^2."""
        forms = perturbed_setup
        pts = bundle_points("south", 10, seed=52)
        w = forms.upsilon0()(pts)
        pa, pb = forms.D.pi(pts), forms.nabla.pi(pts)
        for a in range(3):
            want = (np.asarray(pb[a]) - np.asarray(pa[a])) / (2 * math.pi)
            assert float(np.max(np.abs(w.get((a,)) - want))) < 1e-14


class TestFrakE:
    def test_round_correction_vanishes(self, round_forms):
        """Riemannian + pullback connection: V constant and Upsilon_0 = 0,
        so the correction term is identically zero."""
        pts = bundle_points("south", 10, seed=53)
        assert round_forms.frak_e_field()(pts).max_abs() < 1e-9

    def test_constant_volume_exact_form(self, quartic_metric, torus):
        """Locally Minkowski metric: V is x-independent (not 2 pi), the
        correction is -d Upsilon_0 and its closed-manifold integral is 0."""
        from finslergbc.quadrature import BoxRegion, base_integral_excised, pullback_by_section
        from finslergbc.topology import constant_field

        fc = to_orthonormal_frame(cartan_connection(), quartic_metric)
        P = sinusoidal_perturbation(torus, fc, 0.2)
        Dd = perturbed_connection_data(torus, quartic_metric, cartan_connection(), P)
        forms = IdentityForms(
            quartic_metric,
            to_orthonormal_frame(Dd, quartic_metric),
            to_orthonormal_frame(modify(Dd), quartic_metric),
        )
        V0 = fiber_volume(quartic_metric, [0.5, 1.0], "torus")
        V1 = fiber_volume(quartic_metric, [2.5, 4.0], "torus")
        assert V0 == pytest.approx(V1, abs=1e-12)
        assert abs(V0 - 2 * math.pi) > 1e-2  # non-Riemannian fiber volume
        X = constant_field(torus)
        (total,) = base_integral_excised(
            pullback_by_section(forms.frak_e_field(), X),
            BoxRegion("torus", (0.0, 2 * math.pi), (0.0, 2 * math.pi)),
            order=24,
        )
        assert abs(total) < 1e-8

    def test_eq34_identity(self, perturbed_setup):
        forms = perturbed_setup
        inv_v = lambda p: 1.0 / forms.volume(p)
        pts = bundle_points("south", 60, seed=54)
        lhs = (forms.omega_D() + forms.frak_e_field()).scale_by(inv_v)(pts)
        rhs = forms.upsilon1().scale_by(inv_v).d()(pts)
        assert (lhs - rhs).max_abs() < 1e-5

    def test_fused_integrand_matches_modular(self, perturbed_setup):
        """The fused GBC integrand equals the modular combination
        (Omega^D + FrakE)/V at random bundle points."""
        forms = perturbed_setup
        pts = bundle_points("south", 15, seed=55)
        fused = forms.gbc_integrand()(pts)
        inv_v = lambda p: 1.0 / forms.volume(p)
        modular = (forms.omega_D() + forms.frak_e_field()).scale_by(inv_v)(pts)
        assert (fused - modular).max_abs() < 1e-9


class TestMathaiQuillen:
    def test_t0_is_pfaffian(self, randers_forms):
        pts = bundle_points("south", 10, seed=56)
        U = mathai_quillen_Ut(
            0.0, randers_forms.nabla_ell_element(pts), randers_forms.omega_element(pts)
        )
        pf = pfaffian_from_curv(randers_forms, pts)
        for key, val in U.items():
            assert float(np.max(np.abs(val - pf.get(key, 0.0)))) < 1e-12

    def test_large_t_decay(self, randers_forms):
        pts = bundle_points("south", 5, seed=57)
        w = randers_forms.mathai_quillen_field(30.0)(pts)
        assert w.max_abs() < 1e-100

    def test_closedness(self, randers_forms):
        rng = np.random.default_rng(58)
        for t in rng.uniform(0.2, 2.0, 4):
            pts = bundle_points("south", 5, seed=int(1000 * t))
            dU = exterior_derivative(randers_forms.mathai_quillen_field(float(t)))(pts)
            assert dU.max_abs() < 1e-4

    def test_transgression_ode(self, randers_forms):
        """dU_t/dt = -i d[B(l exp(-Theta_t))] at t = 1, finite differences
        in t against the finite-difference exterior derivative."""
        pts = bundle_points("south", 8, seed=59)
        h = 1e-3
        dudt = (1.0 / (2 * h)) * (
            randers_forms.mathai_quillen_field(1.0 + h)(pts)
            - randers_forms.mathai_quillen_field(1.0 - h)(pts)
        )
        dprim = exterior_derivative(randers_forms.mathai_quillen_primitive_field(1.0))(pts)
        assert (dudt + 1j * dprim).max_abs() < 1e-4


def pfaffian_from_curv(forms, pts):
    return pfaffian(SkewMatrixValuedForm(forms.n, 3, forms.curv_nabla.table(pts)))


class TestGlobalConsistency:
    def test_integrand_transforms_as_global_two_form(self, sphere, randers_metric,
                                                     cartan_frame_randers):
        """On the chart overlap the pulled-back GBC integrand transforms
        with the transition Jacobian determinant: it is the chart
        expression of one global 2-form on M."""
        from finslergbc.quadrature import pullback_by_section
        from finslergbc.topology import rotational_field

        forms = TransgressionForms(randers_metric, cartan_frame_randers,
                                   cartan_frame_randers)
        X = rotational_field(sphere)
        base2 = pullback_by_section(forms.gbc_integrand(), X)
        rng = np.random.default_rng(73)
        pts_s = []
        for _ in range(12):
            r = rng.uniform(0.6, 1.4)
            ph = rng.uniform(0, 2 * math.pi)
            pts_s.append((r * math.cos(ph), r * math.sin(ph)))
        a = np.array(pts_s)
        south = ChartPoints.of("south", a[:, 0], a[:, 1])
        f_s = np.asarray(base2(south).get((0, 1)))
        b = np.array([sphere.transition("south", "north", p) for p in pts_s])
        north = ChartPoints.of("north", b[:, 0], b[:, 1])
        f_n = np.asarray(base2(north).get((0, 1)))
        detJ = np.array(
            [np.linalg.det(sphere.transition_jacobian("south", "north", p)) for p in pts_s]
        )
        assert float(np.max(np.abs(f_s - f_n * detJ))) < 1e-7

    def test_volume_is_global_scalar(self, sphere, randers_metric):
        rng = np.random.default_rng(74)
        for _ in range(8):
            r = rng.uniform(0.6, 1.4)
            ph = rng.uniform(0, 2 * math.pi)
            a = (r * math.cos(ph), r * math.sin(ph))
            b = sphere.transition("south", "north", a)
            Vs = fiber_volume(randers_metric, a, "south")
            Vn = fiber_volume(randers_metric, b, "north")
            assert Vs == pytest.approx(Vn, abs=1e-11)


class TestDlogVolume:
    def test_round_sphere_zero(self, round_forms):
        """Every Riemannian fiber has V = 2 pi, so d log V vanishes; the
        exact x-derivative shows it to rounding."""
        pts = bundle_points("south", 40, seed=90)
        d1, d2 = round_forms.dlog_volume(pts)
        assert max(np.max(np.abs(d1)), np.max(np.abs(d2))) <= 1e-14

    def test_matches_finite_differences(self, randers_forms, randers_metric):
        """The dual-seeded derivative agrees with the central-difference
        stencil applied to fiber_volume on the base points."""
        from finslergbc.quadrature import central_partials

        pts = bundle_points("south", 30, seed=91)
        base = ChartPoints(pts.chart, pts.coords[:2])
        dV = central_partials(
            lambda q: {"V": fiber_volume(randers_metric, q.coords, q.chart)}, base)
        V = fiber_volume(randers_metric, pts.coords[:2], "south")
        got = randers_forms.dlog_volume(pts)
        for A in range(2):
            assert np.max(np.abs(got[A] - dV[A]["V"] / V)) < 1e-10

    def test_volume_reused_from_seeded_pass(self, randers_metric, cartan_frame_randers,
                                            monkeypatch):
        """After dlog_volume, V is the value part of its seeded pass: one
        fiber-volume pass per batch, and V agrees with a fresh plain
        pass to 1e-14 relative."""
        import finslergbc.chern_forms as cf

        forms = TransgressionForms(randers_metric, cartan_frame_randers, cartan_frame_randers)
        pts = bundle_points("south", 30, seed=93)
        calls = []
        monkeypatch.setattr(cf, "fiber_volume",
                            lambda *a, **k: calls.append(1) or fiber_volume(*a, **k))
        forms.dlog_volume(pts)
        V = forms.volume(pts)
        assert len(calls) == 1
        plain = fiber_volume(randers_metric, pts.coords[:2], "south")
        assert np.max(np.abs(V - plain) / plain) < 1e-14

    @pytest.mark.parametrize("count", [30, 300])
    def test_matches_single_seed_passes(self, randers_metric, cartan_frame_randers, count):
        """The one two-seed pass gives the same bits as one pass per chart
        axis with a scalar seed, on one block and on several."""
        from finslergbc.ad import Dual, partial, value

        forms = TransgressionForms(randers_metric, cartan_frame_randers, cartan_frame_randers)
        pts = bundle_points("south", count, seed=94)
        got = forms.dlog_volume(pts)
        x1, x2 = pts.coords[:2]
        V = None
        for A, x in enumerate(([Dual(x1, 1.0), x2], [x1, Dual(x2, 1.0)])):
            jet = fiber_volume(randers_metric, x, "south")
            V = value(jet) if V is None else V
            assert np.array_equal(got[A], np.broadcast_to(partial(jet), V.shape) / V)

    def test_constant_volume_zero(self, quartic_metric):
        """An x-independent norm gives d log V = 0 on the whole batch."""
        fc = to_orthonormal_frame(cartan_connection(), quartic_metric)
        forms = TransgressionForms(quartic_metric, fc, fc)
        pts = bundle_points("torus", 6, seed=92)
        d1, d2 = forms.dlog_volume(pts)
        assert np.shape(d1) == np.shape(d2) == (6,)
        assert not np.any(d1) and not np.any(d2)


class TestCohomologyStability:
    def test_two_connections_same_integral(self, sphere, randers_metric,
                                           cartan_frame_randers, perturbed_setup):
        """Two metric-compatible connections produce the same excised
        integral, the unit discs less their discs r <= 0.1, within twice the
        quadrature tolerance."""
        from finslergbc.quadrature import AnnulusRegion, base_integral_excised, pullback_by_section
        from finslergbc.topology import rotational_field

        X = rotational_field(sphere)
        forms1 = TransgressionForms(randers_metric, cartan_frame_randers, cartan_frame_randers)
        vals = []
        for forms in (forms1, perturbed_setup):
            f2 = pullback_by_section(forms.gbc_integrand(), X)
            discs = [base_integral_excised(f2, AnnulusRegion(chart, 1.0), order=48, radii=(0.1,))
                     for chart in ("south", "north")]
            vals.append(sum(whole - inner for whole, inner in discs))
        assert vals[0] == pytest.approx(vals[1], abs=2e-6)


def _per_displacement_partials(payload, pts):
    """The stencil as one payload call per displaced batch: the oracle the
    stacked stencil must reproduce bit for bit."""
    h = FD_STEP
    out = []
    for axis in range(pts.dim):
        vals = []
        for step in (h, -h, 0.5 * h, -0.5 * h):
            coords = list(pts.coords)
            coords[axis] = coords[axis] + step
            vals.append(payload(ChartPoints(pts.chart, tuple(coords))))
        pp, pm, pp2, pm2 = vals
        by_key = {}
        for k in set(pp) | set(pm) | set(pp2) | set(pm2):
            d1 = (pp.get(k, 0.0) - pm.get(k, 0.0)) / (2.0 * h)
            d2 = (pp2.get(k, 0.0) - pm2.get(k, 0.0)) / h
            by_key[k] = (4.0 * d2 - d1) / 3.0
        out.append(by_key)
    return out


class TestStackedStencil:
    @staticmethod
    def _with_oracle(monkeypatch, evaluate):
        """evaluate() with every stencil caller, nested ones included, on
        the one-call-per-displacement oracle."""
        import finslergbc.connection as cn
        import finslergbc.quadrature as qd

        with monkeypatch.context() as m:
            for mod in (cn, qd):
                m.setattr(mod, "central_partials", _per_displacement_partials)
            return evaluate()

    @staticmethod
    def _assert_same(got, want):
        assert set(got.coeffs) == set(want.coeffs)
        for k, c in want.coeffs.items():
            assert np.array_equal(*np.broadcast_arrays(got.coeffs[k], c)), k

    def test_nested_closedness_bit_identical(self, randers_forms, monkeypatch):
        """d U_1: a stencil over stacked batches whose payload runs the
        curvature stencil on them, so coordinates carry two leading axes."""
        dU = exterior_derivative(randers_forms.mathai_quillen_field(1.0))
        fresh = lambda: bundle_points("north", 12, seed=96)
        got = dU(fresh())
        want = self._with_oracle(monkeypatch, lambda: dU(fresh()))
        self._assert_same(got, want)

    @staticmethod
    def _identity_fields(forms):
        """The five fields the identity suite differentiates in one sweep:
        degrees 1 and 2, the primitive with complex coefficients."""
        return [forms.pi(), forms.upsilon1().scale_by(lambda p: 1.0 / forms.volume(p)),
                forms.upsilon0(), forms.mathai_quillen_field(1.0),
                forms.mathai_quillen_primitive_field(1.0)]

    def test_merged_sweep_matches_one_sweep_per_field(self, perturbed_setup):
        """exterior_derivatives over the identity-suite fields of a Randers
        batch with D != nabla equals exterior_derivative field by field."""
        fields = self._identity_fields(perturbed_setup)
        fresh = lambda: bundle_points("south", 15, seed=98)
        got = exterior_derivatives(fields, fresh())
        want = [exterior_derivative(f)(fresh()) for f in fields]
        assert all(got[i].max_abs() > 1e-6 for i in (0, 1, 2, 4))  # d U_1 = 0
        assert any(np.iscomplexobj(c) for c in got[4].coeffs.values())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            self._assert_same(g, w)

    def test_stencil_batches_freed_on_return(self, perturbed_setup, monkeypatch):
        """Every stacked batch, with the tensors cached on it, is released by
        reference counting alone once the stencil returns."""
        import gc
        import weakref

        refs = []
        shifted = ChartPoints.shifted

        def spy(self, axis, steps):
            q = shifted(self, axis, steps)
            refs.append(weakref.ref(q))
            return q

        monkeypatch.setattr(ChartPoints, "shifted", spy)
        fields = self._identity_fields(perturbed_setup)
        runs = [
            # complex-step partials: no displaced stack
            (perturbed_setup.gbc_integrand(), 0),
            # 3 stacks, and the nested curvature sweep on each of them
            (lambda pts: exterior_derivatives(fields, pts), 12),
        ]
        gc.disable()
        try:
            for evaluate, stacks in runs:
                refs.clear()
                evaluate(bundle_points("south", 10, seed=97))
                assert len(refs) == stacks
                assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_complex_batches_freed_on_return(self, perturbed_setup, monkeypatch):
        """The one complex-shifted batch of gbc_integrand, every chart axis
        stacked on it, with the tensors cached on it, is released by
        reference counting alone once the integrand returns."""
        import gc
        import weakref

        import finslergbc.chern_forms as cf
        from finslergbc.quadrature import complex_step_partials

        refs = []

        def spy(payload, pts, directions):
            def recorded(q):
                refs.append(weakref.ref(q))
                return payload(q)

            return complex_step_partials(recorded, pts, directions)

        monkeypatch.setattr(cf, "complex_step_partials", spy)
        gc.disable()
        try:
            perturbed_setup.gbc_integrand()(bundle_points("south", 10, seed=97))
            assert len(refs) == 1
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


# Explicit Ehresmann coefficients N^j_A(x, y) for the oracle sweep below.
_EXPLICIT_N = {"n11": "0.1*u*y1", "n12": "0.2*v*y2", "n21": "sin(u)*y1", "n22": "0.05*y2"}


class TestExactIntegrand:
    @pytest.mark.parametrize("ehresmann", ["spray", "explicit"])
    @pytest.mark.parametrize("connection", ["cartan", "perturbed", "chern_modified"])
    @pytest.mark.parametrize("metric", ["round_sphere", "randers", "euclidean", "quartic",
                                        "riemannian"])
    def test_gbc_integrand_matches_fd_oracle(self, metric, connection, ehresmann,
                                             monkeypatch):
        """The integrand from complex-step partials agrees with the one
        from the finite-difference stencil on every zoo metric and
        connection.  The FD error over seeds 1-3 and 95 on these batches is
        at most 1.0e-12 (7.6e-13 at this seed), so the bound is 3e-12."""
        import finslergbc.chern_forms as cf
        from finslergbc.cli import ExperimentConfig, _build_atlas, _build_connections
        from finslergbc.manifolds import install_metric
        from finslergbc.quadrature import central_partials

        cfg = ExperimentConfig(
            manifold="sphere" if metric in ("round_sphere", "randers") else "torus",
            metric=metric, connection=connection, ehresmann=ehresmann,
            ehresmann_exprs=_EXPLICIT_N if ehresmann == "explicit" else {})
        atlas = _build_atlas(cfg)
        met = install_metric(atlas, metric, {"eps": cfg.metric_eps})
        D, nabla, _, _ = _build_connections(cfg, atlas, met)
        integrand = TransgressionForms(met, D, nabla).gbc_integrand()
        fresh = lambda: bundle_points(atlas.chart_ids[-1], 25, seed=95)
        got = integrand(fresh())
        monkeypatch.setattr(cf, "complex_step_partials",
                            lambda payload, pts, directions: (payload(pts),
                                                              central_partials(payload, pts)))
        want = integrand(fresh())
        assert set(got.coeffs) == set(want.coeffs)
        if metric in ("round_sphere", "randers") or connection == "perturbed":
            assert got.max_abs() > 1e-3
        for k, c in want.coeffs.items():
            assert np.max(np.abs(got.coeffs[k] - c)) < 3e-12, k

    @pytest.mark.parametrize("chart", ["south", "north"])
    def test_sweep_values_are_the_payload(self, chart, monkeypatch):
        """The pi_0^1 values gbc_integrand reads off its complex-step sweep
        (the real parts of the first slice of its one stacked pass) are
        repr-identical to the first slice of its payload on the same stack
        with a zero imaginary step, on the Randers metric with the
        perturbed connection: the step itself changes no bit.  numpy's
        complex division multiplies by a reciprocal, so against the payload
        in real arithmetic they agree to 4e-15 of the largest entry (1.8e-15
        is the most seen over seeds 0-19, both charts, eps 0.1 and 0.7)."""
        import finslergbc.chern_forms as cf
        from finslergbc.cli import ExperimentConfig, _build_atlas, _build_connections
        from finslergbc.manifolds import install_metric
        from finslergbc.quadrature import complex_step_partials

        cfg = ExperimentConfig(metric="randers", connection="perturbed")
        atlas = _build_atlas(cfg)
        met = install_metric(atlas, "randers", {"eps": cfg.metric_eps})
        D, nabla, _, _ = _build_connections(cfg, atlas, met)
        swept = []

        def spy(payload, pts, directions):
            values, partials = complex_step_partials(payload, pts, directions)
            swept.append((payload, values))
            return values, partials

        monkeypatch.setattr(cf, "complex_step_partials", spy)
        TransgressionForms(met, D, nabla).gbc_integrand()(bundle_points(chart, 25, seed=95))
        (payload, values), = swept
        # fresh batches, so no cached tensors are shared
        pts = bundle_points(chart, 25, seed=95)
        unshifted = payload(zero_step_stack(pts, np.eye(3).tolist()))
        real = payload(pts)
        assert set(values) == set(real) == {(0,), (1,), (2,)}
        assert max(np.max(np.abs(c)) for c in real.values()) > 1e-3
        for k, c in real.items():
            assert np.isrealobj(values[k])
            assert repr(values[k].tolist()) == repr(np.real(unshifted[k][0]).tolist()), k
            assert np.max(np.abs(values[k] - c)) <= 4e-15 * np.max(np.abs(c)), k

    @pytest.mark.parametrize("eps", [0.1, 0.7])
    def test_paper_d_form_matches_fused_integrand(self, eps):
        """The paper's Omega^D + FrakE, through the general-rank algebra on
        the finite-difference stencil, equals V times the integrand built
        from nabla's pi_0^1 alone, with D != nabla: |Omega^D - Omega^nabla|
        reaches 0.08 (eps 0.1) and 0.17 (eps 0.7) on these points, and the
        two sides agree to 2.9e-12 and 8.0e-12."""
        from finslergbc.cli import ExperimentConfig, _build_atlas, _build_connections
        from finslergbc.manifolds import install_metric

        cfg = ExperimentConfig(metric="randers", metric_eps=eps, connection="perturbed")
        atlas = _build_atlas(cfg)
        met = install_metric(atlas, "randers", {"eps": eps})
        D, nabla, _, _ = _build_connections(cfg, atlas, met)
        forms = IdentityForms(met, D, nabla)
        pts = bundle_points("south", 200, seed=98)
        assert (forms.omega_D()(pts) - forms.omega_nabla()(pts)).max_abs() > 0.05
        paper = (forms.omega_D() + forms.frak_e_field())(pts)
        fused = forms.volume(pts) * forms.gbc_integrand()(pts)
        assert (paper - fused).max_abs() < 5e-11


class TestSectionIntegrand:
    @pytest.mark.parametrize("case", [
        *[("sphere", "randers", eps, conn, field)
          for eps in (0.1, 0.7) for conn in ("cartan", "perturbed")
          for field in ("rotational", "height_gradient", "stereographic_power")],
        ("torus", "quartic", 0.05, "perturbed", "constant"),
    ])
    def test_matches_pullback_of_bundle_form(self, case):
        """gbc_integrand(X), swept along the section's tangent rows (1, 0,
        t_1), (0, 1, t_2), is the bundle integrand pulled back by X, to
        1e-13 of the largest coefficient (2.8e-14 is the most seen over
        seeds 0-29), at random base points away from the zeros.  The
        t_2 D_1 pi_theta - t_1 D_2 pi_theta part of d(J pi) is about half
        the value on the rotational and z^2 fields, so dropping it fails
        those cases; on the height-gradient field it vanishes by the
        rotational symmetry of the Randers metric, and the torus constant
        field has t = 0."""
        from finslergbc.cli import (
            ExperimentConfig, _build_atlas, _build_connections, _build_field)
        from finslergbc.manifolds import install_metric
        from finslergbc.quadrature import pullback_by_section

        manifold, metric, eps, connection, field = case
        cfg = ExperimentConfig(manifold=manifold, metric=metric, metric_eps=eps,
                               connection=connection, vector_field=field, field_power=2)
        atlas = _build_atlas(cfg)
        met = install_metric(atlas, metric, {"eps": eps})
        D, nabla, _, _ = _build_connections(cfg, atlas, met)
        forms = TransgressionForms(met, D, nabla)
        X = _build_field(cfg, atlas)
        t_max = 0.0
        for chart in atlas.chart_ids:
            x1, x2, _ = bundle_points(chart, 40, seed=41).coords
            if manifold == "sphere":
                keep = np.hypot(x1, x2) > 0.05
                x1, x2 = x1[keep], x2[keep]
            got = forms.gbc_integrand(X)(ChartPoints.of(chart, x1, x2))
            want = pullback_by_section(forms.gbc_integrand(), X)(ChartPoints.of(chart, x1, x2))
            assert set(got.coeffs) == set(want.coeffs) == {(0, 1)}
            scale = want.max_abs()
            assert scale > 1e-3
            assert np.max(np.abs(got.get((0, 1)) - want.get((0, 1)))) <= 1e-13 * scale, chart
            t_max = max(t_max, np.max(np.hypot(*X.theta_grad(chart, x1, x2))))
        assert t_max == 0.0 if manifold == "torus" else t_max > 1.0

    def test_section_sweep_takes_two_rows(self, sphere, perturbed_setup, monkeypatch):
        """With a section the complex-step sweep runs along its two tangent
        rows, where the bundle form takes three, each in one payload pass
        per batch."""
        import finslergbc.chern_forms as cf
        from finslergbc.quadrature import complex_step_partials
        from finslergbc.topology import rotational_field

        sweeps = []

        def spy(payload, pts, directions):
            calls = []

            def counted(q):
                calls.append(1)
                return payload(q)

            values, partials = complex_step_partials(counted, pts, directions)
            sweeps.append((len(partials), len(calls)))
            return values, partials

        monkeypatch.setattr(cf, "complex_step_partials", spy)
        x1, x2, th = bundle_points("south", 10, seed=42).coords
        perturbed_setup.gbc_integrand(rotational_field(sphere))(ChartPoints.of("south", x1, x2))
        perturbed_setup.gbc_integrand()(ChartPoints.of("south", x1, x2, th))
        assert sweeps == [(2, 1), (3, 1)]
