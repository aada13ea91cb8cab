"""Ehresmann/spray connection, Chern horizontal part, the modification,
frame transforms, curvature, and connection families."""

import math

import numpy as np
import pytest

from finslergbc.connection import (
    bundle_tensors,
    cartan_connection,
    chern_connection,
    chern_horizontal,
    connection_family,
    curvature,
    explicit_ehresmann,
    frame_skew_residual,
    frame_transform,
    metric_compat_residual,
    modify,
    perturb_metric_compatible,
    perturbed_connection_data,
    sinusoidal_perturbation,
    spray_connection,
    to_orthonormal_frame,
)
from finslergbc.errors import DomainError, ValidationError

from conftest import bundle_points


def christoffel_round(x):
    """Levi-Civita Christoffel symbols of the conformal round metric
    lambda(x) delta_ij, computed from the closed form of the conformal
    factor: Gamma^i_{jk} = (d_j s) d_ik + (d_k s) d_ij - (d_i s) d_jk with
    s = log sqrt(lambda)."""
    x = np.asarray(x, dtype=float)
    # d_i log sqrt(lambda) = -2 x_i / (1 + |x|^2)
    ds = -2.0 * x / (1.0 + x @ x)
    G = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                G[i, j, k] = (
                    ds[j] * (i == k) + ds[k] * (i == j) - ds[i] * (j == k)
                )
    return G


class TestSprayConnection:
    def test_flat_torus_zero(self, flat_metric):
        N = spray_connection(flat_metric, [1.0, 2.0], [0.6, -0.3], "torus")
        assert np.max(np.abs(N)) < 1e-14

    def test_round_sphere_christoffel_contraction(self, round_metric):
        """N^i_j = Gamma^i_{jk} y^k for the Riemannian spray."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8, 2)
            y = rng.standard_normal(2)
            N = spray_connection(round_metric, x, y, "south")
            want = np.einsum("ijk,k->ij", christoffel_round(x), y)
            assert np.max(np.abs(N - want)) < 1e-8

    def test_homogeneity(self, randers_metric):
        x, y = [0.2, -0.4], np.array([0.8, 0.5])
        N1 = spray_connection(randers_metric, x, y, "south")
        N2 = spray_connection(randers_metric, x, 2.0 * y, "south")
        assert np.max(np.abs(N2 - 2.0 * N1)) < 1e-10

    def test_explicit_table_mode(self):
        table = lambda chart, x, y: np.array([[1.0, 0.0], [0.0, 2.0]])
        eh = explicit_ehresmann(table)
        assert np.allclose(eh.at([0.0, 0.0], [1.0, 0.0], "any"), [[1, 0], [0, 2]])


class TestChernHorizontal:
    def test_riemannian_gives_christoffel(self, round_metric):
        """gamma^i_{jA} equals the Levi-Civita Christoffel symbols and is
        y-independent for a Riemannian metric."""
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = rng.uniform(-0.7, 0.7, 2)
            want = christoffel_round(x)
            for th in (0.3, 2.1):
                y = [math.cos(th), math.sin(th)]
                got = chern_horizontal(round_metric, None, x, y, "south")
                assert np.max(np.abs(got - want)) < 1e-8

    def test_flat_torus_zero(self, flat_metric):
        got = chern_horizontal(flat_metric, None, [1.0, 2.0], [0.3, 0.9], "torus")
        assert np.max(np.abs(got)) < 1e-14

    def test_two_chart_metric_needs_a_chart(self, randers_metric, flat_metric):
        """On the two-chart sphere no chart is a default; a one-chart
        metric still needs none."""
        with pytest.raises(DomainError):
            chern_horizontal(randers_metric, None, [0.2, 0.1], [0.6, 0.8])
        with pytest.raises(DomainError):
            spray_connection(randers_metric, [0.2, 0.1], [0.6, 0.8])
        got = chern_horizontal(flat_metric, None, [1.0, 2.0], [0.3, 0.9])
        assert np.max(np.abs(got)) < 1e-14

    def test_partial_compat_residual(self, randers_metric):
        """delta g_ij / delta x^A = g_ik gamma^k_jA + g_kj gamma^k_iA."""
        pts = bundle_points("south", 30, seed=2)
        tens = bundle_tensors(randers_metric, pts)
        worst = 0.0
        for i in range(2):
            for j in range(2):
                for A in range(2):
                    dgdx = 0.5 * (
                        tens.jets.X3[i][j][A]
                        - sum(tens.N[m][A] * tens.jets.T3[i][j][m] for m in range(2))
                    )
                    rhs = sum(
                        tens.g[i][k] * tens.gamma_chern[k][j][A]
                        + tens.g[k][j] * tens.gamma_chern[k][i][A]
                        for k in range(2)
                    )
                    worst = max(worst, float(np.max(np.abs(dgdx - rhs))))
        assert worst < 1e-8

    def test_horizontal_torsion_free(self, randers_metric):
        pts = bundle_points("south", 20, seed=3)
        tens = bundle_tensors(randers_metric, pts)
        for i in range(2):
            for j in range(2):
                for A in range(2):
                    diff = np.asarray(tens.gamma_chern[i][j][A]) - np.asarray(
                        tens.gamma_chern[i][A][j]
                    )
                    assert float(np.max(np.abs(diff))) < 1e-12


class TestModification:
    def test_riemannian_fixed_point(self, round_metric):
        """A = 0 makes the modification leave rho = 0: the pulled-back
        Levi-Civita connection is its own modification."""
        pts = bundle_points("south", 20, seed=4)
        tens = bundle_tensors(round_metric, pts)
        rho = modify(chern_connection()).rho_of(tens)
        assert max(
            float(np.max(np.abs(np.asarray(rho[i][j][k]))))
            for i in range(2) for j in range(2) for k in range(2)
        ) < 1e-12

    def test_idempotent(self, randers_metric):
        pts = bundle_points("south", 10, seed=5)
        tens = bundle_tensors(randers_metric, pts)
        once = modify(chern_connection())
        twice = modify(once)
        r1, r2 = once.rho_of(tens), twice.rho_of(tens)
        g1, g2 = once.gamma_of(tens), twice.gamma_of(tens)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert np.max(np.abs(np.asarray(r1[i][j][k]) - np.asarray(r2[i][j][k]))) == 0.0
                for A in range(2):
                    assert np.max(np.abs(np.asarray(g1[i][j][A]) - np.asarray(g2[i][j][A]))) == 0.0

    def test_prop_3_2_both_directions(self, randers_metric):
        """The unmodified horizontal connection fails full compatibility on
        a non-Riemannian metric; its modification passes."""
        pts = bundle_points("south", 40, seed=6)
        assert metric_compat_residual(randers_metric, chern_connection(), pts) > 1e-3
        assert metric_compat_residual(randers_metric, cartan_connection(), pts) < 1e-8

    def test_compat_flat_quartic(self, quartic_metric):
        """Locally Minkowski non-Riemannian metric: the modification is
        needed and suffices."""
        pts = bundle_points("torus", 30, seed=7)
        assert metric_compat_residual(quartic_metric, chern_connection(), pts) > 1e-3
        assert metric_compat_residual(quartic_metric, cartan_connection(), pts) < 1e-10


class TestFrameTransform:
    def test_identity_frame_passthrough(self):
        """With B = Id the transform returns theta itself; a zero input
        gives zero frame forms."""
        theta = [[[0.0] * 3 for _ in range(2)] for _ in range(2)]
        B = [[1.0, 0.0], [0.0, 1.0]]
        dB = [[[0.0] * 3 for _ in range(2)] for _ in range(2)]
        out = frame_transform(theta, B, dB, B)
        assert all(
            out[i][j][a] == 0.0 for i in range(2) for j in range(2) for a in range(3)
        )

    def test_euclidean_rotation_form(self, flat_metric):
        """Euclidean metric: varpi_1^2 = dtheta exactly."""
        pts = bundle_points("torus", 15, seed=8)
        fc = to_orthonormal_frame(cartan_connection(), flat_metric)
        pi = fc.pi(pts)
        assert float(np.max(np.abs(np.asarray(pi[0][1][2]) - 1.0))) < 1e-14
        assert float(np.max(np.abs(np.asarray(pi[0][1][0])))) < 1e-14
        assert float(np.max(np.abs(np.asarray(pi[1][0][2]) + 1.0))) < 1e-14

    @pytest.mark.parametrize("fixture_name", ["round_metric", "randers_metric"])
    def test_antisymmetry(self, fixture_name, request):
        met = request.getfixturevalue(fixture_name)
        fc = to_orthonormal_frame(cartan_connection(), met)
        for chart in ("south", "north"):
            pts = bundle_points(chart, 30, seed=9)
            assert frame_skew_residual(fc, pts) < 1e-8

    def test_fiber_restriction_identity(self, randers_metric):
        """i^*_x(varpi_n^k B_k^i) = d(y^i/F): the dtheta-coefficient of the
        frame-transformed row equals d l^i / d theta."""
        from finslergbc.ad import Dual, partial, value
        from finslergbc import ad

        pts = bundle_points("south", 25, seed=10)
        tens = bundle_tensors(randers_metric, pts)
        fc = to_orthonormal_frame(cartan_connection(), randers_metric)
        pi = fc.pi(pts)
        from finslergbc.connection import _frame_fields

        B, _, _ = _frame_fields(tens)
        x1, x2, th = pts.coords
        for i in range(2):
            lhs = sum(np.asarray(pi[1][k][2]) * np.asarray(B[k][i]) for k in range(2))
            thd = Dual(th, 1.0)
            u = [ad.cos(thd), ad.sin(thd)]
            F = randers_metric.F("south", [x1, x2], u)
            dl = value(partial(u[i] / F))
            assert float(np.max(np.abs(lhs - dl))) < 1e-8


class TestCurvature:
    def test_flat_torus_zero(self, flat_metric):
        pts = bundle_points("torus", 20, seed=11)
        fc = to_orthonormal_frame(cartan_connection(), flat_metric)
        om = curvature(fc).omega(pts)
        assert max(float(np.max(np.abs(np.asarray(v)))) for v in om[0][1].values()) < 1e-12

    @pytest.mark.parametrize("chart", ["south", "north"])
    @pytest.mark.parametrize("make", [cartan_connection, chern_connection])
    def test_round_sphere_pi_closed_form(self, round_metric, make, chart):
        """On the round sphere both connections are Levi-Civita and the
        frame form is pi_0^1 = (2 x2 dx1 - 2 x1 dx2) / (1 + r^2) + dtheta
        in either chart (the metric is the same conformal form in both);
        pi_0^0 = pi_1^1 = 0 and pi_1^0 = -pi_0^1.  This pins the whole
        chain metric jets -> bundle tensors -> pi pointwise, with no
        finite differences, where the identity rows would miss a smooth
        error in pi."""
        pts = bundle_points(chart, 500, seed=31)
        x1, x2, _ = pts.coords
        k = 2.0 / (1.0 + x1 ** 2 + x2 ** 2)
        want = [k * x2, -k * x1, 1.0]
        pi = to_orthonormal_frame(make(), round_metric).pi(pts)
        err = 0.0
        for a in range(3):
            err = max(err, float(np.max(np.abs(pi[0][1][a] - want[a]))),
                      float(np.max(np.abs(pi[1][0][a] + want[a]))),
                      float(np.max(np.abs(pi[0][0][a]))), float(np.max(np.abs(pi[1][1][a]))))
        assert err <= 1e-14

    def test_round_sphere_gauss_curvature(self, round_metric):
        """Omega_1^2 = -K dA with K = 1: the (dx1, dx2) coefficient equals
        minus the conformal area density."""
        pts = bundle_points("south", 20, seed=12)
        fc = to_orthonormal_frame(cartan_connection(), round_metric)
        om = curvature(fc).omega(pts)
        x1, x2, _ = pts.coords
        lam = 4.0 / (1.0 + x1 ** 2 + x2 ** 2) ** 2
        assert float(np.max(np.abs(np.asarray(om[0][1][(0, 1)]) + lam))) < 1e-8
        assert float(np.max(np.abs(np.asarray(om[0][1][(0, 2)])))) < 1e-8
        assert float(np.max(np.abs(np.asarray(om[0][1][(1, 2)])))) < 1e-8

    def test_antisymmetry(self, randers_metric, cartan_frame_randers):
        pts = bundle_points("south", 20, seed=13)
        om = curvature(cartan_frame_randers).omega(pts)
        for key in om[0][1]:
            assert float(np.max(np.abs(np.asarray(om[0][1][key]) + np.asarray(om[1][0][key])))) < 1e-10
        for key in om[0][0]:
            assert float(np.max(np.abs(np.asarray(om[0][0][key])))) < 1e-10

    def test_bianchi_closedness(self, randers_metric, cartan_frame_randers):
        """For rank 2 the Bianchi identity reduces to d Omega_1^2 = 0."""
        from finslergbc.quadrature import exterior_derivative

        pts = bundle_points("south", 10, seed=14)
        dom = exterior_derivative(curvature(cartan_frame_randers).form(0, 1))(pts)
        assert dom.max_abs() < 1e-6

    def test_bianchi_for_family_member(self, sphere, randers_metric,
                                       cartan_frame_randers):
        """The interpolated connection D_s also satisfies the identity:
        its curvature is closed at rank 2."""
        from finslergbc.quadrature import exterior_derivative

        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fcD = perturb_metric_compatible(cartan_frame_randers, P)
        fam = connection_family(fcD, cartan_frame_randers, 0.5)
        pts = bundle_points("south", 8, seed=141)
        dom = exterior_derivative(curvature(fam).form(0, 1))(pts)
        assert dom.max_abs() < 1e-6

    def test_fd_matches_ad_first_derivatives(self, randers_metric):
        """The finite-difference exterior derivative reproduces AD-exact
        derivatives of smooth coefficient functions."""
        from finslergbc.quadrature import exterior_derivative, FormField, PointwiseForm

        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(50):
            a, b, c = rng.uniform(-1, 1, 3)

            def coeff(pts):
                x1, x2, th = pts.coords
                return PointwiseForm({(): np.sin(a * x1 + b * x2) * np.cos(c * th)})

            f = FormField(3, 0, coeff)
            pts = bundle_points("south", 10, seed=int(rng.integers(1 << 16)))
            got = exterior_derivative(f)(pts)
            x1, x2, th = pts.coords
            want = {
                (0,): a * np.cos(a * x1 + b * x2) * np.cos(c * th),
                (1,): b * np.cos(a * x1 + b * x2) * np.cos(c * th),
                (2,): -c * np.sin(a * x1 + b * x2) * np.sin(c * th),
            }
            for k, v in want.items():
                err = float(np.max(np.abs(got.get(k) - v))) / max(1.0, float(np.max(np.abs(v))))
                worst = max(worst, err)
        assert worst < 1e-6


class TestPerturbation:
    def test_zero_amplitude_is_identity(self, randers_metric, cartan_frame_randers, sphere):
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.0)
        fc = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 10, seed=16)
        pa, pb = cartan_frame_randers.pi(pts), fc.pi(pts)
        assert max(
            float(np.max(np.abs(np.asarray(pa[i][j][a]) - np.asarray(pb[i][j][a]))))
            for i in range(2) for j in range(2) for a in range(3)
        ) == 0.0

    def test_skew_preserved(self, randers_metric, cartan_frame_randers, sphere):
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fc = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 20, seed=17)
        assert frame_skew_residual(fc, pts) < 1e-10

    def test_non_skew_rejected(self, cartan_frame_randers):
        bad = lambda pts: [
            [[0.0] * 3, [1.0, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0] * 3],
        ]
        fc = perturb_metric_compatible(cartan_frame_randers, bad)
        with pytest.raises(ValidationError):
            fc.pi(bundle_points("south", 3, seed=18))

    def test_natural_frame_route_matches_direct(self, randers_metric, sphere,
                                                cartan_frame_randers):
        """Perturbed connection through (gamma, rho) data reproduces the
        direct e-frame addition varpi + P exactly."""
        cart = cartan_connection()
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        Dd = perturbed_connection_data(sphere, randers_metric, cart, P)
        fc_data = to_orthonormal_frame(Dd, randers_metric)
        fc_direct = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 15, seed=19)
        pa, pb = fc_data.pi(pts), fc_direct.pi(pts)
        worst = max(
            float(np.max(np.abs(np.asarray(pa[i][j][a]) - np.asarray(pb[i][j][a]))))
            for i in range(2) for j in range(2) for a in range(3)
        )
        assert worst < 1e-12

    def test_modified_perturbed_compatible(self, randers_metric, sphere,
                                           cartan_frame_randers):
        cart = cartan_connection()
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        Dd = perturbed_connection_data(sphere, randers_metric, cart, P)
        pts = bundle_points("south", 20, seed=20)
        assert metric_compat_residual(randers_metric, modify(Dd), pts) < 1e-10

    def test_modification_differs_from_perturbation(self, randers_metric, sphere,
                                                    cartan_frame_randers):
        """The dtheta component of P makes modify(D') differ from D' and
        from the Cartan connection, so Upsilon_0 is genuinely exercised."""
        cart = cartan_connection()
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        Dd = perturbed_connection_data(sphere, randers_metric, cart, P)
        fcNp = to_orthonormal_frame(modify(Dd), randers_metric)
        fcD = to_orthonormal_frame(Dd, randers_metric)
        pts = bundle_points("south", 10, seed=21)
        pa, pb, pc = fcNp.pi(pts), fcD.pi(pts), cartan_frame_randers.pi(pts)
        d1 = max(float(np.max(np.abs(np.asarray(pa[0][1][a]) - np.asarray(pb[0][1][a])))) for a in range(3))
        d2 = max(float(np.max(np.abs(np.asarray(pa[0][1][a]) - np.asarray(pc[0][1][a])))) for a in range(3))
        assert d1 > 1e-3 and d2 > 1e-3


    def test_evaluated_batch_freed_without_collector(self, randers_metric, sphere,
                                                     cartan_frame_randers):
        """A batch evaluated through the perturbed frame forms dies by
        reference count alone: its cached tensors hold no strong reference
        back to it."""
        import gc
        import weakref

        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        Dd = perturbed_connection_data(sphere, randers_metric, cartan_connection(), P)
        fc = to_orthonormal_frame(modify(Dd), randers_metric)
        gc.collect()
        gc.disable()
        try:
            pts = bundle_points("south", 5, seed=22)
            fc.pi(pts)
            ref = weakref.ref(pts)
            del pts
            assert ref() is None
        finally:
            gc.enable()


class TestConnectionFamily:
    def test_endpoints(self, randers_metric, sphere, cartan_frame_randers):
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fcD = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 10, seed=22)
        f0 = connection_family(fcD, cartan_frame_randers, 0.0)
        f1 = connection_family(fcD, cartan_frame_randers, 1.0)
        pa, p0 = fcD.pi(pts), f0.pi(pts)
        pb, p1 = cartan_frame_randers.pi(pts), f1.pi(pts)
        for i in range(2):
            for j in range(2):
                for a in range(3):
                    assert np.max(np.abs(np.asarray(pa[i][j][a]) - np.asarray(p0[i][j][a]))) < 1e-15
                    assert np.max(np.abs(np.asarray(pb[i][j][a]) - np.asarray(p1[i][j][a]))) < 1e-15

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_members_metric_compatible(self, s, randers_metric, sphere,
                                       cartan_frame_randers):
        """Affine combinations of skew forms stay skew, i.e. the family is
        metric-compatible at every s."""
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fcD = perturb_metric_compatible(cartan_frame_randers, P)
        fam = connection_family(fcD, cartan_frame_randers, s)
        pts = bundle_points("south", 15, seed=23)
        assert frame_skew_residual(fam, pts) < 1e-9

    def test_s_derivative_constant(self, randers_metric, sphere, cartan_frame_randers):
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fcD = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 8, seed=24)
        h = 0.1
        diffs = []
        for s in (0.2, 0.7):
            pp = connection_family(fcD, cartan_frame_randers, s + h).pi(pts)
            pm = connection_family(fcD, cartan_frame_randers, s - h).pi(pts)
            diffs.append(
                np.array([[[(np.asarray(pp[i][j][a]) - np.asarray(pm[i][j][a])) / (2 * h)
                            for a in range(3)] for j in range(2)] for i in range(2)])
            )
        assert np.max(np.abs(diffs[0] - diffs[1])) < 1e-10
