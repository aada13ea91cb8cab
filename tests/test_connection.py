"""Ehresmann/spray connection, Chern horizontal part, the modification,
the frame form varpi_0^1 and its curvature, against the full 2x2 frame
transform as the oracle."""

import math

import numpy as np
import pytest

from finslergbc.connection import (
    CurvatureData,
    EhresmannData,
    _frame_fields,
    _frame_form,
    bundle_tensors,
    cartan_connection,
    chern_connection,
    horizontal_part,
    metric_compat_residual,
    modify,
    perturb_metric_compatible,
    perturbed_connection_data,
    sinusoidal_perturbation,
    theta_chart_forms,
    to_orthonormal_frame,
)
from finslergbc.errors import DomainError
from finslergbc.quadrature import ChartPoints, central_partials, exterior_derivative

from conftest import bundle_points, curvature_form, frame_form


def frame_transform(metric, D, pts, ehresmann=None):
    """The full frame transform varpi_i^j = (dB_i^k + B_i^m theta_m^k)
    (B^{-1})_k^j of the natural-frame connection D, axis by axis, built
    from ``_frame_fields`` and ``theta_chart_forms``: the general-rank
    oracle of the one-entry ``_frame_form``, and of the skewness that
    lets varpi_0^1 stand for the whole matrix."""
    tens = bundle_tensors(metric, pts, ehresmann)
    theta = theta_chart_forms(tens, D)
    B, Binv, dB = _frame_fields(tens)
    pi = [[[None] * 3 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for axis in range(3):
                acc = 0.0
                for k in range(2):
                    term = dB[i][k][axis] + sum(B[i][m] * theta[m][k][axis] for m in range(2))
                    acc = acc + term * Binv[k][j]
                pi[i][j][axis] = acc
    return pi


def frame_skew_residual(pi) -> float:
    """max |pi_i^j + pi_j^i| over a full frame table's three chart axes."""
    return max(float(np.max(np.abs(pi[i][j][a] + pi[j][i][a])))
               for i in range(2) for j in range(2) for a in range(3))


def oracle_curvature(metric, D, pts):
    """Omega_i^j = d varpi_i^j - varpi_i^k ^ varpi_k^j of the full frame
    transform, every entry on the production finite-difference stencil."""
    def entries(q):
        pi = frame_transform(metric, D, q)
        return {(i, j, a): pi[i][j][a] for i in range(2) for j in range(2) for a in range(3)}

    partials = central_partials(entries, pts)
    pi = frame_transform(metric, D, pts)
    out = [[{} for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                wedge = sum(pi[i][k][a] * pi[k][j][b] - pi[i][k][b] * pi[k][j][a]
                            for k in range(2))
                out[i][j][(a, b)] = partials[a][(i, j, b)] - partials[b][(i, j, a)] - wedge
    return out


def natural_perturbed(sphere, metric, amplitude=0.2):
    """cartan + P as natural-frame data, P the sinusoidal perturbation of
    the Cartan frame form."""
    P = sinusoidal_perturbation(sphere, to_orthonormal_frame(cartan_connection(), metric),
                                amplitude)
    return perturbed_connection_data(sphere, metric, cartan_connection(), P)


def christoffel_round(x1, x2):
    """Levi-Civita Christoffel symbols G[i, j, k] of the conformal round
    metric lambda(x) delta_ij at a batch of points (batch axes last),
    computed from the closed form of the conformal factor: Gamma^i_{jk} =
    (d_j s) d_ik + (d_k s) d_ij - (d_i s) d_jk with s = log sqrt(lambda)."""
    x = np.stack(np.broadcast_arrays(x1, x2))
    # d_i log sqrt(lambda) = -2 x_i / (1 + |x|^2)
    ds = -2.0 * x / (1.0 + x[0] ** 2 + x[1] ** 2)
    eye = np.eye(2)
    return (np.einsum("j...,ik->ijk...", ds, eye) + np.einsum("k...,ij->ijk...", ds, eye)
            - np.einsum("i...,jk->ijk...", ds, eye))


def as_array(nested, shape):
    """A nested list of batch coefficients as one array, batch axes last."""
    if isinstance(nested, list):
        return np.stack([as_array(e, shape) for e in nested])
    return np.broadcast_to(nested, shape)


class TestSprayConnection:
    """The spray coefficients N^i_j of ``bundle_tensors``, taken at the unit
    rays u = (cos theta, sin theta) of a batch."""

    def test_flat_torus_zero(self, flat_metric):
        pts = bundle_points("torus", 40, seed=16)
        N = as_array(bundle_tensors(flat_metric, pts).N, pts.coords[0].shape)
        assert np.max(np.abs(N)) < 1e-14

    def test_round_sphere_christoffel_contraction(self, round_metric):
        """N^i_j = Gamma^i_{jk} u^k for the Riemannian spray."""
        pts = bundle_points("south", 50, seed=17)
        x1, x2, th = pts.coords
        N = as_array(bundle_tensors(round_metric, pts).N, th.shape)
        want = np.einsum("ijk...,k...->ij...", christoffel_round(x1, x2),
                         np.stack([np.cos(th), np.sin(th)]))
        assert np.max(np.abs(N - want)) < 1e-8

    def test_explicit_table_mode(self, round_metric):
        """An explicit table replaces the spray: N is the table evaluated at
        the batch's base points and unit rays, entry for entry."""
        table = lambda chart, x, y: [[x[0] * y[0], 0.5 + 0.0 * x[1]],
                                     [np.sin(x[1]), 2.0 * y[1]]]
        pts = bundle_points("south", 30, seed=18)
        x1, x2, th = pts.coords
        N = bundle_tensors(round_metric, pts, EhresmannData(table)).N
        want = table("south", [x1, x2], [np.cos(th), np.sin(th)])
        for i in range(2):
            for j in range(2):
                assert np.array_equal(N[i][j], want[i][j])


class TestChernHorizontal:
    """The Chern-type horizontal coefficients gamma^i_{jA} of
    ``bundle_tensors``."""

    def test_riemannian_gives_christoffel(self, round_metric):
        """gamma^i_{jA} equals the Levi-Civita Christoffel symbols, whatever
        the ray theta, for a Riemannian metric."""
        rng = np.random.default_rng(23)
        x1, x2 = rng.uniform(-0.7, 0.7, (2, 5))
        th = np.array([[0.3], [2.1]])  # two rays at each base point
        pts = ChartPoints.of("south", x1, x2, th)
        got = as_array(bundle_tensors(round_metric, pts).gamma_chern, pts.coords[0].shape)
        assert np.max(np.abs(got - christoffel_round(x1, x2)[..., None, :])) < 1e-8

    def test_flat_torus_zero(self, flat_metric):
        pts = bundle_points("torus", 40, seed=24)
        got = as_array(bundle_tensors(flat_metric, pts).gamma_chern, pts.coords[0].shape)
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


class TestFrameFields:
    """The g-orthonormal frame of the production path: rows B[0] = e_1 and
    B[1] = e_2 = l, from ``_frame_fields`` over a whole batch."""

    @staticmethod
    def frame(metric, pts):
        tens = bundle_tensors(metric, pts)
        B, Binv, _ = _frame_fields(tens)
        shape = pts.coords[0].shape
        return as_array(B, shape), as_array(Binv, shape), as_array(tens.g, shape)

    @pytest.mark.parametrize("metric_name", ["round", "randers"])
    @pytest.mark.parametrize("chart", ["south", "north"])
    def test_defining_properties(self, metric_name, chart, round_metric, randers_metric):
        """B g B^T = I, B[1] = l = u/F and det B^{-1} = sqrt(det g) > 0,
        which is the positive orientation of (e_1, l)."""
        met = round_metric if metric_name == "round" else randers_metric
        pts = bundle_points(chart, 60, seed=31)
        B, Binv, g = self.frame(met, pts)
        gram = np.einsum("ik...,kl...,jl...->ij...", B, g, B)
        assert np.max(np.abs(gram - np.eye(2)[..., None])) < 1e-10
        th = pts.coords[2]
        u = np.stack([np.cos(th), np.sin(th)])
        F = np.asarray(met.F(chart, pts.coords[:2], u), dtype=float)
        assert np.max(np.abs(B[1] - u / F)) < 1e-12
        det_inv = Binv[0, 0] * Binv[1, 1] - Binv[0, 1] * Binv[1, 0]
        det_g = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        assert np.all(det_inv > 0.0)
        assert np.max(np.abs(det_inv / np.sqrt(det_g) - 1.0)) < 1e-10

    def test_euclidean_axis(self, flat_metric):
        """At y = (0, 1) on the flat torus, l = (0, 1) and e_1 = (1, 0)."""
        pts = ChartPoints.of("torus", [0.0, 1.0], [0.0, 2.0], 0.5 * math.pi)
        B, _, _ = self.frame(flat_metric, pts)
        assert np.max(np.abs(B[1] - np.array([[0.0], [1.0]]))) < 1e-14
        assert np.max(np.abs(B[0] - np.array([[1.0], [0.0]]))) < 1e-14

    def test_smooth_around_fiber(self, randers_metric):
        """No sign branch: B[0](theta) is continuous around the whole circle,
        721 angles in one batch."""
        th = np.linspace(0.0, 2.0 * math.pi, 721)
        pts = ChartPoints.of("south", 0.2, 0.5, th)
        B, _, _ = self.frame(randers_metric, pts)
        steps = np.linalg.norm(np.diff(B[0], axis=-1), axis=0)
        assert float(np.max(steps)) < 0.05


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
        """With B = Id and dB = 0 the frame form is theta_0^1 itself, bit
        for bit; a zero input gives a zero frame form."""
        rng = np.random.default_rng(7)
        theta = rng.standard_normal((2, 2, 3)).tolist()
        B = [[1.0, 0.0], [0.0, 1.0]]
        dB = [[[0.0] * 3 for _ in range(2)] for _ in range(2)]
        assert _frame_form(theta, B, dB, B) == theta[0][1]
        zero = [[[0.0] * 3 for _ in range(2)] for _ in range(2)]
        assert _frame_form(zero, B, dB, B) == [0.0] * 3

    def test_euclidean_rotation_form(self, flat_metric):
        """Euclidean metric: varpi_1^2 = dtheta exactly."""
        pts = bundle_points("torus", 15, seed=8)
        fc = to_orthonormal_frame(cartan_connection(), flat_metric)
        pi = fc.pi(pts)
        assert float(np.max(np.abs(np.asarray(pi[2]) - 1.0))) < 1e-14
        assert float(np.max(np.abs(np.asarray(pi[0])))) < 1e-14
        full = frame_transform(flat_metric, cartan_connection(), pts)
        assert float(np.max(np.abs(np.asarray(full[1][0][2]) + 1.0))) < 1e-14

    @pytest.mark.parametrize("fixture_name", ["round_metric", "randers_metric"])
    def test_antisymmetry(self, fixture_name, request):
        """The full frame transform of the Cartan connection is skew, so
        varpi_0^1 determines it."""
        met = request.getfixturevalue(fixture_name)
        for chart in ("south", "north"):
            pts = bundle_points(chart, 30, seed=9)
            assert frame_skew_residual(frame_transform(met, cartan_connection(), pts)) < 1e-8

    @pytest.mark.parametrize("route", ["cartan", "perturbed"])
    @pytest.mark.parametrize("chart", ["south", "north"])
    @pytest.mark.parametrize("metric_name", ["round_metric", "randers_metric"])
    def test_frame_form_is_oracle_entry(self, metric_name, chart, route, sphere, request):
        """Production varpi_0^1 is the (0, 1) entry of the full frame
        transform bit for bit, for the Cartan connection and for the
        perturbed one through its natural-frame data; the full transform
        is skew (1e-8, and 1e-10 on the perturbed route)."""
        met = request.getfixturevalue(metric_name)
        D = cartan_connection() if route == "cartan" else natural_perturbed(sphere, met)
        pts = bundle_points(chart, 30, seed=27)
        pi = to_orthonormal_frame(D, met).pi(pts)
        full = frame_transform(met, D, pts)
        for a in range(3):
            assert np.array_equal(pi[a], full[0][1][a])
        assert frame_skew_residual(full) < (1e-8 if route == "cartan" else 1e-10)

    def test_fiber_restriction_identity(self, randers_metric):
        """i^*_x(varpi_n^k B_k^i) = d(y^i/F): the dtheta-coefficient of the
        frame-transformed row equals d l^i / d theta."""
        from finslergbc.ad import Dual, partial, value
        from finslergbc import ad

        pts = bundle_points("south", 25, seed=10)
        tens = bundle_tensors(randers_metric, pts)
        pi = to_orthonormal_frame(cartan_connection(), randers_metric).table(pts)
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
        om = CurvatureData(fc).omega(pts)
        assert max(float(np.max(np.abs(np.asarray(v)))) for v in om.values()) < 1e-12

    @pytest.mark.parametrize("chart", ["south", "north"])
    @pytest.mark.parametrize("make", [cartan_connection, chern_connection])
    def test_round_sphere_pi_closed_form(self, round_metric, make, chart):
        """On the round sphere both connections are Levi-Civita and the
        frame form is pi_0^1 = (2 x2 dx1 - 2 x1 dx2) / (1 + r^2) + dtheta
        in either chart (the metric is the same conformal form in both);
        on the full frame transform pi_0^0 = pi_1^1 = 0 and pi_1^0 =
        -pi_0^1.  This pins the whole chain metric jets -> bundle tensors
        -> pi pointwise, with no finite differences, where the identity
        rows would miss a smooth error in pi."""
        pts = bundle_points(chart, 500, seed=31)
        x1, x2, _ = pts.coords
        k = 2.0 / (1.0 + x1 ** 2 + x2 ** 2)
        want = [k * x2, -k * x1, 1.0]
        pi = to_orthonormal_frame(make(), round_metric).pi(pts)
        full = frame_transform(round_metric, make(), pts)
        err = 0.0
        for a in range(3):
            err = max(err, float(np.max(np.abs(pi[a] - want[a]))),
                      float(np.max(np.abs(full[1][0][a] + want[a]))),
                      float(np.max(np.abs(full[0][0][a]))),
                      float(np.max(np.abs(full[1][1][a]))))
        assert err <= 1e-14

    def test_round_sphere_gauss_curvature(self, round_metric):
        """Omega_1^2 = -K dA with K = 1: the (dx1, dx2) coefficient equals
        minus the conformal area density."""
        pts = bundle_points("south", 20, seed=12)
        fc = to_orthonormal_frame(cartan_connection(), round_metric)
        om = CurvatureData(fc).omega(pts)
        x1, x2, _ = pts.coords
        lam = 4.0 / (1.0 + x1 ** 2 + x2 ** 2) ** 2
        assert float(np.max(np.abs(np.asarray(om[(0, 1)]) + lam))) < 1e-8
        assert float(np.max(np.abs(np.asarray(om[(0, 2)])))) < 1e-8
        assert float(np.max(np.abs(np.asarray(om[(1, 2)])))) < 1e-8

    def test_antisymmetry(self, randers_metric):
        """The general-rank curvature of the full frame transform is skew:
        the so(2) reduction Omega = [[0, Omega_0^1], [-Omega_0^1, 0]] loses
        nothing."""
        pts = bundle_points("south", 20, seed=13)
        om = oracle_curvature(randers_metric, cartan_connection(), pts)
        for key in om[0][1]:
            assert float(np.max(np.abs(np.asarray(om[0][1][key]) + np.asarray(om[1][0][key])))) < 1e-10
        for key in om[0][0]:
            assert float(np.max(np.abs(np.asarray(om[0][0][key])))) < 1e-10
            assert float(np.max(np.abs(np.asarray(om[1][1][key])))) < 1e-10

    def test_bianchi_closedness(self, randers_metric, cartan_frame_randers):
        """For rank 2 the Bianchi identity reduces to d Omega_1^2 = 0."""
        pts = bundle_points("south", 10, seed=14)
        dom = exterior_derivative(curvature_form(CurvatureData(cartan_frame_randers), 0, 1))(pts)
        assert dom.max_abs() < 1e-6

    def test_bianchi_for_perturbed_connection(self, sphere, randers_metric,
                                              cartan_frame_randers):
        """The perturbed connection D = nabla + P also satisfies the
        identity: its curvature is closed at rank 2."""
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        fcD = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 8, seed=141)
        dom = exterior_derivative(curvature_form(CurvatureData(fcD), 0, 1))(pts)
        assert dom.max_abs() < 1e-6

    def test_rank2_curvature_is_d_of_frame_form(self, randers_metric, cartan_frame_randers):
        """At rank 2 the frame forms are skew, so varpi_0^0 = varpi_1^1 = 0,
        the wedge term of Omega_0^1 vanishes and Omega_0^1 = d varpi_0^1:
        the general-rank curvature of the full frame transform agrees on
        the same stencil."""
        pts = bundle_points("south", 10, seed=142)
        want = oracle_curvature(randers_metric, cartan_connection(), pts)[0][1]
        om = CurvatureData(cartan_frame_randers).omega(pts)
        assert set(om) == set(want)
        for key in want:
            assert float(np.max(np.abs(om[key] - want[key]))) < 1e-12

    @pytest.mark.parametrize("route", ["cartan", "perturbed"])
    def test_omega_is_exterior_derivative_of_frame_form(self, sphere, cartan_frame_randers,
                                                        route):
        """One stencil: Omega_0^1 is ``exterior_derivative`` of the varpi_0^1
        field bit for bit, and its table is [[0, Omega_0^1], [-Omega_0^1, 0]]."""
        fc = cartan_frame_randers
        if route == "perturbed":
            fc = perturb_metric_compatible(fc, sinusoidal_perturbation(sphere, fc, 0.2))
        pts = bundle_points("north", 10, seed=143)
        curv = CurvatureData(fc)
        om = curv.omega(pts)
        dpi = exterior_derivative(frame_form(fc, 0, 1))(pts).coeffs
        assert list(om) == list(dpi) == [(0, 1), (0, 2), (1, 2)]
        for key in om:
            assert np.array_equal(om[key], dpi[key])
        table = curv.table(pts)
        assert table[0][0] == table[1][1] == {} and table[0][1] is om
        for key in om:
            assert np.array_equal(table[1][0][key], -om[key])

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


def _perturbation_per_axis(atlas, base, amplitude):
    """sinusoidal_perturbation as it was, with one plain and one dual pass
    per chart axis through the atlas scalars: the oracle of the one-pass
    profile."""
    from finslergbc.ad import Dual, partial, value

    def P(pts):
        x1, x2 = pts.coords[:2]
        X, Y, Z = atlas.global_scalars(pts.chart, x1, x2)
        dX, dY, dZ = [[None] * 3 for _ in range(3)]
        for axis in range(2):
            a1 = Dual(x1, 1.0 if axis == 0 else 0.0)
            a2 = Dual(x2, 1.0 if axis == 1 else 0.0)
            sx, sy, sz = atlas.global_scalars(pts.chart, a1, a2)
            dX[axis] = value(partial(sx))
            dY[axis] = value(partial(sy))
            dZ[axis] = value(partial(sz))
        dX[2] = dY[2] = dZ[2] = 0.0
        pi = base.pi(pts)
        f1 = np.sin(2.0 * Z + X)
        f2 = np.cos(Y - Z)
        f3 = 0.5 + 0.3 * np.sin(X)
        return [amplitude * (f1 * dX[a] + f2 * dY[a] + f3 * pi[a]) for a in range(3)]

    return P


class TestPerturbation:
    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    def test_one_pass_matches_per_axis_passes(self, manifold, request, monkeypatch):
        """The profile seeds both chart axes on one leading axis of length 2:
        two calls of the atlas scalars (the plain values and one dual pass)
        where there were three, and entries repr-identical to the per-axis
        passes, on real and complex-shifted batches."""
        atlas = request.getfixturevalue(manifold)
        metric = request.getfixturevalue("randers_metric" if manifold == "sphere"
                                         else "quartic_metric")
        base = to_orthonormal_frame(cartan_connection(), metric)
        P = sinusoidal_perturbation(atlas, base, 0.2)
        oracle = _perturbation_per_axis(atlas, base, 0.2)
        calls = []
        scalars = type(atlas).global_scalars
        monkeypatch.setattr(type(atlas), "global_scalars",
                            lambda self, *a: calls.append(1) or scalars(self, *a))
        for chart in atlas.chart_ids:
            for shift in (0.0, 1e-30j):
                x1, x2, th = bundle_points(chart, 20, seed=18).coords
                pts = ChartPoints(chart, (x1 + shift, x2, th))
                calls.clear()
                got = P(pts)
                assert len(calls) == 2
                want = oracle(ChartPoints(chart, (x1 + shift, x2, th)))
                assert len(got) == 3
                for a in range(3):
                    assert repr(np.asarray(got[a]).tolist()) == repr(want[a].tolist())

    def test_zero_amplitude_is_identity(self, randers_metric, cartan_frame_randers, sphere):
        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.0)
        fc = perturb_metric_compatible(cartan_frame_randers, P)
        pts = bundle_points("south", 10, seed=16)
        pa, pb = cartan_frame_randers.pi(pts), fc.pi(pts)
        assert max(
            float(np.max(np.abs(np.asarray(pa[a]) - np.asarray(pb[a])))) for a in range(3)
        ) == 0.0

    def test_skew_preserved(self, randers_metric, sphere):
        """cartan + P through its natural-frame data has a skew full frame
        transform: the perturbation is metric-compatible."""
        pts = bundle_points("south", 20, seed=17)
        full = frame_transform(randers_metric, natural_perturbed(sphere, randers_metric), pts)
        assert frame_skew_residual(full) < 1e-10

    def test_dead_batch_raises_domain_error(self, randers_metric, sphere):
        """The natural-frame perturbation evaluates P at the batch of the
        tensors it is handed; once that batch is gone, the call names the
        cause instead of failing on a None batch."""
        Dd = natural_perturbed(sphere, randers_metric)
        tens = bundle_tensors(randers_metric, bundle_points("south", 6))
        with pytest.raises(DomainError, match="batch"):
            Dd.gamma_of(tens)

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
        worst = max(float(np.max(np.abs(np.asarray(pa[a]) - np.asarray(pb[a]))))
                    for a in range(3))
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
        d1 = max(float(np.max(np.abs(np.asarray(pa[a]) - np.asarray(pb[a])))) for a in range(3))
        d2 = max(float(np.max(np.abs(np.asarray(pa[a]) - np.asarray(pc[a])))) for a in range(3))
        assert d1 > 1e-3 and d2 > 1e-3


    def test_new_perturbation_reads_its_own_natural_form(self, randers_metric, sphere):
        """A perturbation built after an earlier one was dropped reads its
        own natural-frame Q on a batch the earlier one evaluated.  The
        batch caches Q under the perturbation itself, which keeps it alive
        while the entry lives; a cache keyed by id(P) handed the new
        perturbation, which CPython placed at the dropped one's id, the
        dropped one's Q."""

        def make(scale):
            def P(pts):
                x1, x2 = pts.coords[:2]
                return [scale * x1, scale * x2 * x2, scale * np.cos(x1)]

            return P

        def gamma(P, tens):
            return perturbed_connection_data(sphere, randers_metric, cartan_connection(),
                                             P).gamma_of(tens)

        pts = bundle_points("south", 6, seed=26)
        tens = bundle_tensors(randers_metric, pts)
        first = make(0.1)
        gamma(first, tens)
        del first
        second = make(0.3)
        got = gamma(second, tens)
        fresh = bundle_points("south", 6, seed=26)
        want = gamma(second, bundle_tensors(randers_metric, fresh))
        for i in range(2):
            for j in range(2):
                for a in range(2):
                    assert np.array_equal(got[i][j][a], want[i][j][a])

    def test_evaluated_batch_freed_without_collector(self, randers_metric, sphere,
                                                     cartan_frame_randers):
        """A batch evaluated through the perturbed frame forms, by the
        natural-frame route or on the frame side, dies by reference count
        alone: its cached tensors hold no strong reference back to it."""
        import gc
        import weakref

        P = sinusoidal_perturbation(sphere, cartan_frame_randers, 0.2)
        Dd = perturbed_connection_data(sphere, randers_metric, cartan_connection(), P)
        routes = [to_orthonormal_frame(modify(Dd), randers_metric),
                  perturb_metric_compatible(cartan_frame_randers,
                                            horizontal_part(P, randers_metric))]
        gc.collect()
        gc.disable()
        try:
            for fc in routes:
                pts = bundle_points("south", 5, seed=22)
                fc.pi(pts)
                ref = weakref.ref(pts)
                del pts
                assert ref() is None, fc.label
        finally:
            gc.enable()

    @pytest.mark.parametrize("manifold, metric, eps, amplitude, explicit", [
        ("sphere", "randers", 0.1, 0.2, False),
        ("sphere", "randers", 0.7, 0.3, False),
        ("sphere", "round_sphere", 0.1, 0.2, False),
        ("torus", "quartic", 0.05, 0.3, False),
        ("torus", "quartic", 0.05, 0.2, True),
        ("sphere", "randers", 0.1, 0.2, True),
    ], ids=["randers0.1", "randers0.7", "round", "torus-quartic", "torus-quartic-explicit",
            "randers0.1-explicit"])
    def test_frame_side_modification_matches_natural_route(self, manifold, metric, eps,
                                                           amplitude, explicit):
        """modify(cartan + P) is cartan + P^h in the orthonormal frame, with
        P^h_A = P_A - P_theta sum_k v^k N^k_A and P^h_theta = 0: the frame
        -> natural -> frame route of the modification agrees to 1e-14.  The
        shadow term P_theta v^k N^k_A exceeds 0.1 on every case but the
        spray torus (N = 0 there), so dropping it fails this test."""
        from finslergbc.manifolds import install_metric, sphere_atlas, torus_atlas

        atlas = sphere_atlas() if manifold == "sphere" else torus_atlas()
        met = install_metric(atlas, metric, {"eps": eps})
        eh = EhresmannData(
            lambda chart, x, y: [[0.1 * x[0] * y[0], 0.2 * x[1] * y[1]],
                                 [np.sin(x[0]) * y[0], 0.05 * y[1]]]) if explicit else None
        fc = to_orthonormal_frame(cartan_connection(), met, eh)
        P = sinusoidal_perturbation(atlas, fc, amplitude)
        frame_side = perturb_metric_compatible(fc, horizontal_part(P, met, eh))
        natural = to_orthonormal_frame(
            modify(perturbed_connection_data(atlas, met, cartan_connection(), P)), met, eh)
        pts = bundle_points(atlas.chart_ids[-1], 200, seed=25)
        pa, pb = frame_side.pi(pts), natural.pi(pts)
        worst = max(float(np.max(np.abs(np.asarray(pa[a]) - np.asarray(pb[a]))))
                    for a in range(3))
        assert worst < 1e-14
        tens = bundle_tensors(met, pts, eh)
        shadow = max(
            float(np.max(np.abs(P(pts)[2] * sum(tens.jets.v[k] * tens.N[k][A]
                                                  for k in range(2)))))
            for A in range(2))
        if explicit or manifold == "sphere":
            assert shadow > 0.1
