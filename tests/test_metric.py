"""Minkowski/Finsler metric kernels: homogeneity, fundamental and Cartan
tensors against finite-difference oracles, indicatrix geometry, fiber
volume, and the sum-of-norms construction."""

import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

from finslergbc.ad import Dual, partial, value
from finslergbc.connection import bundle_tensors
from finslergbc.errors import DomainError, InvalidMetricError
from finslergbc.metric import (
    euclidean_norm,
    fiber_volume,
    fiber_volume_form,
    metric_jets,
    norm_family,
    quartic_norm,
    randers_norm,
    riemannian_norm,
    sum_norms,
)
from finslergbc import quadrature
from finslergbc.quadrature import periodic_rule

from conftest import bundle_points


def y_jets(E, x, y, order: int) -> dict:
    """Every y-derivative of E(x, y) up to the given order, keyed by index
    tuple: jets[(i,)] = dE/dy_i, jets[(i, j)] = d^2E/dy_i dy_j, and so on.
    The Cartesian oracle for the theta-jets of the metric kernels.

    One nested-dual evaluation per sorted index tuple of length order;
    peeling its layers one by one reads off the derivatives along every
    prefix of the tuple, and each is stored under all its permutations.
    Slots of x and y may hold arrays, so one call covers a batch."""
    jets = {}
    for idx in combinations_with_replacement(range(len(y)), order):
        yy = list(y)
        for i in reversed(idx):
            yy = [Dual(c, 1.0 if k == i else 0.0) for k, c in enumerate(yy)]
        r = E(list(x), yy)
        for m in range(1, order + 1):
            r = partial(r)
            d = value(r)
            for p in permutations(idx[:m]):
                jets[p] = d
    return jets


def _tensor(jets: dict, rank: int, scale) -> np.ndarray:
    """scale * jets as one array of shape (2,) * rank + batch shape."""
    parts = np.broadcast_arrays(*(scale * jets[p] for p in product(range(2), repeat=rank)))
    return np.stack(parts).reshape((2,) * rank + parts[0].shape)


def indicatrix_param(metric, x, chart):
    """theta -> y(theta), the point of the indicatrix {F(x, y) = 1} on the
    ray through u(theta) = (cos theta, sin theta): by positive homogeneity
    F(x, r u) = r F(x, u), so y(theta) = u / F(x, u).  The oracle for the
    fiber volume density."""
    xf = [float(c) for c in x]

    def y_of_theta(theta: float) -> np.ndarray:
        u = np.array([math.cos(theta), math.sin(theta)])
        return u / float(value(metric.charts[chart](xf, list(u))))

    return y_of_theta


def fd_hessian(f, y, h=1e-4):
    """Richardson-extrapolated central-difference Hessian oracle."""
    n = len(y)
    y = np.asarray(y, dtype=float)

    def hess_at(step):
        H = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                ei = np.eye(n)[i] * step
                ej = np.eye(n)[j] * step
                H[i, j] = (
                    f(y + ei + ej) - f(y + ei - ej) - f(y - ei + ej) + f(y - ei - ej)
                ) / (4 * step * step)
        return H

    return (4.0 * hess_at(h / 2) - hess_at(h)) / 3.0


def fd_third_directional(f, y, u, h=2.5e-3):
    """Richardson-extrapolated third directional derivative along u."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)

    def d3(step):
        return (
            f(y + 2 * step * u)
            - 2 * f(y + step * u)
            + 2 * f(y - step * u)
            - f(y - 2 * step * u)
        ) / (2 * step ** 3)

    return (4.0 * d3(h / 2) - d3(h)) / 3.0


def fd_third(f, y, i, j, k, h=2.5e-3):
    """Mixed third partial by polarization of directional thirds."""
    e = np.eye(len(y))
    combos = [
        (e[i] + e[j] + e[k], 1.0),
        (e[i] + e[j], -1.0),
        (e[i] + e[k], -1.0),
        (e[j] + e[k], -1.0),
        (e[i], 1.0),
        (e[j], 1.0),
        (e[k], 1.0),
    ]
    return sum(s * fd_third_directional(f, y, u, h) for u, s in combos) / 6.0


class TestMinkowskiAxioms:
    @pytest.mark.parametrize(
        "norm",
        [
            euclidean_norm(),
            riemannian_norm([[4.0, 1.0], [1.0, 2.0]]),
            randers_norm([0.3, -0.2]),
            quartic_norm(0.05),
        ],
        ids=["euclidean", "riemannian", "randers", "quartic"],
    )
    def test_homogeneity_and_convexity(self, norm):
        rng = np.random.default_rng(5)
        for _ in range(100):
            th = rng.uniform(0, 2 * math.pi)
            y = [math.cos(th), math.sin(th)]
            lam = rng.uniform(0.05, 20.0)
            f1 = float(norm(y))
            f2 = float(norm([lam * y[0], lam * y[1]]))
            assert abs(f2 - lam * f1) <= 1e-10 * max(1.0, f2)
            g = norm.fundamental(y)
            assert np.min(np.linalg.eigvalsh(g)) > 0.0

    def test_g_zero_homogeneous(self):
        norm = randers_norm([0.2, 0.1])
        rng = np.random.default_rng(8)
        for _ in range(100):
            th = rng.uniform(0, 2 * math.pi)
            y = np.array([math.cos(th), math.sin(th)])
            lam = rng.uniform(0.1, 10.0)
            assert np.max(np.abs(norm.fundamental(y) - norm.fundamental(lam * y))) < 1e-9

    def test_cartan_zero_homogeneous(self):
        norm = quartic_norm(0.1)
        rng = np.random.default_rng(9)
        for _ in range(100):
            th = rng.uniform(0, 2 * math.pi)
            y = np.array([math.cos(th), math.sin(th)])
            lam = rng.uniform(0.1, 10.0)
            assert np.max(np.abs(norm.cartan(y) - norm.cartan(lam * y))) < 1e-9

    def test_zero_vector_rejected(self):
        """y = 0 and a NaN or infinite component, alone or in a batch, are
        rejected: [1, inf] would otherwise read as the ray at theta = pi/2."""
        norm = randers_norm([0.3, -0.2])
        ok = [np.array([0.3, 1.0]), np.array([-0.5, 2.0])]
        for bad in ([0.0, 0.0], [math.nan, 1.0], [1.0, math.inf], [-math.inf, 0.5]):
            batch = [np.array([ok[0][i], bad[i], ok[1][i]]) for i in range(2)]
            for y in (bad, batch):
                for method in (norm.fundamental, norm.cartan):
                    with pytest.raises(DomainError):
                        method(y)

    def test_randers_validity_guard(self):
        with pytest.raises(InvalidMetricError):
            randers_norm([1.0, 0.3])


class TestBatchedJets:
    """fundamental / cartan take a batch of rays on the trailing axes and
    give the same bits as one call per ray.  Each single ray is passed as
    one-element arrays: numpy's vectorised pow may differ from the scalar
    libm pow in the last bit, and that is numpy's choice, not the kernel's."""

    @pytest.mark.parametrize(
        "norm",
        [
            randers_norm([0.3, -0.2], [[2.0, 0.3], [0.3, 1.0]]),
            quartic_norm(0.05),
            riemannian_norm([[4.0, 1.0], [1.0, 2.0]]),
            sum_norms(quartic_norm(0.2), randers_norm([0.1, 0.4])),
        ],
        ids=["randers", "quartic", "riemannian", "sum"],
    )
    def test_batch_matches_per_ray(self, norm):
        rng = np.random.default_rng(12)
        th = rng.uniform(0.0, 2.0 * math.pi, (4, 4))
        r = rng.uniform(0.5, 2.0, (4, 4))
        y = np.stack([r * np.cos(th), r * np.sin(th)])  # 16 rays, batch shape (4, 4)
        g, A = norm.fundamental(y), norm.cartan(y)
        assert g.shape == (2, 2, 4, 4) and A.shape == (2, 2, 2, 4, 4)
        for a in range(4):
            for b in range(4):
                ray = y[:, a, b, None]
                assert np.array_equal(g[..., a, b], norm.fundamental(ray)[..., 0])
                assert np.array_equal(A[..., a, b], norm.cartan(ray)[..., 0])

    @pytest.mark.parametrize(
        "norm",
        [
            euclidean_norm(),
            riemannian_norm([[4.0, 1.0], [1.0, 2.0]]),
            randers_norm([0.3, -0.2]),
            randers_norm([0.3, -0.2], [[2.0, 0.3], [0.3, 1.0]]),
            quartic_norm(0.05),
            quartic_norm(0.5),
            sum_norms(quartic_norm(0.2), randers_norm([0.1, 0.4])),
        ],
        ids=["euclidean", "riemannian", "randers", "randers-G", "quartic-0.05",
             "quartic-0.5", "sum"],
    )
    def test_theta_jets_match_cartesian_oracle(self, norm):
        """On a surface g and A come from theta-jets at the angle of y; the
        Cartesian nested-dual y_jets at y itself are the oracle, for scaled
        rays in a batch and one at a time."""
        rng = np.random.default_rng(43)
        th = rng.uniform(0.0, 2.0 * math.pi, 200)
        r = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 200))
        y = [r * np.cos(th), r * np.sin(th)]
        rays = [y] + [[float(y[0][k]), float(y[1][k])] for k in range(0, 200, 20)]
        E = lambda xx, yy: norm.fn(yy) ** 2
        for ray in rays:
            F = np.asarray(norm(ray), dtype=float)
            T2, T3 = y_jets(E, [], ray, 2), y_jets(E, [], ray, 3)
            for got, ref in ((norm.fundamental(ray), _tensor(T2, 2, 0.5)),
                             (norm.cartan(ray), _tensor(T3, 3, 0.25 * F))):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_surface_norms_build_no_duals(self, monkeypatch):
        """fundamental and cartan construct no Dual; the nested-dual oracle
        y_jets does, so the counter sees them."""
        built = []
        init = Dual.__init__
        monkeypatch.setattr(Dual, "__init__",
                            lambda self, v, e: built.append(1) or init(self, v, e))
        norm = sum_norms(quartic_norm(0.2), randers_norm([0.1, 0.4], [[2.0, 0.3], [0.3, 1.0]]))
        for y in ([0.3, -1.2], [np.array([0.3, 2.0, -1.0]), np.array([-1.2, 0.1, 0.5])]):
            norm.fundamental(y)
            norm.cartan(y)
        assert built == []
        y_jets(lambda x, yy: norm.fn(yy) ** 2, [], [0.3, -1.2], 2)
        assert built

    def test_jets_symmetric_under_permutation(self):
        norm = randers_norm([0.3, -0.2])
        y = [np.array([0.4, -1.1]), np.array([0.9, 0.2])]
        jets = y_jets(lambda x, yy: norm.fn(yy) ** 2, [], y, 3)
        assert len(jets) == 2 + 4 + 8
        for key, val in jets.items():
            assert np.array_equal(val, jets[tuple(sorted(key))])


class TestFundamentalTensor:
    def test_euclidean_identity(self):
        assert np.allclose(euclidean_norm().fundamental([0.4, -0.9]), np.eye(2))

    def test_riemannian_reproduces_matrix(self):
        G = np.array([[4.0, 1.0], [1.0, 2.0]])
        norm = riemannian_norm(G)
        for y in ([1.0, 0.0], [0.3, 0.7], [-2.0, 1.0]):
            assert np.allclose(norm.fundamental(y), G, atol=1e-12)

    def test_randers_against_fd_hessian(self):
        """g at y=(1,0) matches the Richardson central-difference Hessian
        of F^2/2 to 1e-7."""
        norm = randers_norm([0.1, 0.0])
        y = [1.0, 0.0]
        oracle = 0.5 * fd_hessian(lambda yy: float(norm(yy)) ** 2, y)
        assert np.max(np.abs(norm.fundamental(y) - oracle)) < 1e-7

    def test_metric_level_op(self, round_metric):
        """The round metric's fiber norm at x has g = lambda(x) I."""
        g = round_metric.norm_at("south", [0.3, 0.2]).fundamental([0.5, 0.8])
        lam = 4.0 / (1.0 + 0.3 ** 2 + 0.2 ** 2) ** 2
        assert np.allclose(g, lam * np.eye(2), rtol=1e-12)


class TestCartanTensor:
    def test_riemannian_vanishes(self):
        norm = riemannian_norm([[3.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(12)
        for _ in range(20):
            th = rng.uniform(0, 2 * math.pi)
            assert np.max(np.abs(norm.cartan([math.cos(th), math.sin(th)]))) < 1e-12

    def test_y_contraction_vanishes(self):
        rng = np.random.default_rng(13)
        for norm in (randers_norm([0.25, -0.1]), quartic_norm(0.2)):
            for _ in range(50):
                th = rng.uniform(0, 2 * math.pi)
                y = np.array([math.cos(th), math.sin(th)])
                A = norm.cartan(y)
                assert np.max(np.abs(np.einsum("k,kij->ij", y, A))) < 1e-10

    def test_total_symmetry(self):
        A = randers_norm([0.2, 0.3]).cartan([0.6, 0.8])
        for p in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.allclose(A, np.transpose(A, p), atol=1e-14)

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 6])
    def test_pure_quartic_against_fd_oracle(self, theta):
        """A for the raw quartic norm matches the polarization
        finite-difference third-derivative oracle to 1e-6 (the diagonal
        direction is the symmetry point where A vanishes)."""
        norm = quartic_norm(0.0)
        u = np.array([math.cos(theta), math.sin(theta)])
        y = u / float(norm(u))
        F = float(norm(y))
        A = norm.cartan(y)
        f2 = lambda yy: float(norm(yy)) ** 2
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    oracle = 0.25 * F * fd_third(f2, y, i, j, k)
                    assert A[i, j, k] == pytest.approx(oracle, abs=1e-6)

    def test_metric_level_op_raised_index(self, randers_metric):
        """Lowering the raised Cartan tensor of ``bundle_tensors`` gives A
        back: g_ij Ar^j_kl = A_ikl over a batch."""
        tens = bundle_tensors(randers_metric, bundle_points("south", 40, seed=29))
        worst = max(
            float(np.max(np.abs(sum(tens.g[i][j] * tens.Ar[j][k][l] for j in range(2))
                                - tens.A[i][k][l])))
            for i in range(2) for k in range(2) for l in range(2))
        assert worst < 1e-12
        assert max(float(np.max(np.abs(tens.A[i][k][l])))
                   for i in range(2) for k in range(2) for l in range(2)) > 1e-2


class TestSumNorms:
    def test_homogeneity_of_sum(self):
        f = sum_norms(euclidean_norm(), euclidean_norm())
        y = [0.3, 0.4]
        assert float(f([0.6, 0.8])) == pytest.approx(2.0 * float(f(y)), rel=1e-12)

    def test_euclidean_plus_randers_positive_definite(self):
        f = sum_norms(euclidean_norm(), randers_norm([0.3, 0.0]))
        rng = np.random.default_rng(21)
        for _ in range(100):
            th = rng.uniform(0, 2 * math.pi)
            g = f.fundamental([math.cos(th), math.sin(th)])
            assert np.min(np.linalg.eigvalsh(g)) > 0.0

    def test_proof_decomposition_terms_nonnegative(self):
        """g~(X, X) = [dF1(X) + dF2(X)]^2 + F~ (X Hess(F1) X + X Hess(F2) X):
        both bracketed terms are nonnegative and they sum to g~(X, X)."""
        f1 = randers_norm([0.2, -0.1])
        f2 = quartic_norm(0.3)
        fs = sum_norms(f1, f2)
        rng = np.random.default_rng(22)
        for _ in range(50):
            th = rng.uniform(0, 2 * math.pi)
            y = np.array([math.cos(th), math.sin(th)])
            X = rng.standard_normal(2)
            square = 0.0
            hess_term = 0.0
            for f in (f1, f2):
                dirderiv = value(partial(f([Dual(y[0], X[0]), Dual(y[1], X[1])])))
                square += dirderiv
                hess_term += float(X @ fd_hessian(lambda yy: float(f(yy)), y) @ X)
            term1 = square ** 2
            term2 = float(fs(y)) * hess_term
            assert term1 >= 0.0
            assert term2 >= -1e-8
            gXX = float(X @ fs.fundamental(y) @ X)
            assert gXX == pytest.approx(term1 + term2, abs=1e-5)

    def test_dimension_mismatch(self):
        """Every norm is a surface norm, so no sum mixes dimensions: data of
        another rank is rejected when the norm is built."""
        for make in (lambda: riemannian_norm(np.eye(3)),
                     lambda: randers_norm([0.1, 0.2, 0.3]),
                     lambda: randers_norm([0.1, 0.2], np.eye(3)),
                     lambda: randers_norm([[0.1, 0.2]])):
            with pytest.raises(InvalidMetricError):
                make()


class TestNormFamily:
    DATA = [(0, [[2.0, 0.3], [0.3, 1.0]], [0.0, 0.0], 1.0),
            (1, [[1.5, -0.2], [-0.2, 0.8]], [0.2, -0.3], 1.0),
            (2, np.eye(2), [0.0, 0.0], 0.07),
            (1, np.eye(2), [-0.5, 0.1], 1.0),
            (2, np.eye(2), [0.0, 0.0], 0.4)]

    @staticmethod
    def own(kind, G, b, mix):
        return [riemannian_norm(G), randers_norm(b, G), quartic_norm(mix)][kind]

    def test_items_match_their_constructors(self):
        """Each item's F, g and A keep the bits of its own constructor's
        norm on the same rays: every formula is elementwise over the rays."""
        family = norm_family(*(np.array(d) for d in zip(*self.DATA)))
        th = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, (len(self.DATA), 9))
        y = [np.cos(th), np.sin(th)]
        F, g, A = family(y), family.fundamental(y), family.cartan(y)
        for r, data in enumerate(self.DATA):
            norm, yr = self.own(*data), [c[r] for c in y]
            assert np.array_equal(F[r], norm(yr))
            assert np.array_equal(g[..., r, :], norm.fundamental(yr))
            assert np.array_equal(A[..., r, :], norm.cartan(yr))

    @pytest.mark.parametrize("kind, G, b", [
        (0, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]),
        (0, [[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]),
        (1, np.eye(2), [0.8, 0.7]),
        (3, np.eye(2), [0.0, 0.0]),
    ], ids=["asymmetric", "non-positive", "randers-beta", "no-such-kind"])
    def test_bad_item_rejected(self, kind, G, b):
        """One item whose data its constructor rejects, or of no kind,
        fails the family; data a kind does not read is not checked."""
        data = self.DATA + [(kind, G, b, 1.0)]
        with pytest.raises(InvalidMetricError):
            norm_family(*(np.array(d) for d in zip(*data)))
        unread = (2, G, b, 0.1)
        norm_family(*(np.array(d) for d in zip(*(self.DATA + [unread]))))


class TestIndicatrix:
    def test_euclidean_unit_circle(self, torus, flat_metric):
        y_of = indicatrix_param(flat_metric, [0.0, 0.0], "torus")
        for th in np.linspace(0, 2 * math.pi, 9):
            assert np.hypot(*y_of(th)) == pytest.approx(1.0, abs=1e-12)

    def test_riemannian_axis_value(self, torus):
        from finslergbc.manifolds import install_metric

        met = install_metric(torus, "riemannian", {"G": [[4.0, 0.0], [0.0, 1.0]]})
        y_of = indicatrix_param(met, [0.0, 0.0], "torus")
        assert y_of(0.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_randers_against_bisection(self, randers_metric):
        y_of = indicatrix_param(randers_metric, [0.3, 0.1], "south")
        for th in np.linspace(0.1, 2 * math.pi, 7):
            u = np.array([math.cos(th), math.sin(th)])
            lo, hi = 1e-6, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if float(randers_metric.F("south", [0.3, 0.1], list(mid * u))) > 1.0:
                    hi = mid
                else:
                    lo = mid
            assert np.hypot(*y_of(th)) == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_on_indicatrix(self, randers_metric):
        y_of = indicatrix_param(randers_metric, [0.2, -0.4], "south")
        for th in np.linspace(0, 6.0, 5):
            F = float(randers_metric.F("south", [0.2, -0.4], list(y_of(th))))
            assert F == pytest.approx(1.0, abs=1e-12)


class TestFiberVolume:
    def test_two_chart_metric_needs_a_chart(self, randers_metric, flat_metric):
        """On the two-chart sphere no chart is a default; a one-chart
        metric still needs none."""
        with pytest.raises(DomainError):
            fiber_volume(randers_metric, [0.2, 0.1])
        assert fiber_volume(flat_metric, [1.0, 2.0]) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_euclidean_density_one(self, flat_metric):
        th = np.linspace(0, 2 * math.pi, 13)
        rho = fiber_volume_form(flat_metric, [0.1, 0.2], th, "torus")
        assert np.allclose(rho, 1.0, atol=1e-12)
        assert fiber_volume(flat_metric, [0.1, 0.2], "torus") == pytest.approx(
            2 * math.pi, abs=1e-10
        )

    def test_riemannian_volume_is_2pi(self, torus, round_metric):
        """Any Riemannian fiber has indicatrix volume vol(S^1) = 2 pi; the
        strongly anisotropic case needs a finer circle rule."""
        from finslergbc.manifolds import install_metric

        met = install_metric(torus, "riemannian", {"G": [[5.0, 1.2], [1.2, 1.0]]})
        assert fiber_volume(met, [1.0, 2.0], "torus", order=128) == pytest.approx(
            2 * math.pi, abs=1e-9
        )
        assert fiber_volume(round_metric, [0.4, -0.7], "south") == pytest.approx(
            2 * math.pi, abs=1e-9
        )

    def test_randers_against_arclength_oracle(self, randers_metric):
        """rho(theta) equals the induced arc length |c'(theta)|_g of the
        indicatrix curve c(theta) = r(theta) u(theta), step-free to 1e-8."""
        x = [0.25, -0.15]
        y_of = indicatrix_param(randers_metric, x, "south")
        h = 1e-5
        for th in np.linspace(0.0, 2 * math.pi, 11):
            c_prime = (y_of(th + h) - y_of(th - h)) / (2 * h)
            norm = randers_metric.norm_at("south", x)
            g = norm.fundamental([math.cos(th), math.sin(th)])
            oracle = math.sqrt(float(c_prime @ g @ c_prime))
            rho = float(fiber_volume_form(randers_metric, x, th, "south"))
            assert rho == pytest.approx(oracle, abs=1e-8)

    def test_volume_smooth_in_x(self, randers_metric):
        """Quadrature convergence: doubling the fiber order moves V by far
        less than the downstream tolerance."""
        v64 = fiber_volume(randers_metric, [0.3, 0.3], "south", order=64)
        v128 = fiber_volume(randers_metric, [0.3, 0.3], "south", order=128)
        assert abs(v64 - v128) < 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_randers_volume_matches_agm_closed_form(self, eps, sphere):
        """On the zoo Randers metric f + f'' is constant along the fiber, so
        the density is (1 + s cos psi)^(-1/2), s = 2 eps |x| / (1 + |x|^2),
        and V = 2 pi / AGM(sqrt(1 + s), sqrt(1 - s)) (Gauss).  At the
        default cap, FIBER_ORDER, the nested fiber rule holds V to it within
        1e-14 at every radius, in both charts, and reports convergence; the
        most nodes it takes are 16, 32 and 128 at eps = 0.1, 0.5 and 0.9.  A
        cap of 64 leaves V 1.4e-13 off at eps = 0.9 and |x| = 1, where s =
        eps, and the rule says that it stopped unconverged."""
        from finslergbc.manifolds import install_metric

        def agm(a, b):
            for _ in range(40):
                a, b = 0.5 * (a + b), np.sqrt(a * b)
            return a

        met = install_metric(sphere, "randers", {"eps": eps})
        radii = np.array([0.0, 0.2, 0.5, 0.8, 1.0, 1.3, 2.5])
        angle = np.linspace(0.3, 5.0, len(radii))
        x = [radii * np.cos(angle), radii * np.sin(angle)]
        s = 2.0 * eps * radii / (1.0 + radii ** 2)
        want = 2.0 * math.pi / agm(np.sqrt(1.0 + s), np.sqrt(1.0 - s))
        for chart in ("south", "north"):
            rules = {}
            assert np.max(np.abs(fiber_volume(met, x, chart, rules=rules) - want)) <= 1e-14
            assert rules == {chart: ({0.1: 16, 0.5: 32, 0.9: 128}[eps], True)}
        if eps == 0.9:
            rules = {}
            V = fiber_volume(met, x, "south", 64, rules)
            assert np.max(np.abs(V - want)) > 1e-13
            assert rules == {"south": (64, False)}

    def test_quartic_torus_converges_at_default_cap(self, torus):
        """The quartic torus metric (eps 0.1) needs 256 fiber nodes: at x =
        (0.3, 0.2) V moves by 4.3e-4, 4.8e-5, 6.1e-8 and 2.7e-13 of itself
        from 16 to 32, 64, 128 and 256 nodes.  At the default cap,
        FIBER_ORDER, the nested rule takes 256 and reports convergence, V
        within 1e-15 of a 512-node trapezoid sum; capped at 128 it stops
        unconverged, 2.7e-13 off."""
        from finslergbc.manifolds import install_metric

        met = install_metric(torus, "quartic", {"eps": 0.1})
        th, w = periodic_rule(512)
        want = float(np.sum(w * fiber_volume_form(met, [np.full(512, 0.3), np.full(512, 0.2)],
                                                  th, "torus")))
        rules = {}
        V = fiber_volume(met, [np.array([0.3]), np.array([0.2])], "torus", rules=rules)
        assert rules == {"torus": (256, True)}
        assert abs(float(V[0]) - want) <= 1e-15 * want
        rules = {}
        V = fiber_volume(met, [np.array([0.3]), np.array([0.2])], "torus", 128, rules)
        assert rules == {"torus": (128, False)}
        assert abs(float(V[0]) - want) > 1e-13 * want

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.8])
    def test_default_order_against_gauss_legendre(self, eps, sphere):
        """V at the default fiber order matches a 128-node Gauss-Legendre sum
        of the same density to 1e-12 on weak and strong Randers metrics."""
        from finslergbc.manifolds import install_metric
        from finslergbc.quadrature import gauss_legendre

        met = install_metric(sphere, "randers", {"eps": eps})
        rng = np.random.default_rng(23)
        r, ph = np.sqrt(rng.uniform(0.0, 1.0, 50)), rng.uniform(0.0, 2.0 * math.pi, 50)
        x1, x2 = r * np.cos(ph), r * np.sin(ph)
        th, w = gauss_legendre(0.0, 2.0 * math.pi, 128)
        oracle = fiber_volume_form(met, [x1[:, None], x2[:, None]], th, "south") @ w
        assert np.max(np.abs(fiber_volume(met, [x1, x2], "south") - oracle)) < 1e-12

    def test_batched_matches_pointwise(self, randers_metric):
        """One call over a grid of base points equals one call per point
        and keeps the shape of the grid."""
        rng = np.random.default_rng(8)
        x1 = rng.uniform(-0.7, 0.7, (3, 4))
        x2 = rng.uniform(-0.7, 0.7, (3, 4))
        V = fiber_volume(randers_metric, (x1, x2), "south")
        assert V.shape == (3, 4)
        assert np.shape(fiber_volume(randers_metric, (0.1, 0.2), "south")) == ()
        for idx in np.ndindex(V.shape):
            one = fiber_volume(randers_metric, (x1[idx], x2[idx]), "south")
            assert V[idx] == pytest.approx(one, rel=1e-14)

    @pytest.mark.parametrize("case", ["scalar", "ragged", "stacked", "one-point-blocks",
                                      "scalar-seed", "two-seed", "mixed-sizes"])
    def test_blocked_matches_one_block(self, case, randers_metric, sphere, monkeypatch):
        """Evaluating the batch in blocks of base points changes no bit:
        every dual layer of V equals the one-block evaluation of the whole
        batch, which the test forces by raising the block size.  At cap 64
        the nested fiber rule starts at 16 nodes and each doubling of n
        evaluates only the points whose own rule needs 2n nodes, in blocks
        of _BLOCK_NODES // n points, so the calls are counted from the node
        count each point takes on its own; on Randers 0.7 ("mixed-sizes")
        the points take 16, 32 and 64.  With one node per block, each block
        holds one point and V equals the evaluation of each point on its
        own."""
        import finslergbc.metric as metric_mod
        from finslergbc.manifolds import install_metric

        rng = np.random.default_rng(17)
        order = 64
        met = (install_metric(sphere, "randers", {"eps": 0.7}) if case == "mixed-sizes"
               else randers_metric)
        if case == "one-point-blocks":
            monkeypatch.setattr(quadrature, "_BLOCK_NODES", 1)

        def blocks(points, nodes):
            return -(-points // max(1, quadrature._BLOCK_NODES // nodes))

        block = max(1, quadrature._BLOCK_NODES // 16)
        shape = {"scalar": (), "stacked": (4, 200),
                 "one-point-blocks": (5,)}.get(case, (2 * block + 37,))
        x1, x2 = rng.uniform(-0.7, 0.7, (2,) + shape)

        def seeded(a, b):
            e = np.eye(2).reshape((2, 2) + (1,) * np.ndim(a))
            return {"scalar-seed": [Dual(a, 1.0), b],
                    "two-seed": [Dual(a, e[0]), Dual(b, e[1])]}.get(case, [a, b])

        nodes = []
        for a, b in zip(np.ravel(x1), np.ravel(x2)):
            rules = {}
            fiber_volume(met, seeded(a, b), "south", order, rules)
            nodes.append(rules["south"][0])
        nodes = np.array(nodes)
        if case == "mixed-sizes":
            assert set(nodes) == {16, 32, 64}

        calls = []
        form = metric_mod.fiber_volume_form
        monkeypatch.setattr(metric_mod, "fiber_volume_form",
                            lambda *a, **k: calls.append(1) or form(*a, **k))
        got = fiber_volume(met, seeded(x1, x2), "south", order)
        assert len(calls) == blocks(nodes.size, 16) + sum(
            blocks(np.count_nonzero(nodes >= 2 * n), n) for n in (16, 32))
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 10 ** 12)
        if case == "one-point-blocks":
            want = np.array([fiber_volume(met, [a, b], "south", order)
                             for a, b in zip(x1, x2)])
        else:
            want = fiber_volume(met, seeded(x1, x2), "south", order)
        layers = [(got, want)]
        while layers:
            a, b = layers.pop()
            assert isinstance(a, Dual) == isinstance(b, Dual)
            if isinstance(b, Dual):
                layers += [(a.val, b.val), (a.eps, b.eps)]
            else:
                assert np.shape(a) == np.shape(b)
                assert np.array_equal(a, b)
        assert np.shape(value(got)) == shape
        if case == "two-seed":
            assert np.shape(got.eps) == (2,) + shape

    @pytest.mark.parametrize("order", [48, 64])
    def test_point_bits_independent_of_batch_layout(self, order, randers_metric,
                                                    monkeypatch):
        """V at a base point has the same bits alone, in a batch, at any
        offset within its block and in a batch of one block: the fiber sums
        of a point read its own row only, and the nested fiber rule sizes
        each point on its own estimate (at cap 48 the points here take 12
        or 24 nodes)."""
        rng = np.random.default_rng(29)
        block = max(1, quadrature._BLOCK_NODES // order)
        x1, x2 = rng.uniform(-0.7, 0.7, (2, 2 * block + 37))
        V = fiber_volume(randers_metric, [x1, x2], "south", order)
        alone = [fiber_volume(randers_metric, [a, b], "south", order) for a, b in zip(x1, x2)]
        assert np.array_equal(V, alone)
        shifted = fiber_volume(randers_metric, [x1[5:-3], x2[5:-3]], "south", order)
        assert np.array_equal(V[5:-3], shifted)
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 10 ** 12)
        assert np.array_equal(V, fiber_volume(randers_metric, [x1, x2], "south", order))

    def test_seeded_batch_memory(self, randers_metric):
        """One two-seed pass over 9,216 base points at 64 fiber nodes peaks
        below 16 MiB of traced allocations: blocking keeps the fiber
        arrays cache-sized instead of (2, points, nodes)."""
        import tracemalloc

        rng = np.random.default_rng(19)
        x1, x2 = rng.uniform(-0.7, 0.7, (2, 9216))
        s = np.eye(2).reshape(2, 2, 1)
        tracemalloc.start()
        try:
            fiber_volume(randers_metric, [Dual(x1, s[0]), Dual(x2, s[1])], "south", 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("name", ["randers", "quartic", "riemannian"])
    def test_density_matches_det_g_oracle(self, name, sphere, torus):
        """The theta-jet density sqrt((f + f'')/f) equals sqrt(det g)/F^2 at
        y = (cos theta, sin theta), with g from MinkowskiNorm.fundamental."""
        from finslergbc.manifolds import install_metric

        met, chart = {
            "randers": (install_metric(sphere, "randers", {"eps": 0.3}), "south"),
            "quartic": (install_metric(torus, "quartic", {"eps": 0.05}), "torus"),
            "riemannian": (install_metric(torus, "riemannian",
                                          {"G": [[2.0, 0.7], [0.7, 1.0]]}), "torus"),
        }[name]
        rng = np.random.default_rng(13)
        th = np.linspace(0.0, 2 * math.pi, 17)
        u = [np.cos(th), np.sin(th)]
        for _ in range(4):
            x = list(rng.uniform(-0.8, 0.8, 2))
            g = met.norm_at(chart, x).fundamental(u)
            detg = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            F = np.asarray(met.F(chart, x, u), dtype=float)
            oracle = np.sqrt(detg) / F ** 2
            rho = fiber_volume_form(met, x, th, chart)
            assert np.max(np.abs(rho - oracle) / oracle) < 1e-13


def _mixed_jets(E, x, y):
    """Oracle for the mixed jets: X1[A] = dE/dx_A, X2[i][A] = d2E/dy_i dx_A
    and X3[i][j][A] = d3E/dy_i dy_j dx_A, each from one Cartesian
    nested-dual evaluation (x_A seeded outermost, y_i and y_j inside)."""
    from finslergbc.ad import Dual, partial, value

    X1 = [None] * 2
    X2 = [[None] * 2 for _ in range(2)]
    X3 = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for A in range(2):
        for i in range(2):
            for j in range(2):
                xx, yy = list(x), list(y)
                for kind, idx in (("y", j), ("y", i), ("x", A)):
                    xx = [Dual(c, 1.0 if (kind, k) == ("x", idx) else 0.0) for k, c in enumerate(xx)]
                    yy = [Dual(c, 1.0 if (kind, k) == ("y", idx) else 0.0) for k, c in enumerate(yy)]
                d1 = partial(E(xx, yy))
                d2 = partial(d1)
                X1[A], X2[i][A], X3[i][j][A] = value(d1), value(d2), value(partial(d2))
    return X1, X2, X3


@pytest.fixture(scope="module")
def jet_metrics(sphere, torus):
    from finslergbc.manifolds import install_metric

    randers = install_metric(sphere, "randers", {"eps": 0.3})
    return {
        "randers-south": (randers, "south"),
        "randers-north": (randers, "north"),
        "round": (install_metric(sphere, "round_sphere"), "south"),
        "quartic": (install_metric(torus, "quartic", {"eps": 0.05}), "torus"),
        "riemannian": (install_metric(torus, "riemannian",
                                      {"G": [[2.0, 0.7], [0.7, 1.0]]}), "torus"),
    }


class TestMetricJets:
    """metric_jets reads every jet off theta-jets of e = F^2 along the unit
    circle; Cartesian nested-dual derivatives of E are the oracle.  The
    frozen fiber norms at the same points read g and A off the same
    theta-jet kernels and meet the same oracle."""

    @pytest.mark.parametrize("name", ["randers-south", "randers-north", "round",
                                      "quartic", "riemannian"])
    def test_matches_cartesian_oracle(self, name, jet_metrics):
        met, chart = jet_metrics[name]
        rng = np.random.default_rng(41)
        x1, x2 = rng.uniform(-0.9, 0.9, 25), rng.uniform(-0.9, 0.9, 25)
        th = rng.uniform(0.0, 2.0 * math.pi, 25)
        jets = metric_jets(met, chart, x1, x2, th)
        E = lambda xx, yy: met.F(chart, xx, yy) ** 2
        u = [np.cos(th), np.sin(th)]
        T = y_jets(E, [x1, x2], u, 3)
        X1, X2, X3 = _mixed_jets(E, [x1, x2], u)
        want = {
            "F": np.asarray(met.F(chart, [x1, x2], u), dtype=float),
            "T1": [T[(i,)] for i in range(2)],
            "T2": [[T[i, j] for j in range(2)] for i in range(2)],
            "T3": [[[T[i, j, k] for k in range(2)] for j in range(2)] for i in range(2)],
            "X1": X1, "X2": X2, "X3": X3,
        }
        norm = met.norm_at(chart, [x1, x2])
        got_of = {"g": norm.fundamental(u), "A": norm.cartan(u)}
        want.update(g=0.5 * np.asarray(want["T2"]), A=0.25 * want["F"] * np.asarray(want["T3"]))
        for field, ref in want.items():
            ref = np.asarray(ref, dtype=float)
            got = got_of[field] if field in got_of else getattr(jets, field)
            got = np.asarray(got, dtype=float)
            assert got.shape == ref.shape, field
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), field
        assert np.array_equal(jets.u, u)
        assert np.array_equal(jets.v, [-u[1], u[0]])

    def test_three_chart_evaluations(self, jet_metrics):
        """One call evaluates the chart function twice (once for the theta
        jets, once for both seeded chart axes), and each symmetric entry is
        one array under every index order."""
        from finslergbc.metric import FinslerMetric

        met, chart = jet_metrics["randers-south"]
        calls = []
        counted = FinslerMetric(met.atlas_id, {
            chart: lambda x, y: calls.append(1) or met.charts[chart](x, y)})
        th = np.linspace(0.0, 2.0 * math.pi, 7)
        jets = metric_jets(counted, chart, 0.3 + 0.0 * th, -0.2 + 0.0 * th, th)
        assert len(calls) == 2
        assert jets.T2[0][1] is jets.T2[1][0]
        for idx in [(0, 0, 1), (0, 1, 1)]:
            for i, j, k in permutations(idx):
                assert jets.T3[i][j][k] is jets.T3[idx[0]][idx[1]][idx[2]]
        for A in range(2):
            assert jets.X3[0][1][A] is jets.X3[1][0][A]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_circle_jet_matches_ad(self, degree):
        """The Taylor (cos, sin) jet holds the derivatives of ad.cos / ad.sin
        of a nested theta dual over m!, bit for bit."""
        from finslergbc import ad
        from finslergbc.metric import _circle_taylor

        theta = np.linspace(-4.0, 9.0, 41)
        th = theta
        for _ in range(degree):
            th = ad.Dual(th, 1.0)
        for got, ref in zip(_circle_taylor(theta, degree), (ad.cos(th), ad.sin(th))):
            assert isinstance(got, ad.Jet) and len(got.c) == degree + 1
            for m in range(degree + 1):
                d = ref
                for _ in range(m):
                    d = ad.partial(d)
                assert np.array_equal(got.c[m], value(d) / math.factorial(m))
