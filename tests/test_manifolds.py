"""Atlases, transitions, and the metric zoo wiring."""

import math

import numpy as np
import pytest

from finslergbc.errors import InvalidMetricError, ValidationError
from finslergbc.manifolds import install_metric


class TestSphereAtlas:
    def test_transition_round_trip(self, sphere):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(-1.5, 1.5, 2)
            if np.hypot(*a) < 0.3:
                continue
            b = sphere.transition("south", "north", a)
            back = np.array(sphere.transition("north", "south", b))
            assert np.max(np.abs(back - a)) < 1e-12

    def test_transition_orientation_preserving(self, sphere):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.uniform(-1.0, 1.0, 2)
            if np.hypot(*a) < 0.3:
                continue
            J = sphere.transition_jacobian("south", "north", a)
            assert np.linalg.det(J) > 0.0

    def test_jacobian_matches_fd(self, sphere):
        a = np.array([0.7, -0.4])
        J = sphere.transition_jacobian("south", "north", a)
        h = 1e-6
        for k in range(2):
            e = np.eye(2)[k] * h
            fd = (
                np.array(sphere.transition("south", "north", a + e))
                - np.array(sphere.transition("south", "north", a - e))
            ) / (2 * h)
            assert np.max(np.abs(J[:, k] - fd)) < 1e-8

    def test_jacobian_of_a_chart_to_itself_is_the_identity(self, sphere, torus):
        """From a chart to itself the transition is the identity, and so is
        its Jacobian at every point of the batch, which trails the two
        matrix axes as it does between charts."""
        x = (np.linspace(0.1, 2.0, 5), np.linspace(-1.0, 3.0, 5))
        for atlas, chart in ((sphere, "south"), (sphere, "north"), (torus, "torus")):
            J = atlas.transition_jacobian(chart, chart, x)
            assert np.array_equal(J, np.broadcast_to(np.eye(2)[:, :, None], (2, 2, 5)))
        assert sphere.transition_jacobian("south", "north", x).shape == (2, 2, 5)

    def test_transition_takes_dual_numbers(self, sphere):
        """A dual seed passes through the transition w = 1/z: the
        derivative it carries along x1 is dw/dz = -1/z^2, the first column
        of the Jacobian, which is that number's Cauchy-Riemann matrix."""
        from finslergbc.ad import Dual

        a = np.array([0.7, -0.4])
        b1, b2 = sphere.transition("south", "north", (Dual(a[0], 1.0), Dual(a[1], 0.0)))
        dz = -1.0 / complex(*a) ** 2
        assert np.allclose([b1.eps, b2.eps], [dz.real, dz.imag], rtol=0.0, atol=1e-14)
        assert np.allclose(sphere.transition_jacobian("south", "north", a),
                           [[dz.real, -dz.imag], [dz.imag, dz.real]], rtol=0.0, atol=1e-14)

    def test_embedding_consistency_on_overlap(self, sphere):
        """Both charts embed an overlap point to the same R^3 location."""
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.uniform(-1.4, 1.4, 2)
            if not 0.4 < np.hypot(*a) < 1.4:
                continue
            b = sphere.transition("south", "north", a)
            pa = sphere.embed("south", a)
            pb = sphere.embed("north", b)
            assert np.max(np.abs(pa - pb)) < 1e-12

    def test_embedding_on_unit_sphere(self, sphere):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1.0, 1.0, (20, 2))
        p = sphere.embed("south", (a[:, 0], a[:, 1]))
        assert np.allclose(np.linalg.norm(p, axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("chart", ["south", "north"])
    def test_embedding_is_global_scalars(self, sphere, chart):
        """The sphere embedding is the stacked global scalars, bit for bit
        the inverse stereographic projection (X, Y, Z) = (2 x1, 2 x2, r^2 -
        1) / (1 + r^2), with Y and Z negated in the north chart."""
        rng = np.random.default_rng(5)
        x1, x2 = rng.uniform(-1.5, 1.5, (2, 1000))
        r2 = x1 * x1 + x2 * x2
        X, Y, Z = 2.0 * x1 / (1.0 + r2), 2.0 * x2 / (1.0 + r2), (r2 - 1.0) / (1.0 + r2)
        if chart == "north":
            Y, Z = -Y, -Z
        assert np.array_equal(sphere.embed(chart, (x1, x2)), np.stack([X, Y, Z], axis=-1))

    def test_chi(self, sphere, torus):
        assert sphere.chi == 2
        assert torus.chi == 0


class TestSphereArea:
    def test_round_area_4pi(self, sphere, round_metric):
        """Area of the unit round sphere from the two unit discs of its
        stereographic charts, 2 pi each from the conformal factor:
        quadrature vs closed form."""
        from finslergbc.quadrature import AnnulusRegion, base_integral_excised, FormField, PointwiseForm

        def area_form(pts):
            x1, x2 = pts.coords
            lam = 4.0 / (1.0 + x1 ** 2 + x2 ** 2) ** 2
            return PointwiseForm({(0, 1): lam})

        f = FormField(2, 2, area_form)
        total = sum(base_integral_excised(f, AnnulusRegion(chart, 1.0), order=48)[0]
                    for chart in sphere.chart_ids)
        assert total == pytest.approx(4 * math.pi, abs=1e-13)

    def test_torus_area(self, torus):
        from finslergbc.quadrature import BoxRegion, base_integral_excised, FormField, PointwiseForm

        f = FormField(2, 2, lambda pts: PointwiseForm({(0, 1): 1.0 + 0.0 * pts.coords[0]}))
        box = BoxRegion("torus", *torus.region_box("torus"))
        (total,) = base_integral_excised(f, box, order=24)
        assert total == pytest.approx(4 * math.pi ** 2, rel=1e-12)


class TestMetricZoo:
    def test_metric_transition_compatibility(self, sphere, round_metric, randers_metric):
        """F_south(a, y) = F_north(T(a), J y) on overlap samples to 1e-8."""
        rng = np.random.default_rng(5)
        for met in (round_metric, randers_metric):
            for _ in range(40):
                a = rng.uniform(-1.3, 1.3, 2)
                if not 0.4 < np.hypot(*a) < 1.3:
                    continue
                y = rng.standard_normal(2)
                b = sphere.transition("south", "north", a)
                J = sphere.transition_jacobian("south", "north", a)
                f_s = float(met.F("south", list(a), list(y)))
                f_n = float(met.F("north", list(b), list(J @ y)))
                assert abs(f_s - f_n) < 1e-8 * max(1.0, f_s)

    def test_randers_requires_sphere(self, torus):
        with pytest.raises(ValidationError):
            install_metric(torus, "randers", {"eps": 0.1})

    def test_randers_validity_guard(self, sphere):
        with pytest.raises(InvalidMetricError):
            install_metric(sphere, "randers", {"eps": 1.2})

    def test_unknown_zoo_id(self, sphere):
        with pytest.raises(ValidationError):
            install_metric(sphere, "lorentzian")

    def test_zoo_names_are_the_cli_choices(self, sphere, torus):
        """The --metric choices are the names install_metric takes, and each
        installs on its atlas."""
        from finslergbc.cli import SETTINGS
        from finslergbc.manifolds import METRICS

        assert next(s for s in SETTINGS if s.field == "metric").choices is METRICS
        for name in METRICS:
            atlas = sphere if name in ("round_sphere", "randers") else torus
            assert install_metric(atlas, name).atlas is atlas

    def test_metric_carries_the_atlas_it_was_installed_on(self, torus):
        """The metric holds the very atlas object it was installed on."""
        assert install_metric(torus, "quartic").atlas is torus

    def test_certification_passes_for_zoo(self, sphere, torus):
        """Fail-fast certification runs clean across the whole zoo."""
        install_metric(sphere, "round_sphere")
        install_metric(sphere, "randers", {"eps": 0.1})
        install_metric(torus, "euclidean")
        install_metric(torus, "quartic", {"eps": 0.05})
        install_metric(torus, "riemannian", {"G": [[2.0, 0.3], [0.3, 1.0]]})

    def test_certification_rejects_bad_metric(self, torus):
        """A non-convex candidate (raw quartic) fails the axiom sweep."""
        with pytest.raises(InvalidMetricError):
            install_metric(torus, "quartic", {"eps": 0.0})

    @pytest.mark.parametrize("zoo_id", ["euclidean", "quartic", "riemannian"])
    def test_chart_inconsistent_norm_rejected(self, sphere, zoo_id):
        """A norm that is the same in both sphere charts is not one function
        on the sphere bundle: F_north(phi(x), J y) != F_south(x, y)."""
        with pytest.raises(InvalidMetricError, match="disagree on their overlap"):
            install_metric(sphere, zoo_id)

    def test_chart_consistency_checks_overlap_draws(self, sphere, monkeypatch):
        """The chart check compares the two charts at the same bundle
        points, so breaking the transition map, and with it the Jacobian
        taken through it, breaks certification."""
        from finslergbc.manifolds import certify_metric

        randers = install_metric(sphere, "randers", {"eps": 0.1}, certify=False)
        certify_metric(randers)
        monkeypatch.setattr(type(sphere), "transition", lambda self, src, dst, x: (x[0], x[1]))
        with pytest.raises(InvalidMetricError, match="disagree on their overlap"):
            certify_metric(randers)

    def test_certification_rejects_infinite_metric(self, torus):
        """quartic(inf) returns F = inf everywhere; inf > 0 holds, so F must
        also be finite to pass."""
        from finslergbc.manifolds import certify_metric

        metric = install_metric(torus, "quartic", {"eps": math.inf}, certify=False)
        with pytest.raises(InvalidMetricError, match="finite"):
            certify_metric(metric)

    def test_certification_nan_fails_homogeneity(self, torus):
        """A norm that is NaN off the unit circle (|y| > 1.5) is finite on
        every unit ray, so only the homogeneity check sees it: a NaN must
        fail that comparison, not slip through it."""
        from finslergbc.ad import value
        from finslergbc.manifolds import certify_metric
        from finslergbc.metric import FinslerMetric

        def fn(x, y):
            r = (y[0] * y[0] + y[1] * y[1]) ** 0.5
            return r + np.where(np.asarray(value(r)) > 1.5, np.nan, 0.0)

        metric = FinslerMetric(torus, {c: fn for c in torus.chart_ids})
        with pytest.raises(InvalidMetricError, match="homogeneity"):
            certify_metric(metric)

    @pytest.mark.parametrize("G", [np.eye(3), np.ones((2, 3)), np.ones(2)],
                             ids=["3x3", "2x3", "vector"])
    def test_riemannian_G_shape_rejected(self, torus, G):
        """A G that is not the 2x2 matrix of a surface metric is rejected
        before any chart function runs."""
        with pytest.raises(InvalidMetricError):
            install_metric(torus, "riemannian", {"G": G})

    def test_certification_one_fundamental_call_per_chart(self, sphere, monkeypatch):
        """The Hessian check evaluates every sample of a chart in one
        batched call."""
        from finslergbc.metric import MinkowskiNorm

        calls = []
        original = MinkowskiNorm.fundamental
        monkeypatch.setattr(MinkowskiNorm, "fundamental",
                            lambda self, y: calls.append(1) or original(self, y))
        install_metric(sphere, "randers", {"eps": 0.1})
        assert len(calls) == len(sphere.chart_ids)

    def test_randers_axioms_dense_sweep(self, sphere, randers_metric):
        """randers(0.1) passes the Minkowski axioms at 1000 samples (the
        Hessian eigenvalue oracle over both charts)."""
        from finslergbc.manifolds import certify_metric

        certify_metric(randers_metric, samples=500, seed=99)

    @pytest.mark.parametrize("eps", [0.1, 0.7])
    @pytest.mark.parametrize("kind", ["float", "complex", "dual", "jet", "dual-jet"])
    def test_randers_kernel_matches_alpha_plus_eps_beta(self, sphere, kind, eps):
        """F = alpha + b_1(x) y^1 + b_2(x) y^2, with b formed on the base,
        is the function alpha + eps beta it replaced, written with
        lambda = 4/(1+|x|^2)^2 inside one square root, on every input the
        pipeline feeds it: plain, complex-shifted (complex-step partials),
        dual (seeded x or y) and theta-jet, with and without a dual layer
        outside.  Relative to each part's largest entry the values agree
        to 4e-16 and the derivative and Taylor parts to 8e-16 (the most
        seen over 50 seeds is 3.6e-16 and 6.7e-16)."""
        from finslergbc import ad
        from finslergbc.ad import Dual, Jet
        from finslergbc.metric import _circle_taylor

        def alpha_plus_eps_beta(sign):
            def fn(x, y):
                r2 = x[0] * x[0] + x[1] * x[1]
                lam = 4.0 / (1.0 + r2) ** 2
                alpha = ad.sqrt(lam * (y[0] * y[0] + y[1] * y[1]))
                beta = sign * lam * (-x[1] * y[0] + x[0] * y[1])
                return alpha + eps * beta
            return fn

        def parts(z):
            if isinstance(z, Dual):
                return parts(z.val) + parts(z.eps)
            if isinstance(z, Jet):
                return [p for c in z.c for p in parts(c)]
            z = np.asarray(z)
            return [z.real, z.imag] if np.iscomplexobj(z) else [z]

        rng = np.random.default_rng(5)
        r, ph, th = np.sqrt(rng.uniform(0.0, 1.0, 256)), *rng.uniform(0.0, 2 * math.pi, (2, 256))
        x, y = [r * np.cos(ph), r * np.sin(ph)], [2.0 * np.cos(th), 2.0 * np.sin(th)]
        seed = np.eye(2)[:, :, None]
        x, y = {
            "float": (x, y),
            "complex": ([x[0] + 1e-30j, x[1]], y),
            "dual": ([Dual(x[0], 1.0), Dual(x[1], 0.0)], [Dual(y[0], 0.0), Dual(y[1], 1.0)]),
            "jet": (x, list(_circle_taylor(th, 3))),
            "dual-jet": ([Dual(x[0], seed[0]), Dual(x[1], seed[1])], list(_circle_taylor(th, 2))),
        }[kind]
        metric = install_metric(sphere, "randers", {"eps": eps})
        for chart, sign in (("south", 1.0), ("north", -1.0)):
            got = parts(metric.charts[chart](x, y))
            want = parts(alpha_plus_eps_beta(sign)(x, y))
            assert len(got) == len(want) > (kind != "float")
            for k, (g, w) in enumerate(zip(got, want)):
                assert np.max(np.abs(g - w)) <= (4e-16 if k == 0 else 8e-16) * np.max(np.abs(w))

    @pytest.mark.parametrize("kind", ["float", "complex", "dual", "jet", "dual-jet"])
    def test_randers_kernel_forms_r2_once(self, sphere, kind):
        """The Randers kernel forms 1 + |x|^2 once for alpha and b, where it
        squared each coordinate twice, and returns the same bits as the
        kernel that did, on every input the pipeline feeds it."""
        from finslergbc import ad
        from finslergbc.ad import Dual, Jet
        from finslergbc.metric import _circle_taylor

        def two_squares(sign):
            def fn(x, y):
                r2 = x[0] * x[0] + x[1] * x[1]
                alpha = 2.0 / (1.0 + r2) * ad.sqrt(y[0] * y[0] + y[1] * y[1])
                c = 0.7 * sign * 4.0 / (1.0 + (x[0] * x[0] + x[1] * x[1])) ** 2
                return alpha + (-1.0 * c * x[1]) * y[0] + (c * x[0]) * y[1]
            return fn

        squares = []

        class Counted(Dual):
            __slots__ = ()

            def __mul__(self, other):
                if other is self:
                    squares.append(1)
                return Dual.__mul__(self, other)

        def parts(z):
            if isinstance(z, Dual):
                return parts(z.val) + parts(z.eps)
            if isinstance(z, Jet):
                return [p for c in z.c for p in parts(c)]
            return [np.asarray(z).tolist()]

        rng = np.random.default_rng(6)
        r, ph, th = np.sqrt(rng.uniform(0.0, 1.0, 64)), *rng.uniform(0.0, 2 * math.pi, (2, 64))
        x, y = [r * np.cos(ph), r * np.sin(ph)], [2.0 * np.cos(th), 2.0 * np.sin(th)]
        seed = np.eye(2)[:, :, None]
        x, y = {
            "float": (x, y),
            "complex": ([x[0] + 1e-30j, x[1]], y),
            "dual": ([Dual(x[0], 1.0), Dual(x[1], 0.0)], [Dual(y[0], 0.0), Dual(y[1], 1.0)]),
            "jet": (x, list(_circle_taylor(th, 3))),
            "dual-jet": ([Counted(x[0], seed[0]), Counted(x[1], seed[1])],
                         list(_circle_taylor(th, 2))),
        }[kind]
        metric = install_metric(sphere, "randers", {"eps": 0.7})
        for chart, sign in (("south", 1.0), ("north", -1.0)):
            squares.clear()
            got = parts(metric.charts[chart](x, y))
            assert len(squares) == (2 if kind == "dual-jet" else 0)
            assert repr(got) == repr(parts(two_squares(sign)(x, y)))

