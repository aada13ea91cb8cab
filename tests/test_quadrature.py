"""Form fields, the finite-difference and complex-step partials, the
exterior calculus, pullbacks, and the integration rules with their
orientation conventions."""

import math

import numpy as np
import pytest

from finslergbc.quadrature import (
    AnnulusRegion,
    BoxRegion,
    ChartPoints,
    FormField,
    PointwiseForm,
    base_integral_excised,
    boundary_circle_integral,
    central_partials,
    complex_step_partials,
    exterior_derivative,
    extrapolate_to_zero,
    gauss_legendre,
    nested_periodic_rule,
    periodic_rule,
    pullback_by_section,
)

from conftest import zero_step_stack


def fiber_integral(f: FormField, chart: str, x, order: int) -> float:
    """The fiber restriction of a bundle 1-form, its dtheta coefficient,
    integrated over the fiber circle at x by the periodic trapezoid rule
    of order nodes."""
    th, w = periodic_rule(order)
    pts = ChartPoints(chart, (np.full_like(th, x[0]), np.full_like(th, x[1]), th))
    return float(np.sum(w * f(pts).get((2,))))


def field_from(fn, dim=3, degree=0):
    return FormField(dim, degree, fn)


# Every order from 1 to 64, then every 32nd to 512 and 511: a sweep of all
# 512 orders against leggauss takes about 15 s on 2 vCPU and reads the same 1.1e-16.
GAUSS_ORDERS = [*range(1, 65), *range(96, 513, 32), 511]


class TestGaussRules:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8, 16, 48])
    def test_polynomial_exactness(self, order):
        """Order-n Gauss-Legendre integrates degree 2n-1 exactly."""
        x, w = gauss_legendre(-1.0, 3.0, order)
        for p in range(2 * order):
            got = float(np.sum(w * x ** p))
            want = (3.0 ** (p + 1) - (-1.0) ** (p + 1)) / (p + 1)
            assert got == pytest.approx(want, rel=1e-13)

    def test_nodes_match_leggauss(self):
        """The Newton nodes lie within 4.5e-16 of numpy.polynomial's
        eigenvalue-based leggauss, the oracle here, in the same order."""
        for order in GAUSS_ORDERS:
            x, _ = gauss_legendre(-1.0, 1.0, order)
            ref, _ = np.polynomial.legendre.leggauss(order)
            assert np.abs(x - ref).max() <= 4.5e-16, order

    def test_weights_sum_to_length(self):
        """Positive weights summing to b - a within 1e-14 relative."""
        for order in GAUSS_ORDERS:
            _, w = gauss_legendre(-1.0, 3.0, order)
            assert len(w) == order and np.all(w > 0.0)
            assert abs(float(np.sum(w)) - 4.0) <= 4e-14, order

    def test_order_one_is_the_midpoint_rule(self):
        x, w = gauss_legendre(-1.0, 1.0, 1)
        assert x.tolist() == [0.0] and w.tolist() == [2.0]

    @pytest.mark.parametrize("order", [5, 16, 30])
    def test_periodic_rule_trig_exactness(self, order):
        """The order-n periodic trapezoid rule integrates cos(k t) and
        sin(k t) over [0, 2 pi) exactly for k < n, and misses cos(n t)."""
        t, w = periodic_rule(order)
        assert t[0] == 0.0 and t[-1] < 2.0 * math.pi
        for k in range(order):
            assert float(w @ np.cos(k * t)) == pytest.approx(
                2.0 * math.pi if k == 0 else 0.0, abs=1e-12)
            assert abs(float(w @ np.sin(k * t))) < 1e-12
        assert float(w @ np.cos(order * t)) == pytest.approx(2.0 * math.pi, rel=1e-12)

    @staticmethod
    def _exp_cos(a):
        """The sums and change functions of the nested rule on exp(a_i cos
        t), one item per entry of a, and the integrals 2 pi I_0(a_i)."""
        a = np.asarray(a, dtype=float)

        def sums(angles, live):
            return np.exp(a[live, None, None] * np.cos(angles)).sum(-1)

        def change(t, half):
            return np.abs(t - half) / np.abs(t)

        exact = 2.0 * math.pi * sum((a / 2.0) ** (2 * k) / math.factorial(k) ** 2
                                    for k in range(30))
        return sums, change, exact

    @pytest.mark.parametrize("cap, nodes, converged", [
        (1, 2, False), (5, 4, False), (25, 24, True), (26, 26, True), (33, 32, True),
        (64, 32, True), (65, 32, True)])
    def test_nested_rule_estimates_at_every_cap(self, cap, nodes, converged):
        """The nested rule starts at an even node count, so every cap, odd
        ones too, gets an estimate |T_n - T_{n/2}|: on exp(cos t) it
        converges at 24 to 32 nodes under caps 25 to 65, to 2 pi I_0(1)
        within 1e-15, and stops unconverged at the largest even count at
        most a smaller cap (4 at cap 5; at cap 1 the 2-node rule, the least
        with an estimate)."""
        sums, change, exact = self._exp_cos([1.0])
        t, n, ok = nested_periodic_rule(sums, cap, change)
        assert n.tolist() == [nodes] and ok.tolist() == [converged]
        if converged:
            assert abs(t[0] - exact[0]) <= 1e-15 * exact[0]

    def test_nested_rule_sizes_each_item_alone(self):
        """Each item doubles on its own estimate: exp(cos t) takes 32 nodes
        at cap 64, exp(0.1 cos t) stops at 16 and exp(10 cos t) at 64, and
        each item's T has the bits of the rule run on that item alone."""
        sums, change, exact = self._exp_cos([1.0, 0.1, 10.0])
        t, n, ok = nested_periodic_rule(sums, 64, change, items=3)
        assert n.tolist() == [32, 16, 64] and ok.all()
        assert np.all(np.abs(t - exact) <= 1e-15 * exact)
        for i, a in enumerate([1.0, 0.1, 10.0]):
            alone, _, _ = nested_periodic_rule(self._exp_cos([a])[0], 64, change)
            assert alone[0] == t[i]

    def test_extrapolation_quadratic(self):
        xs = [0.2, 0.1, 0.05]
        ys = [5.0 + 3.0 * x - 7.0 * x * x for x in xs]
        assert extrapolate_to_zero(xs, ys) == pytest.approx(5.0, abs=1e-12)


class TestExteriorDerivative:
    def test_coordinate_one_form(self):
        """d(x1 dx2) = dx1 ^ dx2."""
        f = FormField(3, 1, lambda p: PointwiseForm({(1,): p.coords[0]}))
        pts = ChartPoints.of("c", [0.3, 1.0], [0.4, -2.0], [0.1, 0.2])
        w = exterior_derivative(f)(pts)
        assert np.allclose(w.get((0, 1)), 1.0, atol=1e-10)
        assert float(np.max(np.abs(np.asarray(w.get((0, 2), 0.0))))) < 1e-10

    def test_d_squared_zero(self):
        def fn(p):
            x1, x2, th = p.coords
            return PointwiseForm({(): np.sin(x1) * np.cos(th) + x2 ** 3})

        f = FormField(3, 0, fn)
        pts = ChartPoints.of("c", [0.5, -0.2], [0.3, 0.9], [1.2, 2.0])
        ddf = exterior_derivative(exterior_derivative(f))(pts)
        assert ddf.max_abs() < 1e-7

    def test_sign_bookkeeping_two_form(self):
        """d(x3 dx1^dx2) = dx3 ^ dx1 ^ dx2 = + dx1 ^ dx2 ^ dx3 ... with the
        insertion sign (-1)^2 from moving dx3 past two factors."""
        f = FormField(3, 2, lambda p: PointwiseForm({(0, 1): p.coords[2]}))
        pts = ChartPoints.of("c", [0.1], [0.2], [0.3])
        w = exterior_derivative(f)(pts)
        assert np.allclose(w.get((0, 1, 2)), 1.0, atol=1e-10)


class TestCentralPartials:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_quartic_payload_exact(self, dim):
        """Richardson central differences are exact on quartics, so only
        rounding is left.  x2 = 0 on the batch, so the "sparse" entry is
        zero, and left out, everywhere but along axis 1."""
        rng = np.random.default_rng(11)
        x = [rng.uniform(-1.0, 1.0, 6) for _ in range(dim)]
        x[1] = np.zeros(6)
        pts = ChartPoints.of("c", *x)

        def payload(q):
            y, z = q.coords[0], q.coords[-1]
            out = {"p": y ** 4 - 2.0 * y * y * z + 3.0 * z ** 3 + q.coords[1]}
            sparse = q.coords[1] * (1.0 + y ** 3)
            if np.any(sparse != 0.0):
                out["sparse"] = sparse
            return out

        y, z = x[0], x[-1]
        want_p = [4.0 * y ** 3 - 4.0 * y * z] + [np.ones(6)] * (dim - 2) + [
            -2.0 * y * y + 9.0 * z * z + (1.0 if dim == 2 else 0.0)]
        want_sparse = [np.zeros(6), 1.0 + y ** 3] + [np.zeros(6)] * (dim - 2)
        partials = central_partials(payload, pts)
        assert len(partials) == dim
        assert "sparse" in partials[1] and "sparse" not in partials[0]
        for axis in range(dim):
            assert np.allclose(partials[axis]["p"], want_p[axis], rtol=0.0, atol=1e-9)
            got = partials[axis].get("sparse", 0.0)
            assert np.allclose(got, want_sparse[axis], rtol=0.0, atol=1e-9)

    def test_one_stacked_payload_call_per_axis(self):
        """The payload runs pts.dim times, each time on one batch whose
        coordinates carry a leading axis of the four displacements."""
        pts = ChartPoints.of("c", [0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9])
        shapes = []

        def payload(q):
            shapes.append([np.shape(c) for c in q.coords])
            return {"s": q.coords[0] * q.coords[2], "zero": 0.0}

        partials = central_partials(payload, pts)
        assert shapes == [[(4, 3)] * 3] * pts.dim
        for axis in range(pts.dim):
            assert np.array_equal(partials[axis]["zero"], np.zeros(3))


class TestComplexStepPartials:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_analytic_payload_exact(self, dim):
        """On an analytic payload the partials equal the closed-form
        derivatives to rounding, a constant entry differentiates to 0 at
        the batch shape and keeps its value, and the payload runs once, on
        one batch stacking every chart axis.  The values are the payload's
        stacked first slice with a zero imaginary step, bit for bit: the
        O(h^2) term vanishes.  Complex y ** 3 rounds differently from real
        pow, so against the real payload they agree to 2 ulp of the terms'
        size (the most seen over seeds 0-299)."""
        rng = np.random.default_rng(12)
        x = [rng.uniform(-1.0, 1.0, 6) for _ in range(dim)]
        pts = ChartPoints.of("c", *x)
        shapes = []

        def payload(q):
            shapes.append([np.shape(c) for c in q.coords])
            y, z = q.coords[0], q.coords[-1]
            return {"p": np.sin(y) * np.exp(z) + y ** 3 / z, "const": 2.0}

        y, z = x[0], x[-1]
        want = [np.cos(y) * np.exp(z) + 3.0 * y * y / z] + [np.zeros(6)] * (dim - 2) + [
            np.sin(y) * np.exp(z) - y ** 3 / (z * z)]
        values, partials = complex_step_partials(payload, pts)
        assert shapes == [[(dim, 6)] * dim] and len(partials) == dim
        first = payload(zero_step_stack(pts, np.eye(dim).tolist()))["p"][0]
        assert np.array_equal(values["p"], np.real(first))
        assert values["const"] == 2.0 and type(values["const"]) is float
        scale = np.abs(np.sin(y) * np.exp(z)) + np.abs(y ** 3 / z)
        assert np.all(np.abs(values["p"] - payload(pts)["p"]) <= 2.0 * np.spacing(scale))
        for axis in range(dim):
            scale = np.maximum(1.0, np.abs(want[axis]))
            assert np.max(np.abs(partials[axis]["p"] - want[axis]) / scale) < 4e-16
            assert np.array_equal(partials[axis]["const"], np.zeros(6))

    def test_directions(self):
        """Along rows of per-point weights each partial is the directional
        derivative sum_j w_j d_j f to 1e-15 of the size of its terms (5.0e-16
        is the most seen over seeds 0-299), from one pass over both rows
        stacked, in which every axis that some row sweeps is complex."""
        rng = np.random.default_rng(13)
        x, y, z = (rng.uniform(0.5, 1.5, 6) for _ in range(3))
        t1, t2 = rng.uniform(-2.0, 2.0, (2, 6))
        real_axes = []

        def payload(q):
            real_axes.append([np.isrealobj(c) for c in q.coords])
            u, v, w = q.coords
            return {"p": np.sin(u) * np.exp(w) + u ** 3 / w + v * w}

        grad = [np.cos(x) * np.exp(z) + 3.0 * x * x / z, z,
                np.sin(x) * np.exp(z) - x ** 3 / (z * z) + y]
        size = [np.abs(np.cos(x) * np.exp(z)) + np.abs(3.0 * x * x / z), z,
                np.abs(np.sin(x) * np.exp(z)) + np.abs(x ** 3 / (z * z)) + y]
        values, partials = complex_step_partials(
            payload, ChartPoints.of("c", x, y, z), ((1.0, 0.0, t1), (0.0, 1.0, t2)))
        assert real_axes == [[False, False, False]]
        assert np.max(np.abs(values["p"] - payload(ChartPoints.of("c", x, y, z))["p"])) < 1e-15
        for k, t in enumerate((t1, t2)):
            want = grad[k] + t * grad[2]
            scale = size[k] + np.abs(t) * size[2]
            assert np.all(np.abs(partials[k]["p"] - want) <= 1e-15 * scale), k

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_one_pass_matches_one_row_sweeps(self, count):
        """1, 2 or 3 rows run the payload once, and each row's partials
        agree with a one-row sweep along that row to rounding (bit for bit
        over seeds 0-99, the payload being elementwise); an axis that
        every row leaves at the float 0.0 stays real, and a constant entry
        keeps its value."""
        rng = np.random.default_rng(14)
        x, y, z = (rng.uniform(0.5, 1.5, 7) for _ in range(3))
        weights = rng.uniform(-2.0, 2.0, (3, 7))
        rows = [(1.0, 0.0, weights[0]), (weights[1], 0.0, 0.5), (0.0, 0.0, weights[2])][:count]
        pts = ChartPoints.of("c", x, y, z)
        real_axes = []

        def payload(q):
            real_axes.append([np.isrealobj(c) for c in q.coords])
            u, v, w = q.coords
            return {"p": np.exp(u * w) / (1.0 + u * u) + v * np.cos(w), "const": 2.0}

        values, partials = complex_step_partials(payload, pts, rows)
        assert real_axes == [[False, True, False]]
        assert len(partials) == count
        assert values["const"] == 2.0
        size = np.abs(np.exp(x * z)) * (1.0 + np.abs(x) + np.abs(z)) + np.abs(y)
        for row, got in zip(rows, partials):
            (want,) = complex_step_partials(payload, pts, [row])[1]
            assert np.all(np.abs(got["p"] - want["p"]) <= 1e-15 * size)
            assert np.array_equal(got["const"], np.zeros(7))
        assert len(real_axes) == 1 + count

    def test_float_cast_raises(self):
        """A payload that casts the shifted coordinates to float would drop
        the imaginary part and return a silent zero derivative; it raises
        instead, for one row and for a stacked sweep of two."""
        pts = ChartPoints.of("c", [0.1, 0.2], [0.3, 0.4])

        def payload(q):
            return {"s": np.asarray(q.coords[0], dtype=float) ** 2}

        for rows in ([(1.0, 0.0)], None):
            with pytest.raises(np.exceptions.ComplexWarning):
                complex_step_partials(payload, pts, rows)


class TestPullback:
    class Section:
        """theta(x) = a x1 + b x2 with exact gradient."""

        def __init__(self, a=0.7, b=-1.3):
            self.a, self.b = a, b

        def theta(self, chart, x1, x2):
            return self.a * x1 + self.b * x2

        def theta_grad(self, chart, x1, x2):
            return (self.a + 0.0 * x1, self.b + 0.0 * x1)

    def test_constant_section_kills_dtheta(self):
        f = FormField(3, 1, lambda p: PointwiseForm({(2,): 1.0 + 0.0 * p.coords[0]}))
        s = self.Section(0.0, 0.0)
        w = pullback_by_section(f, s)(ChartPoints.of("c", [0.1, 0.5], [0.2, 0.6]))
        assert w.max_abs() < 1e-15

    def test_base_form_unchanged(self):
        f = FormField(3, 2, lambda p: PointwiseForm({(0, 1): 1.0 + 0.0 * p.coords[0]}))
        w = pullback_by_section(f, self.Section())(ChartPoints.of("c", [0.3], [0.4]))
        assert np.allclose(w.get((0, 1)), 1.0)

    def test_substitution_rule(self):
        """Pullback of c(theta) dx1 ^ dtheta: dtheta -> t1 dx1 + t2 dx2."""
        s = self.Section(0.7, -1.3)

        def fn(p):
            return PointwiseForm({(0, 2): p.coords[2] ** 2})

        f = FormField(3, 2, fn)
        pts = ChartPoints.of("c", [0.5], [0.25])
        w = pullback_by_section(f, s)(pts)
        th = 0.7 * 0.5 - 1.3 * 0.25
        assert np.allclose(w.get((0, 1)), th ** 2 * (-1.3))

    def test_leibniz_vs_polynomial_oracle(self):
        """[X]*(f w) = ([X]*f)([X]*w) and linearity, on polynomial data."""
        rng = np.random.default_rng(70)
        s = self.Section(0.4, 0.9)
        for _ in range(20):
            a, b, c = rng.uniform(-1, 1, 3)

            def scalar(p):
                x1, x2, th = p.coords
                return a * x1 + b * th

            def one_form(p):
                x1, x2, th = p.coords
                return PointwiseForm({(0,): c * th, (2,): x2 + 0.0 * x1})

            fw = FormField(3, 1, lambda p: scalar(p) * one_form(p))
            pts = ChartPoints.of("c", rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
            lhs = pullback_by_section(fw, s)(pts)
            w = pullback_by_section(FormField(3, 1, one_form), s)(pts)
            x1, x2 = pts.coords
            th = s.theta("c", x1, x2)
            rhs = (a * x1 + b * th) * w
            assert (lhs - rhs).max_abs() < 1e-12


class TestBaseIntegral:
    def test_stokes_no_excision(self):
        """The integral of an exact form over the full closed torus box
        vanishes (periodic seams cancel)."""

        def one_form(p):
            x1, x2 = p.coords
            return PointwiseForm({(0,): np.sin(x1) * np.cos(x2), (1,): np.cos(2 * x2)})

        # d of the 1-form, computed exactly
        def two_form(p):
            x1, x2 = p.coords
            return PointwiseForm({(0, 1): 0.0 * x1 + np.sin(x1) * np.sin(x2)})

        box = BoxRegion("torus", (0, 2 * math.pi), (0, 2 * math.pi))
        (total,) = base_integral_excised(FormField(2, 2, two_form), box, order=24)
        assert abs(total) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stokes_with_excisions(self, sphere, seed):
        """Orientation convention: the integral of an exact global 2-form
        over the excised sphere, each unit disc less its disc r <= eps,
        plus the counterclockwise boundary circle integrals vanishes
        (interior chart seams cancel), for random smooth global 1-forms
        built from the embedding scalars."""
        from finslergbc.ad import Dual, partial, value

        rng = np.random.default_rng(seed)
        c = rng.standard_normal(6)

        def omega(chart):
            def fn(p):
                x1, x2 = p.coords
                coeffs = {}
                for axis in range(2):
                    a1 = Dual(x1, 1.0 if axis == 0 else 0.0)
                    a2 = Dual(x2, 1.0 if axis == 1 else 0.0)
                    X, Y, Z = sphere.global_scalars(chart, a1, a2)
                    # (c0 Y + c1 Z^2) dX + (c2 X Z) dY + (c3 + c4 X Y) dZ
                    w = (
                        (c[0] * value(Y) + c[1] * value(Z) ** 2) * value(partial(X))
                        + (c[2] * value(X) * value(Z)) * value(partial(Y))
                        + (c[3] + c[4] * value(X) * value(Y)) * value(partial(Z))
                    )
                    coeffs[(axis,)] = w
                return PointwiseForm(coeffs)

            return fn

        f1 = FormField(2, 1, lambda p: omega(p.chart)(p))
        f2 = exterior_derivative(f1)
        eps = 0.25
        discs = [base_integral_excised(f2, AnnulusRegion(chart, 1.0), order=48, radii=(eps,))
                 for chart in ("south", "north")]
        total = sum(whole - inner for whole, inner in discs)
        circles = sum(
            boundary_circle_integral(f1, chart, (0.0, 0.0), eps, order=64)
            for chart in ("south", "north")
        )
        assert total + circles == pytest.approx(0.0, abs=1e-5)

    def test_annulus_area(self):
        """The annulus 0.3 <= r <= 1 as the unit disc less its sub-disc."""
        f = FormField(2, 2, lambda p: PointwiseForm({(0, 1): 1.0 + 0.0 * p.coords[0]}))
        whole, inner = base_integral_excised(f, AnnulusRegion("c", 1.0), order=24, radii=(0.3,))
        assert whole - inner == pytest.approx(math.pi * (1.0 - 0.09), rel=1e-12)

    @pytest.mark.parametrize("region", [
        BoxRegion("torus", (0.0, 2 * math.pi), (0.0, 2 * math.pi)),
        AnnulusRegion("c", 1.0),
    ], ids=["box", "disc"])
    def test_passes_hold_one_block(self, region, monkeypatch):
        """With the block made small, no evaluation of the integrand holds
        more than one block of points: a phi pass runs in blocks of whole
        radial rows, a box in blocks of points.  An integrand elementwise in
        real arithmetic keeps its bits and its phi node count (|x1| runs
        the phi rule through every doubling to its cap)."""
        import finslergbc.quadrature as quadrature

        sizes = []

        def coefficient(p):
            sizes.append(p.size)
            x1, x2 = p.coords
            return PointwiseForm({(0, 1): np.abs(x1) + np.exp(x2)})

        f = FormField(2, 2, coefficient)
        whole_rules, blocked_rules = {}, {}
        whole = base_integral_excised(f, region, order=48, rules=whole_rules)
        passes = len(sizes)
        sizes.clear()
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", 100)
        blocked = base_integral_excised(f, region, order=48, rules=blocked_rules)
        assert blocked == whole and blocked_rules == whole_rules
        assert len(sizes) > passes and max(sizes) <= 100


def _panel_annulus_integral(f, chart, r_inner, order):
    """The outer annulus r_inner <= r <= 1 by the composite rule that
    integrated it before the unit discs did: Gauss-Legendre panels in r
    split at 2 r_inner, 4 r_inner, ... below 0.75, times max(8, order)
    Gauss-Legendre nodes in phi."""
    breaks, r = [], 2.0 * r_inner
    while r < 0.75:
        breaks.append(r)
        r *= 2.0
    per_panel = max(10, int(round(order / (len(breaks) + 1))))
    edges = [r_inner] + breaks + [1.0]
    rules = [gauss_legendre(lo, hi, per_panel) for lo, hi in zip(edges, edges[1:])]
    r = np.concatenate([x for x, _ in rules])
    wr = np.concatenate([w for _, w in rules])
    phi, wphi = gauss_legendre(0.0, 2.0 * math.pi, max(8, order))
    R, PHI = np.meshgrid(r, phi, indexing="ij")
    c = f(ChartPoints(chart, ((R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel()))).get((0, 1))
    return float(np.sum(np.outer(wr * r, wphi).ravel() * c))


def _disc_integrals(f, chart, radii, n_r, n_phi):
    """The discs r <= R, one per radius, each by its own Gauss-Legendre
    panel of n_r nodes on [0, R] times n_phi periodic nodes in phi."""
    phi, wphi = periodic_rule(n_phi)
    out = []
    for radius in radii:
        r, wr = gauss_legendre(0.0, radius, n_r)
        R, PHI = np.meshgrid(r, phi, indexing="ij")
        c = f(ChartPoints(chart, ((R * np.cos(PHI)).ravel(), (R * np.sin(PHI)).ravel())))
        out.append(float(np.sum(np.outer(wr * r, wphi).ravel() * c.get((0, 1)))))
    return out


class TestDiscRule:
    @pytest.mark.parametrize("order", [48, 96, 192])
    @pytest.mark.parametrize("radius", [0.05, 0.2, 1.0])
    def test_exact_on_one_over_r(self, order, radius):
        """The weight r cancels a 1/r singularity at the centre of a full
        AnnulusRegion disc: int dx1^dx2 / r = 2 pi R and int x1^2 / r
        dx1^dx2 = pi R^3 / 3, on the rules with n_r = 32, 64 and 128."""

        def integral(coeff):
            f = FormField(2, 2, lambda p: PointwiseForm({(0, 1): coeff(*p.coords)}))
            return base_integral_excised(f, AnnulusRegion("c", radius), order=order)[0]

        inv_r = integral(lambda x1, x2: 1.0 / np.hypot(x1, x2))
        assert inv_r == pytest.approx(2.0 * math.pi * radius, rel=1e-14)
        x1_sq = integral(lambda x1, x2: x1 * x1 / np.hypot(x1, x2))
        assert x1_sq == pytest.approx(math.pi * radius ** 3 / 3.0, rel=1e-14)

    def test_one_batch_per_chart(self, monkeypatch):
        """A disc and its sub-discs go through the form as one batch, built
        without ChartPoints.of, and the values come back as [I(R),
        I(radii[0]), ...]: n = 2 max(16, order // 3) radii times the 12
        angles at which the nested phi rule converges on a constant."""
        batches = []

        def f(p):
            batches.append((p.chart, p.size))
            return PointwiseForm({(0, 1): 1.0 + 0.0 * p.coords[0]})

        monkeypatch.setattr(ChartPoints, "of", None)
        for chart, radius, radii in (("a", 0.2, (0.1, 0.05)), ("b", 1.0, (0.6, 0.3, 0.0))):
            batches.clear()
            areas = base_integral_excised(FormField(2, 2, f), AnnulusRegion(chart, radius),
                                          order=48, radii=radii)
            assert batches == [(chart, 32 * 12)]
            assert areas == pytest.approx([math.pi * r * r for r in (radius, *radii)],
                                          rel=1e-14)
        for order, n in ((6, 32), (96, 64)):
            batches.clear()
            base_integral_excised(FormField(2, 2, f), AnnulusRegion("c", 0.2), order=order)
            assert batches == [("c", n * 12)]

    def test_rejects_radii_off_the_disc(self):
        """Sub-disc radii must lie in [0, R], and a box takes none."""
        f = FormField(2, 2, lambda p: PointwiseForm({(0, 1): 1.0 + 0.0 * p.coords[0]}))
        for radii in ((0.3,), (0.1, -0.05)):
            with pytest.raises(ValueError, match="leave the disc"):
                base_integral_excised(f, AnnulusRegion("c", 0.2), radii=radii)
        with pytest.raises(ValueError, match="need a disc"):
            base_integral_excised(f, BoxRegion("c", (0.0, 1.0), (0.0, 1.0)), radii=(0.1,))

    @pytest.mark.parametrize("order", [6, 96])
    def test_sub_disc_weights_are_exact(self, order):
        """The weights of a sub-disc r <= b integrate every r^k, k < n,
        exactly from the radial nodes of the whole disc: b^(k+1) / (k + 1)
        from r^(k-1) at the nodes, down to b = 1e-6, and the difference of
        two rows does the same on the annulus a <= r <= b ((k + 1) times
        the error reads at most 5.3e-17 on the discs up to 1e-3 and the
        annulus 1e-6 <= r <= 1e-3); the row of the whole disc is r times
        the Gauss weight to the bit."""
        disc = AnnulusRegion("c", 1.0)
        r, wr = disc.radii(order)
        radii = [1e-6, 1e-5, 1e-4, 1e-3, 0.05, 0.2, 0.5, 1.0]
        rows = disc.weights(order, radii)
        assert np.array_equal(rows[-1], wr * r)
        parts = [(0.0, b) for b in radii] + [(1e-6, 1e-3), (0.05, 0.2)]
        rows = np.vstack([rows, rows[3] - rows[0], rows[5] - rows[4]])
        n = 2 * max(16, order // 3)
        assert len(r) == n
        for k in range(n):
            got = rows @ r ** (k - 1)
            want = [(b ** (k + 1) - a ** (k + 1)) / (k + 1) for a, b in parts]
            assert np.abs(got - want).max() <= 1e-13 / (k + 1), k

    def test_rejects_non_base_two_form(self):
        with pytest.raises(ValueError):
            base_integral_excised(FormField(2, 1, lambda p: PointwiseForm()),
                                  AnnulusRegion("c", 0.1))

    @pytest.mark.parametrize("order", [16, 48])
    def test_gbc_per_eps_matches_annulus_construction(self, order):
        """On the Randers integrand with a perturbed connection, the per-eps
        values vol(S^1) sum of I(1) - I(eps) over the unit discs equal the
        construction they replace: the outer annulus eps_0 <= r <= 1 by
        Gauss-Legendre panels plus, per zero, disc(eps_0) - disc(eps)."""
        from finslergbc.cli import (
            VOL_S1, ExperimentConfig, _build_atlas, _build_connections, _build_field,
            _metric_params, run_gbc,
        )
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.manifolds import install_metric

        cfg = ExperimentConfig(metric="randers", metric_eps=0.1, connection="perturbed",
                               perturbation_amplitude=0.2, order_base=order, order_fiber=16,
                               epsilon_schedule=(0.2, 0.1, 0.05))
        report = run_gbc(cfg)
        atlas = _build_atlas(cfg)
        metric = install_metric(atlas, cfg.metric, _metric_params(cfg))
        fcD, fcN, _, _ = _build_connections(cfg, atlas, metric)
        forms = TransgressionForms(metric, fcD, fcN, order_fiber=cfg.order_fiber)
        f = forms.gbc_integrand(_build_field(cfg, atlas))
        schedule = [eps for eps, _ in report.convergence]
        outer = sum(_panel_annulus_integral(f, chart, schedule[0], order)
                    for chart in atlas.chart_ids)
        # the discs r <= eps by the polar rule with n_r = max(8, order // 3)
        # radial nodes that integrated them beside the outer annulus
        n_r = max(8, order // 3)
        discs = [_disc_integrals(f, chart, schedule, n_r, 2 * n_r) for chart in atlas.chart_ids]
        for k, (eps, value) in enumerate(report.convergence):
            want = VOL_S1 * (outer + sum(d[0] - d[k] for d in discs))
            assert abs(value - want) <= 1e-12, eps

    def test_gbc_per_eps_matches_gauss_on_each_disc(self):
        """On the strongest Randers metric with a perturbed connection and
        the degree-2 stereographic field, the per-eps values read off the
        unit discs' samples equal vol(S^1) times the sum of D(1) over the
        charts less D(eps) in each chart that holds a zero, D(R) the disc
        r <= R by its own 64-node Gauss-Legendre panel in r times a 128-node
        phi rule, past the 96 nodes where the nested phi rule stops.  (A fixed
        32-node phi rule left D(0.5) 3e-12 off in the chart with the zero
        and each unit disc 3.4e-7 off: on this metric the phi rule, not the
        radial one, sets the per-eps error.)"""
        from finslergbc.cli import (
            VOL_S1, ExperimentConfig, _build_atlas, _build_connections, _build_field,
            _metric_params, run_gbc,
        )
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.manifolds import install_metric
        from finslergbc.topology import find_zeros

        cfg = ExperimentConfig(metric="randers", metric_eps=0.9, connection="perturbed",
                               vector_field="stereographic_power", order_base=48,
                               order_fiber=64, epsilon_schedule=(0.5, 0.2, 0.05, 0.01))
        report = run_gbc(cfg)
        atlas = _build_atlas(cfg)
        metric = install_metric(atlas, cfg.metric, _metric_params(cfg))
        fcD, fcN, _, _ = _build_connections(cfg, atlas, metric)
        X = _build_field(cfg, atlas)
        f = TransgressionForms(metric, fcD, fcN, order_fiber=cfg.order_fiber).gbc_integrand(X)
        held = {rec.chart for rec in find_zeros(X)}
        schedule = [eps for eps, _ in report.convergence]
        discs = {chart: _disc_integrals(f, chart, [1.0] + schedule, 64, 128) for chart in held}
        whole = sum(_disc_integrals(f, chart, [1.0], 64, 128)[0]
                    for chart in atlas.chart_ids if chart not in held)
        for k, (eps, value) in enumerate(report.convergence):
            want = VOL_S1 * (whole + sum(d[0] - d[k + 1] for d in discs.values()))
            assert abs(value - want) <= 1e-13, eps

    def test_strong_randers_phi_rule_converges_per_chart(self):
        """On Randers 0.9 / perturbed / stereographic_power at the default
        orders the per-eps values lie within 1e-13 of the 128 x 128-node
        reference (fixed 128-node phi and fiber rules on the same 32 radial
        nodes), and each chart's unit-disc integral I(1) within 1e-12 of it:
        both charts read 1/(2 pi) there to 3e-17.  The nested phi rule
        takes 96 nodes and the fiber rule 128, both converged.  The fixed
        32-node phi rule missed the per-eps values by 1.9e-11 and each I(1)
        by 3.4e-7, with opposite signs in the two charts."""
        from finslergbc.cli import (
            ExperimentConfig, _build_atlas, _build_connections, _build_field, _metric_params,
            run_gbc,
        )
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.manifolds import install_metric
        from finslergbc.topology import find_zeros

        reference = [1.2236272128584107, 1.8084810875386517, 1.986974757119953,
                     1.9994761200568756]
        cfg = ExperimentConfig(metric="randers", metric_eps=0.9, connection="perturbed",
                               vector_field="stereographic_power",
                               epsilon_schedule=(0.5, 0.2, 0.05, 0.01))
        report = run_gbc(cfg)
        for (eps, value), want in zip(report.convergence, reference):
            assert abs(value - want) <= 1e-13, eps
        atlas = _build_atlas(cfg)
        metric = install_metric(atlas, cfg.metric, _metric_params(cfg))
        fcD, fcN, _, _ = _build_connections(cfg, atlas, metric)
        X = _build_field(cfg, atlas)
        f = TransgressionForms(metric, fcD, fcN, order_fiber=cfg.order_fiber).gbc_integrand(X)
        held = {rec.chart for rec in find_zeros(X)}
        schedule = [e for e, _ in report.convergence]
        for chart in atlas.chart_ids:
            whole = base_integral_excised(f, AnnulusRegion(chart, 1.0), order=cfg.order_base,
                                          radii=schedule if chart in held else ())[0]
            assert abs(whole - 0.15915494309189535) <= 1e-12, chart
        assert report.metadata["phi_nodes"] == "south=96,north=96"
        assert report.metadata["fiber_nodes"] == "south=128,north=128"

    def test_phi_rule_reports_its_size(self):
        """base_integral_excised records per chart the phi node count and
        whether the nested rule converged: a trigonometric polynomial stops
        at the first pass of 12 nodes, exact; |x1| = r |cos phi|, whose phi
        modes decay like 1/k^2, runs to the cap of 192 nodes and reports
        that it did not converge, with the integral 4/3 still within 1e-3."""
        smooth = FormField(2, 2, lambda p: PointwiseForm({(0, 1): 1.0 + p.coords[0] ** 2}))
        kink = FormField(2, 2, lambda p: PointwiseForm({(0, 1): np.abs(p.coords[0])}))
        disc = AnnulusRegion("c", 1.0)
        rules = {}
        (area,) = base_integral_excised(smooth, disc, order=48, rules=rules)
        assert area == pytest.approx(1.25 * math.pi, rel=1e-14)
        assert rules == {"c": (12, True)}
        (total,) = base_integral_excised(kink, disc, order=48, rules=rules)
        assert abs(total - 4.0 / 3.0) < 1e-3
        assert rules == {"c": (AnnulusRegion.phi_cap(48), False)}
        assert AnnulusRegion.phi_cap(48) == 192


class TestBoundaryCircle:
    def test_winding_form(self):
        """The angular form d phi / (2 pi) integrates to 1 counterclockwise."""

        def fn(p):
            x1, x2 = p.coords
            r2 = x1 ** 2 + x2 ** 2
            return PointwiseForm({(0,): -x2 / (2 * math.pi * r2), (1,): x1 / (2 * math.pi * r2)})

        f = FormField(2, 1, fn)
        assert boundary_circle_integral(f, "c", (0.0, 0.0), 0.4) == pytest.approx(1.0, abs=1e-12)

    def test_exact_form_zero(self):
        def fn(p):
            x1, x2 = p.coords
            return PointwiseForm({(0,): 2 * x1 * x2, (1,): x1 ** 2})  # d(x1^2 x2)

        f = FormField(2, 1, fn)
        assert abs(boundary_circle_integral(f, "c", (0.1, -0.2), 0.3)) < 1e-14


    @pytest.mark.parametrize("order", [16, 20])
    def test_trig_exactness(self, order):
        """On the circle of radius r about c, the form ((x1 - c1)/r)^m dx2
        pulls back to r cos(phi)^(m+1) d phi.  The periodic rule with n
        nodes integrates it exactly for m + 1 < n and aliases cos(n phi)
        onto the constant at m + 1 = n."""
        c, r = (0.3, -0.1), 0.7
        for m in range(order):
            f = FormField(2, 1, lambda p, m=m: PointwiseForm(
                {(1,): ((p.coords[0] - c[0]) / r) ** m}))
            got = boundary_circle_integral(f, "c", c, r, order=order)
            n = m + 1
            want = r * 2.0 * math.pi * (math.comb(n, n // 2) / 2.0 ** n if n % 2 == 0 else 0.0)
            if n == order:
                want += r * 4.0 * math.pi / 2.0 ** n
            assert abs(got - want) < 1e-14, m


class TestFiberIntegral:
    @pytest.mark.parametrize("order", [16, 24])
    def test_trig_exactness(self, order):
        """The fiber rule with n nodes integrates cos(k theta) and
        sin(k theta) d theta exactly for 0 < k < n, and aliases cos(n theta)
        onto the constant."""
        for k in range(1, order + 1):
            for trig in (np.cos, np.sin):
                f = FormField(3, 1, lambda p: PointwiseForm({(2,): trig(k * p.coords[2])}))
                want = 2.0 * math.pi if (k == order and trig is np.cos) else 0.0
                assert abs(fiber_integral(f, "c", (0.2, 0.4), order=order) - want) < 1e-13

    def test_volume_recovery(self, randers_metric, cartan_frame_randers):
        """int_fiber d nu = V(x), via the frame form's theta coefficient."""
        from finslergbc.metric import fiber_volume

        fc = cartan_frame_randers

        def fn(p):
            pi = fc.pi(p)
            return PointwiseForm({(2,): pi[2], (0,): pi[0], (1,): pi[1]})

        f = FormField(3, 1, fn)
        x = (0.25, -0.4)
        got = fiber_integral(f, "south", x, order=64)
        assert got == pytest.approx(fiber_volume(randers_metric, x, "south"), abs=1e-9)

    def test_upsilon1_over_v_gives_minus_one_over_2pi(self, randers_metric,
                                                      cartan_frame_randers):
        """int_fiber Upsilon_1 / V = (-1)^{n-1} / vol(S^1) = -1/(2 pi)."""
        from finslergbc.identities import IdentityForms
        from finslergbc.metric import fiber_volume

        forms = IdentityForms(randers_metric, cartan_frame_randers, cartan_frame_randers)
        x = (0.3, 0.2)
        V = fiber_volume(randers_metric, x, "south")
        got = fiber_integral(forms.upsilon1(), "south", x, order=64) / V
        assert got == pytest.approx(-1.0 / (2 * math.pi), abs=1e-9)

    def test_phi0_over_factorial_gives_volume(self, randers_metric, cartan_frame_randers):
        from finslergbc.identities import IdentityForms
        from finslergbc.metric import fiber_volume

        forms = IdentityForms(randers_metric, cartan_frame_randers, cartan_frame_randers)
        x = (-0.2, 0.5)
        got = fiber_integral(forms.phi(0), "south", x, order=64)
        assert got == pytest.approx(fiber_volume(randers_metric, x, "south"), abs=1e-9)


class TestConvergence:
    def test_doubling_order_stability(self, sphere, round_metric, cartan_frame_round):
        """Doubling the base order moves the reported integral by far less
        than a tenth of the acceptance tolerance.  Orders up to 50 share
        one 32-node radial rule, so the pair is 48 and 96, whose rules
        differ."""
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.topology import rotational_field

        forms = TransgressionForms(round_metric, cartan_frame_round, cartan_frame_round)
        X = rotational_field(sphere)
        f2 = pullback_by_section(forms.gbc_integrand(), X)
        assert len(AnnulusRegion("south", 1.0).radii(48)[0]) == 32
        assert len(AnnulusRegion("south", 1.0).radii(96)[0]) == 64

        def excised(order):
            """Each unit disc less its disc r <= 0.2."""
            return sum(whole - inner for whole, inner in (
                base_integral_excised(f2, AnnulusRegion(chart, 1.0), order=order, radii=(0.2,))
                for chart in ("south", "north")))

        i48, i96 = excised(48), excised(96)
        assert abs(i96 - i48) < 0.1 * 1e-2
