"""Vector fields, zero finding, winding numbers, Poincare-Hopf sums, and
the induced sphere-bundle section."""

import math

import numpy as np
import pytest

from finslergbc.ad import Dual, partial, value
from finslergbc.errors import DomainError, SamplingError, TopologyError, ValidationError
from finslergbc.topology import (
    SectionField,
    ZeroRecord,
    _median,
    _newton_zeros,
    check_euler_characteristic,
    constant_field,
    custom_field,
    find_zeros,
    height_gradient_field,
    local_degree,
    local_field,
    poincare_hopf_sum,
    rotational_field,
    stereographic_power_field,
)


class TestFieldZoo:
    def test_rotational_zeros_at_poles(self, sphere):
        X = rotational_field(sphere)
        zeros = find_zeros(X)
        assert len(zeros) == 2
        charts = sorted(z.chart for z in zeros)
        assert charts == ["north", "south"]
        for z in zeros:
            assert math.hypot(*z.location) < 1e-10
            assert z.degree == 1

    def test_constant_field_no_zeros(self, torus):
        assert find_zeros(constant_field(torus)) == []

    def test_local_quadratic_zero(self, sphere):
        X = local_field(sphere, "south", "deg_plus2")
        zeros = find_zeros(X)
        assert len(zeros) == 1
        assert zeros[0].degree == 2

    @pytest.mark.parametrize("field_fn", [rotational_field, height_gradient_field])
    def test_transition_consistency(self, sphere, field_fn):
        """X_north(T(a)) = J_T(a) X_south(a) on overlap samples."""
        X = field_fn(sphere)
        rng = np.random.default_rng(61)
        for _ in range(30):
            a = rng.uniform(-1.4, 1.4, 2)
            if not 0.4 < np.hypot(*a) < 1.4:
                continue
            b = sphere.transition("south", "north", a)
            J = sphere.transition_jacobian("south", "north", a)
            vs = np.array(X.value("south", a[0], a[1]), dtype=float)
            vn = np.array(X.value("north", b[0], b[1]), dtype=float)
            assert np.max(np.abs(vn - J @ vs)) < 1e-8

    @pytest.mark.parametrize("k,degrees", [(0, [2]), (1, [1, 1]), (2, [2])])
    def test_stereographic_power_degrees(self, sphere, k, degrees):
        zeros = find_zeros(stereographic_power_field(sphere, k))
        assert sorted(z.degree for z in zeros) == degrees

    def test_stereographic_power_validity(self, sphere):
        with pytest.raises(ValidationError):
            stereographic_power_field(sphere, 3)

    def test_custom_field(self, sphere):
        X = custom_field(sphere, {"south": ("u*u - v*v", "2*u*v")})
        v1, v2 = X.value("south", 0.3, 0.4)
        assert v1 == pytest.approx(0.3 ** 2 - 0.4 ** 2)
        assert v2 == pytest.approx(2 * 0.3 * 0.4)

    def test_custom_constant_components(self, torus):
        """Fully constant expressions collapse to scalars; the grid scan
        must still broadcast and report no zeros."""
        X = custom_field(torus, {"torus": ("1.0", "0.5")})
        assert find_zeros(X) == []


class TestLocalDegree:
    @pytest.mark.parametrize(
        "kind,want", [("deg_plus1", 1), ("deg_minus1", -1), ("deg_plus2", 2)]
    )
    def test_model_zeros(self, sphere, kind, want):
        X = local_field(sphere, "south", kind)
        rec = ZeroRecord("south", (0.0, 0.0))
        assert local_degree(X, rec, radius=0.2, samples=4096) == want

    def test_radius_refinement_invariance(self, sphere):
        X = rotational_field(sphere)
        rec = ZeroRecord("south", (0.0, 0.0))
        assert local_degree(X, rec, 0.2) == local_degree(X, rec, 0.1)

    def test_zero_on_circle_rejected(self, sphere):
        X = custom_field(sphere, {"south": ("u*u + v*v - 0.04", "0.0*u")})
        with pytest.raises((DomainError, SamplingError)):
            local_degree(X, ZeroRecord("south", (0.0, 0.0)), radius=0.2)

    def test_minimum_sampling_enforced(self, sphere):
        X = rotational_field(sphere)
        deg = local_degree(X, ZeroRecord("south", (0.0, 0.0)), 0.2, samples=10)
        assert deg == 1  # bumped to the 256 floor internally


class TestPoincareHopf:
    def test_sphere_scenarios(self, sphere):
        for X in (rotational_field(sphere), height_gradient_field(sphere),
                  stereographic_power_field(sphere, 2)):
            assert poincare_hopf_sum(find_zeros(X)) == 2

    def test_torus_constant(self, torus):
        assert poincare_hopf_sum(find_zeros(constant_field(torus))) == 0

    def test_unresolved_degree_raises(self):
        with pytest.raises(TopologyError):
            poincare_hopf_sum([ZeroRecord("south", (0.0, 0.0), degree=None)])

    def test_chi_mismatch_aborts(self, sphere):
        """A degree bookkeeping mismatch aborts the run."""
        recs = [ZeroRecord("south", (0.0, 0.0), degree=1)]
        with pytest.raises(TopologyError):
            check_euler_characteristic(recs, sphere)


class TestInducedSection:
    def test_angles(self, sphere):
        X = custom_field(sphere, {"south": ("1.0 + 0.0*u", "0.0*u")})
        assert X.theta("south", 0.3, 0.4) == pytest.approx(0.0)
        Y = custom_field(sphere, {"south": ("0.0*u", "3.0 + 0.0*u")})
        assert Y.theta("south", 0.3, 0.4) == pytest.approx(math.pi / 2)

    def test_chart_transition_consistency(self, sphere):
        """The induced angles in the two charts describe the same ray:
        u(theta_north) is parallel to J u(theta_south)."""
        X = rotational_field(sphere)
        rng = np.random.default_rng(62)
        for _ in range(20):
            a = rng.uniform(-1.3, 1.3, 2)
            if not 0.5 < np.hypot(*a) < 1.3:
                continue
            b = sphere.transition("south", "north", a)
            J = sphere.transition_jacobian("south", "north", a)
            th_s = X.theta("south", *a)
            th_n = X.theta("north", *b)
            v = J @ np.array([math.cos(th_s), math.sin(th_s)])
            v /= np.linalg.norm(v)
            w = np.array([math.cos(th_n), math.sin(th_n)])
            assert np.max(np.abs(v - w)) < 1e-8

    def test_theta_grad_matches_fd(self, sphere):
        X = stereographic_power_field(sphere, 2)
        x1, x2 = 0.4, -0.3
        t1, t2 = X.theta_grad("south", x1, x2)
        h = 1e-6
        fd1 = (X.theta("south", x1 + h, x2) - X.theta("south", x1 - h, x2)) / (2 * h)
        fd2 = (X.theta("south", x1, x2 + h) - X.theta("south", x1, x2 - h)) / (2 * h)
        assert float(t1) == pytest.approx(float(fd1), abs=1e-8)
        assert float(t2) == pytest.approx(float(fd2), abs=1e-8)


def _newton_zero(X, chart, x0, max_iter=40):
    """The scalar Newton iteration find_zeros once ran seed by seed, kept
    as the oracle of the batched one.  Returns the zero or None, the
    number of iterations (two field evaluations each) and why it stopped."""
    u, v = float(x0[0]), float(x0[1])
    for it in range(1, max_iter + 1):
        f1u, f2u = X.value(chart, Dual(u, 1.0), Dual(v, 0.0))
        f1v, f2v = X.value(chart, Dual(u, 0.0), Dual(v, 1.0))
        f = np.array([value(f1u), value(f2u)], dtype=float)
        if np.hypot(*f) < 1e-12:
            return (u, v), it, "converged"
        J = np.array([[value(partial(f1u)), value(partial(f1v))],
                      [value(partial(f2u)), value(partial(f2v))]], dtype=float)
        if abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]) < 1e-14:
            return None, it, "singular"
        step = np.linalg.solve(J, f)
        u, v = u - step[0], v - step[1]
        if not (np.isfinite(u) and np.isfinite(v)):
            return None, it, "non-finite"
    return None, max_iter, "max_iter"


def _scalar_find_zeros(X, grid_density=48, threshold=0.3):
    """find_zeros as it was with the scalar Newton oracle: (chart,
    location) per zero, and the most iterations any seed took per chart."""
    atlas = X.atlas
    found, embedded, iters = [], [], {}
    for chart in X.components:
        (lo1, hi1), (lo2, hi2) = atlas.region_box(chart)
        U, V = np.meshgrid(np.linspace(lo1, hi1, grid_density),
                           np.linspace(lo2, hi2, grid_density), indexing="ij")
        v1, v2 = X.value(chart, U.ravel(), V.ravel())
        mag = np.broadcast_to(np.hypot(np.asarray(v1, dtype=float),
                                       np.asarray(v2, dtype=float)), U.ravel().shape)
        scale = max(float(np.median(mag)), 1e-30)
        iters[chart] = 0
        for idx in np.nonzero(mag < threshold * scale)[0]:
            zero, it, _ = _newton_zero(X, chart, (U.ravel()[idx], V.ravel()[idx]))
            iters[chart] = max(iters[chart], it)
            if zero is None or not atlas.in_region(chart, zero):
                continue
            p = atlas.embed(chart, zero)
            if any(np.linalg.norm(p - q) < 1e-3 for q in embedded):
                continue
            embedded.append(p)
            found.append((chart, zero))
    return found, iters


def _counted(X):
    """X with a per-chart count of its evaluations; it fails on a
    non-finite point."""
    calls = dict.fromkeys(X.components, 0)

    def wrap(chart, fn):
        def counted(u, v):
            calls[chart] += 1
            assert np.all(np.isfinite(value(u))) and np.all(np.isfinite(value(v)))
            return fn(u, v)
        return counted

    comps = {c: wrap(c, fn) for c, fn in X.components.items()}
    return SectionField(X.atlas, comps, X.label), calls


class TestBatchedNewton:
    @pytest.mark.parametrize("make", [
        rotational_field, height_gradient_field,
        lambda a: stereographic_power_field(a, 0),
        lambda a: stereographic_power_field(a, 1),
        lambda a: stereographic_power_field(a, 2),
    ], ids=["rotational", "height_gradient", "z^0", "z^1", "z^2"])
    def test_matches_scalar_oracle(self, sphere, make):
        """Batched Newton finds the zeros the scalar loop found: the same
        charts and degrees, locations within 1e-10 (z^0 and z^2 have a
        degenerate zero, reached only to about 1e-6), and X is evaluated
        once per Newton iteration per chart, for as many iterations as
        the slowest seed takes, beside the grid scan and one winding
        circle per zero."""
        X, calls = _counted(make(sphere))
        want, iters = _scalar_find_zeros(make(sphere))
        got = find_zeros(X)
        assert [z.chart for z in got] == [c for c, _ in want]
        for z, (chart, loc) in zip(got, want):
            assert np.max(np.abs(np.subtract(z.location, loc))) < 1e-10
            oracle = ZeroRecord(chart, loc)
            assert z.degree == local_degree(make(sphere), oracle, radius=0.025)
        for chart, n in calls.items():
            zeros_here = sum(z.chart == chart for z in got)
            assert n == 1 + iters[chart] + zeros_here

    def test_singular_and_non_finite_seeds_drop_out(self, sphere):
        """Of four seeds on one batch, one sits at a singular Jacobian
        (|det| = 2e-15 at u = 1e-15, v = 0, under the 1e-14 cut; its step
        would be finite) and one steps to infinity: at u = 1e-316, v = 1
        the determinant is 2e-12, above the cut, while the Newton step is
        9e317.  Both leave the batch as they leave the scalar loop, the
        other two reach the zeros (+-0.5, 0) in seed order, and X runs
        once per iteration of the slowest seed."""
        X, calls = _counted(custom_field(sphere, {"south": ("exp(700*v)*(u*u - 0.25)", "v")}))
        seeds = [(0.6, 0.0), (1e-15, 0.0), (1e-316, 1.0), (-0.7, 0.1)]
        oracle = [_newton_zero(X, "south", s) for s in seeds]
        assert [why for _, _, why in oracle] == [
            "converged", "singular", "non-finite", "converged"]
        calls["south"] = 0
        zu, zv = _newton_zeros(X, "south", *np.transpose(seeds))
        assert calls["south"] == max(it for _, it, _ in oracle)
        want = [zero for zero, _, _ in oracle if zero is not None]
        assert np.max(np.abs(np.column_stack([zu, zv]) - want)) < 1e-10
        assert np.allclose(zu, [0.5, -0.5]) and np.allclose(zv, 0.0)


def _theta_grad_per_axis(X, chart, x1, x2):
    """SectionField.theta_grad as it was, one dual pass per chart axis: the
    oracle of the one-pass gradient."""
    out = []
    for axis in range(2):
        a1 = Dual(np.asarray(x1, dtype=float), 1.0 if axis == 0 else 0.0)
        a2 = Dual(np.asarray(x2, dtype=float), 1.0 if axis == 1 else 0.0)
        v1, v2 = X.value(chart, a1, a2)
        num = value(v1) * value(partial(v2)) - value(v2) * value(partial(v1))
        out.append(num / (value(v1) ** 2 + value(v2) ** 2))
    return out[0], out[1]


class TestOnePassSections:
    @pytest.mark.parametrize("make", [
        rotational_field,
        height_gradient_field,
        *[lambda a, k=k: stereographic_power_field(a, k) for k in range(3)],
        lambda a: custom_field(a, {"south": ("sin(u)*v + 0.3", "u*u - exp(v)"),
                                   "north": ("u", "2.0")}),
    ])
    def test_theta_grad_matches_per_axis_passes(self, sphere, make):
        """theta_grad from one pass with both axes seeded on a leading axis
        of length 2 is repr-identical to one pass per axis, and evaluates
        the field once."""
        X, calls = _counted(make(sphere))
        rng = np.random.default_rng(31)
        for chart in X.components:
            x1, x2 = rng.uniform(-0.9, 0.9, (2, 50))
            calls[chart] = 0
            got = X.theta_grad(chart, x1, x2)
            assert calls[chart] == 1
            want = _theta_grad_per_axis(X, chart, x1, x2)
            for g, w in zip(got, want):
                assert np.shape(g) == (50,)
                assert repr(np.broadcast_to(w, (50,)).tolist()) == repr(g.tolist())

    def test_theta_grad_constant_field(self, torus):
        """A constant field has a zero gradient at the batch shape."""
        t1, t2 = constant_field(torus).theta_grad("torus", np.linspace(0.0, 6.0, 7), 1.0)
        assert np.shape(t1) == np.shape(t2) == (7,)
        assert not np.any(t1) and not np.any(t2)


class TestMedian:
    @pytest.mark.parametrize("n", [47 * 47, 48 * 48, 1, 2])
    def test_bit_identical_to_numpy(self, n):
        """_median is np.median bit for bit on odd and even sizes."""
        rng = np.random.default_rng(n)
        for a in (rng.uniform(0.0, 3.0, n), rng.integers(0, 5, n).astype(float)):
            assert repr(_median(a)) == repr(float(np.median(a)))

    def test_broadcast_constant_field(self, torus):
        """A field of constant expressions collapses to scalars, so
        find_zeros takes the median of a read-only broadcast |X| over its
        48 x 48 grid."""
        X = custom_field(torus, {"torus": ("1.0", "0.5")})
        u = np.linspace(0.0, 1.0, 48 * 48)
        v1, v2 = X.value("torus", u, u)
        assert np.ndim(v1) == np.ndim(v2) == 0
        mag = np.broadcast_to(np.hypot(v1, v2), u.shape)
        assert repr(_median(mag)) == repr(float(np.median(mag))) == repr(math.hypot(1.0, 0.5))

    def test_nan_propagates(self):
        a = np.array([1.0, np.nan, 3.0, 2.0])
        assert math.isnan(_median(a)) and math.isnan(np.median(a))
