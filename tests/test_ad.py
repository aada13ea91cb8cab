"""Forward AD (dual numbers and Taylor jets) against closed-form,
nested-dual and finite-difference oracles."""

import math

import numpy as np
import pytest

from finslergbc import ad
from finslergbc.ad import Dual, Jet, partial, taylor_coefficient, value
from finslergbc.errors import ValidationError


def nth_derivative(f, x0: float, order: int) -> float:
    """Exact n-th derivative of a scalar function via nested duals: the
    oracle for the Taylor jets and the single-layer partials."""
    x = x0
    for _ in range(order):
        x = Dual(x, 1.0)
    out = f(x)
    for _ in range(order):
        out = partial(out)
    return value(out)


class TestFirstOrder:
    @pytest.mark.parametrize(
        "f,df",
        [
            (lambda x: x * x * x, lambda x: 3 * x * x),
            (lambda x: 1.0 / (1.0 + x * x), lambda x: -2 * x / (1 + x * x) ** 2),
            (lambda x: ad.sqrt(x), lambda x: 0.5 / math.sqrt(x)),
            (lambda x: ad.exp(2.0 * x), lambda x: 2.0 * math.exp(2 * x)),
            (lambda x: ad.log(x), lambda x: 1.0 / x),
            (lambda x: ad.sin(x) * ad.cos(x), lambda x: math.cos(2 * x)),
        ],
    )
    def test_against_closed_form(self, f, df):
        for x0 in (0.3, 1.1, 2.7):
            got = nth_derivative(f, x0, 1)
            assert got == pytest.approx(df(x0), rel=1e-12)

    def test_arrays_batch(self):
        x = np.linspace(0.1, 2.0, 17)
        out = ad.sin(Dual(x, 1.0))
        assert np.allclose(partial(out), np.cos(x), atol=1e-14)


class TestNested:
    def test_third_derivative_polynomial(self):
        assert nth_derivative(lambda x: x ** 5, 1.5, 3) == pytest.approx(
            60 * 1.5 ** 2, rel=1e-12
        )

    def test_third_derivative_transcendental(self):
        got = nth_derivative(lambda x: ad.exp(-x * x), 0.7, 3)
        x = 0.7
        want = (12 * x - 8 * x ** 3) * math.exp(-x * x)
        assert got == pytest.approx(want, rel=1e-11)

    def test_mixed_partial_two_levels(self):
        # f(u, v) = u^2 v^3; d2f/dudv = 6 u v^2
        u0, v0 = 1.3, 0.8
        u = Dual(Dual(u0, 0.0), 1.0)
        v = Dual(Dual(v0, 1.0), 0.0)
        out = u * u * v * v * v
        assert value(partial(partial(out))) == pytest.approx(6 * u0 * v0 ** 2, rel=1e-12)

    def test_against_central_differences(self):
        f = lambda x: ad.sin(x) / (1.0 + x * x)
        x0, h = 0.9, 1e-5
        fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h ** 2
        assert nth_derivative(f, x0, 2) == pytest.approx(fd2, abs=1e-5)


class TestNumpyInterop:
    def test_ndarray_leftmul_falls_through(self):
        x = np.array([1.0, 2.0])
        d = x * Dual(2.0, 1.0)
        assert isinstance(d, Dual)
        assert np.allclose(d.val, [2.0, 4.0])

    def test_variable_exponent(self):
        """x**p with p a Dual, and a number or array to a Dual power, follow
        d(x^p) = x^p (p' log x + p x'/x), nested levels included."""
        x, p = Dual(1.7, 0.3), Dual(0.6, -1.1)
        got = x ** p
        assert value(got) == pytest.approx(1.7 ** 0.6, rel=1e-14)
        assert partial(got) == pytest.approx(
            1.7 ** 0.6 * (-1.1 * math.log(1.7) + 0.6 * 0.3 / 1.7), rel=1e-14)
        for base in (2, np.array([2.0, 0.5])):
            got = base ** p
            assert np.allclose(value(got), base ** 0.6, rtol=1e-14)
            assert np.allclose(partial(got), -1.1 * np.log(base) * base ** 0.6, rtol=1e-14)
        assert nth_derivative(lambda t: t ** t, 1.3, 2) == pytest.approx(
            1.3 ** 1.3 * ((math.log(1.3) + 1.0) ** 2 + 1.0 / 1.3), rel=1e-12)

    def test_division_chain(self):
        d = 1.0 / Dual(2.0, 1.0)
        assert d.val == 0.5 and d.eps == pytest.approx(-0.25)

    def test_no_ordering(self):
        """A Dual has no order: a comparison of values alone would drop the
        derivative silently, so it raises."""
        with pytest.raises(TypeError):
            Dual(1.0, 1.0) < 2.0
        with pytest.raises(TypeError):
            Dual(1.0, 1.0) > Dual(0.5, 3.0)


# one Jet operation each on non-trivial operands, as functions of the
# variable t; the same function on nested duals is the oracle
JET_OPS = {
    "add": lambda t: t * t + t,
    "radd": lambda t: 1.5 + t * t,
    "mul": lambda t: t * t * t,
    "rmul_array": lambda t: np.array([3.0, -1.0, 0.5]) * (t * t),
    "rdiv": lambda t: 2.0 / (1.0 + t * t),
    "pow0": lambda t: t ** 0,
    "pow3": lambda t: (1.0 + t) ** 3,
    "pow4": lambda t: t ** 4,
    "pow_neg_int": lambda t: (1.0 + t * t) ** -2,
    "pow_frac": lambda t: (1.0 + t * t) ** 0.25,
    "pow_neg_frac": lambda t: (2.0 + t) ** -0.75,
    "sqrt": lambda t: ad.sqrt(1.0 + t * t),
}

JET_BASES = {
    "array": np.array([0.3, -0.7, 1.9]),
    "complex": np.array([0.3 + 0.4j, -0.7 + 0.1j, 1.9 - 0.5j]),
}


def _close(got, want):
    want = np.asarray(want)
    return np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestJet:
    """Taylor coefficients c[m] against nested-dual derivatives over m!."""

    @pytest.mark.parametrize("kind", ["array", "complex"])
    @pytest.mark.parametrize("op", sorted(JET_OPS))
    def test_matches_nested_duals(self, op, kind):
        f, t0 = JET_OPS[op], JET_BASES[kind]
        for degree in (1, 2, 3):
            got = f(Jet([t0, 1.0] + [0.0] * (degree - 1)))
            assert isinstance(got, Jet) and len(got.c) == degree + 1
            for m in range(degree + 1):
                want = nth_derivative(f, t0, m) / math.factorial(m)
                assert _close(got.c[m], want), (degree, m)

    # 1/Dual(T) negates the jet T' (``ad._reciprocal``), and a jet has no
    # unary minus: no Dual around a jet meets a division in the metric
    @pytest.mark.parametrize("op", sorted(set(JET_OPS) - {"rdiv"}))
    def test_dual_outside(self, op):
        """A Dual seed around the jet: f(Dual(T, 1)) = Dual(f(T), f'(T)),
        each a jet, whatever the operation."""
        f, t0 = JET_OPS[op], JET_BASES["array"]
        for degree in (1, 2, 3):
            got = f(Dual(Jet([t0, 1.0] + [0.0] * (degree - 1)), 1.0))
            assert isinstance(got, Dual) and isinstance(got.val, Jet)
            for m in range(degree + 1):
                c = taylor_coefficient(got, m)
                fm = math.factorial(m)
                assert _close(value(c), nth_derivative(f, t0, m) / fm), (degree, m)
                assert _close(partial(c), nth_derivative(f, t0, m + 1) / fm), (degree, m)

    def test_mixed_with_dual(self):
        """Dual x and Jet y: the Dual stays outside under x*y, y*x, x+y and
        y/x, and each coefficient is the closed form."""
        a, b = np.array([0.4, -1.2, 2.5]), np.array([2.0, 0.5, -0.3])
        x = Dual(a, b)
        y = ad.sqrt(1.0 + Jet([JET_BASES["array"], 1.0, 0.0, 0.0]) ** 2)
        assert Jet.__mul__(y, x) is NotImplemented
        zero = np.zeros_like(a)
        cases = {
            "x*y": (x * y, lambda m, c: (a * c, b * c)),
            "y*x": (y * x, lambda m, c: (a * c, b * c)),
            "x+y": (x + y, lambda m, c: (c + (a if m == 0 else zero), b if m == 0 else zero)),
            "y/x": (y / x, lambda m, c: (c / a, -b * c / (a * a))),
        }
        for name, (got, want) in cases.items():
            assert isinstance(got, Dual) and isinstance(got.val, Jet), name
            if name in ("x*y", "y*x", "y/x"):
                assert isinstance(got.eps, Jet), name
            for m in range(4):
                c = taylor_coefficient(got, m)
                wv, we = want(m, y.c[m])
                assert _close(value(c), wv) and _close(partial(c), we), (name, m)
        for m in range(4):
            assert np.array_equal(cases["x*y"][0].val.c[m], cases["y*x"][0].val.c[m])
            assert np.array_equal(cases["x*y"][0].eps.c[m], cases["y*x"][0].eps.c[m])

    @pytest.mark.parametrize("p", [2, 3, 4, 4.0])
    def test_integer_power_of_zero_base(self, p):
        """Integer powers are products, so a base that is exactly 0 (cos
        theta at a quadrature node) stays finite; the general recurrence
        would divide by it."""
        t0 = np.array([0.0, 0.5, -1.0])
        got = Jet([t0, 1.0, 0.0, 0.0]) ** p
        for m in range(4):
            want = nth_derivative(lambda t: t ** p, t0, m) / math.factorial(m)
            assert np.all(np.isfinite(got.c[m]))
            assert _close(got.c[m], want), m


class TestExpression:
    def test_whitelist_matches_python(self):
        f = ad.expression("sin(u)*y1 - 2**v / 3 + -u + log(exp(v)) - sqrt(cos(u)**2)",
                          ("u", "v", "y1"))
        u, v, y1 = 0.7, -0.4, 1.3
        want = (math.sin(u) * y1 - 2 ** v / 3 + -u + math.log(math.exp(v))
                - math.sqrt(math.cos(u) ** 2))
        assert f(u=u, v=v, y1=y1) == want

    def test_duals_pass_through(self):
        f = ad.expression("u*u*v", ("u", "v"))
        out = f(u=Dual(3.0, 1.0), v=2.0)
        assert value(out) == 18.0 and partial(out) == 12.0

    @pytest.mark.parametrize("src", [
        "u +",
        "w",
        "u.__class__",
        "().__class__",
        "__import__('os')",
        "abs(u)",
        "sin(u, v)",
        "sin",
        "[u][0]",
        "u if v else v",
        "u < v",
        "+u",
        "u // v",
        "True * u",
        "1j * u",
        "'a' * 2",
        "lambda: u",
    ])
    def test_rejected(self, src):
        with pytest.raises(ValidationError):
            ad.expression(src, ("u", "v"))
