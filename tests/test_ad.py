"""Dual-number forward AD against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest

from finslergbc import ad
from finslergbc.ad import Dual, nth_derivative, partial, value
from finslergbc.errors import ValidationError


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

    def test_atan2(self):
        y0, x0 = 0.7, -0.4
        d = ad.atan2(Dual(y0, 1.0), x0)
        assert partial(d) == pytest.approx(x0 / (x0 ** 2 + y0 ** 2), rel=1e-12)
        d = ad.atan2(y0, Dual(x0, 1.0))
        assert partial(d) == pytest.approx(-y0 / (x0 ** 2 + y0 ** 2), rel=1e-12)


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

    def test_division_chain(self):
        d = 1.0 / Dual(2.0, 1.0)
        assert d.val == 0.5 and d.eps == pytest.approx(-0.25)


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
