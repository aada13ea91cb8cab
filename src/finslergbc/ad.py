"""Forward-mode automatic differentiation with nestable dual numbers.

A ``Dual`` carries a value and the derivative along one seed direction.
Nesting duals (a ``Dual`` whose value is itself a ``Dual``) yields exact
higher-order and mixed partial derivatives; every nesting level owns one
independent epsilon.  Values may be python floats or numpy arrays, so a
single evaluation differentiates a whole batch of points at once.
"""

from __future__ import annotations

import ast
import operator

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dual",
    "value",
    "partial",
    "linear_map",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
    "atan2",
    "nth_derivative",
    "expression",
]


class Dual:
    __slots__ = ("val", "eps")

    # keep numpy from absorbing Dual into object arrays; binary ops with
    # ndarrays must fall through to the reflected Dual methods
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = val
        self.eps = eps

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + other, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.val * other.eps + self.eps * other.val)
        return Dual(self.val * other, self.eps * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = _reciprocal(other)
            return self * inv
        return Dual(self.val / other, self.eps / other)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, p):
        if isinstance(p, Dual):
            raise TypeError("dual exponents are not supported")
        if p == 2:
            return self * self
        return Dual(self.val ** p, (p * self.val ** (p - 1)) * self.eps)

    # comparisons act on values; used only for float-level branching
    def __lt__(self, other):
        return value(self) < value(other)

    def __gt__(self, other):
        return value(self) > value(other)


def _reciprocal(x: Dual) -> Dual:
    inv = 1.0 / x.val  # recurses through nested duals via __rtruediv__
    return Dual(inv, -x.eps * inv * inv)


def value(x):
    """Strip all dual layers, returning the underlying float/array."""
    while isinstance(x, Dual):
        x = x.val
    return x


def partial(x):
    """Peel one epsilon: the derivative wrt the outermost seed, or 0."""
    return x.eps if isinstance(x, Dual) else 0.0


def linear_map(fn, x):
    """Apply a linear map of arrays to the value and every derivative of x
    (linear maps commute with differentiation)."""
    return Dual(linear_map(fn, x.val), linear_map(fn, x.eps)) if isinstance(x, Dual) else fn(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps * (0.5 / s))
    return np.sqrt(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, x.eps * e)
    return np.exp(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val)
    return np.log(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), x.eps * cos(x.val))
    return np.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -x.eps * sin(x.val))
    return np.cos(x)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yv = y.val if isinstance(y, Dual) else y
        xv = x.val if isinstance(x, Dual) else x
        ye = y.eps if isinstance(y, Dual) else 0.0
        xe = x.eps if isinstance(x, Dual) else 0.0
        denom = xv * xv + yv * yv
        return Dual(atan2(yv, xv), (xv * ye - yv * xe) / denom)
    return np.arctan2(y, x)


def nth_derivative(f, x0: float, order: int) -> float:
    """Exact n-th derivative of a scalar function via nested duals."""
    x = x0
    for _ in range(order):
        x = Dual(x, 1.0)
    out = f(x)
    for _ in range(order):
        out = partial(out)
    return value(out)


_EXPRESSION_FUNCTIONS = {"sin": sin, "cos": cos, "sqrt": sqrt, "exp": exp, "log": log}
_EXPRESSION_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                         ast.Div: operator.truediv, ast.Pow: operator.pow}


def expression(source: str, names):
    """Compile a user expression in the given variable names, e.g. "u*u - v".

    Only numeric constants, those names, + - * / **, unary minus and calls
    of sin, cos, sqrt, exp and log (the dual-aware versions above) are
    accepted; anything else, and text that does not parse, raises
    ValidationError.  The result takes the variables as keyword arguments.
    """
    try:
        tree = ast.parse(source, mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise ValidationError(f"expression {source!r} does not parse: {exc}") from None

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda env, c=node.value: c
        if isinstance(node, ast.Name) and node.id in names:
            return lambda env, k=node.id: env[k]
        if isinstance(node, ast.BinOp) and type(node.op) in _EXPRESSION_OPERATORS:
            op, a, b = _EXPRESSION_OPERATORS[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(a(env), b(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            a = build(node.operand)
            return lambda env: -a(env)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EXPRESSION_FUNCTIONS
                and len(node.args) == 1 and not node.keywords):
            fn, a = _EXPRESSION_FUNCTIONS[node.func.id], build(node.args[0])
            return lambda env: fn(a(env))
        raise ValidationError(f"expression {source!r}: {ast.unparse(node)!r} is not allowed")

    run = build(tree)
    return lambda **env: run(env)
