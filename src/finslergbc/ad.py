"""Forward-mode automatic differentiation: nestable dual numbers and
truncated univariate Taylor series.

A ``Dual`` carries a value and the derivative along one seed direction.
Nesting duals (a ``Dual`` whose value is itself a ``Dual``) yields exact
higher-order and mixed partial derivatives; every nesting level owns one
independent epsilon.  A ``Jet`` carries the Taylor coefficients
f^(m)/m!, m = 0..k, of a function of one variable and propagates them by
the standard recurrences (Griewank & Walther, Evaluating Derivatives,
ch. 13): a product of degree-k jets costs (k+1)(k+2)/2 coefficient
products where k nested duals cost 3^k.  A ``Dual`` is always the outer
layer: ``Jet`` operations decline ``Dual`` operands, so a ``Dual`` treats a
``Jet`` as its value or derivative like any other constant.  Values and
coefficients may be python floats or numpy arrays (complex ones too), so a
single evaluation differentiates a whole batch of points at once.
"""

from __future__ import annotations

import ast
import operator

import numpy as np

from .errors import ValidationError

__all__ = [
    "Dual",
    "Jet",
    "taylor_coefficient",
    "value",
    "partial",
    "seed_pair",
    "linear_map",
    "sqrt",
    "exp",
    "log",
    "sin",
    "cos",
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


def _reciprocal(x: Dual) -> Dual:
    inv = 1.0 / x.val  # recurses through nested duals via __rtruediv__
    return Dual(inv, -x.eps * inv * inv)


class Jet:
    """Truncated Taylor series c[0] + c[1] t + ... + c[k] t^k in one
    variable t, with c[m] = f^(m)/m!.  Jets of different degrees combine
    at the lower degree.  Operations with a ``Dual`` operand return
    NotImplemented, so the ``Dual`` (an outer seed) stays outside."""

    __slots__ = ("c",)

    # as for Dual: binary ops with ndarrays fall through to the Jet methods
    __array_ufunc__ = None

    def __init__(self, c):
        self.c = tuple(c)

    def __repr__(self):
        return f"Jet({list(self.c)!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.c, other.c)])
        if isinstance(other, Dual):
            return NotImplemented
        return Jet((self.c[0] + other,) + self.c[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet([a - b for a, b in zip(self.c, other.c)])
        if isinstance(other, Dual):
            return NotImplemented
        return Jet((self.c[0] - other,) + self.c[1:])

    def __rsub__(self, other):
        return Jet([other - self.c[0]] + [-a for a in self.c[1:]])

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.c, other.c
            out = []
            for k in range(min(len(a), len(b))):
                s = a[0] * b[k]
                for j in range(1, k + 1):
                    s = s + a[j] * b[k - j]
                out.append(s)
            return Jet(out)
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([a * other for a in self.c])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _divide(self.c, other)
        if isinstance(other, Dual):
            return NotImplemented
        return Jet([a / other for a in self.c])

    def __rtruediv__(self, other):
        return _divide((other,) + (0.0,) * (len(self.c) - 1), self)

    def __pow__(self, p):
        """Positive integer powers are repeated products, so a zero base is
        fine; other powers use the recurrence of b = a^p from
        a b' = p a' b, which divides by the base."""
        if float(p).is_integer() and p >= 1:
            n = int(p)
            out, base = None, self
            while True:
                if n & 1:
                    out = base if out is None else out * base
                n >>= 1
                if not n:
                    return out
                base = base * base
        a = self.c
        b = [a[0] ** p]
        for k in range(1, len(a)):
            s = (p * k) * a[k] * b[0]
            for j in range(1, k):
                s = s + ((p + 1.0) * j - k) * a[j] * b[k - j]
            b.append(s / (k * a[0]))
        return Jet(b)


def _divide(a, y: Jet) -> Jet:
    """The jet a / y for the coefficients a of a numerator:
    q[k] = (a[k] - sum_{j<k} q[j] y[k-j]) / y[0]."""
    b = y.c
    q = []
    for k in range(min(len(a), len(b))):
        s = a[k]
        for j in range(k):
            s = s - q[j] * b[k - j]
        q.append(s / b[0])
    return Jet(q)


def taylor_coefficient(x, m: int):
    """The m-th Taylor coefficient of x, kept under every outer Dual layer;
    a part of x that is no Jet is constant in t (coefficient 0 for m > 0)."""
    if isinstance(x, Dual):
        return Dual(taylor_coefficient(x.val, m), taylor_coefficient(x.eps, m))
    if isinstance(x, Jet):
        return x.c[m]
    return x if m == 0 else 0.0


def value(x):
    """Strip all dual layers, returning the underlying float/array."""
    while isinstance(x, Dual):
        x = x.val
    return x


def partial(x):
    """Peel one epsilon: the derivative wrt the outermost seed, or 0."""
    return x.eps if isinstance(x, Dual) else 0.0


def seed_pair(x1, x2, *others):
    """x1 and x2 as duals seeded on one leading axis of length 2 (the rows
    of the identity), so one pass carries d/dx1 and d/dx2 side by side.
    The seed has one unit axis per axis of the broadcast of x1, x2 and
    others, the arrays the pass combines them with."""
    ndim = max(map(np.ndim, (x1, x2, *others)))
    s = np.eye(2).reshape((2, 2) + (1,) * ndim)
    return Dual(x1, s[0]), Dual(x2, s[1])


def linear_map(fn, x):
    """Apply a linear map of arrays to the value and every derivative of x
    (linear maps commute with differentiation)."""
    return Dual(linear_map(fn, x.val), linear_map(fn, x.eps)) if isinstance(x, Dual) else fn(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps * (0.5 / s))
    if isinstance(x, Jet):
        # b = sqrt(a): b[k] = (a[k] - sum_{0<j<k} b[j] b[k-j]) / (2 b[0])
        a = x.c
        b = [sqrt(a[0])]
        h = 0.5 / b[0]
        for k in range(1, len(a)):
            s = a[k]
            for j in range(1, k):
                s = s - b[j] * b[k - j]
            b.append(s * h)
        return Jet(b)
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
