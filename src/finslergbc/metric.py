"""Finsler and Minkowski metric kernels.

Everything here reduces to derivatives of E = F^2 taken by forward AD.
A Minkowski norm of any rank gets its y-derivatives from one Cartesian
kernel, ``y_jets``, with nested dual numbers: the fundamental tensor is
the y-Hessian of E/2 and the Cartan tensor is (F/4) times the third
y-derivative.  On a surface, homogeneity fixes every y-derivative at the
unit ray by the theta-jet of E or F along the unit circle y = (cos theta,
sin theta), so the chart pipeline reads them off truncated Taylor series
in theta (``ad.Jet``) instead: ``metric_jets`` gives g, A and the mixed
x-y jets from two evaluations, and ``fiber_volume_form`` the indicatrix
volume density from one.  A seeded base coordinate is a ``Dual`` outside
the theta-jet, never inside it.  Evaluations accept numpy arrays in every
coordinate slot, so one call covers a whole batch of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, count, permutations, product

import numpy as np

from . import ad
from .ad import Dual, Jet, partial, taylor_coefficient, value
from .errors import DomainError, InvalidMetricError, MetricEvaluationError
from .quadrature import periodic_rule

__all__ = [
    "MinkowskiNorm",
    "FinslerMetric",
    "FundamentalTensor",
    "CartanTensor",
    "OrthonormalFrame",
    "MetricJets",
    "euclidean_norm",
    "riemannian_norm",
    "randers_norm",
    "quartic_norm",
    "sum_norms",
    "y_jets",
    "metric_jets",
    "fundamental_tensor",
    "cartan_tensor",
    "indicatrix_param",
    "fiber_volume_form",
    "fiber_volume",
    "orthonormal_frame",
    "norm_orthonormal_frame",
]


# ---------------------------------------------------------------------------
# jet extraction: Cartesian y-jets (nested duals), theta-jets (Taylor)


def y_jets(E, x, y, order: int) -> dict:
    """Every y-derivative of E(x, y) up to the given order, keyed by index
    tuple: jets[(i,)] = dE/dy_i, jets[(i, j)] = d^2E/dy_i dy_j, and so on.

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


def _circle_taylor(theta, degree: int):
    """(cos theta, sin theta) as Taylor jets of the given degree in theta,
    built from the four arrays +-cos theta, +-sin theta: d^m cos theta =
    cos(theta + m pi/2) cycles through them, and sin theta = cos(theta +
    3 pi/2); the m-th coefficient is the m-th derivative over m!."""
    c, s = np.cos(theta), np.sin(theta)
    d = [c, -s, -c, s]
    return tuple(Jet([d[(m + shift) % 4] / math.factorial(m) for m in range(degree + 1)])
                 for shift in (0, 3))


def _tensor(jets: dict, n: int, rank: int, scale) -> np.ndarray:
    """scale * jets as one array of shape (n,) * rank + batch shape."""
    parts = np.broadcast_arrays(*(scale * jets[p] for p in product(range(n), repeat=rank)))
    return np.stack(parts).reshape((n,) * rank + parts[0].shape)


# ---------------------------------------------------------------------------
# norms


@dataclass
class MinkowskiNorm:
    """A Minkowski norm on R^n: smooth away from 0, positively
    1-homogeneous, with positive definite y-Hessian of F^2/2."""

    n: int
    fn: callable
    label: str = "norm"

    def __call__(self, y):
        return self.fn(list(y))

    def fundamental(self, y) -> np.ndarray:
        """g_ij = (1/2) d^2 F^2 / dy_i dy_j at y; batch axes of y trail."""
        _require_nonzero(y)
        return _tensor(y_jets(self._E, [], list(y), 2), self.n, 2, 0.5)

    def cartan(self, y) -> np.ndarray:
        """A_ijk = (F/4) d^3 F^2 / dy_i dy_j dy_k at y; batch axes of y trail."""
        _require_nonzero(y)
        F = np.asarray(self(y), dtype=float)
        return _tensor(y_jets(self._E, [], list(y), 3), self.n, 3, 0.25 * F)

    def _E(self, x, y):
        return self.fn(y) ** 2


def _require_nonzero(y) -> None:
    if float(np.min(sum(np.asarray(c, dtype=float) ** 2 for c in y))) <= 0.0:
        raise DomainError("metric quantities are undefined at y = 0 (slit bundle)")


def euclidean_norm(n: int = 2) -> MinkowskiNorm:
    return MinkowskiNorm(n, lambda y: ad.sqrt(sum(c * c for c in y)), "euclidean")


def riemannian_norm(G) -> MinkowskiNorm:
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidMetricError(f"riemannian norm needs a square matrix, got shape {G.shape}")
    n = G.shape[0]
    if not np.allclose(G, G.T) or np.any(np.linalg.eigvalsh(G) <= 0):
        raise InvalidMetricError("riemannian norm needs a symmetric positive matrix")

    def fn(y):
        return ad.sqrt(sum(G[i, j] * y[i] * y[j] for i in range(n) for j in range(n)))

    return MinkowskiNorm(n, fn, "riemannian")


def randers_norm(b, G=None) -> MinkowskiNorm:
    """alpha + beta norm with alpha = sqrt(y^T G y), beta = b . y."""
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    G = np.eye(n) if G is None else np.asarray(G, dtype=float)
    Ginv = np.linalg.inv(G)
    if float(b @ Ginv @ b) >= 1.0:
        raise InvalidMetricError("randers data rejected: |beta|_alpha >= 1")

    def fn(y):
        alpha2 = sum(G[i, j] * y[i] * y[j] for i in range(n) for j in range(n))
        return ad.sqrt(alpha2) + sum(b[i] * y[i] for i in range(n))

    return MinkowskiNorm(n, fn, "randers")


def quartic_norm(mix: float = 0.05, n: int = 2) -> MinkowskiNorm:
    """F = (sum y_i^4 + mix (sum y_i^2)^2)^{1/4}; mix > 0 restores strict
    convexity on the axes, mix = 0 is the raw quartic (valid off-axis)."""

    def fn(y):
        q = sum(c ** 4 for c in y)
        s = sum(c * c for c in y)
        return (q + mix * s * s) ** 0.25

    return MinkowskiNorm(n, fn, f"quartic({mix})")


def sum_norms(f1: MinkowskiNorm, f2: MinkowskiNorm) -> MinkowskiNorm:
    """Pointwise sum of two Minkowski norms (again a Minkowski norm)."""
    if f1.n != f2.n:
        raise InvalidMetricError("cannot sum norms of different dimensions")
    return MinkowskiNorm(f1.n, lambda y: f1.fn(y) + f2.fn(y), f"{f1.label}+{f2.label}")


# ---------------------------------------------------------------------------
# chart-local Finsler metrics


_METRIC_SEQ = count()


@dataclass
class FinslerMetric:
    """Chart-local Finsler metric on a surface: per-chart F(x, y) with all
    arguments accepting dual numbers and the y slots Taylor jets
    (y-derivatives to third order and x-derivatives to first order are
    taken)."""

    atlas_id: str
    charts: dict[str, callable]
    label: str = "metric"
    n: int = 2
    # distinguishes metric instances in evaluation caches (ids get reused)
    token: int = field(default_factory=lambda: next(_METRIC_SEQ))

    def F(self, chart: str, x, y):
        return self.charts[chart](list(x), list(y))

    def norm_at(self, chart: str, x) -> MinkowskiNorm:
        """Freeze the base point: the fiber Minkowski norm at x.  Array
        slots freeze a batch of base points, matched against the batch
        axes of y."""
        x = [c if np.ndim(c) else float(c) for c in x]
        return MinkowskiNorm(self.n, lambda y: self.charts[chart](x, list(y)),
                             f"{self.label}@{chart}")


@dataclass
class FundamentalTensor:
    g: np.ndarray
    g_inv: np.ndarray


@dataclass
class CartanTensor:
    A: np.ndarray
    A_raised: np.ndarray


@dataclass
class OrthonormalFrame:
    """Rows of B are the frame vectors e_i in the coordinate frame; the
    last row is the tautological unit section l = y / F."""

    B: np.ndarray
    B_inv: np.ndarray


def fundamental_tensor(metric: FinslerMetric, x, y, chart: str | None = None) -> FundamentalTensor:
    g = metric.norm_at(_default_chart(metric, chart), x).fundamental(y)
    if np.any(np.linalg.eigvalsh(g) <= 0):
        raise InvalidMetricError("fundamental tensor is not positive definite")
    return FundamentalTensor(g, np.linalg.inv(g))


def cartan_tensor(metric: FinslerMetric, x, y, chart: str | None = None) -> CartanTensor:
    chart = _default_chart(metric, chart)
    A = metric.norm_at(chart, x).cartan(y)
    g_inv = fundamental_tensor(metric, x, y, chart).g_inv
    return CartanTensor(A, np.einsum("il,ljk->ijk", g_inv, A))


def _squared(metric: FinslerMetric, chart: str):
    return lambda xx, yy: metric.charts[chart](xx, yy) ** 2


def _default_chart(metric: FinslerMetric, chart: str | None) -> str:
    if chart is not None:
        return chart
    if len(metric.charts) == 1:
        return next(iter(metric.charts))
    raise DomainError("metric has several charts; specify one")


# ---------------------------------------------------------------------------
# indicatrix geometry (n = 2)


def indicatrix_param(metric: FinslerMetric, x, chart: str | None = None):
    """Parameterise the indicatrix {F(x, y) = 1}: theta -> y(theta).

    By positive homogeneity F(x, r u) = r F(x, u), so the point on the
    ray through u(theta) is u(theta) / F(x, u(theta)).
    """
    chart = _default_chart(metric, chart)
    if metric.n != 2:
        raise DomainError("indicatrix parameterisation is implemented for n = 2")
    xf = [float(c) for c in x]

    def y_of_theta(theta: float) -> np.ndarray:
        u = np.array([math.cos(theta), math.sin(theta)])
        F = float(value(metric.charts[chart](xf, list(u))))
        if not F > 0.0:
            raise MetricEvaluationError("metric not positive along the sampled ray")
        return u / F

    return y_of_theta


def fiber_volume_form(metric: FinslerMetric, x, theta, chart: str | None = None):
    """Density rho(theta) with  d nu_x = rho(theta) d theta.

    With f(theta) = F(x, cos theta, sin theta), homogeneity gives
    det g = f^3 (f + f'') and l^1 dl^2/dtheta - l^2 dl^1/dtheta = 1/f^2
    along y = (cos theta, sin theta), so the pulled-back volume form
    sqrt(det g) (l^1 dl^2 - l^2 dl^1) is rho = sqrt((f + f'') / f), read
    off one degree-2 Taylor jet of F in theta: f = c[0], f'' = 2 c[2].
    A slot of x may carry one dual layer (a seeded base point), which stays
    outside the theta-jet; rho then carries it too.
    """
    chart = _default_chart(metric, chart)
    x = [c if isinstance(c, Dual) else np.asarray(c, dtype=float) for c in x]
    jet = metric.charts[chart](x, list(_circle_taylor(np.asarray(theta, dtype=float), 2)))
    f, f2 = taylor_coefficient(jet, 0), 2.0 * taylor_coefficient(jet, 2)
    return ad.sqrt((f + f2) / f)


# Default number of trapezoid nodes on the fiber circle: the smallest count
# that keeps V within 1e-12 of the 64-node Gauss-Legendre rule on every zoo
# metric where that rule is itself converged to 1e-12 (Randers eps <= 0.85).
FIBER_ORDER = 48

# Quadrature nodes (base points x fiber nodes) per fiber-volume block: the
# ~36 fiber arrays of a plain pass, and the ~250 of a two-seed pass, stay
# cache-sized instead of growing with the batch.
_FIBER_NODES = 8192


def fiber_volume(metric: FinslerMetric, x, chart: str | None = None,
                 order: int = FIBER_ORDER):
    """V(x): Riemannian volume of the indicatrix fiber at each base point.

    x = (x1, x2) holds scalars or arrays; the result has their broadcast
    shape.  The density is integrated by the order-point periodic
    trapezoid rule, which converges geometrically on the smooth periodic
    density, over blocks of max(1, _FIBER_NODES // order) base
    points of the flattened batch; a batch that fits in one block is
    evaluated as it is.  A slot of x may carry one dual layer (a seeded
    base point); V then carries the exact derivative along the seed.  The
    seed may have leading axes of its own, e.g. one per chart axis when
    both coordinates are seeded at once; V's derivative keeps them in
    front of the batch axes."""
    chart = _default_chart(metric, chart)
    th, w = periodic_rule(order)
    shape = np.broadcast_shapes(*(np.shape(value(c)) for c in x))
    size, block = math.prod(shape), max(1, _FIBER_NODES // order)
    if size <= block:
        return _fiber_integral(metric, x, chart, th, w)

    def flatten(a):
        lead = np.shape(a)[:max(0, np.ndim(a) - len(shape))]
        return np.broadcast_to(a, lead + shape).reshape(lead + (size,))

    x = [ad.linear_map(flatten, c) for c in x]
    parts = [_fiber_integral(metric, [ad.linear_map(lambda a: a[..., i:i + block], c)
                                      for c in x], chart, th, w)
             for i in range(0, size, block)]
    return ad.linear_map(lambda a: a.reshape(a.shape[:-1] + shape), _concatenate(parts))


def _fiber_integral(metric: FinslerMetric, x, chart: str, th, w):
    """The quadrature sum of the fiber density over the nodes th, weights w.
    The sum is a ufunc reduction over the node axis, so each base point's
    sum depends on its own row alone, not on where the row sits in the
    batch or on the batch size (a matrix-vector product does not promise
    that)."""
    x = [ad.linear_map(lambda a: np.asarray(a, dtype=float)[..., None], c) for c in x]
    rho = fiber_volume_form(metric, x, th, chart)
    shape = np.broadcast_shapes(*(np.shape(value(c)) for c in x), th.shape)
    return ad.linear_map(lambda r: np.add.reduce(
        np.broadcast_to(r, np.broadcast_shapes(np.shape(r), shape)) * w, -1), rho)


def _concatenate(parts):
    """Join per-block results (all with the same dual layers) along the
    last axis."""
    if isinstance(parts[0], Dual):
        return Dual(_concatenate([p.val for p in parts]), _concatenate([p.eps for p in parts]))
    return np.concatenate(parts, axis=-1)


def orthonormal_frame(metric: FinslerMetric, x, y, chart: str | None = None) -> OrthonormalFrame:
    """g-orthonormal frame with e_n = l = y/F and positive orientation.

    For n = 2 the first vector is fixed in closed form: w^i = eps^{ij}
    (g l)_j makes (e_1, e_2 = l) positively oriented with no sign branch,
    so the frame is smooth around the whole fiber.
    """
    chart = _default_chart(metric, chart)
    _require_nonzero(y)
    g = fundamental_tensor(metric, x, y, chart).g
    F = float(value(metric.charts[chart](list(x), list(y))))
    l = np.asarray(y, dtype=float) / F
    lhat = g @ l
    w = np.array([lhat[1], -lhat[0]])
    e1 = w / math.sqrt(float(w @ g @ w))
    B = np.vstack([e1, l])
    return OrthonormalFrame(B, np.linalg.inv(B))


def norm_orthonormal_frame(norm: MinkowskiNorm, y, orientation: int = 1) -> OrthonormalFrame:
    """Pointwise g-orthonormal frame of a Minkowski norm at y, any rank.

    Gram-Schmidt against g with the unit ray l placed last; the standard
    basis seeds the remaining vectors and e_1 flips if needed so that the
    frame orientation matches the requested one."""
    _require_nonzero(y)
    n = norm.n
    g = norm.fundamental(y)
    F = float(norm(y))
    l = np.asarray(y, dtype=float) / F
    rows = [l]
    for seed_vec in np.eye(n):
        v = seed_vec.copy()
        for e in rows:
            v = v - float(e @ g @ v) * e
        nv = float(v @ g @ v)
        if nv > 1e-12:
            rows.append(v / math.sqrt(nv))
        if len(rows) == n:
            break
    if len(rows) < n:
        raise InvalidMetricError("degenerate metric: frame completion failed")
    B = np.vstack(rows[1:] + [l])
    if float(np.linalg.det(B)) * orientation < 0:
        B[0] = -B[0]
    return OrthonormalFrame(B, np.linalg.inv(B))


# ---------------------------------------------------------------------------
# batched metric jets for the connection pipeline


@dataclass
class MetricJets:
    """All raw derivative tensors of E = F^2 needed downstream, evaluated
    at a batch of sphere-bundle chart points with representative y =
    (cos theta, sin theta).  Indices are python lists, values arrays."""

    F: np.ndarray
    u: list
    v: list
    T1: list
    T2: list
    T3: list
    X1: list
    X2: list
    X3: list


def _gradient(u, v, e, e1) -> list:
    """y-gradient at y = u of a function 2-homogeneous in y, from its
    theta-jet e, e' (Euler: the gradient pairs to 2e with u, e' with v)."""
    return [2.0 * e * u[i] + e1 * v[i] for i in range(2)]


def _hessian(u, v, e, e1, e2) -> list:
    """y-Hessian at y = u of a function 2-homogeneous in y, from its
    theta-jet e, e', e'' (it pairs to 2e on u u, e' on u v and 2e + e'' on
    v v); the off-diagonal entry is one array under both index orders."""
    evv = 2.0 * e + e2
    h = {(i, j): 2.0 * e * u[i] * u[j] + e1 * (u[i] * v[j] + v[i] * u[j]) + evv * v[i] * v[j]
         for i, j in combinations_with_replacement(range(2), 2)}
    return [[h[min(i, j), max(i, j)] for j in range(2)] for i in range(2)]


def metric_jets(metric: FinslerMetric, chart: str, x1, x2, th) -> MetricJets:
    """The jets of E = F^2 at y = u = (cos theta, sin theta) from two
    chart evaluations.

    E is 2-homogeneous in y, so its y-derivatives at u follow from the
    theta-jet of e(theta) = E(x, u(theta)).  With v = (-sin theta,
    cos theta), the gradient and the Hessian come from e, e', e'' by
    Euler's relation, and the third derivative, which vanishes along u,
    is (4 e' + e''') v v v.  One evaluation on a degree-3 Taylor jet in
    theta gives e to e''' (e^(m) = m! c[m]); one on a degree-2 jet, with
    x1 and x2 as duals seeded on one leading axis of length 2 outside it,
    gives d_A e, d_A e' and d_A e'' for both chart axes A.  Symmetric
    entries share one array.  The coordinates may be complex, as under
    complex-step partials; nothing here casts them to float.
    """
    E = _squared(metric, chart)
    x = [np.asarray(x1), np.asarray(x2)]
    th = np.asarray(th)
    u = [np.cos(th), np.sin(th)]
    v = [-u[1], u[0]]

    r = E(x, list(_circle_taylor(th, 3)))
    e, e1, e2, e3 = (math.factorial(m) * taylor_coefficient(r, m) for m in range(4))
    c = 4.0 * e1 + e3
    t3 = {idx: c * v[idx[0]] * v[idx[1]] * v[idx[2]]
          for idx in combinations_with_replacement(range(2), 3)}
    T3 = [[[t3[tuple(sorted((i, j, k)))] for k in range(2)] for j in range(2)] for i in range(2)]

    # x1 and x2 seeded on one leading axis (the rows of the identity),
    # outside the theta-jet; d[m][A] is d_A of the m-th theta-derivative
    s = np.eye(2).reshape((2, 2) + (1,) * len(np.broadcast_shapes(*map(np.shape, x), th.shape)))
    r = E([Dual(x[A], s[A]) for A in range(2)], list(_circle_taylor(th, 2)))
    d = [np.broadcast_to(math.factorial(m) * partial(taylor_coefficient(r, m)), (2,) + e.shape)
         for m in range(3)]
    X1 = [d[0][A] for A in range(2)]
    grads = [_gradient(u, v, d[0][A], d[1][A]) for A in range(2)]
    hessians = [_hessian(u, v, d[0][A], d[1][A], d[2][A]) for A in range(2)]
    return MetricJets(
        F=np.sqrt(e), u=u, v=v,
        T1=_gradient(u, v, e, e1), T2=_hessian(u, v, e, e1, e2), T3=T3, X1=X1,
        X2=[[grads[A][i] for A in range(2)] for i in range(2)],
        X3=[[[hessians[A][i][j] for A in range(2)] for j in range(2)] for i in range(2)])
