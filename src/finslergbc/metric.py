"""Finsler and Minkowski metric kernels.

Everything here reduces to derivatives of E = F^2 taken by forward AD.
On a surface, homogeneity fixes every y-derivative at y by the theta-jet
of E or F along the unit circle y = (cos theta, sin theta) through the
angle of y, read off a truncated Taylor series in theta (``ad.Jet``):
``MinkowskiNorm.fundamental`` and ``cartan`` evaluate the norm once on
such a jet, ``metric_jets`` gives g, A and the mixed x-y jets from two
evaluations, and ``fiber_volume_form`` the indicatrix volume density
from one.  A base coordinate ``metric_jets`` seeds is a ``Dual`` outside
the theta-jet, never inside it; the fiber volume, at one node count per
chart, takes real or complex base coordinates, so it is differentiated
by complex step.  Every norm and metric here lives on a surface (rank
2).  Evaluations accept numpy arrays in every coordinate slot, so one
call covers a whole batch of points.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import numpy as np

from . import ad
from .ad import Jet, partial, taylor_coefficient
from .errors import DomainError, InvalidMetricError
from .quadrature import in_blocks, nested_periodic_rule

__all__ = [
    "MinkowskiNorm",
    "FinslerMetric",
    "MetricJets",
    "euclidean_norm",
    "riemannian_norm",
    "randers_norm",
    "quartic_norm",
    "norm_family",
    "sum_norms",
    "metric_jets",
    "fiber_volume_form",
    "fiber_volume",
    "size_fiber_rule",
]


# ---------------------------------------------------------------------------
# theta-jets (Taylor)


def _circle_taylor(theta, degree: int):
    """(cos theta, sin theta) as Taylor jets of the given degree in theta,
    built from the four arrays +-cos theta, +-sin theta: d^m cos theta =
    cos(theta + m pi/2) cycles through them, and sin theta = cos(theta +
    3 pi/2); the m-th coefficient is the m-th derivative over m!."""
    c, s = np.cos(theta), np.sin(theta)
    d = [c, -s, -c, s]
    return tuple(Jet([d[(m + shift) % 4] / math.factorial(m) for m in range(degree + 1)])
                 for shift in (0, 3))


# ---------------------------------------------------------------------------
# norms


class MinkowskiNorm:
    """A Minkowski norm on R^2: smooth away from 0, positively
    1-homogeneous, with positive definite y-Hessian of F^2/2."""

    def __init__(self, fn, label: str = "norm"):
        self.fn = fn
        self.label = label

    def __call__(self, y):
        return self.fn(list(y))

    def fundamental(self, y) -> np.ndarray:
        """g_ij = (1/2) d^2 F^2 / dy_i dy_j at y; batch axes of y trail.  g is
        0-homogeneous, so it is read off the theta-jet of F^2 at the angle
        of y (``_hessian``)."""
        _require_nonzero(y)
        th = np.arctan2(y[1], y[0])
        r = self._E([], list(_circle_taylor(th, 2)))
        e = [math.factorial(m) * taylor_coefficient(r, m) for m in range(3)]
        return 0.5 * np.array(_hessian([np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)], *e))

    def cartan(self, y) -> np.ndarray:
        """A_ijk = (F/4) d^3 F^2 / dy_i dy_j dy_k at y; batch axes of y trail.
        A is 0-homogeneous, so it is read off the theta-jet of F^2 at the
        angle of y (``_third``)."""
        _require_nonzero(y)
        th = np.arctan2(y[1], y[0])
        r = self._E([], list(_circle_taylor(th, 3)))
        e, e1, _, e3 = (math.factorial(m) * taylor_coefficient(r, m) for m in range(4))
        return 0.25 * np.sqrt(e) * np.array(_third([-np.sin(th), np.cos(th)], 4.0 * e1 + e3))

    def _E(self, x, y):
        return self.fn(y) ** 2


def _require_nonzero(y) -> None:
    s = sum(np.abs(np.asarray(c, dtype=float)) for c in y)
    # written so that a NaN fails it; an infinite component makes s infinite
    if not (np.all(np.isfinite(s)) and float(np.min(s)) > 0.0):
        raise DomainError("metric quantities need a finite y != 0 (slit bundle)")


def euclidean_norm() -> MinkowskiNorm:
    return MinkowskiNorm(lambda y: ad.sqrt(sum(c * c for c in y)), "euclidean")


def _surface_matrix(G, what: str) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if G.shape != (2, 2):
        raise InvalidMetricError(f"{what} needs a 2x2 matrix on a surface, got shape {G.shape}")
    return G


def _quadratic(G, y):
    """y^T G y."""
    return sum(G[i, j] * y[i] * y[j] for i in range(2) for j in range(2))


# Each norm kind is a check of its data and a formula.  A check takes one
# data set or a stack of them (leading axes); a formula's G[i, j], b[i] and
# mix may be arrays that broadcast against the batch axes of the rays.


def _check_riemannian(G) -> None:
    if not np.all(np.isclose(G, np.swapaxes(G, -1, -2))) or np.any(np.linalg.eigvalsh(G) <= 0):
        raise InvalidMetricError("riemannian norm needs a symmetric positive matrix")


def _check_randers(b, G) -> None:
    if np.any(b[..., None, :] @ np.linalg.inv(G) @ b[..., None] >= 1.0):
        raise InvalidMetricError("randers data rejected: |beta|_alpha >= 1")


def _riemannian(G):
    return lambda y: ad.sqrt(_quadratic(G, y))


def _randers(b, G):
    """alpha + beta with alpha = sqrt(y^T G y), beta = b . y."""
    alpha = _riemannian(G)
    return lambda y: alpha(y) + sum(b[i] * y[i] for i in range(2))


def _quartic(mix):
    def fn(y):
        q = sum(c ** 4 for c in y)
        s = sum(c * c for c in y)
        return (q + mix * s * s) ** 0.25

    return fn


def riemannian_norm(G) -> MinkowskiNorm:
    G = _surface_matrix(G, "riemannian norm")
    _check_riemannian(G)
    return MinkowskiNorm(_riemannian(G), "riemannian")


def randers_norm(b, G=None) -> MinkowskiNorm:
    """alpha + beta norm with alpha = sqrt(y^T G y), beta = b . y."""
    b = np.asarray(b, dtype=float)
    if b.shape != (2,):
        raise InvalidMetricError(f"randers b needs 2 components on a surface, got shape {b.shape}")
    G = _surface_matrix(np.eye(2) if G is None else G, "randers G")
    _check_randers(b, G)
    return MinkowskiNorm(_randers(b, G), "randers")


def quartic_norm(mix: float = 0.05) -> MinkowskiNorm:
    """F = (sum y_i^4 + mix (sum y_i^2)^2)^{1/4}; mix > 0 restores strict
    convexity on the axes, mix = 0 is the raw quartic (valid off-axis)."""
    return MinkowskiNorm(_quartic(mix), f"quartic({mix})")


def norm_family(kind, G, b, mix) -> MinkowskiNorm:
    """One surface norm per item of a batch, evaluated on rays of batch
    shape (items, rays per item): item r is riemannian_norm(G[r]) where
    kind[r] is 0, randers_norm(b[r], G[r]) where it is 1 and
    quartic_norm(mix[r]) where it is 2, and its data passes the check
    that constructor makes (data a kind does not read is ignored).  Each
    formula runs once, on the rays of its own items."""
    kind = np.asarray(kind)
    G, b, mix = (np.asarray(a, dtype=float) for a in (G, b, mix))
    items = [np.flatnonzero(kind == k) for k in range(3)]
    if sum(i.size for i in items) != kind.size:
        raise InvalidMetricError("a norm family's kinds are 0, 1 and 2")
    _check_riemannian(G[items[0]])
    _check_randers(b[items[1]], G[items[1]])

    def data(a, i):
        """The data of items i, the item axis last, before a ray axis."""
        return np.moveaxis(a[i], 0, -1)[..., None]

    forms = [_riemannian(data(G, items[0])), _randers(data(b, items[1]), data(G, items[1])),
             _quartic(data(mix, items[2]))]

    def fn(y):
        parts = [(i, form([_rows(c, i) for c in y])) for i, form in zip(items, forms) if i.size]
        return _merged(parts, kind.size)

    return MinkowskiNorm(fn, "family")


def _rows(x, i):
    return Jet([c[i] for c in x.c]) if isinstance(x, Jet) else x[i]


def _merged(parts, n):
    """The items i of each (i, part) in one array or jet of n items."""
    if isinstance(parts[0][1], Jet):
        index = [i for i, _ in parts]
        return Jet([_merged(list(zip(index, cs)), n) for cs in zip(*(p.c for _, p in parts))])
    out = np.empty((n,) + parts[0][1].shape[1:])
    for i, a in parts:
        out[i] = a
    return out


def sum_norms(f1: MinkowskiNorm, f2: MinkowskiNorm) -> MinkowskiNorm:
    """Pointwise sum of two Minkowski norms (again a Minkowski norm)."""
    return MinkowskiNorm(lambda y: f1.fn(y) + f2.fn(y), f"{f1.label}+{f2.label}")


# ---------------------------------------------------------------------------
# chart-local Finsler metrics


class FinslerMetric:
    """Chart-local Finsler metric on a surface: per-chart F(x, y) with all
    arguments accepting dual numbers and the y slots Taylor jets
    (y-derivatives to third order and x-derivatives to first order are
    taken), on the charts of ``atlas``, the ``manifolds.Atlas`` it carries.

    ``ehresmann`` is the horizontal splitting the connection layer takes:
    None for the geodesic spray's, or an explicit table ``(chart, x, y) ->
    N[j][A]`` of arrays, which only ``manifolds.install_metric`` sets."""

    ehresmann = None

    def __init__(self, atlas, charts: dict[str, callable], label: str = "metric"):
        self.atlas = atlas
        self.charts = charts
        self.label = label

    def F(self, chart: str, x, y):
        return self.charts[chart](list(x), list(y))

    def norm_at(self, chart: str, x) -> MinkowskiNorm:
        """Freeze the base point: the fiber Minkowski norm at x.  Array
        slots freeze a batch of base points, matched against the batch
        axes of y."""
        x = [c if np.ndim(c) else float(c) for c in x]
        return MinkowskiNorm(lambda y: self.charts[chart](x, list(y)), f"{self.label}@{chart}")


def _squared(metric: FinslerMetric, chart: str):
    return lambda xx, yy: metric.charts[chart](xx, yy) ** 2


# ---------------------------------------------------------------------------
# indicatrix geometry (n = 2)


def fiber_volume_form(metric: FinslerMetric, x, theta, chart: str):
    """Density rho(theta) with  d nu_x = rho(theta) d theta.

    With f(theta) = F(x, cos theta, sin theta), homogeneity gives
    det g = f^3 (f + f'') and l^1 dl^2/dtheta - l^2 dl^1/dtheta = 1/f^2
    along y = (cos theta, sin theta), so the pulled-back volume form
    sqrt(det g) (l^1 dl^2 - l^2 dl^1) is rho = sqrt((f + f'') / f), read
    off one degree-2 Taylor jet of F in theta: f = c[0], f'' = 2 c[2].
    The slots of x may be complex, as under a complex-step sweep of the
    base point; nothing here casts them to float.
    """
    x = [np.asarray(c) for c in x]
    jet = metric.charts[chart](x, list(_circle_taylor(np.asarray(theta, dtype=float), 2)))
    f, f2 = taylor_coefficient(jet, 0), 2.0 * taylor_coefficient(jet, 2)
    return ad.sqrt((f + f2) / f)


# The most nodes the fiber rule of a chart may take by default.  On the zoo
# Randers metric the fiber density is (1 + s cos psi)^(-1/2), s up to eps,
# and V = 2 pi / AGM(sqrt(1 + s), sqrt(1 - s)); s = eps at |x| = 1, a probe
# of every sphere chart (``size_fiber_rule``), where eps = 0.9 takes 128
# nodes to hold V within 1e-14 of it (test_metric's AGM test) and eps = 0.1
# takes 16.  The quartic torus metric (eps 0.1) needs 256: at x = (0.3,
# 0.2) V moves by 4.3e-4, 4.8e-5, 6.1e-8 and 2.7e-13 of itself from 16 to
# 32, 64, 128 and 256 nodes.
FIBER_ORDER = 256


def fiber_volume(metric: FinslerMetric, x, chart: str, nodes: int = FIBER_ORDER):
    """V(x): Riemannian volume of the indicatrix fiber at each base point.

    x = (x1, x2) holds scalars or arrays, real or complex; the result has
    their broadcast shape.  The density is integrated by the periodic
    trapezoid rule of one even node count, FIBER_ORDER unless given (a
    chart's count comes from ``size_fiber_rule``), summed as the first pass of
    ``quadrature.nested_periodic_rule`` sums it: the even and the odd nodes
    apart, then added.  At one count V is analytic in x, so a complex step
    of it is exact (Squire & Trapp, SIAM Rev. 40(1), 1998).  A point's V
    reads its own row only; the points run in blocks of at most max(1,
    _BLOCK_NODES // nodes) (``quadrature.in_blocks``)."""
    shape = np.broadcast_shapes(*map(np.shape, x))
    flat = [np.broadcast_to(c, shape).reshape(-1) for c in x]
    s = _fiber_sums(metric, flat, chart, 2.0 * math.pi / nodes * np.arange(nodes).reshape(-1, 2).T)
    return ((s[:, 0] + s[:, 1]) * (2.0 * math.pi / nodes)).reshape(shape)


def size_fiber_rule(metric: FinslerMetric, chart: str, cap: int = FIBER_ORDER):
    """(nodes, converged): one fiber node count for the whole chart, from
    the nested periodic rule (``quadrature.nested_periodic_rule``) of at
    most cap nodes on the chart's probes, the 9 x 9 uniform grid over its
    region box in ``metric.atlas``, kept where in_region holds.  It stops
    once, from n/2 to n nodes, no probe's V moves by more than NESTED_TOL
    of itself, converged, or at the cap, unconverged."""
    atlas = metric.atlas
    (lo1, hi1), (lo2, hi2) = atlas.region_box(chart)
    x1, x2 = (a.ravel() for a in np.meshgrid(np.linspace(lo1, hi1, 9), np.linspace(lo2, hi2, 9)))
    keep = atlas.in_region(chart, (x1, x2))
    _, n, converged = nested_periodic_rule(
        lambda th: _fiber_sums(metric, [x1[keep], x2[keep]], chart, th), cap,
        lambda V, half: np.max(np.abs(V - half) / V))
    return n, converged


def _fiber_sums(metric: FinslerMetric, x, chart: str, th):
    """The sums of the fiber density over the last axis of the 2-D node
    array th at the base points x (two 1-D arrays), shape (points, rows of
    th), in blocks of base points (``quadrature.in_blocks``).  Each sum is
    a ufunc reduction over the node axis, so each base point's sum depends
    on its own row alone, not on where the row sits in the batch or on the
    batch size (a matrix-vector product does not promise that)."""
    def block(b):
        rho = fiber_volume_form(metric, [c[b, None, None] for c in x], th, chart)
        return np.add.reduce(np.broadcast_to(rho, x[0][b].shape + th.shape), -1)

    return in_blocks(block, x[0].size, th.size)


# ---------------------------------------------------------------------------
# batched metric jets for the connection pipeline


class MetricJets:
    """All raw derivative tensors of E = F^2 needed downstream, evaluated
    at a batch of sphere-bundle chart points with representative y =
    (cos theta, sin theta).  Indices are python lists, values arrays."""

    def __init__(self, F: np.ndarray, u: list, v: list, T1: list, T2: list, T3: list,
                 X1: list, X2: list, X3: list):
        self.F, self.u, self.v = F, u, v
        self.T1, self.T2, self.T3 = T1, T2, T3
        self.X1, self.X2, self.X3 = X1, X2, X3


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


def _third(v, c) -> list:
    """Third y-derivative at y = u of a function 2-homogeneous in y, c v v v
    with c = 4 e' + e''' from its theta-jet; symmetric entries share one array."""
    t = {idx: c * v[idx[0]] * v[idx[1]] * v[idx[2]]
         for idx in combinations_with_replacement(range(2), 3)}
    return [[[t[tuple(sorted((i, j, k)))] for k in range(2)] for j in range(2)] for i in range(2)]


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

    # x1 and x2 seeded on one leading axis (the rows of the identity),
    # outside the theta-jet; d[m][A] is d_A of the m-th theta-derivative
    r = E(list(ad.seed_pair(*x, th)), list(_circle_taylor(th, 2)))
    d = [np.broadcast_to(math.factorial(m) * partial(taylor_coefficient(r, m)), (2,) + e.shape)
         for m in range(3)]
    X1 = [d[0][A] for A in range(2)]
    grads = [_gradient(u, v, d[0][A], d[1][A]) for A in range(2)]
    hessians = [_hessian(u, v, d[0][A], d[1][A], d[2][A]) for A in range(2)]
    return MetricJets(
        F=np.sqrt(e), u=u, v=v, T1=_gradient(u, v, e, e1), T2=_hessian(u, v, e, e1, e2),
        T3=_third(v, 4.0 * e1 + e3), X1=X1,
        X2=[[grads[A][i] for A in range(2)] for i in range(2)],
        X3=[[[hessians[A][i][j] for A in range(2)] for j in range(2)] for i in range(2)])
