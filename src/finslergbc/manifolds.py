"""Built-in atlases (sphere, torus) and the metric zoo.

The sphere carries two stereographic charts glued along the equator; the
north chart flips one coordinate so the transition b = 1/z (complex) is
orientation preserving.  Integration regions split the manifold at the
equator into the two closed unit disks, so no partition of unity enters
any integral.
"""

from __future__ import annotations

import math
import random
from itertools import permutations

import numpy as np

from . import ad
from .errors import InvalidMetricError, ValidationError
from .metric import FinslerMetric, MinkowskiNorm, euclidean_norm, quartic_norm, riemannian_norm

__all__ = [
    "Atlas",
    "sphere_atlas",
    "torus_atlas",
    "ATLASES",
    "METRICS",
    "install_metric",
    "certify_metric",
]


class Atlas:
    """Chart bookkeeping for a closed oriented surface."""

    def __init__(self, name: str, chart_ids: tuple, chi: int):
        self.name = name
        self.chart_ids = chart_ids
        self.chi = chi

    # --- chart transitions -------------------------------------------------
    def transition(self, src: str, dst: str, x):
        """(x1, x2) in chart dst of the points x of chart src (arrays or
        dual numbers).  On the sphere both ways are 1/z in the north
        chart's flipped coordinate: (x1, -x2) / |x|^2."""
        x1, x2 = x[0], x[1]
        if src == dst or self.name != "sphere":
            return x1, x2
        r2 = x1 * x1 + x2 * x2
        return x1 / r2, -x2 / r2

    def transition_jacobian(self, src: str, dst: str, x):
        """J[i, k] = d(transition)_i / dx_k, from one pass of ``transition``
        with x1 and x2 seeded side by side (``ad.seed_pair``); the batch
        axes of x trail the two matrix axes."""
        x1, x2 = np.asarray(x[0], dtype=float), np.asarray(x[1], dtype=float)
        shape = (2,) + np.broadcast_shapes(x1.shape, x2.shape)
        return np.stack([np.broadcast_to(ad.partial(c), shape)
                         for c in self.transition(src, dst, ad.seed_pair(x1, x2))])

    # --- embeddings (used for cross-chart deduplication) --------------------
    def embed(self, chart: str, x):
        x1 = np.asarray(x[0], dtype=float)
        x2 = np.asarray(x[1], dtype=float)
        if self.name == "sphere":
            return np.stack(self.global_scalars(chart, x1, x2), axis=-1)
        return np.stack(
            [np.cos(x1), np.sin(x1), np.cos(x2), np.sin(x2)], axis=-1
        )

    def global_scalars(self, chart: str, x1, x2):
        """Three smooth global functions of the base point, expressed in
        chart coordinates; accept dual/array inputs."""
        if self.name == "sphere":
            r2 = x1 * x1 + x2 * x2
            X = 2.0 * x1 / (1.0 + r2)
            Y = 2.0 * x2 / (1.0 + r2)
            Z = (r2 - 1.0) / (1.0 + r2)
            if chart == "north":
                return X, -1.0 * Y, -1.0 * Z
            return X, Y, Z
        return ad.cos(x1), ad.sin(x1), ad.cos(x2)

    # --- integration regions ------------------------------------------------
    def in_region(self, chart: str, x):
        """Whether each point of x lies in the chart's integration region;
        x holds scalars or arrays."""
        x1 = np.asarray(x[0], dtype=float)
        x2 = np.asarray(x[1], dtype=float)
        if self.name == "sphere":
            return x1 ** 2 + x2 ** 2 <= 1.0 + 1e-12
        return np.ones(np.broadcast_shapes(x1.shape, x2.shape), dtype=bool)

    def region_box(self, chart: str):
        if self.name == "sphere":
            return (-1.0, 1.0), (-1.0, 1.0)
        return (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)


def sphere_atlas() -> Atlas:
    return Atlas("sphere", ("south", "north"), chi=2)


def torus_atlas() -> Atlas:
    return Atlas("torus", ("torus",), chi=0)


# The built-in atlases by name: the choices of the CLI's --manifold.
ATLASES = {"sphere": sphere_atlas, "torus": torus_atlas}


# ---------------------------------------------------------------------------
# metric zoo


def _conformal_round(x, y):
    return _round_alpha(1.0 + (x[0] * x[0] + x[1] * x[1]), y)


def _round_alpha(q, y):
    """The round metric 2|y|/q at a base point with q = 1 + |x|^2."""
    return (2.0 / q) * ad.sqrt(y[0] * y[0] + y[1] * y[1])


def _randers_sphere_metric(atlas: Atlas, eps: float) -> FinslerMetric:
    """Round alpha plus eps times the rotational Killing one-form; the
    alpha-norm of beta is eps * 2|x|/(1+|x|^2) <= eps < 1 globally.

    F = alpha + b_1(x) y^1 + b_2(x) y^2 with alpha the round metric and
    b = eps sign lambda (-x2, x1), lambda = 4/(1+|x|^2)^2 the conformal
    factor: b is formed on the base points before it meets the fiber
    arrays of y."""
    if not 0.0 < eps < 1.0:
        raise InvalidMetricError("randers parameter must satisfy 0 < eps < 1")

    def make(chart):
        sign = 1.0 if chart == "south" else -1.0

        def fn(x, y):
            q = 1.0 + (x[0] * x[0] + x[1] * x[1])
            c = eps * sign * 4.0 / q ** 2
            return _round_alpha(q, y) + (-1.0 * c * x[1]) * y[0] + (c * x[0]) * y[1]

        return fn

    return FinslerMetric(
        atlas, {c: make(c) for c in atlas.chart_ids}, label=f"randers({eps})"
    )


def _norm_metric(atlas: Atlas, norm: MinkowskiNorm) -> FinslerMetric:
    charts = {c: (lambda x, y: norm.fn(y)) for c in atlas.chart_ids}
    return FinslerMetric(atlas, charts, label=norm.label)


# The metric zoo: every name install_metric takes, and the choices of the
# CLI's --metric.
METRICS = ("euclidean", "riemannian", "round_sphere", "randers", "quartic")


def install_metric(atlas: Atlas, zoo_id: str, params: dict | None = None,
                   certify: bool = True, ehresmann=None) -> FinslerMetric:
    """Instantiate a zoo metric (one of METRICS) on the atlas, which it
    carries as ``metric.atlas``, and certify it before any pipeline
    consumes it.  ``ehresmann``, an explicit table ``(chart, x, y) ->
    N[j][A]``, replaces the geodesic spray as the horizontal splitting
    (None keeps it); this is the one place a metric gets a table."""
    params = params or {}
    if zoo_id not in METRICS:
        raise ValidationError(f"unknown metric zoo id: {zoo_id!r}")
    if zoo_id in ("round_sphere", "randers") and atlas.name != "sphere":
        raise ValidationError(f"the {zoo_id} zoo entry lives on the sphere atlas")
    if zoo_id == "round_sphere":
        metric = FinslerMetric(atlas, dict.fromkeys(atlas.chart_ids, _conformal_round),
                               label="round_sphere")
    elif zoo_id == "randers":
        metric = _randers_sphere_metric(atlas, float(params.get("eps", 0.1)))
    elif zoo_id == "riemannian":  # the default G is not euclidean's identity
        metric = _norm_metric(atlas, riemannian_norm(params.get("G", [[2.0, 0.3], [0.3, 1.0]])))
    elif zoo_id == "quartic":
        metric = _norm_metric(atlas, quartic_norm(float(params.get("eps", 0.05))))
    else:
        metric = _norm_metric(atlas, euclidean_norm())
    if certify:
        certify_metric(metric)
    metric.ehresmann = ehresmann
    return metric


CERTIFY_TOL = 1e-9  # relative, of certification's homogeneity and chart checks


def certify_metric(metric: FinslerMetric, samples: int = 60, seed: int = 7) -> None:
    """Fail fast unless F is finite and positive, positively homogeneous and
    strictly convex (positive definite y-Hessian of F^2/2) at random samples
    of the region boxes of ``metric.atlas``, and, on an atlas with several
    charts, the same function on the sphere bundle: F_dst(phi(x), J(x) y) =
    F_src(x, y), with phi and J the atlas's ``transition`` and its Jacobian,
    at overlap samples 0.5 <= |x| <= 2 drawn after the axiom samples.  Each
    check holds to CERTIFY_TOL relative and is written so that a NaN fails
    it.  The samples come from the standard library's ``random.Random(seed)``,
    which numpy has already imported, so certification does not load
    ``numpy.random``."""
    atlas = metric.atlas
    rng = random.Random(seed)
    # axis rays catch norms that degenerate exactly on coordinate directions
    probes = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    for chart in metric.charts:
        (lo1, hi1), (lo2, hi2) = atlas.region_box(chart)
        draws = [(rng.uniform(lo1, hi1), rng.uniform(lo2, hi2),
                  probes[k] if k < len(probes) else rng.uniform(0.0, 2.0 * math.pi),
                  rng.uniform(0.1, 10.0)) for k in range(samples)]
        x1, x2, th, lam = (np.array(c) for c in zip(*draws))
        y = [np.cos(th), np.sin(th)]
        F1 = np.asarray(metric.F(chart, [x1, x2], y), dtype=float)
        if not np.all(np.isfinite(F1) & (F1 > 0.0)):
            raise InvalidMetricError(f"{metric.label}: F not finite and positive at sample")
        Flam = np.asarray(metric.F(chart, [x1, x2], [lam * y[0], lam * y[1]]), dtype=float)
        if not np.all(np.abs(Flam - lam * F1) <= CERTIFY_TOL * np.maximum(1.0, np.abs(Flam))):
            raise InvalidMetricError(f"{metric.label}: homogeneity violated")
        g = metric.norm_at(chart, [x1, x2]).fundamental(y)
        if not np.all(np.linalg.eigvalsh(np.moveaxis(g, -1, 0)) > 0.0):
            raise InvalidMetricError(f"{metric.label}: Hessian not positive definite")
    for src, dst in permutations(metric.charts, 2):
        r, ph, th = (np.array([rng.uniform(lo, hi) for _ in range(samples)])
                     for lo, hi in ((0.5, 2.0), (0.0, 2.0 * math.pi), (0.0, 2.0 * math.pi)))
        x = [r * np.cos(ph), r * np.sin(ph)]
        y = [np.cos(th), np.sin(th)]
        J = atlas.transition_jacobian(src, dst, x)
        F_src = np.asarray(metric.F(src, x, y), dtype=float)
        F_dst = np.asarray(metric.F(dst, atlas.transition(src, dst, x),
                                    [J[i, 0] * y[0] + J[i, 1] * y[1] for i in range(2)]),
                           dtype=float)
        if not np.all(np.abs(F_dst - F_src) <= CERTIFY_TOL * np.maximum(1.0, np.abs(F_src))):
            raise InvalidMetricError(
                f"{metric.label}: charts {src} and {dst} disagree on their overlap")
