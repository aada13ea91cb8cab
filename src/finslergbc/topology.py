"""Sections with isolated zeros: the built-in vector-field zoo, local
degrees by winding, and Poincare-Hopf bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ad
from .ad import Dual, partial, value
from .errors import DomainError, SamplingError, TopologyError, ValidationError
from .manifolds import Atlas

__all__ = [
    "SectionField",
    "ZeroRecord",
    "rotational_field",
    "height_gradient_field",
    "constant_field",
    "stereographic_power_field",
    "custom_field",
    "local_field",
    "find_zeros",
    "local_degree",
    "poincare_hopf_sum",
    "induced_section",
]


@dataclass
class SectionField:
    """A tangent-bundle section given per chart as X(x) -> (X^1, X^2);
    component functions accept dual numbers and numpy arrays.  Doubles as
    the induced sphere-bundle section via ``theta`` / ``theta_grad``."""

    atlas: Atlas
    components: dict
    label: str = "field"

    def value(self, chart: str, x1, x2):
        return self.components[chart](x1, x2)

    def theta(self, chart: str, x1, x2):
        v1, v2 = self.value(chart, x1, x2)
        return np.arctan2(np.asarray(v2, dtype=float), np.asarray(v1, dtype=float))

    def theta_grad(self, chart: str, x1, x2):
        """d theta_X / dx by forward AD:  (X1 dX2 - X2 dX1) / |X|^2."""
        out = []
        for axis in range(2):
            a1 = Dual(np.asarray(x1, dtype=float), 1.0 if axis == 0 else 0.0)
            a2 = Dual(np.asarray(x2, dtype=float), 1.0 if axis == 1 else 0.0)
            v1, v2 = self.value(chart, a1, a2)
            num = value(v1) * value(partial(v2)) - value(v2) * value(partial(v1))
            out.append(num / (value(v1) ** 2 + value(v2) ** 2))
        return out[0], out[1]


@dataclass
class ZeroRecord:
    """One isolated zero of a section."""

    chart: str
    location: tuple
    degree: int | None = None
    epsilon_schedule: tuple = (0.2, 0.1, 0.05)


# ---------------------------------------------------------------------------
# field zoo


def rotational_field(atlas: Atlas) -> SectionField:
    """The z-axis rotation field; zeros of degree +1 at both poles."""
    if atlas.name != "sphere":
        raise ValidationError("rotational field lives on the sphere")
    comps = {
        "south": lambda u, v: (-1.0 * v, u),
        "north": lambda u, v: (v, -1.0 * u),
    }
    return SectionField(atlas, comps, "rotational")


def height_gradient_field(atlas: Atlas) -> SectionField:
    """Round-metric gradient of the height function Z: the chart field is
    +x on the south chart and -x on the north chart; two +1 zeros."""
    if atlas.name != "sphere":
        raise ValidationError("height gradient lives on the sphere")
    comps = {
        "south": lambda u, v: (u + 0.0 * v, v + 0.0 * u),
        "north": lambda u, v: (-1.0 * u, -1.0 * v),
    }
    return SectionField(atlas, comps, "height_gradient")


def constant_field(atlas: Atlas, c=(1.0, 0.5)) -> SectionField:
    if atlas.name != "torus":
        raise ValidationError("constant field lives on the torus")
    comps = {"torus": lambda u, v: (c[0] + 0.0 * u, c[1] + 0.0 * v)}
    return SectionField(atlas, comps, "constant")


def stereographic_power_field(atlas: Atlas, k: int) -> SectionField:
    """Complex field z^k on the south chart; transforms to -w^{2-k} in the
    north chart, so it is a global smooth section only for 0 <= k <= 2."""
    if atlas.name != "sphere":
        raise ValidationError("stereographic power field lives on the sphere")
    if not 0 <= k <= 2:
        raise ValidationError("stereographic power needs 0 <= k <= 2")

    def cpow(u, v, p):
        re, im = 1.0, 0.0
        for _ in range(p):
            re, im = re * u - im * v, re * v + im * u
        return re, im

    def south(u, v):
        re, im = cpow(u, v, k)
        return re + 0.0 * u, im + 0.0 * u

    def north(u, v):
        re, im = cpow(u, v, 2 - k)
        return -1.0 * re + 0.0 * u, -1.0 * im + 0.0 * u

    return SectionField(atlas, {"south": south, "north": north}, f"z^{k}")


def custom_field(atlas: Atlas, exprs: dict, label: str = "custom") -> SectionField:
    """Per-chart component expressions in (u, v), e.g. "u**2 - v**2".

    Expressions are compiled by ``ad.expression`` (arithmetic and the
    ad-aware sin, cos, sqrt, exp, log); global consistency across charts is
    the caller's problem.
    """

    def make(pair):
        e1, e2 = (ad.expression(src, ("u", "v")) for src in pair)
        return lambda u, v: (e1(u=u, v=v), e2(u=u, v=v))

    return SectionField(atlas, {c: make(p) for c, p in exprs.items()}, label)


def local_field(atlas: Atlas, chart: str, kind: str) -> SectionField:
    """Chart-local model fields around the chart center, for boundary
    integral studies: identity (+1), reflection (-1), complex square (+2)."""
    table = {
        "deg_plus1": lambda u, v: (u, v),
        "deg_minus1": lambda u, v: (u, -1.0 * v),
        "deg_plus2": lambda u, v: (u * u - v * v, 2.0 * u * v),
    }
    if kind not in table:
        raise ValidationError(f"unknown local field kind {kind!r}")
    return SectionField(atlas, {chart: table[kind]}, kind)


# ---------------------------------------------------------------------------
# zeros and degrees


def find_zeros(X: SectionField, grid_density: int = 48, threshold: float = 0.3,
               epsilon_schedule=(0.2, 0.1, 0.05)) -> list[ZeroRecord]:
    """Grid scan for |X| minima inside each chart region, Newton-refined
    to |X| < 1e-12 and deduplicated through the atlas embedding."""
    atlas = X.atlas
    records: list[ZeroRecord] = []
    embedded: list[np.ndarray] = []
    for chart in X.components:
        (lo1, hi1), (lo2, hi2) = atlas.region_box(chart)
        u = np.linspace(lo1, hi1, grid_density)
        v = np.linspace(lo2, hi2, grid_density)
        U, V = np.meshgrid(u, v, indexing="ij")
        v1, v2 = X.value(chart, U.ravel(), V.ravel())
        mag = np.hypot(np.asarray(v1, dtype=float), np.asarray(v2, dtype=float))
        mag = np.broadcast_to(mag, U.ravel().shape)  # constant components collapse
        scale = max(float(np.median(mag)), 1e-30)
        for idx in np.nonzero(mag < threshold * scale)[0]:
            x0 = (float(U.ravel()[idx]), float(V.ravel()[idx]))
            refined = _newton_zero(X, chart, x0)
            if refined is None or not atlas.in_region(chart, refined):
                continue
            # zeros are isolated with separation above the excision diameter;
            # a degenerate (higher-degree) zero is located only to ~sqrt of
            # the |X| tolerance, so deduplicate at a much coarser scale
            p = atlas.embed(chart, refined)
            if any(np.linalg.norm(p - q) < 1e-3 for q in embedded):
                continue
            embedded.append(p)
            records.append(ZeroRecord(chart, tuple(refined),
                                      epsilon_schedule=tuple(epsilon_schedule)))
    for rec in records:
        rec.degree = local_degree(X, rec, radius=0.5 * min(rec.epsilon_schedule))
    return records


def _newton_zero(X: SectionField, chart: str, x0, max_iter: int = 40):
    u, v = float(x0[0]), float(x0[1])
    for _ in range(max_iter):
        du = Dual(u, 1.0), Dual(v, 0.0)
        dv = Dual(u, 0.0), Dual(v, 1.0)
        f1u, f2u = X.value(chart, *du)
        f1v, f2v = X.value(chart, *dv)
        f = np.array([value(f1u), value(f2u)], dtype=float)
        if np.hypot(*f) < 1e-12:
            return (u, v)
        J = np.array(
            [[value(partial(f1u)), value(partial(f1v))],
             [value(partial(f2u)), value(partial(f2v))]],
            dtype=float,
        )
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if abs(det) < 1e-14:
            return None
        step = np.linalg.solve(J, f)
        u, v = u - step[0], v - step[1]
        if not (np.isfinite(u) and np.isfinite(v)):
            return None
    return None


def local_degree(X: SectionField, zero: ZeroRecord, radius: float,
                 samples: int = 1024) -> int:
    """Winding number of X/|X| around a coordinate circle at the zero.

    Angle increments are accumulated sample to sample; any increment of
    pi/2 or more triggers a sampling error, and the total must snap to an
    integer multiple of 2 pi within 1e-6."""
    samples = max(samples, 256)
    phi = np.linspace(0.0, 2.0 * math.pi, samples + 1)
    u = zero.location[0] + radius * np.cos(phi)
    v = zero.location[1] + radius * np.sin(phi)
    v1, v2 = X.value(zero.chart, u, v)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    mag = np.hypot(v1, v2)
    if float(np.min(mag)) <= 1e-13:
        raise DomainError("section vanishes on the probe circle; shrink the radius")
    ang = np.arctan2(v2, v1)
    inc = np.diff(ang)
    inc = (inc + math.pi) % (2.0 * math.pi) - math.pi
    if float(np.max(np.abs(inc))) >= 0.5 * math.pi:
        raise SamplingError("winding increments too large; refine the circle sampling")
    total = float(np.sum(inc)) / (2.0 * math.pi)
    snapped = round(total)
    if abs(total - snapped) > 1e-6:
        raise SamplingError(f"winding number {total} does not snap to an integer")
    return int(snapped)


def poincare_hopf_sum(records) -> int:
    """Sum of local degrees; the generalized Poincare-Hopf count."""
    total = 0
    for rec in records:
        if rec.degree is None:
            raise TopologyError("unresolved local degree in the record list")
        total += rec.degree
    return total


def check_euler_characteristic(records, atlas: Atlas) -> int:
    total = poincare_hopf_sum(records)
    if total != atlas.chi:
        raise TopologyError(
            f"degree sum {total} does not match chi({atlas.name}) = {atlas.chi}"
        )
    return total


def induced_section(X: SectionField, metric, x, chart: str) -> tuple:
    """The sphere-bundle point (x, theta) under [X]; rejects zeros."""
    v1, v2 = X.value(chart, float(x[0]), float(x[1]))
    v1, v2 = float(value(v1)), float(value(v2))
    if math.hypot(v1, v2) == 0.0:
        raise DomainError("induced section undefined at a zero of X")
    return (float(x[0]), float(x[1])), math.atan2(v2, v1)
