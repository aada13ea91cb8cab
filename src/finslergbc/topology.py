"""Sections with isolated zeros: the built-in vector-field zoo, local
degrees by winding, and Poincare-Hopf bookkeeping."""

from __future__ import annotations

import math

import numpy as np

from . import ad
from .ad import partial, value
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
]


class SectionField:
    """A tangent-bundle section given per chart as X(x) -> (X^1, X^2);
    component functions accept dual numbers and numpy arrays.  Doubles as
    the induced sphere-bundle section via ``theta`` / ``theta_grad``."""

    def __init__(self, atlas: Atlas, components: dict, label: str = "field"):
        self.atlas = atlas
        self.components = components
        self.label = label

    def value(self, chart: str, x1, x2):
        return self.components[chart](x1, x2)

    def theta(self, chart: str, x1, x2):
        v1, v2 = self.value(chart, x1, x2)
        return np.arctan2(np.asarray(v2, dtype=float), np.asarray(v1, dtype=float))

    def theta_grad(self, chart: str, x1, x2):
        """d theta_X / dx by forward AD:  (X1 dX2 - X2 dX1) / |X|^2, from
        one pass with x1 and x2 seeded on a leading axis of length 2."""
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        v1, v2 = self.value(chart, *ad.seed_pair(x1, x2))
        X1, X2 = value(v1), value(v2)
        num = X1 * value(partial(v2)) - X2 * value(partial(v1))
        shape = (2,) + np.broadcast_shapes(x1.shape, x2.shape)
        grad = np.broadcast_to(num / (X1 ** 2 + X2 ** 2), shape)
        return grad[0], grad[1]


class ZeroRecord:
    """One isolated zero of a section."""

    def __init__(self, chart: str, location: tuple, degree: int | None = None,
                 epsilon_schedule: tuple = (0.2, 0.1, 0.05)):
        self.chart = chart
        self.location = location
        self.degree = degree
        self.epsilon_schedule = epsilon_schedule


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


def _median(a) -> float:
    """np.median of a 1-D float array, bit for bit (NaN if any entry is),
    by the same partition and mean but without the NaN check through
    which np.median imports numpy.ma."""
    n = a.size
    k = n // 2
    part = np.partition(a, [k, -1] if n % 2 else [k - 1, k, -1])
    if np.isnan(part[-1]):
        return math.nan
    return float(np.mean(part[k - 1 + n % 2:k + 1]))


def find_zeros(X: SectionField, epsilon_schedule=(0.2, 0.1, 0.05)) -> list[ZeroRecord]:
    """Grid scan for |X| minima inside each chart region, Newton-refined
    to |X| < 1e-12 and deduplicated through the atlas embedding.  Each
    chart's region box is sampled on a 48 x 48 grid, and a grid point
    seeds Newton's method where |X| is below 0.3 times the median of |X|
    over the grid.  The seeds keep their grid order, so the first seed
    that refines to a zero gives its recorded location."""
    atlas = X.atlas
    records: list[ZeroRecord] = []
    embedded: list[np.ndarray] = []
    for chart in X.components:
        (lo1, hi1), (lo2, hi2) = atlas.region_box(chart)
        u = np.linspace(lo1, hi1, 48)
        v = np.linspace(lo2, hi2, 48)
        U, V = np.meshgrid(u, v, indexing="ij")
        v1, v2 = X.value(chart, U.ravel(), V.ravel())
        mag = np.hypot(np.asarray(v1, dtype=float), np.asarray(v2, dtype=float))
        mag = np.broadcast_to(mag, U.ravel().shape)  # constant components collapse
        scale = max(_median(mag), 1e-30)
        seeds = np.nonzero(mag < 0.3 * scale)[0]
        zu, zv = _newton_zeros(X, chart, U.ravel()[seeds], V.ravel()[seeds])
        keep = atlas.in_region(chart, (zu, zv))
        zu, zv = zu[keep], zv[keep]
        # zeros are isolated with separation above the excision diameter;
        # a degenerate (higher-degree) zero is located only to ~sqrt of
        # the |X| tolerance, so deduplicate at a much coarser scale
        p = atlas.embed(chart, (zu, zv))
        dup = np.zeros(len(p), dtype=bool)
        for q in embedded:
            dup |= np.linalg.norm(p - q, axis=-1) < 1e-3
        while not dup.all():
            i = int(np.argmin(dup))  # the first seed left in grid order
            dup |= np.linalg.norm(p - p[i], axis=-1) < 1e-3
            embedded.append(p[i])
            records.append(ZeroRecord(chart, (float(zu[i]), float(zv[i])),
                                      epsilon_schedule=tuple(epsilon_schedule)))
    for rec in records:
        rec.degree = local_degree(X, rec, radius=0.5 * min(rec.epsilon_schedule))
    return records


def _newton_zeros(X: SectionField, chart: str, u, v):
    """Newton's method on X from every seed (u[s], v[s]) at once, with one
    evaluation of X per iteration: u and v are duals seeded on one leading
    axis of length 2, so the pass carries both Jacobian columns.  The 2x2
    step is solved by Cramer's rule.  A seed leaves the batch once
    |X| < 1e-12 (it is returned), at a Jacobian with |det| < 1e-14, at a
    non-finite step, or after 40 iterations (it is dropped).  The
    converged seeds come back in their input order."""
    idx = np.arange(np.size(u))
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    done = np.zeros(idx.size, dtype=bool)
    zu, zv = np.empty_like(u), np.empty_like(v)
    for _ in range(40):
        if idx.size == 0:
            break
        f1, f2 = X.value(chart, *ad.seed_pair(u, v))
        f1v, f2v = (np.broadcast_to(value(f), u.shape) for f in (f1, f2))
        (a, b), (c, d) = (np.broadcast_to(partial(f), (2,) + u.shape) for f in (f1, f2))
        conv = np.hypot(f1v, f2v) < 1e-12
        done[idx[conv]] = True
        zu[idx[conv]], zv[idx[conv]] = u[conv], v[conv]
        det = a * d - b * c
        go = ~conv & (np.abs(det) >= 1e-14)
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            u = u[go] - (f1v[go] * d[go] - b[go] * f2v[go]) / det[go]
            v = v[go] - (a[go] * f2v[go] - c[go] * f1v[go]) / det[go]
        idx = idx[go]
        fin = np.isfinite(u) & np.isfinite(v)
        u, v, idx = u[fin], v[fin], idx[fin]
    return zu[done], zv[done]


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
