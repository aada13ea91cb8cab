"""Differential-form fields, exterior calculus on coefficient tables, and
all numeric integration (the periodic rule of the fiber circles, boundary
circles, and base regions: polar discs and annuli about a chart centre,
boxes on the torus).  The discs and annuli of one chart are integrated
from one set of samples, those of the polar rule of the smallest annulus
that holds them all.  The angle of that rule, like the fiber circle of
``metric.fiber_volume``, is integrated by one nested periodic trapezoid
rule that sizes itself by doubling (``nested_periodic_rule``).  It works
on plain arrays: a caller that integrates several things side by side
(a value and its derivatives, say) puts them on leading part axes, so
nothing here builds a dual number.

Forms are stored as antisymmetric coefficient tables over ordered axis
subsets of a chart; fields evaluate whole batches of chart points at once,
so every coefficient is a numpy array over the batch.  Chart partials of a
coefficient table come from one of two kernels: ``complex_step_partials``,
exact to rounding, serves the production GBC integrand in one pass per
batch, every direction stacked on a leading axis, and returns the table's
values from that pass; the finite-difference stencil ``central_partials``
serves the exterior derivatives of the identity checks as an independent
oracle, in one pass per chart axis.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .algebra import merge_sign, sort_with_parity

__all__ = [
    "ChartPoints",
    "PointwiseForm",
    "FormField",
    "AnnulusRegion",
    "BoxRegion",
    "FD_STEP",
    "COMPLEX_STEP",
    "central_partials",
    "complex_step_partials",
    "d_from_partials",
    "exterior_derivative",
    "exterior_derivatives",
    "pullback_by_section",
    "base_integral_excised",
    "boundary_circle_integral",
    "gauss_legendre",
    "periodic_rule",
    "nested_periodic_rule",
    "in_blocks",
]

Index = tuple[int, ...]

# The one finite-difference step of the package: central differences at
# FD_STEP and FD_STEP/2, Richardson-combined (see central_partials).
FD_STEP = 1e-4

# The imaginary step of complex_step_partials.  Im f(x + ih) / h = f'(x) +
# O(h^2) involves no difference of nearby values, so h can sit far below
# rounding: the O(h^2) term is then zero in double precision.
COMPLEX_STEP = 1e-30


class QuadratureError(ValueError):
    pass


class ChartPoints:
    """A batch of chart points: 2 coordinate arrays on the base, 3 on the
    sphere bundle (x1, x2, theta).  ``cache`` lets expensive geometry
    evaluations be shared between form fields at the same batch; each
    entry is keyed by the objects that own it (a metric, a connection, a
    form set), so a key holds its owner and no id is reused while the
    entry lives."""

    def __init__(self, chart: str, coords: tuple):
        self.chart = chart
        self.coords = coords
        self.cache = {}

    def cached(self, key, compute):
        """The cache entry at key, made by compute() when it is missing."""
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = compute()
        return hit

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return int(np.broadcast(*self.coords).size)

    @classmethod
    def of(cls, chart: str, *coords) -> "ChartPoints":
        arrs = tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in coords)
        arrs = np.broadcast_arrays(*arrs)
        return cls(chart, tuple(arrs))

    def shifted(self, axis: int, steps) -> "ChartPoints":
        """The batch displaced along one chart axis by each of ``steps``,
        stacked as one batch on a new leading axis: slice s holds the
        points with coords[axis] + steps[s]."""
        base = np.broadcast_arrays(*self.coords)
        coords = [np.stack([c] * len(steps)) for c in base]
        coords[axis] = np.stack([base[axis] + h for h in steps])
        return ChartPoints(self.chart, tuple(coords))


class PointwiseForm:
    """Coefficient table of a form at a batch of points.

    coeffs maps ordered axis tuples to arrays; keys of different lengths
    may coexist (mixed degree), though fields only ever produce one degree.
    """

    __array_ufunc__ = None  # keep numpy from absorbing forms into arrays

    def __init__(self, coeffs: dict[Index, np.ndarray] | None = None):
        self.coeffs = coeffs if coeffs is not None else {}

    def get(self, key: Index, default=0.0):
        return self.coeffs.get(tuple(key), default)

    def add_term(self, key, value) -> None:
        key_s, sign = sort_with_parity(key)
        if sign == 0:
            return
        prev = self.coeffs.get(key_s)
        term = sign * value
        self.coeffs[key_s] = term if prev is None else prev + term

    def __add__(self, other: "PointwiseForm") -> "PointwiseForm":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return PointwiseForm(out)

    def __sub__(self, other: "PointwiseForm") -> "PointwiseForm":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "PointwiseForm":
        return PointwiseForm({k: scalar * v for k, v in self.coeffs.items()})

    def wedge(self, other: "PointwiseForm") -> "PointwiseForm":
        out = PointwiseForm()
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                merged, sign = merge_sign(k1, k2)
                if sign == 0:
                    continue
                prev = out.coeffs.get(merged)
                term = sign * (v1 * v2)
                out.coeffs[merged] = term if prev is None else prev + term
        return out

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.coeffs.values())


class FormField:
    """A degree-k form field on a chart of dimension dim: a pure function
    from ChartPoints to a PointwiseForm coefficient table."""

    def __init__(self, dim: int, degree: int, func):
        self.dim = dim
        self.degree = degree
        self.func = func

    def __call__(self, pts: ChartPoints) -> PointwiseForm:
        return self.func(pts)

    def __add__(self, other: "FormField") -> "FormField":
        if self.degree != other.degree or self.dim != other.dim:
            raise QuadratureError("form degree/dimension mismatch in sum")
        return FormField(self.dim, self.degree, lambda p: self(p) + other(p))

    def __sub__(self, other: "FormField") -> "FormField":
        if self.degree != other.degree or self.dim != other.dim:
            raise QuadratureError("form degree/dimension mismatch in difference")
        return FormField(self.dim, self.degree, lambda p: self(p) - other(p))

    def __rmul__(self, scalar) -> "FormField":
        return FormField(self.dim, self.degree, lambda p: scalar * self(p))

    def scale_by(self, scalar_func) -> "FormField":
        """Multiply by a scalar function of the points (a 0-form)."""
        return FormField(self.dim, self.degree, lambda p: scalar_func(p) * self(p))

    def wedge(self, other: "FormField") -> "FormField":
        return FormField(
            self.dim, self.degree + other.degree, lambda p: self(p).wedge(other(p))
        )

    def d(self) -> "FormField":
        return exterior_derivative(self)


def central_partials(payload, pts: ChartPoints) -> list[dict]:
    """partials[axis][key]: the derivative of every entry of the dict
    payload(pts) along each chart axis of the batch.

    Central differences at steps FD_STEP and FD_STEP/2 are combined by
    Richardson extrapolation to an O(h^4) estimate.  The payload runs once
    per chart axis, on the four displaced copies of the batch stacked on a
    leading axis (``ChartPoints.shifted``); every entry is broadcast to the
    stacked shape, so a constant entry such as 0.0 differentiates to 0.
    The payload must be elementwise over the batch and evaluable in a
    neighbourhood of it (charts here are global, so displacements never
    leave the domain).
    """
    h = FD_STEP
    steps = (h, -h, 0.5 * h, -0.5 * h)
    out = []
    for axis in range(pts.dim):
        stack = pts.shifted(axis, steps)
        shape = stack.coords[0].shape
        by_key = {}
        for k, c in payload(stack).items():
            pp, pm, pp2, pm2 = np.broadcast_to(c, shape)
            d1 = (pp - pm) / (2.0 * h)
            d2 = (pp2 - pm2) / h
            by_key[k] = (4.0 * d2 - d1) / 3.0
        out.append(by_key)
    return out


def complex_step_partials(payload, pts: ChartPoints, directions=None) -> tuple[dict, list[dict]]:
    """(values, partials): the entries of the dict payload(pts) and their
    partials[k][key] along each of the ``directions``, by complex-step
    differentiation (Squire & Trapp, SIAM Rev. 40(1), 1998).  A direction
    is one weight per chart axis, a float or an array over the batch; the
    default is the chart axes, so partials[axis][key] is what
    central_partials returns.  The payload runs once, on every direction
    stacked on a new leading axis: slice k holds coords[j] + i
    COMPLEX_STEP directions[k][j], and an axis stays real only if every
    direction's weight on it is the float 0.0.  Each partial is the
    imaginary part of its slice over the step, exact to rounding, broadcast
    to the batch shape.  The values are the real parts of slice 0: Re f(x
    + ih) = f(x) + O(h^2), and the O(h^2) term is zero in double
    precision, so no real pass runs; an entry that is not an array (a
    constant) keeps its value and type.  They are f in complex arithmetic,
    which rounds apart from real arithmetic by a few ulp: numpy's complex
    division multiplies by a reciprocal, and a complex power takes other
    steps than real pow.

    The payload must be elementwise over the batch and holomorphic in the
    chart coordinates along the way, which real-analytic arithmetic on
    complex arrays is.  A cast that drops the imaginary part would return a
    silent zero derivative, so numpy's ComplexWarning is raised as an error
    here."""
    h = COMPLEX_STEP
    if directions is None:
        directions = np.eye(pts.dim).tolist()
    base = np.broadcast_arrays(*pts.coords)
    stacked = (len(directions),) + base[0].shape
    coords = []
    for c, weights in zip(base, zip(*directions)):
        real = all(map(_is_zero, weights))
        coords.append(np.stack([c if real else c + 1j * h * w for w in weights]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        entries = payload(ChartPoints(pts.chart, tuple(coords)))
    values, out = {}, [{} for _ in directions]
    for key, c in entries.items():
        if isinstance(c, np.ndarray):
            c = c if c.shape == stacked else np.broadcast_to(c, stacked)
            values[key] = np.real(c[0])
        else:
            values[key] = np.real(c)
        for k, d in enumerate(np.imag(np.broadcast_to(c, stacked)) / h):
            out[k][key] = d
    return values, out


def _is_zero(weight) -> bool:
    return isinstance(weight, float) and weight == 0.0


def d_from_partials(partials) -> PointwiseForm:
    """The exterior derivative of a form from the partials[axis][key] of
    its coefficient table, keyed by ordered axis tuples."""
    out = PointwiseForm()
    for axis, by_key in enumerate(partials):
        for key, dc in by_key.items():
            if axis not in key:
                out.add_term((axis,) + key, dc)
    return out


def exterior_derivatives(fields, pts: ChartPoints) -> list[PointwiseForm]:
    """The exterior derivative of every field at the batch, from one
    central_partials sweep whose payload is the union of the fields'
    coefficient tables keyed by (field index, axes).  Every displaced
    batch evaluates all the fields, so what they share through the batch
    cache (frame forms, curvature) is computed once per displacement; the
    displaced batches still die axis by axis."""

    def payload(q: ChartPoints) -> dict:
        return {(i, key): c for i, f in enumerate(fields) for key, c in f(q).coeffs.items()}

    partials = central_partials(payload, pts)
    return [
        d_from_partials([{key: c for (j, key), c in by_key.items() if j == i}
                         for by_key in partials])
        for i in range(len(fields))
    ]


def exterior_derivative(f: FormField) -> FormField:
    """Exterior derivative by central differences on the coefficients."""
    return FormField(f.dim, f.degree + 1, lambda pts: exterior_derivatives([f], pts)[0])


def pullback_by_section(f: FormField, section) -> FormField:
    """Pull a bundle form back to the base along x -> (x, theta(x)).

    ``section`` must provide theta(chart, x1, x2) and theta_grad(chart,
    x1, x2) -> (dtheta/dx1, dtheta/dx2); dtheta substitutes into every
    theta slot of the form.  Result is a base form on 2 axes.
    """
    if f.dim != 3:
        raise QuadratureError("pullback expects a sphere-bundle form")

    def pulled(pts: ChartPoints) -> PointwiseForm:
        x1, x2 = pts.coords
        th = section.theta(pts.chart, x1, x2)
        t1, t2 = section.theta_grad(pts.chart, x1, x2)
        w = f(ChartPoints(pts.chart, (x1, x2, th)))
        out = PointwiseForm()
        for key, c in w.coeffs.items():
            # expand dtheta -> t1 dx1 + t2 dx2 in each slot
            expansions = [[]]
            for ax in key:
                if ax < 2:
                    expansions = [e + [(ax, 1.0)] for e in expansions]
                else:
                    expansions = [e + [(0, t1)] for e in expansions] + [
                        e + [(1, t2)] for e in expansions
                    ]
            for combo in expansions:
                axes = tuple(a for a, _ in combo)
                factor = 1.0
                for _, fac in combo:
                    factor = factor * fac
                out.add_term(axes, c * factor)
        return out

    return FormField(2, f.degree, pulled)


# ---------------------------------------------------------------------------
# quadrature rules


def gauss_legendre(a: float, b: float, order: int):
    """Gauss-Legendre nodes and weights on [a, b], ascending: the rule of
    ``_unit_gauss_legendre`` moved onto the interval."""
    x, w = _unit_gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


@functools.cache
def _unit_gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights 2/((1 - x^2) P_n'(x)^2) on [-1, 1], ascending and
    read-only: Newton on P_n's recurrence from Tricomi's nodes, symmetrised (Hale &
    Townsend 2013).  Cached, as the Newton loop costs about a millisecond at 32 nodes."""
    x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    x *= 1.0 - (order - 1) / (8.0 * order ** 3)
    dx = 1.0
    while True:
        p0, p1 = _legendre(x, order)[-2:]
        dp = order * (x * p1 - p0) / (x * x - 1.0)
        if np.abs(dx).max() < 1e-15:
            break
        dx = p1 / dp
        x = x - dx
    x, w = 0.5 * (x - x[::-1]), 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre(x, n: int) -> list:
    """[P_0(x), ..., P_n(x)] by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}."""
    p = [np.ones_like(x), x]
    for k in range(2, n + 1):
        p.append(((2 * k - 1) * x * p[-1] - (k - 1) * p[-2]) / k)
    return p[: n + 1]


def _gauss_primitives(order: int, t) -> np.ndarray:
    """S[..., i] = int_{-1}^t l_i(s) ds / w_i at every t in [-1, 1], for the
    Lagrange basis l_i of the order Gauss-Legendre nodes x_i, weights w_i.

    The rule is exact to degree 2 order - 1, so l_i = w_i sum_{k < order}
    (k + 1/2) P_k(x_i) P_k, and int_{-1}^t P_k is t + 1 for k = 0 and
    (P_{k+1}(t) - P_{k-1}(t)) / (2k + 1) above: S(t) = (t + 1)/2 + sum_{k >= 1}
    P_k(x_i) (P_{k+1}(t) - P_{k-1}(t)) / 2.  P_k(+-1) = (+-1)^k exactly, so
    S(-1) = 0 and S(1) = 1 to the bit."""
    x, _ = _unit_gauss_legendre(order)
    px = np.array(_legendre(x, order - 1)[1:])
    pt = np.array(_legendre(t, order))
    return 0.5 * ((t + 1.0)[..., None] + np.tensordot(pt[2:] - pt[:-2], px, axes=(0, 0)))


def periodic_rule(order: int):
    """Trapezoid nodes and weights for one full period [0, 2 pi): order
    equally spaced nodes of equal weight.  On a smooth periodic integrand
    the error falls geometrically with the order."""
    return 2.0 * math.pi * np.arange(order) / order, np.full(order, 2.0 * math.pi / order)


# The node count a nested periodic rule starts from: its cap rounded down
# to even, halved while the half stays even and at least this.  The phi
# rule of AnnulusRegion runs 12 2^k nodes and the fiber rule, at its default
# and shipped caps, 16 2^k (see AnnulusRegion.phi_cap).
PERIODIC_FLOOR = 12

# A nested periodic rule accepts T_n once the caller's measure of |T_n -
# T_{n/2}| is at most this.  On an integrand analytic in a strip |Im| < a
# the error of T_n is C exp(-n a) (Trefethen & Weideman, SIAM Rev. 56(3),
# 2014), so the error of T_n is the square of that of T_{n/2}, which
# |T_n - T_{n/2}| measures, over C: relative to the integral, 1 / C read
# 0.24 to 3.1 on the Randers phi and fiber rules and 73 on the quartic
# fiber.  That law is asymptotic, and a change of 1e-9 does not always
# leave T_n at rounding: on Randers 0.8 in the south chart, along x1
# through (0.2108, -0.1408), the fiber rule stops at 16 nodes in a window
# about 1.2e-4 wide, where V is 1.58e-12 (relative) off a 512-node rule;
# outside it the rule takes 32 nodes and V is right to rounding.  A
# finite-difference stencil across such a window reads the jump.
NESTED_TOL = 1e-9

# The most quadrature nodes one evaluation of an integrand may hold: a phi
# pass of base_integral_excised holds base points, a fiber pass of
# metric.fiber_volume base points x fiber nodes.  The ~36 fiber arrays of a
# plain pass and the ~250 of a two-seed pass stay cache-sized (Lam,
# Rothberg & Wolf, ASPLOS 1991), and the gbc integrand's complex-step
# tensor chain stays bounded at any order.
_BLOCK_NODES = 8192


def in_blocks(evaluate, items: int, width: int, axis: int = 0):
    """evaluate(s) for s = slice(0, items) when items x width nodes fit in
    one block; otherwise for consecutive slices of max(1, _BLOCK_NODES //
    width) items each, the results concatenated along axis.  width is the
    nodes per item; evaluate must be elementwise over the items."""
    step = max(1, _BLOCK_NODES // width)
    if items <= step:
        return evaluate(slice(0, items))
    return np.concatenate([evaluate(slice(i, i + step)) for i in range(0, items, step)],
                          axis=axis)


def nested_periodic_rule(sums, cap: int, change, items: int = 1):
    """(T, n, converged): the periodic trapezoid rule over one period for
    each of several items (base points, say), the node count n of each
    item sized on its own by nested doubling up to the cap.

    sums(angles, live) evaluates the integrand of the items live (an index
    array) at every entry of the 2-D array of angles in one pass and
    returns its sums over the last axis as one plain array of shape
    (parts..., items, rows of angles): the leading part axes carry
    whatever the caller integrates side by side, e.g. a value and its
    derivatives, or a value and its absolute value.  change(T_n, T_{n/2})
    returns the caller's measure of their difference per item.  The rule
    starts at n = the cap rounded down to even (at least 2), halved while
    n/2 stays even and at least PERIODIC_FLOOR, in one pass over the n
    nodes 2 pi k / n whose rows are the even and the odd k: the even ones
    are the nodes of the n/2 rule, so T_{n/2}, and an estimate, come free.  Each doubling evaluates
    only the items whose change is still above NESTED_TOL, at only the n
    nodes of the 2n rule that are new (the old ones shifted by pi / n), and
    keeps every earlier sum.  An item stops once its change is at most
    NESTED_TOL, converged, or at the cap, unconverged; T, n and converged
    run over the items, and an item's T reads its own sums only."""
    n = max(2, cap - cap % 2)
    while n % 4 == 0 and n // 2 >= PERIODIC_FLOOR:
        n //= 2
    first = sums(2.0 * math.pi / n * np.arange(n).reshape(-1, 2).T, np.arange(items))
    half = first[..., 0]
    total = half + first[..., 1]
    nodes = np.full(items, n)
    ok = change(total * (2.0 * math.pi / n), half * (4.0 * math.pi / n)) <= NESTED_TOL
    live = np.flatnonzero(~ok)
    while live.size and 2 * n <= cap:
        odd = sums(math.pi / n * (2.0 * np.arange(n) + 1.0)[None, :], live)
        half = total[..., live]
        grown, n = half + odd[..., 0], 2 * n
        total[..., live] = grown
        nodes[live] = n
        ok[live] = change(grown * (2.0 * math.pi / n), half * (4.0 * math.pi / n)) <= NESTED_TOL
        live = live[~ok[live]]
    return total * (2.0 * math.pi / nodes), nodes, ok


# ---------------------------------------------------------------------------
# integration domains


class AnnulusRegion:
    """Polar region r_inner <= r <= r_outer about a centre in one chart;
    r_inner = 0 is a full disc."""

    def __init__(self, chart: str, center: tuple[float, float], r_inner: float,
                 r_outer: float):
        self.chart = chart
        self.center = center
        self.r_inner = r_inner
        self.r_outer = r_outer

    def nodes(self, order: int, phi):
        """The base points (x1, x2) of the polar rule at the angles phi:
        every radial node of ``radii(order)`` at every angle, radius-major.
        They are summed in phi by the nested periodic rule and in r by a
        row of ``weights`` (dx1 ^ dx2 = r dr ^ dphi).  On a full disc an
        integrand f that is O(1/r) at the centre, with r f smooth in (r,
        phi), is integrated to rounding (Duffy, SIAM J. Numer. Anal. 19(6),
        1982)."""
        r, _ = self.radii(order)
        x1 = self.center[0] + np.outer(r, np.cos(phi)).ravel()
        x2 = self.center[1] + np.outer(r, np.sin(phi)).ravel()
        return x1, x2

    def radii(self, order: int):
        """The radial rule: one Gauss-Legendre panel of n = 2 max(16, order
        // 3) nodes on [r_inner, r_outer].  The count serves the concentric
        sub-regions of ``weights``: they are exact to degree n - 1 in r, and
        24 or 16 radial nodes would move gbc's per-eps values by up to
        8.5e-13 or 6.3e-9."""
        return gauss_legendre(self.r_inner, self.r_outer, 2 * max(16, order // 3))

    @staticmethod
    def phi_cap(order: int) -> int:
        """The most phi nodes the nested rule may take: 192 below base order
        96 and 384 from 96 on, where the radial rule doubles to 64 nodes.
        The need in phi is set by the integrand, not by the radial count,
        which grows with the order for the sub-disc weights: Randers 0.9,
        the hardest zoo metric, stops at 96 nodes.  So the cap stays at 384
        up to cli.MAX_QUADRATURE_ORDER, which bounds the cost of a run
        forced to its caps.  The counts are 12 2^k: a fiber rule stopped
        unconverged at N = 16 2^j nodes leaves in V, on a rotation-invariant
        metric, an error with the phi modes k N, which 12 2^i and 6 2^i
        nodes integrate exactly unless 3 divides k; a 16 2^i family aliased
        it in both T_n and T_{n/2}, and read Randers 0.9 at 16 fiber nodes
        6.5e-7 off."""
        return PERIODIC_FLOOR << (4 if order < 96 else 5)

    def weights(self, order: int, parts) -> np.ndarray:
        """One row of radial weights on ``radii(order)`` per concentric
        annulus (inner, outer) of parts that lies within this region: the
        row times the phi integrals at the radial nodes integrates over
        inner <= r <= outer the polynomial of degree n - 1 in r that
        interpolates r times the phi integral, which is smooth on a full
        disc about an O(1/r) zero, so every sub-disc is read off the samples
        of the whole disc.  The row of (r_inner, r_outer) is r w_r to the
        bit."""
        r, wr = self.radii(order)
        t = 2.0 * (np.asarray(parts, dtype=float) - self.r_inner) / (self.r_outer - self.r_inner)
        s = _gauss_primitives(len(r), t - 1.0)
        return np.stack([wr * r * (b - a) for a, b in s])


class BoxRegion:
    """Tensor-product region [a1,b1] x [a2,b2] in one chart."""

    def __init__(self, chart: str, x1_range: tuple[float, float],
                 x2_range: tuple[float, float]):
        self.chart = chart
        self.x1_range = x1_range
        self.x2_range = x2_range

    def nodes(self, order: int):
        u, wu = gauss_legendre(*self.x1_range, order)
        v, wv = gauss_legendre(*self.x2_range, order)
        U, V = np.meshgrid(u, v, indexing="ij")
        WU, WV = np.meshgrid(wu, wv, indexing="ij")
        return U.ravel(), V.ravel(), (WU * WV).ravel()


def base_integral_excised(f: FormField, regions, order: int = 48,
                          rules: dict | None = None) -> list[float]:
    """Integrate a base 2-form over each region, one value per region in
    the order given.  A chart's box is integrated on its own nodes.  The
    annuli about one centre of a chart are integrated on the nodes of the
    smallest annulus about it that holds them all (on the sphere, the unit
    disc), each annulus with its own row of ``AnnulusRegion.weights``; the
    phi rule is the nested periodic rule, sized on every row at once: it
    stops once no row's value moves by more than NESTED_TOL of the largest
    row's integral of |f| from n/2 to n phi nodes.  Each pass evaluates f
    on whole radial rows (one radius at every angle of the pass), as many
    rows per call as ``in_blocks`` allows; a box, on as many points.
    ``rules``, if given, maps each chart with annuli to its (phi node
    count, converged)."""
    if f.degree != 2 or f.dim != 2:
        raise QuadratureError("base integral expects a base 2-form")
    out = [0.0] * len(regions)
    for chart in dict.fromkeys(region.chart for region in regions):
        index = [i for i, region in enumerate(regions) if region.chart == chart]
        host = _host([regions[i] for i in index])
        if isinstance(host, BoxRegion):
            x1, x2, w = host.nodes(order)
            c = in_blocks(lambda s: _coefficient(f, chart, x1[s], x2[s]), x1.size, 1)
            out[index[0]] = float(np.sum(w * c))
            continue
        rows = host.weights(order, [(regions[i].r_inner, regions[i].r_outer) for i in index])

        def sums(phi, live):
            x1, x2 = (x.reshape(len(rows[0]), phi.size) for x in host.nodes(order, phi))
            c = in_blocks(lambda s: _coefficient(f, chart, x1[s], x2[s]), len(x1), phi.size)
            c = c.reshape((len(rows[0]),) + phi.shape)
            return np.stack([c, np.abs(c)]).sum(-1)[..., None, :]

        def change(t, half):
            moved = np.max(np.abs(rows @ (t[0] - half[0])))
            return np.array([moved / np.max(np.abs(rows) @ t[1]) if moved else 0.0])

        t, n, converged = nested_periodic_rule(sums, host.phi_cap(order), change)
        if rules is not None:
            rules[chart] = (int(n[0]), bool(converged[0]))
        for i, row in zip(index, rows):
            out[i] = float(np.sum(row * t[0, :, 0]))
    return out


def _coefficient(f: FormField, chart: str, x1, x2) -> np.ndarray:
    """The dx1 ^ dx2 coefficient of the base 2-form f at the points (x1,
    x2), in their shape."""
    pts = ChartPoints(chart, (x1.ravel(), x2.ravel()))
    return np.broadcast_to(f(pts).get((0, 1)), x1.size).reshape(x1.shape)


def _host(group):
    """The region whose nodes serve all the regions of one chart: a lone
    region itself, or the smallest annulus about the one centre of several
    annuli that holds them all."""
    if len(group) == 1:
        return group[0]
    first = group[0]
    if not all(isinstance(a, AnnulusRegion) and a.center == first.center for a in group):
        raise QuadratureError("the regions of one chart must be one box or annuli "
                              "about one centre")
    return AnnulusRegion(first.chart, first.center, min(a.r_inner for a in group),
                         max(a.r_outer for a in group))


def boundary_circle_integral(
    f: FormField, chart: str, center, radius: float, order: int = 64
) -> float:
    """Integrate a base 1-form over a counterclockwise coordinate circle by
    the periodic trapezoid rule in the angle, which is exact on
    trigonometric polynomials of degree below the node count."""
    if f.degree != 1 or f.dim != 2:
        raise QuadratureError("boundary integral expects a base 1-form")
    phi, w = periodic_rule(max(order, 16))
    x1 = center[0] + radius * np.cos(phi)
    x2 = center[1] + radius * np.sin(phi)
    pts = ChartPoints(chart, (x1, x2))
    form = f(pts)
    p = form.get((0,))
    q = form.get((1,))
    integrand = p * (-radius * np.sin(phi)) + q * (radius * np.cos(phi))
    return float(np.sum(w * integrand))


def extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of samples (x_k, y_k) to x = 0;
    used for the epsilon -> 0 limits of excised and boundary integrals."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            ys[i] = ((0.0 - xs[i - k]) * ys[i] - (0.0 - xs[i]) * ys[i - 1]) / (
                xs[i] - xs[i - k]
            )
    return ys[n - 1]

