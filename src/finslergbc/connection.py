"""Connections on the pulled-back bundle over the sphere bundle chart.

The chain runs: metric jets -> geodesic-spray Ehresmann coefficients N ->
horizontal (Chern-type) coefficients gamma -> vertical modification rho =
2 A -> natural-frame 1-forms theta -> the orthonormal-frame form
varpi_0^1 -> its curvature d varpi_0^1.  All coefficients are assembled
from analytically differentiated tensors, so the frame form carries
AD-exact first derivatives.  The chain is holomorphic arithmetic on its
coordinates, so the production GBC integrand differentiates varpi_0^1 by
complex-step partials, exact to rounding.  ``CurvatureData`` takes d
varpi_0^1 by the finite-difference stencil (central differences +
Richardson): it is the identity checks' oracle, independent of the
production path.

Index conventions follow  D s_i = theta_i^j (x) s_j  and  nabla e_i =
varpi_i^j (x) e_j, with matrices stored as m[i][j] = (lower i, upper j).
Every connection here is metric-compatible of rank 2, so in the
g-orthonormal frame varpi = [[0, varpi_0^1], [-varpi_0^1, 0]] is
so(2)-valued; so(2) is abelian, so Omega = d varpi - varpi ^ varpi reduces
to Omega_0^1 = d varpi_0^1.  ``table`` builds the skew 2x2 matrices.
"""

from __future__ import annotations

import weakref

import numpy as np

from .ad import Dual, partial, seed_pair, value
from .errors import DomainError
from .metric import FinslerMetric, MetricJets, metric_jets
from .quadrature import ChartPoints, central_partials, d_from_partials

__all__ = [
    "EhresmannData",
    "ConnectionData",
    "FrameConnection",
    "CurvatureData",
    "ChartTensors",
    "bundle_tensors",
    "chern_connection",
    "cartan_connection",
    "modify",
    "to_orthonormal_frame",
    "perturb_metric_compatible",
    "horizontal_part",
    "metric_compat_residual",
]

N_RANK = 2
AXES = 3  # chart coordinates (x1, x2, theta)


# ---------------------------------------------------------------------------
# Ehresmann (nonlinear) connection


class EhresmannData:
    """An explicit horizontal splitting: ``table(chart, x, y)`` gives the
    coefficients N^j_A in place of the canonical spray, which every
    consumer takes when handed None."""

    def __init__(self, table):
        self.table = table  # callable(chart, x, y) -> (n, n) of arrays


# ---------------------------------------------------------------------------
# pointwise tensor assembly


class ChartTensors:
    """Everything the connection pipeline needs at one batch of sphere
    bundle chart points."""

    def __init__(self, chart: str, jets: MetricJets, g: list, ginv: list, A: list,
                 Ar: list, N: list, gamma_chern: list, l: list, dg: list, dl: list,
                 pts=None, frame: dict | None = None):
        self.chart, self.jets = chart, jets
        self.g, self.ginv = g, ginv
        self.A, self.Ar, self.N, self.gamma_chern = A, Ar, N, gamma_chern
        self.l, self.dg, self.dl = l, dg, dl  # dg[i][j][axis], dl[i][axis]
        # a weakref.ref to the batch, whose cache holds these tensors: a strong
        # reference would keep every batch alive until the cyclic collector runs
        self.pts = pts
        self.frame = {} if frame is None else frame


def _derived_tensors(jets: MetricJets, N_override=None) -> dict:
    n = N_RANK
    T1, T2, T3 = jets.T1, jets.T2, jets.T3
    X1, X2, X3 = jets.X1, jets.X2, jets.X3
    F, u = jets.F, jets.u

    g = [[T2[i][j] * 0.5 for j in range(n)] for i in range(n)]
    detg = g[0][0] * g[1][1] - g[0][1] * g[0][1]
    ginv = [
        [g[1][1] / detg, -g[0][1] / detg],
        [-g[0][1] / detg, g[0][0] / detg],
    ]
    A = [[[F * T3[i][j][k] * 0.25 for k in range(n)] for j in range(n)] for i in range(n)]
    Ar = [
        [
            [sum(ginv[i][l] * A[l][j][k] for l in range(n)) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]

    H = [sum(X2[l][k] * u[k] for k in range(n)) - X1[l] for l in range(n)]
    dH = [
        [
            sum(X3[l][j][k] * u[k] for k in range(n)) + X2[l][j] - X2[j][l]
            for j in range(n)
        ]
        for l in range(n)
    ]
    # d(g^{il})/dy^j = -(1/2) g^{ia} T3[a][b][j] g^{bl}
    dginv = [
        [
            [
                -0.5
                * sum(
                    ginv[i][a] * T3[a][b][j] * ginv[b][l]
                    for a in range(n)
                    for b in range(n)
                )
                for j in range(n)
            ]
            for l in range(n)
        ]
        for i in range(n)
    ]
    N = [
        [
            0.25
            * sum(dginv[i][l][j] * H[l] + ginv[i][l] * dH[l][j] for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    if N_override is not None:
        N = N_override

    # delta g_ij / delta x^A in the chosen splitting
    dgdx = [
        [
            [
                0.5 * (X3[i][j][Aa] - sum(N[m][Aa] * T3[i][j][m] for m in range(n)))
                for Aa in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    gamma = [
        [
            [
                0.5
                * sum(
                    ginv[i][s] * (dgdx[s][j][Aa] + dgdx[s][Aa][j] - dgdx[j][Aa][s])
                    for s in range(n)
                )
                for Aa in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return {"g": g, "ginv": ginv, "A": A, "Ar": Ar, "N": N, "gamma": gamma}


def bundle_tensors(metric: FinslerMetric, pts: ChartPoints,
                   ehresmann: EhresmannData | None = None) -> ChartTensors:
    """Cached tensor assembly at a batch of bundle chart points; an
    explicit Ehresmann table replaces the canonical spray coefficients."""
    return pts.cached(("tensors", metric, ehresmann),
                      lambda: _chart_tensors(metric, pts, ehresmann))


def _chart_tensors(metric: FinslerMetric, pts: ChartPoints,
                   ehresmann: EhresmannData | None) -> ChartTensors:
    x1, x2, th = pts.coords
    jets = metric_jets(metric, pts.chart, x1, x2, th)
    n = N_RANK
    N_override = None
    if ehresmann is not None:
        N_override = ehresmann.table(pts.chart, [x1, x2], jets.u)
    der = _derived_tensors(jets, N_override)
    F, u, v = jets.F, jets.u, jets.v
    l = [u[i] / F for i in range(n)]
    F_th = sum(jets.T1[k] * v[k] for k in range(n)) / (2.0 * F)
    dl = [
        [
            -u[i] * jets.X1[0] / (2.0 * F ** 3),
            -u[i] * jets.X1[1] / (2.0 * F ** 3),
            v[i] / F - u[i] * F_th / (F * F),
        ]
        for i in range(n)
    ]
    dg = [
        [
            [
                0.5 * jets.X3[i][j][0],
                0.5 * jets.X3[i][j][1],
                0.5 * sum(jets.T3[i][j][k] * v[k] for k in range(n)),
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ChartTensors(
        chart=pts.chart,
        jets=jets,
        g=der["g"],
        ginv=der["ginv"],
        A=der["A"],
        Ar=der["Ar"],
        N=der["N"],
        gamma_chern=der["gamma"],
        l=l,
        dg=dg,
        dl=dl,
        pts=weakref.ref(pts),
    )


# ---------------------------------------------------------------------------
# connections in the natural frame


class ConnectionData:
    """A connection of the Finsler bundle, split as theta^i_j =
    gamma^i_{jA} dx^A + rho^i_{jk} delta y^k in the natural frame.  The
    coefficient providers consume a ChartTensors batch."""

    def __init__(self, label: str, gamma_of, rho_of):
        self.label = label
        self.gamma_of = gamma_of  # callable(ChartTensors) -> gamma[i][j][A]
        self.rho_of = rho_of  # callable(ChartTensors) -> rho[i][j][k]


def _zero_rho(tens: ChartTensors):
    z = 0.0
    return [[[z for _ in range(N_RANK)] for _ in range(N_RANK)] for _ in range(N_RANK)]


def _cartan_rho(tens: ChartTensors):
    # vertical Cartan coefficients: the unique multiple of A^i_{jk} that
    # makes the modification metric-compatible (d^V g_ij = 2 A_ijk dy^k/F,
    # matched by rho_{(ij)k} symmetrization = 2 A_ijk)
    return [
        [[tens.Ar[i][j][k] for k in range(N_RANK)] for j in range(N_RANK)]
        for i in range(N_RANK)
    ]


def chern_connection() -> ConnectionData:
    return ConnectionData("chern", lambda t: t.gamma_chern, _zero_rho)


def modify(D: ConnectionData) -> ConnectionData:
    """Keep the horizontal part of D, replace the vertical part by the
    Cartan coefficients built from A^j_{ik}.  Idempotent; the result is
    metric-compatible exactly when D is partially metric-compatible."""
    return ConnectionData(f"mod({D.label})", D.gamma_of, _cartan_rho)


def cartan_connection() -> ConnectionData:
    out = modify(chern_connection())
    out.label = "cartan"
    return out


def theta_chart_forms(tens: ChartTensors, D: ConnectionData):
    """theta[i][j][axis]: the 1-form theta_i^j = gamma^j_{iA} dx^A +
    rho^j_{ik} delta y^k expressed in the chart coframe, pulled back along
    theta -> [u(theta)] (so delta y^k = (v^k dtheta + N^k_A dx^A)/F)."""
    n = N_RANK
    F = tens.jets.F
    v = tens.jets.v
    gamma = D.gamma_of(tens)
    rho = D.rho_of(tens)
    theta = [[[None] * AXES for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            vert = [rho[j][i][k] for k in range(n)]
            for Aa in range(2):
                theta[i][j][Aa] = gamma[j][i][Aa] + sum(
                    vert[k] * tens.N[k][Aa] for k in range(n)
                ) / F
            theta[i][j][2] = sum(vert[k] * v[k] for k in range(n)) / F
    return theta


# ---------------------------------------------------------------------------
# orthonormal frame and its chart derivatives


def _frame_fields(tens: ChartTensors):
    """B, B^{-1} and the AD-exact chart derivatives dB[i][k][axis]; the
    frame is e_2 = l with e_1 the positively oriented g-unit normal.  One
    dual pass carries all three chart derivatives: g and l are seeded with
    their x1, x2 and theta derivatives on one leading axis of length 3.
    B^{-1} is built from the values of B alone."""
    if "B" in tens.frame:
        return tens.frame["B"], tens.frame["Binv"], tens.frame["dB"]
    n = N_RANK

    def seeded(val, d):
        return Dual(val, np.stack(np.broadcast_arrays(*d)))

    g01 = seeded(tens.g[0][1], tens.dg[0][1])  # g and dg are symmetric
    g_d = [[seeded(tens.g[0][0], tens.dg[0][0]), g01], [g01, seeded(tens.g[1][1], tens.dg[1][1])]]
    l_d = [seeded(tens.l[i], tens.dl[i]) for i in range(n)]
    lhat = [sum(g_d[i][j] * l_d[j] for j in range(n)) for i in range(n)]
    w = [lhat[1], -1.0 * lhat[0]]
    nw = sum(w[i] * g_d[i][j] * w[j] for i in range(n) for j in range(n)) ** 0.5
    B_d = [[w[i] / nw for i in range(n)], l_d]
    B = [[value(B_d[i][k]) for k in range(n)] for i in range(n)]
    dB = [[partial(B_d[i][k]) for k in range(n)] for i in range(n)]
    inv = 1.0 / (B[0][0] * B[1][1] - B[0][1] * B[1][0])
    Binv = [[B[1][1] * inv, -B[0][1] * inv], [-B[1][0] * inv, B[0][0] * inv]]
    tens.frame.update(B=B, Binv=Binv, dB=dB)
    return B, Binv, dB


def _frame_form(theta, B, dB, Binv):
    """varpi_0^1 = sum_k (dB_0^k + sum_m B_0^m theta_m^k) (B^{-1})_k^1, axis
    by axis: the (0, 1) entry of the frame transform (dB + B theta) B^{-1}."""
    out = []
    for axis in range(AXES):
        acc = 0.0
        for k in range(N_RANK):
            term = dB[0][k][axis] + sum(B[0][m] * theta[m][k][axis] for m in range(N_RANK))
            acc = acc + term * Binv[k][1]
        out.append(acc)
    return out


class FrameConnection:
    """The orthonormal-frame connection form varpi_0^1 of a metric-compatible
    rank-2 connection, as chart coefficient functions over batches of
    bundle points.  ``pi(pts)`` gives its three chart-axis coefficients;
    ``table(pts)`` the skew matrix varpi[i][j][axis] that the general-rank
    forms read."""

    n = N_RANK

    def __init__(self, label: str, metric: FinslerMetric, pi_of):
        self.label = label
        self.metric = metric
        self.pi_of = pi_of  # callable(ChartPoints) -> pi[axis] of varpi_0^1

    def pi(self, pts: ChartPoints):
        return pts.cached(("pi", self), lambda: self.pi_of(pts))

    def table(self, pts: ChartPoints):
        pi = self.pi(pts)
        zero = [0.0] * AXES
        return [[zero, pi], [[-c for c in pi], zero]]


def to_orthonormal_frame(D: ConnectionData, metric: FinslerMetric,
                         ehresmann: EhresmannData | None = None) -> FrameConnection:
    """Express a natural-frame connection in the canonical g-orthonormal
    frame with e_n = l.  D must be metric-compatible: only then is varpi
    skew, so that varpi_0^1 determines it."""

    def pi_of(pts: ChartPoints):
        tens = bundle_tensors(metric, pts, ehresmann)
        theta = theta_chart_forms(tens, D)
        B, Binv, dB = _frame_fields(tens)
        return _frame_form(theta, B, dB, Binv)

    return FrameConnection(D.label, metric, pi_of)


def perturb_metric_compatible(base: FrameConnection, P) -> FrameConnection:
    """Add an so(2)-valued 1-form P to the frame form: ``P(pts) ->
    P[axis]`` is its (0, 1) entry.  A skew perturbation keeps the
    connection metric-compatible."""

    def pi_of(pts: ChartPoints):
        pi = base.pi(pts)
        pert = P(pts)
        return [pi[a] + pert[a] for a in range(AXES)]

    return FrameConnection(f"pert({base.label})", base.metric, pi_of)


def horizontal_part(P, metric: FinslerMetric, ehresmann: EhresmannData | None = None):
    """P's horizontal part in the (dx, delta y) split: P^h_A = P_A -
    P_theta sum_k v^k N^k_A for A = 1, 2 and P^h_theta = 0.

    modify(D + P) keeps the dx coefficients of D + P and replaces its
    delta y coefficients by the Cartan ones.  dtheta splits as F v_k
    delta y^k - v_k N^k_A dx^A, and conjugation by the frame commutes
    with that scalar split, so ``perturb_metric_compatible(base,
    horizontal_part(P, ...))`` is modify(D + P) for a modified base D in
    the orthonormal frame, with no round trip through the natural frame."""

    def Ph(pts: ChartPoints):
        tens = bundle_tensors(metric, pts, ehresmann)
        v = tens.jets.v
        s = [sum(v[k] * tens.N[k][Aa] for k in range(N_RANK)) for Aa in range(2)]
        pert = P(pts)
        return [pert[0] - pert[2] * s[0], pert[1] - pert[2] * s[1], 0.0]

    return Ph


# ---------------------------------------------------------------------------
# curvature


class CurvatureData:
    """The curvature Omega_0^1 = d varpi_0^1 of a FrameConnection as a
    2-form on the bundle chart: ``omega(pts)`` returns {(a, b): coeff}
    with a < b, and ``table(pts)`` the skew matrix of such tables."""

    def __init__(self, conn: FrameConnection):
        self.conn = conn

    def omega(self, pts: ChartPoints):
        return pts.cached(("omega", self.conn), lambda: d_from_partials(central_partials(
            lambda q: {(a,): c for a, c in enumerate(self.conn.pi(q))}, pts)).coeffs)

    def table(self, pts: ChartPoints):
        om = self.omega(pts)
        return [[{}, om], [{K: -c for K, c in om.items()}, {}]]


# ---------------------------------------------------------------------------
# compatibility diagnostics


def metric_compat_residual(metric: FinslerMetric, D: ConnectionData, pts: ChartPoints,
                           ehresmann: EhresmannData | None = None) -> float:
    """Max residual of  dg_ij - theta_i^k g_kj - theta_j^k g_ik  over the
    batch, all chart axes."""
    tens = bundle_tensors(metric, pts, ehresmann)
    theta = theta_chart_forms(tens, D)
    n = N_RANK
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for a in range(AXES):
                rhs = sum(
                    theta[i][k][a] * tens.g[k][j] + theta[j][k][a] * tens.g[k][i]
                    for k in range(n)
                )
                res = tens.dg[i][j][a] - rhs
                worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# a globally defined perturbation profile


def sinusoidal_perturbation(atlas, base: FrameConnection, amplitude: float):
    """A smooth so(2)-valued perturbation defined globally on the sphere
    bundle; ``P(pts)`` returns its (0, 1) entry as three chart-axis
    coefficients.

    The entry mixes pullbacks of global base functions
    (through the atlas embedding scalars, with AD-exact differentials) and
    the base connection's own frame form, so it carries a genuine
    dtheta-component and the modification of the perturbed connection
    differs from the perturbed modification."""

    def P(pts: ChartPoints):
        x1, x2 = pts.coords[:2]
        X, Y, Z = atlas.global_scalars(pts.chart, x1, x2)
        # both chart axes from one dual pass, seeded on a leading axis of length 2
        dX, dY, dZ = ((*partial(c), 0.0)
                      for c in atlas.global_scalars(pts.chart, *seed_pair(x1, x2)))
        pi = base.pi(pts)
        f1 = np.sin(2.0 * Z + X)
        f2 = np.cos(Y - Z)
        f3 = 0.5 + 0.3 * np.sin(X)
        return [amplitude * (f1 * dX[a] + f2 * dY[a] + f3 * pi[a]) for a in range(AXES)]

    return P


def perturbed_connection_data(atlas, metric: FinslerMetric, base: ConnectionData,
                              P) -> ConnectionData:
    """Natural-frame data of the perturbed connection D' = D + P, behind
    the prop32 metric-compatibility row and the tests' oracle for
    ``horizontal_part``.

    P is given in the orthonormal frame by its (0, 1) entry, as
    ``sinusoidal_perturbation`` returns it; conjugation by B moves it to the
    natural frame, and the chart 1-form splits into horizontal and
    vertical coefficients through the scaling-invariant extension of
    dtheta (dtheta = F v_k delta y^k - v_k N^k_A dx^A along y = u)."""

    def gamma_of(tens: ChartTensors):
        gamma = base.gamma_of(tens)
        Q = _natural_perturbation(tens, P)
        n = N_RANK
        v = tens.jets.v
        out = [[[None] * 2 for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for Aa in range(2):
                    shadow = Q[j][i][2] * sum(v[k] * tens.N[k][Aa] for k in range(n))
                    out[i][j][Aa] = gamma[i][j][Aa] + Q[j][i][Aa] - shadow
        return out

    def rho_of(tens: ChartTensors):
        rho = base.rho_of(tens)
        Q = _natural_perturbation(tens, P)
        n = N_RANK
        F = tens.jets.F
        v = tens.jets.v
        return [
            [
                [rho[i][j][k] + Q[j][i][2] * F * v[k] for k in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ]

    return ConnectionData(f"pert({base.label})", gamma_of, rho_of)


def _natural_perturbation(tens: ChartTensors, P):
    """Q = B^{-1} P B per axis (theta-index layout), cached on the batch
    under P itself.  P = [[0, p], [-p, 0]], so Q_i^m = B^{-1}_i^0 p B_1^m -
    B^{-1}_i^1 p B_0^m."""
    cache = tens.frame.setdefault("Qmap", {})
    hit = cache.get(P)
    if hit is not None:
        return hit
    pts = tens.pts()
    if pts is None:
        raise DomainError("the perturbation needs the batch of these tensors, which is gone")
    B, Binv, _ = _frame_fields(tens)
    p = P(pts)
    Q = [[[Binv[i][0] * p[a] * B[1][m] - Binv[i][1] * p[a] * B[0][m] for a in range(AXES)]
          for m in range(N_RANK)] for i in range(N_RANK)]
    cache[P] = Q
    return Q

