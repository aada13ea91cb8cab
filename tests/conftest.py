import math

import numpy as np
import pytest

from finslergbc.connection import cartan_connection, to_orthonormal_frame
from finslergbc.manifolds import install_metric, sphere_atlas, torus_atlas
from finslergbc.quadrature import ChartPoints, FormField, PointwiseForm, complex_step_partials


@pytest.fixture(scope="session")
def sphere():
    return sphere_atlas()


@pytest.fixture(scope="session")
def torus():
    return torus_atlas()


@pytest.fixture(scope="session")
def round_metric(sphere):
    return install_metric(sphere, "round_sphere")


@pytest.fixture(scope="session")
def randers_metric(sphere):
    return install_metric(sphere, "randers", {"eps": 0.1})


@pytest.fixture(scope="session")
def flat_metric(torus):
    return install_metric(torus, "euclidean")


@pytest.fixture(scope="session")
def quartic_metric(torus):
    return install_metric(torus, "quartic", {"eps": 0.05})


@pytest.fixture(scope="session")
def cartan_frame_round(round_metric):
    return to_orthonormal_frame(cartan_connection(), round_metric)


@pytest.fixture(scope="session")
def cartan_frame_randers(randers_metric):
    return to_orthonormal_frame(cartan_connection(), randers_metric)


def bundle_points(chart: str, count: int, seed: int = 0, rmax: float = 0.9):
    """Random sphere-bundle chart points inside the integration region."""
    rng = np.random.default_rng(seed)
    if chart == "torus":
        x1 = rng.uniform(0.0, 2.0 * math.pi, count)
        x2 = rng.uniform(0.0, 2.0 * math.pi, count)
    else:
        r = np.sqrt(rng.uniform(0.0, rmax ** 2, count))
        ph = rng.uniform(0.0, 2.0 * math.pi, count)
        x1, x2 = r * np.cos(ph), r * np.sin(ph)
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return ChartPoints.of(chart, x1, x2, th)


class CountingAtlas:
    """An atlas whose global_scalars appends its real first coordinate to
    ``evaluations``: the body of a ``sinusoidal_perturbation`` takes the
    real global scalars once per evaluation, and their dual-seeded ones
    once more."""

    def __init__(self, atlas, evaluations: list):
        self.atlas, self.evaluations = atlas, evaluations

    def global_scalars(self, chart, x1, x2):
        if isinstance(x1, np.ndarray):
            self.evaluations.append(x1)
        return self.atlas.global_scalars(chart, x1, x2)


def spy_on_pi_sweeps(monkeypatch, spy):
    """Route the complex-step sweeps of ``chern_forms`` by their points:
    the pi_0^1 / V sweeps of gbc_integrand run on bundle points (x1, x2,
    theta) and go to spy(payload, pts, directions), which returns their
    partials as complex_step_partials does; the V sweeps of
    dlog_volume run on base points (x1, x2) and go to complex_step_partials
    itself."""
    import finslergbc.chern_forms as cf

    def routed(payload, pts, directions=None):
        return (spy if pts.dim == 3 else complex_step_partials)(payload, pts, directions)

    monkeypatch.setattr(cf, "complex_step_partials", routed)


def frame_form(conn, i: int, j: int) -> FormField:
    """The frame form varpi_i^j of a FrameConnection as a 1-form field on
    the bundle chart, read off its skew table."""

    def func(pts):
        pi = conn.table(pts)
        return PointwiseForm({(a,): pi[i][j][a] for a in range(3)})

    return FormField(3, 1, func)


def curvature_form(curv, i: int, j: int) -> FormField:
    """The curvature entry Omega_i^j of a CurvatureData as a 2-form field
    on the bundle chart, read off its skew table."""
    return FormField(3, 2, lambda pts: PointwiseForm(dict(curv.table(pts)[i][j])))
