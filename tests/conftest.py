import math

import numpy as np
import pytest

from finslergbc.connection import cartan_connection, to_orthonormal_frame
from finslergbc.manifolds import install_metric, sphere_atlas, torus_atlas
from finslergbc.quadrature import ChartPoints, FormField, PointwiseForm


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


def zero_step_stack(pts, rows):
    """The batch stacked as complex_step_partials stacks it for a sweep
    along rows, with every swept axis shifted by +0j instead of i h w: an
    axis stays real only if every row's weight on it is 0.0."""
    coords = [np.stack([c] * len(rows)) if all(row[j] == 0.0 for row in rows)
              else np.stack([c + 0j] * len(rows))
              for j, c in enumerate(np.broadcast_arrays(*pts.coords))]
    return ChartPoints(pts.chart, tuple(coords))


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
