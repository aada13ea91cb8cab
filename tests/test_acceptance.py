"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines as they complete."""

import math
import time

import numpy as np
import pytest

from finslergbc import cli, identities
from finslergbc.algebra import SkewMatrixValuedForm, pfaffian
from finslergbc.identities import IdentityForms
from finslergbc.cli import (
    ExperimentConfig,
    run_degrees,
    run_gbc,
    run_identity_suite,
    run_minkowski_props,
)
from finslergbc.connection import cartan_connection, to_orthonormal_frame
from finslergbc.manifolds import install_metric, sphere_atlas
from finslergbc.metric import fiber_volume, quartic_norm, randers_norm, riemannian_norm
from finslergbc.quadrature import (
    boundary_circle_integral,
    extrapolate_to_zero,
    pullback_by_section,
)
from finslergbc.topology import local_field


def _line(num: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}: {detail}")


def test_criterion_1_round_sphere_gbc():
    """Riemannian round sphere, Cartan connection, rotational field:
    normalized integral = chi = 2 within 1e-2 at default orders, the disc
    limit within 1e-14, under five minutes."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(metric="round_sphere", vector_field="rotational")
    report = run_gbc(cfg)
    dt = time.perf_counter() - t0
    row = report.row("normalized_gbc_integral")
    limit = report.row("gbc_disc_limit").value
    ok = abs(row.value - 2.0) <= 1e-2 and abs(limit - 2.0) <= 1e-14 and dt < 300.0
    _line(1, "round sphere GBC", ok,
          f"value={row.value:.6f} disc-limit={limit:.15f} runtime={dt:.1f}s")
    assert abs(row.value - 2.0) <= 1e-2
    assert abs(limit - 2.0) <= 1e-14
    assert dt < 300.0


def test_criterion_2_flat_torus_zero():
    """Flat torus, constant field: integral 0 within 1e-6."""
    cfg = ExperimentConfig(manifold="torus", metric="euclidean",
                           vector_field="constant")
    report = run_gbc(cfg)
    val = report.row("normalized_gbc_integral").value
    ok = abs(val) <= 1e-6
    _line(2, "flat torus GBC", ok, f"value={val:.3e}")
    assert abs(val) <= 1e-6


def test_criterion_3_randers_gbc():
    """Randers(0.1) sphere, rotational field: 2 within 2e-2 (the disc
    limit within 1e-14), with a verifiably non-constant fiber volume."""
    cfg = ExperimentConfig(metric="randers", metric_eps=0.1,
                           vector_field="rotational")
    report = run_gbc(cfg)
    val = report.row("normalized_gbc_integral").value
    limit = report.row("gbc_disc_limit").value
    spread = report.row("fiber_volume_spread").value
    ok = abs(val - 2.0) <= 2e-2 and abs(limit - 2.0) <= 1e-14 and spread > 1e-4
    _line(3, "randers sphere GBC", ok,
          f"value={val:.6f} disc-limit={limit:.15f} V-spread={spread:.2e}")
    assert abs(val - 2.0) <= 2e-2
    assert abs(limit - 2.0) <= 1e-14
    assert spread > 1e-4


def test_criterion_4_connection_independence():
    """A perturbed metric-compatible connection (amplitude 0.2) reproduces
    the randers value within 2e-2, and its disc limit lies within 1e-14
    of 2."""
    cfg = ExperimentConfig(metric="randers", metric_eps=0.1,
                           connection="perturbed", perturbation_amplitude=0.2,
                           vector_field="rotational")
    report = run_gbc(cfg)
    val = report.row("normalized_gbc_integral").value
    limit = report.row("gbc_disc_limit").value
    ok = abs(val - 2.0) <= 2e-2 and abs(limit - 2.0) <= 1e-14
    _line(4, "perturbed connection GBC", ok, f"value={val:.6f} disc-limit={limit:.15f}")
    assert abs(val - 2.0) <= 2e-2
    assert abs(limit - 2.0) <= 1e-14


@pytest.mark.parametrize(
    "metric,connection",
    [("round_sphere", "cartan"), ("randers", "cartan"), ("randers", "perturbed")],
    ids=["round", "randers", "randers-perturbed"],
)
def test_criterion_5_identity_residuals(metric, connection):
    """Pointwise identity residuals at 200 random bundle points: Eq. 3.3,
    Eq. 3.4, the Chern-Weil transgression, the fiber volume form, and full
    metric compatibility of the modified connection."""
    cfg = ExperimentConfig(metric=metric, connection=connection,
                           identity_samples=200)
    report = run_identity_suite(cfg)
    wanted = {
        "eq33_dPi_minus_omega_nabla": 1e-5,
        "eq34_gbc_exactness": 1e-5,
        "prop51_chern_weil": 1e-5,
        "prop33_fiber_volume_form": 1e-8,
        "prop32_metric_compatibility": 1e-8,
    }
    ok = True
    details = []
    for name, tol in wanted.items():
        row = report.row(name)
        assert row.tolerance <= tol
        ok = ok and row.passed
        details.append(f"{name.split('_')[0]}={row.value:.1e}")
    _line(5, f"identities ({metric}/{connection})", ok, " ".join(details))
    assert ok


def test_criterion_6_boundary_integral_limit():
    """Boundary integrals of [X]*(Upsilon_1 / V(x_0)) around zeros of
    degree +1, -1, +2 extrapolate to -deg/(2 pi) within 1e-3."""
    atlas = sphere_atlas()
    metric = install_metric(atlas, "randers", {"eps": 0.1})
    fc = to_orthonormal_frame(cartan_connection(), metric)
    forms = IdentityForms(metric, fc, fc)
    V0 = fiber_volume(metric, [0.0, 0.0], "south")
    radii = (0.2, 0.1, 0.05, 0.025)
    ok = True
    details = []
    for kind, deg in (("deg_plus1", 1), ("deg_minus1", -1), ("deg_plus2", 2)):
        X = local_field(atlas, "south", kind)
        f1 = pullback_by_section(forms.upsilon1(), X)
        vals = [
            boundary_circle_integral(f1, "south", (0.0, 0.0), r, order=64) / V0
            for r in radii
        ]
        lim = extrapolate_to_zero(radii, vals)
        target = -deg / (2 * math.pi)
        err = abs(lim - target)
        ok = ok and err < 1e-3
        details.append(f"deg{deg:+d}: err={err:.1e}")
        assert err < 1e-3, f"degree {deg}: {lim} vs {target}"
    _line(6, "boundary integral limits", ok, " ".join(details))


def test_criterion_7_algebra_suite():
    """Eq. 3.2 brute force vs closed form (1e-10, ranks 2-4, ten draws per
    rank over seeds 123 and 124), Pf = 0 for odd rank exactly, and the
    gamma-coefficient quadrature (1e-14), by the identity suite's own
    checks."""
    worst32 = max(identities._eq32_residual(seed) for seed in (123, 124))

    ent = [[{} for _ in range(3)] for _ in range(3)]
    ent[0][1], ent[1][0] = {(0, 1): 2.0}, {(0, 1): -2.0}
    pf3 = pfaffian(SkewMatrixValuedForm(3, 3, ent))

    worst_gamma = identities._gamma_identity_residual()

    ok = worst32 < 1e-10 and pf3 == {} and worst_gamma < 1e-14
    _line(7, "algebra suite", ok,
          f"eq3.2={worst32:.1e} Pf(n=3)={'0' if pf3 == {} else 'NONZERO'} "
          f"gamma={worst_gamma:.1e}")
    assert worst32 < 1e-10
    assert pf3 == {}
    assert worst_gamma < 1e-14


def test_criterion_8_sum_norm_sweep():
    """200 random Minkowski norm pairs, 100 rays each: the sum passes
    homogeneity and strict convexity with zero failures."""
    report = run_minkowski_props(ExperimentConfig(seed=2024))
    failures = report.row("sum_norm_failures").value
    eig = report.row("sum_norm_min_eigenvalue").value
    ok = failures == 0 and eig > 0
    _line(8, "sum-of-norms sweep", ok, f"failures={int(failures)} min_eig={eig:.3e}")
    assert failures == 0
    assert eig > 0


def test_criterion_9_cartan_identities():
    """y-contraction of A below 1e-10 and A identically zero for
    Riemannian inputs (1e-12) across the zoo."""
    rng = np.random.default_rng(31337)
    norms = [
        randers_norm([0.25, -0.1]),
        randers_norm([0.0, 0.4]),
        quartic_norm(0.05),
        quartic_norm(0.3),
    ]
    worst_contract = 0.0
    for norm in norms:
        for _ in range(50):
            th = rng.uniform(0, 2 * math.pi)
            y = np.array([math.cos(th), math.sin(th)])
            A = norm.cartan(y)
            worst_contract = max(
                worst_contract, float(np.max(np.abs(np.einsum("k,kij->ij", y, A))))
            )
    worst_riem = 0.0
    for _ in range(20):
        M = rng.standard_normal((2, 2))
        G = M @ M.T + 0.4 * np.eye(2)
        th = rng.uniform(0, 2 * math.pi)
        A = riemannian_norm(G).cartan([math.cos(th), math.sin(th)])
        worst_riem = max(worst_riem, float(np.max(np.abs(A))))
    ok = worst_contract < 1e-10 and worst_riem < 1e-12
    _line(9, "cartan identities", ok,
          f"y-contraction={worst_contract:.1e} riemannian={worst_riem:.1e}")
    assert worst_contract < 1e-10
    assert worst_riem < 1e-12


def test_criterion_10_topology_suite():
    """Winding degrees +1, -1, +2 recovered exactly; Poincare-Hopf sums
    equal chi for every built-in scenario."""
    report = run_degrees(ExperimentConfig())
    ok = report.passed
    details = " ".join(
        f"{r.name.replace('winding_deg_', 'w').replace('ph_sum_', '')}="
        f"{int(r.value)}" for r in report.rows
    )
    _line(10, "topology suite", ok, details)
    assert ok
