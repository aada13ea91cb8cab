"""The identity suite's batched checks against their one-draw-at-a-time
oracles."""

import math

import numpy as np
import pytest

from finslergbc.algebra import BigradedElement, exp_truncated
from finslergbc.identities import _eq32_residual


def _eq32_per_draw(seed: int) -> float:
    """The Eq. 3.2 residual with every (t, nabla_l, Omega) drawn and
    evaluated on its own, as scalar elements: the oracle of the batched
    check."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            t = rng.uniform(0.2, 2.0)
            nl = BigradedElement.zero(n, 3)
            for j in range(n):
                for a in range(3):
                    nl.add_term((a,), (j,), complex(rng.standard_normal()))
            om = BigradedElement.zero(n, 3)
            for i in range(n):
                for j in range(i + 1, n):
                    for a in range(3):
                        for b in range(a + 1, 3):
                            om.add_term((a, b), (i, j), complex(rng.standard_normal()))
            brute = exp_truncated((-1.0) * ((1j * t) * nl + om)).component(n - 1, n - 1)
            closed = BigradedElement.zero(n, 3)
            for k in range(0, (n - 1) // 2 + 1):
                term = BigradedElement.unit(n, 3)
                for _ in range(n - 1 - 2 * k):
                    term = term * (t * nl)
                for _ in range(k):
                    term = term * om
                closed = closed + (
                    ((-1j) ** (n - 1))
                    / (math.factorial(k) * math.factorial(n - 1 - 2 * k))
                ) * term
            worst = max(worst, (brute - closed.component(n - 1, n - 1)).max_abs())
    return worst


@pytest.mark.parametrize("seed", range(1, 21))
def test_eq32_batched_matches_per_draw(seed):
    """The five draws of each rank, evaluated as one element with length-5
    coefficient arrays, give the per-draw residual repr for repr; it is
    rounding, so nonzero and far under the row's 1e-10 bound."""
    got = _eq32_residual(seed)
    assert repr(got) == repr(_eq32_per_draw(seed))
    assert 0.0 < got < 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="eq34_gbc_exactness reads 2.03e-11 (cartan) and 2.15e-11 "
                   "(perturbed) against 2e-11: rounding of the finite-difference "
                   "oracle, which exact derivatives in the oracle sweep would remove")
@pytest.mark.parametrize("connection", ["cartan", "perturbed"])
def test_strong_randers_at_seed_41_passes(connection):
    """A known failure kept in sight: Randers 0.9 at seed 41 fails eq34 on
    both connections, the only failures of the identities grid over seeds
    11-60.  Once the oracle's rounding is mended the run passes, and this
    test then fails as an unexpected pass, so the mark comes off."""
    from finslergbc.cli import ExperimentConfig
    from finslergbc.identities import run_identity_suite

    cfg = ExperimentConfig(scenario="identities", metric="randers", metric_eps=0.9,
                           connection=connection, seed=41)
    report = run_identity_suite(cfg)
    assert [r.name for r in report.rows if not r.passed] == []
    assert report.passed
