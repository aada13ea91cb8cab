"""Config parsing, runners, report emission, determinism, exit codes."""

import math
import os

import numpy as np
import pytest

from finslergbc.cli import (
    DISC_LIMIT_TOL,
    MAX_IDENTITY_SAMPLES,
    MAX_QUADRATURE_ORDER,
    SETTINGS,
    ExperimentConfig,
    Report,
    ReportRow,
    emit_report,
    main,
    run_degrees,
    run_gbc,
    run_identity_suite,
    run_minkowski_props,
)
from finslergbc import cli, metric
from finslergbc.errors import InvalidMetricError, ValidationError
from finslergbc.metric import MinkowskiNorm, quartic_norm, randers_norm, riemannian_norm, sum_norms

from conftest import CountingAtlas

# A value other than the default for every setting that has a flag, as the
# text an INI file or the command line gives.
SETTING_TEXT = {
    "seed": "7", "identity_samples": "7", "manifold": "torus", "metric": "randers",
    "metric_eps": "0.15", "connection": "perturbed", "perturbation_amplitude": "0.15",
    "vector_field": "custom", "field_power": "1", "order_fiber": "7", "order_base": "7",
    "epsilon_schedule": "0.3,0.15", "out_dir": "out",
}


@pytest.fixture()
def fast_cfg():
    """Low-order config so CLI-path tests stay quick."""
    return ExperimentConfig(
        metric="round_sphere",
        order_base=16,
        order_fiber=32,
        epsilon_schedule=(0.3, 0.2, 0.1),
        identity_samples=8,
    )


def _fresh_python(*args):
    """A fresh interpreter run with args, the package's source on its path."""
    import subprocess
    import sys

    import finslergbc

    src = os.path.dirname(os.path.dirname(os.path.abspath(finslergbc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _loaded_in_fresh_interpreter(modules, *calls) -> list:
    """Those of modules that are in sys.modules after a fresh interpreter
    runs calls, cli runner calls whose reports must pass."""
    code = (
        "import sys\n"
        "from finslergbc.cli import ExperimentConfig, run_gbc, run_identity_suite\n"
        + "".join(f"assert {call}.passed\n" for call in calls) +
        f"print(*(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    out = _fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


class TestConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[scenario]\nid = gbc\nseed = 77\n"
            "[manifold]\ntype = sphere\nmetric = randers\neps = 0.2\n"
            "[connection]\ntype = perturbed\nperturbation_amplitude = 0.1\n"
            "[vector_field]\ntype = stereographic_power\npower = 2\n"
            "[quadrature]\norder_fiber = 32\norder_base = 24\n"
            "epsilon_schedule = 0.3,0.15\n"
            "[output]\ndir = out\n"
        )
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.seed == 77
        assert cfg.metric == "randers" and cfg.metric_eps == 0.2
        assert cfg.connection == "perturbed" and cfg.perturbation_amplitude == 0.1
        assert cfg.vector_field == "stereographic_power" and cfg.field_power == 2
        assert cfg.epsilon_schedule == (0.3, 0.15)
        assert cfg.out_dir == "out"

    def test_custom_field_exprs(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[vector_field]\ntype = custom\nsouth_u = u\nsouth_v = -v\n"
        )
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.field_exprs == {"south": ("u", "-v")}

    @pytest.mark.parametrize("count", [1, 2, 3, 199, 200, 201])
    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    def test_bundle_samples_count_exact(self, manifold, count):
        """The identity suite evaluates exactly the requested number of
        bundle points: the first charts take the remainder, and a chart
        with no share gets no batch.  An even count on the sphere draws
        the same points as the even split it always had, count // 2 per
        chart in chart order."""
        from finslergbc.identities import _bundle_samples
        from finslergbc.manifolds import ATLASES

        cfg = ExperimentConfig(manifold=manifold, seed=1234)
        batches = _bundle_samples(cfg, ATLASES[manifold](), count)
        sizes = [b.size for b in batches]
        assert sum(sizes) == count
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        assert all(b.dim == 3 for b in batches)
        if manifold == "sphere" and count % 2 == 0:
            rng = np.random.default_rng(1234)
            for batch in batches:
                n = count // 2
                r = np.sqrt(rng.uniform(0.0, 0.92, n))
                ph = rng.uniform(0.0, 2.0 * np.pi, n)
                th = rng.uniform(0.0, 2.0 * np.pi, n)
                for got, want in zip(batch.coords, (r * np.cos(ph), r * np.sin(ph), th)):
                    assert np.array_equal(got, want)

    def test_mutable_defaults_not_shared(self):
        """Each instance gets its own dict or list where a default is
        mutable."""
        from finslergbc.quadrature import ChartPoints

        a, b = ExperimentConfig(), ExperimentConfig()
        assert a.field_exprs is not b.field_exprs and a.field_exprs == {}
        assert a.ehresmann_exprs is not b.ehresmann_exprs and a.ehresmann_exprs == {}
        p, q = ChartPoints("south", ()), ChartPoints("south", ())
        assert p.cache is not q.cache and p.cache == {}
        r, t = Report("gbc", []), Report("gbc", [])
        assert r.convergence is not t.convergence and r.convergence == []
        assert r.metadata is not t.metadata and r.metadata == {}

    @pytest.mark.parametrize("make", [
        lambda: ExperimentConfig(no_such_field=1),
        lambda: ExperimentConfig("gbc", *range(20)),
        lambda: Report("gbc", [], no_such_field=1),
        lambda: ReportRow("x", 1.0, None, None, True, 0),
    ], ids=["config-keyword", "config-positional", "report", "row"])
    def test_unknown_argument_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_merge_keeps_unset_fields(self):
        """_merge returns a new config with the flags that are set and every
        other field, the INI-only ones too, as it was."""
        import argparse

        from finslergbc.cli import _merge

        cfg = ExperimentConfig(
            "identities", seed=7, manifold="torus", metric="quartic", metric_eps=0.05,
            connection="perturbed", perturbation_amplitude=0.3,
            ehresmann_exprs={"n11": "0"}, vector_field="custom", field_power=3,
            field_exprs={"torus": ("1", "0")}, order_fiber=32, order_base=24,
            epsilon_schedule=(0.3, 0.1), identity_samples=50, out_dir="out")
        before = dict(vars(cfg))
        merged = _merge(cfg, argparse.Namespace(seed=11, order_base=None,
                                                epsilon_schedule="0.25,0.05"))
        assert merged is not cfg and vars(cfg) == before
        assert vars(merged) == {**before, "seed": 11, "epsilon_schedule": (0.25, 0.05)}

    def test_shipped_config_values(self):
        """configs/randers_gbc.ini reads as every field it has always read."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "randers_gbc.ini")
        assert vars(ExperimentConfig.from_file(path, "gbc")) == {
            "scenario": "gbc", "seed": 1234, "manifold": "sphere", "metric": "randers",
            "metric_eps": 0.1, "connection": "cartan", "perturbation_amplitude": 0.2,
            "ehresmann_exprs": {}, "vector_field": "rotational",
            "field_power": 2, "field_exprs": {}, "order_fiber": 64, "order_base": 48,
            "epsilon_schedule": (0.2, 0.1, 0.05), "identity_samples": 200,
            "out_dir": "results",
        }

    @pytest.mark.parametrize("setting", [s for s in SETTINGS if s.flag],
                             ids=lambda s: s.field)
    def test_ini_key_and_flag_agree(self, setting, tmp_path, monkeypatch, capsys):
        """Each setting's INI key and its flag set the same field to the
        same value, one that is not the default."""
        import finslergbc.cli as cli

        text = SETTING_TEXT[setting.field]
        if setting.field == "out_dir":
            text = str(tmp_path / text)
        seen = []
        monkeypatch.setitem(cli.__dict__, "run_gbc",
                            lambda cfg: seen.append(cfg) or Report("gbc", []))
        path = tmp_path / "one.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {text}\n")
        assert main(["gbc", "--config", str(path)]) == 0
        assert main(["gbc", setting.flag, text]) == 0
        from_ini, from_flag = (getattr(cfg, setting.field) for cfg in seen)
        assert from_ini == from_flag != setting.default

    def test_readme_lists_every_key(self):
        """The README's "Config files" block lists exactly the INI keys of
        SETTINGS and [scenario] id; the expression groups are commented."""
        import re

        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme).read()
        block = re.search(r"## Config files.*?```ini\n(.*?)```", text, re.S).group(1)
        listed, section = set(), None
        for line in block.splitlines():
            if m := re.match(r"\[(\w+)\]", line):
                section = m.group(1)
            elif m := re.match(r"(\w+) =", line):
                listed.add((section, m.group(1)))
        assert listed == {(s.section, s.key) for s in SETTINGS} | {("scenario", "id")}

    @pytest.mark.parametrize("samples", [MAX_IDENTITY_SAMPLES + 1, 10 ** 9])
    def test_identity_samples_bounded(self, samples):
        """A sample count past MAX_IDENTITY_SAMPLES is rejected by validate,
        before any point is drawn."""
        with pytest.raises(ValidationError, match="identity samples"):
            ExperimentConfig(identity_samples=samples).validate()


class TestRunners:
    def test_gbc_round_low_order(self, fast_cfg):
        report = run_gbc(fast_cfg)
        assert report.row("poincare_hopf_sum").passed
        row = report.row("normalized_gbc_integral")
        assert row.target == 2.0
        assert abs(row.value - 2.0) < 5e-2  # loose at low order
        assert len(report.convergence) == 3

    def test_gbc_torus_exact_zero(self):
        cfg = ExperimentConfig(
            manifold="torus", metric="euclidean", vector_field="constant",
            order_base=12, order_fiber=32,
        )
        report = run_gbc(cfg)
        assert report.row("normalized_gbc_integral").value == pytest.approx(0.0, abs=1e-9)
        assert report.row("gbc_disc_limit").value == report.row("normalized_gbc_integral").value
        assert report.passed

    @pytest.mark.parametrize("connection", ["cartan", "perturbed"])
    def test_riemannian_is_not_euclidean(self, connection):
        """The zoo's riemannian metric, whose default G is not the identity,
        is no second name for euclidean: on the torus at seed 1234 the
        identity rows differ, so its grid cells can fail on their own."""
        rows = {m: [repr(r.value) for r in run_identity_suite(ExperimentConfig(
            "identities", manifold="torus", metric=m, connection=connection,
            identity_samples=8)).rows] for m in ("euclidean", "riemannian")}
        assert rows["riemannian"] != rows["euclidean"]

    def test_identities_fast(self, fast_cfg):
        report = run_identity_suite(fast_cfg)
        assert report.passed
        names = {r.name for r in report.rows}
        assert "eq33_dPi_minus_omega_nabla" in names
        assert "eq32_component_identity" in names

    def test_identities_one_stencil_sweep_per_batch(self, monkeypatch):
        """The five differentiated fields share one stencil sweep per chart
        batch: 3 displaced stacks, plus 6 for the curvature of nabla on them
        (along the two axes across each stack, computed once, cached on it
        for U_1 and the primitive), plus 3 for the curvature at the batch;
        gbc_integrand makes none.  Two batches make 24 stacks; the full
        nested stencil made 30, and one sweep per field 78."""
        from finslergbc.quadrature import ChartPoints

        calls = []
        shifted = ChartPoints.shifted

        def spy(self, axis, steps):
            calls.append(axis)
            return shifted(self, axis, steps)

        monkeypatch.setattr(ChartPoints, "shifted", spy)
        cfg = ExperimentConfig(scenario="identities", metric="randers",
                               connection="cartan", identity_samples=2)
        assert run_identity_suite(cfg).passed
        assert len(calls) == 24

    def test_identities_tensor_chain_once_per_point_set(self, monkeypatch):
        """On the identities-randers benchmark configuration each chart batch
        runs the tensor chain on 8 point sets in 6 passes: the batch (100
        points), its complex-step pass (300), the 3 stacks of its sweep in
        one pass (1,200) and the 3 pairs of axes (1,600 each), which both
        routes to a pair share.  So 12 metric_jets calls cover 12,800
        points, and bundle_tensors is called 14 times: once more per chart
        batch, a cache hit for the prop32 row.  The nested pairs keep a pass
        each, so the largest pass, which sets the peak memory of the chain,
        is one pair's 1,600 points."""
        import finslergbc.connection as cn

        jets, tensors = [], []
        metric_jets, bundle_tensors = cn.metric_jets, cn.bundle_tensors
        monkeypatch.setattr(cn, "metric_jets", lambda *a: jets.append(
            np.size(a[2])) or metric_jets(*a))
        monkeypatch.setattr(cn, "bundle_tensors", lambda *a: tensors.append(a)
                            or bundle_tensors(*a))
        cfg = ExperimentConfig(scenario="identities", manifold="sphere", metric="randers",
                               metric_eps=0.1, connection="cartan", identity_samples=200,
                               seed=1234)
        assert run_identity_suite(cfg).passed
        assert (len(jets), sum(jets), len(tensors)) == (12, 12800, 14)
        assert max(jets) == 1600

    def test_identities_evaluates_perturbation_once_per_batch(self, monkeypatch):
        """On identities with D = cartan + P (Randers 0.1, seed 1234), D, its
        modification and the prop32 natural-frame data read P through one
        entry on the root batch, and a stencil stack whose points another
        route displaced the same way takes pi from its root batch: P's body
        runs once on each of the 6 passes per chart batch (the batch, its
        complex-step pass, the 3 stacks of its sweep together and the 3
        pairs of axes), 12 in all."""
        evaluations = []
        make = cli.sinusoidal_perturbation
        monkeypatch.setattr(cli, "sinusoidal_perturbation", lambda atlas, *a:
                            make(CountingAtlas(atlas, evaluations), *a))
        cfg = ExperimentConfig(scenario="identities", metric="randers", connection="perturbed")
        assert run_identity_suite(cfg).passed
        assert len(evaluations) == 12

    def test_gbc_makes_no_displaced_batch(self, monkeypatch):
        """The production integrand takes its curvature from complex-step
        partials: a Randers run with D != nabla builds no FD stack."""
        from finslergbc.quadrature import ChartPoints

        calls = []
        shifted = ChartPoints.shifted
        monkeypatch.setattr(ChartPoints, "shifted",
                            lambda self, *a: calls.append(a) or shifted(self, *a))
        cfg = ExperimentConfig(metric="randers", connection="perturbed", order_base=12,
                               order_fiber=16, epsilon_schedule=(0.2, 0.1))
        assert len(run_gbc(cfg).convergence) == 2
        assert calls == []

    def test_gbc_base_points_at_workload_orders(self, monkeypatch):
        """At base order 48 and eps = 0.2, 0.1, 0.05 a sphere run with a
        zero in each chart integrates the discs r <= 1, 0.2, 0.1, 0.05 of
        each chart from the 32 x 12 nodes of its unit disc: the nested phi
        rule converges at its first pass of 12 nodes, so 2 node sets, 768
        base points, and one integrand batch per chart.  The fiber rule
        converges at its first pass of 16 nodes."""
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.quadrature import AnnulusRegion, BoxRegion, FormField

        counts, batches = [], []

        def counting(fn):
            def spy(*args):
                out = fn(*args)
                counts.append(len(out[0]))
                return out
            return spy

        integrand = TransgressionForms.gbc_integrand

        def recording(self, section=None):
            f = integrand(self, section)
            return FormField(f.dim, f.degree,
                             lambda p: batches.append((p.chart, p.size)) or f(p))

        monkeypatch.setattr(AnnulusRegion, "nodes", counting(AnnulusRegion.nodes))
        monkeypatch.setattr(BoxRegion, "nodes", counting(BoxRegion.nodes))
        monkeypatch.setattr(TransgressionForms, "gbc_integrand", recording)
        cfg = ExperimentConfig(metric="randers", metric_eps=0.1, connection="perturbed",
                               perturbation_amplitude=0.2, order_base=48, order_fiber=64,
                               epsilon_schedule=(0.2, 0.1, 0.05))
        report = run_gbc(cfg)
        assert report.passed
        assert counts == [384] * 2
        assert sum(counts) == 768
        assert batches == [("south", 384), ("north", 384)]
        assert report.metadata["phi_nodes"] == "south=12,north=12"
        assert report.metadata["fiber_nodes"] == "south=16,north=16"

    def test_gbc_passes_hold_one_block(self, monkeypatch):
        """With the block made small, no evaluation of the gbc integrand
        holds more base points than one block, and no fiber pass more base
        points x fiber nodes.  The node counts stay, and the per-eps values
        lie within 1e-14 of the unblocked run: V and d log V keep their
        bits under re-batching, the complex-step partials need not (numpy's
        complex loops round by array position)."""
        from finslergbc import metric, quadrature
        from finslergbc.chern_forms import TransgressionForms
        from finslergbc.quadrature import FormField

        cfg = ExperimentConfig(metric="randers", connection="perturbed", order_base=12,
                               order_fiber=16, epsilon_schedule=(0.2, 0.1, 0.05))
        whole = run_gbc(cfg)
        block, base, fiber = 128, [], []
        integrand, form = TransgressionForms.gbc_integrand, metric.fiber_volume_form

        def recording(self, section=None):
            f = integrand(self, section)
            return FormField(f.dim, f.degree, lambda p: base.append(p.size) or f(p))

        def fiber_form(met, x, th, chart):
            fiber.append(np.broadcast(*x, th).size)
            return form(met, x, th, chart)

        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
        monkeypatch.setattr(TransgressionForms, "gbc_integrand", recording)
        monkeypatch.setattr(metric, "fiber_volume_form", fiber_form)
        blocked = run_gbc(cfg)
        assert len(base) > 2 and max(base) <= block
        assert len(fiber) > 2 and max(fiber) <= block
        assert blocked.passed and whole.passed
        for key in ("phi_nodes", "fiber_nodes"):
            assert blocked.metadata[key] == whole.metadata[key]
        assert [e for e, _ in blocked.convergence] == [e for e, _ in whole.convergence]
        for (_, got), (_, want) in zip(blocked.convergence, whole.convergence):
            assert abs(got - want) <= 1e-14

    def test_gbc_builds_no_curvature_data(self, monkeypatch):
        """The fused integrand reads pi_0^1 alone, so a gbc run constructs
        no CurvatureData; the identity suite's forms (IdentityForms) build
        one each for D and nabla."""
        from finslergbc.connection import CurvatureData

        built = []
        init = CurvatureData.__init__
        monkeypatch.setattr(CurvatureData, "__init__",
                            lambda self, conn: built.append(conn) or init(self, conn))
        cfg = ExperimentConfig(metric="randers", connection="perturbed", order_base=12,
                               order_fiber=16, epsilon_schedule=(0.2, 0.1, 0.05))
        assert run_gbc(cfg).passed
        assert built == []
        assert run_identity_suite(ExperimentConfig(metric="randers", connection="perturbed",
                                                   identity_samples=8)).passed
        assert len(built) == 2 and built[0] is not built[1]

    def test_quartic_torus_fiber_rule_converges_by_default(self):
        """gbc on the quartic torus with the constant field takes the 256
        fiber nodes its V needs under the default cap, and reports them
        converged."""
        cfg = ExperimentConfig(manifold="torus", metric="quartic", vector_field="constant")
        report = run_gbc(cfg)
        assert report.passed
        assert report.metadata["fiber_nodes"] == "torus=256"

    def test_unconverged_fiber_rule_is_reported(self):
        """A fiber rule that stops at its cap without converging says so in
        the report metadata and fails quadrature_rules_converged, which
        counts both charts' rules: Randers 0.9 at order_fiber 16, where the
        rule needs 128 nodes."""
        cfg = ExperimentConfig(metric="randers", metric_eps=0.9, order_base=6, order_fiber=16,
                               epsilon_schedule=(0.2, 0.1))
        report = run_gbc(cfg)
        meta = report.metadata
        assert meta["fiber_nodes"] == ("south=16 (not converged at cap),"
                                       "north=16 (not converged at cap)")
        assert meta["phi_nodes"] == "south=12,north=12"
        row = report.row("quadrature_rules_converged")
        assert (row.value, row.target, row.passed) == (2.0, 0.0, False)
        assert not report.passed

    @pytest.mark.parametrize("cap, nodes", [(33, 16), (25, 24), (17, 16)])
    def test_odd_fiber_cap_is_estimated(self, cap, nodes):
        """An odd order_fiber still gives the fiber rule an error estimate,
        so a converged rule says so: the rule starts from the cap rounded
        down to even (32, 24, 16, halved to 16, 12, 16), and on Randers 0.1
        it converges at 16 or 24 nodes."""
        cfg = ExperimentConfig(metric="randers", metric_eps=0.1, order_base=6, order_fiber=cap)
        report = run_gbc(cfg)
        assert report.passed
        assert report.metadata["fiber_nodes"] == f"south={nodes},north={nodes}"

    def test_disc_limit_fails_under_mutation(self, monkeypatch):
        """gbc_disc_limit can fail: an integrand scaled by 1 + 1e-6 moves
        it by 2e-6, far outside its 1e-14, while the Neville headline
        still passes."""
        from finslergbc.chern_forms import TransgressionForms

        cfg = ExperimentConfig(metric="randers", connection="perturbed", order_base=12,
                               order_fiber=16)
        assert run_gbc(cfg).row("gbc_disc_limit").passed
        integrand = TransgressionForms.gbc_integrand
        monkeypatch.setattr(TransgressionForms, "gbc_integrand",
                            lambda self, section=None: (1.0 + 1e-6) * integrand(self, section))
        report = run_gbc(cfg)
        assert report.row("normalized_gbc_integral").passed
        assert not report.row("gbc_disc_limit").passed
        assert not report.passed

    @pytest.mark.parametrize("order_base", [6, 96])
    def test_disc_limit_holds_at_low_order(self, order_base):
        """The polar unit discs reach chi within 1e-14 on the degree-2
        stereographic field with a strong Randers metric.  Base order 6
        runs the 32 x 32 floor rule that every order up to 50 runs; a
        Gauss-Legendre annulus outside the zeros missed chi there by
        4.4e-5.  Order 96 runs the 64 x 64 rule."""
        cfg = ExperimentConfig(metric="randers", metric_eps=0.7, connection="cartan",
                               vector_field="stereographic_power", order_base=order_base)
        assert DISC_LIMIT_TOL == 1e-14
        assert run_gbc(cfg).row("gbc_disc_limit").passed

    def test_gbc_loads_no_numpy_random_or_ma(self):
        """A gbc run draws its certification samples from the standard
        library, takes find_zeros' median without np.median and builds its
        Gauss-Legendre rules by Newton's method, so neither numpy.random,
        numpy.ma nor numpy.polynomial is imported, in a fresh interpreter."""
        cfg = ("ExperimentConfig(metric='randers', connection='perturbed', order_base=12,"
               " order_fiber=16)")
        assert _loaded_in_fresh_interpreter(
            ("numpy.random", "numpy.ma", "numpy.polynomial"), f"run_gbc({cfg})") == []

    def test_identities_load_no_numpy_polynomial(self):
        """The identity suite's gamma-coefficient rule comes from
        gauss_legendre too, so it leaves numpy.polynomial unloaded."""
        cfg = "ExperimentConfig(metric='randers', identity_samples=20)"
        assert _loaded_in_fresh_interpreter(
            ("numpy.polynomial",), f"run_identity_suite({cfg})") == []

    def test_runs_load_no_dataclasses_or_configparser(self):
        """The package's classes are plain classes and only --config reads
        INI text, so a passing gbc run and a passing identity suite leave
        dataclasses and configparser unloaded (numpy loads neither), in a
        fresh interpreter.  Only main parses flags and only the identity
        suite runs the general-rank forms, so a gbc run on the benchmark
        workload's config leaves argparse and finslergbc.identities unloaded
        as well, and run_identity_suite loads its module itself."""
        gbc = ("ExperimentConfig(metric='randers', metric_eps=0.1, connection='perturbed',"
               " perturbation_amplitude=0.2, vector_field='rotational', order_base=48,"
               " order_fiber=64, epsilon_schedule=(0.2, 0.1, 0.05))")
        identities = "ExperimentConfig(metric='randers', identity_samples=20)"
        modules = ("dataclasses", "configparser", "argparse", "finslergbc.identities",
                   "finslergbc.algebra")
        # The benchmark's tracer patches algebra through
        # sys.modules["finslergbc.algebra"], so importing the cli must load
        # it: without it every traced benchmark call fails.
        assert _loaded_in_fresh_interpreter(modules, f"run_gbc({gbc})") == [
            "finslergbc.algebra"]
        assert _loaded_in_fresh_interpreter(
            modules, f"run_gbc({gbc})", f"run_identity_suite({identities})") == [
            "finslergbc.identities", "finslergbc.algebra"]

    @pytest.mark.parametrize("field", ["rotational", "height_gradient"])
    @pytest.mark.parametrize("connection", ["cartan", "perturbed"])
    def test_round_sphere_closed_form(self, connection, field):
        """On the round sphere the per-eps value has the closed form
        2(1 - eps^2)/(1 + eps^2), whatever the connection and field; exact
        curvature keeps every per-eps value within 1e-14 of it."""
        cfg = ExperimentConfig(metric="round_sphere", connection=connection,
                               vector_field=field)
        report = run_gbc(cfg)
        assert len(report.convergence) == 3
        for eps, value in report.convergence:
            assert abs(value - 2.0 * (1.0 - eps * eps) / (1.0 + eps * eps)) <= 1e-14, eps

    def test_degrees(self, fast_cfg):
        report = run_degrees(fast_cfg)
        assert report.passed

    def test_gbc_volume_spread_row_only_for_randers(self, fast_cfg):
        report = run_gbc(fast_cfg)
        assert all(r.name != "fiber_volume_spread" for r in report.rows)


class TestEmission:
    def _report(self):
        return Report(
            "demo",
            [ReportRow("a", 1.0, 1.0, 0.1, True), ReportRow("b", 2.0, None, None, True)],
            [(0.2, 1.9), (0.1, 1.99)],
            {"seed": 1},
        )

    def test_csv_written(self, tmp_path, capsys):
        """With a directory, the CSVs and report.txt go there, and stdout
        carries the same table as report.txt."""
        paths = emit_report(self._report(), str(tmp_path))
        assert {os.path.basename(p) for p in paths} == {
            "report.csv", "convergence.csv", "report.txt"}
        assert capsys.readouterr().out == (tmp_path / "report.txt").read_text()
        lines = open(os.path.join(tmp_path, "convergence.csv")).read().splitlines()
        assert lines[0] == "scenario,epsilon,value"
        assert len(lines) == 3

    def test_deterministic_bytes(self, tmp_path):
        """Identical config and seed produce byte-identical CSVs."""
        cfg = ExperimentConfig(
            metric="round_sphere", order_base=10, order_fiber=32,
            epsilon_schedule=(0.3,), identity_samples=4,
        )
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / run
            report = run_gbc(cfg)
            emit_report(report, str(out))
            blobs.append(
                open(out / "report.csv", "rb").read()
                + open(out / "convergence.csv", "rb").read()
            )
        assert blobs[0] == blobs[1]

    def test_table_to_stdout(self, capsys):
        emit_report(self._report())
        out = capsys.readouterr().out
        assert "demo" in out and "pass" in out


class TestMainEntry:
    @pytest.mark.parametrize("sub", ["gbc", "identities", "minkowski-props", "degrees"])
    def test_help_exits_zero(self, sub, capsys):
        """Every subcommand's --help prints its flags and exits 0: the
        parser, built inside main, still knows each setting's flag."""
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(s.flag in out for s in SETTINGS if s.flag)

    def test_identities_without_samples_rejected(self, capsys):
        """An identity run with no samples exits 2 before the suite loads."""
        assert main(["identities", "--samples", "0"]) == 2
        assert "identity samples" in capsys.readouterr().err

    def test_exit_zero_on_pass(self, capsys):
        rc = main(["degrees"])
        assert rc == 0

    def test_module_run_executes_cli_once(self):
        """``python -m finslergbc`` runs ``finslergbc/__main__.py``, which
        imports ``cli.main``: an identities run through it executes the
        code of cli.py once, though ``identities`` imports its helpers from
        ``finslergbc.cli`` (run as ``python -m finslergbc.cli``, cli.py ran
        as ``__main__`` and again as ``finslergbc.cli``).  The package runs
        as -m runs it, through runpy, under an audit hook that counts every
        execution of a code object compiled from cli.py."""
        code = (
            "import atexit, runpy, sys\n"
            "runs = []\n"
            "sys.addaudithook(lambda event, args: event == 'exec' and hasattr(args[0], "
            "'co_filename') and args[0].co_filename.endswith('cli.py') and runs.append(1))\n"
            "atexit.register(lambda: print('cli runs', len(runs)))\n"
            "sys.argv = ['finslergbc', 'identities', '--metric', 'randers', '--samples', '8']\n"
            "runpy.run_module('finslergbc', run_name='__main__', alter_sys=True)\n"
        )
        out = _fresh_python("-c", code)
        assert out.returncode == 0, out.stderr
        assert "eq34_gbc_exactness" in out.stdout
        assert out.stdout.splitlines()[-1] == "cli runs 1"

    def test_cli_module_run_points_to_the_package(self):
        """``python -m finslergbc.cli`` runs no scenario: it exits 2 and
        names ``python -m finslergbc``, rather than exit 0 having done
        nothing."""
        out = _fresh_python("-m", "finslergbc.cli", "degrees")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "python -m finslergbc`" in out.stderr
        out = _fresh_python("-m", "finslergbc", "degrees")
        assert out.returncode == 0, out.stderr
        assert "ph_sum_torus_constant" in out.stdout

    def test_exit_codes_reflect_failure(self, monkeypatch, capsys):
        import finslergbc.cli as cli

        def fake(cfg):
            return Report("gbc", [ReportRow("x", 1.0, 2.0, 0.1, False)], [], {})

        monkeypatch.setitem(cli.__dict__, "run_gbc", fake)
        # main looks the runner up from its own mapping, so patch there
        rc = cli.main(["gbc", "--order-base", "8", "--order-fiber", "32",
                       "--epsilon-schedule", "0.3"])
        assert rc == 1

    @pytest.mark.parametrize("flags", [
        ["--epsilon-schedule", "-0.1"],
        ["--epsilon-schedule", "0.2,0.2"],
        ["--epsilon-schedule", "1.5,0.5"],
        ["--order-base", "0"],
        ["--order-fiber", "0"],
        ["--samples", "0"],
        ["--epsilon-schedule", "0.2,abc"],
        ["--config", "no-such-config.ini"],
        ["--connection", "perturbed", "--amplitude", "nan"],
        ["--connection", "perturbed", "--amplitude", "inf"],
        ["--manifold", "klein"],
        ["--field", "spiral"],
        ["--seed", "abc"],
        ["--seed", "-1"],
        ["--manifold", "torus", "--metric", "euclidean", "--field", "custom"],
    ])
    def test_invalid_config_rejected(self, flags, capsys):
        """Nonpositive, repeated or non-numeric radii, radii past the unit
        chart disk, empty quadrature rules, no identity samples, a config
        file that does not exist, a non-finite perturbation amplitude, a
        manifold or vector field outside its choices, a seed that is not
        a number, a negative seed and a custom field with no component in
        the torus chart exit 2 before any work is done."""
        assert main(["gbc", *flags]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--order-base", "100000000"],
        ["--order-fiber", "100000000"],
        ["--order-base", str(MAX_QUADRATURE_ORDER + 1)],
        ["--order-fiber", str(MAX_QUADRATURE_ORDER + 1)],
    ])
    def test_huge_quadrature_order_rejected(self, flags, capsys):
        """An order past MAX_QUADRATURE_ORDER exits 2 with a ValidationError
        before any rule is built; base order 1e8 used to end in a numpy
        memory error from leggauss."""
        assert main(["gbc", *flags]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [
        "[vector_field]\ntype = custom\nsouth_u = u\n",
        "[vector_field]\ntype = custom\nsouth_u = u +\nsouth_v = v\n",
        "[vector_field]\ntype = custom\nsouth_v = v\n"
        "south_u = u + 0*(().__class__.__mro__[1].__subclasses__().__len__())\n",
        "[ehresmann]\nn11 = __import__('os').getpid() * y1\n",
        "[scenario]\nseed = abc\n",
        "[connection]\ntype = perturbed\nperturbation_amplitude = nan\n",
        "[vector_field]\ntype = custom\nsouth_u = u*u - v*v\nsouth_v = 2*u*v\n",
        "[output]\nformat = xml\n",
    ], ids=["missing-v", "syntax", "attribute-escape", "call-escape", "bad-number",
            "nan-amplitude", "missing-chart", "bad-format"])
    def test_invalid_ini_rejected(self, section, tmp_path, capsys):
        """An incomplete field pair, expressions outside the arithmetic
        whitelist, a malformed number, a non-finite amplitude, a custom field
        that leaves out the north chart (its degree-2 zero in the south
        chart alone sums to chi, so only the chart check stops it) and the
        retired [output] format key exit 2 with a ValidationError, not a
        traceback."""
        path = tmp_path / "bad.ini"
        path.write_text(section)
        assert main(["gbc", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("group", [
        "[ehresmann]\nn22 = {}\n",
        "[vector_field]\ntype = custom\nsouth_u = {}\nsouth_v = u\nnorth_u = v\nnorth_v = -1.0*u\n",
    ], ids=["ehresmann", "vector_field"])
    @pytest.mark.parametrize("expr", ["1/0*u", "0**-1*u", "10.0**400*u", "u*2**10000",
                                      "(-1.0)**0.5*u"],
                             ids=["zero-division", "zero-power", "float-overflow",
                                  "int-overflow", "complex"])
    def test_bad_constant_in_expression_rejected(self, group, expr, tmp_path, capsys):
        """A constant subexpression that raises (a division by zero, an
        overflow) or is complex exits 2 with a ValidationError naming the
        expression, not a traceback: each is evaluated once as the
        expression compiles."""
        path = tmp_path / "bad.ini"
        path.write_text(group.format(expr))
        assert main(["gbc", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and repr(expr) in err
        assert "Traceback" not in err

    def test_order_three_zero_config(self):
        """configs/order3_zero_gbc.ini holds zeros of degrees 3 and -1, where
        Newton's Jacobian turns singular before |X| < 1e-12; both are found,
        and the run exits 0 with gbc_disc_limit within 1e-14 of chi = 2."""
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "order3_zero_gbc.ini")
        assert main(["gbc", "--config", path]) == 0
        report = run_gbc(ExperimentConfig.from_file(path))
        assert report.passed
        assert abs(report.row("gbc_disc_limit").value - 2.0) <= 1e-14

    def test_order_four_zero_at_chart_centre(self, tmp_path, capsys):
        """A smooth field with a zero of order 4 at the south centre, z^4 /
        q^2 there and -w^2 / q^2 in the north (degrees 4 and -2), exits 0:
        Newton places z^4 only to about 1e-3, so the centre check reads X
        at the centre itself.  gbc_disc_limit lies within 1e-14 of chi = 2,
        and on the round sphere each per-eps value within 1e-14 of the
        closed form 2 (1 - eps^2) / (1 + eps^2)."""
        q = "(1.0+u*u+v*v)**2"
        path = tmp_path / "z4.ini"
        path.write_text("[vector_field]\ntype = custom\n"
                        f"south_u = (u*u*u*u - 6.0*u*u*v*v + v*v*v*v)/{q}\n"
                        f"south_v = (4.0*u*u*u*v - 4.0*u*v*v*v)/{q}\n"
                        f"north_u = -1.0*(u*u - v*v)/{q}\nnorth_v = 2.0*u*v/{q}\n")
        assert main(["gbc", "--config", str(path)]) == 0, capsys.readouterr().err
        report = run_gbc(ExperimentConfig.from_file(str(path)))
        assert report.passed
        assert abs(report.row("gbc_disc_limit").value - 2.0) <= 1e-14
        for eps, value in report.convergence:
            assert abs(value - 2.0 * (1.0 - eps * eps) / (1.0 + eps * eps)) <= 1e-14, eps

    def test_zero_near_but_off_the_centre_rejected(self, tmp_path, capsys):
        """A zero 0.01 from the south centre lies within the degree probe's
        radius, but X does not vanish at the centre, so the unit discs would
        integrate the wrong excision: ValidationError, exit 2."""
        path = tmp_path / "near.ini"
        path.write_text("[vector_field]\ntype = custom\nsouth_u = u - 0.01\nsouth_v = v\n"
                        "north_u = -1.0*u\nnorth_v = -1.0*v\n")
        assert main(["gbc", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "chart centers" in err

    def test_variable_exponent_in_custom_field(self, tmp_path, capsys):
        """A power whose exponent holds a variable, under the dual numbers
        of the Newton step and theta_grad, is exp(p log x): the constant
        base 2**(0.0*u) and the dual base (1+0.0*u)**v are both exactly 1,
        so either field exits 0 with the per-eps values of -1.0*v, bit for
        bit."""
        def run(south_u):
            path = tmp_path / "power.ini"
            path.write_text(f"[vector_field]\ntype = custom\nsouth_u = {south_u}\n"
                            "south_v = u\nnorth_u = v\nnorth_v = -1.0*u\n")
            assert main(["gbc", "--config", str(path)]) == 0
            return [repr(v) for _, v in run_gbc(ExperimentConfig.from_file(str(path))).convergence]

        want = run("-1.0*v")
        assert run("-1.0*v*2**(0.0*u)") == want
        assert run("-1.0*v*(1+0.0*u)**v") == want
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[quadrature]\norder_fibre = 8\n[identities]\nsamples = 5\n",
        "[quadrature]\norder_fibre = 8\n",
        "[identities]\nsamples = 5\n",
        "[identities]\n",
        "[DEFAULT]\nseed = 5\n",
        "[vector_field]\nwest_u = u\nwest_v = v\n",
        "[ehresmann]\ntype = explicit\nn11 = 0.1*y1\n",
        "[output]\nformat = csv\n",
        "[output]\ndump_forms = true\n",
    ], ids=["both-typos", "misspelt-key", "unknown-section", "empty-unknown-section",
            "default-section", "unknown-chart", "ehresmann-type", "output-format",
            "output-dump-forms"])
    def test_unknown_ini_key_rejected(self, text, tmp_path, capsys):
        """A section or key that no setting and no expression group reads
        exits 2 with a ValidationError, so a misspelt key cannot leave its
        setting at the default unnoticed."""
        path = tmp_path / "typo.ini"
        path.write_text(text)
        assert main(["identities", "--samples", "2", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gbc", "--format", "csv"],
        ["gbc", "--format", "xml"],
        ["identities", "--dump-forms", "--samples", "8"],
    ], ids=["gbc-format-csv", "gbc-format-xml", "identities-dump-forms"])
    def test_retired_output_flag_rejected(self, argv, capsys):
        """--format, which only silenced stdout under --out, and
        --dump-forms, which only identities --out read, are no flags:
        argparse exits 2 before any work is done."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("type_line,kind", [("", "rotational"),
                                                ("type = height_gradient\n", "height_gradient")],
                             ids=["no-type", "height-gradient"])
    def test_field_exprs_need_custom_type(self, type_line, kind, tmp_path, capsys):
        """Field expressions under any type other than custom exit 2 with a
        ValidationError naming the keys and the type, rather than running
        the named (or the default rotational) field without them."""
        path = tmp_path / "field.ini"
        path.write_text(f"[vector_field]\n{type_line}south_u = u\nsouth_v = v\n"
                        "north_u = -1.0*u\nnorth_v = -1.0*v\n")
        assert main(["gbc", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "south_u, south_v, north_u, north_v" in err
        assert f"type = {kind}" in err

    def test_ini_id_of_another_subcommand_rejected(self, tmp_path, capsys):
        """A [scenario] id names the subcommand the file is for: running
        it under another subcommand exits 2 with a ValidationError instead
        of running that subcommand, and from_file checks the id against
        the subcommand it is given."""
        path = tmp_path / "identities.ini"
        path.write_text("[scenario]\nid = identities\n")
        assert main(["degrees", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert ExperimentConfig.from_file(str(path), "identities").scenario == "identities"
        with pytest.raises(ValidationError):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize("argv", [
        ["degrees", "--metric", "foo", "--metric-eps", "7"],
        ["minkowski-props", "--metric", "foo"],
        ["gbc", "--manifold", "torus", "--metric", "flat_torus", "--field", "constant"],
    ], ids=["degrees", "minkowski-props", "flat_torus"])
    def test_unknown_metric_rejected(self, argv, capsys):
        """A metric outside the zoo exits 2 with a ValidationError, also on
        the subcommands that never install a metric; flat_torus, which was
        the euclidean metric under a second name, is no zoo entry."""
        assert main(argv) == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_chern_modified_connection_rejected(self, tmp_path, capsys):
        """chern_modified, once an alias of cartan, is no connection: by
        flag or by INI key it exits 2 with a ValidationError."""
        assert main(["gbc", "--connection", "chern_modified"]) == 2
        assert "ValidationError" in capsys.readouterr().err
        path = tmp_path / "alias.ini"
        path.write_text("[connection]\ntype = chern_modified\n")
        assert main(["identities", "--samples", "2", "--config", str(path)]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["euclidean", "quartic", "riemannian"])
    def test_chart_constant_metric_on_sphere_rejected(self, metric, capsys):
        """A chart-constant norm is not a metric on the sphere: exit 2 with
        InvalidMetricError before any integral is taken."""
        assert main(["gbc", "--metric", metric]) == 2
        assert "InvalidMetricError" in capsys.readouterr().err

    def test_infinite_metric_parameter_rejected(self, capsys):
        """--metric-eps inf makes F infinite: exit 2 with InvalidMetricError,
        as nan does, not a run of nan integrals that reports FAIL."""
        assert main(["gbc", "--manifold", "torus", "--metric", "quartic",
                     "--metric-eps", "inf", "--field", "constant",
                     "--order-base", "8", "--order-fiber", "8"]) == 2
        assert "InvalidMetricError" in capsys.readouterr().err

    def test_offcenter_zero_rejected(self, monkeypatch, capsys):
        """The unit discs assume every zero sits at a chart centre: a zero
        found elsewhere is a ValidationError with exit 2, not a per-eps
        value that integrates the wrong discs."""
        import finslergbc.cli as cli
        from finslergbc.topology import ZeroRecord

        def displaced(X):
            return [ZeroRecord("south", (0.3, 0.0), 1), ZeroRecord("north", (0.0, 0.0), 1)]

        monkeypatch.setattr(cli, "find_zeros", displaced)
        rc = cli.main(["gbc", "--order-base", "8", "--order-fiber", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "(0.3, 0.0)" in err

    @pytest.mark.parametrize("power", [0, 2])
    def test_degree_probe_ignores_small_epsilon(self, power, capsys):
        """An epsilon schedule down to 1e-6 leaves the zeros' degrees alone:
        the winding circle has a fixed radius, well above the ~1e-6 to which
        Newton places the degree-2 zero (power 2 in the south chart, power 0
        in the north), so Poincare-Hopf holds and the run exits 0."""
        rc = main(["gbc", "--metric", "randers", "--field", "stereographic_power",
                   "--power", str(power), "--epsilon-schedule", "0.1,1e-6"])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["minkowski-props"],
        ["identities", "--samples", "8"],
    ], ids=["minkowski-props", "identities"])
    def test_unusable_out_dir_rejected(self, argv, tmp_path, capsys, monkeypatch):
        """An --out path under a regular file exits 2 with a ValidationError
        before the runner starts, not a NotADirectoryError traceback."""
        import finslergbc.cli as cli

        def never(cfg):
            raise AssertionError("the runner started")

        monkeypatch.setattr(cli, "run_minkowski_props", never)
        monkeypatch.setattr(cli, "run_identity_suite", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main([*argv, "--out", str(blocker / "out")]) == 2
        assert "error [ValidationError]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--seed", "-3"], ["--order-base", "0"],
                                       ["--epsilon-schedule", "1.5"]])
    def test_rejected_run_makes_no_out_dir(self, flags, tmp_path, capsys):
        """A run rejected for a bad setting exits 2 and leaves no --out
        directory behind: the config is validated before the directory is
        made."""
        out = tmp_path / "X"
        assert main(["gbc", *flags, "--out", str(out)]) == 2
        assert "error [ValidationError]" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_report_rejected(self, tmp_path, capsys):
        """A report file that cannot be written exits 2 with a
        ValidationError too."""
        (tmp_path / "report.csv").mkdir()
        assert main(["degrees", "--out", str(tmp_path)]) == 2
        assert "error [ValidationError]" in capsys.readouterr().err

    def test_error_reporting(self, capsys):
        rc = main(["gbc", "--manifold", "torus", "--metric", "euclidean",
                   "--field", "rotational"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


def _oracle_norm(rng):
    """One random norm of the per-pair minkowski-props loop: its kind, then
    its data, built by its public constructor."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return riemannian_norm(cli._random_spd(rng))
    if kind == 1:
        G = cli._random_spd(rng)
        evmin = float(np.min(np.linalg.eigvalsh(G)))
        b = rng.standard_normal(2)
        b *= rng.uniform(0.0, 0.8) * math.sqrt(evmin) / max(np.linalg.norm(b), 1e-12)
        return randers_norm(b, G)
    return quartic_norm(float(rng.uniform(0.02, 0.5)))


def _oracle_rows(seed: int) -> list:
    """The minkowski-props rows from one pair, and one Cartan ray, at a
    time: the oracle of the blocked sweep, as (name, repr of value,
    passed)."""
    rng = np.random.default_rng(seed)
    failures, homog_worst, eig_min = 0, 0.0, float("inf")
    for _ in range(200):
        fs = sum_norms(_oracle_norm(rng), _oracle_norm(rng))
        th = rng.uniform(0.0, 2.0 * math.pi, 100)
        y = [np.cos(th), np.sin(th)]
        lam = rng.uniform(0.2, 5.0, 100)
        lam_F = lam * fs(y)
        r = np.abs(fs([lam * y[0], lam * y[1]]) - lam_F)
        homog_worst = max(homog_worst, float(np.max(r / np.maximum(1.0, np.abs(lam_F)))))
        ev = np.linalg.eigvalsh(np.moveaxis(fs.fundamental(y), -1, 0)).min(axis=1)
        eig_min = min(eig_min, float(np.min(ev)))
        failures += int(np.count_nonzero((ev <= 0.0) | (r > 1e-9)))
    ycontract, riem_cartan = 0.0, 0.0
    for _ in range(50):
        f1 = _oracle_norm(rng)
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        y = np.array([math.cos(th), math.sin(th)])
        ycontract = max(ycontract, float(np.max(np.abs(np.einsum("k,kij->ij", y, f1.cartan(y))))))
        Ar = riemannian_norm(cli._random_spd(rng)).cartan(y)
        riem_cartan = max(riem_cartan, float(np.max(np.abs(Ar))))
    return [("sum_norm_failures", repr(float(failures)), failures == 0),
            ("sum_norm_homogeneity", repr(homog_worst), homog_worst <= 1e-10),
            ("sum_norm_min_eigenvalue", repr(eig_min), eig_min > 0.0),
            ("cartan_y_contraction", repr(ycontract), ycontract <= 1e-10),
            ("cartan_riemannian", repr(riem_cartan), riem_cartan <= 1e-12)]


def _rows(report) -> list:
    return [(r.name, repr(r.value), r.passed) for r in report.rows]


def _spd_call(seed: int, pair: int, kind: int) -> int:
    """The number (from 1) of the first ``cli._random_spd`` call of the
    minkowski-props pair sweep at or after the given pair that builds a
    norm of the given kind (0 riemannian, 1 randers), found by replaying
    the sweep's draws."""
    rng, calls = np.random.default_rng(seed), 0
    for p in range(200):
        for _ in range(2):
            drawn = cli._draw_norm(rng)[0]
            calls += drawn < 2
            if drawn == kind and p >= pair:
                return calls
        rng.uniform(0.0, 2.0 * math.pi, 100)
        rng.uniform(0.2, 5.0, 100)
    raise AssertionError(f"no norm of kind {kind} at or after pair {pair}")


def _spd_replaced(monkeypatch, k: int, bad) -> list:
    """Make the k-th ``cli._random_spd`` call return the matrix bad; the
    returned call list must be cleared before each run."""
    spd, calls = cli._random_spd, []

    def replaced(rng):
        calls.append(rng)
        return np.array(bad) if len(calls) == k else spd(rng)

    monkeypatch.setattr(cli, "_random_spd", replaced)
    return calls


class TestMinkowskiSweep:
    def test_property_sweep(self):
        cfg = ExperimentConfig(seed=5)
        report = run_minkowski_props(cfg)
        assert report.passed
        assert report.row("sum_norm_failures").value == 0.0
        assert report.row("sum_norm_min_eigenvalue").value > 0.0

    def test_negative_seed_rejected(self, capsys):
        """A negative seed exits 2 with a ValidationError; numpy's generator
        would end the run in a ValueError traceback."""
        assert main(["minkowski-props", "--seed", "-1"]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1234, *range(1, 11), 2024])
    def test_rows_match_per_pair_oracle(self, seed):
        """Every row, and whether it passes, is repr-identical to the loop
        that builds and evaluates one pair, and one Cartan ray, at a time:
        the blocked sweep draws in the same rng order and each kernel is
        elementwise over the rays."""
        assert _rows(run_minkowski_props(ExperimentConfig(seed=seed))) == _oracle_rows(seed)

    @pytest.mark.parametrize("pairs", [7, 200])
    def test_rows_independent_of_block_layout(self, pairs, monkeypatch):
        """Blocks of 7 pairs (the last one short) and one block of all 200
        keep every row's bits, and no fundamental-tensor call holds more
        rays than one block."""
        from finslergbc import quadrature

        want = _rows(run_minkowski_props(ExperimentConfig(seed=3)))
        rays, fundamental = [], MinkowskiNorm.fundamental

        def counting(self, y):
            rays.append(np.size(y[0]))
            return fundamental(self, y)

        monkeypatch.setattr(quadrature, "_BLOCK_NODES", pairs * 100 * 4)
        monkeypatch.setattr(MinkowskiNorm, "fundamental", counting)
        assert _rows(run_minkowski_props(ExperimentConfig(seed=3))) == want
        assert sum(rays) == 200 * 100
        assert max(rays) == pairs * 100
        assert len(rays) == -(-200 // pairs)

    @pytest.mark.parametrize("bad", [[[2.0, 0.5], [0.0, 2.0]], [[1.0, 0.0], [0.0, -1.0]]],
                             ids=["asymmetric", "non-positive"])
    def test_invalid_mid_sweep_norm_rejected(self, bad, monkeypatch, capsys):
        """A matrix that is not symmetric positive, given to the riemannian
        norm of a mid-sweep pair, fails the run with InvalidMetricError as
        it fails the per-pair loop, and the CLI exits 2."""
        seed = ExperimentConfig().seed
        calls = _spd_replaced(monkeypatch, _spd_call(seed, 100, kind=0), bad)
        for run in (lambda: run_minkowski_props(ExperimentConfig(seed=seed)),
                    lambda: _oracle_rows(seed)):
            calls.clear()
            with pytest.raises(InvalidMetricError):
                run()
        calls.clear()
        assert main(["minkowski-props"]) == 2
        assert "InvalidMetricError" in capsys.readouterr().err
        with pytest.raises(InvalidMetricError):
            randers_norm(np.full((2, 2), 0.1))

    def test_asymmetric_randers_matrix_passes(self, monkeypatch):
        """randers_norm checks only |beta|_alpha < 1, so an asymmetric G
        given to the randers norm of a mid-sweep pair passes, in the sweep
        as in the per-pair loop, with the same rows."""
        seed = ExperimentConfig().seed
        k = _spd_call(seed, 100, kind=1)
        calls = _spd_replaced(monkeypatch, k, [[2.0, 0.5], [0.0, 2.0]])
        want = _oracle_rows(seed)
        calls.clear()
        assert _rows(run_minkowski_props(ExperimentConfig(seed=seed))) == want
        assert len(calls) > k

    @pytest.mark.parametrize("mutation, failing", [
        ("F + constant", ["sum_norm_homogeneity"]),
        ("negated hessian", ["sum_norm_failures", "sum_norm_min_eigenvalue"]),
        ("riemannian + quartic", ["cartan_riemannian"]),
    ])
    def test_gates_fail_under_mutation(self, mutation, failing, monkeypatch):
        """Each row but cartan_y_contraction fails under one named mutation
        of the kernels (F + constant also breaks the failure count's
        homogeneity test); that row passes under all three, and cannot fail
        for any norm, since A is c v v v with v orthogonal to y."""
        if mutation == "F + constant":
            monkeypatch.setattr(cli, "sum_norms", lambda f1, f2: MinkowskiNorm(
                lambda y: f1.fn(y) + f2.fn(y) + 0.01))
        elif mutation == "negated hessian":
            hessian = metric._hessian
            monkeypatch.setattr(metric, "_hessian", lambda *a: [
                [-h for h in row] for row in hessian(*a)])
        else:
            riemannian = metric._riemannian
            monkeypatch.setattr(metric, "_riemannian", lambda G: (
                lambda y, alpha=riemannian(G): (alpha(y) ** 4 + 0.1 * y[0] ** 4) ** 0.25))
        failed = {r.name for r in run_minkowski_props(ExperimentConfig()).rows if not r.passed}
        assert set(failing) <= failed
        assert "cartan_y_contraction" not in failed


class TestFieldAndMetricIndependence:
    """The normalized integral is a topological quantity: it must not
    depend on which section supplies the excisions or how strongly
    non-Riemannian the metric is."""

    @pytest.mark.parametrize(
        "field,power",
        [("height_gradient", 2), ("stereographic_power", 2), ("stereographic_power", 0)],
        ids=["height-gradient", "z-squared", "z-power0"],
    )
    def test_other_sections_same_value(self, field, power):
        cfg = ExperimentConfig(metric="randers", metric_eps=0.1,
                               vector_field=field, field_power=power,
                               order_base=24)
        rep = run_gbc(cfg)
        assert rep.row("normalized_gbc_integral").value == pytest.approx(2.0, abs=2e-2)

    def test_strong_randers(self):
        cfg = ExperimentConfig(metric="randers", metric_eps=0.3,
                               vector_field="rotational", order_base=24)
        rep = run_gbc(cfg)
        assert rep.row("normalized_gbc_integral").value == pytest.approx(2.0, abs=2e-2)
        assert rep.row("fiber_volume_spread").value > 1e-2

    def test_weak_randers_volume_row_passes(self, capsys):
        """At eps 0.02 V moves by 7.5e-5 over the grid, yet matches its
        closed form there, so the run exits 0."""
        assert main(["gbc", "--metric", "randers", "--metric-eps", "0.02"]) == 0
        assert "fiber_volume_spread" in capsys.readouterr().out

    def test_volume_row_fails_on_a_wrong_volume(self, monkeypatch):
        """V scaled by 1 + 1e-9 away from x = 0 fails the row, whose spread
        stays above the 1e-4 that a spread threshold would pass."""
        from finslergbc.chern_forms import TransgressionForms

        volume_at = TransgressionForms.volume_at

        def scaled(self, chart, x):
            V = volume_at(self, chart, x)
            return V * np.where(np.abs(x[0]) + np.abs(x[1]) > 0.0, 1.0 + 1e-9, 1.0)

        monkeypatch.setattr(TransgressionForms, "volume_at", scaled)
        row = run_gbc(ExperimentConfig(metric="randers", metric_eps=0.1,
                                       order_base=16)).row("fiber_volume_spread")
        assert not row.passed and row.value > 1e-4


class TestEhresmannModes:
    def test_explicit_table_identities(self):
        """A user-supplied nonzero N table still yields a metric-compatible
        modified connection and all transgression identities: the whole
        construction is splitting-generic."""
        cfg = ExperimentConfig(
            manifold="torus", metric="quartic", metric_eps=0.05,
            ehresmann_exprs={"n11": "sin(u)*y1", "n12": "0.3*y2",
                             "n21": "cos(v)*y1", "n22": "0.1*y2"},
            identity_samples=12, order_fiber=32,
        )
        report = run_identity_suite(cfg)
        assert report.passed

    def test_explicit_zero_matches_spray_on_flat(self):
        """The zero table reproduces the canonical spray splitting of the
        flat metric (whose spray coefficients vanish)."""
        base = ExperimentConfig(manifold="torus", metric="euclidean",
                                identity_samples=6, order_fiber=32)
        explicit = ExperimentConfig(
            manifold="torus", metric="euclidean", ehresmann_exprs={"n11": "0"},
            identity_samples=6, order_fiber=32,
        )
        r1, r2 = run_identity_suite(base), run_identity_suite(explicit)
        for a, b in zip(r1.rows, r2.rows):
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_keys_alone_select_the_explicit_table(self, tmp_path):
        """[ehresmann] keys alone make the table explicit, an entry left out
        being 0: on Randers 0.7 with the height-gradient field, n11 =
        5.0*y1 and n22 = 0.3*u*y2 move the eps = 0.05 value from the
        spray's 1.978508849812 to 2.077261251905."""
        path = tmp_path / "explicit.ini"
        path.write_text("[manifold]\nmetric = randers\neps = 0.7\n"
                        "[vector_field]\ntype = height_gradient\n"
                        "[ehresmann]\nn11 = 5.0*y1\nn22 = 0.3*u*y2\n")
        cfg = ExperimentConfig.from_file(str(path))
        explicit = dict(run_gbc(cfg).convergence)[0.05]
        cfg.ehresmann_exprs = {}
        spray = dict(run_gbc(cfg).convergence)[0.05]
        assert explicit == pytest.approx(2.077261251905, abs=1e-11)
        assert spray == pytest.approx(1.978508849812, abs=1e-11)


def _scale_pi_weights(m, cf, idn, cn):
    """Pi = c_0 Phi_0 with c_0 off by a relative 1e-6."""
    weights = idn.pi_coefficients
    m.setattr(idn, "pi_coefficients", lambda n: [(1.0 + 1e-6) * c for c in weights(n)])


def _tilt_swept_volume(m, cf, idn, cn):
    """V off by a relative 1e-6 x1 inside the GBC integrand's payload
    pi_0^1 / V, where the complex-step sweep reads it on complex base
    points; the FD side of eq34 reads V on real points and stays as is."""
    volume_at = cf.TransgressionForms.volume_at

    def tilted(self, chart, x):
        V = volume_at(self, chart, x)
        return V * (1.0 + 1e-6 * x[0]) if np.iscomplexobj(x[0]) else V

    m.setattr(cf.TransgressionForms, "volume_at", tilted)


def _scale_upsilon0(m, cf, idn, cn):
    """Upsilon_0 off by a relative 1e-6."""
    u0 = idn.chern_weil_upsilon0
    m.setattr(idn, "chern_weil_upsilon0", lambda D, nabla: (1.0 + 1e-6) * u0(D, nabla))


def _tilt_curvature(m, cf, idn, cn):
    """Omega off by a relative 1e-6 x1, which no longer closes U_t."""
    omega = cn.CurvatureData.omega

    def tilted(self, pts):
        s = 1.0 + 1e-6 * pts.coords[0]
        return {k: s * c for k, c in omega(self, pts).items()}

    m.setattr(cn.CurvatureData, "omega", tilted)


def _scale_primitive(m, cf, idn, cn):
    """The t-transgression primitive B(l . exp(-Theta_t)) off by 1e-6."""
    prim = idn.IdentityForms.mathai_quillen_primitive_field
    m.setattr(idn.IdentityForms, "mathai_quillen_primitive_field",
              lambda self, t: (1.0 + 1e-6) * prim(self, t))


class TestIdentityBounds:
    """Each FD-based identity row fails under a seeded mutation that moves
    it by far less than the earlier bounds (1e-5, lemma35 1e-4) allowed."""

    def test_gamma_row_fails_on_a_coarse_rule(self, monkeypatch):
        """gamma_coefficient_identity reads about 2e-15 on its 64-node rule,
        under its 1e-14 bound; capped at 24 nodes it reads about 4e-9."""
        import finslergbc.identities as idn

        cfg = ExperimentConfig(metric="round_sphere", identity_samples=2)
        assert run_identity_suite(cfg).row("gamma_coefficient_identity").passed
        rule = idn.gauss_legendre
        monkeypatch.setattr(idn, "gauss_legendre",
                            lambda a, b, order: rule(a, b, min(order, 24)))
        row = run_identity_suite(cfg).row("gamma_coefficient_identity")
        assert not row.passed
        assert 1e-9 < row.value < 1e-8

    @pytest.mark.parametrize("row,old_bound,connection,mutate", [
        ("eq33_dPi_minus_omega_nabla", 1e-5, "cartan", _scale_pi_weights),
        ("eq34_gbc_exactness", 1e-5, "cartan", _tilt_swept_volume),
        ("prop51_chern_weil", 1e-5, "perturbed", _scale_upsilon0),
        ("lemma35_closedness", 1e-4, "cartan", _tilt_curvature),
        ("lemma35_transgression_ode", 1e-4, "cartan", _scale_primitive),
    ], ids=["eq33", "eq34", "prop51", "closedness", "ode"])
    def test_row_fails_under_mutation(self, row, old_bound, connection, mutate,
                                      monkeypatch):
        import finslergbc.chern_forms as cf
        import finslergbc.connection as cn
        import finslergbc.identities as idn

        cfg = ExperimentConfig(metric="randers", connection=connection,
                               identity_samples=20)
        assert run_identity_suite(cfg).row(row).passed
        with monkeypatch.context() as m:
            mutate(m, cf, idn, cn)
            mutated = run_identity_suite(cfg).row(row)
        assert not mutated.passed
        assert mutated.value < old_bound

    @pytest.mark.parametrize("connection", ["cartan", "perturbed"])
    @pytest.mark.parametrize("eps", [0.1, 0.8])
    def test_rows_match_the_full_nested_stencil(self, eps, connection, monkeypatch):
        """Every row is repr-identical to a run whose nested curvature
        takes all three axes on every stack, which makes 3 more stacks per
        chart batch: the enclosing d never reads what is skipped."""
        import finslergbc.connection as cn
        from finslergbc.quadrature import ChartPoints

        stacks = []
        shifted = ChartPoints.shifted
        monkeypatch.setattr(ChartPoints, "shifted",
                            lambda self, axis, steps: stacks.append(axis)
                            or shifted(self, axis, steps))
        cfg = ExperimentConfig(metric="randers", metric_eps=eps, connection=connection,
                               identity_samples=6)
        rows = [(r.name, repr(r.value), r.passed) for r in run_identity_suite(cfg).rows]
        transverse = len(stacks)
        stacks.clear()
        full = cn.central_partials
        monkeypatch.setattr(cn, "central_partials", lambda payload, pts, axes=None:
                            full(payload, pts))
        forced = [(r.name, repr(r.value), r.passed) for r in run_identity_suite(cfg).rows]
        assert rows == forced and len(rows) == 9
        assert all(passed for _, _, passed in rows)
        # per chart batch (2 of them): 3 stacks, 3 for the curvature of nabla
        # at the batch, 3 more for that of D where D != nabla, and 6 nested
        # ones on the stacks (9 on the full stencil)
        assert (transverse, len(stacks)) == ((24, 30) if connection == "cartan" else (30, 36))

    def test_reading_a_skipped_component_fails_the_report(self, monkeypatch):
        """omega_element reading Omega's (0, 2) component in place of its
        (0, 1) one reads NaN on every stack along theta, where (0, 2) is
        skipped.  The NaN reaches d U_1, whatever batch it comes from, and
        fails lemma35_closedness and the report."""
        import finslergbc.identities as idn

        element = idn.IdentityForms.omega_element

        def misread(self, pts):
            out = element(self, pts)
            out.terms[((0, 1), (0, 1))] = out.terms[((0, 2), (0, 1))]
            return out

        cfg = ExperimentConfig(metric="randers", identity_samples=6)
        assert run_identity_suite(cfg).passed
        monkeypatch.setattr(idn.IdentityForms, "omega_element", misread)
        report = run_identity_suite(cfg)
        assert not report.passed
        row = report.row("lemma35_closedness")
        assert math.isnan(row.value) and not row.passed

    @pytest.mark.parametrize("connection", ["cartan", "perturbed"])
    @pytest.mark.parametrize("eps,seed", [(0.5, 5), (0.5, 13), (0.5, 18), (0.8, 8), (0.8, 9),
                                          (0.8, 19), (0.9, 8)])
    def test_eq34_holds_on_strong_randers(self, eps, seed, connection):
        """eq34 holds on the strong Randers configurations where a fiber
        rule sized at each base point on its own let V jump inside the FD
        stencil: there eq34 read 3.99e-8 (0.5, seed 5), 4.06e-10 (0.5, seed
        13), 9.25e-11 (0.5, seed 18), 1.43e-9 (0.8, seed 8), 2.13e-11 (0.8,
        seed 9, cartan), 6.26e-10 (0.8, seed 19) and 4.43e-9 (0.9, seed 8).
        At one fiber count per chart they read at most 1.03e-11."""
        cfg = ExperimentConfig(metric="randers", metric_eps=eps, seed=seed,
                               connection=connection)
        row = run_identity_suite(cfg).row("eq34_gbc_exactness")
        assert row.passed, row.value
