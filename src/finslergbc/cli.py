"""Experiment runner: config parsing, scenario pipelines, reports.

Subcommands: ``gbc`` (the excised integral against chi / vol(S^1)),
``identities`` (pointwise residuals of every transgression identity),
``minkowski-props`` (sum-of-norms and Cartan-tensor property sweeps),
``degrees`` (winding numbers and Poincare-Hopf sums).  Configs are flat
INI files with sections mirroring the module interfaces.  SETTINGS
declares each setting once, with its INI key and its flag.
"""

from __future__ import annotations

import math
import os
import sys
import time

import numpy as np

from .chern_forms import TransgressionForms
from .connection import (
    cartan_connection,
    horizontal_part,
    modify,
    perturb_metric_compatible,
    perturbed_connection_data,
    sinusoidal_perturbation,
    to_orthonormal_frame,
)
from .errors import FinslerError, ValidationError
from .manifolds import ATLASES, METRICS, Atlas, install_metric, sphere_atlas, torus_atlas
from .metric import FIBER_ORDER, norm_family, sum_norms
from .quadrature import (
    AnnulusRegion,
    BoxRegion,
    base_integral_excised,
    extrapolate_to_zero,
    in_blocks,
)
from .topology import (
    DEGREE_PROBE_RADIUS,
    SectionField,
    constant_field,
    check_euler_characteristic,
    custom_field,
    find_zeros,
    height_gradient_field,
    local_degree,
    local_field,
    rotational_field,
    stereographic_power_field,
    ZeroRecord,
)

__all__ = ["ExperimentConfig", "Report", "ReportRow", "run_gbc",
           "run_identity_suite", "run_minkowski_props", "run_degrees",
           "emit_report", "main"]

VOL_S1 = 2.0 * math.pi

# How far gbc_disc_limit may lie from chi.  On the built-in sphere
# scenarios (round and Randers 0.1 to 0.9, every connection and field) it
# reaches chi within 8.9e-16 at base orders 6, 48 and 96, on 32 and 64
# radii and the nested phi rule, so a 1e-6 relative change of the
# integrand fails the row by eight orders.
DISC_LIMIT_TOL = 1e-14

# The largest base or fiber quadrature order.  Both rules converge
# spectrally (gbc_disc_limit reaches chi to 8.9e-16 on 32 radii at base
# orders up to 50), so a higher order gains nothing, while a chart takes
# up to 2 order/3 radii x AnnulusRegion.phi_cap(order) angles, evaluated in
# blocks of at most quadrature._BLOCK_NODES points.  Randers 0.9 / perturbed
# / stereographic_power at base and fiber order 512 takes 1.5 s and peaks
# at 69 MiB (96 phi and 128 fiber nodes); forced to run both rules to their
# caps (384 phi and 512 fiber nodes), 19 s and 70 MiB, on 2 vCPU.  Order
# 1e8 would run Gauss-Legendre's recurrence 1e8 steps over 1e8 nodes.
MAX_QUADRATURE_ORDER = 512

# The largest identity sample count.  The residuals are maxima over the
# samples and the 200 default already sees every chart, while a run's peak
# RSS grows by about 13 KiB per sample (62 MiB at 2,000 and 285 MiB in
# 17 s at 20,000, Randers on 2 vCPU): 0.65 GiB and about 45 s at the bound.
# A count of 1e9 would ask numpy for terabytes.
MAX_IDENTITY_SAMPLES = 50_000


# ---------------------------------------------------------------------------
# configuration


def _radii(text: str) -> tuple:
    return tuple(float(s) for s in text.split(","))


class Setting:
    """One scalar setting: its ExperimentConfig field and default, the INI
    [section] key and the flag (None: INI only) that set it, the parser
    that reads INI text and flag text alike, and, where the values form a
    fixed list, the choices that ``validate`` holds it to."""

    def __init__(self, field: str, default, section: str, key: str, flag: str | None,
                 parse=str, choices: tuple = ()):
        self.field, self.default = field, default
        self.section, self.key, self.flag = section, key, flag
        self.parse, self.choices = parse, choices

    def read(self, text, where: str):
        """The parsed text, or a ValidationError that names where it came from."""
        try:
            return self.parse(text)
        except ValueError as exc:
            raise ValidationError(f"{where} = {text!r}: {exc}") from None


# Every scalar setting, once.  The table makes the config fields, the INI
# keys that ``from_file`` accepts, the subcommand flags and ``_merge``; the
# README's "Config files" block lists the same keys (a test holds it).
SETTINGS = (
    Setting("seed", 1234, "scenario", "seed", "--seed", int),
    Setting("identity_samples", 200, "scenario", "samples", "--samples", int),
    Setting("manifold", "sphere", "manifold", "type", "--manifold", choices=tuple(ATLASES)),
    Setting("metric", "round_sphere", "manifold", "metric", "--metric", choices=METRICS),
    Setting("metric_eps", 0.1, "manifold", "eps", "--metric-eps", float),
    Setting("connection", "cartan", "connection", "type", "--connection",
            choices=("cartan", "perturbed")),
    Setting("perturbation_amplitude", 0.2, "connection", "perturbation_amplitude",
            "--amplitude", float),
    Setting("vector_field", "rotational", "vector_field", "type", "--field",
            choices=("rotational", "height_gradient", "constant", "stereographic_power",
                     "custom")),
    Setting("field_power", 2, "vector_field", "power", "--power", int),
    Setting("order_fiber", FIBER_ORDER, "quadrature", "order_fiber", "--order-fiber", int),
    Setting("order_base", 48, "quadrature", "order_base", "--order-base", int),
    Setting("epsilon_schedule", (0.2, 0.1, 0.05), "quadrature", "epsilon_schedule",
            "--epsilon-schedule", _radii),
    Setting("out_dir", None, "output", "dir", "--out"),
)

# The INI-only expression groups: an explicit Ehresmann table, which any
# of its keys selects over the spray, and the per-chart (u, v) components
# of a custom field.
_EHRESMANN_KEYS = ("n11", "n12", "n21", "n22")
_FIELD_CHARTS = ("south", "north", "torus")


class ExperimentConfig:
    """The settings of one run: the subcommand ``scenario``, one field per
    row of SETTINGS, and the expression groups ``ehresmann_exprs`` (key ->
    expression) and ``field_exprs`` (chart -> (u, v) expressions)."""

    def __init__(self, scenario: str = "gbc", *, ehresmann_exprs: dict | None = None,
                 field_exprs: dict | None = None, **settings):
        self.scenario = scenario
        for s in SETTINGS:
            setattr(self, s.field, settings.pop(s.field, s.default))
        if settings:
            raise TypeError(f"unknown ExperimentConfig settings: {', '.join(settings)}")
        self.ehresmann_exprs = {} if ehresmann_exprs is None else ehresmann_exprs
        self.field_exprs = {} if field_exprs is None else field_exprs

    @classmethod
    def from_file(cls, path: str, scenario: str = "gbc") -> "ExperimentConfig":
        """Read an INI config for the subcommand ``scenario``; an unreadable
        file, malformed INI text, a section or key outside SETTINGS and the
        expression groups, a value its setting cannot parse, or a
        ``[scenario] id`` that names another subcommand raises
        ValidationError."""
        import configparser  # only --config reads INI text

        ini = configparser.ConfigParser()
        try:
            with open(path) as fh:
                ini.read_file(fh)
            return cls._from_ini(ini, scenario)
        except (OSError, configparser.Error, ValueError) as exc:
            raise ValidationError(f"config {path!r}: {exc}") from None

    @classmethod
    def _from_ini(cls, ini, scenario: str) -> "ExperimentConfig":
        named = ini.get("scenario", "id", fallback=scenario)
        if named != scenario:
            raise ValidationError(f"[scenario] id = {named} names another subcommand "
                                  f"than {scenario}")
        rows = {(s.section, s.key): s for s in SETTINGS}
        groups = {("scenario", "id"), *(("ehresmann", k) for k in _EHRESMANN_KEYS),
                  *(("vector_field", f"{c}_{a}") for c in _FIELD_CHARTS for a in "uv")}
        sections = {section for section, _ in (*rows, *groups)}
        if ini.defaults():
            raise ValidationError(f"unknown section [{ini.default_section}]")
        values = {}
        for section in ini.sections():
            if section not in sections:
                raise ValidationError(f"unknown section [{section}]")
            for key in ini.options(section):
                if (section, key) in rows:
                    s = rows[section, key]
                    values[s.field] = s.read(ini.get(section, key), f"[{section}] {key}")
                elif (section, key) not in groups:
                    raise ValidationError(f"unknown key {key!r} in [{section}]")
        cfg = cls(scenario, **values, ehresmann_exprs={
            k: ini.get("ehresmann", k) for k in _EHRESMANN_KEYS if ini.has_option("ehresmann", k)})
        for chart in _FIELD_CHARTS:
            keys = (f"{chart}_u", f"{chart}_v")
            given = [ini.has_option("vector_field", k) for k in keys]
            if any(given) and not all(given):
                raise ValidationError(f"[vector_field] needs both {keys[0]} and {keys[1]}")
            if all(given):
                cfg.field_exprs[chart] = tuple(ini.get("vector_field", k) for k in keys)
        return cfg

    def validate(self) -> None:
        """Reject settings that no scenario can run correctly with."""
        for s in SETTINGS:
            if s.choices and getattr(self, s.field) not in s.choices:
                raise ValidationError(f"[{s.section}] {s.key} must be one of "
                                      f"{' | '.join(s.choices)}, got {getattr(self, s.field)!r}")
        if self.field_exprs and self.vector_field != "custom":
            keys = ", ".join(f"{c}_{a}" for c in self.field_exprs for a in "uv")
            raise ValidationError(f"[vector_field] {keys} need type = custom, "
                                  f"got type = {self.vector_field}")
        if self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed}")
        if not 1 <= self.identity_samples <= MAX_IDENTITY_SAMPLES:
            raise ValidationError(
                f"identity samples must lie in [1, {MAX_IDENTITY_SAMPLES}], "
                f"got {self.identity_samples}")
        if not (1 <= self.order_base <= MAX_QUADRATURE_ORDER
                and 1 <= self.order_fiber <= MAX_QUADRATURE_ORDER):
            raise ValidationError(
                f"quadrature orders must lie in [1, {MAX_QUADRATURE_ORDER}], got base "
                f"{self.order_base}, fiber {self.order_fiber}")
        if not math.isfinite(self.perturbation_amplitude):
            raise ValidationError(
                f"perturbation amplitude must be finite, got {self.perturbation_amplitude}")
        radii = tuple(self.epsilon_schedule)
        if not radii or not all(r > 0.0 for r in radii):
            raise ValidationError(f"epsilon schedule needs positive radii, got {radii}")
        if len(set(radii)) != len(radii):
            raise ValidationError(f"epsilon schedule repeats a radius: {radii}")
        if self.manifold == "sphere" and max(radii) >= 1.0:
            raise ValidationError(
                f"epsilon schedule {radii} leaves the unit chart disk of the sphere")


# ---------------------------------------------------------------------------
# reports


class ReportRow:
    def __init__(self, name: str, value: float, target: float | None,
                 tolerance: float | None, passed: bool):
        self.name = name
        self.value = value
        self.target = target
        self.tolerance = tolerance
        self.passed = passed


class Report:
    def __init__(self, scenario: str, rows: list, convergence: list | None = None,
                 metadata: dict | None = None):
        self.scenario = scenario
        self.rows = rows
        self.convergence = [] if convergence is None else convergence  # (epsilon, value) pairs
        self.metadata = {} if metadata is None else metadata

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def row(self, name: str) -> ReportRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


def _check(name: str, value: float, target: float, tol: float) -> ReportRow:
    return ReportRow(name, float(value), float(target), float(tol),
                     abs(float(value) - float(target)) <= float(tol))


def _bound(name: str, value: float, tol: float) -> ReportRow:
    return ReportRow(name, float(value), 0.0, float(tol), abs(float(value)) <= float(tol))


def emit_report(report: Report, out_dir: str | None = None):
    """Write the report table to stdout and, with out_dir, the machine CSVs
    and report.txt there; returns the written paths.

    CSV content is a pure function of config and seed (no timestamps), so
    repeated runs diff clean."""
    lines = [f"scenario: {report.scenario}"]
    for key, val in sorted(report.metadata.items()):
        lines.append(f"  {key}: {val}")
    lines.append("")
    lines.append(f"{'check':44s} {'value':>18s} {'target':>12s} {'tol':>10s}  status")
    for r in report.rows:
        tgt = "-" if r.target is None else f"{r.target:.6g}"
        tol = "-" if r.tolerance is None else f"{r.tolerance:.2g}"
        lines.append(
            f"{r.name:44s} {r.value:18.12g} {tgt:>12s} {tol:>10s}  "
            + ("pass" if r.passed else "FAIL")
        )
    if report.convergence:
        lines.append("")
        lines.append("epsilon convergence:")
        for eps, val in report.convergence:
            lines.append(f"  eps={eps:<8g} value={val:.12e}")
    text = "\n".join(lines) + "\n"
    paths = []
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        rp = os.path.join(out_dir, "report.csv")
        with open(rp, "w") as fh:
            fh.write("scenario,name,value,target,tolerance,passed\n")
            for r in report.rows:
                tgt = "" if r.target is None else f"{r.target:.12e}"
                tol = "" if r.tolerance is None else f"{r.tolerance:.3e}"
                fh.write(
                    f"{report.scenario},{r.name},{r.value:.12e},{tgt},{tol},"
                    f"{int(r.passed)}\n"
                )
        paths.append(rp)
        cp = os.path.join(out_dir, "convergence.csv")
        with open(cp, "w") as fh:
            fh.write("scenario,epsilon,value\n")
            for eps, val in report.convergence:
                fh.write(f"{report.scenario},{eps:.6e},{val:.12e}\n")
        paths.append(cp)
        tp = os.path.join(out_dir, "report.txt")
        with open(tp, "w") as fh:
            fh.write(text)
        paths.append(tp)
    sys.stdout.write(text)
    return paths


# ---------------------------------------------------------------------------
# scenario assembly


def _build_field(cfg: ExperimentConfig, atlas: Atlas) -> SectionField:
    kind = cfg.vector_field
    if kind == "rotational":
        return rotational_field(atlas)
    if kind == "height_gradient":
        return height_gradient_field(atlas)
    if kind == "constant":
        return constant_field(atlas)
    if kind == "stereographic_power":
        return stereographic_power_field(atlas, cfg.field_power)
    X = custom_field(atlas, cfg.field_exprs)
    if set(X.components) != set(atlas.chart_ids):
        raise ValidationError(
            f"custom field on the {atlas.name} needs components in charts "
            f"{', '.join(atlas.chart_ids)}, got {', '.join(X.components) or 'none'}")
    return X


def _build_metric(cfg: ExperimentConfig):
    """The certified zoo metric on a new atlas of cfg.manifold, which it
    carries as ``metric.atlas``, with the explicit Ehresmann table of the
    [ehresmann] keys (an entry left out being 0) when any key is given,
    else the canonical spray."""
    table = None
    if cfg.ehresmann_exprs:
        from . import ad

        exprs = {k: ad.expression(cfg.ehresmann_exprs.get(k, "0.0*u"), ("u", "v", "y1", "y2"))
                 for k in _EHRESMANN_KEYS}

        def table(chart, x, y):
            ev = {k: e(u=x[0], v=x[1], y1=y[0], y2=y[1]) for k, e in exprs.items()}
            return [[ev["n11"], ev["n12"]], [ev["n21"], ev["n22"]]]

    return install_metric(ATLASES[cfg.manifold](), cfg.metric, {"eps": cfg.metric_eps},
                          ehresmann=table)


def _build_connections(cfg: ExperimentConfig, metric):
    """Returns (frame forms of D, frame forms of its modification, and the
    natural-frame data of the modification), all in the metric's Ehresmann
    splitting.

    The perturbed D is cartan + P and its modification cartan + P^h, both
    added on the frame side (P^h is P's horizontal part).  Only the
    prop32 row reads the natural-frame data, so the frame -> natural ->
    frame round trip of ``perturbed_connection_data`` runs there alone.
    All three read P through its batch cache entry, so P runs once per
    batch."""
    cart = cartan_connection()
    fc_cartan = to_orthonormal_frame(cart, metric)
    if cfg.connection != "perturbed":
        return fc_cartan, fc_cartan, cart
    P = sinusoidal_perturbation(metric.atlas, fc_cartan, cfg.perturbation_amplitude)
    D = perturb_metric_compatible(fc_cartan, P)
    nabla = perturb_metric_compatible(fc_cartan, horizontal_part(P, metric))
    nabla.label = f"mod({D.label})"
    return D, nabla, modify(perturbed_connection_data(cart, P))


def _default_tolerance(cfg: ExperimentConfig) -> float:
    if cfg.manifold == "torus":
        return 1e-6
    if cfg.metric == "round_sphere" and cfg.connection == "cartan":
        return 1e-2
    return 2e-2


# ---------------------------------------------------------------------------
# scenario: gbc


def run_gbc(cfg: ExperimentConfig) -> Report:
    """Full pipeline: certify metric, locate zeros, check Poincare-Hopf,
    build forms, pull back, and integrate.

    On the sphere the two unit discs r <= 1 tile the base, and every zero
    sits at a chart centre: X vanishes there to Newton's |X| < 1e-12, and
    the zero found lies within DEGREE_PROBE_RADIUS of it, since Newton
    places a zero of order m only to about 1e-12 ** (1/m).  Each chart's
    unit disc (``AnnulusRegion``) is integrated by one call of
    ``base_integral_excised``, with the schedule as its sub-disc radii if
    the chart holds a zero: the integrand runs once per chart, on the nodes
    of the unit disc's polar rule, and I(1) and every I(eps) are read off
    those samples.  Its phi rule, and the fiber rule of V, size themselves
    by nested doubling up to the caps that order_base and order_fiber set,
    the fiber rule once per chart on a fixed probe grid
    (``TransgressionForms``); the metadata records per chart the node
    counts they took, as phi_nodes and fiber_nodes, and marks a rule that
    stopped at its cap unconverged; the row ``quadrature_rules_converged``
    counts such rules and fails on any.  The integrand is -c d(pi_0^1 / V)
    (``gbc_integrand``).  At the workload orders each chart takes 32 radii
    x 12 angles, 768 base points in all.  The per-eps value is vol(S^1) sum
    over charts of I(1) - I(eps), with I(eps) = 0 in a chart without a
    zero; ``normalized_gbc_integral`` is their Neville extrapolation to
    eps = 0.  The polar rule integrates the O(1/r) integrand through the
    zero, so ``gbc_disc_limit``, vol(S^1) sum of I(1), is the eps -> 0
    limit itself and is held to chi within DISC_LIMIT_TOL."""
    cfg.validate()
    t0 = time.perf_counter()
    metric = _build_metric(cfg)
    atlas = metric.atlas
    X = _build_field(cfg, atlas)
    zeros = find_zeros(X)
    chi = check_euler_characteristic(zeros, atlas)

    fcD, fcN, _ = _build_connections(cfg, metric)
    forms = TransgressionForms(metric, fcD, fcN, order_fiber=cfg.order_fiber)
    integrand = forms.gbc_integrand(X)

    rows = [ReportRow("poincare_hopf_sum", float(chi), float(atlas.chi), 0.0, True)]
    schedule = sorted(cfg.epsilon_schedule, reverse=True)
    phi_rules = {}
    if atlas.name == "torus":
        box = BoxRegion("torus", *atlas.region_box("torus"))
        total = VOL_S1 * base_integral_excised(integrand, box, order=cfg.order_base)[0]
        per_eps = [(eps, total) for eps in schedule]
        extrap = disc_limit = total
    else:
        held = {rec.chart for rec in zeros}
        with np.errstate(all="ignore"):  # a NaN fails the test below
            at_centre = {c: np.hypot(*X.value(c, np.zeros(1), np.zeros(1))) < 1e-12 for c in held}
        for rec in zeros:
            if not (at_centre[rec.chart] and math.hypot(*rec.location) <= DEGREE_PROBE_RADIUS):
                raise ValidationError(
                    "built-in scenarios keep zeros at chart centers; "
                    f"found one at {rec.location} in chart {rec.chart}"
                )
        discs = {c: base_integral_excised(integrand, AnnulusRegion(c, 1.0), order=cfg.order_base,
                                          radii=schedule if c in held else (), rules=phi_rules)
                 for c in atlas.chart_ids}
        per_eps = [(eps, VOL_S1 * sum(d[0] - (d[k + 1] if c in held else 0.0)
                                      for c, d in discs.items()))
                   for k, eps in enumerate(schedule)]
        disc_limit = VOL_S1 * sum(d[0] for d in discs.values())
        if len(per_eps) >= 2:
            extrap = extrapolate_to_zero([e for e, _ in per_eps], [v for _, v in per_eps])
        else:
            extrap = per_eps[-1][1]

    tol = _default_tolerance(cfg)
    rows.append(_check("normalized_gbc_integral", extrap, float(atlas.chi), tol))
    rows.append(_check("gbc_disc_limit", disc_limit, float(atlas.chi), DISC_LIMIT_TOL))

    if cfg.metric == "randers":
        spread, off = _volume_spread(forms, cfg.metric_eps)
        rows.append(ReportRow("fiber_volume_spread", spread, None, 1e-12, off <= 1e-12))
    rules = [*forms.fiber_rules.values(), *phi_rules.values()]
    rows.append(_bound("quadrature_rules_converged",
                       sum(not converged for _, converged in rules), 0.0))

    runtime = time.perf_counter() - t0
    meta = {
        "metric": metric.label,
        "connection": fcD.label,
        "field": X.label,
        "order_base": cfg.order_base,
        "order_fiber": cfg.order_fiber,
        "fiber_nodes": _rule_sizes(forms.fiber_rules),
        "epsilon_schedule": ",".join(f"{e:g}" for e in schedule),
        "runtime_s": f"{runtime:.2f}",
        "seed": cfg.seed,
    }
    if phi_rules:
        meta["phi_nodes"] = _rule_sizes(phi_rules)
    return Report("gbc", rows, per_eps, meta)


def _rule_sizes(rules: dict) -> str:
    """chart=nodes for each chart's nested periodic rule, in chart order,
    with every rule that stopped at its cap unconverged marked as such."""
    return ",".join(f"{chart}={n}" + ("" if converged else " (not converged at cap)")
                    for chart, (n, converged) in rules.items())


def _volume_spread(forms: TransgressionForms, eps: float) -> tuple[float, float]:
    """(max V / min V - 1, max |V / V0 - 1|) over a 7 x 7 grid of each
    chart's unit disc, V0 = 2 pi / AGM(sqrt(1 + s), sqrt(1 - s)) the zoo
    Randers closed form, s = eps 2|x| / (1 + |x|^2) the alpha-norm of beta."""
    g1, g2 = np.meshgrid(np.linspace(-0.9, 0.9, 7), np.linspace(-0.9, 0.9, 7), indexing="ij")
    keep = g1 ** 2 + g2 ** 2 <= 1.0
    V = np.stack([forms.volume_at(c, (g1[keep], g2[keep])) for c in forms.metric.charts])
    r2 = g1[keep] ** 2 + g2[keep] ** 2
    s = eps * 2.0 * np.sqrt(r2) / (1.0 + r2)
    a, b = np.sqrt(1.0 + s), np.sqrt(1.0 - s)
    for _ in range(40):  # s <= 0.99 on the grid: b >= 0.1, converged in 6
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return float(np.max(V) / np.min(V) - 1.0), float(np.max(np.abs(V / (2.0 * math.pi / a) - 1.0)))


# ---------------------------------------------------------------------------
# scenario: identities


def run_identity_suite(cfg: ExperimentConfig) -> Report:
    """Pointwise residuals of every identity the pipeline relies on.  The
    call loads ``identities``, so no other scenario compiles the suite."""
    from . import identities

    return identities.run_identity_suite(cfg)


# ---------------------------------------------------------------------------
# scenario: minkowski property sweep


def run_minkowski_props(cfg: ExperimentConfig) -> Report:
    """Sum-of-norms positivity sweep and Cartan tensor identities.  The
    pairs are drawn and evaluated one block at a time (``_pair_block``),
    the Cartan rays all at once; the rows are maxima, minima and counts,
    so the blocks cannot change them."""
    cfg.validate()
    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    pairs, rays = 200, 100
    # Blocks of quadrature._BLOCK_NODES // (rays x 4 jet coefficients) = 20
    # pairs, 2,000 rays; in_blocks runs them in order, so the draws keep
    # their rng order.  A cold run at seed 1234 (2 vCPU, pinned to one, one
    # BLAS thread) peaked at 38.0-38.1 MiB ru_maxrss at 5 to 40 pairs a block,
    # 38.7-38.9 at 81 and 41.4-41.5 with all 200 at once (the per-pair loop:
    # 37.4-37.5), and took 0.053-0.059 s at 20 pairs, 0.064-0.072 at 10 and
    # 0.086-0.16 at 5 (the per-pair loop: 0.15-0.26).
    worst = in_blocks(lambda s: _pair_block(rng, len(range(pairs)[s]), rays), pairs,
                      rays * 4, axis=1)
    homog_worst, eig_min = float(np.max(worst[0])), float(np.min(worst[1]))
    failures = int(np.sum(worst[2]))
    draws = [(_draw_norm(rng), float(rng.uniform(0.0, 2.0 * math.pi)), _random_spd(rng))
             for _ in range(50)]
    norms, th, spd = zip(*draws)
    y = np.array([[math.cos(t) for t in th], [math.sin(t) for t in th]])[..., None]
    A = _family(norms).cartan(y)
    ycontract = float(np.max(np.abs(y[0] * A[0] + y[1] * A[1])))
    riemannian = _family([(0, G, np.zeros(2), 1.0) for G in spd])
    riem_cartan = float(np.max(np.abs(riemannian.cartan(y))))
    rows = [
        ReportRow("sum_norm_failures", float(failures), 0.0, 0.0, failures == 0),
        _bound("sum_norm_homogeneity", homog_worst, 1e-10),
        ReportRow("sum_norm_min_eigenvalue", eig_min, None, None, eig_min > 0.0),
        _bound("cartan_y_contraction", ycontract, 1e-10),
        _bound("cartan_riemannian", riem_cartan, 1e-12),
    ]
    meta = {"pairs": pairs, "rays": rays, "seed": cfg.seed,
            "runtime_s": f"{time.perf_counter() - t0:.2f}"}
    return Report("minkowski-props", rows, [], meta)


def _pair_block(rng, pairs: int, rays: int) -> np.ndarray:
    """Draw the next pairs of random norms, each with its rays and scales,
    and return the worst homogeneity residual, the least eigenvalue of g
    and the failure count of their sums, as a (3, 1) array."""
    draws = [(_draw_norm(rng), _draw_norm(rng), rng.uniform(0.0, 2.0 * math.pi, rays),
              rng.uniform(0.2, 5.0, rays)) for _ in range(pairs)]
    fs = sum_norms(_family([d[0] for d in draws]), _family([d[1] for d in draws]))
    th = np.array([d[2] for d in draws])
    lam = np.array([d[3] for d in draws])
    y = [np.cos(th), np.sin(th)]
    lam_F = lam * fs(y)
    r = np.abs(fs([lam * y[0], lam * y[1]]) - lam_F)
    ev = np.linalg.eigvalsh(np.moveaxis(fs.fundamental(y), (0, 1), (-2, -1))).min(axis=-1)
    failures = np.count_nonzero((ev <= 0.0) | (r > 1e-9))
    return np.array([[np.max(r / np.maximum(1.0, np.abs(lam_F)))], [np.min(ev)], [failures]])


def _family(norms):
    """``norm_family`` of a list of (kind, G, b, mix) data, one per item."""
    return norm_family(*(np.array(d) for d in zip(*norms)))


def _random_spd(rng) -> np.ndarray:
    M = rng.standard_normal((2, 2))
    return M @ M.T + 0.3 * np.eye(2)


def _draw_norm(rng) -> tuple:
    """(kind, G, b, mix) of a random surface norm for ``norm_family``:
    riemannian G (kind 0), randers b and G (1) or quartic mix (2), in
    that rng order; what a kind does not read is the Euclidean data."""
    kind = int(rng.integers(0, 3))
    G, b, mix = np.eye(2), np.zeros(2), 1.0
    if kind == 0:
        G = _random_spd(rng)
    elif kind == 1:
        G = _random_spd(rng)
        evmin = float(np.min(np.linalg.eigvalsh(G)))
        b = rng.standard_normal(2)
        b *= rng.uniform(0.0, 0.8) * math.sqrt(evmin) / max(np.linalg.norm(b), 1e-12)
    else:
        mix = float(rng.uniform(0.02, 0.5))
    return kind, G, b, mix


# ---------------------------------------------------------------------------
# scenario: degrees


def run_degrees(cfg: ExperimentConfig) -> Report:
    """Winding-number recovery and Poincare-Hopf sums for the zoo."""
    cfg.validate()
    t0 = time.perf_counter()
    sphere = sphere_atlas()
    torus = torus_atlas()
    rows = []
    for kind, want in (("deg_plus1", 1), ("deg_minus1", -1), ("deg_plus2", 2)):
        X = local_field(sphere, "south", kind)
        deg = local_degree(X, ZeroRecord("south", (0.0, 0.0)), radius=0.15, samples=4096)
        rows.append(ReportRow(f"winding_{kind}", float(deg), float(want), 0.0, deg == want))
    scenarios = [
        ("sphere_rotational", rotational_field(sphere), 2),
        ("sphere_height_gradient", height_gradient_field(sphere), 2),
        ("sphere_z_squared", stereographic_power_field(sphere, 2), 2),
        ("sphere_z_power0", stereographic_power_field(sphere, 0), 2),
        ("torus_constant", constant_field(torus), 0),
    ]
    for name, X, chi in scenarios:
        zeros = find_zeros(X)
        total = sum(z.degree for z in zeros)
        rows.append(ReportRow(f"ph_sum_{name}", float(total), float(chi), 0.0, total == chi))
    meta = {"seed": cfg.seed, "runtime_s": f"{time.perf_counter() - t0:.2f}"}
    return Report("degrees", rows, [], meta)


# ---------------------------------------------------------------------------
# entry point


def _add_common(p: argparse.ArgumentParser) -> None:
    """--config and the flag of every setting that has one; each flag takes
    text that ``_merge`` parses, so a bad value exits 2 as an INI one does."""
    p.add_argument("--config", help="INI config file; flags override it")
    for s in SETTINGS:
        if s.flag:
            p.add_argument(s.flag, dest=s.field, help=f"INI [{s.section}] {s.key}"
                           + (f": {' | '.join(s.choices)}" if s.choices else ""))


def _merge(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """A new config: cfg with every setting whose flag args gives, parsed."""
    updates = {s.field: s.read(getattr(args, s.field), s.flag) for s in SETTINGS
               if getattr(args, s.field, None) is not None}
    return ExperimentConfig(**{**vars(cfg), **updates})


def main(argv=None) -> int:
    import argparse  # only the command line parses flags

    parser = argparse.ArgumentParser(
        prog="finslergbc",
        description="Numerical Gauss-Bonnet-Chern verification on Finsler surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gbc", "identities", "minkowski-props", "degrees"):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)

    runners = {
        "gbc": run_gbc,
        "identities": run_identity_suite,
        "minkowski-props": run_minkowski_props,
        "degrees": run_degrees,
    }
    try:
        cfg = (ExperimentConfig.from_file(args.config, args.command) if args.config
               else ExperimentConfig(scenario=args.command))
        cfg = _merge(cfg, args)
        cfg.validate()
        if cfg.out_dir:
            os.makedirs(cfg.out_dir, exist_ok=True)
        report = runners[args.command](cfg)
        emit_report(report, cfg.out_dir)
    except (FinslerError, OSError) as exc:
        if isinstance(exc, OSError):
            exc = ValidationError(f"cannot write the output: {exc}")
        sys.stderr.write(f"error [{type(exc).__name__}]: {exc}\n")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    # run as a script, this module would run nothing and exit 0
    sys.stderr.write("error [ValidationError]: run the command line as `python -m finslergbc`\n")
    sys.exit(2)
