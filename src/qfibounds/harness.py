"""Configuration-driven sweep engine with deterministic CSV/JSON emission,
plus the built-in selftest suite."""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .operators import ModelSpec, build_tfim, single_qubit_model
from .gibbs import _pair_table, gibbs_ensemble, prepared_gibbs
from .gibbs import susceptibility, susceptibility_fd, variance
from .qfi import (
    BoundsReport,
    _chain_report,
    bounds_chain,
    check_bounds_report,
    qfi_spectral,
)
from .fluctuation import (
    KernelKind,
    autocorrelation_spectrum,
    dissipation_spectrum,
    generalized_fdt,
    moment,
)
from .sld import sld_matrix

CSV_HEADER = "axis,lb,qfi,ub1,ub2,alpha,phi,dtheta_min,d_o,d_o_bar,ms"

SWEEP_AXES = ("temperature", "gamma")


class ConfigError(ValueError):
    """Invalid sweep configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    model: ModelSpec
    sweep_axis: str
    grid: tuple
    fixed_beta: float | None = None  # required for gamma sweeps
    eps_deg: float | None = None
    outputs: str = "out"

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of {SWEEP_AXES}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0:
            raise ConfigError("grid must be non-empty")
        diffs = np.diff(grid)
        if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("grid must be strictly monotone")
        if self.sweep_axis == "temperature" and np.any(grid <= 0):
            raise ConfigError("temperatures must be positive")
        if self.sweep_axis == "gamma" and self.fixed_beta is None:
            raise ConfigError("gamma sweeps need a fixed beta (or temperature)")

    def echo(self) -> dict:
        return {**asdict(self), "grid": list(self.grid)}


def checked_number(value, what: str, positive: bool = False) -> float:
    """``value`` as a finite float >= 0 (> 0 if ``positive``), else
    ConfigError.  Numeric strings pass: YAML 1.1 reads ``1e-8`` as one."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{what} must be a finite number {bound}, got {value!r}")
    return x


def _resolve_grid(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        return tuple(float(x) for x in raw)
    if isinstance(raw, dict):
        try:
            start, stop = float(raw["start"]), float(raw["stop"])
            points = int(raw["points"])
        except KeyError as exc:
            raise ConfigError(f"grid dict missing key {exc}") from exc
        spacing = raw.get("spacing", "linear")
        if points < 1:
            raise ConfigError("grid points must be >= 1")
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("log spacing needs positive endpoints")
            return tuple(np.geomspace(start, stop, points).tolist())
        if spacing == "linear":
            return tuple(np.linspace(start, stop, points).tolist())
        raise ConfigError(f"unknown grid spacing {spacing!r}")
    raise ConfigError("grid must be a list or a start/stop/points mapping")


def load_config(path) -> SweepConfig:
    """Read a YAML sweep config; see configs/ for the schema by example."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SweepConfig:
    try:
        m = raw["model"]
        model = ModelSpec(
            n_sites=int(m["n_sites"]),
            gamma=float(m["gamma"]),
            theta=float(m.get("theta", 0.0)),
        )
        axis = raw["sweep_axis"]
        grid = _resolve_grid(raw["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    fixed = raw.get("fixed") or {}
    if not isinstance(fixed, dict):
        raise ConfigError("fixed must be a mapping")
    if fixed.get("beta") is not None:
        fixed_beta = checked_number(fixed["beta"], "fixed beta")
    elif "temperature" in fixed:
        fixed_beta = 1.0 / checked_number(fixed["temperature"], "fixed temperature", True)
    else:
        fixed_beta = None
    eps_deg = raw.get("eps_deg")
    return SweepConfig(
        model=model,
        sweep_axis=axis,
        grid=grid,
        fixed_beta=fixed_beta,
        eps_deg=None if eps_deg is None else checked_number(eps_deg, "eps_deg", True),
        outputs=str(raw.get("outputs", "out")),
    )


@dataclass(frozen=True)
class SweepRow:
    axis: float
    report: BoundsReport
    ms: float


def evaluate_point(config: SweepConfig, axis_value: float) -> SweepRow:
    t0 = time.perf_counter()
    (row,) = _hamiltonian_rows(config, [axis_value])
    return SweepRow(row.axis, row.report, (time.perf_counter() - t0) * 1e3)


def _hamiltonian_rows(config: SweepConfig, points: list) -> list[SweepRow]:
    """Rows of points sharing one Hamiltonian (a temperature grid or one gamma
    point), from one eigensystem and pair table that no row's ms includes."""
    if config.sweep_axis == "temperature":
        model, betas = config.model, [1.0 / x for x in points]
    else:
        model = ModelSpec(config.model.n_sites, points[0], config.model.theta)
        betas = [config.fixed_beta]
    H, O = build_tfim(model)
    eigs = prepared_gibbs(H, O, betas[0], config.eps_deg).eigs
    table = _pair_table(eigs, O)
    rows = []
    for x, beta in zip(points, betas):
        t0 = time.perf_counter()
        report = _chain_report(table, gibbs_ensemble(eigs, beta))
        try:
            check_bounds_report(report)
        except RuntimeError as exc:
            raise RuntimeError(
                f"invariant failure at {config.sweep_axis}={x}: {exc}"
            ) from exc
        rows.append(SweepRow(x, report, (time.perf_counter() - t0) * 1e3))
    return rows


def run_sweep(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """One SweepRow per grid point, ordered by axis value.

    A temperature sweep diagonalizes once; gamma points, one Hamiltonian each,
    go to a process pool when workers > 1 and come back in grid order.
    """
    temperature = config.sweep_axis == "temperature"
    if workers < 1 or (temperature and workers > 1):
        raise ConfigError("workers must be >= 1, and 1 for a temperature sweep "
                          f"(one Hamiltonian), got {workers}")
    points = list(config.grid)
    if temperature:
        return _hamiltonian_rows(config, points)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate_point, [config] * len(points), points))
    else:
        rows = [evaluate_point(config, x) for x in points]
    return rows


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(float(x), ".12g")


def emit_report(rows, config: SweepConfig, out_dir=None) -> dict:
    """Write sweep.csv and sweep.json under the output directory.

    The CSV is byte-stable across reruns of the same config: the volatile
    per-row timing lives in the JSON mirror, and the CSV ms column is left
    empty.
    """
    out = Path(out_dir if out_dir is not None else config.outputs)
    out.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER]
    for row in rows:
        r = row.report
        lines.append(
            ",".join(
                [
                    _fmt(row.axis),
                    _fmt(r.lb),
                    _fmt(r.qfi),
                    _fmt(r.ub1),
                    _fmt(r.ub2),
                    _fmt(r.alpha),
                    _fmt(r.phi),
                    _fmt(r.dtheta_min),
                    _fmt(r.d_o),
                    _fmt(r.d_o_bar),
                    "",
                ]
            )
        )
    csv_path = out / "sweep.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    payload = {
        "tool": "qfibounds",
        "version": __version__,
        "config": config.echo(),
        "rows": [
            {"axis": row.axis, **row.report.to_dict(), "ms": row.ms}
            for row in rows
        ],
    }
    json_path = out / "sweep.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return {"csv": str(csv_path), "json": str(json_path)}


def spectrum_csv(spectrum, path) -> None:
    lines = ["omega,weight"]
    lines += [f"{_fmt(o)},{_fmt(w)}" for o, w in spectrum.rows()]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# selftest


def _close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def selftest() -> list[tuple[str, bool, str]]:
    """Closed-form fixtures, route-equivalence identities and a randomized
    chain-inequality suite.  Returns (name, passed, detail) triples."""
    from .operators import random_hermitian

    checks = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # single-qubit fixture, beta = 1
    H, O = single_qubit_model(0.0)
    ens = prepared_gibbs(H, O, 1.0)
    rep = bounds_chain(ens, O)
    t1 = math.tanh(1.0)
    record("single_qubit_lb", _close(rep.lb, t1**2), f"lb={rep.lb}")
    record("single_qubit_qfi", _close(rep.qfi, t1**2), f"qfi={rep.qfi}")
    record("single_qubit_ub1", _close(rep.ub1, t1), f"ub1={rep.ub1}")
    record("single_qubit_ub2", _close(rep.ub2, 1.0), f"ub2={rep.ub2}")
    res = sld_matrix(ens, O)
    record(
        "single_qubit_sld_qfi",
        _close(res.trace_rho_L2, rep.qfi, rel=1e-8),
        f"tr_rho_L2={res.trace_rho_L2}",
    )

    # TFIM N=1 closed form across a small grid
    ok = True
    for beta in (0.5, 1.0, 3.0):
        for gamma in (0.2, 0.7, 1.3):
            Ht, Ot = build_tfim(ModelSpec(1, gamma))
            e1 = prepared_gibbs(Ht, Ot, beta)
            expected = math.tanh(beta * math.sin(gamma)) ** 2 / math.sin(gamma) ** 2
            ok = ok and _close(qfi_spectral(e1, Ot), expected)
    record("tfim_n1_closed_form", ok)

    # commuting case: qfi = beta^2 variance, dissipation empty
    Hc = np.diag([1.0, -1.0]).astype(complex)
    ensc = prepared_gibbs(Hc, Hc, 1.0)
    record(
        "commuting_classical",
        _close(qfi_spectral(ensc, Hc), 1.0 - math.tanh(1.0) ** 2, rel=1e-9),
    )
    record(
        "commuting_dissipation_zero",
        float(np.max(np.abs(dissipation_spectrum(ensc, Hc).weights), initial=0.0))
        < 1e-12,
    )

    # route equivalence on a small TFIM
    Hr, Or = build_tfim(ModelSpec(3, 0.4, 0.05))
    ensr = prepared_gibbs(Hr, Or, 1.5)
    s = autocorrelation_spectrum(ensr, Or)
    record(
        "route_qfi",
        _close(moment(s, KernelKind.QFI, 1.5), qfi_spectral(ensr, Or)),
    )
    record(
        "route_susceptibility",
        _close(moment(s, KernelKind.SUSCEPTIBILITY, 1.5) / 1.5, susceptibility(ensr, Or)),
    )
    record(
        "route_variance",
        _close(moment(s, KernelKind.VARIANCE, 1.5) / 1.5**2, variance(ensr, Or)),
    )
    record(
        "route_fd_susceptibility",
        _close(
            susceptibility(ensr, Or),
            susceptibility_fd(ModelSpec(3, 0.4, 0.05), 1.5, 1e-4),
            rel=1e-5,
            abs_=1e-8,
        ),
    )
    recon = generalized_fdt(dissipation_spectrum(ensr, Or), ensr, Or)
    direct = autocorrelation_spectrum(ensr, Or)
    same = len(recon) == len(direct) and np.allclose(
        recon.weights, direct.weights, rtol=1e-9, atol=1e-12
    )
    record("generalized_fdt", same)

    # beta = 0 edge: uniform state, zero QFI
    ens0 = prepared_gibbs(Hr, Or, 0.0)
    record("beta_zero_qfi", abs(qfi_spectral(ens0, Or)) < 1e-12)

    # randomized chain-inequality suite
    ok = True
    detail = ""
    k = 0
    for d in (2, 4, 8):
        for beta in (0.1, 1.0, 10.0):
            for rep_i in range(5):
                Hx = random_hermitian(d, 1000 + k)
                Ox = random_hermitian(d, 2000 + k)
                k += 1
                r = bounds_chain(prepared_gibbs(Hx, Ox, beta), Ox)
                try:
                    check_bounds_report(r)
                except RuntimeError as exc:
                    ok = False
                    detail = str(exc)
    record("random_chain_suite", ok, detail)
    return checks
