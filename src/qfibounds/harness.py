"""Configuration-driven sweep engine with deterministic CSV/JSON emission,
plus the built-in selftest suite."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .operators import ModelSpec, _integer, single_qubit_model, tfim_operators
from .gibbs import gibbs_ensemble, pair_table, prepared_gibbs
from .gibbs import susceptibility, susceptibility_fd, variance
from .qfi import BoundsReport, bounds_chain, check_bounds_report, qfi_spectral
from .fluctuation import (
    KernelKind,
    autocorrelation_spectrum,
    dissipation_spectrum,
    generalized_fdt,
    moment,
)
from .sld import sld_matrix
from .spectral import eigendecompose

CSV_HEADER = "axis,lb,qfi,ub1,ub2,alpha,phi,dtheta_min,d_o,d_o_bar,ms"

SWEEP_AXES = ("temperature", "gamma")

CSV_CHUNK = 1 << 16  # rows per write of write_csv: a few MB each

# The largest beta taken (--beta, a config's fixed beta, 1 / a temperature):
# UB1 <= UB2 = beta^2 Var <= beta^2 N^2, so UB1^2 <= 3.9e4 beta^4 is finite up
# to 1e75 at N <= 14; in the ordered phase F ~ beta^2 overflows near 1e77.
BETA_MAX = 1e75

# The most points a sweep grid takes: building one costs ~50 B a point, and
# running one a diagonalization each.
GRID_POINTS_MAX = 100_000


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
        if grid.size == 0 or not np.all(np.isfinite(grid)):
            raise ConfigError(f"grid must be non-empty and finite, got {list(self.grid)}")
        diffs = np.diff(grid)
        if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ConfigError("grid must be strictly monotone")
        if self.sweep_axis == "temperature" and np.any(grid < 1.0 / BETA_MAX):
            raise ConfigError(f"temperatures must be >= {1.0 / BETA_MAX:g} (beta <= {BETA_MAX:g})")
        if self.sweep_axis == "gamma" and self.fixed_beta is None:
            raise ConfigError("gamma sweeps need a fixed beta (or temperature)")

    def echo(self) -> dict:
        return {**asdict(self), "grid": list(self.grid)}


def _number(value, what: str) -> float:
    """float(value), else ConfigError naming ``what``.  Numeric strings pass:
    YAML 1.1 reads ``1e-8`` as one.  Booleans (``yes``, ``true``) do not."""
    try:
        return float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None


def checked_number(value, what: str, positive: bool = False, most: float = math.inf) -> float:
    """``value`` (``_number``) as a finite float >= 0 (> 0 if ``positive``)
    and <= ``most``, else ConfigError."""
    x = _number(value, what)
    if not (math.isfinite(x) and (x > 0 if positive else x >= 0) and x <= most):
        bound = ("> 0" if positive else ">= 0") + (f", <= {most:g}" if most < math.inf else "")
        raise ConfigError(f"{what} must be a finite number {bound}, got {value!r}")
    return x


def _mapping(raw, what: str, keys: tuple) -> dict:
    """raw as a mapping of the schema's ``keys`` only, else ConfigError: a
    misspelt key would otherwise leave its default in force."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a mapping")
    if unknown := [key for key in raw if key not in keys]:
        raise ConfigError(f"{what} takes {', '.join(keys)}, not {unknown}")
    return raw


def _resolve_grid(raw) -> tuple:
    if isinstance(raw, (list, tuple)):
        if len(raw) > GRID_POINTS_MAX:
            raise ConfigError(f"grid has {len(raw)} points, above the cap of {GRID_POINTS_MAX}")
        return tuple(_number(x, "a grid value") for x in raw)
    if isinstance(raw, dict):
        _mapping(raw, "grid", ("start", "stop", "points", "spacing"))
        try:
            start, stop = _number(raw["start"], "grid start"), _number(raw["stop"], "grid stop")
            points = _integer(raw["points"], "grid points", 1, GRID_POINTS_MAX)
        except KeyError as exc:
            raise ConfigError(f"grid dict missing key {exc}") from exc
        spacing = raw.get("spacing", "linear")
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
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SweepConfig:
    _mapping(raw, "config", ("model", "sweep_axis", "grid", "fixed", "eps_deg", "outputs"))
    try:
        m = _mapping(raw["model"], "model", ("n_sites", "gamma", "theta"))
        model = ModelSpec(
            n_sites=m["n_sites"],
            gamma=_number(m["gamma"], "model gamma"),
            theta=_number(m.get("theta", 0.0), "model theta"),
        )
        axis = raw["sweep_axis"]
        grid = _resolve_grid(raw["grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    fixed = _mapping(raw.get("fixed") or {}, "fixed", ("beta", "temperature"))
    if len(fixed) > 1:
        raise ConfigError("fixed takes beta or temperature, not both")
    if fixed.get("beta") is not None:
        fixed_beta = checked_number(fixed["beta"], "fixed beta", most=BETA_MAX)
    elif "temperature" in fixed:
        t = checked_number(fixed["temperature"], "fixed temperature", True)
        fixed_beta = checked_number(1.0 / t, "1 / fixed temperature", most=BETA_MAX)
    else:
        fixed_beta = None
    eps_deg, outputs = raw.get("eps_deg"), raw.get("outputs", "out")
    if not isinstance(outputs, str):
        raise ConfigError(f"outputs must be a directory name, got {outputs!r}")
    return SweepConfig(
        model=model,
        sweep_axis=axis,
        grid=grid,
        fixed_beta=fixed_beta,
        eps_deg=None if eps_deg is None else checked_number(eps_deg, "eps_deg", True),
        outputs=outputs,
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
    H, O = tfim_operators(model)
    eigs = eigendecompose(H, config.eps_deg)
    table = pair_table(eigs, O)
    rows = []
    for x, beta in zip(points, betas):
        t0 = time.perf_counter()
        report = bounds_chain(gibbs_ensemble(eigs, beta), table)
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

    A temperature sweep diagonalizes once; a gamma sweep diagonalizes once
    per point, serially.  ``workers`` is kept only for the benchmark's
    ``run_sweep(cfg, workers=1)`` call, and 1 is its one legal value; a
    change to the benchmark can drop it.
    """
    if workers != 1:
        raise ConfigError(f"sweeps run serially: workers must be 1, got {workers}")
    points = list(config.grid)
    if config.sweep_axis == "temperature":
        return _hamiltonian_rows(config, points)
    return [evaluate_point(config, x) for x in points]


def write_csv(path, header: str, row_format: str, columns) -> None:
    """``header``, then one row per index of the equal-length ``columns``,
    printed by the %-format ``row_format`` (.12g prints NaN of either sign
    as "nan"), CSV_CHUNK rows per write with one %-format call each."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(columns[0]), CSV_CHUNK):
            chunk = np.column_stack([c[i:i + CSV_CHUNK] for c in columns])
            f.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


def emit_report(rows, config: SweepConfig, out_dir=None) -> dict:
    """Write sweep.csv and sweep.json under the output directory.

    The CSV is byte-stable across reruns of the same config: the volatile
    per-row timing lives in the JSON mirror, and the CSV ms column is left
    empty.
    """
    out = Path(out_dir if out_dir is not None else config.outputs)
    out.mkdir(parents=True, exist_ok=True)
    columns = [[row.axis for row in rows]] + [  # the report fields the header names
        [getattr(row.report, k) for row in rows] for k in CSV_HEADER.split(",")[1:-1]]
    csv_path = out / "sweep.csv"
    write_csv(csv_path, CSV_HEADER, "%.12g," * 10 + "\n", columns)

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
    """omega,weight lines at .12g (``write_csv``)."""
    write_csv(path, "omega,weight", "%.12g,%.12g\n", (spectrum.omegas, spectrum.weights))


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
            Ht, Ot = tfim_operators(ModelSpec(1, gamma))
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

    # route equivalence on a small TFIM, every route from one pair table
    Hr, Or = tfim_operators(ModelSpec(3, 0.4, 0.05))
    ensr = prepared_gibbs(Hr, Or, 1.5)
    tr = pair_table(ensr.eigs, Or)
    s = autocorrelation_spectrum(ensr, tr)
    record(
        "route_qfi",
        _close(moment(s, KernelKind.QFI, 1.5), qfi_spectral(ensr, tr)),
    )
    record(
        "route_susceptibility",
        _close(moment(s, KernelKind.SUSCEPTIBILITY, 1.5) / 1.5, susceptibility(ensr, tr)),
    )
    record(
        "route_variance",
        _close(moment(s, KernelKind.VARIANCE, 1.5) / 1.5**2, variance(ensr, tr)),
    )
    record(
        "route_fd_susceptibility",
        _close(
            susceptibility(ensr, tr),
            susceptibility_fd(ModelSpec(3, 0.4, 0.05), 1.5, 1e-4),
            rel=1e-5,
            abs_=1e-8,
        ),
    )
    recon = generalized_fdt(dissipation_spectrum(ensr, tr), ensr, tr)
    direct = autocorrelation_spectrum(ensr, tr)
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
