"""The four benchmark workloads: seeded inputs, one operation, its check.

Every workload is a closed loop: one operation runs after the previous one
ends.  ``inputs(rng)`` draws the operation inputs in blocks, each block
stratified on its own, so that the operations a run completes have the same
mix of regimes for every seed; ``run`` calls only the public library API on
one input; ``check`` re-derives the output's invariants outside the timed
section and returns a list of problems (empty when the output is correct);
``fingerprint`` reduces an output to bytes, so that traced and untraced runs
can be compared for identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qfibounds import fluctuation, gibbs, harness, locality, operators, qfi, sld, spectral

# Blocks of inputs drawn per seed; operations beyond them wrap around.
BLOCKS = 4

# The sweeps take their points from the 40-point grids of the repository's
# sweep configs (configs/temperature_sweep_n10.yaml, gamma_sweep_lowT.yaml).
# One operation is a SWEEP_POINTS-point sweep with one point from each
# quarter of the grid; a block of 10 operations uses every grid point once.
SWEEP_SITES = 10
SWEEP_POINTS = 4
TEMPERATURE_GRID = np.geomspace(0.05, 50.0, 40)
GAMMA_GRID = np.linspace(0.0628, 1.5080, 40)
GAMMA_BETA = 10.0
# Below ~0.061 pi the N=10 ferromagnetic doublets fall inside eps_deg and form
# 512 two-state clusters; above ~0.062 pi there are none.  4 of the 40 gamma
# grid points (10 %) are below, the next one is at 0.067 pi.
GAMMA_DEGENERATE_BELOW = 0.061 * math.pi

DIAG_SITES = 9
DIAG_BLOCK = 4  # operations per stratified block: a 20 s run completes 5-6
# 32 panels keep the d^2 x nodes time kernel near 0.5 GB at N=9 (the CLI
# default of 2048 panels would need 34 GB); the horizon cuts the kernel where
# it has decayed to ~1e-11, so the time-domain SLD still meets 1e-5 ||L||.
DIAG_PANELS = 32
DIAG_HORIZON = 8.0  # in units of beta
FD_DELTA = 1e-4
FIDELITY_DELTA = 1e-3

LOC_SITES = 8
LOC_BLOCK = 8  # operations per stratified block: a 20 s run completes 10-11
LOC_REGIONS = (2, 3, 4, 5, 6)
LOC_RANDOM_PROBES = 2


def _strata(rng, lo, hi, block):
    """BLOCKS blocks of draws from [lo, hi]; each block has one uniform draw
    in each of ``block`` equal strata, shuffled."""
    return np.concatenate([
        lo + (hi - lo) * (rng.permutation(block) + rng.random(block)) / block
        for _ in range(BLOCKS)
    ])


def _spread(rng, points, marked):
    """``points`` shuffled, with the marked ones at evenly spaced positions,
    so that every prefix holds about its share of them."""
    hit = rng.permutation([p for p in points if marked(p)]).tolist()
    rest = rng.permutation([p for p in points if not marked(p)]).tolist()
    slots = {int((k + 0.5) * len(points) / len(hit)) for k in range(len(hit))}
    return [hit.pop() if i in slots else rest.pop() for i in range(len(points))]


def _sweep_grids(rng, grid, marked=lambda x: False):
    """BLOCKS blocks of operation grids; each block partitions ``grid`` into
    sorted SWEEP_POINTS-point grids, one point from each quarter."""
    quarters = np.array_split(np.asarray(grid), SWEEP_POINTS)
    grids = []
    for _ in range(BLOCKS):
        columns = [_spread(rng, q.tolist(), marked) for q in quarters]
        grids.extend(sorted(op) for op in zip(*columns))
    return grids


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[np.random.Generator], list]
    warmup: Any  # one small input that runs every code path of ``run``
    run: Callable[[Any, Path], Any]
    check: Callable[[Any, Any], list]
    fingerprint: Callable[[Any], bytes]


# -- sweeps ------------------------------------------------------------------


def _temperature_inputs(rng):
    return [
        harness.config_from_dict({
            "model": {"n_sites": SWEEP_SITES, "gamma": 0.15 * math.pi, "theta": 0.0},
            "sweep_axis": "temperature",
            "grid": grid,
        })
        for grid in _sweep_grids(rng, TEMPERATURE_GRID)
    ]


def _gamma_inputs(rng):
    # the degenerate points sit in the first quarter; _spread places the 4 of
    # them at operations 1, 3, 6 and 8 of each block of 10
    return [
        harness.config_from_dict({
            "model": {"n_sites": SWEEP_SITES, "gamma": 0.1, "theta": 0.0},
            "sweep_axis": "gamma",
            "grid": grid,
            "fixed": {"beta": GAMMA_BETA},
        })
        for grid in _sweep_grids(rng, GAMMA_GRID, lambda g: g < GAMMA_DEGENERATE_BELOW)
    ]


def _sweep_warmup(axis):
    raw = {"model": {"n_sites": 6, "gamma": 0.3}, "sweep_axis": axis, "grid": [0.5, 1.0]}
    if axis == "gamma":
        raw["fixed"] = {"beta": GAMMA_BETA}
    return harness.config_from_dict(raw)


def _run_sweep(cfg, out_dir):
    rows = harness.run_sweep(cfg, workers=1)
    harness.emit_report(rows, cfg, out_dir)
    return rows, (out_dir / "sweep.csv").read_bytes()


def _check_sweep(cfg, output):
    rows, csv = output
    problems = []
    if [r.axis for r in rows] != list(cfg.grid):
        problems.append("rows do not follow the grid")
    if csv.decode().count("\n") != len(cfg.grid) + 1:
        problems.append("sweep.csv row count differs from the grid")
    for r in rows:
        try:
            qfi.check_bounds_report(r.report)
        except RuntimeError as exc:
            problems.append(f"{cfg.sweep_axis}={r.axis}: {exc}")
    return problems


def _sweep_fingerprint(output):
    return output[1]  # sweep.csv is byte-stable and holds every report field


# -- diagnostics ---------------------------------------------------------------


def _diagnostics_inputs(rng):
    gammas = _strata(rng, 0.1 * math.pi, 0.45 * math.pi, DIAG_BLOCK)
    thetas = _strata(rng, 0.05, 0.3, DIAG_BLOCK)
    betas = _strata(rng, 0.5, 2.0, DIAG_BLOCK)
    return [
        (operators.ModelSpec(DIAG_SITES, float(g), float(t)), float(b))
        for g, t, b in zip(gammas, thetas, betas)
    ]


def _run_diagnostics(inp, _out_dir):
    model, beta = inp
    H, O = operators.build_tfim(model)
    ens = gibbs.prepared_gibbs(H, O, beta)
    auto = fluctuation.autocorrelation_spectrum(ens, O)
    diss = fluctuation.dissipation_spectrum(ens, O)
    fdt = fluctuation.generalized_fdt(diss, ens, O)
    moments = [fluctuation.moment(auto, k, beta) for k in fluctuation.KernelKind]
    res = sld.sld_matrix(ens, O)
    spec = sld.TimeKernelSpec(beta, DIAG_HORIZON * beta, DIAG_PANELS)
    l_time = sld.sld_time_domain(ens, O, spec)
    lyap = sld.lyapunov_residual(ens, res.L, model, FD_DELTA)
    f_fid = qfi.qfi_fidelity_oracle(model, beta, FIDELITY_DELTA)
    return {
        "ens": ens, "O": O, "auto": auto, "fdt": fdt, "moments": moments,
        "sld": res, "l_time": l_time, "lyap": lyap, "f_fid": f_fid,
    }


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_diagnostics(inp, out):
    _, beta = inp
    ens, O, res = out["ens"], out["O"], out["sld"]
    f = qfi.qfi_spectral(ens, O)
    m_qfi, m_chi, m_var = out["moments"]
    auto, fdt = out["auto"], out["fdt"]
    problems = []
    if max(_rel(m_qfi, f), _rel(m_chi / beta, gibbs.susceptibility(ens, O)),
           _rel(m_var / beta**2, gibbs.variance(ens, O))) > 1e-9:
        problems.append("kernel moments disagree with the spectral routes")
    if not (len(fdt) == len(auto)
            and np.allclose(fdt.omegas, auto.omegas, rtol=0.0, atol=1e-10)
            and np.allclose(fdt.weights, auto.weights, rtol=1e-9, atol=1e-12)):
        problems.append("FDT reconstruction differs from the autocorrelation spectrum")
    if abs(res.trace_rho_L) > 1e-9 or _rel(res.trace_rho_L2, f) > 1e-8:
        problems.append("Tr[rho L] != 0 or Tr[rho L^2] != F")
    l_norm = locality.spectral_norm(res.L)
    if float(np.max(np.abs(out["l_time"] - res.L))) > 1e-5 * l_norm:
        problems.append("time-domain SLD deviates by more than 1e-5 ||L||")
    if out["lyap"] > 1e-6:
        problems.append(f"Lyapunov residual {out['lyap']:.2e} > 1e-6")
    if abs(out["f_fid"] - f) / max(abs(f), 1e-3) > 1e-3:
        problems.append("fidelity oracle disagrees with F by more than 1e-3")
    return problems


def _diagnostics_fingerprint(out):
    return _digest(
        out["ens"].eigs.vectors, out["auto"].omegas, out["auto"].weights,
        out["fdt"].weights, np.array(out["moments"]), out["sld"].L, out["l_time"],
        np.array([out["lyap"], out["f_fid"]]),
    )


# -- locality ------------------------------------------------------------------


def _locality_inputs(rng):
    gammas = _strata(rng, 0.2 * math.pi, 0.45 * math.pi, LOC_BLOCK)
    betas = _strata(rng, 0.7, 1.5, LOC_BLOCK)
    probe_seeds = rng.integers(0, 2**31, len(gammas))
    return [
        (LOC_SITES, float(g), float(b), int(s))
        for g, b, s in zip(gammas, betas, probe_seeds)
    ]


def _run_locality(inp, _out_dir):
    n, gamma, beta, probe_seed = inp
    H, _ = operators.build_tfim(operators.ModelSpec(n, gamma))
    eigs = spectral.eigendecompose(H)
    a_loc = operators.pauli_string_matrix(operators.PauliString({0: "X"}), n)
    spec = locality.DressSpec(mu=math.pi / beta)
    dressed = locality.dressed_operator(eigs, a_loc, spec)
    profile = locality.commutator_decay_profile(eigs, a_loc, spec, "Z")
    approx = [
        locality.local_approximation(dressed, k, LOC_RANDOM_PROBES, probe_seed)
        for k in LOC_REGIONS
    ]
    return profile, approx


def _check_locality(_inp, out):
    profile, approx = out
    errs = [a.err for a in approx]
    problems = []
    if not profile.fit_r2 >= 0.9:
        problems.append(f"decay fit r2 {profile.fit_r2:.4f} < 0.9")
    if not profile.fitted_rate > 0:
        problems.append(f"decay rate {profile.fitted_rate:.3f} <= 0")
    if not all(a > b for a, b in zip(errs, errs[1:])):
        problems.append(f"local-approximation errors not decreasing: {errs}")
    return problems


def _locality_fingerprint(out):
    profile, approx = out
    return _digest(
        profile.commutator_norms, np.array([profile.fitted_rate, profile.fit_r2]),
        np.array([[a.err, a.eps_hat] for a in approx]), *(a.a_prime for a in approx),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_temperature", _temperature_inputs, _sweep_warmup("temperature"),
                 _run_sweep, _check_sweep, _sweep_fingerprint),
        Workload("sweep_gamma", _gamma_inputs, _sweep_warmup("gamma"),
                 _run_sweep, _check_sweep, _sweep_fingerprint),
        Workload("diagnostics", _diagnostics_inputs,
                 (operators.ModelSpec(5, 0.3 * math.pi, 0.1), 1.0),
                 _run_diagnostics, _check_diagnostics, _diagnostics_fingerprint),
        Workload("locality", _locality_inputs, (6, 0.4 * math.pi, 1.0, 1),
                 _run_locality, _check_locality, _locality_fingerprint),
    )
}
