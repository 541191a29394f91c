"""Acceptance suite: ten numbered criteria, one pass/fail line each.

The verdict lines are printed with capture disabled so they are visible in
any run log.  Phenomenology constants marked "pinned" were frozen from N=10
reference runs at twice the observed value.
"""

import math
import time

import numpy as np
import pytest

import qfibounds as q
from qfibounds.fluctuation import (
    KernelKind,
    autocorrelation_spectrum,
    dissipation_spectrum,
    generalized_fdt,
    moment,
)
from qfibounds.harness import config_from_dict, emit_report, run_sweep
from qfibounds.locality import (
    DressSpec,
    commutator_decay_profile,
    dressed_operator,
    local_approximation,
    spectral_norm,
)
from qfibounds.operators import PauliString, pauli_string_matrix
from qfibounds.qfi import check_bounds_report, qfi_fidelity_oracle_generic
from qfibounds.sld import (
    TimeKernelSpec,
    kernel_g_integral,
    lyapunov_residual,
    sld_matrix,
    sld_time_domain,
)
from qfibounds.spectral import eigendecompose


@pytest.fixture
def report(capfd):
    def _emit(number: int, ok: bool, detail: str) -> None:
        line = f"[ACCEPTANCE {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _emit


def _instances():
    """The shared randomized (H, O, beta) pool: 200 instances over
    d in {2, 4, 8} x beta in {0.1, 1, 10}."""
    k = 0
    while k < 200:
        for d in (2, 4, 8):
            for beta in (0.1, 1.0, 10.0):
                if k >= 200:
                    return
                H = q.random_hermitian(d, 5000 + k)
                O = q.random_hermitian(d, 6000 + k)
                yield k, H, O, beta
                k += 1


def test_criterion_01_chain_inequalities(report):
    t0 = time.perf_counter()
    worst = ""
    ok = True
    for k, H, O, beta in _instances():
        rep = q.bounds_chain(q.prepared_gibbs(H, O, beta), O)
        try:
            check_bounds_report(rep)
        except RuntimeError as exc:
            ok = False
            worst = f"instance {k}: {exc}"
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        1,
        ok,
        f"chain inequalities + geometric identity on 200 instances "
        f"in {elapsed:.2f}s (<10s) {worst}",
    )


def test_criterion_02_route_equivalence(report):
    worst = 0.0
    for k, H, O, beta in _instances():
        ens = q.prepared_gibbs(H, O, beta)
        s = autocorrelation_spectrum(ens, O)
        pairs = [
            (moment(s, KernelKind.QFI, beta), q.qfi_spectral(ens, O)),
            (moment(s, KernelKind.SUSCEPTIBILITY, beta) / beta if beta else 0.0,
             q.susceptibility(ens, O)),
            (moment(s, KernelKind.VARIANCE, beta) / beta**2 if beta else 0.0,
             q.variance(ens, O)),
        ]
        for a, b in pairs:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst < 1e-9
    report(
        2,
        ok,
        f"line-sum vs spectral QFI / susceptibility / variance on 200 "
        f"instances, worst rel dev {worst:.2e} (<1e-9)",
    )


def test_criterion_03_fidelity_oracle(report):
    worst = 0.0
    count = 0
    for k, H, O, beta in _instances():
        if k % 4 != 0 or count >= 50:
            continue
        count += 1
        ens = q.prepared_gibbs(H, O, beta)
        f_spec = q.qfi_spectral(ens, O)
        f_fid = qfi_fidelity_oracle_generic(H, O, beta, 1e-3)
        dev = abs(f_fid - f_spec) / max(abs(f_spec), 1e-3)
        worst = max(worst, dev)
    ok = count == 50 and worst < 1e-3
    report(
        3,
        ok,
        f"Bures finite-difference oracle on {count} instances at delta=1e-3, "
        f"worst scaled dev {worst:.2e} (<max(1e-3 rel, 1e-6 abs))",
    )


def test_criterion_04_generalized_fdt(report):
    worst = 0.0
    cases = [(H, O, beta) for k, H, O, beta in _instances() if k % 10 == 0 and beta > 0]
    # commuting observable: the zero-frequency correction is the whole spectrum
    Hc = np.diag([1.0, -1.0]).astype(complex)
    cases.append((Hc, Hc, 1.0))
    for H, O, beta in cases:
        ens = q.prepared_gibbs(H, O, beta)
        recon = generalized_fdt(dissipation_spectrum(ens, O), ens, O)
        direct = autocorrelation_spectrum(ens, O)
        assert len(recon) == len(direct)
        dev = np.abs(recon.weights - direct.weights) / np.maximum(
            np.abs(direct.weights), 1e-300
        )
        dev[np.abs(direct.weights) < 1e-12] = 0.0  # empty lines compare as absolute
        worst = max(worst, float(np.max(dev)))
    ok = worst < 1e-9
    report(
        4,
        ok,
        f"generalized FDT line-by-line on {len(cases)} cases incl. commuting, "
        f"worst rel dev {worst:.2e} (<1e-9)",
    )


def test_criterion_05_sld_suite(report):
    beta = 1.5
    model = q.ModelSpec(3, 0.4, 0.05)
    H, O = q.build_tfim(model)
    ens = q.prepared_gibbs(H, O, beta)
    res = sld_matrix(ens, O)
    f = q.qfi_spectral(ens, O)

    tr1 = abs(res.trace_rho_L)
    tr2 = abs(res.trace_rho_L2 - f) / abs(f)
    lyap = lyapunov_residual(ens, res.L, model, 1e-4)
    L_time = sld_time_domain(ens, O, TimeKernelSpec(beta, 12 * beta, 2048))
    time_dev = float(np.max(np.abs(L_time - res.L))) / spectral_norm(res.L)
    kint = abs(kernel_g_integral(beta) + beta) / beta

    ok = tr1 < 1e-9 and tr2 < 1e-8 and lyap <= 1e-6 and time_dev < 1e-5 and kint < 1e-6
    report(
        5,
        ok,
        f"SLD: Tr[rho L]={tr1:.1e} (<1e-9), Tr[rho L^2] rel dev={tr2:.1e} "
        f"(<1e-8), Lyapunov={lyap:.1e} (<=1e-6), time-domain dev={time_dev:.1e} "
        f"(<1e-5 ||L||), kernel integral dev={kint:.1e} (<1e-6)",
    )


def test_criterion_06_closed_form_fixtures(report):
    H, O = q.single_qubit_model(0.0)
    rep = q.bounds_chain(q.prepared_gibbs(H, O, 1.0), O)
    t1 = math.tanh(1.0)
    expected = (t1**2, t1**2, t1, 1.0)
    got = (rep.lb, rep.qfi, rep.ub1, rep.ub2)
    dev_q = max(abs(a - b) for a, b in zip(got, expected))

    dev_tfim = 0.0
    for beta in (0.3, 0.7, 1.0, 2.0, 5.0):
        for gamma in (0.1, 0.4, 0.8, 1.2, 1.5):
            Ht, Ot = q.build_tfim(q.ModelSpec(1, gamma))
            fs = q.qfi_spectral(q.prepared_gibbs(Ht, Ot, beta), Ot)
            exact = math.tanh(beta * math.sin(gamma)) ** 2 / math.sin(gamma) ** 2
            dev_tfim = max(dev_tfim, abs(fs - exact) / exact)

    ok = dev_q < 1e-9 and dev_tfim < 1e-9
    report(
        6,
        ok,
        f"single-qubit quadruple dev {dev_q:.1e} (<1e-9); TFIM N=1 closed form "
        f"over 5x5 (beta, gamma) grid, worst rel dev {dev_tfim:.1e} (<1e-9)",
    )


def _temperature_qfi(gamma: float, temps) -> np.ndarray:
    cfg = config_from_dict(
        {
            "model": {"n_sites": 10, "gamma": gamma},
            "sweep_axis": "temperature",
            "grid": list(temps),
        }
    )
    return np.array([row.report.qfi for row in run_sweep(cfg)])


def test_criterion_07_temperature_phenomenology(report):
    t0 = time.perf_counter()
    hi = np.geomspace(10.0, 50.0, 6)
    slopes = {}
    for gf in (0.15, 0.35):
        f = _temperature_qfi(gf * math.pi, hi)
        slopes[gf] = float(np.polyfit(np.log(hi), np.log(f), 1)[0])
    lo = np.geomspace(0.05, 0.2, 4)
    ft2 = _temperature_qfi(0.15 * math.pi, lo) * lo**2
    ferro_var = float((ft2.max() - ft2.min()) / ft2.mean())
    elapsed = time.perf_counter() - t0

    # slope window pinned at 2x the reference deviation (slopes -2.070 and
    # -2.034 on the reference grid); ferro F T^2 variation well under 10%
    ok = (
        all(abs(s + 2.0) <= 0.14 for s in slopes.values())
        and ferro_var < 0.10
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"N=10 log-log slopes {slopes[0.15]:.3f} / {slopes[0.35]:.3f} "
        f"(within -2 +/- 0.14 pinned), ferro F*T^2 variation "
        f"{100 * ferro_var:.2f}% (<10%), {elapsed:.1f}s (<120s)",
    )


def _gamma_rows(gammas, beta):
    cfg = config_from_dict(
        {
            "model": {"n_sites": 10, "gamma": 0.1},
            "sweep_axis": "gamma",
            "grid": list(gammas),
            "fixed": {"beta": beta},
        }
    )
    return run_sweep(cfg)


def test_criterion_08_gamma_phenomenology(report):
    rows_hi = _gamma_rows(np.linspace(0.02, 0.48, 13) * math.pi, 0.1)
    spread = max((r.report.ub2 - r.report.lb) / r.report.ub2 for r in rows_hi)

    rows_lo = _gamma_rows(np.linspace(0.35, 0.45, 4) * math.pi, 10.0)
    track = max(r.report.qfi / r.report.lb - 1.0 for r in rows_lo)
    ub2_over_f = min(r.report.ub2 / r.report.qfi for r in rows_lo)

    # pinned at 2x the reference: spread 0.0065 -> 0.014, tracking
    # 0.0076 -> 0.016; UB2/F observed ~23
    ok = spread < 0.014 and track < 0.016 and ub2_over_f > 2.0
    report(
        8,
        ok,
        f"N=10 T=10 spread {100 * spread:.2f}% (<1.4% pinned); T=0.1 "
        f"paramagnetic F/LB-1 {100 * track:.2f}% (<1.6% pinned), "
        f"UB2/F {ub2_over_f:.1f} (>2)",
    )


def test_criterion_09_locality(report):
    t0 = time.perf_counter()
    n, beta = 10, 1.0
    mu = math.pi / beta
    H, _ = q.build_tfim(q.ModelSpec(n, 0.4 * math.pi))
    eigs = eigendecompose(H)
    a_loc = pauli_string_matrix(PauliString({0: "X"}), n)

    profile = commutator_decay_profile(eigs, a_loc, DressSpec(mu=mu))
    dressed = dressed_operator(eigs, a_loc, DressSpec(mu=mu))
    errs = [
        local_approximation(dressed, k, n_random_probes=2).err for k in (2, 3, 4, 5, 6)
    ]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - t0

    ok = (
        profile.fit_r2 >= 0.9
        and profile.fitted_rate > 0
        and monotone
        and elapsed < 180.0
    )
    report(
        9,
        ok,
        f"N=10 mu=pi decay fit r2={profile.fit_r2:.4f} (>=0.9), "
        f"lambda={profile.fitted_rate:.2f} (>0), local-approx errors "
        f"monotone={monotone}, {elapsed:.1f}s (<180s)",
    )


def test_criterion_10_determinism(tmp_path, report):
    raw = {
        "model": {"n_sites": 3, "gamma": 0.4, "theta": 0.05},
        "sweep_axis": "temperature",
        "grid": [0.5, 1.0, 2.0, 5.0],
    }
    blobs = []
    for sub in ("a", "b"):
        cfg = config_from_dict({**raw, "outputs": str(tmp_path / sub)})
        emit_report(run_sweep(cfg), cfg)
        blobs.append((tmp_path / sub / "sweep.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(10, ok, "repeated sweep runs produce byte-identical CSV")
