"""Command-line interface.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .operators import FlipOperator, ModelSpec, tfim_operators
from .gibbs import pair_table, prepared_gibbs
from .qfi import bounds_chain, check_bounds_report, uncertainty_report
from .fluctuation import autocorrelation_spectrum, dissipation_spectrum
from .sld import (PANELS_MAX, TimeKernelSpec, kernel_g_integral, lyapunov_residual, sld_matrix,
                  sld_time_domain)
from .locality import DressSpec, commutator_decay_profile
from .spectral import eigendecompose
from .harness import (
    BETA_MAX,
    ConfigError,
    SweepConfig,
    checked_number,
    config_from_dict,
    emit_report,
    load_config,
    run_sweep,
    selftest,
    spectrum_csv,
    write_csv,
)


EPS_DEG_HELP = "degeneracy tolerance (default: 1e-8 x spectral range)"

# sld-check's default panels: one 8-node panel per 4 radians of the largest
# phase, (E_max - E_min) x horizon, and no fewer than 2048.  At N=4..8 and
# beta=300..1000 this leaves time_domain_rel_deviation at most 2e-12, half as
# many panels 2.4e-8 and a quarter 2.6e-4.
PANELS_FLOOR = 2048
RADIANS_PER_PANEL = 4.0

MODEL_DEFAULTS = {"n_sites": 8, "gamma": 0.35 * math.pi, "theta": 0.0}

# A sweep's flags and their defaults.  With --config the sweep reads these
# from the file, so none of them may be given next to it.
SWEEP_DEFAULTS = {
    "temperature": {**MODEL_DEFAULTS, "start": 0.05, "stop": 50.0, "points": 40,
                    "spacing": "log"},
    "gamma": {**MODEL_DEFAULTS, "beta": 0.1, "start": 0.02, "stop": math.pi / 2 - 0.02,
              "points": 40, "spacing": "linear"},
}


def _add_flags(p: argparse.ArgumentParser, defaults: dict, unset: bool = False) -> None:
    """One flag per entry of ``defaults``, typed as its value; with ``unset``
    a flag not given reads None, so a given one can be told from its default."""
    for name, value in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(value),
                       default=None if unset else value,
                       choices=("linear", "log") if name == "spacing" else None,
                       help=f"default: {value}" if unset else None)


def _spec(cls, *fields):
    """Build an input spec; its validation error is a configuration error."""
    try:
        return cls(*fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _model(args) -> ModelSpec:
    return _spec(ModelSpec, args.n_sites, args.gamma, args.theta)


def _sweep_config(args, axis: str) -> SweepConfig:
    """The sweep's config: its file, with --eps-deg and --out overriding it,
    or else the flags over SWEEP_DEFAULTS."""
    given = {k: v for k, v in vars(args).items()
             if k in SWEEP_DEFAULTS[axis] and v is not None}
    if args.config is not None:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ConfigError(f"{flags} cannot be given with --config; "
                              "set them in the config file")
        cfg = load_config(args.config)
        if cfg.sweep_axis != axis:
            raise ConfigError(
                f"config sweep_axis={cfg.sweep_axis!r} but subcommand wants {axis!r}"
            )
        overrides = {"eps_deg": args.eps_deg, "outputs": args.out and str(args.out)}
        return dataclasses.replace(
            cfg, **{k: v for k, v in overrides.items() if v is not None})
    v = {**SWEEP_DEFAULTS[axis], **given}
    raw = {
        "model": {"n_sites": v["n_sites"], "gamma": v["gamma"], "theta": v["theta"]},
        "sweep_axis": axis,
        "grid": {k: v[k] for k in ("start", "stop", "points", "spacing")},
        "eps_deg": args.eps_deg,
        "outputs": str(args.out or "out"),
    }
    if axis == "gamma":
        raw["fixed"] = {"beta": v["beta"]}
    return config_from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qfibounds",
        description="QFI bounds, spectra, SLD and locality diagnostics for "
        "Gibbs states of finite spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for axis, what in (("temperature", "temperature"), ("gamma", "field angle gamma")):
        p = sub.add_parser(f"sweep-{axis}", help=f"bounds chain vs {what}")
        p.add_argument("--config", type=Path,
                       help="YAML sweep config; excludes the model, grid and beta flags")
        _add_flags(p, SWEEP_DEFAULTS[axis], unset=True)
        p.add_argument("--eps-deg", type=float, help=EPS_DEG_HELP)
        p.add_argument("--out", type=Path, help="default: out")

    p = sub.add_parser("bounds", help="single bounds-chain evaluation")
    _add_flags(p, MODEL_DEFAULTS)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps-deg", type=float, help=EPS_DEG_HELP)

    p = sub.add_parser("spectrum", help="line spectrum as CSV")
    _add_flags(p, MODEL_DEFAULTS)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kind", choices=("autocorrelation", "dissipation"),
                   default="autocorrelation")
    p.add_argument("--eps-deg", type=float, help=EPS_DEG_HELP)
    p.add_argument("--out", type=Path, default=Path("out"))

    p = sub.add_parser("sld-check", help="SLD diagnostics for one model")
    _add_flags(p, MODEL_DEFAULTS)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--horizon-betas", type=float, default=12.0,
                   help="time horizon in units of beta")
    p.add_argument("--panels", type=int,
                   help=f"quadrature panels, 16..{PANELS_MAX} (default: beta x (E_max - E_min) x "
                   f"horizon-betas / {RADIANS_PER_PANEL:g}, at least {PANELS_FLOOR})")
    p.add_argument("--fd-delta", type=float, default=1e-4)
    p.add_argument("--eps-deg", type=float, help=EPS_DEG_HELP)

    p = sub.add_parser("locality", help="commutator-decay and local-approximation run")
    _add_flags(p, MODEL_DEFAULTS)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None, help="default pi/beta")
    p.add_argument("--probe", choices=("X", "Y", "Z"), default="Z")
    p.add_argument("--out", type=Path, default=Path("out"))

    sub.add_parser("selftest", help="fixture and invariant suite")

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1


def _prepared(args):
    model = _model(args)
    H, O = tfim_operators(model)
    return model, O, prepared_gibbs(H, O, args.beta, args.eps_deg)


def _dispatch(args) -> int:
    cmd = args.command
    if getattr(args, "eps_deg", None) is not None:
        checked_number(args.eps_deg, "eps_deg", positive=True)
    if getattr(args, "beta", None) is not None:
        checked_number(args.beta, "beta", positive=cmd in ("sld-check", "locality"), most=BETA_MAX)
    if cmd == "sld-check" and not (1e-6 <= args.fd_delta <= 1e-3):
        raise ConfigError(f"fd_delta must lie in [1e-6, 1e-3], got {args.fd_delta}")
    if cmd == "locality" and args.n_sites < 6:
        raise ConfigError(f"locality's decay fit needs n_sites >= 6, got {args.n_sites}")

    if cmd in ("sweep-temperature", "sweep-gamma"):
        axis = "temperature" if cmd == "sweep-temperature" else "gamma"
        cfg = _sweep_config(args, axis)
        rows = run_sweep(cfg)
        paths = emit_report(rows, cfg)
        print(json.dumps(paths))
        return 0

    if cmd == "bounds":
        _, O, ens = _prepared(args)
        report = bounds_chain(ens, O)
        check_bounds_report(report)
        out = report.to_dict()
        out["uncertainty"] = uncertainty_report(report)
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    if cmd == "spectrum":
        _, O, ens = _prepared(args)
        spec = (
            autocorrelation_spectrum(ens, O)
            if args.kind == "autocorrelation"
            else dissipation_spectrum(ens, O)
        )
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"spectrum_{args.kind}.csv"
        spectrum_csv(spec, path)
        print(json.dumps({"csv": str(path), "lines": len(spec)}))
        return 0

    if cmd == "sld-check":
        horizon = args.horizon_betas * args.beta
        tks = _spec(TimeKernelSpec, args.beta, horizon,
                    PANELS_FLOOR if args.panels is None else args.panels)
        model, O, ens = _prepared(args)
        if args.panels is None:
            need = float(np.ptp(ens.eigs.levels)) * horizon / RADIANS_PER_PANEL
            if not need <= PANELS_MAX:
                raise ConfigError(f"beta x (E_max - E_min) x horizon-betas needs {need:.4g} "
                                  f"panels, above the cap of {PANELS_MAX}; lower --horizon-betas")
            tks = _spec(TimeKernelSpec, args.beta, horizon, max(PANELS_FLOOR, math.ceil(need)))
        table = pair_table(ens.eigs, O)  # both SLDs read one transform of O
        res = sld_matrix(ens, table)
        deviation = float(np.max(np.abs(sld_time_domain(ens, table, tks) - res.L)))
        del table  # gone before the residual's d x d arrays
        summary = {
            "trace_rho_L": res.trace_rho_L,
            "trace_rho_L2": res.trace_rho_L2,
            "lyapunov_residual": lyapunov_residual(ens, res.L, model, args.fd_delta),
            "time_domain_max_deviation": deviation,
            "time_domain_rel_deviation": deviation / (float(np.max(np.abs(res.L))) or 1.0),
            "kernel_integral": kernel_g_integral(args.beta),
            "kernel_integral_expected": -args.beta,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        if not summary["time_domain_rel_deviation"] <= 1e-5:  # criterion 5's bound; NaN fails
            print("invariant failure: the time-domain SLD deviates from L by more than 1e-5 "
                  "of max|L|; raise --panels or lower --horizon-betas", file=sys.stderr)
            return 1
        return 0

    if cmd == "locality":
        model = _model(args)
        mu = args.mu if args.mu is not None else math.pi / args.beta
        spec = _spec(DressSpec, mu)
        H, _ = tfim_operators(model)
        eigs = eigendecompose(H)
        a_loc = FlipOperator(np.zeros(model.dim), ((model.dim >> 1, 1.0),))  # sigma^x_0
        try:  # the filter overflows, or too few norms stay above 1e-12 to fit
            profile = commutator_decay_profile(eigs, a_loc, spec, probe_kind=args.probe)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        args.out.mkdir(parents=True, exist_ok=True)
        csv_path = args.out / "locality_profile.csv"
        write_csv(csv_path, "r,norm", "%d,%.12g\n",
                  (profile.distances, profile.commutator_norms))
        fit_path = args.out / "locality_fit.json"
        fit_path.write_text(
            json.dumps(
                {
                    "lambda": profile.fitted_rate,
                    "r2": profile.fit_r2,
                    "mu": mu,
                    "model": {
                        "n_sites": model.n_sites,
                        "gamma": model.gamma,
                        "theta": model.theta,
                        "beta": args.beta,
                    },
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(json.dumps({"csv": str(csv_path), "fit": str(fit_path)}))
        return 0

    if cmd == "selftest":
        checks = selftest()
        failed = 0
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail and not ok else ""
            print(f"{status} {name}{suffix}")
            failed += not ok
        print(f"{len(checks) - failed}/{len(checks)} checks passed")
        return 0 if failed == 0 else 1

    raise ConfigError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
