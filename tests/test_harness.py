import json
import math
import warnings

import numpy as np
import pytest

import qfibounds as q
from qfibounds.cli import main
from qfibounds.fluctuation import LineSpectrum
from qfibounds.harness import (
    CSV_CHUNK,
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepRow,
    config_from_dict,
    emit_report,
    evaluate_point,
    load_config,
    run_sweep,
    selftest,
    spectrum_csv,
)


def _fmt(x: float) -> str:
    """One CSV field as the per-field writer printed it, the reference of
    the chunked %-format writer."""
    return format(float(x), ".12g")


SPECIAL = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf,
           5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1 / 3]

SMALL = {
    "model": {"n_sites": 3, "gamma": 0.4, "theta": 0.05},
    "sweep_axis": "temperature",
    "grid": [0.5, 1.0, 2.0],
}


class TestSweepConfig:
    def test_valid_minimal(self):
        cfg = config_from_dict(SMALL)
        assert cfg.model.n_sites == 3
        assert cfg.grid == (0.5, 1.0, 2.0)
        assert cfg.fixed_beta is None

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            config_from_dict({**SMALL, "grid": []})

    def test_non_monotone_grid(self):
        with pytest.raises(ConfigError):
            config_from_dict({**SMALL, "grid": [1.0, 3.0, 2.0]})

    def test_negative_temperature(self):
        with pytest.raises(ConfigError):
            config_from_dict({**SMALL, "grid": [-1.0, 1.0]})

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            config_from_dict({**SMALL, "sweep_axis": "pressure"})

    def test_gamma_sweep_needs_beta(self):
        raw = {**SMALL, "sweep_axis": "gamma", "grid": [0.2, 0.4]}
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        cfg = config_from_dict({**raw, "fixed": {"beta": 2.0}})
        assert cfg.fixed_beta == 2.0

    def test_fixed_temperature_converted(self):
        raw = {**SMALL, "sweep_axis": "gamma", "grid": [0.2, 0.4],
               "fixed": {"temperature": 4.0}}
        assert config_from_dict(raw).fixed_beta == 0.25

    def test_grid_mapping_log(self):
        raw = {**SMALL, "grid": {"start": 0.1, "stop": 10.0, "points": 3,
                                 "spacing": "log"}}
        cfg = config_from_dict(raw)
        assert np.allclose(cfg.grid, [0.1, 1.0, 10.0])

    def test_grid_mapping_linear_default(self):
        raw = {**SMALL, "grid": {"start": 1.0, "stop": 2.0, "points": 3}}
        assert config_from_dict(raw).grid == (1.0, 1.5, 2.0)

    def test_grid_mapping_missing_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({**SMALL, "grid": {"start": 1.0, "stop": 2.0}})

    def test_load_yaml_round_trip(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(SMALL))
        assert load_config(path) == config_from_dict(SMALL)

    def test_yaml_exponent_without_dot_is_a_number(self, tmp_path):
        # YAML 1.1 reads 1e-8 as a string; the config converts it
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "model: {n_sites: 2, gamma: 0.5}\nsweep_axis: temperature\n"
            f"grid: [1.0]\neps_deg: 1e-8\noutputs: {tmp_path}\n"
        )
        assert load_config(path).eps_deg == 1e-8
        assert main(["sweep-temperature", "--config", str(path)]) == 0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")


class TestRunSweep:
    def test_rows_ordered_and_valid(self):
        cfg = config_from_dict(SMALL)
        rows = run_sweep(cfg)
        assert [r.axis for r in rows] == [0.5, 1.0, 2.0]
        for row in rows:
            assert row.report.lb <= row.report.qfi + 1e-12
            assert row.ms >= 0.0

    def test_temperature_axis_sets_beta(self):
        cfg = config_from_dict(SMALL)
        row = evaluate_point(cfg, 2.0)
        assert row.report.beta == 0.5

    def test_gamma_axis_overrides_model(self):
        cfg = config_from_dict(
            {**SMALL, "sweep_axis": "gamma", "grid": [0.3], "fixed": {"beta": 1.0}}
        )
        row = evaluate_point(cfg, 0.3)
        H, O = q.build_tfim(q.ModelSpec(3, 0.3, 0.05))
        rep = q.bounds_chain(q.prepared_gibbs(H, O, 1.0), O)
        assert math.isclose(row.report.qfi, rep.qfi, rel_tol=1e-12)

    def test_parallel_matches_serial(self):
        # every sweep runs serially: 1 is the one legal number of workers
        gamma = config_from_dict(
            {**SMALL, "sweep_axis": "gamma", "fixed": {"beta": 1.0}})
        for cfg, workers in ((config_from_dict(SMALL), 2), (config_from_dict(SMALL), 0),
                             (gamma, 0), (gamma, 2), (gamma, -2)):
            with pytest.raises(ConfigError, match="workers"):
                run_sweep(cfg, workers=workers)

    def test_temperature_sweep_equals_pointwise(self, monkeypatch):
        import qfibounds.harness as harness

        cfg = config_from_dict({**SMALL, "grid": [0.2, 0.5, 1.0, 2.0, 8.0]})
        calls = []
        real_eigendecompose = harness.eigendecompose
        monkeypatch.setattr(
            harness, "eigendecompose",
            lambda *a, **k: calls.append(1) or real_eigendecompose(*a, **k),
        )
        rows = run_sweep(cfg)
        assert len(calls) == 1
        assert [r.axis for r in rows] == list(cfg.grid)
        assert [r.report for r in rows] == [
            evaluate_point(cfg, x).report for x in cfg.grid
        ]

    @pytest.mark.parametrize("axis", ["temperature", "gamma"])
    def test_sweep_builds_no_dense_vectors(self, monkeypatch, axis):
        # the chain needs only the symmetry blocks: no eigensystem of the
        # sweep path assembles the dense eigenvector columns
        import qfibounds.harness as harness

        made = []
        real_eigendecompose = harness.eigendecompose
        monkeypatch.setattr(
            harness, "eigendecompose",
            lambda *a, **k: made.append(real_eigendecompose(*a, **k)) or made[-1],
        )
        raw = {**SMALL, "model": {"n_sites": 6, "gamma": 0.4, "theta": 0.0},
               "sweep_axis": axis, "grid": [0.2, 0.5, 0.9]}
        if axis == "gamma":
            raw["fixed"] = {"beta": 2.0}
        rows = run_sweep(config_from_dict(raw))
        assert len(rows) == 3 and len(made) == (1 if axis == "temperature" else 3)
        for eigs in made:
            assert len(eigs.sectors) == 4
            assert "vectors" not in vars(eigs)


class TestEmitReport:
    def _run(self, tmp_path, **extra):
        cfg = config_from_dict({**SMALL, "outputs": str(tmp_path), **extra})
        rows = run_sweep(cfg)
        return cfg, rows, emit_report(rows, cfg)

    def test_csv_shape(self, tmp_path):
        _, rows, paths = self._run(tmp_path)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)
        # ms column empty by default so the CSV is byte-stable
        assert all(line.endswith(",") for line in lines[1:])

    def test_csv_byte_identical_across_runs(self, tmp_path):
        self._run(tmp_path / "a")
        self._run(tmp_path / "b")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_csv_bytes(self, tmp_path):
        # the chunked writer prints what the per-field join did: ten .12g
        # fields and the empty ms column, for -0.0, NaN, +-inf and subnormals
        rng = np.random.default_rng(5)
        cfg = config_from_dict({**SMALL, "outputs": str(tmp_path)})
        values = rng.standard_normal((len(SPECIAL) + 3, 10))
        values[:len(SPECIAL)] = np.array(SPECIAL)[:, None]
        values[-1] = SPECIAL[:10]
        rows = [SweepRow(v[0], q.BoundsReport(*v[1:5], 1.0, *v[5:]), 1.0)
                for v in values.tolist()]
        emit_report(rows, cfg)
        want = [CSV_HEADER] + [",".join([*map(_fmt, v), ""]) for v in values]
        assert (tmp_path / "sweep.csv").read_bytes() == ("\n".join(want) + "\n").encode()
        emit_report([], cfg)
        assert (tmp_path / "sweep.csv").read_bytes() == (CSV_HEADER + "\n").encode()

    def test_json_mirror(self, tmp_path):
        cfg, rows, paths = self._run(tmp_path)
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["tool"] == "qfibounds"
        assert payload["config"] == cfg.echo()
        assert len(payload["rows"]) == len(rows)
        first = payload["rows"][0]
        assert first["axis"] == rows[0].axis
        assert first["qfi"] == rows[0].report.qfi
        assert "ms" in first

    def test_spectrum_csv(self, tmp_path):
        H, O = q.build_tfim(q.ModelSpec(2, 0.5))
        ens = q.prepared_gibbs(H, O, 1.0)
        s = q.autocorrelation_spectrum(ens, O)
        path = tmp_path / "spec.csv"
        spectrum_csv(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,weight"
        assert len(lines) == 1 + len(s)

    def test_spectrum_csv_bytes(self, tmp_path):
        # the chunked writer prints what one _fmt line per row joined did,
        # across a chunk boundary and for -0.0, NaN, +-inf and subnormals
        rng = np.random.default_rng(7)
        n = CSV_CHUNK + 1000
        omegas = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        weights = rng.standard_normal(n)
        for a in (omegas, weights):
            a[rng.integers(0, n, 2000)] = rng.choice(SPECIAL, 2000)
            a[CSV_CHUNK - len(SPECIAL):CSV_CHUNK + len(SPECIAL)] = SPECIAL * 2
        s = LineSpectrum(omegas, weights, "autocorrelation")
        path = tmp_path / "spec.csv"
        spectrum_csv(s, path)
        lines = ["omega,weight"] + [f"{_fmt(o)},{_fmt(w)}" for o, w in s.rows()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        spectrum_csv(LineSpectrum(np.zeros(0), np.zeros(0), "autocorrelation"), path)
        assert path.read_bytes() == b"omega,weight\n"


class TestSelftest:
    def test_all_checks_pass(self):
        checks = selftest()
        failures = [(n, d) for n, ok, d in checks if not ok]
        assert failures == []
        assert len(checks) >= 10


class TestCli:
    def test_locality_profile_bytes(self, tmp_path, capsys):
        # the chunked writer prints what the f-string line per distance did
        assert main(["locality", "--n-sites", "6", "--beta", "1", "--out", str(tmp_path)]) == 0
        H, _ = q.tfim_operators(q.ModelSpec(6, 0.35 * math.pi))
        a_loc = q.pauli_string_matrix(q.PauliString({0: "X"}), 6)
        profile = q.commutator_decay_profile(q.eigendecompose(H), a_loc, q.DressSpec(math.pi))
        lines = ["r,norm"] + [f"{int(r)},{n:.12g}"
                              for r, n in zip(profile.distances, profile.commutator_norms)]
        assert (tmp_path / "locality_profile.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_bounds_exit_zero(self, capsys):
        rc = main(["bounds", "--n-sites", "2", "--gamma", "0.5", "--beta", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lb"] <= out["qfi"] <= out["ub1"] <= out["ub2"] + 1e-12
        assert out["uncertainty"]["defined"]

    def test_sweep_temperature(self, tmp_path, capsys):
        rc = main(
            [
                "sweep-temperature", "--n-sites", "2", "--gamma", "0.5",
                "--start", "0.5", "--stop", "2.0", "--points", "3",
                "--spacing", "linear", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        paths = json.loads(capsys.readouterr().out)
        assert (tmp_path / "sweep.csv").exists()
        assert paths["csv"].endswith("sweep.csv")

    def test_sweep_gamma_with_config(self, tmp_path, capsys):
        import yaml

        cfg = {
            "model": {"n_sites": 2, "gamma": 0.5},
            "sweep_axis": "gamma",
            "grid": [0.3, 0.6],
            "fixed": {"beta": 1.0},
            "outputs": str(tmp_path),
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["sweep-gamma", "--config", str(path)]) == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_out_and_eps_deg_override_config(self, tmp_path, monkeypatch):
        # an explicit --out wins even when it names the default directory
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.yaml"
        path.write_text("model: {n_sites: 2, gamma: 0.5}\nsweep_axis: gamma\n"
                        "grid: [0.3]\nfixed: {beta: 1.0}\noutputs: elsewhere\n")
        assert main(["sweep-gamma", "--config", str(path), "--out", "out",
                     "--eps-deg", "1e-6"]) == 0
        assert not (tmp_path / "elsewhere").exists()
        payload = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert payload["config"]["outputs"] == "out"
        assert payload["config"]["eps_deg"] == 1e-6

    @pytest.mark.parametrize("command, flags", [
        ("sweep-gamma", ["--beta", "7", "--n-sites", "6"]),
        ("sweep-temperature", ["--points", "3", "--spacing", "log"]),
    ])
    def test_flags_the_config_sets_exit_two(self, tmp_path, capsys, command, flags):
        axis = command.removeprefix("sweep-")
        path = tmp_path / "cfg.yaml"
        path.write_text(f"model: {{n_sites: 2, gamma: 0.5}}\nsweep_axis: {axis}\n"
                        f"grid: [0.3]\nfixed: {{beta: 1.0}}\noutputs: {tmp_path}\n")
        assert main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert all(f in err[0] for f in flags[::2]), err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axis, model, grid", [
        pytest.param("gamma", "{n_sites: 2, gamma: 0.5}", "[0.1, .inf]", id="gamma-inf"),
        pytest.param("temperature", "{n_sites: 2, gamma: 0.5}", "[.nan]",
                     id="temperature-nan"),
        pytest.param("temperature", "{n_sites: 2, gamma: 0.5}", "[1.0, .inf]",
                     id="temperature-inf"),
        pytest.param("temperature", "{n_sites: 3.7, gamma: 0.5}", "[1.0]",
                     id="n-sites-fraction"),
        pytest.param("temperature", "{n_sites: true, gamma: 0.5}", "[1.0]",
                     id="n-sites-bool"),
        pytest.param("temperature", "{n_sites: 2, gamma: 0.5}",
                     "{start: 0.5, stop: 2.0, points: 2.9}", id="points-fraction"),
    ])
    def test_bad_sweep_config_exit_two(self, tmp_path, capsys, axis, model, grid):
        # refused up front: no traceback, and no value silently truncated
        path = tmp_path / "cfg.yaml"
        path.write_text(f"model: {model}\nsweep_axis: {axis}\ngrid: {grid}\n"
                        f"fixed: {{beta: 1.0}}\noutputs: {tmp_path}\n")
        assert main([f"sweep-{axis}", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not (tmp_path / "sweep.csv").exists()

    def test_config_error_exit_two(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("model: {n_sites: 2, gamma: 0.5}\nsweep_axis: pressure\ngrid: [1.0]\n")
        assert main(["sweep-temperature", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "argv, config",
        [
            pytest.param(["bounds", "--beta", "-1"], None, id="beta-negative"),
            pytest.param(["bounds", "--n-sites", "20", "--beta", "1"], None,
                         id="n-sites-over-cap"),
            pytest.param(["sweep-gamma"], "fixed: {beta: 1.0}\neps_deg: 0",
                         id="config-eps-deg-zero"),
            pytest.param(["sweep-gamma"], "fixed: {beta: 1.0}\neps_deg: -1.0e-8",
                         id="config-eps-deg-negative"),
            pytest.param(["sweep-gamma"], "fixed: {beta: 1.0}\neps_deg: tiny",
                         id="config-eps-deg-not-a-number"),
            pytest.param(["sweep-gamma"], "fixed: {beta: -1}",
                         id="config-fixed-beta-negative"),
            pytest.param(["sld-check", "--n-sites", "2", "--beta", "1",
                          "--fd-delta", "1", "--panels", "16"], None,
                         id="sld-check-fd-delta-out-of-range"),
            pytest.param(["locality", "--n-sites", "4"], None,
                         id="locality-chain-too-short"),
            pytest.param(["locality", "--n-sites", "6", "--gamma", "1.2", "--mu", "inf"],
                         None, id="locality-mu-inf"),
            pytest.param(["locality", "--n-sites", "6", "--gamma", "1.2", "--mu", "1e-300"],
                         None, id="locality-mu-filter-overflow"),
            pytest.param(["locality", "--n-sites", "6", "--gamma", "1.2", "--beta", "1e300"],
                         None, id="locality-beta-filter-overflow"),
            pytest.param(["locality", "--n-sites", "6", "--gamma", "1.2", "--mu", "1e6"],
                         None, id="locality-mu-flat-profile"),
            pytest.param(["locality", "--n-sites", "6", "--gamma", "1.2", "--mu", "1e200"],
                         None, id="locality-mu-square-overflow"),
            # beta above 1e75 overflowed in the bounds chain (ub1^2 at N = 6,
            # gamma = 0.05, beta = 1e80; the kernel moments' beta^2 at 1e200)
            pytest.param(["bounds", "--n-sites", "6", "--gamma", "0.05", "--beta", "1e80"],
                         None, id="beta-over-cap-chain"),
            pytest.param(["bounds", "--beta", "1e200"], None, id="beta-over-cap-moments"),
            pytest.param(["sweep-gamma", "--n-sites", "2", "--beta", "1e200"], None,
                         id="sweep-gamma-beta-over-cap"),
            pytest.param(["sweep-temperature", "--n-sites", "2", "--start", "1e-200",
                          "--stop", "1", "--points", "3"], None,
                         id="temperature-grid-under-cap"),
            pytest.param(["sweep-gamma"], "fixed: {beta: 1.0e+200}",
                         id="config-fixed-beta-over-cap"),
            pytest.param(["sweep-gamma"], "fixed: {temperature: 1.0e-80}",
                         id="config-fixed-temperature-under-cap"),
            # YAML reads yes and true as booleans, which are not numbers
            pytest.param(["sweep-gamma"], "fixed: {beta: yes}", id="config-fixed-beta-bool"),
            pytest.param(["sweep-gamma"], "fixed: {beta: 1.0}\neps_deg: true",
                         id="config-eps-deg-bool"),
        ],
    )
    def test_bad_input_exit_two(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "cfg.yaml"
            path.write_text(
                "model: {n_sites: 2, gamma: 0.5}\nsweep_axis: gamma\n"
                f"grid: [0.3]\noutputs: {tmp_path}\n{config}\n"
            )
            argv = argv + ["--config", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print before the error
            assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        # the CLI refuses n_sites < 6 up front, so a decay fit that fails is
        # never the chain length's fault
        assert "chain too short" not in err[0]

    def test_beta_at_cap_runs(self, capsys):
        assert main(["bounds", "--n-sites", "6", "--gamma", "0.05", "--beta", "1e75"]) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["ub1"])

    @pytest.mark.parametrize("argv", [
        ["bounds", "--beta", "1", "--out", "x"],
        ["sld-check", "--beta", "1", "--out", "x"],
        ["selftest", "--out", "x"],
        ["selftest", "--eps-deg", "1"],
        ["locality", "--eps-deg", "1"],
        ["sweep-gamma", "--workers", "2"],
    ], ids=["bounds-out", "sld-check-out", "selftest-out", "selftest-eps-deg",
            "locality-eps-deg", "sweep-gamma-workers"])
    def test_flag_the_command_does_not_read_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sld_check_default_panels_n8(self, tmp_path, capsys):
        # 2048 panels (16384 nodes): a d^2 x nodes cosine table would be 8 GiB here
        assert main(["sld-check", "--n-sites", "8", "--beta", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["time_domain_rel_deviation"] < 1e-5

    def test_axis_mismatch_exit_two(self, tmp_path):
        import yaml

        cfg = {
            "model": {"n_sites": 2, "gamma": 0.5},
            "sweep_axis": "gamma",
            "grid": [0.3],
            "fixed": {"beta": 1.0},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["sweep-temperature", "--config", str(path)]) == 2

    def test_spectrum_command(self, tmp_path, capsys):
        rc = main(
            [
                "spectrum", "--n-sites", "2", "--gamma", "0.5", "--beta", "1.0",
                "--kind", "dissipation", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "spectrum_dissipation.csv").exists()

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
