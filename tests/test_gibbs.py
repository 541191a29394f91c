import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.fluctuation import _aggregate
from qfibounds.gibbs import (
    _check_rotated,
    _classical,
    _pair_table,
    _real_or_raise,
    _tanh_over_omega,
    gibbs_ensemble,
)
from qfibounds.qfi import _chain_report
from qfibounds.spectral import (
    cluster_degeneracies,
    eigendecompose,
    rotate_within_clusters,
)

from conftest import random_instance, rel_close


class TestGibbsEnsemble:
    def test_populations_normalized_and_sorted(self):
        _, _, ens = random_instance(8, 2.0, 0)
        assert rel_close(float(ens.populations.sum()), 1.0)
        # energies ascend, so populations descend
        assert np.all(np.diff(ens.populations) <= 1e-15)

    def test_beta_zero_uniform(self):
        _, _, ens = random_instance(8, 0.0, 1)
        assert np.allclose(ens.populations, 1 / 8)

    def test_log_z_single_qubit(self):
        # H = sigma^z: Z = 2 cosh(beta)
        H, O = q.single_qubit_model(0.0)
        ens = q.prepared_gibbs(H, O, 1.7)
        assert rel_close(ens.log_z, math.log(2 * math.cosh(1.7)))

    def test_large_beta_no_overflow(self):
        _, _, ens = random_instance(8, 1e4, 2)
        assert np.all(np.isfinite(ens.populations))
        assert rel_close(float(ens.populations.sum()), 1.0)

    def test_negative_beta_rejected(self):
        H, O = q.single_qubit_model(0.0)
        with pytest.raises(ValueError):
            q.prepared_gibbs(H, O, -1.0)

    def test_density_matrix_trace_and_psd(self):
        _, _, ens = random_instance(8, 1.0, 3)
        rho = ens.density_matrix()
        assert rel_close(float(np.trace(rho).real), 1.0)
        assert np.linalg.eigvalsh(rho)[0] > -1e-14


class TestThermalAverage:
    def test_single_qubit_magnetization(self, single_qubit_beta1):
        O, ens = single_qubit_beta1
        # <sigma^z> = -tanh(beta) for H = sigma^z
        H = np.diag([1.0, -1.0]).astype(complex)
        assert rel_close(q.thermal_average(ens, H), -math.tanh(1.0))
        assert abs(q.thermal_average(ens, O)) < 1e-14

    def test_identity_averages_to_one(self, tfim3):
        _, _, ens = tfim3
        assert rel_close(q.thermal_average(ens, np.eye(8)), 1.0)

    def test_variance_matches_definition(self, tfim3):
        _, O, ens = tfim3
        rho = ens.density_matrix()
        mean = float(np.trace(rho @ O).real)
        var = float(np.trace(rho @ O @ O).real) - mean**2
        assert rel_close(q.variance(ens, O), var)

    @given(seed=st.integers(0, 3000), beta=st.sampled_from([0.1, 1.0, 10.0]))
    @settings(max_examples=25, deadline=None)
    def test_variance_nonnegative(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        assert q.variance(ens, O) >= -1e-12


class TestDistinctClusterPairs:
    def test_pair_count_no_degeneracies(self, tfim3):
        _, O, ens = tfim3
        total = int(_pair_table(ens.eigs, O).distinct().sum())
        n_in_cluster = sum((b - a) ** 2 for a, b in ens.eigs.clusters)
        assert total == ens.dim**2 - n_in_cluster


class TestNearDegenerate:
    EPS = 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_clusters_split_at_eps_deg(self, seed):
        # gaps just below and just above eps_deg: only the first pair joins
        eps = self.EPS
        e = np.array([0.0, eps * (1 - 1e-3), 1.0, 1.0 + eps * (1 + 1e-3), 2.0, 3.0])
        rng = np.random.default_rng(seed)
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        H = (v * e) @ v.T
        g = rng.standard_normal((6, 6))
        O = g + g.T
        eigs = eigendecompose(H, eps)
        joined = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6))
        assert cluster_degeneracies(eigs.energies, eps) == eigs.clusters == joined
        with pytest.raises(ValueError, match="rotate_within_clusters"):
            _pair_table(eigs, O)
        table = _pair_table(rotate_within_clusters(eigs, O), O)
        assert table.distinct().sum() == 6**2 - (2**2 + 4)  # minus within-cluster pairs


def _reference_kernel(kind, omega, beta):
    """The kernels written out pair by pair, with the limit beta^2 / 4 wherever
    |beta omega| <= 1e-6."""
    out = np.full_like(omega, beta**2 / 4.0)
    if kind == "var":
        return out
    nz = np.abs(beta * omega) > 1e-6
    w = omega[nz]
    if kind == "qfi":
        out[nz] = np.tanh(beta * w / 2.0) ** 2 / w**2
    else:
        out[nz] = np.tanh(beta * w / 2.0) * beta / (2.0 * w)
    return out


def _reference_pair_sums(eigs, O, p, beta):
    """Flat ordered-pair reference: F, beta chi and Var as kernel sums of
    (p_m + p_n)|O_mn|^2 over the distinct-cluster pairs np.nonzero lists in
    row-major order, and both spectra's unaggregated lines in that order."""
    Oe = eigs.vectors.conj().T @ O @ eigs.vectors
    cid = eigs.cluster_ids()
    m, n = np.nonzero(cid[:, None] != cid[None, :])
    dE = eigs.energies[m] - eigs.energies[n]
    o2 = np.abs(Oe[m, n]) ** 2
    diag = Oe.diagonal().real.copy()
    classical = float(np.dot(p, (diag - float(np.dot(p, diag))) ** 2))
    w = (p[m] + p[n]) * o2

    def moment(kind, b):
        return b**2 * classical + 2.0 * float(np.dot(_reference_kernel(kind, dE, b), w))

    sums = (moment("qfi", beta), moment("chi", beta), moment("var", 1.0))
    auto = (np.concatenate([-dE, [0.0]]),
            np.concatenate([math.pi * w, [2.0 * math.pi * classical]]))
    diss = (-dE, math.pi * (p[m] - p[n]) * o2)
    return sums, auto, diss


class TestDensePairTable:
    """The dense |O_mn|^2 table against the flat ordered-pair sums."""

    CASES = {
        "tfim6_theta0.1": lambda: q.build_tfim(q.ModelSpec(6, 0.9, 0.1)),
        "tfim6_doublets": lambda: q.build_tfim(q.ModelSpec(6, 0.05)),
        "complex_d64": lambda: (q.random_hermitian(64, 7), q.random_hermitian(64, 8)),
    }

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 1.0, 20.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_flat_pair_reference(self, case, beta):
        H, O = self.CASES[case]()
        eigs = q.prepared_gibbs(H, O, beta).eigs
        ens = gibbs_ensemble(eigs, beta)
        (f, beta_chi, var), auto, diss = _reference_pair_sums(
            eigs, O, ens.populations, beta)

        def close(a, b):
            return math.isclose(a, b, rel_tol=1e-13, abs_tol=0.0)

        rep = _chain_report(_pair_table(eigs, O), ens)
        assert close(rep.qfi, f) and close(rep.ub1, beta_chi)
        assert close(rep.ub2, beta**2 * var)
        assert close(q.qfi_spectral(ens, O), f)
        assert close(q.susceptibility(ens, O), beta_chi / beta if beta else 0.0)
        assert close(q.variance(ens, O), var)
        for got, (omegas, weights), kind in (
            (q.autocorrelation_spectrum(ens, O), auto, "autocorrelation"),
            (q.dissipation_spectrum(ens, O), diss, "dissipation"),
        ):
            want = _aggregate(omegas, weights, kind)
            assert np.array_equal(got.omegas, want.omegas)
            assert np.array_equal(got.weights, want.weights)

    def test_doublet_case_has_clusters(self):
        H, O = self.CASES["tfim6_doublets"]()
        eigs = q.prepared_gibbs(H, O, 1.0).eigs
        assert any(b - a > 1 for a, b in eigs.clusters)


class TestRowBlockedKernel:
    """``_PairTable.moments`` over TILE-row blocks against the kernel pass
    over the whole d x d table: the same per-row sums, so the same bits."""

    CASES = {
        "tfim8_theta0.1": lambda: q.build_tfim(q.ModelSpec(8, 0.9, 0.1)),  # 2 blocks
        "complex_d300": lambda: (q.random_hermitian(300, 5), q.random_hermitian(300, 6)),
    }

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 1.0, 20.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_whole_table_pass(self, case, beta):
        H, O = self.CASES[case]()
        ens = q.prepared_gibbs(H, O, beta)
        table = _pair_table(ens.eigs, O)
        p = ens.populations
        c = _classical(p, table.diag)
        x = _tanh_over_omega(table.gaps(), beta)
        ox = table.o2 * x
        want = (beta**2 * c + 4.0 * float(p @ np.einsum("mn,mn->m", ox, x)),
                beta**2 * c + 2.0 * beta * float(p @ ox.sum(axis=1)),
                c + float(p @ table.o2.sum(axis=1)))
        assert table.moments(p, beta) == want


class TestNanGates:
    def test_real_or_raise_rejects_nan_imaginary_part(self):
        with pytest.raises(ValueError):
            _real_or_raise(complex(1.0, math.nan), 1.0, "x")

    def test_check_rotated_rejects_nan_in_cluster(self):
        eigs = eigendecompose(np.diag([0.0, 0.0, 1.0]), 1e-8)
        assert eigs.clusters == ((0, 2), (2, 3))
        Oe = np.zeros((3, 3))
        Oe[0, 1] = Oe[1, 0] = math.nan
        with pytest.raises(ValueError, match="rotate_within_clusters"):
            _check_rotated(eigs, Oe)


class TestSusceptibility:
    def test_single_qubit_closed_form(self, single_qubit_beta1):
        # chi = tanh(beta) for H = sigma^z, O = sigma^x at beta = 1
        O, ens = single_qubit_beta1
        assert rel_close(q.susceptibility(ens, O), math.tanh(1.0))

    def test_matches_finite_difference(self):
        model = q.ModelSpec(3, 0.4, 0.05)
        H, O = q.build_tfim(model)
        ens = q.prepared_gibbs(H, O, 1.5)
        chi = q.susceptibility(ens, O)
        fd = q.susceptibility_fd(model, 1.5, 1e-4)
        assert rel_close(chi, fd, rel=1e-6, abs_=1e-8)

    def test_fd_step_scaling(self):
        # central difference is O(delta^2)-biased: quartering delta should
        # shrink the defect by ~16x (allow 4x slack for roundoff)
        model = q.ModelSpec(2, 0.7, 0.1)
        H, O = q.build_tfim(model)
        chi = q.susceptibility(q.prepared_gibbs(H, O, 2.0), O)
        e1 = abs(q.susceptibility_fd(model, 2.0, 4e-3) - chi)
        e2 = abs(q.susceptibility_fd(model, 2.0, 1e-3) - chi)
        assert e2 < e1 / 4.0

    def test_fd_delta_validation(self):
        with pytest.raises(ValueError):
            q.susceptibility_fd(q.ModelSpec(2, 0.3), 1.0, 1.0)

    @given(seed=st.integers(0, 3000), beta=st.sampled_from([0.1, 1.0, 5.0]))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_at_equilibrium(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        assert q.susceptibility(ens, O) >= -1e-12

    def test_beta_zero_vanishes(self):
        _, O, ens = random_instance(8, 0.0, 9)
        assert abs(q.susceptibility(ens, O)) < 1e-12
