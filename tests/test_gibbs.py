import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.gibbs import _distinct_pairs, _pair_table
from qfibounds.spectral import (
    cluster_degeneracies,
    eigendecompose,
    rotate_within_clusters,
    to_eigenbasis,
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
        Oe = to_eigenbasis(ens.eigs, O)
        total = sum(len(c[0]) for c in _distinct_pairs(ens.eigs, Oe))
        n_in_cluster = sum((b - a) ** 2 for a, b in ens.eigs.clusters)
        assert total == ens.dim**2 - n_in_cluster

    def test_chunking_invariant(self, tfim3):
        _, O, ens = tfim3
        Oe = to_eigenbasis(ens.eigs, O)
        full = zip(*_distinct_pairs(ens.eigs, Oe))
        small = zip(*_distinct_pairs(ens.eigs, Oe, chunk=3))
        for a, b in zip(full, small, strict=True):  # dE, |O_mn|^2, m, n
            assert np.array_equal(np.concatenate(a), np.concatenate(b))


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
        assert len(table.dE) == 6**2 - (2**2 + 4)  # minus within-cluster pairs


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
