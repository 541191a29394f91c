import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.spectral import (
    cluster_degeneracies,
    eigendecompose,
    from_eigenbasis,
    resolve_eps_deg,
    rotate_within_clusters,
    to_eigenbasis,
)

from conftest import rel_close


class TestClusterDegeneracies:
    def test_distinct_energies(self):
        c = cluster_degeneracies(np.array([0.0, 1.0, 2.0]), 1e-6)
        assert c == ((0, 1), (1, 2), (2, 3))

    def test_greedy_chaining(self):
        # pairwise gaps all below eps even though the ends are far apart
        e = np.array([0.0, 0.5e-6, 1.0e-6, 1.5e-6, 1.0])
        c = cluster_degeneracies(e, 0.6e-6)
        assert c == ((0, 4), (4, 5))

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            cluster_degeneracies(np.array([1.0, 0.0]), 1e-6)

    def test_default_policy_scales_with_range(self):
        assert resolve_eps_deg(np.array([0.0, 0.5]), None) == 1e-8
        assert rel_close(resolve_eps_deg(np.array([0.0, 100.0]), None), 1e-6)

    def test_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_eps_deg(np.zeros(2), 0.0)


class TestEigendecompose:
    def test_reconstruction(self):
        H = q.random_hermitian(16, 5)
        eigs = eigendecompose(H)
        v = eigs.vectors
        recon = (v * eigs.energies) @ v.conj().T
        spread = eigs.energies[-1] - eigs.energies[0]
        assert np.max(np.abs(recon - H)) < 1e-9 * spread

    def test_cluster_ids_cover_all_indices(self):
        H, _ = q.build_tfim(q.ModelSpec(4, 0.25))
        eigs = eigendecompose(H)
        ids = eigs.cluster_ids()
        assert len(ids) == 16
        assert np.all(np.diff(ids) >= 0)

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_random(self, seed, dim):
        H = q.random_hermitian(dim, seed)
        eigs = eigendecompose(H)
        v = eigs.vectors
        recon = (v * eigs.energies) @ v.conj().T
        spread = max(float(eigs.energies[-1] - eigs.energies[0]), 1e-12)
        assert np.max(np.abs(recon - H)) < 1e-9 * max(1.0, spread)


def _degenerate_pair():
    """H with an exact 2-fold degeneracy whose subspace O does not respect."""
    H = np.diag([0.0, 0.0, 3.0]).astype(complex)
    O = np.array(
        [[1.0, 0.7, 0.1], [0.7, -0.4, 0.2], [0.1, 0.2, 0.5]], dtype=complex
    )
    return H, O


class TestRotateWithinClusters:
    def test_off_diagonals_vanish(self):
        H, O = _degenerate_pair()
        eigs = rotate_within_clusters(eigendecompose(H), O)
        Oe = to_eigenbasis(eigs, O)
        assert abs(Oe[0, 1]) < 1e-12
        assert abs(Oe[1, 0]) < 1e-12

    def test_energies_and_clusters_unchanged(self):
        H, O = _degenerate_pair()
        before = eigendecompose(H)
        after = rotate_within_clusters(before, O)
        assert np.array_equal(before.energies, after.energies)
        assert before.clusters == after.clusters

    def test_still_an_eigenbasis(self):
        H, O = _degenerate_pair()
        eigs = rotate_within_clusters(eigendecompose(H), O)
        He = to_eigenbasis(eigs, H)
        assert np.max(np.abs(He - np.diag(eigs.energies))) < 1e-12

    def test_no_clusters_is_identity(self):
        H = q.random_hermitian(4, 11)
        eigs = eigendecompose(H)
        assert rotate_within_clusters(eigs, q.random_hermitian(4, 12)) is eigs

    @given(angle=st.floats(0.05, 1.5))
    @settings(max_examples=20, deadline=None)
    def test_downstream_scalars_invariant_to_remixing(self, angle):
        # an arbitrary unitary remix inside the degenerate cluster before the
        # canonical rotation must not move any downstream scalar
        H, O = _degenerate_pair()
        beta = 1.3
        base = q.prepared_gibbs(H, O, beta)
        ref = q.qfi_spectral(base, O), q.susceptibility(base, O), q.variance(base, O)

        eigs = eigendecompose(H)
        c, s = np.cos(angle), np.sin(angle)
        v = eigs.vectors.copy()
        v[:, 0:2] = v[:, 0:2] @ np.array([[c, -s], [s, c]])
        remixed = type(eigs)(
            energies=eigs.energies, vectors=v, clusters=eigs.clusters,
            eps_deg=eigs.eps_deg,
        )
        ens = q.gibbs_ensemble(rotate_within_clusters(remixed, O), beta)
        got = q.qfi_spectral(ens, O), q.susceptibility(ens, O), q.variance(ens, O)
        for a, b in zip(ref, got):
            assert rel_close(a, b, rel=1e-8)


class TestBasisTransforms:
    def test_round_trip(self):
        H = q.random_hermitian(8, 21)
        A = q.random_hermitian(8, 22)
        eigs = eigendecompose(H)
        back = from_eigenbasis(eigs, to_eigenbasis(eigs, A))
        assert np.max(np.abs(back - A)) < 1e-12

    def test_dimension_mismatch(self):
        eigs = eigendecompose(q.random_hermitian(4, 1))
        with pytest.raises(ValueError):
            to_eigenbasis(eigs, np.eye(8))
