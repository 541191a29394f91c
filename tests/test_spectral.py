import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.gibbs import gibbs_ensemble, thermal_average
from qfibounds.operators import FlipOperator, PauliString, pauli_string_matrix
from qfibounds.spectral import (
    _z2_symmetries,
    cluster_degeneracies,
    dense_eigensystem,
    eigenbasis_blocks,
    eigendecompose,
    from_eigenbasis,
    resolve_eps_deg,
    rotate_within_clusters,
    to_eigenbasis,
)

from conftest import assert_same_results, free_fermion_energies, pipeline_results, rel_close


class TestClusterDegeneracies:
    def test_distinct_energies(self):
        c = cluster_degeneracies(np.array([0.0, 1.0, 2.0]), 1e-6)
        assert c == ((0, 1), (1, 2), (2, 3))

    def test_greedy_chaining(self):
        # pairwise gaps all below eps even though the ends are far apart
        e = np.array([0.0, 0.5e-6, 1.0e-6, 1.5e-6, 1.0])
        c = cluster_degeneracies(e, 0.6e-6)
        assert c == ((0, 4), (4, 5))

    @given(seed=st.integers(0, 10_000), size=st.integers(0, 60))
    @settings(max_examples=50, deadline=None)
    def test_matches_loop(self, seed, size):
        # sorted energies on a 1/16 grid, so that ties and gaps of exactly
        # eps are exact in binary: a gap equal to eps joins
        rng = np.random.default_rng(seed)
        eps = 1.0 / 16
        e = -1.0 + np.cumsum(rng.choice([0.0, eps, eps, 2 * eps, 0.5], size))
        got = cluster_degeneracies(e, eps)
        assert got == _loop_clusters(e, eps)
        assert all(type(x) is int for c in got for x in c)

    def test_nan_gaps_join(self):
        e = np.array([0.0, 1.0, np.nan, 2.0, 3.0])
        assert cluster_degeneracies(e, 0.5) == _loop_clusters(e, 0.5) == ((0, 1), (1, 4), (4, 5))

    def test_descending_rejected(self):
        with pytest.raises(ValueError):
            cluster_degeneracies(np.array([1.0, 0.0]), 1e-6)

    def test_default_policy_scales_with_range(self):
        assert resolve_eps_deg(np.array([0.0, 0.5]), None) == 1e-8
        assert rel_close(resolve_eps_deg(np.array([0.0, 100.0]), None), 1e-6)

    def test_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_eps_deg(np.zeros(2), 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_policy_rejects_non_finite(self, eps):
        # either would chain every state into one cluster (F = 4.0 for 6.111
        # at N=4, gamma=0.9, theta=0.1, beta=1)
        with pytest.raises(ValueError, match="finite and positive"):
            resolve_eps_deg(np.zeros(2), eps)
        H, _ = q.tfim_operators(q.ModelSpec(4, 0.9, 0.1))
        with pytest.raises(ValueError, match="finite and positive"):
            eigendecompose(H, eps)


class TestEigendecompose:
    def test_reconstruction(self):
        H = q.random_hermitian(16, 5)
        eigs = eigendecompose(H)
        v = eigs.vectors
        recon = (v * eigs.energies) @ v.conj().T
        spread = eigs.energies[-1] - eigs.energies[0]
        assert np.max(np.abs(recon - H)) < 1e-9 * spread

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 4, 8]))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_random(self, seed, dim):
        H = q.random_hermitian(dim, seed)
        eigs = eigendecompose(H)
        v = eigs.vectors
        recon = (v * eigs.energies) @ v.conj().T
        spread = max(float(eigs.energies[-1] - eigs.energies[0]), 1e-12)
        assert np.max(np.abs(recon - H)) < 1e-9 * max(1.0, spread)


def _loop_clusters(energies, eps):
    """The per-state loop ``cluster_degeneracies`` replaced, as reference."""
    clusters, start = [], 0
    for i in range(1, len(energies)):
        if energies[i] - energies[i - 1] > eps:
            clusters.append((start, i))
            start = i
    if len(energies) > 0:
        clusters.append((start, len(energies)))
    return tuple(clusters)


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
        remixed = dense_eigensystem(eigs.energies, v, eigs.clusters, eigs.eps_deg)
        ens = q.gibbs_ensemble(rotate_within_clusters(remixed, O), beta)
        got = q.qfi_spectral(ens, O), q.susceptibility(ens, O), q.variance(ens, O)
        for a, b in zip(ref, got):
            assert rel_close(a, b, rel=1e-8)


class TestBasisTransforms:
    def test_round_trip(self):
        H = q.random_hermitian(8, 21)
        A = q.random_hermitian(8, 22)
        eigs = eigendecompose(H)
        back = from_eigenbasis(eigs, eigenbasis_blocks(eigs, A))
        assert np.max(np.abs(back - A)) < 1e-12

    @pytest.mark.parametrize("operator", ["O", "x0", "z0", "random"])
    @pytest.mark.parametrize("n, gamma, theta", [
        (6, 0.9, 0.0), (7, 0.9, 0.1), (8, 0.05, 0.0), (10, 0.3, 0.0), (10, 0.3, 0.1),
    ])
    def test_round_trip_sectors(self, n, gamma, theta, operator):
        # the same on the TFIM's symmetry sectors, whatever pairs the operator
        # links; gamma = 0.05 has doublets straddling the P sectors
        H, O = q.tfim_operators(q.ModelSpec(n, gamma, theta))
        A = {"O": O.dense(), "random": q.random_hermitian(1 << n, 22),
             "x0": pauli_string_matrix(PauliString({0: "X"}), n),
             "z0": pauli_string_matrix(PauliString({0: "Z"}), n)}[operator]
        eigs = eigendecompose(H)
        assert len(eigs.sectors) > 1
        back = from_eigenbasis(eigs, eigenbasis_blocks(eigs, A))
        assert np.max(np.abs(back - A)) <= 1e-12 * np.max(np.abs(A))

    def test_eigendecompose_reads_matrix_in_place(self):
        # a matrix that is not bit terms is one sector, handed to eigh as it
        # is: no copy of it beside the eigenvectors (16 MB at d = 1024), and
        # the caller's matrix is left as it was
        A = q.random_hermitian(1024, 4)
        before = A.copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eigs = eigendecompose(A)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(eigs.sectors) == 1
        assert peak <= 20 * 2**20
        assert np.array_equal(A, before)

    def test_dimension_mismatch(self):
        eigs = eigendecompose(q.random_hermitian(4, 1))
        with pytest.raises(ValueError):
            to_eigenbasis(eigs, np.eye(8))

    def test_bad_operator_raises_at_the_call(self):
        # validated before a block is formed: the generator is never read
        eigs = eigendecompose(q.random_hermitian(4, 1))
        skewed = q.random_hermitian(4, 2)
        skewed[0, 1] += 1.0
        for bad in (skewed, np.eye(8)):
            with pytest.raises(ValueError):
                eigenbasis_blocks(eigs, bad)


def _real_symmetric(d, seed):
    g = np.random.default_rng(seed).standard_normal((d, d))
    return g + g.T


class TestExactlyHermitianBlocks:
    """Every a = b eigenbasis block equals its conjugate transpose exactly,
    with a zero imaginary diagonal; W^H A W alone leaves the two triangles
    apart by roundoff.  Each case has a block wider than one TILE (128)."""

    CASES = {
        "tfim9-theta0.1-terms": lambda: q.tfim_operators(q.ModelSpec(9, 0.9, 0.1)),
        "tfim9-theta0.1-dense": lambda: q.build_tfim(q.ModelSpec(9, 0.9, 0.1)),
        "random-complex": lambda: (q.random_hermitian(300, 3), q.random_hermitian(300, 4)),
        "tfim8-theta0.1-real-not-terms": lambda: (
            q.tfim_operators(q.ModelSpec(8, 0.9, 0.1))[0], _real_symmetric(256, 5)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_equals_b_blocks(self, case):
        H, A = self.CASES[case]()
        blocks = [x for a, b, x in eigenbasis_blocks(eigendecompose(H), A) if a is b]
        assert blocks and max(len(x) for x in blocks) > 128
        for x in blocks:
            assert np.array_equal(x, x.conj().T)
            assert np.all(x.diagonal().imag == 0.0)


def _dense_eigensystem(H):
    """The dense reference: one ``np.linalg.eigh`` of H, clustered at the
    default tolerance."""
    e, v = np.linalg.eigh(H)
    eps = resolve_eps_deg(e, None)
    return dense_eigensystem(e, v, cluster_degeneracies(e, eps), eps)


def _results(eigs, O, beta):
    return pipeline_results(gibbs_ensemble(eigs, beta), O)


def _assert_matches_dense(H, O, beta):
    """Energies, eigenvectors and the pipeline's chain, spectra and SLD of
    ``eigendecompose`` (of H, a matrix or bit terms) against the dense
    reference, line by line."""
    eigs = eigendecompose(H)
    if isinstance(H, FlipOperator):
        H = H.dense()
    ref = _dense_eigensystem(H)
    scale = max(1.0, float(ref.energies[-1] - ref.energies[0]))
    assert np.max(np.abs(eigs.energies - ref.energies)) <= 1e-12 * scale
    assert eigs.clusters == ref.clusters
    v = eigs.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(v)))) <= 1e-12
    assert np.max(np.abs(H @ v - v * eigs.energies)) <= 1e-12 * scale
    assert_same_results(_results(eigs, O, beta), _results(ref, O, beta))


def _one_ulp_off(H, i, j):
    """H with the symmetric pair H[i, j], H[j, i] moved up by one ulp."""
    H = H.copy()
    H[i, j] = H[j, i] = np.nextafter(H[i, j], np.inf)
    return H


class TestSectorEigendecompose:
    """The symmetry-sector path against one dense ``eigh``: P + R at
    theta = 0, R alone at theta != 0; odd N has R-fixed middle sites."""

    @pytest.mark.parametrize("theta", [0.0, 0.1])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_dense_eigh(self, n, theta):
        spec = q.ModelSpec(n, 0.9, theta)
        H, O = q.build_tfim(spec)
        groups, rev = _z2_symmetries(q.tfim_operators(spec)[0], spec.dim)
        if n == 1:
            assert len(groups) == 1 and rev is None
        else:
            assert len(groups) == (2 if theta == 0.0 else 1) and rev is not None
        _assert_matches_dense(H, O, 1.5)

    @pytest.mark.parametrize(
        "n, theta, sizes",
        [
            (10, 0.0, [272, 240, 256, 256]),
            (10, 0.1, [528, 496]),
            # 2^3 palindromes: (32 + 8) / 2 R-even, (32 - 8) / 2 R-odd
            (5, 0.1, [20, 12]),
            (5, 0.0, [10, 6, 10, 6]),
        ],
    )
    def test_block_sizes(self, n, theta, sizes):
        H, _ = q.build_tfim(q.ModelSpec(n, 0.9, theta))
        sectors = eigendecompose(H).sectors
        assert [len(s.basis.rows) for s in sectors] == sizes
        assert [len(s.vectors) for s in sectors] == sizes

    def test_parity_only_after_reflection_broken(self):
        # theta = 0 keeps P; moving the coefficient of mask 3 (the XX bond at
        # the last two sites) by one ulp breaks R, since its mirror mask 48
        # stays
        H, O = q.tfim_operators(q.ModelSpec(6, 0.9, 0.0))
        H = FlipOperator(H.diagonal, tuple(
            (m, np.nextafter(c, np.inf) if m == 3 else c) for m, c in H.flips))
        groups, rev = _z2_symmetries(H, 64)
        assert len(groups) == 2 and rev is None
        _assert_matches_dense(H, O.dense(), 1.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: q.random_hermitian(16, 3),
            lambda: q.random_hermitian(6, 4),
            # the field on the last site, whose mirror H[0, 32] stays
            lambda: _one_ulp_off(q.build_tfim(q.ModelSpec(6, 0.9, 0.1))[0], 0, 1),
            # one entry of the XX bond at the last two sites: not bit terms,
            # though the bond's mirror keeps P
            lambda: _one_ulp_off(q.build_tfim(q.ModelSpec(6, 0.9, 0.0))[0], 0, 3),
        ],
        ids=["random_hermitian", "dim6", "tfim_one_ulp", "tfim_one_ulp_bond"],
    )
    def test_dense_fallback(self, make):
        # a dense matrix that is not bit terms has no symmetry: one dense
        # sector, the one dense eigh
        H = make()
        assert FlipOperator.from_dense(H) is None
        eigs = eigendecompose(H)
        groups, rev = eigs.symmetries
        assert len(groups) == 1 and rev is None
        e, v = np.linalg.eigh(H)
        (sector,) = eigs.sectors
        assert np.array_equal(sector.basis.rows, np.arange(len(H)))
        assert np.array_equal(sector.columns, np.arange(len(H)))
        assert np.array_equal(sector.vectors, v)
        assert np.array_equal(eigs.energies, e) and np.array_equal(eigs.vectors, v)

    @pytest.mark.parametrize("n", [6, 7])
    def test_doublets_straddle_parity_sectors(self, n):
        # gamma = 0.05: each ferromagnetic doublet pairs an even- and an
        # odd-parity state inside eps_deg; O = sum X flips parity, so the
        # rotation mixes them
        spec = q.ModelSpec(n, 0.05)
        H, O = q.build_tfim(spec)
        (even, odd), _ = _z2_symmetries(q.tfim_operators(spec)[0], spec.dim)
        eigs = eigendecompose(H)

        def odd_weight(vectors, a, b):
            return np.sum(np.abs(vectors[odd, a:b]) ** 2, axis=0)

        doublets = [(a, b) for a, b in eigs.clusters if b - a > 1]
        assert doublets and all(b - a == 2 for a, b in doublets)
        rotated = rotate_within_clusters(eigs, O)
        for a, b in doublets:
            # one column in each sector before, both spread evenly after
            assert np.allclose(np.sort(odd_weight(eigs.vectors, a, b)), [0.0, 1.0],
                               rtol=0.0, atol=1e-12)
            assert np.allclose(odd_weight(rotated.vectors, a, b), 0.5, rtol=0.0, atol=1e-9)
        _assert_matches_dense(H, O, 3.0)


@pytest.mark.parametrize("gamma", [0.3, 1.1, 0.05])
@pytest.mark.parametrize("n", range(1, 13))
def test_free_fermion_oracle(n, gamma):
    """The theta = 0 chain against its Jordan-Wigner closed form: every
    energy to 1e-12 max(1, range); log Z and <H> at three beta; and the
    cluster count.  At gamma = 0.05 the zero mode eps_0 falls below eps_deg
    from n = 6 on (3e-8 there, 5e-16 at n = 12), and each ferromagnetic
    doublet becomes one cluster."""
    H, _ = q.tfim_operators(q.ModelSpec(n, gamma))
    eigs = eigendecompose(H)
    energies, eps = free_fermion_energies(n, gamma)
    width = max(1.0, float(energies[-1] - energies[0]))
    assert np.max(np.abs(eigs.energies - energies)) <= 1e-12 * width
    for beta in (0.1, 1.0, 10.0):
        ens = gibbs_ensemble(eigs, beta)
        x = beta * eps / 2.0
        log_z = float(np.sum(np.logaddexp(x, -x)))  # sum_k log(2 cosh(beta eps_k / 2))
        mean_h = -float(np.sum(eps / 2.0 * np.tanh(x)))
        assert abs(ens.log_z - log_z) <= 1e-12 * max(1.0, beta * width), beta
        assert abs(thermal_average(ens, H) - mean_h) <= 1e-12 * width, beta
    doublets = gamma == 0.05 and n >= 6
    assert (eps[0] < eigs.eps_deg) == doublets
    assert len(eigs.clusters) == len(cluster_degeneracies(energies, eigs.eps_deg))
    assert len(eigs.clusters) == 2 ** (n - 1 if doublets else n)
