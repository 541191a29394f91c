import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.fluctuation import _aggregate
from qfibounds.gibbs import (
    _classical,
    _shifted_gibbs,
    _tanh_over_omega,
    gibbs_ensemble,
    pair_table,
)
from qfibounds.operators import TILE
from qfibounds.spectral import (
    cluster_degeneracies,
    dense_eigensystem,
    eigendecompose,
    rotate_within_clusters,
    to_eigenbasis,
)

from conftest import (
    assert_same_results,
    close_arrays,
    pipeline_results,
    random_instance,
    rel_close,
)


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

    @pytest.mark.parametrize("complex_h", [False, True])
    def test_imaginary_roundoff_weighed_against_max_entry(self, complex_h):
        # 1e9 times a complex A: the a = b blocks' diagonals are exactly
        # real, so the transform's ~1e-8 imaginary roundoff never reaches <A>
        H, _ = q.tfim_operators(q.ModelSpec(6, 0.9, 0.1))
        ens = q.prepared_gibbs(q.random_hermitian(64, 2) if complex_h else H, None, 1.0)
        A = 1e9 * q.random_hermitian(64, 1)
        want = float(np.trace(ens.density_matrix() @ A).real)
        assert rel_close(q.thermal_average(ens, A), want)

    def test_nan_imaginary_part_raises(self):
        # a NaN in the eigenvectors makes <A> not finite, for terms and matrix
        H, O = q.tfim_operators(q.ModelSpec(3, 0.9))
        eigs = eigendecompose(H)
        v = eigs.vectors.astype(complex)
        v[0, 0] = math.nan
        ens = gibbs_ensemble(dense_eigensystem(eigs.energies, v, eigs.clusters, eigs.eps_deg), 1.0)
        for A in (O, O.dense()):
            with pytest.raises(ValueError, match="not finite"):
                q.thermal_average(ens, A)

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


def _held_pairs(table):
    """Ordered pairs (m, n) the table holds, an a < b block in both orders,
    and those among them in different clusters."""
    e = table.levels
    held = distinct = 0
    for a, b, _ in table.blocks:
        k = 1 if a is b else 2
        held += k * len(a.columns) * len(b.columns)
        distinct += k * int(np.count_nonzero(np.subtract.outer(e[a.columns], e[b.columns])))
    return held, distinct


class TestDistinctClusterPairs:
    def test_pair_count_no_degeneracies(self, tfim3):
        _, O, ens = tfim3
        held, distinct = _held_pairs(pair_table(ens.eigs, O))
        n_in_cluster = sum((b - a) ** 2 for a, b in ens.eigs.clusters)
        assert distinct == held - n_in_cluster


class TestNearDegenerate:
    EPS = 1e-6

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_clusters_split_at_eps_deg(self, seed):
        # gaps just below and just above eps_deg: only the first pair joins,
        # for real and complex H alike
        eps, beta = self.EPS, 2.0
        split = eps * (1 + 1e-3)
        e = np.array([0.0, eps * (1 - 1e-3), 1.0, 1.0 + split, 2.0, 3.0])
        rng = np.random.default_rng(seed)

        def draw(arithmetic):
            g = rng.standard_normal((6, 6))
            return g if arithmetic == "real" else g + 1j * rng.standard_normal((6, 6))

        for arithmetic in ("real", "complex"):
            v, _ = np.linalg.qr(draw(arithmetic))
            H = (v * e) @ v.conj().T
            g = draw(arithmetic)
            O = g + g.conj().T
            eigs = eigendecompose(H, eps)
            joined = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6))
            assert cluster_degeneracies(eigs.energies, eps) == eigs.clusters == joined
            held, distinct = _held_pairs(pair_table(eigs, O))
            assert held == 6**2 and distinct == 6**2 - (2**2 + 4)  # minus within-cluster pairs

            # the joined pair is one level, so no line resolves its splitting;
            # the split pair keeps its lines at +-split
            ens = gibbs_ensemble(eigs, beta)
            got = pipeline_results(ens, O)
            for kind in ("auto", "diss"):
                omegas = np.abs(got[kind].omegas)
                assert not np.any((omegas > 0.0) & (omegas < eps)), kind
                assert np.sum(np.isclose(omegas, split, rtol=1e-6, atol=0.0)) == 2, kind
            assert np.all(got["diss"].omegas != 0.0)

            # the SLD takes f(0) = -beta across the joined block
            Obar = to_eigenbasis(eigs, O) - q.thermal_average(ens, O) * np.eye(6)
            L = to_eigenbasis(eigs, got["L"])
            assert close_arrays(L[:2, :2], -beta * Obar[:2, :2])

            # and everything matches the gauge where O is diagonal in the cluster
            ref = pipeline_results(gibbs_ensemble(rotate_within_clusters(eigs, O), beta), O)
            assert_same_results(got, ref)


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


def _reference_pair_sums(table, p, beta):
    """Flat ordered-pair reference: F, beta chi and Var as kernel sums of
    (p_m + p_n)|O_mn|^2 over the pairs m != n the table's blocks hold, each
    block's pairs in row-major order and an a < b block's again in the
    reverse order (n, m), at the differences of the cluster-mean levels (0
    for a same-cluster pair), and both spectra's unaggregated lines in that
    order: every pair for the autocorrelation, those at omega != 0 times
    tanh(beta omega / 2) for the dissipation."""
    ms, ns, o2s = [], [], []
    for a, b, x in table.blocks:
        o2 = np.abs(x) ** 2
        m, n = np.meshgrid(a.columns, b.columns, indexing="ij")
        off = m != n
        ms.append(m[off]), ns.append(n[off]), o2s.append(o2[off])
        if a is not b:
            ms.append(n[off]), ns.append(m[off]), o2s.append(o2[off])
    m, n, o2 = (np.concatenate(x) for x in (ms, ns, o2s))
    dE = table.levels[m] - table.levels[n]
    classical = float(np.dot(p, (table.diag - float(np.dot(p, table.diag))) ** 2))
    w = (p[m] + p[n]) * o2

    def moment(kind, b):
        return b**2 * classical + 2.0 * float(np.dot(_reference_kernel(kind, dE, b), w))

    sums = (moment("qfi", beta), moment("chi", beta), moment("var", 1.0))
    auto = (np.concatenate([-dE, [0.0]]),
            np.concatenate([math.pi * w, [2.0 * math.pi * classical]]))
    nz = dE != 0.0
    diss = (-dE[nz], (np.tanh(beta * -dE / 2.0) * (math.pi * w))[nz])
    return sums, auto, diss


class TestDensePairTable:
    """The block pair table against the flat ordered-pair sums."""

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
        table = pair_table(eigs, O)
        (f, beta_chi, var), auto, diss = _reference_pair_sums(
            table, ens.populations, beta)

        def close(a, b):
            return math.isclose(a, b, rel_tol=1e-13, abs_tol=0.0)

        rep = q.bounds_chain(ens, table)
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
    """``PairTable.moments`` over TILE-row tiles of each block against the
    upper-triangle kernel pass over each whole block, reduced in the same
    TILE-row slices: the same sums in the same order, so the same bits.  (A
    single whole-block reduction adds a state's row and column sums in
    another order, an ulp apart.)"""

    CASES = {
        "tfim8_theta0.1": lambda: q.build_tfim(q.ModelSpec(8, 0.9, 0.1)),  # 2 blocks
        "complex_d300": lambda: (q.random_hermitian(300, 5), q.random_hermitian(300, 6)),
    }

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 1.0, 20.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_whole_table_pass(self, case, beta):
        H, O = self.CASES[case]()
        ens = q.prepared_gibbs(H, O, beta)
        table = pair_table(ens.eigs, O)
        p, e = ens.populations, table.levels
        c = _classical(p, table.diag)
        ox2, ox, o0 = np.zeros(len(p)), np.zeros(len(p)), np.zeros(len(p))
        for a, b, block in table.blocks:
            # both cases link only diagonal blocks: each pair m < n is read
            # once, into its row's sums and its column's
            assert a is b
            o2 = np.triu(np.abs(block) ** 2)
            x = _tanh_over_omega(np.subtract.outer(e[a.columns], e[b.columns]), beta)
            o2x = o2 * x
            for i in range(0, len(o2), TILE):
                tile, m, n = np.s_[i:i + TILE, i:], a.columns[i:i + TILE], b.columns[i:]
                ox2[m] += np.einsum("mn,mn->m", o2x[tile], x[tile])
                ox[m] += o2x[tile].sum(axis=1)
                o0[m] += o2[tile].sum(axis=1)
                ox2[n] += np.einsum("mn,mn->n", o2x[tile], x[tile])
                ox[n] += o2x[tile].sum(axis=0)
                o0[n] += o2[tile].sum(axis=0)
        want = (beta**2 * c + 4.0 * float(p @ ox2),
                beta**2 * c + 2.0 * beta * float(p @ ox),
                c + float(p @ o0))
        assert table.moments(p, beta) == want


class TestOneMean:
    """<O> is one float: ``thermal_average``, ``PairTable.mean`` and the mean
    the classical weight is centred on, at a point where two formulas for
    it once differed in the last bit."""

    def test_one_mean_and_zero_block_diagonals(self):
        H, O = q.tfim_operators(q.ModelSpec(10, 0.35 * math.pi, 0.1))
        ens = q.prepared_gibbs(H, O, 1.5)
        table = pair_table(ens.eigs, O)
        p, mean = ens.populations, table.mean(ens.populations)
        assert _bits(q.thermal_average(ens, O)) == _bits(mean)
        assert _bits(_classical(p, table.diag)) == _bits(
            float(np.dot(p, (table.diag - mean) ** 2)))
        # the a = b blocks hold the pairs m != n only, their diagonals +0.0,
        # and ``diag`` is the eigenbasis diagonal
        same = [x for a, b, x in table.blocks if a is b]
        assert same
        for x in same:
            d = x.diagonal()
            assert np.all(d == 0.0) and not np.any(np.signbit(d.real))
        assert _bits(table.diag) == _bits(to_eigenbasis(ens.eigs, O).diagonal().real.copy())


# Every (ensemble, O) reader, called as reader(ens, O, t) on t = O or on
# O's pair table t
READERS = {
    "qfi_spectral": lambda ens, O, t: q.qfi_spectral(ens, t),
    "susceptibility": lambda ens, O, t: q.susceptibility(ens, t),
    "variance": lambda ens, O, t: q.variance(ens, t),
    "bounds_chain": lambda ens, O, t: q.bounds_chain(ens, t),
    "autocorrelation": lambda ens, O, t: q.autocorrelation_spectrum(ens, t),
    "dissipation": lambda ens, O, t: q.dissipation_spectrum(ens, t),
    "generalized_fdt": lambda ens, O, t: q.generalized_fdt(q.dissipation_spectrum(ens, O), ens, t),
    "sld_matrix": lambda ens, O, t: q.sld_matrix(ens, t),
    "sld_time_domain": lambda ens, O, t: q.sld_time_domain(
        ens, t, q.TimeKernelSpec(ens.beta, 3.0, 16)),
    "thermal_average": lambda ens, O, t: q.thermal_average(ens, t),
}


def _bits(value):
    """The bytes of a result, field by field, NaN included."""
    if dataclasses.is_dataclass(value):
        return b"".join(_bits(v) for v in dataclasses.astuple(value))
    return np.asarray(value).tobytes()


class TestTableInPlaceOfO:
    """Each reader takes O's pair table in O's place."""

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 20.0])
    @pytest.mark.parametrize("case", sorted(TestDensePairTable.CASES))
    def test_same_bits_from_the_table(self, case, beta):
        H, O = TestDensePairTable.CASES[case]()
        ens = q.prepared_gibbs(H, O, beta)
        table = pair_table(ens.eigs, O)
        assert pair_table(ens.eigs, table) is table
        for name, reader in READERS.items():
            assert _bits(reader(ens, O, table)) == _bits(reader(ens, O, O)), name

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_table_of_another_eigensystem_raises(self, reader):
        # the theta + delta state has the same dimension and sectors, but
        # its own eigensystem
        H, O = q.tfim_operators(q.ModelSpec(6, 0.9, 0.1))
        ens = q.prepared_gibbs(H, O, 1.5)
        (shifted,) = _shifted_gibbs(H, O, 1.5, (1e-4,))
        with pytest.raises(ValueError, match="another eigensystem"):
            READERS[reader](ens, O, pair_table(shifted.eigs, O))


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
