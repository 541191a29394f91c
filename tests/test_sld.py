import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds import sld
from qfibounds.locality import DressSpec, dressed_operator
from qfibounds.sld import (
    TimeKernelSpec,
    _gauss_panels,
    _kernel_nodes,
    _substituted_nodes,
    energy_kernel,
    kernel_g,
    kernel_g_integral,
    lyapunov_residual,
    optimal_estimator,
    sld_matrix,
    sld_time_domain,
)
from qfibounds.spectral import from_eigenbasis, to_eigenbasis

from conftest import dense_from_eigenbasis, random_instance, rel_close


class TestEnergyKernel:
    def test_zero_limit(self):
        assert energy_kernel(np.array([0.0]), 2.0)[0] == -2.0

    def test_odd_in_omega_times_sign(self):
        # f is even: f(-w) = f(w) bit for bit, on which filter_blocks relies
        # to keep an a = b block exactly Hermitian
        rng = np.random.default_rng(0)
        for beta in (1e-8, 0.3, 1.5, 7.3, 300.0):
            w = rng.standard_normal(20000) * np.repeat([1e-9, 1e-6 / beta, 1e-3, 1.0, 40.0], 4000)
            assert np.array_equal(energy_kernel(w, beta), energy_kernel(-w, beta))

    @given(omega=st.floats(1e-6, 0.5), beta=st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_taylor_continuity(self, omega, beta):
        # |f(w) + beta| <= beta^3 w^2 / 12 near w = 0
        f = float(energy_kernel(np.array([omega]), beta)[0])
        assert abs(f + beta) <= beta**3 * omega**2 / 12 + 1e-12

    def test_large_omega_decay(self):
        f = float(energy_kernel(np.array([100.0]), 1.0)[0])
        assert rel_close(f, -2.0 / 100.0, rel=1e-6)


class TestSldMatrix:
    def test_defining_traces(self, tfim3):
        _, O, ens = tfim3
        res = sld_matrix(ens, O)
        assert abs(res.trace_rho_L) < 1e-9
        assert rel_close(res.trace_rho_L2, q.qfi_spectral(ens, O), rel=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.1])
    def test_trace_rho_l_is_a_float(self, theta):
        # at theta = 0 O = sum X links no a = b block, and the trace is 0.0
        H, O = q.tfim_operators(q.ModelSpec(6, 0.9, theta))
        res = sld_matrix(q.prepared_gibbs(H, O, 1.5), O)
        assert type(res.trace_rho_L) is float
        assert type(res.trace_rho_L2) is float

    @pytest.mark.parametrize("dense", [False, True], ids=["terms", "dense"])
    def test_filtered_a_equals_b_blocks_exactly_hermitian(self, monkeypatch, dense):
        # the bitwise even energy kernel keeps the exact a = b blocks exact:
        # filter_blocks does not symmetrize
        seen = []

        def capture(eigs, blocks):
            seen.extend(blocks)
            return from_eigenbasis(eigs, seen)

        monkeypatch.setattr(sld, "from_eigenbasis", capture)
        H, O = q.tfim_operators(q.ModelSpec(9, 0.9, 0.1))
        sld_matrix(q.prepared_gibbs(H, O, 1.0), O.dense() if dense else O)
        diagonal = [x for a, b, x in seen if a is b]
        assert diagonal
        for x in diagonal:
            assert np.array_equal(x, x.conj().T)

    def test_hermitian_output(self, tfim3):
        _, O, ens = tfim3
        L = sld_matrix(ens, O).L
        assert np.max(np.abs(L - L.conj().T)) < 1e-12

    def test_single_qubit_closed_form(self, single_qubit_beta1):
        # H = sigma^z, O = sigma^x, beta = 1: L = -tanh(1) sigma^x in the
        # computational basis (f(+-2) (O - <O>) with <O> = 0)
        O, ens = single_qubit_beta1
        L = sld_matrix(ens, O).L
        assert rel_close(float(L[0, 1].real), -math.tanh(1.0))
        assert abs(L[0, 0]) < 1e-14

    @given(seed=st.integers(0, 3000), beta=st.sampled_from([0.2, 1.0, 5.0]))
    @settings(max_examples=30, deadline=None)
    def test_traces_random(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        res = sld_matrix(ens, O)
        assert abs(res.trace_rho_L) < 1e-9
        f = q.qfi_spectral(ens, O)
        assert abs(res.trace_rho_L2 - f) <= 1e-8 * max(1.0, abs(f))

    def test_degenerate_cluster_uses_minus_beta(self):
        H = np.zeros((2, 2), dtype=complex)
        O = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ens = q.prepared_gibbs(H, O, 2.0)
        L = sld_matrix(ens, O).L
        # rho is maximally mixed, <O> = 0, so L = -beta * O
        assert np.max(np.abs(L + 2.0 * O)) < 1e-12

    def test_beta_zero_rejected(self):
        H, O = q.build_tfim(q.ModelSpec(2, 0.5))
        ens = q.prepared_gibbs(H, O, 0.0)
        with pytest.raises(ValueError):
            sld_matrix(ens, O)


class TestLyapunovResidual:
    def test_small_residual(self, tfim3):
        model, O, ens = tfim3
        L = sld_matrix(ens, O).L
        assert lyapunov_residual(ens, L, model, 1e-4) < 1e-6

    def test_quadratic_in_delta(self, tfim3):
        model, O, ens = tfim3
        L = sld_matrix(ens, O).L
        r_coarse = lyapunov_residual(ens, L, model, 2e-4)
        r_fine = lyapunov_residual(ens, L, model, 1e-4)
        # central difference: halving delta shrinks the residual ~4x
        assert r_fine < r_coarse / 2.5

    def test_delta_validation(self, tfim3):
        model, O, ens = tfim3
        L = sld_matrix(ens, O).L
        with pytest.raises(ValueError):
            lyapunov_residual(ens, L, model, 1e-2)

    def test_non_hermitian_L_rejected(self, tfim3):
        # L rho is read as (rho L)^H, which holds for a Hermitian L only
        model, O, ens = tfim3
        L = sld_matrix(ens, O).L
        L[0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            lyapunov_residual(ens, L, model, 1e-4)

    @pytest.mark.parametrize("theta", [0.0, 0.1])
    def test_peak_memory_n10(self, theta):
        # one d^3 product, rho L, and each d x d array let go once read keep
        # the peak at 3.8 d^2 doubles; forming L rho apart took 5.0
        model = q.ModelSpec(10, 0.35 * math.pi, theta)
        H, O = q.tfim_operators(model)
        ens = q.prepared_gibbs(H, O, 1.0)
        L = sld_matrix(ens, O).L
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lyapunov_residual(ens, L, model, 1e-4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * L.size * 8


class TestTimeKernel:
    def test_kernel_g_negative_and_even(self):
        assert kernel_g(0.5, 1.0) < 0
        assert kernel_g(-0.5, 1.0) == kernel_g(0.5, 1.0)
        g = kernel_g(np.array([-0.5, 0.5, 2.0]), 1.0)
        assert np.all(g < 0) and g[0] == g[1] == kernel_g(0.5, 1.0)

    def test_kernel_g_singular_at_zero(self):
        with pytest.raises(ValueError):
            kernel_g(0.0, 1.0)

    @given(beta=st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_integral_is_minus_beta(self, beta):
        val = kernel_g_integral(beta)
        assert abs(val + beta) <= 1e-6 * beta

    def test_integral_converges_with_horizon(self):
        # the finite-horizon rule of _kernel_nodes' inner part
        beta = 1.0
        errs = [
            abs(2.0 * float(np.sum(_substituted_nodes(beta, h * beta, 512)[1])) + beta)
            for h in (2.0, 5.0, 10.0)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("panels", [16.5, 64.0, "64"])
    def test_spec_refuses_non_integer_panels(self, panels):
        # 16.5 used to pass and fail later in sld_time_domain
        with pytest.raises(ValueError, match="panels must be an integer in \\[16, 1048576\\]"):
            TimeKernelSpec(1.0, 8.0, panels)

    def test_spec_takes_numpy_integer_panels(self):
        assert TimeKernelSpec(1.0, 8.0, np.int64(64)).panels == 64

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TimeKernelSpec(beta=1.0, horizon=12.0, panels=4)
        with pytest.raises(ValueError):
            TimeKernelSpec(beta=-1.0, horizon=12.0, panels=64)
        with pytest.raises(ValueError):
            TimeKernelSpec(beta=1.0, horizon=0.0, panels=64)


class TestSldTimeDomain:
    def test_reconstruction_accuracy(self, tfim3):
        _, O, ens = tfim3
        exact = sld_matrix(ens, O).L
        spec = TimeKernelSpec(ens.beta, 12 * ens.beta, 2048)
        L = sld_time_domain(ens, O, spec)
        l_norm = float(np.max(np.abs(exact)))
        assert float(np.max(np.abs(L - exact))) < 1e-5 * l_norm

    def test_horizon_decay_rate(self, tfim3):
        # truncation error decays like the kernel tail e^{-(pi/beta) t};
        # points below 1e-9 sit on the quadrature floor and are excluded
        _, O, ens = tfim3
        beta = ens.beta
        exact = sld_matrix(ens, O).L
        horizons = np.linspace(2 * beta, 10 * beta, 9)
        devs = np.array(
            [
                float(
                    np.max(
                        np.abs(
                            sld_time_domain(
                                ens, O, TimeKernelSpec(beta, float(h), 1024)
                            )
                            - exact
                        )
                    )
                )
                for h in horizons
            ]
        )
        mask = devs > 1e-9
        assert mask.sum() >= 4
        slope = np.polyfit(horizons[mask], np.log(devs[mask]), 1)[0]
        target = -math.pi / beta
        assert abs(slope - target) <= 0.25 * abs(target)

    def test_beta_mismatch_rejected(self, tfim3):
        _, O, ens = tfim3
        with pytest.raises(ValueError):
            sld_time_domain(ens, O, TimeKernelSpec(ens.beta * 2, 12.0, 256))


def _cosine_table(energies, t, q):
    """The direct d^2 x nodes form that ``_cosine_kernel`` factors:
    2 sum_k q_k cos((E_m - E_n) t_k)."""
    dE = (energies[:, None] - energies[None, :]).ravel()
    return (2.0 * (np.cos(np.outer(dE, t)) @ q)).reshape(len(energies), len(energies))


def _table_sld_time_domain(ens, O, spec):
    Oe = to_eigenbasis(ens.eigs, O)
    Obar = Oe - float(np.dot(ens.populations, Oe.diagonal().real)) * np.eye(ens.dim)
    t, qk = _kernel_nodes(ens.beta, spec.horizon, spec.panels)
    L = _cosine_table(ens.eigs.levels, t, qk) * Obar
    return dense_from_eigenbasis(ens.eigs, (L + L.conj().T) / 2.0)


def _table_dressed_operator(eigs, A, mu, horizon, panels):
    """The time integral of A(t) against e^{-mu |t|} over |t| <= horizon."""
    t, w = _gauss_panels(0.0, horizon, panels)
    out = _cosine_table(eigs.energies, t, w * np.exp(-mu * t)) * to_eigenbasis(eigs, A)
    return dense_from_eigenbasis(eigs, (out + out.conj().T) / 2.0)


def _kernel_case(kind):
    if kind == "tfim-theta-0.1":
        H, O = q.build_tfim(q.ModelSpec(6, 0.4 * math.pi, 0.1))
    elif kind == "complex-random":
        H, O = q.random_hermitian(64, 21), q.random_hermitian(64, 22)
    else:  # gamma = 0.05: all 32 doublets fall inside eps_deg
        H, O = q.build_tfim(q.ModelSpec(6, 0.05, 0.0))
    return O, q.prepared_gibbs(H, O, 1.3)


class TestCosineKernel:
    """The time-domain SLD and the closed-form dressed operator against the
    direct cosine table, to 1e-12 relative.  The SLD's 800 nodes are not a
    multiple of the node block, so its last block is partial."""

    @pytest.mark.parametrize("kind", ("tfim-theta-0.1", "complex-random", "doublets"))
    def test_sld_time_domain_matches_table(self, kind):
        O, ens = _kernel_case(kind)
        spec = TimeKernelSpec(ens.beta, 12 * ens.beta, 100)
        ref = _table_sld_time_domain(ens, O, spec)
        got = sld_time_domain(ens, O, spec)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ("tfim-theta-0.1", "complex-random", "doublets"))
    def test_dressed_quadrature_matches_table(self, kind):
        # the closed form; the quadrature's tail past horizon 16 is ~ e^{-32}
        O, ens = _kernel_case(kind)
        ref = _table_dressed_operator(ens.eigs, O, 2.0, 16.0, 256)
        got = dressed_operator(ens.eigs, O, DressSpec(mu=2.0))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOptimalEstimator:
    def test_locally_unbiased_and_efficient(self, tfim3):
        _, O, ens = tfim3
        theta = 0.05
        est = optimal_estimator(ens, O, theta)
        rho = ens.density_matrix()
        mean = float(np.trace(rho @ est).real)
        assert rel_close(mean, theta, rel=1e-9, abs_=1e-12)
        second = float(np.trace(rho @ est @ est).real)
        var = second - mean**2
        assert rel_close(var, 1.0 / q.qfi_spectral(ens, O), rel=1e-8)

    def test_vanishing_qfi_rejected(self):
        H, O = q.build_tfim(q.ModelSpec(2, 0.5))
        # beta tiny but positive: QFI ~ beta^2 -> below threshold
        ens = q.prepared_gibbs(H, O, 1e-8)
        with pytest.raises(ValueError):
            optimal_estimator(ens, O, 0.0)
