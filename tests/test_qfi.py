import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfibounds as q
from qfibounds.qfi import (
    check_bounds_report,
    qfi_fidelity_oracle_generic,
    uncertainty_report,
)

from conftest import random_instance, rel_close

TANH1 = math.tanh(1.0)


class TestQfiSpectral:
    def test_single_qubit(self, single_qubit_beta1):
        O, ens = single_qubit_beta1
        assert rel_close(q.qfi_spectral(ens, O), TANH1**2)

    def test_tfim_n1_closed_form_grid(self):
        # gamma = 5.005e-9 splits the two levels by 1.001 eps_deg: near-degenerate
        for beta in (0.3, 1.0, 2.5):
            for gamma in (0.2, 0.8, 1.4, 5.005e-9):
                H, O = q.build_tfim(q.ModelSpec(1, gamma))
                ens = q.prepared_gibbs(H, O, beta)
                expected = math.tanh(beta * math.sin(gamma)) ** 2 / math.sin(gamma) ** 2
                assert rel_close(q.qfi_spectral(ens, O), expected)
                chi = math.tanh(beta * math.sin(gamma)) / math.sin(gamma)
                assert rel_close(q.susceptibility(ens, O), chi)

    def test_commuting_observable_is_classical(self):
        # O = H: QFI reduces to beta^2 Var = beta^2 (1 - tanh^2 beta)
        H = np.diag([1.0, -1.0]).astype(complex)
        ens = q.prepared_gibbs(H, H, 1.0)
        assert rel_close(q.qfi_spectral(ens, H), 1.0 - TANH1**2)

    def test_beta_zero_vanishes(self, tfim3):
        _, O, ens = tfim3
        H, _ = q.build_tfim(q.ModelSpec(3, 0.4, 0.05))
        ens0 = q.prepared_gibbs(H, O, 0.0)
        assert abs(q.qfi_spectral(ens0, O)) < 1e-12

    def test_gap_closure_meets_degenerate_limit(self):
        # the near-degenerate branch must approach the rotated-basis
        # classical value continuously as the 2-level gap closes
        Ofix = np.array([[0.3, 0.8], [0.8, -0.5]], dtype=complex)
        beta = 1.2
        classical = q.qfi_spectral(
            q.prepared_gibbs(np.zeros((2, 2), dtype=complex), Ofix, beta), Ofix
        )
        prev = math.inf
        for gap in (1e-2, 1e-3, 1e-4, 1e-5):
            Hg = np.diag([0.0, gap]).astype(complex)
            f = q.qfi_spectral(q.prepared_gibbs(Hg, Ofix, beta, eps_deg=1e-9), Ofix)
            diff = abs(f - classical)
            assert diff < prev
            prev = diff
        assert prev < 1e-8


class TestBoundsChain:
    def test_single_qubit_quadruple(self, single_qubit_beta1):
        O, ens = single_qubit_beta1
        rep = q.bounds_chain(ens, O)
        assert rel_close(rep.lb, TANH1**2)
        assert rel_close(rep.qfi, TANH1**2)
        assert rel_close(rep.ub1, TANH1)
        assert rel_close(rep.ub2, 1.0)
        # lb = qfi here, so phi = 0; alpha = arccos(tanh 1)
        assert abs(rep.phi) < 1e-7
        assert rel_close(rep.alpha, math.acos(TANH1))

    def test_geometric_identity_by_construction(self, tfim3):
        _, O, ens = tfim3
        rep = q.bounds_chain(ens, O)
        assert rel_close(rep.ub1**2, rep.ub2 * rep.lb)

    def test_lb_equals_independent_formula(self, tfim3):
        model, O, ens = tfim3
        rep = q.bounds_chain(ens, O)
        dmean = -q.susceptibility_fd(model, 1.5, 1e-4)
        indep = dmean**2 / q.variance(ens, O)
        assert rel_close(rep.lb, indep, rel=1e-6)

    @given(
        seed=st.integers(0, 5000),
        dim=st.sampled_from([2, 4, 8]),
        beta=st.sampled_from([0.1, 1.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_chain_holds_on_random_instances(self, seed, dim, beta):
        _, O, ens = random_instance(dim, beta, seed)
        rep = q.bounds_chain(ens, O)
        check_bounds_report(rep)

    @pytest.mark.parametrize("field", ["lb", "qfi", "ub1", "ub2"])
    def test_check_rejects_nan(self, tfim3, field):
        import dataclasses

        _, O, ens = tfim3
        rep = dataclasses.replace(q.bounds_chain(ens, O), **{field: math.nan})
        with pytest.raises(RuntimeError):
            check_bounds_report(rep)

    def test_beta_zero_report(self, tfim3):
        H, O = q.build_tfim(q.ModelSpec(3, 0.4, 0.05))
        rep = q.bounds_chain(q.prepared_gibbs(H, O, 0.0), O)
        assert rep.ub1 == 0.0 and rep.ub2 == 0.0 and rep.lb == 0.0
        assert math.isnan(rep.alpha) and math.isnan(rep.dtheta_min)

    def test_high_temperature_collapse(self):
        # at beta = 0.05 all four bounds pinch together (pinned at 2x the
        # reference value 0.00127)
        H, O = q.build_tfim(q.ModelSpec(6, 0.35 * math.pi))
        rep = q.bounds_chain(q.prepared_gibbs(H, O, 0.05), O)
        assert (rep.ub2 - rep.lb) / rep.ub2 < 0.003

    def test_report_serialization_fields(self, tfim3):
        _, O, ens = tfim3
        d = q.bounds_chain(ens, O).to_dict()
        assert set(d) == {
            "lb", "qfi", "ub1", "ub2", "beta", "alpha", "phi",
            "dtheta_min", "d_o", "d_o_bar",
        }


class TestUncertaintyReport:
    def test_products_exceed_inverse_beta(self, tfim3):
        _, O, ens = tfim3
        rep = q.bounds_chain(ens, O)
        u = uncertainty_report(rep)
        assert u["defined"]
        inv_beta = 1.0 / rep.beta
        assert u["product_direct"] >= inv_beta - 1e-9
        assert u["product_response"] >= inv_beta - 1e-9
        assert u["response_leq_direct"]

    @given(seed=st.integers(0, 4000), beta=st.sampled_from([0.1, 1.0, 10.0]))
    @settings(max_examples=40, deadline=None)
    def test_both_relations_random(self, seed, beta):
        _, O, ens = random_instance(4, beta, seed)
        rep = q.bounds_chain(ens, O)
        u = uncertainty_report(rep)
        if not u["defined"]:
            return
        assert u["ratio_direct"] >= 1.0 - 1e-9
        assert u["ratio_response"] >= 1.0 - 1e-9

    def test_undefined_at_beta_zero(self):
        H, O = q.build_tfim(q.ModelSpec(2, 0.5))
        rep = q.bounds_chain(q.prepared_gibbs(H, O, 0.0), O)
        assert uncertainty_report(rep) == {
            "defined": False,
            "reason": "qfi or beta vanishes; uncertainty products undefined",
        }


class TestFidelityOracle:
    def test_oracle_matches_spectral_tfim(self):
        model = q.ModelSpec(3, 0.4, 0.05)
        H, O = q.build_tfim(model)
        ens = q.prepared_gibbs(H, O, 1.5)
        f_spec = q.qfi_spectral(ens, O)
        f_fid = q.qfi_fidelity_oracle(model, 1.5, 1e-3)
        assert abs(f_fid - f_spec) <= max(1e-3 * abs(f_spec), 1e-6)

    @given(seed=st.integers(0, 2000), beta=st.sampled_from([0.5, 1.0, 3.0]))
    @settings(max_examples=15, deadline=None)
    def test_generic_oracle_random(self, seed, beta):
        H = q.random_hermitian(4, seed)
        O = q.random_hermitian(4, seed + 10_000)
        ens = q.prepared_gibbs(H, O, beta)
        f_spec = q.qfi_spectral(ens, O)
        f_fid = qfi_fidelity_oracle_generic(H, O, beta, 1e-3)
        assert abs(f_fid - f_spec) <= max(1e-3 * abs(f_spec), 1e-6)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            q.qfi_fidelity_oracle(q.ModelSpec(2, 0.3), 1.0, 0.5)

    def test_bias_shrinks_with_delta(self):
        model = q.ModelSpec(2, 0.7)
        H, O = q.build_tfim(model)
        f_spec = q.qfi_spectral(q.prepared_gibbs(H, O, 1.0), O)
        e_coarse = abs(q.qfi_fidelity_oracle(model, 1.0, 1e-2) - f_spec)
        e_fine = abs(q.qfi_fidelity_oracle(model, 1.0, 1e-3) - f_spec)
        assert e_fine < e_coarse
