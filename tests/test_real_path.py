"""The real-arithmetic path against the complex reference path.

Real H and O run in float64 end to end; the same matrices cast to complex
take the complex-arithmetic path, the reference.  Every downstream
result must agree to 1e-12 relative to its scale, line by line
(``assert_same_results``).
"""

import math

import numpy as np
import pytest

import qfibounds as q
from qfibounds.locality import (
    DressSpec,
    commutator_decay_profile,
    dressed_operator,
    local_approximation,
    spectral_norm,
)
from qfibounds.operators import PauliString, pauli_string_matrix
from qfibounds.spectral import eigendecompose

from conftest import assert_same_results, close_arrays, pipeline_results
from test_spectral import _degenerate_pair


def _results(H, O, beta):
    ens = q.prepared_gibbs(H, O, beta)
    return ens, pipeline_results(ens, O)


@pytest.mark.parametrize(
    "model, beta",
    [
        pytest.param(q.ModelSpec(6, 0.3 * math.pi, 0.1), 1.5, id="theta-0.1"),
        # every ferromagnetic doublet's splitting falls inside eps_deg
        pytest.param(q.ModelSpec(6, 0.05, 0.0), 3.0, id="doublets-in-eps-deg"),
    ],
)
def test_real_tfim_matches_complex(model, beta):
    H, O = q.build_tfim(model)
    assert H.dtype == np.float64 and O.dtype == np.float64
    ens, fast = _results(H, O, beta)
    ens_c, ref = _results(H.astype(complex), O.astype(complex), beta)
    assert ens.eigs.vectors.dtype == np.float64
    assert ens_c.eigs.vectors.dtype == np.complex128
    assert ens.eigs.clusters == ens_c.eigs.clusters
    clustered = any(b - a > 1 for a, b in ens.eigs.clusters)
    assert clustered == (model.theta == 0.0)
    assert_same_results(fast, ref)


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real-valued", "imaginary-part"])
def test_real_h_with_complex_o(imag):
    H, O = _degenerate_pair()
    O = O + imag * np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]])
    _, fast = _results(H.real.copy(), O, 1.3)
    _, ref = _results(H, O, 1.3)
    assert_same_results(fast, ref)


def test_pauli_string_is_real_without_y():
    assert pauli_string_matrix(PauliString({}), 2).dtype == np.float64
    assert pauli_string_matrix(PauliString({0: "X", 2: "Z"}), 3).dtype == np.float64
    assert pauli_string_matrix(PauliString({1: "Y"}), 3).dtype == np.complex128
    assert pauli_string_matrix(PauliString({0: "X", 1: "Y"}), 2).dtype == np.complex128


# not X: at N=6 the X norm at the far site is ~3e-15, leaving 3 points to fit
@pytest.mark.parametrize("probe", ["Y", "Z"])
def test_real_locality_matches_complex(probe):
    n = 6
    H, _ = q.build_tfim(q.ModelSpec(n, 0.4 * math.pi))
    eigs = eigendecompose(H)
    a_loc = pauli_string_matrix(PauliString({0: "X"}), n)
    spec = DressSpec(mu=math.pi)
    dressed, dressed_c = (
        dressed_operator(eigs, a, spec) for a in (a_loc, a_loc.astype(complex))
    )
    assert dressed.dtype == np.float64
    assert close_arrays(dressed, dressed_c)

    # norms to 1e-12 absolute: the tail norms are small, so relative error
    # means nothing there; on the fitted logs that is at most tol / floor
    tol = 1e-12 * max(1.0, spectral_norm(dressed_c))
    prof, prof_c = (
        commutator_decay_profile(eigs, a, spec, probe) for a in (a_loc, a_loc.astype(complex))
    )
    assert np.max(np.abs(prof.commutator_norms - prof_c.commutator_norms)) <= tol
    floor = float(np.min(prof_c.commutator_norms[2:]))
    assert abs(prof.fitted_rate - prof_c.fitted_rate) <= tol / floor
    assert abs(prof.fit_r2 - prof_c.fit_r2) <= tol / floor

    # max_probe is not compared: Y and Z at the last site tie to 1e-15
    for k in (2, 3, 4, 5):
        la, la_c = (local_approximation(a, k, 3) for a in (dressed, dressed_c))
        assert la.a_prime.dtype == np.float64
        assert np.max(np.abs(la.a_prime - la_c.a_prime)) <= tol
        assert abs(la.err - la_c.err) <= tol
        assert abs(la.eps_hat - la_c.eps_hat) <= tol
