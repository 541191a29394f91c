"""The real-arithmetic path against the complex reference path.

Real H and O run in float64 end to end; the same matrices cast to complex
take the complex path, which is the dense reference.  Every downstream
result must agree to 1e-12 relative to its scale, at the resolution the
degeneracy tolerance leaves defined (see ``_assert_same``).
"""

import math

import numpy as np
import pytest

import qfibounds as q
from qfibounds.spectral import to_eigenbasis

from test_spectral import _degenerate_pair

REL = 1e-12


def _results(H, O, beta):
    ens = q.prepared_gibbs(H, O, beta)
    return ens, {
        "chain": q.bounds_chain(ens, O),
        "auto": q.autocorrelation_spectrum(ens, O),
        "diss": q.dissipation_spectrum(ens, O),
        "L": q.sld_matrix(ens, O).L,
    }


def _close_arrays(a, b, rel=REL):
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


def _coarse(spectrum, resolution):
    """First frequency and summed weight of each run of lines spaced at most
    ``resolution`` apart."""
    starts = np.flatnonzero(np.diff(spectrum.omegas, prepend=-np.inf) > resolution)
    return spectrum.omegas[starts], np.add.reduceat(spectrum.weights, starts)


def _assert_same(fast, ref, beta, resolution):
    """Agreement to REL at the given frequency resolution.

    Inside a cluster where O's projection is itself degenerate, the rotation
    is arbitrary, so which state carries which of the cluster's energies
    (within eps_deg of each other) is too: lines closer than eps_deg then
    trade weight, and populations and the SLD's energy kernel move by up to
    beta * eps_deg relative, which bounds spectral weights and L.  The chain
    is held to REL.  ``resolution`` = 0 compares line by line.
    """
    tol = REL + beta * resolution
    for name, x in fast["chain"].to_dict().items():
        y = getattr(ref["chain"], name)
        if name in ("alpha", "phi"):
            # compared through the ratios that define them: acos amplifies a
            # ratio's roundoff by 1 / sin(angle), 56x at alpha = 0.018
            x, y = math.cos(x), math.cos(y)
        assert math.isclose(x, y, rel_tol=REL), name
    for kind in ("auto", "diss"):
        (o, w), (o_ref, w_ref) = (_coarse(x[kind], resolution) for x in (fast, ref))
        assert _close_arrays(o, o_ref), kind
        assert _close_arrays(w, w_ref, tol), kind
    assert _close_arrays(fast["L"], ref["L"], tol)


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
    _assert_same(fast, ref, beta, ens.eigs.eps_deg if clustered else 0.0)


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real-valued", "imaginary-part"])
def test_real_h_with_complex_o(imag):
    H, O = _degenerate_pair()
    O = O + imag * np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]])
    ens, fast = _results(H.real.copy(), O, 1.3)
    assert ens.eigs.vectors.dtype == np.complex128
    Oe = to_eigenbasis(ens.eigs, O)
    assert abs(Oe[0, 1]) < 1e-12 and abs(Oe[1, 0]) < 1e-12
    _, ref = _results(H, O, 1.3)
    _assert_same(fast, ref, 1.3, 0.0)
