import math

import numpy as np
import pytest

import qfibounds as q


@pytest.fixture
def single_qubit_beta1():
    H, O = q.single_qubit_model(0.0)
    return O, q.prepared_gibbs(H, O, 1.0)


@pytest.fixture
def tfim3():
    model = q.ModelSpec(3, 0.4, 0.05)
    H, O = q.build_tfim(model)
    return model, O, q.prepared_gibbs(H, O, 1.5)


def random_instance(dim, beta, seed):
    H = q.random_hermitian(dim, seed)
    O = q.random_hermitian(dim, seed + 10_000)
    return H, O, q.prepared_gibbs(H, O, beta)


def rel_close(a, b, rel=1e-9, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


REL = 1e-12


def pipeline_results(ens, O):
    """The chain, both line spectra and the SLD of one prepared ensemble."""
    return {
        "chain": q.bounds_chain(ens, O),
        "auto": q.autocorrelation_spectrum(ens, O),
        "diss": q.dissipation_spectrum(ens, O),
        "L": q.sld_matrix(ens, O).L,
    }


def close_arrays(a, b, rel=REL):
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


def _coarse(spectrum, resolution):
    """First frequency and summed weight of each run of lines spaced at most
    ``resolution`` apart."""
    starts = np.flatnonzero(np.diff(spectrum.omegas, prepend=-np.inf) > resolution)
    return spectrum.omegas[starts], np.add.reduceat(spectrum.weights, starts)


def assert_same_results(fast, ref, beta, resolution):
    """Agreement of two ``pipeline_results`` to REL at the given frequency
    resolution.

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
        assert close_arrays(o, o_ref), kind
        assert close_arrays(w, w_ref, tol), kind
    assert close_arrays(fast["L"], ref["L"], tol)
