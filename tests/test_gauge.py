"""Basis independence inside degenerate clusters.

Every output is a sum over pairs of clusters read at the cluster-mean
levels, so the eigenbasis chosen inside a cluster must not move any of it:
not a seeded random unitary per cluster, not the gauge in which O is
diagonal there (``rotate_within_clusters``), and not the different bases the
real and complex arithmetic paths pick.
"""

import math

import numpy as np
import pytest

import qfibounds as q
from qfibounds.gibbs import gibbs_ensemble
from qfibounds.sld import TimeKernelSpec, sld_time_domain
from qfibounds.spectral import dense_eigensystem, eigendecompose, rotate_within_clusters

from conftest import REL, assert_same_results, close_arrays, pipeline_results


def _degenerate_d8():
    """Real H on 8 states with exactly degenerate clusters of 3, 2 and 2 in a
    seeded random basis, and a random real symmetric O."""
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    e = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 4.0])
    g = rng.standard_normal((8, 8))
    return (v * e) @ v.T, g + g.T


# (H, O), beta, eps_deg
CASES = {
    "tfim6_g0.05": (lambda: q.build_tfim(q.ModelSpec(6, 0.05)), 3.0, None),
    "degenerate_d8": (_degenerate_d8, 1.3, None),
    # 128 clusters, each split by up to 1.4e-4 inside eps_deg
    "tfim8_g0.3_eps1e-2": (lambda: q.build_tfim(q.ModelSpec(8, 0.3)), 5.0, 1e-2),
}


def _remix(eigs, seed, dtype):
    """``eigs`` with the columns of each cluster of more than one state mixed
    by a seeded random unitary, orthogonal for a real ``dtype``, as one
    dense sector."""
    rng = np.random.default_rng(seed)
    vectors = eigs.vectors.astype(dtype)
    for a, b in eigs.clusters:
        if b - a > 1:
            g = rng.standard_normal((b - a, b - a)).astype(dtype)
            if np.iscomplexobj(g):
                g += 1j * rng.standard_normal((b - a, b - a))
            u, _ = np.linalg.qr(g)
            vectors[:, a:b] = vectors[:, a:b] @ u
    return dense_eigensystem(eigs.energies, vectors, eigs.clusters, eigs.eps_deg)


def _gauge_results(eigs, O, beta):
    ens = gibbs_ensemble(eigs, beta)
    out = pipeline_results(ens, O)
    out["mean"] = q.thermal_average(ens, O)
    out["fdt"] = q.generalized_fdt(out["diss"], ens, O)
    out["L_time"] = sld_time_domain(ens, O, TimeKernelSpec(beta, 12.0 * beta, 256))
    return out


@pytest.mark.parametrize("arithmetic", ["real", "complex"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cluster_remix_moves_nothing(case, arithmetic):
    make, beta, eps = CASES[case]
    H, O = make()
    dtype = np.float64 if arithmetic == "real" else np.complex128
    H, O = H.astype(dtype), O.astype(dtype)
    eigs = eigendecompose(H, eps)
    assert eigs.vectors.dtype == dtype
    assert any(b - a > 1 for a, b in eigs.clusters)

    ref = _gauge_results(rotate_within_clusters(eigs, O), O, beta)
    for basis in (eigs, _remix(eigs, 17, dtype)):
        got = _gauge_results(basis, O, beta)
        assert_same_results(got, ref)
        # <O> vanishes by symmetry at theta = 0: relative to O's scale
        assert math.isclose(got["mean"], ref["mean"], rel_tol=REL,
                            abs_tol=REL * float(np.max(np.abs(O))))
        # the FDT's reconstruction against the direct spectrum, line by line
        assert close_arrays(got["fdt"].omegas, got["auto"].omegas)
        assert close_arrays(got["fdt"].weights, got["auto"].weights)
        assert close_arrays(got["L_time"], ref["L_time"])


def test_real_and_complex_spectra_agree_line_by_line():
    # every ferromagnetic doublet's splitting falls inside eps_deg, and the
    # two paths pick different bases inside the doublets
    beta = 3.0
    H, O = q.build_tfim(q.ModelSpec(6, 0.05))
    ens, ens_c = (q.prepared_gibbs(h, o, beta)
                  for h, o in ((H, O), (H.astype(complex), O.astype(complex))))
    assert ens.eigs.vectors.dtype == np.float64
    assert ens_c.eigs.vectors.dtype == np.complex128
    for spectrum in (q.autocorrelation_spectrum, q.dissipation_spectrum):
        fast, ref = spectrum(ens, O), spectrum(ens_c, O.astype(complex))
        assert close_arrays(fast.omegas, ref.omegas), spectrum.__name__
        assert close_arrays(fast.weights, ref.weights), spectrum.__name__
