import math
from itertools import chain, product

import numpy as np
import pytest

import qfibounds as q
from qfibounds.fluctuation import DISSIPATION, FREQ_MERGE_TOL, _aggregate
from qfibounds.gibbs import _classical, _pair_table
from qfibounds.locality import (
    LocalApproximation,
    _hermitian_norm,
    _pauli_commutator_norm,
    _unitary_commutator_norm,
)
from qfibounds.operators import check_hermitian


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


def dense_from_eigenbasis(eigs, X):
    """V X V^H with the dense eigenvector columns: the reference for the
    block route out of the eigenbasis (``spectral.from_eigenbasis``)."""
    v = eigs.vectors
    return v @ X @ v.conj().T


def _unfolding(basis, rev):
    """(rows, k, u): the nonzeros S[rows_i, k_i] = u_i of an adapted basis S
    in the computational basis."""
    s, m, h = basis.rows, basis.m, np.sqrt(0.5)
    k = np.arange(len(s))
    if not m:
        return s, k, np.ones(len(s))
    u = np.concatenate([np.full(m, h), np.ones(len(s) - m), np.full(m, basis.sign * h)])
    return np.concatenate([s, rev[s[:m]]]), np.concatenate([k, k[:m]]), u


def scatter_from_eigenbasis(eigs, blocks):
    """``spectral.from_eigenbasis`` as it was before the runs: each block's
    unfolded S_a W_a X_ab W_b^H S_b^T gathered and scattered with ``np.ix_``,
    a diagonal block as a dense matrix.  The reference the run-order route
    must match byte for byte; it returns None for no blocks."""
    rev, out = eigs.symmetries[1], None
    for a, b, x in blocks:
        (ra, ka, ua), (rb, kb, ub) = _unfolding(a.basis, rev), _unfolding(b.basis, rev)
        y = (a.vectors @ (np.diag(x) if x.ndim == 1 else x) @ b.vectors.conj().T)[np.ix_(ka, kb)]
        y *= ua[:, None]
        y *= ub
        if out is None:
            out = np.zeros((eigs.dim,) * 2, dtype=y.dtype)
        out[np.ix_(ra, rb)] += y
        if a is not b:
            out[np.ix_(rb, ra)] += y.conj().T
    return out


def scatter_vectors(eigs):
    """``EigenSystem.vectors`` as it was before the runs: S W per sector
    scattered with ``np.ix_``."""
    out = np.zeros((eigs.dim, eigs.dim), dtype=eigs.sectors[0].vectors.dtype)
    for sector in eigs.sectors:
        rows, k, u = _unfolding(sector.basis, eigs.symmetries[1])
        out[np.ix_(rows, sector.columns)] = u[:, None] * sector.vectors[k]
    return out


def dense_density_matrix(ens):
    """(V p) V^H with the dense eigenvector columns: the reference for the
    density matrix out of the sector blocks (``GibbsEnsemble.density_matrix``)."""
    v = ens.eigs.vectors
    return (v * ens.populations) @ v.conj().T


def dense_sqrt_fidelity(a, b):
    """sqrt(Fid) from the dense overlap U = V_a^H V_b: the reference for the
    sector-by-sector sum of ``qfi._sqrt_fidelity``."""
    u = a.eigs.vectors.conj().T @ b.eigs.vectors
    m = np.sqrt(a.populations)[:, None] * u * np.sqrt(b.populations)[None, :]
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def full_pair_lines(ens, O):
    """Every autocorrelation line, unmerged (omegas, weights): the line
    omega = E_n - E_m of the cluster-mean levels with weight
    pi (p_m + p_n) |O_mn|^2 for every pair of the pair table, block by
    block in row-major order, an a < b block's pairs then again in the
    reverse order (n, m) at -omega; then 2 pi sum_n p_n (O_nn - <O>)^2 at
    omega = 0.  The full set the spectra's omega > 0 half is cut from."""
    t = _pair_table(ens.eigs, O)
    e, p = t.levels, ens.populations
    omegas, weights = [], []
    for a, b, o2 in t.blocks:
        omega = -np.subtract.outer(e[a.columns], e[b.columns]).ravel()
        w = (math.pi * ((p[a.columns][:, None] + p[b.columns][None, :]) * o2)).ravel()
        omegas += [omega] if a is b else [omega, -omega]
        weights += [w] if a is b else [w, w]
    omegas.append(np.zeros(1))
    weights.append([2.0 * math.pi * _classical(p, t.diag)])
    return np.concatenate(omegas), np.concatenate(weights)


def full_spectrum(ens, O, kind):
    """The spectrum of ``kind`` merged from the full line set by
    ``_aggregate``: every autocorrelation line, or the dissipation lines at
    omega != 0 times tanh(beta omega / 2).  The reference for the half
    merged and mirrored: the same lines and frequencies, and the same
    weights at omega > 0, bit for bit."""
    omegas, weights = full_pair_lines(ens, O)
    if kind == DISSIPATION:
        distinct = omegas != 0.0
        omegas, weights = omegas[distinct], weights[distinct]
        weights *= np.tanh(ens.beta * omegas / 2.0)
    return _aggregate(omegas, weights, kind)


def expm1_dissipation(ens, O):
    """Im chi from the population differences written as
    p_m - p_n = p_n expm1(beta (E_n - E_m)) = -p_m expm1(beta (E_m - E_n)),
    whichever has the larger population and so |expm1| < 1: each factor is
    then accurate to an ulp at every beta, and a population's own rounding
    (about beta |E| ulp at large beta) is not multiplied by exp(beta |omega|).
    The reference for ``dissipation_spectrum``'s tanh form: one line per
    ordered pair of the pair table at omega = E_n - E_m != 0 of the
    cluster-mean levels, with weight pi (p_m - p_n) |O_mn|^2, merged by
    ``_aggregate`` like the spectrum."""
    t = _pair_table(ens.eigs, O)
    e, p = t.levels, ens.populations
    omegas, weights = [], []
    for a, b, o2 in t.blocks:
        for rows, cols, x in ((a, b, o2), (b, a, o2.T))[: 1 if a is b else 2]:
            m, n = np.meshgrid(rows.columns, cols.columns, indexing="ij")
            omega = e[n] - e[m]
            omegas.append(omega.ravel())
            larger = np.where(omega <= 0.0, p[n], -p[m])
            diff = larger * np.expm1(-ens.beta * np.abs(omega))
            weights.append((math.pi * diff * x).ravel())
    omegas, weights = np.concatenate(omegas), np.concatenate(weights)
    distinct = omegas != 0.0
    return _aggregate(omegas[distinct], weights[distinct], DISSIPATION)


def unpruned_local_approximation(
    A: np.ndarray,
    region: int,
    n_random_probes: int = 100,
    probe_seed: int = 2024,
) -> LocalApproximation:
    """``local_approximation`` as it was before any probe was bounded: every
    probe's norm is computed, each through its full ``eigvalsh`` (no floor
    is passed).  The reference the pruned loop must match bit for bit.  A
    region of every site leaves no complement and takes the same rule as
    the code: A' = A, err = eps_hat = 0.0 and no probe."""
    A = check_hermitian(A)
    d = A.shape[0]
    n_sites = int(round(math.log2(d)))
    if 1 << n_sites != d:
        raise ValueError("operator dimension is not a power of two")
    if not (1 <= region <= n_sites):
        raise ValueError(f"region must be in [1, {n_sites}]")
    dk = 1 << region
    dc = d // dk

    a_prime = np.einsum("ajbj->ab", A.reshape(dk, dc, dk, dc)) / dc
    if dc == 1:
        return LocalApproximation(a_prime=a_prime, err=0.0, eps_hat=0.0, max_probe="")
    rest = A.copy()  # A - A' (x) I; einsum's diagonal is a writable view
    np.einsum("ajbj->jab", rest.reshape(dk, dc, dk, dc))[...] -= a_prime
    err = _hermitian_norm(rest)

    def probe_norms():
        for site, axis in product(range(region, n_sites), "XYZ"):
            yield f"pauli:{axis}{site}", _pauli_commutator_norm(A, site, axis)
        rng = np.random.default_rng(probe_seed)
        for k in range(n_random_probes):
            g = rng.standard_normal((dc, dc)) + 1j * rng.standard_normal((dc, dc))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            yield f"random:{k}", _unitary_commutator_norm(A, q)

    # the first largest norm wins; "" with 0.0 if none is positive
    max_probe, eps_hat = max(chain([("", 0.0)], probe_norms()), key=lambda p: p[1])
    return LocalApproximation(a_prime=a_prime, err=err, eps_hat=eps_hat, max_probe=max_probe)


def free_fermion_energies(n, gamma):
    """All 2^n energies of the theta = 0 chain
    H = sin(gamma) sum sigma^z - cos(gamma) sum sigma^x sigma^x (open), in
    ascending order, and its n single-particle energies eps_k >= 0.

    Under Jordan-Wigner with Majoranas a_2i, a_2i+1, sigma^z_i = -i a_2i a_2i+1
    and sigma^x_i sigma^x_i+1 = -i a_2i+1 a_2i+2, so H = (i/4) a^T M a with M
    real antisymmetric.  The n largest eigenvalues of iM are the eps_k, and
    the energies are sum_k eps_k (n_k - 1/2) over the occupations n_k.
    """
    m = np.zeros((2 * n, 2 * n))
    i = np.arange(n)
    m[2 * i, 2 * i + 1] = -2.0 * math.sin(gamma)
    m[2 * i[:-1] + 1, 2 * i[:-1] + 2] = 2.0 * math.cos(gamma)
    eps = np.linalg.eigvalsh(1j * (m - m.T))[n:]
    energies = np.zeros(1)
    for e in eps:
        energies = np.concatenate([energies - e / 2.0, energies + e / 2.0])
    return np.sort(energies), eps


def close_arrays(a, b, rel=REL):
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1e-300)
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


# A block spectrum omits the pairs of symmetry sectors its operator cannot
# link; in a one-dense-sector reference those lines weigh zero up to
# roundoff, at most 3e-31 of the total weight measured at N = 6-10.
DROPPED = 1e-26


def _shared_lines(spectrum, ref):
    """Mask of the lines of ``ref`` that ``spectrum`` also has: the nearest
    one to each of its lines, which must be within FREQ_MERGE_TOL."""
    pos = np.searchsorted(ref.omegas, spectrum.omegas)
    near = np.clip(np.stack([pos - 1, pos]), 0, max(len(ref) - 1, 0))
    pick = np.argmin(np.abs(ref.omegas[near] - spectrum.omegas), axis=0)
    idx = near[pick, np.arange(len(spectrum))]
    assert np.all(np.abs(ref.omegas[idx] - spectrum.omegas) <= FREQ_MERGE_TOL)
    shared = np.zeros(len(ref), dtype=bool)
    shared[idx] = True
    assert np.count_nonzero(shared) == len(spectrum)
    return shared


def assert_same_results(fast, ref):
    """Agreement of two ``pipeline_results`` to REL, line by line.

    ``ref`` may hold lines ``fast`` lacks, as a one-dense-sector reference
    does against a block spectrum: each of them must weigh at most DROPPED
    times the reference's total absolute weight.
    """
    for name, x in fast["chain"].to_dict().items():
        y = getattr(ref["chain"], name)
        if name in ("alpha", "phi"):
            # compared through the ratios that define them: acos amplifies a
            # ratio's roundoff by 1 / sin(angle), 56x at alpha = 0.018
            x, y = math.cos(x), math.cos(y)
        assert math.isclose(x, y, rel_tol=REL), name
    for kind in ("auto", "diss"):
        got, want = fast[kind], ref[kind]
        shared = _shared_lines(got, want)
        assert close_arrays(got.omegas, want.omegas[shared]), kind
        assert close_arrays(got.weights, want.weights[shared]), kind
        dropped = np.abs(want.weights[~shared])
        assert np.all(dropped <= DROPPED * np.sum(np.abs(want.weights))), kind
    assert close_arrays(fast["L"], ref["L"])
