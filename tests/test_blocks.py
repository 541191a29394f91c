"""The block eigensystem against its one-dense-sector reference.

``eigendecompose`` keeps the symmetry blocks, and the pair table, its kernel
pass and both line spectra run over the sector pairs O can link.  The
reference is the same eigensystem as one dense sector
(``dense_eigensystem``), whose table holds all d^2 pairs.  The chain, both
spectra, the SLD and <O> must agree to 1e-12, line by line; the lines only
the reference has must weigh nothing (``assert_same_results``).
"""

import math

import numpy as np
import pytest

import qfibounds as q
from qfibounds.cli import main
from qfibounds.gibbs import _shifted_gibbs, gibbs_ensemble, pair_table
from qfibounds.locality import DressSpec, dressed_operator
from qfibounds.operators import FlipOperator, PauliString, pauli_string_matrix
from qfibounds.qfi import _sqrt_fidelity, qfi_fidelity_oracle_generic
from qfibounds.sld import (
    TimeKernelSpec,
    _cosine_kernel,
    _kernel_nodes,
    energy_kernel,
    lyapunov_residual,
    sld_matrix,
    sld_time_domain,
)
from qfibounds.spectral import (
    EigenSystem,
    _gather,
    _operator,
    _sector_bases,
    _z2_symmetries,
    dense_eigensystem,
    eigenbasis_blocks,
    eigendecompose,
    from_eigenbasis,
    to_eigenbasis,
)

from conftest import (
    REL,
    assert_same_results,
    close_arrays,
    dense_density_matrix,
    dense_from_eigenbasis,
    dense_sqrt_fidelity,
    pipeline_results,
    scatter_from_eigenbasis,
    scatter_vectors,
)


def _site_sum(n, axis, coefficient):
    return sum(coefficient(j) * pauli_string_matrix(PauliString({j: axis}), n)
               for j in range(n))


# O by its (P, R) parity under the TFIM's spin flip and reflection
OPERATORS = {
    "sum_x": lambda n: _site_sum(n, "X", lambda j: 1.0),  # P-odd, R-even
    "sum_z": lambda n: _site_sum(n, "Z", lambda j: 1.0),  # P-even, R-even
    "ramp_x": lambda n: _site_sum(n, "X", lambda j: j - (n - 1) / 2),  # P-odd, R-odd
    "z0": lambda n: pauli_string_matrix(PauliString({0: "Z"}), n),  # no R parity
}

# (n, gamma, theta), beta; odd n has palindromes, gamma = 0.05 has doublets
# straddling the P sectors
MODELS = {
    "n5_t0": ((5, 0.9, 0.0), 1.5),
    "n6_t0": ((6, 0.9, 0.0), 1.5),
    "n6_t0.1": ((6, 0.9, 0.1), 1.5),
    "n7_t0.1": ((7, 0.9, 0.1), 1.5),
    "n8_doublets": ((8, 0.05, 0.0), 3.0),
}


def _block_and_dense(H, O, beta):
    eigs = eigendecompose(H)
    ref = dense_eigensystem(eigs.energies, eigs.vectors, eigs.clusters, eigs.eps_deg)
    return gibbs_ensemble(eigs, beta), gibbs_ensemble(ref, beta)


def _assert_matches_dense_sector(H, O, beta):
    ens, ref = _block_and_dense(H, O, beta)
    assert "vectors" in vars(ens.eigs)  # the reference was built from them
    got, want = pipeline_results(ens, O), pipeline_results(ref, O)
    assert_same_results(got, want)
    scale = REL * float(np.max(np.abs(O)))
    assert math.isclose(q.thermal_average(ens, O), q.thermal_average(ref, O),
                        rel_tol=REL, abs_tol=scale)


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_matches_dense_sector(model, operator):
    (n, gamma, theta), beta = MODELS[model]
    H, _ = q.build_tfim(q.ModelSpec(n, gamma, theta))
    _assert_matches_dense_sector(H, OPERATORS[operator](n), beta)


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_matches_dense_sector_n10(theta):
    H, O = q.build_tfim(q.ModelSpec(10, 0.3, theta))
    _assert_matches_dense_sector(H, O, 2.0)


@pytest.mark.parametrize("model", ["n6_t0", "n8_doublets"])
def test_complex_matches_dense_sector(model):
    # a complex matrix is not bit terms: the TFIM cast to complex takes the
    # one dense sector, and agrees with the real terms' blocks
    (n, gamma, theta), beta = MODELS[model]
    H, O = q.tfim_operators(q.ModelSpec(n, gamma, theta))
    Hc, Oc = H.dense().astype(complex), O.dense().astype(complex)
    ens = gibbs_ensemble(eigendecompose(H), beta)
    ref = gibbs_ensemble(eigendecompose(Hc), beta)
    assert len(ens.eigs.sectors) > 1 and len(ref.eigs.sectors) == 1
    assert ens.eigs.clusters == ref.eigs.clusters
    assert_same_results(pipeline_results(ens, O), pipeline_results(ref, Oc))
    assert math.isclose(q.thermal_average(ens, O), q.thermal_average(ref, Oc),
                        rel_tol=REL, abs_tol=REL * float(np.max(np.abs(Oc))))


@pytest.mark.parametrize(
    "theta, operator, sectors, blocks",
    [
        (0.0, "sum_x", 4, 2),  # P-odd: P+ <-> P- within each R
        (0.1, "sum_x", 2, 2),  # R-even: R+ <-> R+, R- <-> R-
        (0.0, "sum_z", 4, 4),
        (0.0, "ramp_x", 4, 2),
        (0.1, "ramp_x", 2, 1),  # R-odd: R+ <-> R-
        (0.0, "z0", 4, 6),  # P-even, no R parity: every same-P pair
        (0.1, "z0", 2, 3),  # no R parity: every pair
    ],
)
@pytest.mark.parametrize("n", [5, 6])
def test_linked_sector_pairs(n, theta, operator, sectors, blocks):
    H, _ = q.build_tfim(q.ModelSpec(n, 0.9, theta))
    O = OPERATORS[operator](n)
    eigs = eigendecompose(H)
    table = pair_table(eigs, O)
    assert len(eigs.sectors) == sectors and len(table.blocks) == blocks

    # the blocks squared are the dense |O_mn|^2, and every pair outside them weighs
    # nothing against the total
    v = eigs.vectors
    o2 = np.abs(v.T @ O @ v) ** 2
    inside = np.zeros(o2.shape, dtype=bool)
    for a, b, block in table.blocks:
        want, got = o2[np.ix_(a.columns, b.columns)], np.abs(block) ** 2
        if a is b:
            np.fill_diagonal(want, 0.0)
            np.fill_diagonal(got, 0.0)
        assert close_arrays(got, want)
        inside[np.ix_(a.columns, b.columns)] = inside[np.ix_(b.columns, a.columns)] = True
    assert np.sum(o2[~inside]) <= 1e-26 * np.sum(o2)


def _assert_assembled(eigs, A):
    """to_eigenbasis(eigs, A) is V^H A V to 1e-12 max|A| and exactly 0
    between the sector pairs A cannot link; the linked mask."""
    got = to_eigenbasis(eigs, A)
    v = eigs.vectors
    want = v.conj().T @ A @ v
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(A))
    linked = np.zeros(got.shape, dtype=bool)
    for a, b, _ in eigenbasis_blocks(eigs, A):
        linked[np.ix_(a.columns, b.columns)] = linked[np.ix_(b.columns, a.columns)] = True
    assert np.all(got[~linked] == 0.0)
    return linked


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("n", [5, 6])
def test_to_eigenbasis_assembles_linked_blocks(n, theta, operator):
    # the dense eigenbasis matrix from the linked blocks; only sigma^z_0 at
    # theta != 0, with no parity under H's one symmetry R, links every pair
    H, _ = q.build_tfim(q.ModelSpec(n, 0.9, theta))
    linked = _assert_assembled(eigendecompose(H), OPERATORS[operator](n))
    assert linked.all() == (operator == "z0" and theta != 0)


@pytest.mark.parametrize("theta, pairs", [(0.0, 4), (0.1, 3)])
def test_to_eigenbasis_x0_n8(theta, pairs):
    # sigma^x_0, the operator locality dresses, has no R parity: at theta = 0
    # it is P-odd and links the 4 pairs of opposite P, at theta != 0 all 3
    n = 8
    H, _ = q.build_tfim(q.ModelSpec(n, 0.4 * math.pi, theta))
    A = pauli_string_matrix(PauliString({0: "X"}), n)
    eigs = eigendecompose(H)
    links = [(a, b) for a, b, _ in eigenbasis_blocks(eigs, A)]
    assert len(links) == pairs
    assert all(a.basis.parity != b.basis.parity for a, b in links) == (theta == 0)
    assert _assert_assembled(eigs, A).all() == (theta != 0)


NON_TERMS = {
    "random": lambda n: q.random_hermitian(1 << n, 11),
    "random_real": lambda n: q.random_hermitian(1 << n, 11).real,
    "y0x2": lambda n: pauli_string_matrix(PauliString({0: "Y", 2: "X"}), n),
}


@pytest.mark.parametrize("operator", sorted(NON_TERMS))
@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("n", [5, 6])
def test_to_eigenbasis_non_terms(n, theta, operator):
    # a matrix that is not bit terms has no parity and links every pair of
    # the symmetric H's sectors, gathered with the reflected rows too
    H, _ = q.tfim_operators(q.ModelSpec(n, 0.9, theta))
    A = NON_TERMS[operator](n)
    assert FlipOperator.from_dense(A) is None
    eigs = eigendecompose(H)
    assert len(eigs.sectors) > 1
    assert _assert_assembled(eigs, A).all()


# -- the filters on the blocks against the dense route ---------------------------

ROUTE_OPERATORS = {
    "O": lambda n: q.tfim_operators(q.ModelSpec(n, 0.0))[1],
    "x0": lambda n: pauli_string_matrix(PauliString({0: "X"}), n),
    "z0": lambda n: pauli_string_matrix(PauliString({0: "Z"}), n),
    "random": lambda n: q.random_hermitian(1 << n, 13),
}


def _dense_filters(ens, A, spec, mu):
    """L, the time-domain L and the dressed A by the dense route: the d x d
    eigenbasis matrix, filtered elementwise, made Hermitian and taken back
    as V X V^H; with Tr rho L and Tr rho L^2."""
    eigs, p = ens.eigs, ens.populations
    Ae = to_eigenbasis(eigs, A)
    Abar = Ae - float(np.dot(p, Ae.diagonal().real)) * np.eye(ens.dim)
    e, E = eigs.levels, eigs.energies
    shifted = e - (e.max() + e.min()) / 2.0
    t, qk = _kernel_nodes(ens.beta, spec.horizon, spec.panels)

    def hermitian(x):
        return (x + x.conj().T) / 2.0

    L = hermitian(energy_kernel(np.subtract.outer(e, e), ens.beta) * Abar)
    L_time = hermitian(_cosine_kernel(shifted, shifted, t, qk) * Abar)
    dressed = hermitian(2.0 * mu / (mu**2 + np.subtract.outer(E, E) ** 2) * Ae)
    traces = (float(np.dot(p, L.diagonal().real)),
              float(np.dot(p, np.sum(np.abs(L) ** 2, axis=0))))
    return (*(dense_from_eigenbasis(eigs, x) for x in (L, L_time, dressed)), traces)


@pytest.mark.parametrize("operator", sorted(ROUTE_OPERATORS))
@pytest.mark.parametrize("n, gamma, theta", [
    (6, 0.9, 0.0), (7, 0.9, 0.1), (8, 0.05, 0.0), (9, 0.4 * math.pi, 0.1),
    (10, 0.3, 0.0), (10, 0.3, 0.1),
])
def test_filters_match_dense_route(n, gamma, theta, operator):
    # the SLD, the time-domain SLD and the dressed operator from the linked
    # blocks against the dense d x d route; gamma = 0.05 has doublets
    # straddling the P sectors
    H, _ = q.tfim_operators(q.ModelSpec(n, gamma, theta))
    ens = gibbs_ensemble(eigendecompose(H), 1.3)
    A = ROUTE_OPERATORS[operator](n)
    spec, mu = TimeKernelSpec(ens.beta, 12 * ens.beta, 32), 2.0
    L, L_time, dressed, (tr_l, tr_l2) = _dense_filters(ens, A, spec, mu)
    res = sld_matrix(ens, A)
    for got, want in ((res.L, L), (sld_time_domain(ens, A, spec), L_time),
                      (dressed_operator(ens.eigs, A, DressSpec(mu)), dressed)):
        assert close_arrays(got, want, rel=1e-14)
    assert math.isclose(res.trace_rho_L2, tr_l2, rel_tol=1e-12)
    assert abs(res.trace_rho_L - tr_l) <= 1e-12 * tr_l2


# -- the route out by runs against the np.ix_ scatter it replaced -----------------


@pytest.fixture
def checked_route_out(monkeypatch):
    """Check every call of ``from_eigenbasis`` in the library against
    ``scatter_from_eigenbasis``, byte for byte; the calls' block counts."""
    calls = []

    def checked(eigs, blocks):
        blocks = list(blocks)
        got = from_eigenbasis(eigs, blocks)
        assert _same_bits(got, scatter_from_eigenbasis(eigs, blocks))
        calls.append(len(blocks))
        return got

    for module in (q, *vars(q).values()):
        if hasattr(module, "from_eigenbasis"):
            monkeypatch.setattr(module, "from_eigenbasis", checked)
    return calls


def _route_out(ens, O, A):
    """The SLD, the time-domain SLD, rho (diagonal blocks) and A dressed, each
    through the checked route out, and the dense eigenvector columns."""
    sld_matrix(ens, O)
    sld_time_domain(ens, O, TimeKernelSpec(ens.beta, 8.0 * ens.beta, 32))
    ens.density_matrix()
    dressed_operator(ens.eigs, A, DressSpec(math.pi / ens.beta))
    assert _same_bits(ens.eigs.vectors, scatter_vectors(ens.eigs))


@pytest.mark.parametrize("operator", ["x0", "random"])
@pytest.mark.parametrize("n, gamma, theta", [
    *((n, 0.35 * math.pi, theta) for n in (2, 3, 4, 5, 8, 9, 10) for theta in (0.0, 0.1)),
    (5, 0.05, 0.1), (8, 0.05, 0.0),
])
def test_route_out_matches_scatter(checked_route_out, n, gamma, theta, operator):
    # sigma^x_0 has no R parity and at theta = 0 links only a != b blocks; a
    # random complex A links every pair; gamma = 0.05 has doublets
    # straddling the P sectors
    H, O = q.tfim_operators(q.ModelSpec(n, gamma, theta))
    d = 1 << n
    A = FlipOperator(np.zeros(d), ((d >> 1, 1.0),)) if operator == "x0" else q.random_hermitian(d, 7)
    _route_out(gibbs_ensemble(eigendecompose(H), 1.5), O, A)
    assert len(checked_route_out) == 4


@pytest.mark.parametrize("case", ["complex_h", "no_symmetry"])
def test_route_out_matches_scatter_one_sector(checked_route_out, case):
    if case == "complex_h":  # not bit terms: one sector with complex vectors
        H, O = q.tfim_operators(q.ModelSpec(5, 0.9, 0.1))
        H = H.dense().astype(complex)
    else:
        H, O = q.random_hermitian(64, 5), q.random_hermitian(64, 6).real
    ens = gibbs_ensemble(eigendecompose(H), 1.5)
    assert len(ens.eigs.sectors) == 1
    _route_out(ens, O, q.random_hermitian(len(H), 7))
    assert len(checked_route_out) == 4


def test_route_out_of_no_blocks():
    eigs = eigendecompose(q.tfim_operators(q.ModelSpec(4, 0.9, 0.1))[0])
    assert _same_bits(from_eigenbasis(eigs, []), np.zeros((16, 16)))


# -- the theta +- delta oracles against the dense overlap and density matrices --


@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("gamma", [0.05, 0.3 * math.pi])
@pytest.mark.parametrize("n", range(4, 11))
def test_oracles_match_dense(n, gamma, theta):
    # sqrt(Fid) summed per sector and rho out of the sector blocks, for the
    # fidelity oracle's pair of states at theta -/+ delta/2; gamma = 0.05 has
    # doublets straddling the P sectors
    H, O = q.tfim_operators(q.ModelSpec(n, gamma, theta))
    a, b = _shifted_gibbs(H, O, 1.5, (-5e-4, 5e-4))
    assert abs(_sqrt_fidelity(a, b) - dense_sqrt_fidelity(a, b)) <= 1e-14
    for ens in (a, b):
        assert close_arrays(ens.density_matrix(), dense_density_matrix(ens), rel=1e-14)


@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("gamma", [0.05, 0.3 * math.pi])
@pytest.mark.parametrize("n", range(4, 9))
def test_lyapunov_residual_matches_dense(n, gamma, theta):
    model, beta, delta = q.ModelSpec(n, gamma, theta), 1.5, 1e-4
    H, O = q.tfim_operators(model)
    ens = gibbs_ensemble(eigendecompose(H), beta)
    L = sld_matrix(ens, O).L
    plus, minus = (dense_density_matrix(e) for e in _shifted_gibbs(H, O, beta, (delta, -delta)))
    rho = dense_density_matrix(ens)
    want = float(np.max(np.abs((rho @ L + L @ rho) / 2.0 - (plus - minus) / (2.0 * delta))))
    assert abs(lyapunov_residual(ens, L, model, delta) - want) <= 1e-12


def test_fidelity_refuses_mismatched_symmetries():
    # X_0's coefficient cancels exactly at -delta/2, so that state has P and
    # R and the one at +delta/2 has neither: their sectors differ
    z0, z1, x0 = (pauli_string_matrix(PauliString({j: axis}), 2)
                  for j, axis in ((0, "Z"), (1, "Z"), (0, "X")))
    with pytest.raises(ValueError, match="different symmetry sectors"):
        qfi_fidelity_oracle_generic(z0 + z1 + 5e-4 * x0, x0, 1.0, 1e-3)


# -- the TFIM's bit terms against the dense matrices ----------------------------


def _reference_tfim(spec):
    """The dense TFIM by bit arithmetic, H_0 + theta O as one more d x d sum."""
    n, d = spec.n_sites, spec.dim
    idx = np.arange(d)
    zdiag = np.zeros(d)
    for i in range(n):
        zdiag += 1.0 - 2.0 * ((idx >> (n - 1 - i)) & 1)
    H = np.zeros((d, d))
    H[idx, idx] = np.sin(spec.gamma) * zdiag
    for i in range(n - 1):
        H[idx ^ ((1 << (n - 1 - i)) | (1 << (n - 2 - i))), idx] += -np.cos(spec.gamma)
    O = np.zeros((d, d))
    for i in range(n):
        O[idx ^ (1 << (n - 1 - i)), idx] += 1.0
    H += spec.theta * O
    return H, O


def _dense_symmetries(M):
    """P and R of a dense M by scanning its elements, the reference the
    terms' symmetries are tested against: (groups, rev), or None."""
    d = len(M)
    n = d.bit_length() - 1
    if d < 4:
        return None
    idx = np.arange(d)
    parity = np.zeros(d, dtype=np.intp)
    rev = np.zeros(d, dtype=np.intp)
    for k in range(n):
        bit = (idx >> k) & 1
        parity ^= bit
        rev |= bit << (n - 1 - k)
    even, odd = idx[parity == 0], idx[parity == 1]
    has_p = not M[np.ix_(even, odd)].any()
    has_r = np.array_equal(M[np.ix_(rev, rev)], M)
    if not (has_p or has_r):
        return None
    return (even, odd) if has_p else (idx,), rev if has_r else None


def _dense_gather(M, a, b, rev, mirrored=True):
    """The sector block of a dense M by fancy indexing, the reference of
    ``_gather`` from terms: S_a^T M S_b (``_adapted_basis``) by its four
    index blocks, A + sign_b C, and without a mirror plus
    sign_a (C' + sign_b D), halved, in ``_gather``'s order of operations."""
    def half(rows):
        x = M[np.ix_(rows, b.rows)]
        (np.add if b.sign > 0 else np.subtract)(x, M[np.ix_(rows, rev[b.rows])], out=x)
        return x

    if rev is None:
        return M[np.ix_(a.rows, b.rows)]
    block = half(a.rows)
    if not mirrored:
        (np.add if a.sign > 0 else np.subtract)(block, half(rev[a.rows]), out=block)
        block *= 0.5
    if a.sign > 0:
        block *= np.where(a.rows == rev[a.rows], np.sqrt(0.5), 1.0)[:, None]
    if b.sign > 0:
        block *= np.where(b.rows == rev[b.rows], np.sqrt(0.5), 1.0)
    return block


def _adapted_basis(a, rev, d):
    """S_a, the d x len(rows) columns of sector a's symmetry-adapted basis:
    (e_s + sign e_r(s)) / sqrt 2 for a pair, e_s for a palindrome."""
    S = np.zeros((d, len(a.rows)))
    k = np.arange(len(a.rows))
    pair = a.rows != rev[a.rows]
    S[a.rows, k] = np.where(pair, np.sqrt(0.5), 1.0)
    S[rev[a.rows[pair]], k[pair]] = a.sign * np.sqrt(0.5)
    return S


def _same_bits(x, y):
    """Equal dtype, shape and bytes: signed zeros must match too."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.9, math.pi / 2])
@pytest.mark.parametrize("theta", [0.0, -0.0, 0.1])
@pytest.mark.parametrize("n", [1, 2, 5, 6, 9, 10])
def test_terms_match_dense(n, gamma, theta):
    # the terms written densely are the reference build; their symmetries,
    # every gathered sector block of H and O and the shifted sum H + s O are
    # those of a dense scan and gather bit for bit (gamma = 0 puts signed
    # zeros on H's diagonal)
    spec = q.ModelSpec(n, gamma, theta)
    Hd, Od = _reference_tfim(spec)
    H, O = q.tfim_operators(spec)
    assert all(map(_same_bits, q.build_tfim(spec), (Hd, Od)))

    want, (groups, rev) = _dense_symmetries(Hd), _z2_symmetries(H, spec.dim)
    assert (want is None) == (n == 1)
    if want is None:
        assert len(groups) == 1 and rev is None
    else:
        assert len(groups) == len(want[0]) == (1 if theta else 2)
        assert all(map(_same_bits, groups, want[0])) and _same_bits(rev, want[1])
    bases = list(_sector_bases(groups, rev))
    for a in bases:
        for b in bases:
            for dense, terms in ((Hd, H), (Od, O)):
                assert _same_bits(_gather(terms.submatrix, a, b, rev, True),
                                  _dense_gather(dense, a, b, rev))

    for s in (1e-4, -1e-4, 5e-4, -0.0):
        assert _same_bits((H + s * O).dense(), Hd + s * Od)
        assert _same_bits((H + np.float64(s) * O).dense(), Hd + s * Od)


@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("n", [5, 6])
def test_unmirrored_gather_matches_dense(n, theta):
    # without a definite R parity the reflected rows are gathered too: every
    # sector block is the dense S_a^T M S_b, bit for bit by index blocks and
    # to 1e-15 max|M| as the matrix product
    H, O = q.tfim_operators(q.ModelSpec(n, 0.9, theta))
    d = 1 << n
    groups, rev = _z2_symmetries(H, d)
    bases = [b for b in _sector_bases(groups, rev) if len(b.rows)]
    x0, z0 = (pauli_string_matrix(PauliString({0: axis}), n) for axis in "XZ")
    for M in (H.dense(), O.dense(), x0, z0, q.random_hermitian(d, 3),
              q.random_hermitian(d, 3).real):
        _, sub, _ = _operator(M)
        for a in bases:
            for b in bases:
                got = _gather(sub, a, b, rev, False)
                # + 0.0 clears the signed zeros of a Pauli string's kron
                assert _same_bits(got, _dense_gather(M + 0.0, a, b, rev, False))
                want = _adapted_basis(a, rev, d).T @ M @ _adapted_basis(b, rev, d)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(M))


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_terms_eigensystem_matches_dense(theta):
    # the dense H and O are read as the same terms: the same eigensystem
    # and pair table (O's blocks), bit for bit
    H, O = q.tfim_operators(q.ModelSpec(8, 0.3, theta))
    Hd, Od = H.dense(), O.dense()
    got, want = eigendecompose(H), eigendecompose(Hd)
    assert _same_bits(got.energies, want.energies) and got.clusters == want.clusters
    assert all(_same_bits(x.vectors, y.vectors) for x, y in zip(got.sectors, want.sectors))
    t_got, t_want = pair_table(got, O), pair_table(want, Od)
    assert _same_bits(t_got.diag, t_want.diag)
    assert all(_same_bits(x[2], y[2]) for x, y in zip(t_got.blocks, t_want.blocks))
    assert _same_bits(to_eigenbasis(got, O), to_eigenbasis(want, Od))


@pytest.mark.parametrize("gamma", [0.0, 0.05, math.pi / 2])
@pytest.mark.parametrize("theta", [0.0, -0.0, 0.1])
@pytest.mark.parametrize("n", range(1, 11))
def test_from_dense_reads_terms(n, gamma, theta):
    # the terms written densely read back as the same terms: the diagonal's
    # bytes (signed zeros too) and the flips
    for A in q.tfim_operators(q.ModelSpec(n, gamma, theta)):
        B = FlipOperator.from_dense(A.dense())
        assert _same_bits(B.diagonal, A.diagonal) and B.flips == A.flips


def _with(M, i, j, value):
    M = M.copy()
    M[i, j] = M[j, i] = value
    return M


def test_from_dense_refuses():
    H, _ = q.build_tfim(q.ModelSpec(6, 0.9, 0.1))
    for M in (
        H.astype(complex),
        np.eye(6),  # not 2^n states
        np.zeros((4, 8)),
        np.zeros(4),
        _with(H, 0, 3, np.nextafter(H[0, 3], np.inf)),  # one entry of a bond
        q.random_hermitian(16, 3),
        q.random_hermitian(16, 3).real,  # real symmetric, not bit terms
        pauli_string_matrix(PauliString({0: "X", 1: "Z"}), 4),  # a bit-dependent sign
        _with(H, 0, 3, math.nan),
        _with(H, 5, 6, math.nan),
    ):
        assert FlipOperator.from_dense(M) is None
    with pytest.raises(ValueError, match="finite"):
        FlipOperator.from_dense(_with(H, 5, 5, math.nan))


def test_flip_operator_validation():
    with pytest.raises(ValueError, match="finite"):
        FlipOperator(np.zeros(4), ((1, math.inf),))
    with pytest.raises(ValueError, match="finite"):
        FlipOperator(np.array([0.0, math.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="distinct"):
        FlipOperator(np.zeros(4), ((1, 1.0), (1, 2.0)))
    for mask in (0, 4):
        with pytest.raises(ValueError, match="distinct"):
            FlipOperator(np.zeros(4), ((mask, 1.0),))
    with pytest.raises(ValueError, match="2\\^n"):
        FlipOperator(np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        FlipOperator(np.zeros(4)) + FlipOperator(np.zeros(8))
    # zero terms are dropped and the rest sorted by mask
    A = FlipOperator(np.zeros(4), ((3, 2.0), (1, -0.0), (2, 0.5)))
    assert A.flips == ((2, 0.5), (3, 2.0))
    assert not A.diagonal.flags.writeable


@pytest.fixture
def no_dense_tfim(monkeypatch):
    """Make every dense TFIM build raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a dense H or O was formed")

    monkeypatch.setattr(FlipOperator, "dense", refuse)
    for module in (q, *vars(q).values()):
        if hasattr(module, "build_tfim"):
            monkeypatch.setattr(module, "build_tfim", refuse)


@pytest.mark.parametrize("theta", [0.0, 0.1])
@pytest.mark.parametrize("axis", ["temperature", "gamma"])
def test_sweeps_form_no_dense_operator(no_dense_tfim, axis, theta):
    raw = {"model": {"n_sites": 6, "gamma": 0.4, "theta": theta},
           "sweep_axis": axis, "grid": [0.2, 0.5, 0.9]}
    if axis == "gamma":
        raw["fixed"] = {"beta": 2.0}
    assert len(q.harness.run_sweep(q.harness.config_from_dict(raw))) == 3


@pytest.mark.parametrize("theta", ["0", "0.1"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--beta", "2"],
    ["spectrum", "--beta", "1"],
    ["spectrum", "--beta", "1", "--kind", "dissipation"],
    ["sld-check", "--beta", "1", "--panels", "64"],
    ["locality", "--beta", "1"],
], ids=["bounds", "spectrum", "dissipation", "sld-check", "locality"])
def test_commands_form_no_dense_operator(no_dense_tfim, tmp_path, capsys, argv, theta):
    out = ["--out", str(tmp_path)] if argv[0] in ("spectrum", "locality") else []
    assert main([*argv, "--n-sites", "6", "--theta", theta, *out]) == 0


@pytest.fixture
def no_dense_vectors(monkeypatch):
    """Make every read of the dense eigenvector columns raise."""
    def refuse(self):
        raise AssertionError("the dense eigenvector columns were read")

    monkeypatch.setattr(EigenSystem, "vectors", property(refuse))


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_transforms_read_no_dense_vectors(no_dense_vectors, theta):
    # every operator, with or without parities or bit terms, is transformed
    # from the sector blocks, and the SLD, the time-domain SLD and the
    # dressed operator come back out of them
    n = 6
    H, O = q.tfim_operators(q.ModelSpec(n, 0.4, theta))
    ens = gibbs_ensemble(eigendecompose(H), 1.5)
    for A in (O, pauli_string_matrix(PauliString({0: "X"}), n),
              pauli_string_matrix(PauliString({0: "Z"}), n),
              q.random_hermitian(1 << n, 5)):
        assert to_eigenbasis(ens.eigs, A).shape == (1 << n,) * 2
        assert math.isfinite(q.thermal_average(ens, A))
        assert pair_table(ens.eigs, A).blocks
        assert sld_matrix(ens, A).L.shape == (1 << n,) * 2
        assert sld_time_domain(ens, A, TimeKernelSpec(1.5, 18.0, 16)).shape == (1 << n,) * 2
        assert dressed_operator(ens.eigs, A, DressSpec(1.0)).shape == (1 << n,) * 2


@pytest.mark.parametrize("theta", ["0", "0.1"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--beta", "2"],
    ["spectrum", "--beta", "1"],
    ["spectrum", "--beta", "1", "--kind", "dissipation"],
    ["sweep-temperature", "--points", "3"],
    ["sweep-gamma", "--points", "3"],
    ["locality", "--beta", "1"],
    ["sld-check", "--beta", "1", "--panels", "64"],
], ids=["bounds", "spectrum", "dissipation", "sweep-temperature", "sweep-gamma", "locality",
        "sld-check"])
def test_commands_read_no_dense_vectors(no_dense_vectors, tmp_path, capsys, argv, theta):
    out = [] if argv[0] in ("bounds", "sld-check") else ["--out", str(tmp_path)]
    assert main([*argv, "--n-sites", "6", "--theta", theta, *out]) == 0


def test_selftest_reads_no_dense_vectors(no_dense_vectors, capsys):
    assert main(["selftest"]) == 0


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_oracles_read_no_dense_vectors(no_dense_vectors, theta):
    # both theta +- delta oracles, the finite-difference susceptibility and
    # rho run on the sector blocks
    model = q.ModelSpec(6, 0.4, theta)
    H, O = q.tfim_operators(model)
    ens = gibbs_ensemble(eigendecompose(H), 1.5)
    assert ens.density_matrix().shape == (64, 64)
    assert math.isfinite(lyapunov_residual(ens, sld_matrix(ens, O).L, model, 1e-4))
    assert math.isfinite(q.qfi_fidelity_oracle(model, 1.5, 1e-3))
    assert math.isfinite(qfi_fidelity_oracle_generic(
        q.random_hermitian(16, 3), q.random_hermitian(16, 4), 1.5, 1e-3))
    assert math.isfinite(q.susceptibility_fd(model, 1.5, 1e-4))


@pytest.mark.parametrize("theta", ["0", "0.1"])
@pytest.mark.parametrize("argv, hamiltonians", [
    (["bounds", "--beta", "2"], 1),
    (["spectrum", "--beta", "1"], 1),
    (["spectrum", "--beta", "1", "--kind", "dissipation"], 1),
    (["sld-check", "--beta", "1", "--panels", "64"], 1),
    (["sweep-temperature", "--points", "3"], 1),
    (["sweep-gamma", "--points", "3"], 3),
], ids=["bounds", "spectrum", "dissipation", "sld-check", "sweep-temperature", "sweep-gamma"])
def test_commands_transform_o_once(monkeypatch, tmp_path, capsys, argv, hamiltonians, theta):
    # one eigenbasis transform of O per (eigensystem, O): every reader of a
    # command takes the one pair table; counted in every module that holds
    # eigenbasis_blocks, so a second transform anywhere shows
    calls = []

    def counted(eigs, A):
        calls.append(A)
        return eigenbasis_blocks(eigs, A)

    for module in (q.gibbs, q.spectral, q.sld, q.locality, q.fluctuation, q.qfi, q.harness):
        monkeypatch.setattr(module, "eigenbasis_blocks", counted, raising=False)
    out = [] if argv[0] in ("bounds", "sld-check") else ["--out", str(tmp_path)]
    assert main([*argv, "--n-sites", "6", "--theta", theta, *out]) == 0
    assert len(calls) == hamiltonians
