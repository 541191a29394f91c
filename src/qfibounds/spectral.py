"""Hermitian eigendecomposition with explicit degeneracy handling.

A Hamiltonian on 2^n basis states is split into the blocks of whichever
exact Z2 symmetries it has, the spin parity P = prod Z and the reflection R
of the chain, each detected bitwise from H itself; every block is
diagonalized on its own and the block eigenvectors are assembled into dense
columns.  A matrix with neither symmetry takes one dense ``eigh``, the
reference the sector path is tested against.

Eigenvalues that coincide within a tolerance are grouped into clusters, and
every formula downstream reads each state's cluster-mean energy
(``EigenSystem.levels``) instead of its own.  The outputs are sums over pairs
of clusters, so they do not depend on the basis chosen inside a cluster: no
gauge is fixed.  A cluster may straddle symmetry sectors (the ferromagnetic
doublet pairs the two parities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import TILE, check_hermitian


def resolve_eps_deg(energies: np.ndarray, eps_deg: float | None) -> float:
    """Absolute energy tolerance deciding which eigenvalues are degenerate.

    ``eps_deg=None`` resolves to 1e-8 * max(1, spectral range) of the
    ascending ``energies``.  Exponentially small splittings (e.g. the
    ferromagnetic doublet of the Ising chain) must stay above the resolved
    tolerance to be treated as non-degenerate.
    """
    if eps_deg is not None:
        if eps_deg <= 0:
            raise ValueError("eps_deg must be positive")
        return eps_deg
    if len(energies) == 0:
        return 1e-8
    return 1e-8 * max(1.0, float(energies[-1] - energies[0]))


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, eigenvector columns and degeneracy clusters."""

    energies: np.ndarray
    vectors: np.ndarray
    clusters: tuple  # half-open (start, stop) index ranges
    eps_deg: float

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def levels(self) -> np.ndarray:
        """Each state's cluster-mean energy, bit-identical across its cluster
        and equal to its own energy in a cluster of one."""
        starts, stops = np.array(self.clusters, dtype=np.intp).reshape(-1, 2).T
        means = np.add.reduceat(self.energies, starts) / (stops - starts)
        return np.repeat(means, stops - starts)

    def density_matrix(self, populations: np.ndarray) -> np.ndarray:
        v = self.vectors
        return (v * populations) @ v.conj().T


def cluster_degeneracies(energies: np.ndarray, eps: float) -> tuple:
    """Greedy chaining: adjacent gaps <= eps join one cluster."""
    energies = np.asarray(energies, dtype=float)
    if np.any(np.diff(energies) < 0):
        raise ValueError("energies must be ascending")
    clusters = []
    start = 0
    for i in range(1, len(energies)):
        if energies[i] - energies[i - 1] > eps:
            clusters.append((start, i))
            start = i
    if len(energies) > 0:
        clusters.append((start, len(energies)))
    return tuple(clusters)


def _z2_symmetries(H: np.ndarray):
    """The exact Z2 symmetries of H: (groups, rev), or None without one.

    On d = 2^n >= 4 states the index bits are the sites (site 0 the most
    significant).  The spin parity P = prod Z holds when no element of H
    links an even-parity state to an odd one; ``groups`` is then the two
    parity classes of indices, else all indices.  The reflection
    R: i -> n-1-i acts on indices as the bit reversal r and holds when
    H[r, r] == H; ``rev`` is then r, else None.  Both tests are exact, so
    an H one ulp off a symmetry does not have it.
    """
    d = H.shape[0]
    n = d.bit_length() - 1
    if d < 4 or d != 1 << n:
        return None
    idx = np.arange(d)
    parity = np.zeros(d, dtype=np.intp)
    rev = np.zeros(d, dtype=np.intp)
    for k in range(n):
        bit = (idx >> k) & 1
        parity ^= bit
        rev |= bit << (n - 1 - k)
    even, odd = idx[parity == 0], idx[parity == 1]
    has_p = not any(np.take(H[even[i:i + TILE]], odd, axis=1).any()
                    for i in range(0, len(even), TILE))
    has_r = all(np.array_equal(np.take(H[rev[i:i + TILE]], rev, axis=1), H[i:i + TILE])
                for i in range(0, d, TILE))
    if not (has_p or has_r):
        return None
    return (even, odd) if has_p else (idx,), rev if has_r else None


def _sector_blocks(H: np.ndarray, groups: tuple, rev: np.ndarray | None):
    """(block of H, s, m, sign) for each sector: its basis vectors are
    (e_{s_k} + sign e_{r(s_k)}) / sqrt 2 for its m leading rows k < m, the
    pairs s_k < r(s_k), and e_{s_k} for the rest.

    Without R a sector is one parity group (m = 0).  Under R each group's
    representatives s <= r(s), pairs first, then palindromes s = r(s), span
    R-even; its pairs alone span R-odd.  With A = H[s, s] and C = H[s, r(s)],
    R's invariance of H gives the block (A + sign C)_ij w_i w_j, with w = 1
    for a pair and 1/sqrt 2 for a palindrome, so both R parities share one
    A and one C."""
    for s in groups:
        if rev is None:
            yield H[np.ix_(s, s)], s, 0, 1.0
            continue
        s = np.concatenate([s[s < rev[s]], s[s == rev[s]]])
        m = int(np.count_nonzero(s != rev[s]))
        a = H[np.ix_(s, s)]
        c = H[np.ix_(s, rev[s])]
        odd = a[:m, :m] - c[:m, :m]
        a += c
        del c
        w = np.where(s == rev[s], np.sqrt(0.5), 1.0)
        a *= w[:, None]
        a *= w
        yield a, s, m, 1.0
        yield odd, s[:m], m, -1.0


def _sector_eigh(H: np.ndarray, groups: tuple, rev: np.ndarray | None):
    """Ascending energies, sorted stably across sectors, and dense
    eigenvector columns from one ``eigh`` per sector block."""
    parts = [(*np.linalg.eigh(block), s, m, sign)
             for block, s, m, sign in _sector_blocks(H, groups, rev) if len(s)]
    energies = np.concatenate([p[0] for p in parts])
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    vectors = np.zeros(H.shape, dtype=H.dtype)
    start = 0
    for e, w, s, m, sign in parts:
        cols = column[start:start + len(e)]
        start += len(e)
        if m:
            w[:m] *= np.sqrt(0.5)
            vectors[np.ix_(rev[s[:m]], cols)] = sign * w[:m]
        vectors[np.ix_(s, cols)] = w
    return energies[order], vectors


def eigendecompose(H: np.ndarray, eps_deg: float | None = None) -> EigenSystem:
    """Full eigendecomposition with degeneracy clusters at the tolerance
    ``resolve_eps_deg(energies, eps_deg)``.

    When H has an exact spin-parity or reflection symmetry
    (``_z2_symmetries``), LAPACK ``eigh`` runs once per symmetry block, the
    block eigenvectors are scattered into dense d x d columns and the
    energies are sorted stably across blocks; otherwise one dense ``eigh``
    of H.  Either way the columns are orthonormal eigenvectors of H, and
    every downstream formula takes them unchanged.
    """
    H = check_hermitian(H)
    symmetries = _z2_symmetries(H)
    try:
        if symmetries is None:
            energies, vectors = np.linalg.eigh(H)
        else:
            energies, vectors = _sector_eigh(H, *symmetries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    eps = resolve_eps_deg(energies, eps_deg)
    return EigenSystem(
        energies=energies,
        vectors=vectors,
        clusters=cluster_degeneracies(energies, eps),
        eps_deg=eps,
    )


def rotate_within_clusters(eigs: EigenSystem, O: np.ndarray) -> EigenSystem:
    """The eigensystem in the gauge where O is diagonal inside each
    degenerate cluster: one ``eigh`` of O's projection per cluster.  No
    formula needs a gauge; this one serves as a reference basis."""
    if all(b - a == 1 for a, b in eigs.clusters):
        return eigs
    vectors = eigs.vectors.astype(np.result_type(eigs.vectors, O))
    for a, b in eigs.clusters:
        if b - a > 1:
            block = vectors[:, a:b]
            o = block.conj().T @ (O @ block)
            _, w = np.linalg.eigh((o + o.conj().T) / 2.0)
            vectors[:, a:b] = block @ w
    return EigenSystem(eigs.energies, vectors, eigs.clusters, eigs.eps_deg)


def to_eigenbasis(eigs: EigenSystem, A: np.ndarray) -> np.ndarray:
    """Validate ``A`` as Hermitian of the eigensystem's dimension; its matrix
    elements in the eigenbasis, A_mn = <m|A|n>."""
    A = check_hermitian(A)
    if A.shape[0] != eigs.dim:
        raise ValueError("dimension mismatch")
    v = eigs.vectors
    return v.conj().T @ A @ v


def from_eigenbasis(eigs: EigenSystem, A_eig: np.ndarray) -> np.ndarray:
    v = eigs.vectors
    return v @ A_eig @ v.conj().T
