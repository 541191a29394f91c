"""Hermitian eigendecomposition with explicit degeneracy handling.

Eigenvalues that coincide within a tolerance are grouped into clusters, and
the eigenbasis inside each cluster is rotated so that a chosen observable is
diagonal there.  That rotation is the numerical counterpart of picking the
gauge in which within-degenerate-subspace matrix elements of the conjugate
observable vanish, and every downstream formula assumes it has been applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import check_hermitian


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

    def cluster_ids(self) -> np.ndarray:
        """Integer cluster label for each eigenvalue index."""
        ids = np.empty(self.dim, dtype=np.int64)
        for k, (a, b) in enumerate(self.clusters):
            ids[a:b] = k
        return ids

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


def eigendecompose(H: np.ndarray, eps_deg: float | None = None) -> EigenSystem:
    """Full eigendecomposition (LAPACK ``eigh``) with degeneracy clusters at
    the tolerance ``resolve_eps_deg(energies, eps_deg)``."""
    H = check_hermitian(H)
    try:
        energies, vectors = np.linalg.eigh(H)
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
    """Diagonalize the projection of ``O`` inside each degenerate cluster.

    Energies and clusters are unchanged; only eigenvector columns inside
    clusters of size > 1 are re-mixed (a unitary transformation), so the
    result is still a valid eigenbasis of the original Hamiltonian, of the
    result type of (vectors, O).  Without a cluster O is not read.
    """
    if all(b - a == 1 for a, b in eigs.clusters):
        return eigs
    O = check_hermitian(O)
    if O.shape[0] != eigs.dim:
        raise ValueError("dimension mismatch between eigensystem and O")
    vectors = eigs.vectors.astype(np.result_type(eigs.vectors, O))
    for a, b in eigs.clusters:
        if b - a < 2:
            continue
        block = vectors[:, a:b]
        o_sub = block.conj().T @ O @ block
        o_sub = (o_sub + o_sub.conj().T) / 2.0
        _, w = np.linalg.eigh(o_sub)
        vectors[:, a:b] = block @ w
    return EigenSystem(
        energies=eigs.energies,
        vectors=vectors,
        clusters=eigs.clusters,
        eps_deg=eigs.eps_deg,
    )


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
