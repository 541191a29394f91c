"""Hermitian eigendecomposition in symmetry blocks, with explicit degeneracy
handling.

A Hamiltonian on 2^n basis states is split into the blocks of whichever
exact Z2 symmetries it has, the spin parity P = prod Z and the reflection R
of the chain, each detected bitwise from H itself, and every block is
diagonalized on its own.  H and the operators may be dense matrices or
``FlipOperator`` bit terms; the symmetries and the blocks of the latter are
read from the terms, bit for bit the dense ones, with no d x d matrix.  The
eigensystem keeps those blocks: per sector its basis map into the
symmetry-adapted basis, its block eigenvectors W and the positions of its
states in the ascending order.  An operator with a definite
parity under each of H's symmetries links only some sector pairs, and
``eigenbasis_blocks`` transforms only those, W_a^H A_ab W_b, the one way into
the eigenbasis (``to_eigenbasis`` assembles them densely).  Dense eigenvector
columns (``EigenSystem.vectors``) are assembled on first use, for the callers
whose output is a computational-basis matrix.  A matrix with neither symmetry
is one sector with the identity map, and so is the reference every block path
is tested against (``dense_eigensystem``).

Eigenvalues that coincide within a tolerance are grouped into clusters, and
every formula downstream reads each state's cluster-mean energy
(``EigenSystem.levels``) instead of its own.  The outputs are sums over pairs
of clusters, so they do not depend on the basis chosen inside a cluster: no
gauge is fixed.  A cluster may straddle symmetry sectors (the ferromagnetic
doublet pairs the two parities).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import TILE, FlipOperator, check_hermitian


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


class SectorBasis(NamedTuple):
    """A sector's symmetry-adapted basis: (e_{s_k} + sign e_{r(s_k)}) / sqrt 2
    for its m leading rows s_k, the pairs s_k < r(s_k), and e_{s_k} for the
    rest; ``parity`` indexes its spin-parity class.  Without R, m = 0 and
    sign = 1: the rows themselves."""

    parity: int
    rows: np.ndarray
    m: int
    sign: float


@dataclass(frozen=True)
class Sector:
    """One symmetry block of an eigensystem: its basis, its eigenvectors W in
    that basis and the positions of its states in the ascending order."""

    basis: SectorBasis
    vectors: np.ndarray
    columns: np.ndarray


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, the symmetry sectors holding the eigenvectors and
    the degeneracy clusters.  ``symmetries`` is H's (groups, rev) of
    ``_z2_symmetries``, or None for a single sector with the identity map."""

    energies: np.ndarray
    sectors: tuple
    clusters: tuple  # half-open (start, stop) index ranges
    eps_deg: float
    symmetries: tuple | None

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

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        """Dense eigenvector columns in the computational basis, assembled
        from the sector blocks on first use and kept."""
        rev = None if self.symmetries is None else self.symmetries[1]
        out = np.zeros((self.dim, self.dim), dtype=self.sectors[0].vectors.dtype)
        for sector in self.sectors:
            (_, s, m, sign), w, cols = sector.basis, sector.vectors, sector.columns
            if m:
                w = w.copy()
                w[:m] *= np.sqrt(0.5)
                out[np.ix_(rev[s[:m]], cols)] = sign * w[:m]
            out[np.ix_(s, cols)] = w
        return out

    def density_matrix(self, populations: np.ndarray) -> np.ndarray:
        v = self.vectors
        return (v * populations) @ v.conj().T


def _identity_sector(vectors: np.ndarray) -> Sector:
    idx = np.arange(len(vectors))
    return Sector(SectorBasis(0, idx, 0, 1.0), vectors, idx)


def dense_eigensystem(energies, vectors, clusters, eps_deg) -> EigenSystem:
    """The eigensystem of ascending ``energies`` and eigenvector columns
    ``vectors`` as one sector with the identity map."""
    return EigenSystem(energies, (_identity_sector(vectors),), clusters, eps_deg, None)


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


def _checked(M):
    """M validated by ``check_hermitian``; a ``FlipOperator`` is Hermitian by
    construction and passes as it is."""
    return M if isinstance(M, FlipOperator) else check_hermitian(M)


def _links(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether any element M[rows, cols] is nonzero, TILE rows at a time."""
    return any(np.take(M[rows[i:i + TILE]], cols, axis=1).any()
               for i in range(0, len(rows), TILE))


def _links_parity(M, groups: tuple, flip: int) -> bool:
    """Whether M has a nonzero element between states whose spin parities
    differ by ``flip`` (1: opposite parities, 0: equal ones), for the two
    parity classes ``groups``; a ``FlipOperator`` reads it from its terms."""
    if isinstance(M, FlipOperator):
        return M.links_parity(flip)
    if flip:
        return _links(M, *groups)
    return any(_links(M, g, g) for g in groups)


def _mirrored(M, rev: np.ndarray, sign: int) -> bool:
    """Whether M[r, r] == sign M exactly, TILE rows at a time; a
    ``FlipOperator`` reads it from its terms."""
    if isinstance(M, FlipOperator):
        return M.mirrored(rev, sign)
    return all(np.array_equal(np.take(M[rev[i:i + TILE]], rev, axis=1),
                              M[i:i + TILE] if sign > 0 else -M[i:i + TILE])
               for i in range(0, len(rev), TILE))


def _z2_symmetries(H):
    """The exact Z2 symmetries of H: (groups, rev), or None without one.

    On d = 2^n >= 4 states the index bits are the sites (site 0 the most
    significant).  The spin parity P = prod Z holds when no element of H
    links an even-parity state to an odd one; ``groups`` is then the two
    parity classes of indices, else all indices.  The reflection
    R: i -> n-1-i acts on indices as the bit reversal r and holds when
    H[r, r] == H; ``rev`` is then r, else None.  Both tests are exact, so
    an H one ulp off a symmetry does not have it.  A ``FlipOperator``'s are
    read from its terms: P holds when every mask has even popcount, R when
    the diagonal and the set of masks with their coefficients are invariant
    under r.
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
    has_p = not _links_parity(H, (even, odd), 1)
    has_r = _mirrored(H, rev, 1)
    if not (has_p or has_r):
        return None
    return (even, odd) if has_p else (idx,), rev if has_r else None


def _sector_bases(groups: tuple, rev: np.ndarray | None):
    """The ``SectorBasis`` of each sector.  Without R a sector is one parity
    group.  Under R each group's representatives s <= r(s), pairs first,
    then palindromes s = r(s), span R-even; its pairs alone span R-odd."""
    for g, s in enumerate(groups):
        if rev is None:
            yield SectorBasis(g, s, 0, 1.0)
            continue
        s = np.concatenate([s[s < rev[s]], s[s == rev[s]]])
        m = int(np.count_nonzero(s != rev[s]))
        yield SectorBasis(g, s, m, 1.0)
        yield SectorBasis(g, s[:m], m, -1.0)


def _palindrome_weights(rows: np.ndarray, rev: np.ndarray) -> np.ndarray:
    return np.where(rows == rev[rows], np.sqrt(0.5), 1.0)


def _submatrix(M, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M[np.ix_(rows, cols)], a new array; a ``FlipOperator`` fills it from
    its terms."""
    return M.submatrix(rows, cols) if isinstance(M, FlipOperator) else M[np.ix_(rows, cols)]


def _gather(M, a: SectorBasis, b: SectorBasis, rev: np.ndarray | None):
    """M's block between sectors a and b in their symmetry-adapted bases.

    For M with M[r, r] = sign_a sign_b M, the block is
    (A + sign_b C)_kl w_k w_l with A = M[s_a, s_b], C = M[s_a, r(s_b)] and
    w = 1 for a pair, 1/sqrt 2 for a palindrome (R-odd sectors hold pairs
    only).  With ``rev`` None the bases are the rows themselves, ascending,
    so two sectors of all d rows of a dense M are the identity map and the
    block is M.  A and C of a ``FlipOperator`` equal the dense ones bit for
    bit, and so does the block."""
    if rev is None:
        full = isinstance(M, np.ndarray) and len(a.rows) == len(b.rows) == len(M)
        return M if full else _submatrix(M, a.rows, b.rows)
    block = _submatrix(M, a.rows, b.rows)
    (np.add if b.sign > 0 else np.subtract)(block, _submatrix(M, a.rows, rev[b.rows]), out=block)
    if a.sign > 0:
        block *= _palindrome_weights(a.rows, rev)[:, None]
    if b.sign > 0:
        block *= _palindrome_weights(b.rows, rev)
    return block


def _sector_eigh(H: np.ndarray, groups: tuple, rev: np.ndarray | None):
    """Ascending energies, sorted stably across sectors, and the sectors
    from one ``eigh`` per block of H."""
    parts = [(*np.linalg.eigh(_gather(H, b, b, rev)), b)
             for b in _sector_bases(groups, rev) if len(b.rows)]
    energies = np.concatenate([p[0] for p in parts])
    order = np.argsort(energies, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    sectors, start = [], 0
    for e, w, basis in parts:
        sectors.append(Sector(basis, w, column[start:start + len(e)]))
        start += len(e)
    return energies[order], tuple(sectors)


def eigendecompose(H, eps_deg: float | None = None) -> EigenSystem:
    """Full eigendecomposition with degeneracy clusters at the tolerance
    ``resolve_eps_deg(energies, eps_deg)``.

    H is a Hermitian matrix or a ``FlipOperator``, whose blocks are read from
    its terms.  When H has an exact spin-parity or reflection symmetry
    (``_z2_symmetries``), LAPACK ``eigh`` runs once per symmetry block and
    the energies are sorted stably across blocks; otherwise H is one block.
    The eigensystem keeps the block eigenvectors.
    """
    H = _checked(H)
    symmetries = _z2_symmetries(H)
    groups, rev = symmetries or ((np.arange(H.shape[0]),), None)
    try:
        energies, sectors = _sector_eigh(H, groups, rev)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    eps = resolve_eps_deg(energies, eps_deg)
    return EigenSystem(
        energies=energies,
        sectors=sectors,
        clusters=cluster_degeneracies(energies, eps),
        eps_deg=eps,
        symmetries=symmetries,
    )


def _linked_sectors(eigs: EigenSystem, A: np.ndarray):
    """The sector pairs (a, b), a before or at b, that A can link, and the
    reflection their gather uses.

    A links sectors of spin-parity classes g_a, g_b when g_a xor g_b is its
    P parity (0 when it links only equal parities, 1 when only opposite
    ones) and sectors of R signs s_a, s_b when s_a s_b is its R parity
    (A[r, r] = +-A), each tested exactly as ``_z2_symmetries`` tests H.
    Without a definite parity under one of H's symmetries, A takes the one
    dense sector of ``vectors``."""
    if eigs.symmetries is None:
        (sector,) = eigs.sectors
        return [(sector, sector)], None
    groups, rev = eigs.symmetries
    flip = 0 if len(groups) == 1 or not _links_parity(A, groups, 1) else (
        None if _links_parity(A, groups, 0) else 1)
    sign = 1 if rev is None else next((s for s in (1, -1) if _mirrored(A, rev, s)), None)
    if flip is None or sign is None:
        dense = _identity_sector(eigs.vectors)
        return [(dense, dense)], None
    sectors = eigs.sectors
    return [(a, b) for i, a in enumerate(sectors) for b in sectors[i:]
            if a.basis.parity ^ b.basis.parity == flip
            and a.basis.sign * b.basis.sign == sign], rev


def eigenbasis_blocks(eigs: EigenSystem, A):
    """Validate ``A`` (a matrix or a ``FlipOperator``) as Hermitian of the
    eigensystem's dimension; the sector pairs (a, b) it links
    (``_linked_sectors``) and ``block(a, b)``, which gives W_a^H A_ab W_b,
    A's eigenbasis matrix elements between the states of sectors a and b.
    The elements between b and a are the conjugate transpose, and those of
    the pairs not listed are zero."""
    A = _checked(A)
    if A.shape[0] != eigs.dim:
        raise ValueError("dimension mismatch")
    pairs, rev = _linked_sectors(eigs, A)

    def block(a: Sector, b: Sector) -> np.ndarray:
        return a.vectors.conj().T @ _gather(A, a.basis, b.basis, rev) @ b.vectors

    return pairs, block


def rotate_within_clusters(eigs: EigenSystem, O: np.ndarray) -> EigenSystem:
    """The eigensystem in the gauge where O is diagonal inside each
    degenerate cluster: one ``eigh`` of O's projection per cluster, as one
    dense sector.  No formula needs a gauge; this one serves as a reference
    basis."""
    if all(b - a == 1 for a, b in eigs.clusters):
        return eigs
    vectors = eigs.vectors.astype(np.result_type(eigs.vectors, O))
    for a, b in eigs.clusters:
        if b - a > 1:
            block = vectors[:, a:b]
            o = block.conj().T @ (O @ block)
            _, w = np.linalg.eigh((o + o.conj().T) / 2.0)
            vectors[:, a:b] = block @ w
    return dense_eigensystem(eigs.energies, vectors, eigs.clusters, eigs.eps_deg)


def to_eigenbasis(eigs: EigenSystem, A: np.ndarray) -> np.ndarray:
    """A_mn = <m|A|n> from A's linked blocks (``eigenbasis_blocks`` validates A), 0 elsewhere."""
    pairs, block = eigenbasis_blocks(eigs, A)
    if len(pairs[0][0].columns) == eigs.dim:  # the one dense sector
        return block(*pairs[0])
    a_dtype = A.dtype if isinstance(A, FlipOperator) else np.asarray(A).dtype
    out = np.zeros((eigs.dim,) * 2, dtype=np.result_type(eigs.sectors[0].vectors, a_dtype))
    for a, b in pairs:
        out[np.ix_(a.columns, b.columns)] = x = block(a, b)
        if a is not b:
            out[np.ix_(b.columns, a.columns)] = x.conj().T
    return out


def from_eigenbasis(eigs: EigenSystem, A_eig: np.ndarray) -> np.ndarray:
    v = eigs.vectors
    return v @ A_eig @ v.conj().T
