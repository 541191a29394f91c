"""Hermitian eigendecomposition in symmetry blocks, with explicit degeneracy
handling.

A Hamiltonian on 2^n basis states is split into the blocks of whichever
exact Z2 symmetries its ``FlipOperator`` bit terms have, the spin parity
P = prod Z and the reflection R of the chain, and every block is
diagonalized on its own; the eigensystem keeps per sector its adapted basis
S, eigenvectors W and states' positions in the ascending order.  An operator
(``_operator``: bit terms, or a Hermitian matrix with no parity) links the
sector pairs its parities allow, and its blocks go into the eigenbasis as
W_a^H A_ab W_b (``eigenbasis_blocks``, an a = b one exactly Hermitian),
through elementwise filters (``filter_blocks``) and back as S_a W_a X_ab
W_b^H S_b^T (``from_eigenbasis``) with no d x d eigenbasis matrix;
``to_eigenbasis`` is their dense view.  An H with neither symmetry is one
sector with the identity map, the reference every block path is tested
against.

Eigenvalues that coincide within a tolerance are grouped into clusters, and
every formula downstream but ``locality.dressed_operator``, whose filter
reads the raw ``energies``, reads each state's cluster-mean energy
(``EigenSystem.levels``).  The outputs are sums over pairs of clusters, so
they do not depend on the basis chosen inside a cluster: no gauge is fixed.
A cluster may straddle symmetry sectors (the ferromagnetic doublet pairs
the two parities).
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
        if not 0 < eps_deg < np.inf:  # NaN fails
            raise ValueError(f"eps_deg must be finite and positive, got {eps_deg}")
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
    ``_z2_symmetries``: one group of all indices and rev None for a single
    sector with the identity map.  Every transform and oracle reads the
    sectors; the dense ``vectors`` serve only the reference gauge."""

    energies: np.ndarray
    sectors: tuple
    clusters: tuple  # half-open (start, stop) index ranges
    eps_deg: float
    symmetries: tuple

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
        """Dense eigenvector columns in the computational basis, S W per
        sector, assembled on first use and kept: each sector's rows go into
        its runs (``_runs``), then one gather puts them in row order."""
        pos, parts = _runs(self)
        out = np.zeros((self.dim, self.dim), dtype=self.sectors[0].vectors.dtype)
        for sector in self.sectors:
            for rows, k, sign in parts[sector.basis.parity, sector.basis.sign]:
                out[rows, sector.columns] = (sign * _weights(sector.basis))[k, None] * sector.vectors[k]
        return out[pos]


def dense_eigensystem(energies, vectors, clusters, eps_deg) -> EigenSystem:
    """The eigensystem of ascending ``energies`` and eigenvector columns
    ``vectors`` as one sector with the identity map."""
    idx = np.arange(len(vectors))
    sector = Sector(SectorBasis(0, idx, 0, 1.0), vectors, idx)
    return EigenSystem(energies, (sector,), clusters, eps_deg, ((idx,), None))


def cluster_degeneracies(energies: np.ndarray, eps: float) -> tuple:
    """Greedy chaining: adjacent gaps <= eps join one cluster (a NaN gap
    joins too)."""
    energies = np.asarray(energies, dtype=float)
    gaps = np.diff(energies)
    if np.any(gaps < 0):
        raise ValueError("energies must be ascending")
    cuts = (np.flatnonzero(gaps > eps) + 1).tolist()
    return tuple(zip([0, *cuts], [*cuts, len(energies)])) if len(energies) else ()


def _operator(A):
    """(terms, sub, d) of every operator on d states: a ``FlipOperator`` is
    its own terms, a dense matrix is read by ``FlipOperator.from_dense``, and
    one that is not bit terms is validated by ``check_hermitian`` and has
    terms None.  sub(rows, cols) is A[np.ix_(rows, cols)], filled from the
    terms (``FlipOperator.submatrix``) or indexed from the matrix."""
    terms = A if isinstance(A, FlipOperator) else FlipOperator.from_dense(A)
    if terms is not None:
        return terms, terms.submatrix, terms.shape[0]
    A = check_hermitian(A)
    idx = np.arange(len(A))  # all of A in order (one sector) is A, which is only read
    return None, lambda rows, cols: (A if np.array_equal(rows, idx) and np.array_equal(cols, idx)
                                     else A[np.ix_(rows, cols)]), len(A)


def _z2_symmetries(H: FlipOperator | None, d: int):
    """The exact Z2 symmetries of the bit terms H on d states, (groups, rev).

    On d = 2^n >= 4 states the index bits are the sites (site 0 the most
    significant).  The spin parity P = prod Z holds when every mask has even
    popcount, so no term links an even-parity state to an odd one;
    ``groups`` is then the two parity classes of indices, else all indices.
    The reflection R: i -> n-1-i acts on indices as the bit reversal r and
    holds when the diagonal and the masks with their coefficients are
    invariant under r; ``rev`` is then r, else None.  Both tests are exact,
    so terms one ulp off a symmetry do not have it.  Without terms (H None)
    there is neither.
    """
    idx = np.arange(d)
    n = d.bit_length() - 1
    if H is None or d < 4:
        return (idx,), None
    parity = np.zeros(d, dtype=np.intp)
    rev = np.zeros(d, dtype=np.intp)
    for k in range(n):
        bit = (idx >> k) & 1
        parity ^= bit
        rev |= bit << (n - 1 - k)
    even, odd = idx[parity == 0], idx[parity == 1]
    has_p = not H.links_parity(1)
    has_r = H.mirrored(rev, 1)
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


def _weights(basis: SectorBasis) -> np.ndarray:
    """S's nonzero in each column: 1/sqrt 2 for a pair, else 1."""
    return np.where(np.arange(len(basis.rows)) < basis.m, np.sqrt(0.5), 1.0)


def _runs(eigs: EigenSystem):
    """(pos, parts): a row order in which each sector unfolds (S, the reverse
    of ``_gather``) onto at most two runs.  A parity group's run is its
    R-even (or only) sector's rows s, then r(s[:m]): R-even spans it, R-odd
    (rows s[:m]) takes its head and tail.  pos[i] is row i's place;
    parts[parity, sign] lists (run slice, block-row slice, sign) per run."""
    rev, order, parts, start = eigs.symmetries[1], [], {}, 0
    for sector in eigs.sectors:  # a group's R-even sector comes before its R-odd one
        g, s, m, sign = sector.basis
        if sign > 0:
            head, tail = start, start + len(s)
            order += [s, rev[s[:m]]] if m else [s]
            start = tail + m
        parts[g, sign] = [(slice(head, head + len(s)), slice(None), 1.0)] + (
            [(slice(tail, tail + m), slice(0, m), sign)] if m else [])
    return np.argsort(np.concatenate(order)), parts


def _gather(sub, a: SectorBasis, b: SectorBasis, rev: np.ndarray | None, mirrored: bool):
    """The block of M between sectors a and b in their symmetry-adapted
    bases, from sub(rows, cols) = M[np.ix_(rows, cols)] (``_operator``).

    With w = 1 for a pair and 1/sqrt 2 for a palindrome (R-odd sectors hold
    pairs only), A = M[s_a, s_b], C = M[s_a, r(s_b)], C' = M[r(s_a), s_b]
    and D = M[r(s_a), r(s_b)], the block is
    (A + sign_b C + sign_a C' + sign_a sign_b D)_kl w_k w_l / 2.  When M is
    ``mirrored``, M[r, r] = sign_a sign_b M, the reflected rows repeat the
    others and the block is (A + sign_b C)_kl w_k w_l.  With ``rev`` None the
    bases are the rows themselves and the block is A."""
    if rev is None:
        return sub(a.rows, b.rows)

    def half(rows):  # M[rows, s_b] + sign_b M[rows, r(s_b)]
        x = sub(rows, b.rows)
        (np.add if b.sign > 0 else np.subtract)(x, sub(rows, rev[b.rows]), out=x)
        return x

    block = half(a.rows)
    if not mirrored:
        (np.add if a.sign > 0 else np.subtract)(block, half(rev[a.rows]), out=block)
        block *= 0.5
    if a.sign > 0:
        block *= _palindrome_weights(a.rows, rev)[:, None]
    if b.sign > 0:
        block *= _palindrome_weights(b.rows, rev)
    return block


def _sector_eigh(sub, groups: tuple, rev: np.ndarray | None):
    """Ascending energies, sorted stably across sectors, and the sectors
    from one ``eigh`` per block of H, mirrored under its own R
    (``_gather``)."""
    parts = [(*np.linalg.eigh(_gather(sub, b, b, rev, True)), b)
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

    H is a Hermitian matrix or a ``FlipOperator`` (``_operator``).  When its
    bit terms have an exact spin-parity or reflection symmetry
    (``_z2_symmetries``), LAPACK ``eigh`` runs once per symmetry block, read
    from the terms, and the energies are sorted stably across blocks;
    otherwise H is one block.  The eigensystem keeps the block eigenvectors.
    """
    terms, sub, d = _operator(H)
    groups, rev = symmetries = _z2_symmetries(terms, d)
    try:
        energies, sectors = _sector_eigh(sub, groups, rev)
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


def _linked_sectors(eigs: EigenSystem, A: FlipOperator | None):
    """The sector pairs (a, b), a before or at b, that the bit terms A can
    link, and A's R parity.

    A links sectors of spin-parity classes g_a, g_b when g_a xor g_b is its
    P parity (0 when it links only equal parities, 1 when only opposite
    ones) and sectors of R signs s_a, s_b when s_a s_b is its R parity
    (A[r, r] = +-A), each read exactly from the terms as ``_z2_symmetries``
    reads H's.  A parity that is None, because A has none, H has no such
    symmetry or there are no terms (A None), links every pair under it."""
    groups, rev = eigs.symmetries
    flip = None if A is None or len(groups) == 1 else (
        0 if not A.links_parity(1) else None if A.links_parity(0) else 1)
    sign = None if A is None or rev is None else next(
        (s for s in (1, -1) if A.mirrored(rev, s)), None)
    sectors = eigs.sectors
    return [(a, b) for i, a in enumerate(sectors) for b in sectors[i:]
            if flip in (None, a.basis.parity ^ b.basis.parity)
            and sign in (None, a.basis.sign * b.basis.sign)], sign


def eigenbasis_blocks(eigs: EigenSystem, A):
    """A's eigenbasis blocks (a, b, W_a^H A_ab W_b) for the sector pairs a <= b
    it links (``_linked_sectors``); (b, a) is the conjugate transpose, and the
    pairs not listed are zero.  An a = b block is made exactly Hermitian as it
    is formed, TILE columns at a time: its diagonal real and each entry below
    the diagonal the conjugate of its mirror above.  A (``_operator``) is
    validated at the call as Hermitian of the eigensystem's dimension; the
    blocks come lazily."""
    terms, sub, d = _operator(A)
    if d != eigs.dim:
        raise ValueError("dimension mismatch")
    pairs, sign = _linked_sectors(eigs, terms)
    rev, mirrored = eigs.symmetries[1], sign is not None

    def block(a, b):
        x = a.vectors.conj().T @ _gather(sub, a.basis, b.basis, rev, mirrored) @ b.vectors
        if a is b:
            if np.iscomplexobj(x):
                np.fill_diagonal(x.imag, 0.0)
            for i in range(0, len(x), TILE):
                lower = x[i:, i:i + TILE]
                np.copyto(lower, x[i:i + TILE, i:].T.conj(), where=np.tri(*lower.shape, -1, dtype=bool))
        return x

    return ((a, b, block(a, b)) for a, b in pairs)


def filter_blocks(blocks, e: np.ndarray, kernel):
    """kernel(e_a, e_b) X_ab per block (a, b, X_ab), e_a the values e at
    sector a's states, lazily: a filter even in e_m - e_n, elementwise in the
    eigenbasis.  A kernel bitwise even (the SLD's energy kernel, the
    Lorentzian) keeps an a = b block exactly Hermitian; the time-domain
    cosine kernel keeps it Hermitian to roundoff."""
    for a, b, x in blocks:
        yield a, b, kernel(e[a.columns], e[b.columns]) * x


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
    """A_mn = <m|A|n>, the dense view of A's linked blocks (``eigenbasis_blocks``
    validates A), 0 elsewhere, with the dtype of the blocks."""
    out = None
    for a, b, x in eigenbasis_blocks(eigs, A):
        if out is None:  # every block has the dtype of W^H A W
            out = np.zeros((eigs.dim,) * 2, dtype=x.dtype)
        out[np.ix_(a.columns, b.columns)] = x
        if a is not b:
            out[np.ix_(b.columns, a.columns)] = x.conj().T
    return out


def from_eigenbasis(eigs: EigenSystem, blocks) -> np.ndarray:
    """The d x d matrix of eigenbasis blocks (a, b, X_ab), the inverse of
    ``eigenbasis_blocks``: S_a W_a X_ab W_b^H S_b^T, and for a != b its
    conjugate transpose, added by slices in run order (``_runs``), then
    gathered into row order once.  A 1-D X_ab is a diagonal block.  No
    blocks give the float zero matrix."""
    pos, parts = _runs(eigs)
    out = None
    for a, b, x in blocks:
        y = (a.vectors * x if x.ndim == 1 else a.vectors @ x) @ b.vectors.conj().T
        y *= _weights(a.basis)[:, None]
        y *= _weights(b.basis)
        if out is None:
            out = np.zeros((eigs.dim,) * 2, dtype=y.dtype)
        for s, t, z in [(a, b, y)] + ([(b, a, y.conj().T)] if a is not b else []):
            for rows, ks, rs in parts[s.basis.parity, s.basis.sign]:
                for cols, kt, rt in parts[t.basis.parity, t.basis.sign]:  # R signs: add or subtract
                    view = out[rows, cols]
                    (np.add if rs * rt > 0 else np.subtract)(view, z[ks, kt], out=view)
    return np.zeros((eigs.dim,) * 2) if out is None else out[np.ix_(pos, pos)]
