"""Gibbs ensembles, thermal averages, and the one beta-independent pair
table per (eigensystem, O) that feeds <O>, F, chi, Var, both line spectra
and the SLD.

Populations and gaps are read from the cluster-mean ``levels``, so every
state of a cluster has the same population and every same-cluster pair sits
at omega = 0 exactly.  The table (``pair_table``) is O's eigenbasis blocks,
one per symmetry-sector pair (a, b) that O links, and the a = b blocks'
real diagonals; the pairs O cannot link are never formed.  Every reader of
(ensemble, O) takes the table in O's place.  One pass of the kernel
x = tanh(beta omega / 2) / omega over |O_mn|^2, m != n, squared as the
blocks are read, gives F, beta chi and Var, the three ``KernelKind``
moments of the autocorrelation spectrum.  The same-cluster entries enter
that pass at x = beta / 2, which turns the diagonal's classical weight into
the basis-independent sum_c p_c ||O_cc||_F^2 - <O>^2 over the clusters c."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import TILE, ModelSpec, tfim_operators
from .spectral import EigenSystem, eigenbasis_blocks, eigendecompose, from_eigenbasis


@dataclass(frozen=True)
class GibbsEnsemble:
    """Normalized thermal populations tied to an eigensystem."""

    beta: float
    populations: np.ndarray
    log_z: float
    eigs: EigenSystem

    @property
    def dim(self) -> int:
        return self.eigs.dim

    def density_matrix(self) -> np.ndarray:
        """rho = sum_n p_n |n><n|, each sector's diag(p) out of the eigenbasis."""
        p = self.populations
        return from_eigenbasis(self.eigs, ((s, s, p[s.columns]) for s in self.eigs.sectors))


def gibbs_ensemble(eigs: EigenSystem, beta: float) -> GibbsEnsemble:
    """Populations p_n = exp(-beta(E_n - E_min)) / Z of the cluster-mean
    levels E_n, overflow-safe; equal across each cluster."""
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    e = eigs.levels
    shifted = -beta * (e - e[0])
    w = np.exp(shifted)
    z = float(w.sum())
    log_z = math.log(z) - beta * float(e[0])
    return GibbsEnsemble(beta=beta, populations=w / z, log_z=log_z, eigs=eigs)


def prepared_gibbs(
    H: np.ndarray,
    O: np.ndarray,
    beta: float,
    eps_deg: float | None = None,
) -> GibbsEnsemble:
    """Diagonalize H and thermalize.  O is not read; callers pass
    (H, O, beta) positionally, so the signature keeps it."""
    return gibbs_ensemble(eigendecompose(H, eps_deg), beta)


def _shifted_gibbs(H, O, beta, shifts):
    """Gibbs states of H + s O for each shift s: the theta-shift oracles'
    one rebuild path (bit-identical to rebuilding the TFIM at theta + s), at
    the default tolerance: an oracle checks the ensemble's, not inheriting it."""
    for s in shifts:
        yield gibbs_ensemble(eigendecompose(H + s * O), beta)


def thermal_average(ens: GibbsEnsemble, A) -> float:
    """<A> = sum_n p_n <n|A|n> of a Hermitian A (a matrix, a
    ``FlipOperator`` or its pair table) of the ensemble's dimension
    (``PairTable.mean``); a sum that is not finite raises."""
    val = pair_table(ens.eigs, A).mean(ens.populations)
    if not math.isfinite(val):
        raise ValueError(f"thermal average is not finite: {val}")
    return val


def _tanh_over_omega(omega: np.ndarray, beta: float) -> np.ndarray:
    """x = tanh(beta omega / 2) / omega, the one kernel formula, with its
    limit beta / 2 wherever |beta omega| <= 1e-6: there the formula is the
    limit to better than 1e-12 relative, and evaluating it directly risks
    0/0 (omega = 0 on the diagonal, subnormal omega)."""
    omega = np.asarray(omega, dtype=float)
    nz = np.abs(beta * omega) > 1e-6
    return np.divide(np.tanh(beta * omega / 2.0), omega,
                     out=np.full_like(omega, beta / 2.0), where=nz)


class KernelKind(enum.Enum):
    """Integral kernels of the three line-sum representations.

    Pointwise qfi <= susceptibility <= variance for every frequency, which is
    the whole content of the bounds chain.  With x = tanh(beta omega / 2) /
    omega they are x^2, beta x / 2 and beta^2 / 4, so all three take the
    value beta^2 / 4 at omega = 0.
    """

    QFI = "qfi_kernel"
    SUSCEPTIBILITY = "susceptibility_kernel"
    VARIANCE = "variance_kernel"

    def evaluate(self, omega: np.ndarray, beta: float) -> np.ndarray:
        if self is KernelKind.VARIANCE:
            return np.full_like(np.asarray(omega, dtype=float), beta**2 / 4.0)
        x = _tanh_over_omega(omega, beta)
        return x * x if self is KernelKind.QFI else beta * x / 2.0


def _classical(p: np.ndarray, diag: np.ndarray) -> float:
    """Classical weight sum_n p_n (O_nn - <O>)^2 of the eigenbasis diagonal."""
    return float(np.dot(p, (diag - float(np.dot(p, diag))) ** 2))


@dataclass(frozen=True)
class PairTable:
    """The beta-independent lines of O over the eigensystem ``eigs``:
    ``blocks``, O's eigenbasis blocks (a, b, O_ab) for the sector pairs
    a <= b that O links (``eigenbasis_blocks``, an a = b block exactly
    Hermitian), ``diag`` = O_nn and the cluster-mean ``levels``.  An a < b
    block stands for the pairs in both orders, O_ba = O_ab^H; every pair
    outside the blocks has O_mn = 0.  The lines are the pairs m != n, so a
    reader squaring an a = b block zeroes its diagonal."""

    eigs: EigenSystem
    diag: np.ndarray
    levels: np.ndarray
    blocks: tuple

    def mean(self, p: np.ndarray) -> float:
        """<O> = sum_n p_n O_nn, summed over the a = b blocks' diagonals: O
        links all of them or none, and then <O> = 0.0."""
        return sum((float(np.dot(p[a.columns], x.diagonal().real))
                    for a, b, x in self.blocks if a is b), 0.0)

    def moments(self, p: np.ndarray, beta: float) -> tuple[float, float, float]:
        """F, beta chi and Var at populations p: the QFI-, susceptibility- and
        variance-kernel sums (2/pi) sum kernel(omega) weight over the
        autocorrelation lines, pi (p_m + p_n)|O_mn|^2 per pair m != n and
        2 pi times the diagonal's classical weight at omega = 0.  |O_mn|^2 is
        symmetric and the kernels are even, so each pair sum is 2 p . (row
        sums of |O_mn|^2 times the kernel), an a < b block adding its row
        sums to a's states and its column sums to b's.  |O_mn|^2 and the
        kernel are formed over TILE rows of a block at a time, so their
        temporaries are TILE x (block width) whatever d is."""
        c = _classical(p, self.diag)
        e = self.levels
        ox2, ox, o0 = np.zeros(len(e)), np.zeros(len(e)), np.zeros(len(e))
        for a, b, block in self.blocks:
            ea, eb = e[a.columns], e[b.columns]
            for i in range(0, len(ea), TILE):
                rows = slice(i, i + TILE)
                m = a.columns[rows]
                o2 = np.abs(block[rows])
                if a is b:
                    np.fill_diagonal(o2[:, i:], 0.0)
                np.square(o2, out=o2)
                x = _tanh_over_omega(np.subtract.outer(ea[rows], eb), beta)
                o2x = o2 * x
                ox2[m] += np.einsum("mn,mn->m", o2x, x)
                ox[m] += o2x.sum(axis=1)
                o0[m] += o2.sum(axis=1)
                if a is not b:
                    ox2[b.columns] += np.einsum("mn,mn->n", o2x, x)
                    ox[b.columns] += o2x.sum(axis=0)
                    o0[b.columns] += o2.sum(axis=0)
        return (beta**2 * c + 4.0 * float(p @ ox2),
                beta**2 * c + 2.0 * beta * float(p @ ox),
                c + float(p @ o0))


def pair_table(eigs: EigenSystem, O) -> PairTable:
    """O's pair table over ``eigs``: O's linked eigenbasis blocks
    (``eigenbasis_blocks``, which validates O) and the a = b blocks' real
    diagonals.  A table of ``eigs`` itself is returned as it is, and a table
    of another eigensystem raises ``ValueError``."""
    if isinstance(O, PairTable):
        if O.eigs is not eigs:
            raise ValueError("the pair table belongs to another eigensystem")
        return O
    diag = np.zeros(eigs.dim)
    blocks = tuple(eigenbasis_blocks(eigs, O))
    for a, b, x in blocks:
        if a is b:
            diag[a.columns] = x.diagonal().real
    return PairTable(eigs, diag, eigs.levels, blocks)


def variance(ens: GibbsEnsemble, O) -> float:
    """<(O - <O>)^2>, the variance-kernel moment over beta^2: that kernel is
    beta^2 / 4 at every frequency, so Var is beta-independent given p."""
    return pair_table(ens.eigs, O).moments(ens.populations, ens.beta)[2]


def susceptibility(ens: GibbsEnsemble, O) -> float:
    """Thermodynamic susceptibility of <O>, the susceptibility-kernel moment
    over beta: the Lehmann sum of (p_m - p_n) / (E_n - E_m) |O_mn|^2 written
    as (p_m + p_n) tanh(beta dE / 2) / dE |O_mn|^2, free of the population
    difference's cancellation.  Zero at beta = 0, non-negative at
    equilibrium; with the +theta O coupling this equals -(d<O>/dtheta)
    (cross-checked by ``susceptibility_fd``).
    """
    beta_chi = pair_table(ens.eigs, O).moments(ens.populations, ens.beta)[1]
    return beta_chi / ens.beta if ens.beta > 0 else 0.0


def susceptibility_fd(model: ModelSpec, beta: float, delta: float) -> float:
    """Independent oracle: central finite difference of <O> in theta, with a
    full rediagonalization at theta +/- delta.

    Returned with the sign convention of ``susceptibility``: the +theta O
    coupling makes d<O>/dtheta <= 0 at equilibrium, so the response magnitude
    -(d<O>/dtheta) is what the spectral route (and the bounds chain) uses.
    """
    if not (1e-6 <= delta <= 1e-2):
        raise ValueError(f"delta must lie in [1e-6, 1e-2], got {delta}")
    H, O = tfim_operators(model)
    states = _shifted_gibbs(H, O, beta, (delta, -delta))
    plus, minus = (thermal_average(ens, O) for ens in states)
    return -(plus - minus) / (2.0 * delta)
