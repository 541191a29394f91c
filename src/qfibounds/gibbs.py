"""Gibbs ensembles, thermal averages, and the one beta-independent pair
table per (eigensystem, O) that feeds F, chi, Var and both line spectra.
The table is O's eigenbasis diagonal, the energies and the dense |O_mn|^2
with its same-cluster entries zeroed; one pass of the kernel x =
tanh(beta omega / 2) / omega over it gives F, beta chi and Var, the three
``KernelKind`` moments of the autocorrelation spectrum, and masking it to
the distinct-cluster pairs gives the spectra's lines."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import TILE, ModelSpec, build_tfim, check_hermitian
from .spectral import (
    EigenSystem,
    eigendecompose,
    rotate_within_clusters,
    to_eigenbasis,
)

_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class GibbsEnsemble:
    """Normalized thermal populations tied to a (rotated) eigensystem."""

    beta: float
    populations: np.ndarray
    log_z: float
    eigs: EigenSystem

    @property
    def dim(self) -> int:
        return self.eigs.dim

    def density_matrix(self) -> np.ndarray:
        return self.eigs.density_matrix(self.populations)


def gibbs_ensemble(eigs: EigenSystem, beta: float) -> GibbsEnsemble:
    """Populations p_n = exp(-beta(E_n - E_min)) / Z, overflow-safe."""
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    e = eigs.energies
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
    """Diagonalize H, rotate degenerate clusters against O, thermalize.

    This is the canonical pipeline every downstream formula expects: the
    returned ensemble's eigenbasis makes O diagonal inside each degenerate
    cluster.
    """
    eigs = eigendecompose(H, eps_deg)
    eigs = rotate_within_clusters(eigs, O)
    return gibbs_ensemble(eigs, beta)


def _shifted_gibbs(H, O, beta, shifts):
    """Gibbs states of H + s O for each shift s: the theta-shift oracles'
    one rebuild path (bit-identical to rebuilding the TFIM at theta + s), at
    the default tolerance: an oracle checks the ensemble's, not inheriting it."""
    for s in shifts:
        yield prepared_gibbs(H + s * O, O, beta)


def _real_or_raise(value: complex, scale: float, what: str) -> float:
    if not abs(value.imag) <= _IMAG_TOL * max(1.0, scale):  # NaN fails
        raise ValueError(f"{what} has non-negligible imaginary part {value.imag:.3e}")
    return float(value.real)


def _diagonal(eigs: EigenSystem, A: np.ndarray) -> np.ndarray:
    """Validate A; <n|A|n> for every eigenvector n, without the full transform."""
    A = check_hermitian(A)
    if A.shape[0] != eigs.dim:
        raise ValueError("dimension mismatch")
    v = eigs.vectors
    return np.einsum("ij,ij->j", v.conj(), A @ v)


def thermal_average(ens: GibbsEnsemble, A: np.ndarray) -> float:
    """<A> = sum_n p_n <n|A|n>."""
    val = complex(np.dot(ens.populations, _diagonal(ens.eigs, A)))
    return _real_or_raise(val, float(np.max(np.abs(A))) or 1.0, "thermal average")


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


def _check_rotated(eigs: EigenSystem, Oe: np.ndarray) -> None:
    """Reject within-cluster off-diagonal elements of O; they must have been
    removed by the cluster rotation before any spectral formula is applied."""
    scale = float(np.max(np.abs(Oe))) or 1.0
    for a, b in eigs.clusters:
        if b - a < 2:
            continue
        block = Oe[a:b, a:b].copy()
        np.fill_diagonal(block, 0.0)
        if not np.max(np.abs(block)) <= 1e-9 * scale:  # NaN fails
            raise ValueError(
                "degenerate cluster carries off-diagonal O elements; "
                "rotate_within_clusters must run before spectral formulas"
            )


def _classical(p: np.ndarray, diag: np.ndarray) -> float:
    """Classical weight sum_n p_n (O_nn - <O>)^2 of the eigenbasis diagonal."""
    return float(np.dot(p, (diag - float(np.dot(p, diag))) ** 2))


@dataclass(frozen=True)
class _PairTable:
    """The beta-independent lines of O over one eigensystem: ``diag`` = O_nn,
    the ``energies``, the d x d ``o2`` = |O_mn|^2 with every same-cluster
    entry (the diagonal included) zero, and the eigensystem's ``clusters``."""

    diag: np.ndarray
    energies: np.ndarray
    o2: np.ndarray
    clusters: tuple

    def distinct(self) -> np.ndarray:
        """Mask of the pairs (m, n) in different clusters."""
        sizes = [b - a for a, b in self.clusters]
        cid = np.repeat(np.arange(len(sizes)), sizes)
        return cid[:, None] != cid[None, :]

    def gaps(self) -> np.ndarray:
        """E_m - E_n for every (m, n)."""
        return np.subtract.outer(self.energies, self.energies)

    def moments(self, p: np.ndarray, beta: float) -> tuple[float, float, float]:
        """F, beta chi and Var at populations p: the QFI-, susceptibility- and
        variance-kernel sums (2/pi) sum kernel(omega) weight over the
        autocorrelation lines, pi (p_m + p_n)|O_mn|^2 per distinct-cluster
        pair and 2 pi times the classical weight at omega = 0.  o2 is
        symmetric and the kernels are even, so each pair sum is 2 p . (row
        sums of o2 times the kernel).  The kernel is evaluated over TILE rows
        at a time, so its temporaries are TILE x d whatever d is."""
        c = _classical(p, self.diag)
        e = self.energies
        ox2, ox = np.empty(len(e)), np.empty(len(e))
        for i in range(0, len(e), TILE):
            rows = slice(i, i + TILE)
            x = _tanh_over_omega(np.subtract.outer(e[rows], e), beta)
            o2x = self.o2[rows] * x
            ox2[rows] = np.einsum("mn,mn->m", o2x, x)
            ox[rows] = o2x.sum(axis=1)
        return (beta**2 * c + 4.0 * float(p @ ox2),
                beta**2 * c + 2.0 * beta * float(p @ ox),
                c + float(p @ self.o2.sum(axis=1)))


def _pair_table(eigs: EigenSystem, O: np.ndarray) -> _PairTable:
    """Validate O, transform it to the eigenbasis once, reject an unrotated
    cluster and keep |O_mn|^2 outside the clusters: the clusters are index
    ranges, so their diagonal blocks are zeroed in place.  O's eigenbasis
    matrix is dropped once the table exists."""
    Oe = to_eigenbasis(eigs, O)
    _check_rotated(eigs, Oe)
    diag = Oe.diagonal().real.copy()
    o2 = np.abs(Oe)
    del Oe
    np.square(o2, out=o2)
    np.fill_diagonal(o2, 0.0)
    for a, b in eigs.clusters:
        if b - a > 1:
            o2[a:b, a:b] = 0.0
    return _PairTable(diag, eigs.energies, o2, eigs.clusters)


def variance(ens: GibbsEnsemble, O: np.ndarray) -> float:
    """<(O - <O>)^2>, the variance-kernel moment over beta^2: that kernel is
    beta^2 / 4 at every frequency, so Var is beta-independent given p."""
    return _pair_table(ens.eigs, O).moments(ens.populations, ens.beta)[2]


def susceptibility(ens: GibbsEnsemble, O: np.ndarray) -> float:
    """Thermodynamic susceptibility of <O>, the susceptibility-kernel moment
    over beta: the Lehmann sum of (p_m - p_n) / (E_n - E_m) |O_mn|^2 written
    as (p_m + p_n) tanh(beta dE / 2) / dE |O_mn|^2, free of the population
    difference's cancellation.  Zero at beta = 0, non-negative at
    equilibrium; with the +theta O coupling this equals -(d<O>/dtheta)
    (cross-checked by ``susceptibility_fd``).
    """
    beta_chi = _pair_table(ens.eigs, O).moments(ens.populations, ens.beta)[1]
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
    H, O = build_tfim(model)
    states = _shifted_gibbs(H, O, beta, (delta, -delta))
    plus, minus = (thermal_average(ens, O) for ens in states)
    return -(plus - minus) / (2.0 * delta)
