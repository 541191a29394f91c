"""Gibbs ensembles, thermal averages, and the one beta-independent pair
table per (eigensystem, O) that feeds F, chi, Var and both line spectra: its
three ``KernelKind`` sums are F, beta chi and beta^2 Var, the moments of the
autocorrelation spectrum, and the spectra are its aggregations."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .operators import ModelSpec, build_tfim, check_hermitian
from .spectral import (
    DegeneracyPolicy,
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
    eigs = eigendecompose(H, DegeneracyPolicy(eps_deg))
    eigs = rotate_within_clusters(eigs, O)
    return gibbs_ensemble(eigs, beta)


def _shifted_gibbs(H, O, beta, shifts, eps_deg=None):
    """Gibbs states of H + s O for each shift s: the theta-shift oracles'
    one rebuild path (bit-identical to rebuilding the TFIM at theta + s)."""
    for s in shifts:
        yield prepared_gibbs(H + s * O, O, beta, eps_deg)


def _real_or_raise(value: complex, scale: float, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL * max(1.0, scale):
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


class KernelKind(enum.Enum):
    """Integral kernels of the three line-sum representations.

    Pointwise qfi <= susceptibility <= variance for every frequency, which is
    the whole content of the bounds chain.  The omega -> 0 limits are encoded
    explicitly; naive substitution at omega = 0 is ill-defined.
    """

    QFI = "qfi_kernel"
    SUSCEPTIBILITY = "susceptibility_kernel"
    VARIANCE = "variance_kernel"

    def evaluate(self, omega: np.ndarray, beta: float) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        limit = beta**2 / 4.0
        if self is KernelKind.VARIANCE:
            return np.full_like(omega, limit)
        out = np.full_like(omega, limit)
        # below this the formula is the limit to better than 1e-12 relative,
        # and evaluating it directly risks underflow (0/0 for subnormal omega)
        nz = np.abs(beta * omega) > 1e-6
        w = omega[nz]
        if self is KernelKind.QFI:
            out[nz] = np.tanh(beta * w / 2.0) ** 2 / w**2
        else:
            out[nz] = np.tanh(beta * w / 2.0) * beta / (2.0 * w)
        return out


def _distinct_pairs(eigs: EigenSystem, Oe: np.ndarray, chunk: int = 1024):
    """Yield, per row chunk, flat arrays (dE = E_m - E_n, |O_mn|^2, m, n) over
    ordered pairs (m, n) in distinct clusters; int32 m, n fit the site cap."""
    e = eigs.energies
    cid = eigs.cluster_ids()
    for a in range(0, eigs.dim, chunk):
        b = min(a + chunk, eigs.dim)
        m, n = np.nonzero(cid[a:b, None] != cid[None, :])
        m += a
        yield e[m] - e[n], np.abs(Oe[m, n]) ** 2, m.astype(np.int32), n.astype(np.int32)


def iter_distinct_cluster_pairs(ens: GibbsEnsemble, Oe: np.ndarray, chunk: int = 1024):
    """Yield flat arrays (dE, p_m, p_n, |O_mn|^2) over the ordered pairs (m, n)
    in distinct degeneracy clusters, dE = E_m - E_n, in row chunks."""
    p = ens.populations
    for dE, o2, m, n in _distinct_pairs(ens.eigs, Oe, chunk):
        yield dE, p[m], p[n], o2


def _check_rotated(eigs: EigenSystem, Oe: np.ndarray) -> None:
    """Reject within-cluster off-diagonal elements of O; they must have been
    removed by the cluster rotation before any spectral formula is applied."""
    scale = float(np.max(np.abs(Oe))) or 1.0
    for a, b in eigs.clusters:
        if b - a < 2:
            continue
        block = Oe[a:b, a:b].copy()
        np.fill_diagonal(block, 0.0)
        if np.max(np.abs(block)) > 1e-9 * scale:
            raise ValueError(
                "degenerate cluster carries off-diagonal O elements; "
                "rotate_within_clusters must run before spectral formulas"
            )


def _classical(p: np.ndarray, diag: np.ndarray) -> float:
    """Classical weight sum_n p_n (O_nn - <O>)^2 of the eigenbasis diagonal."""
    return float(np.dot(p, (diag - float(np.dot(p, diag))) ** 2))


@dataclass(frozen=True)
class _PairTable:
    """The beta-independent lines of O over one eigensystem: ``diag`` = O_nn
    and, over ordered pairs (m, n) in distinct clusters, ``dE`` = E_m - E_n,
    ``o2`` = |O_mn|^2 and the indices ``m``, ``n``."""

    diag: np.ndarray
    dE: np.ndarray
    o2: np.ndarray
    m: np.ndarray
    n: np.ndarray

    def weights(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        """Classical weight and (p_m + p_n)|O_mn|^2 per pair, at populations p."""
        return _classical(p, self.diag), (p[self.m] + p[self.n]) * self.o2

    def moment(self, kernel: KernelKind, beta: float, weights) -> float:
        """(2/pi) sum of kernel(omega) * weight over the autocorrelation
        lines: pi w_sum per pair, 2 pi classical at omega = 0."""
        classical, w_sum = weights
        k = kernel.evaluate(self.dE, beta)
        return beta**2 * classical + 2.0 * float(np.dot(k, w_sum))


def _pair_table(eigs: EigenSystem, O: np.ndarray) -> _PairTable:
    """Validate O, transform it to the eigenbasis once, reject an unrotated
    cluster and flatten the distinct-cluster pairs.  O's eigenbasis matrix
    is dropped once the pair arrays exist."""
    O = check_hermitian(O)
    if O.shape[0] != eigs.dim:
        raise ValueError("dimension mismatch")
    Oe = to_eigenbasis(eigs, O)
    _check_rotated(eigs, Oe)
    diag = Oe.diagonal().real.copy()
    chunks = list(_distinct_pairs(eigs, Oe))
    del Oe
    return _PairTable(diag, *(np.concatenate(c) for c in zip(*chunks)))


def variance(ens: GibbsEnsemble, O: np.ndarray) -> float:
    """<(O - <O>)^2>.  The variance kernel is beta^2 / 4 at every frequency,
    so its moment at beta = 1 is Var at any ensemble temperature."""
    t = _pair_table(ens.eigs, O)
    return t.moment(KernelKind.VARIANCE, 1.0, t.weights(ens.populations))


def susceptibility(ens: GibbsEnsemble, O: np.ndarray) -> float:
    """Thermodynamic susceptibility of <O>, the susceptibility-kernel moment
    over beta: the Lehmann sum of (p_m - p_n) / (E_n - E_m) |O_mn|^2 written
    as (p_m + p_n) tanh(beta dE / 2) / dE |O_mn|^2, free of the population
    difference's cancellation.  Zero at beta = 0, non-negative at
    equilibrium; with the +theta O coupling this equals -(d<O>/dtheta)
    (cross-checked by ``susceptibility_fd``).
    """
    t = _pair_table(ens.eigs, O)
    m = t.moment(KernelKind.SUSCEPTIBILITY, ens.beta, t.weights(ens.populations))
    return m / ens.beta if ens.beta > 0 else 0.0


def susceptibility_fd(
    model: ModelSpec,
    beta: float,
    delta: float,
    eps_deg: float | None = None,
) -> float:
    """Independent oracle: central finite difference of <O> in theta, with a
    full rediagonalization at theta +/- delta.

    Returned with the sign convention of ``susceptibility``: the +theta O
    coupling makes d<O>/dtheta <= 0 at equilibrium, so the response magnitude
    -(d<O>/dtheta) is what the spectral route (and the bounds chain) uses.
    """
    if not (1e-6 <= delta <= 1e-2):
        raise ValueError(f"delta must lie in [1e-6, 1e-2], got {delta}")
    H, O = build_tfim(model)
    states = _shifted_gibbs(H, O, beta, (delta, -delta), eps_deg)
    plus, minus = (thermal_average(ens, O) for ens in states)
    return -(plus - minus) / (2.0 * delta)
