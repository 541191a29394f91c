"""Symmetric logarithmic derivative of a Gibbs state: exact energy-domain
construction, the time-domain integral representation with its log-tanh
kernel, and the optimal estimator built from it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ModelSpec, build_tfim
from .gibbs import GibbsEnsemble, KernelKind, _shifted_gibbs
from .spectral import from_eigenbasis, to_eigenbasis


@dataclass(frozen=True)
class SldResult:
    """SLD matrix (computational basis) with its defining diagnostics."""

    L: np.ndarray
    trace_rho_L: float
    trace_rho_L2: float


@dataclass(frozen=True)
class TimeKernelSpec:
    """Quadrature controls for the time-domain SLD reconstruction."""

    beta: float
    horizon: float
    panels: int

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.panels < 16:
            raise ValueError("panels must be >= 16")


def energy_kernel(omega: np.ndarray, beta: float) -> np.ndarray:
    """f(omega) = -tanh(beta omega / 2) / (omega / 2), with f(0) = -beta:
    -(4 / beta) times the susceptibility kernel."""
    return -(4.0 / beta) * KernelKind.SUSCEPTIBILITY.evaluate(omega, beta)


def _centered_eigenbasis(ens: GibbsEnsemble, O: np.ndarray) -> np.ndarray:
    """O - <O> in the ensemble's eigenbasis, for a Hermitian O of its dimension."""
    Oe = to_eigenbasis(ens.eigs, O)
    return Oe - float(np.dot(ens.populations, Oe.diagonal().real)) * np.eye(ens.dim)


def sld_matrix(ens: GibbsEnsemble, O: np.ndarray) -> SldResult:
    """L_mn = f(E_m - E_n) (O - <O>)_mn in the (rotated) eigenbasis.

    Same-cluster pairs use the degenerate limit f(0) = -beta regardless of
    their residual numerical splitting.
    """
    if not ens.beta > 0:
        raise ValueError("the SLD construction requires beta > 0")
    Obar = _centered_eigenbasis(ens, O)

    e = ens.eigs.energies
    f = energy_kernel(e[:, None] - e[None, :], ens.beta)
    cid = ens.eigs.cluster_ids()
    f[cid[:, None] == cid[None, :]] = -ens.beta

    L_eig = f * Obar
    L_eig = (L_eig + L_eig.conj().T) / 2.0
    p = ens.populations
    tr_l = float(np.dot(p, L_eig.diagonal().real))
    tr_l2 = float(np.dot(p, np.sum(np.abs(L_eig) ** 2, axis=0)))
    return SldResult(
        L=from_eigenbasis(ens.eigs, L_eig), trace_rho_L=tr_l, trace_rho_L2=tr_l2
    )


def lyapunov_residual(
    ens: GibbsEnsemble, L: np.ndarray, model: ModelSpec, delta: float
) -> float:
    """Max-norm defect of (rho L + L rho)/2 against a finite-difference
    d(rho)/dtheta built from full rediagonalizations at theta +/- delta."""
    if not (1e-6 <= delta <= 1e-3):
        raise ValueError(f"delta must lie in [1e-6, 1e-3], got {delta}")
    H, O = build_tfim(model)
    states = _shifted_gibbs(H, O, ens.beta, (delta, -delta))
    plus, minus = (e.density_matrix() for e in states)
    drho = (plus - minus) / (2.0 * delta)
    rho = ens.density_matrix()
    return float(np.max(np.abs((rho @ L + L @ rho) / 2.0 - drho)))


def kernel_g(t, beta: float):
    """g_beta(t) = (2/pi) ln tanh(pi |t| / (2 beta)) elementwise; singular at 0."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    t = np.abs(t)
    if np.any(t == 0.0):
        raise ValueError("kernel_g is singular at t = 0")
    return (2.0 / math.pi) * np.log(np.tanh(math.pi * t / (2.0 * beta)))


def _gauss_panels(a: float, b: float, panels: int, order: int = 8, grade: float = 1.0):
    """Composite Gauss-Legendre nodes/weights on [a, b].

    ``grade > 1`` crowds panels toward ``a``, which tames integrable
    endpoint singularities (the SLD kernel is logarithmic at t = 0).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = a + (b - a) * np.linspace(0.0, 1.0, panels + 1) ** grade
    lo, hi = edges[:-1], edges[1:]
    half = (hi - lo) / 2.0
    nodes = (lo[:, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _substituted_nodes(beta: float, horizon: float | None, panels: int):
    """Nodes for integrals over t in [0, horizon] after u = tanh(pi t / 2 beta).

    Returns (t, q) with q absorbing the Jacobian and the kernel g_beta, so
    that integral over |t| <= horizon of g(t) h(t) dt ~= 2 sum q_k h(t_k) for
    even h.  The log singularity at t = 0 maps to an integrable ln(u) factor.
    """
    if horizon is None:
        u_max = 1.0
    else:
        u_max = math.tanh(math.pi * horizon / (2.0 * beta))
    u, w = _gauss_panels(0.0, u_max, panels, grade=3.0)
    t = (2.0 * beta / math.pi) * np.arctanh(u)
    q = w * (4.0 * beta / math.pi**2) * np.log(u) / (1.0 - u**2)
    return t, q


def _kernel_nodes(beta: float, horizon: float, panels: int):
    """Quadrature for integral over t in [0, horizon] of g_beta(t) h(t) dt with
    oscillatory h.

    The u = tanh substitution handles the log singularity up to t = beta;
    past that point g_beta is smooth and exponentially small, so plain
    composite Gauss-Legendre in t keeps the oscillation frequency bounded
    per panel (the substitution would compress the whole tail into a sliver
    of u-space and wreck the oscillatory accuracy there).
    """
    t_split = min(beta, horizon)
    p_in = max(panels // 2, 8)
    t_in, q_in = _substituted_nodes(beta, t_split, p_in)
    p_out = panels - p_in
    if horizon > t_split and p_out > 0:
        t_out, w_out = _gauss_panels(t_split, horizon, p_out)
        g = kernel_g(t_out, beta)
        return np.concatenate([t_in, t_out]), np.concatenate([q_in, w_out * g])
    return t_in, q_in


def kernel_g_integral(beta: float, horizon: float | None = None, panels: int = 512) -> float:
    """Quadrature of the kernel over |t| <= horizon (None = infinite); the
    exact infinite-horizon value is -beta."""
    _, q = _substituted_nodes(beta, horizon, panels)
    return 2.0 * float(np.sum(q))


def _cosine_kernel(energies: np.ndarray, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """K_mn = 2 sum_k q_k cos((E_m - E_n) t_k) = 2 [(C q) C^T + (S q) S^T]_mn
    with C, S = cos, sin of E (x) t: two GEMMs per block of 256 nodes, and no
    d^2 x nodes table.  Shifting E to its midpoint halves the largest phase."""
    e = energies - (energies.max() + energies.min()) / 2.0
    out = np.zeros((len(e), len(e)))
    for k in range(0, len(t), 256):
        et = np.outer(e, t[k:k + 256])
        c, s, qk = np.cos(et), np.sin(et), q[k:k + 256]
        out += (c * qk) @ c.T + (s * qk) @ s.T
    return 2.0 * out


def sld_time_domain(
    ens: GibbsEnsemble, O: np.ndarray, spec: TimeKernelSpec
) -> np.ndarray:
    """Reconstruct the SLD as the kernel-weighted time average of O(t).

    Over symmetric t, integral g(t) e^{i dE t} dt = 2 integral g cos(dE t); the
    eigenbasis phases factor per energy (``_cosine_kernel``), so each
    quadrature node costs O(d) trigonometry and a rank-2 GEMM update.
    """
    if abs(spec.beta - ens.beta) > 1e-12 * max(1.0, ens.beta):
        raise ValueError("TimeKernelSpec.beta disagrees with the ensemble")
    Obar = _centered_eigenbasis(ens, O)

    t, q = _kernel_nodes(ens.beta, spec.horizon, spec.panels)
    L_eig = _cosine_kernel(ens.eigs.energies, t, q) * Obar
    L_eig = (L_eig + L_eig.conj().T) / 2.0
    return from_eigenbasis(ens.eigs, L_eig)


def optimal_estimator(ens: GibbsEnsemble, O: np.ndarray, theta: float) -> np.ndarray:
    """theta_hat = theta + L / Tr[rho L^2]; locally unbiased and saturating
    the Cramer-Rao variance 1/F at the operator level."""
    res = sld_matrix(ens, O)
    if not res.trace_rho_L2 > 1e-12:
        raise ValueError("vanishing quantum Fisher information")
    return theta * np.eye(ens.dim) + res.L / res.trace_rho_L2
