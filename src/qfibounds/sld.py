"""Symmetric logarithmic derivative of a Gibbs state: exact energy-domain
construction, the time-domain integral representation with its log-tanh
kernel, and the optimal estimator built from it.  Both read O's pair table
(``pair_table``, which a caller may pass in O's place), filter O - <O> on
its blocks (``filter_blocks``) and take them back block by block
(``from_eigenbasis``), with no d x d eigenbasis or kernel matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ModelSpec, _integer, check_hermitian, tfim_operators
from .gibbs import GibbsEnsemble, KernelKind, _shifted_gibbs, pair_table
from .spectral import filter_blocks, from_eigenbasis

PANELS_MAX = 1 << 20  # 8.4e6 nodes: the node tables peak at 336 MB


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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        _integer(self.panels, "panels", 16, PANELS_MAX)


def energy_kernel(omega: np.ndarray, beta: float) -> np.ndarray:
    """f(omega) = -tanh(beta omega / 2) / (omega / 2), with f(0) = -beta:
    -(4 / beta) times the susceptibility kernel."""
    return -(4.0 / beta) * KernelKind.SUSCEPTIBILITY.evaluate(omega, beta)


def _centered_blocks(ens: GibbsEnsemble, O):
    """O - <O> on O's pair table, lazily: each a = b block a copy with
    diag - <O> on its diagonal, each a < b block the table's own."""
    t = pair_table(ens.eigs, O)
    centred = t.diag - t.mean(ens.populations)
    for a, b, x in t.blocks:
        if a is b:
            x = x.copy()
            np.fill_diagonal(x, centred[a.columns])
        yield a, b, x


def sld_matrix(ens: GibbsEnsemble, O) -> SldResult:
    """L_mn = f(E_m - E_n) (O - <O>)_mn in the eigenbasis, with E the
    cluster-mean levels: every same-cluster pair takes the degenerate limit
    f(0) = -beta whatever its residual numerical splitting.  Tr rho L^2 =
    sum_mn p_n |L_mn|^2 is summed per block, an a < b one for both orders."""
    if not ens.beta > 0:
        raise ValueError("the SLD construction requires beta > 0")
    blocks = list(filter_blocks(_centered_blocks(ens, O), ens.eigs.levels,
                                lambda ea, eb: energy_kernel(np.subtract.outer(ea, eb), ens.beta)))
    p = ens.populations
    tr_l = sum((float(np.dot(p[a.columns], x.diagonal().real)) for a, b, x in blocks if a is b), 0.0)
    tr_l2 = sum(float(np.sum(np.abs(x) ** 2 * (p[b.columns] + (a is not b) * p[a.columns, None])))
                for a, b, x in blocks)
    return SldResult(from_eigenbasis(ens.eigs, blocks), tr_l, tr_l2)


def lyapunov_residual(
    ens: GibbsEnsemble, L: np.ndarray, model: ModelSpec, delta: float
) -> float:
    """Max-norm defect of (rho L + L rho)/2 against a finite-difference
    d(rho)/dtheta built from full rediagonalizations at theta +/- delta.  rho's
    last ulp over 2 delta is several 1e-12: no gate below ~1e-11 is meaningful."""
    if not (1e-6 <= delta <= 1e-3):
        raise ValueError(f"delta must lie in [1e-6, 1e-3], got {delta}")
    L = check_hermitian(L)
    H, O = tfim_operators(model)
    shifted = (e.density_matrix() for e in _shifted_gibbs(H, O, ens.beta, (delta, -delta)))
    drho = np.subtract(*shifted)
    drho /= 2.0 * delta
    x = ens.density_matrix() @ L
    x += x.conj().T  # L rho = (rho L)^H, as rho and L are Hermitian
    x *= 0.5
    x -= drho
    return float(np.max(np.abs(x, out=x)))


def kernel_g(t, beta: float):
    """g_beta(t) = (2/pi) ln tanh(pi |t| / (2 beta)) elementwise; singular at 0."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    t = np.abs(t)
    if np.any(t == 0.0):
        raise ValueError("kernel_g is singular at t = 0")
    return (2.0 / math.pi) * np.log(np.tanh(math.pi * t / (2.0 * beta)))


def _gauss_panels(a: float, b: float, panels: int, grade: float = 1.0):
    """Composite 8-point Gauss-Legendre nodes/weights on [a, b].

    ``grade > 1`` crowds panels toward ``a``, which tames integrable
    endpoint singularities (the SLD kernel is logarithmic at t = 0).
    """
    x, w = np.polynomial.legendre.leggauss(8)
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


def kernel_g_integral(beta: float) -> float:
    """Quadrature of the kernel over all t on 512 panels; the exact value is -beta."""
    _, q = _substituted_nodes(beta, None, 512)
    return 2.0 * float(np.sum(q))


def _cosine_kernel(ea: np.ndarray, eb: np.ndarray, t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """K_mn = 2 sum_k q_k cos((a_m - b_n) t_k) = 2 [(C_a q) C_b^T + (S_a q) S_b^T]_mn
    with C, S = cos, sin of e (x) t: two GEMMs per 256 nodes, and no nodes table."""
    out = np.zeros((len(ea), len(eb)))
    for k in range(0, len(t), 256):
        tk, qk = t[k:k + 256], q[k:k + 256]
        xa, xb = np.outer(ea, tk), np.outer(eb, tk)
        out += (np.cos(xa) * qk) @ np.cos(xb).T + (np.sin(xa) * qk) @ np.sin(xb).T
    return 2.0 * out


def sld_time_domain(
    ens: GibbsEnsemble, O, spec: TimeKernelSpec
) -> np.ndarray:
    """Reconstruct the SLD as the kernel-weighted time average of O(t).

    Over symmetric t, integral g(t) e^{i dE t} dt = 2 integral g cos(dE t); the
    eigenbasis phases factor per energy (``_cosine_kernel``), so each
    quadrature node costs O(d) trigonometry and rank-2 GEMM updates.  Phases
    run at the cluster-mean levels, as in ``sld_matrix``, shifted to their
    midpoint, which halves the largest phase.
    """
    if abs(spec.beta - ens.beta) > 1e-12 * max(1.0, ens.beta):
        raise ValueError("TimeKernelSpec.beta disagrees with the ensemble")
    t, q = _kernel_nodes(ens.beta, spec.horizon, spec.panels)
    e = ens.eigs.levels
    e = e - (e.max() + e.min()) / 2.0
    return from_eigenbasis(ens.eigs, filter_blocks(
        _centered_blocks(ens, O), e, lambda ea, eb: _cosine_kernel(ea, eb, t, q)))


def optimal_estimator(ens: GibbsEnsemble, O: np.ndarray, theta: float) -> np.ndarray:
    """theta_hat = theta + L / Tr[rho L^2]; locally unbiased and saturating
    the Cramer-Rao variance 1/F at the operator level."""
    res = sld_matrix(ens, O)
    if not res.trace_rho_L2 > 1e-12:
        raise ValueError("vanishing quantum Fisher information")
    return theta * np.eye(ens.dim) + res.L / res.trace_rho_L2
