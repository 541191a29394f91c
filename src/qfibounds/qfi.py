"""Quantum Fisher information of Gibbs states, its bounds chain and the
thermodynamic uncertainty diagnostics, plus an independent fidelity oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .operators import ModelSpec, tfim_operators
from .gibbs import GibbsEnsemble, _shifted_gibbs, pair_table


@dataclass(frozen=True)
class BoundsReport:
    """The (LB, F, UB1, UB2) quadruple with derived angle and uncertainty
    diagnostics.  Angle/uncertainty fields are NaN when undefined (beta = 0
    or vanishing Fisher information)."""

    lb: float
    qfi: float
    ub1: float
    ub2: float
    beta: float
    alpha: float
    phi: float
    dtheta_min: float
    d_o: float
    d_o_bar: float

    def to_dict(self) -> dict:
        return asdict(self)


def qfi_spectral(ens: GibbsEnsemble, O) -> float:
    """Spectral QFI of a Gibbs state, the QFI-kernel moment: the Lehmann sum
    of 2 (p_m - p_n)^2 / (p_m + p_n) / dE^2 |O_mn|^2 written as
    2 (p_m + p_n) tanh^2(beta dE / 2) / dE^2 |O_mn|^2, free of the
    population difference's cancellation, plus beta^2 times the classical
    weight."""
    return pair_table(ens.eigs, O).moments(ens.populations, ens.beta)[0]


def bounds_chain(ens: GibbsEnsemble, O) -> BoundsReport:
    """Assemble LB <= F <= UB1 <= UB2 with the geometric-mean lower bound,
    from the three kernel moments of one pair table."""
    beta = ens.beta
    qfi, ub1, var = pair_table(ens.eigs, O).moments(ens.populations, beta)
    chi = ub1 / beta if beta > 0 else 0.0
    ub2 = beta**2 * var
    if ub2 > 0:
        lb = ub1**2 / ub2
    else:
        if abs(ub1) > 1e-12 * max(1.0, abs(qfi)):
            raise RuntimeError(
                f"ub2 = 0 with ub1 = {ub1:.3e}: numerically corrupt ensemble"
            )
        lb = 0.0

    def _arccos_ratio(num, den):
        if den <= 0:
            return math.nan
        return math.acos(min(1.0, max(-1.0, num / den)))

    alpha = _arccos_ratio(ub1, ub2)
    phi = _arccos_ratio(lb, qfi)
    dtheta_min = 1.0 / math.sqrt(qfi) if qfi > 0 else math.nan
    d_o = math.sqrt(max(var, 0.0))
    d_o_bar = chi * dtheta_min if qfi > 0 else math.nan
    return BoundsReport(
        lb=lb,
        qfi=qfi,
        ub1=ub1,
        ub2=ub2,
        beta=beta,
        alpha=alpha,
        phi=phi,
        dtheta_min=dtheta_min,
        d_o=d_o,
        d_o_bar=d_o_bar,
    )


def check_bounds_report(rep: BoundsReport) -> None:
    """Raise if the chain or the geometric-mean identity fails by over 1e-9 relative."""
    scale = max(abs(rep.ub2), 1e-300)
    slack = 1e-9 * max(1.0, scale)
    chain = (rep.lb, rep.qfi, rep.ub1, rep.ub2)
    for lo, hi in zip(chain, chain[1:]):
        if not lo <= hi + slack:  # NaN fails
            raise RuntimeError(f"bounds chain violated: {chain}")
    if not rep.lb >= -slack:
        raise RuntimeError(f"negative lower bound {rep.lb}")
    gm = rep.ub2 * rep.lb
    if not abs(rep.ub1**2 - gm) <= 1e-9 * max(1.0, rep.ub1**2, abs(gm)):
        raise RuntimeError(
            f"geometric-mean identity violated: ub1^2={rep.ub1**2}, ub2*lb={gm}"
        )


def uncertainty_report(rep: BoundsReport) -> dict:
    """Both thermodynamic uncertainty products and their ratios to 1/beta.

    product_direct   = dtheta_min * dO        (variance-based uncertainty)
    product_response = dtheta_min * dO_bar    (response-based uncertainty)
    """
    if not (rep.beta > 0) or not (rep.qfi > 0):
        return {
            "defined": False,
            "reason": "qfi or beta vanishes; uncertainty products undefined",
        }
    product_direct = rep.dtheta_min * rep.d_o
    product_response = rep.dtheta_min * rep.d_o_bar
    inv_beta = 1.0 / rep.beta
    return {
        "defined": True,
        "beta": rep.beta,
        "product_direct": product_direct,
        "product_response": product_response,
        "ratio_direct": product_direct / inv_beta,
        "ratio_response": product_response / inv_beta,
        "response_leq_direct": rep.d_o_bar <= rep.d_o + 1e-12,
    }


def _sqrt_fidelity(a: GibbsEnsemble, b: GibbsEnsemble) -> float:
    """sqrt(Fid) = Tr |sqrt(rho_a) sqrt(rho_b)|, the singular values of
    diag(sqrt(p)) U diag(sqrt(q)) summed over the sectors: U = W_a^H W_b is
    zero between them.  The populations carry full relative precision, so
    the sum's error is O(machine eps) absolute; dense density matrices
    (eigh + clip + sqrt) would amplify eigenvalue roundoff by 1/sqrt(w) near
    the kernel and ruin the 1 - sqrt(Fid) ~ F delta^2 / 8 cancellation.  a
    and b must share their symmetries, hence their sector bases, as the
    states of H -/+ (delta/2) O do unless a shift cancels the only
    symmetry-breaking term exactly (ValueError)."""
    (ga, ra), (gb, rb) = a.eigs.symmetries, b.eigs.symmetries
    if len(ga) != len(gb) or (ra is None) != (rb is None):
        raise ValueError("the two states have different symmetry sectors")
    pa, pb = np.sqrt(a.populations), np.sqrt(b.populations)
    blocks = (pa[x.columns, None] * (x.vectors.conj().T @ y.vectors) * pb[y.columns]
              for x, y in zip(a.eigs.sectors, b.eigs.sectors))
    return sum(float(np.sum(np.linalg.svd(m, compute_uv=False))) for m in blocks)


def qfi_fidelity_oracle(model: ModelSpec, beta: float, delta: float) -> float:
    """Independent oracle for the spectral QFI via Uhlmann fidelity of the
    exactly built Gibbs states at theta -/+ delta/2."""
    H, O = tfim_operators(model)
    return qfi_fidelity_oracle_generic(H, O, beta, delta)


def qfi_fidelity_oracle_generic(
    H: np.ndarray, O: np.ndarray, beta: float, delta: float
) -> float:
    """Same oracle for an arbitrary pair with H(theta) = H + theta O: the
    Bures QFI between the Gibbs states of H -/+ (delta/2) O (centered, so
    the finite-difference bias is O(delta^2)).  ValueError if the two shifted
    states differ in symmetry (``_sqrt_fidelity``)."""
    if not (1e-4 <= delta <= 1e-2):
        raise ValueError(f"delta must lie in [1e-4, 1e-2], got {delta}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    a, b = _shifted_gibbs(H, O, beta, (-delta / 2.0, delta / 2.0))
    return 8.0 * (1.0 - _sqrt_fidelity(a, b)) / delta**2
