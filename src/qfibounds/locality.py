"""Locality diagnostics for dressed operators: exponential time-filtering
of the Heisenberg evolution, commutator decay against distant probes, and the
finite-support approximation with its sampled commutator bound."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .operators import _hermitian_deviation
from .spectral import EigenSystem, from_eigenbasis, to_eigenbasis
from .sld import _cosine_kernel, _gauss_panels


@dataclass(frozen=True)
class DressSpec:
    """Exponential time filter e^{-mu |t|} and its quadrature controls."""

    mu: float
    horizon: float = 0.0
    panels: int = 256
    closed_form: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if not self.closed_form and not self.horizon > 0:
            raise ValueError("quadrature route needs a positive horizon")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")


@dataclass(frozen=True)
class LocalityProfile:
    distances: np.ndarray
    commutator_norms: np.ndarray
    fitted_rate: float
    fit_r2: float
    mu: float


@dataclass(frozen=True)
class LocalApproximation:
    """Finite-support compression of an operator onto the leading sites.

    ``eps_hat`` is the sampled surrogate for the commutator supremum over
    complement operators; it can only underestimate the true value, so the
    theorem bound err <= 2 eps is recorded, not certified.
    """

    a_prime: np.ndarray
    err: float
    eps_hat: float
    max_probe: str


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of [a, b]; exact via eigenvalues when both are
    Hermitian (i[a,b] is then Hermitian).  The dense reference that the
    probe norms of the locality diagnostics, which build no probe, are tested
    against."""
    c = a @ b - b @ a
    if _is_hermitian(a) and _is_hermitian(b):
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * c))))
    return spectral_norm(c)


def _is_hermitian(a: np.ndarray) -> bool:
    """The test of ``check_hermitian`` on a square a; NaN fails."""
    dev, tol = _hermitian_deviation(a)
    return dev <= tol


def dressed_operator(
    eigs: EigenSystem, A_loc: np.ndarray, spec: DressSpec
) -> np.ndarray:
    """Time average of A(t) against e^{-mu |t|}.

    Closed form: the filter is a Lorentzian 2 mu / (mu^2 + (E_m - E_n)^2)
    acting elementwise in the eigenbasis.  The quadrature route integrates
    the phases directly over |t| <= horizon and exists as a cross-check.
    """
    Ae = to_eigenbasis(eigs, A_loc)
    if spec.closed_form:
        dE = np.subtract.outer(eigs.energies, eigs.energies)
        with np.errstate(all="ignore"):  # a non-finite filter is reported below
            out = 2.0 * spec.mu / (np.float64(spec.mu) ** 2 + dE**2) * Ae
    else:
        t, w = _gauss_panels(0.0, spec.horizon, spec.panels)
        out = _cosine_kernel(eigs.energies, t, w * np.exp(-spec.mu * t)) * Ae
    if not np.all(np.isfinite(out)):
        raise ValueError(f"dressed operator is not finite at mu={spec.mu:g}")
    out = (out + out.conj().T) / 2.0
    return from_eigenbasis(eigs, out)


def commutator_decay_profile(
    eigs: EigenSystem,
    A_loc: np.ndarray,
    spec: DressSpec,
    probe_kind: str = "Z",
) -> LocalityProfile:
    """Dress a site-0 operator, then record || [L_loc, sigma_j^probe] || for
    every site j and fit the exponential tail of the decay, from distance 2."""
    n_sites = int(round(math.log2(eigs.dim)))
    if 1 << n_sites != eigs.dim:
        raise ValueError("eigensystem dimension is not a power of two")
    if probe_kind not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli axis {probe_kind!r}")
    # Hermitian by construction: dressed_operator symmetrizes in the eigenbasis
    dressed = dressed_operator(eigs, A_loc, spec)
    distances = np.arange(n_sites)
    norms = np.array([_pauli_commutator_norm(dressed, j, probe_kind, True)
                      for j in range(n_sites)])

    usable = (distances >= 2) & (norms > 1e-12)
    if usable.sum() < 4:
        why = ("chain too short" if (distances >= 2).sum() < 4
               else f"profile too flat at mu={spec.mu:g} (norms <= 1e-12)")
        raise ValueError(f"{why} for a decay fit (< 4 usable points)")
    r = distances[usable].astype(float)
    y = np.log(norms[usable])
    slope, intercept = np.polyfit(r, y, 1)
    resid = y - (slope * r + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return LocalityProfile(
        distances=distances,
        commutator_norms=norms,
        fitted_rate=float(-slope),
        fit_r2=r2,
        mu=spec.mu,
    )


def _pauli_commutator_norm(a: np.ndarray, site: int, axis: str, hermitian: bool):
    """||[a, sigma]|| for sigma = sigma_site^axis, which is Hermitian and
    unitary: [a, sigma] = (a - sigma a sigma) sigma only couples sigma's +1
    and -1 eigenspaces, so the norm is 2 max(||P+ a P-||, ||P- a P+||), one
    term if a is Hermitian.  Built from the site blocks a_st (s, t the site's
    bits) in the eigenbasis (|0> +- c|1>)/sqrt2, c = 1 (X) or i (Y)."""
    half, lo = a.shape[0] // 2, 1 << site
    b = a.reshape(lo, 2, half // lo, lo, 2, half // lo)
    a00, a01, a10, a11 = (b[:, s, :, :, t, :] for s in (0, 1) for t in (0, 1))
    if axis == "Z":
        couplings = [a01] if hermitian else [a01, a10]
    else:
        c = 1.0 if axis == "X" else 1j
        diag = a00 - a11
        couplings = [(diag - c * a01 + c.conjugate() * a10) / 2.0]
        if not hermitian:
            couplings.append((diag + c * a01 - c.conjugate() * a10) / 2.0)
    return 2.0 * max(spectral_norm(m.reshape(half, half)) for m in couplings)


def _unitary_commutator_norm(a: np.ndarray, u: np.ndarray, hermitian: bool):
    """||[a, I (x) u]|| = ||a - (I (x) u) a (I (x) u)^dag|| for a unitary u on
    the trailing factor; the difference is Hermitian when a is."""
    dc = u.shape[0]
    dk = a.shape[0] // dc
    a4 = a.reshape(dk, dc, dk, dc)
    diff = np.einsum("ac,icjd,bd->iajb", u, a4, u.conj(), optimize=True)
    np.subtract(a4, diff, out=diff)
    return _norm(diff.reshape(a.shape), hermitian)


def _norm(a: np.ndarray, hermitian: bool) -> float:
    if hermitian:
        w = np.linalg.eigvalsh(a)
        return float(max(-w[0], w[-1]))
    return spectral_norm(a)


def local_approximation(
    A: np.ndarray,
    region: int,
    n_random_probes: int = 100,
    probe_seed: int = 2024,
) -> LocalApproximation:
    """Compress A onto its leading ``region`` sites.

    A' is the normalized partial trace over the complement; err is the
    spectral norm of A - A' (x) I.  eps_hat is the largest sampled
    ||[A, I (x) B]|| over every single-site Pauli B on the complement, then
    ``n_random_probes`` seeded Haar-ish unitaries (all of norm 1).  A real A
    stays real, Hermiticity is decided once and no probe matrix is built.
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    d = A.shape[0]
    n_sites = int(round(math.log2(d)))
    if 1 << n_sites != d:
        raise ValueError("operator dimension is not a power of two")
    if not (1 <= region <= n_sites):
        raise ValueError(f"region must be in [1, {n_sites}]")
    dk = 1 << region
    dc = d // dk

    hermitian = _is_hermitian(A)
    a_prime = np.einsum("ajbj->ab", A.reshape(dk, dc, dk, dc)) / dc
    rest = A.copy()  # A - A' (x) I; einsum's diagonal is a writable view
    np.einsum("ajbj->jab", rest.reshape(dk, dc, dk, dc))[...] -= a_prime
    err = _norm(rest, hermitian)

    def probe_norms():
        for site, axis in product(range(region, n_sites), "XYZ"):
            yield f"pauli:{axis}{site}", _pauli_commutator_norm(A, site, axis, hermitian)
        rng = np.random.default_rng(probe_seed)
        for k in range(n_random_probes):
            g = rng.standard_normal((dc, dc)) + 1j * rng.standard_normal((dc, dc))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            yield f"random:{k}", _unitary_commutator_norm(A, q, hermitian)

    # the first largest norm wins; "" with 0.0 if none is positive
    max_probe, eps_hat = max(chain([("", 0.0)], probe_norms()), key=lambda p: p[1])
    return LocalApproximation(a_prime=a_prime, err=err, eps_hat=eps_hat, max_probe=max_probe)
