"""Locality diagnostics for dressed operators: the exponential time filter of
the Heisenberg evolution in closed form, commutator decay against distant
probes, and the finite-support approximation with its sampled commutator bound."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .operators import _hermitian_deviation, check_hermitian
from .spectral import EigenSystem, eigenbasis_blocks, filter_blocks, from_eigenbasis


@dataclass(frozen=True)
class DressSpec:
    """Exponential time filter e^{-mu |t|}."""

    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be finite and positive, got {self.mu}")


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


def dressed_operator(eigs: EigenSystem, A_loc: np.ndarray, spec: DressSpec) -> np.ndarray:
    """Time average of A(t) against e^{-mu |t|}, in closed form: a Lorentzian
    2 mu / (mu^2 + (E_m - E_n)^2) filtering A's linked eigenbasis blocks
    (``filter_blocks``).  Its peak 2 / mu at omega = 0 is checked first, as A
    need not link an a = b block (sigma^x_0 at theta = 0 does not), then the blocks."""
    mu = np.float64(spec.mu)

    def lorentzian(ea, eb):
        return 2.0 * mu / (mu**2 + np.subtract.outer(ea, eb) ** 2)

    blocks = eigenbasis_blocks(eigs, A_loc)  # validates A
    with np.errstate(all="ignore"):  # a non-finite filter is reported below
        finite = np.isfinite(lorentzian(0.0, 0.0))
        out = list(filter_blocks(blocks, eigs.energies, lorentzian)) if finite else []
    if not (finite and all(np.all(np.isfinite(x)) for _, _, x in out)):
        raise ValueError(f"dressed operator is not finite at mu={spec.mu:g}")
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
    norms = np.array([_pauli_commutator_norm(dressed, j, probe_kind) for j in range(n_sites)])

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


def _pauli_commutator_norm(a: np.ndarray, site: int, axis: str, floor: float = 0.0):
    """||[a, sigma]|| of a Hermitian a for sigma = sigma_site^axis, which is
    Hermitian and unitary: [a, sigma] = (a - sigma a sigma) sigma only couples
    sigma's +1 and -1 eigenspaces, so the norm is 2 ||P+ a P-||.  Built from
    the site blocks a_st (s, t the site's bits) in the eigenbasis
    (|0> +- c|1>)/sqrt2, c = 1 (X) or i (Y); a bound below floor may stand in."""
    half, lo = a.shape[0] // 2, 1 << site
    b = a.reshape(lo, 2, half // lo, lo, 2, half // lo)
    a00, a01, a10, a11 = (b[:, s, :, :, t, :] for s in (0, 1) for t in (0, 1))
    c = 1.0 if axis == "X" else 1j
    with np.errstate(over="ignore", invalid="ignore"):  # _gram_norm refuses a non-finite m
        m = a01 if axis == "Z" else (a00 - a11 - c * a01 + c.conjugate() * a10) / 2.0
    return 2.0 * _gram_norm(m.reshape(half, half), floor / 2.0)


def _gram_norm(m: np.ndarray, floor: float = 0.0) -> float:
    """||m|| = sqrt(lambda_max(m m^H)), a GEMM and an ``eigvalsh`` at about a
    third of an SVD's cost; the top eigenvalue of a positive semidefinite Gram
    matrix keeps its relative accuracy, so tiny norms do too.  An m that is
    not finite, or whose ||m||_F^2 overflows (||m|| above about 1e154),
    raises, with no warning first (``eigvalsh`` may return finite values or
    NaN for it).  Given a floor, ||m||^2 <= ||m||_1 ||m||_inf times 1 + 1e-8
    (the rounding of the sums and of ``eigvalsh``, about n eps each) is
    returned before the GEMM when below it, taken only while n bound^2 >=
    ||m||_F^2 is far from overflow (NaN fails the test)."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the trace
        if floor > 0.0:
            h = np.abs(m)
            bound = math.sqrt(h.sum(axis=0).max()) * math.sqrt(h.sum(axis=1).max()) * (1.0 + 1e-8)
            if bound < floor and bound < 1e150 / math.sqrt(len(m)):
                return bound
        g = m @ m.conj().T
        if not np.isfinite(np.trace(g)):
            raise np.linalg.LinAlgError("probe coupling is not finite or its Gram matrix overflows")
    return math.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0))


def _unitary_commutator_norm(a: np.ndarray, u: np.ndarray, floor: float = 0.0):
    """||[a, I (x) u]|| = ||D||, D = a - (I (x) u) a (I (x) u)^dag Hermitian,
    of a Hermitian a for a unitary u on the trailing factor.  Given a floor,
    s = floor (1 - 1e-6) is returned when Cholesky factors s I - D and s I + D
    (D's lower triangle, as ``eigvalsh`` reads it), at half an ``eigvalsh``'s
    cost: a completed factorization of M is exact for an M + dM with ||dM||
    <= d (d + 1) u ||M||, u = 2^-53: 6e-8 s at d = 2^14 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.5).  So ||D|| < floor
    (1 - 9e-7), which ``eigvalsh`` (error about d u ||D||) cannot read above floor.
    D is shifted in place and restored bitwise (negation is exact, the
    diagonal is saved) for the ``eigvalsh`` of a probe that fails."""
    dc = u.shape[0]
    dk = a.shape[0] // dc
    a4 = a.reshape(dk, dc, dk, dc)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite D fails Cholesky and eigvalsh
        diff = np.einsum("ac,icjd,bd->iajb", u, a4, u.conj(), optimize=True)
        diff = np.subtract(a4, diff, out=diff).reshape(a.shape)
    if floor > 0.0:
        s = floor * (1.0 - 1e-6)
        diagonal = np.einsum("ii->i", diff)  # a writable view
        saved, below = diagonal.copy(), True
        for sign in (1.0, -1.0):  # s I + D, then s I - D
            diagonal[...] = s + sign * saved
            below = below and _positive_definite(diff)
            np.negative(diff, out=diff)
        diagonal[...] = saved
        if below:
            return s
    return _hermitian_norm(diff)


def _positive_definite(m: np.ndarray) -> bool:
    """Cholesky of m's lower triangle completes with a finite factor (it
    passes NaN and inf through without an error)."""
    try:
        return bool(np.isfinite(np.trace(np.linalg.cholesky(m))))
    except np.linalg.LinAlgError:
        return False


def _hermitian_norm(a: np.ndarray) -> float:
    """max |eigenvalue|, +0.0 for a zero matrix."""
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def _integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """value as an int in [lo, hi]: numpy integers pass; bool, 2.5 and "3" do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


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
    ``n_random_probes`` seeded Haar-ish unitaries (all of norm 1); the first
    largest wins, so a probe bounded strictly below the running maximum skips
    its dense step and every field stays bitwise: a Pauli probe its Gram GEMM
    (``_gram_norm``), a random probe its ``eigvalsh`` after two Cholesky
    factorizations (``_unitary_commutator_norm``).  A region of every site
    leaves no complement: A' = A, err = eps_hat = 0.0 and no probe is drawn.
    A must be Hermitian (``check_hermitian``, ValueError otherwise), a real A
    stays real and no probe matrix is built.
    """
    count = _integer(n_random_probes, "n_random_probes", 0)
    A = check_hermitian(A)
    d = A.shape[0]
    n_sites = int(round(math.log2(d)))
    if 1 << n_sites != d:
        raise ValueError("operator dimension is not a power of two")
    region = _integer(region, "region", 1, n_sites)
    dk = 1 << region
    dc = d // dk

    a_prime = np.einsum("ajbj->ab", A.reshape(dk, dc, dk, dc)) / dc
    if dc == 1:  # no complement: a probe would be a phase, its D = A - A roundoff
        return LocalApproximation(a_prime=a_prime, err=0.0, eps_hat=0.0, max_probe="")
    rest = A.copy()  # A - A' (x) I; einsum's diagonal is a writable view
    np.einsum("ajbj->jab", rest.reshape(dk, dc, dk, dc))[...] -= a_prime
    err = _hermitian_norm(rest)

    def probe_norms():  # read lazily: eps_hat is the running maximum below
        for site, axis in product(range(region, n_sites), "XYZ"):
            yield f"pauli:{axis}{site}", _pauli_commutator_norm(A, site, axis, eps_hat)
        rng = np.random.default_rng(probe_seed)
        for k in range(count):
            g = rng.standard_normal((dc, dc)) + 1j * rng.standard_normal((dc, dc))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            yield f"random:{k}", _unitary_commutator_norm(A, q, eps_hat)

    max_probe, eps_hat = "", 0.0  # if no norm is positive
    for probe, norm in probe_norms():
        if norm > eps_hat:
            max_probe, eps_hat = probe, norm
    return LocalApproximation(a_prime=a_prime, err=err, eps_hat=eps_hat, max_probe=max_probe)
