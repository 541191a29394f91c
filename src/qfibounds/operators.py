"""Dense Hermitian operator construction for finite spin chains.

Everything here returns plain ``numpy`` arrays in the computational (z)
basis, float64 where real and complex otherwise.  Site 0 is the leftmost
tensor factor, i.e. the most significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Desk-scale guard: 2^14 x 2^14 complex is ~4 GB, the largest dense matrix we
# are willing to build.
HARD_SITE_CAP = 14
HARD_DIM_CAP = 1 << HARD_SITE_CAP

# Rows (and columns) per tile of the blocked passes over d x d matrices: each
# tile's temporaries are at most TILE x d, whatever d is.
TILE = 128

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate ``a`` as square and Hermitian to 1e-12 relative; return
    float64 if real, else complex.  max|a| and max|a - a^dag| are taken
    tile by tile, each TILE x TILE tile against its transposed partner, so
    the strided transpose is read in cache-sized pieces and no d x d
    temporary is made; ``np.max`` over the tile maxima keeps a NaN."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    tiles = []
    for i in range(0, a.shape[0], TILE):
        for j in range(i, a.shape[0], TILE):
            x, y = a[i:i + TILE, j:j + TILE], a[j:j + TILE, i:i + TILE]
            tiles.append((np.max(np.abs(x - y.conj().T)),
                          np.max(np.abs(x)), np.max(np.abs(y))))
    dev, *peak = np.max(tiles, axis=0)
    scale = max(1.0, *peak)
    if not dev <= 1e-12 * scale:  # NaN fails
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return a


@dataclass(frozen=True)
class ModelSpec:
    """Open-boundary transverse-field Ising chain parameters.

    ``gamma`` sets the competition between the transverse field (sin gamma)
    and the Ising coupling (cos gamma); ``theta`` is the longitudinal field
    whose conjugate observable is the total x-magnetization.
    """

    n_sites: int
    gamma: float
    theta: float = 0.0

    def __post_init__(self):
        if not (1 <= self.n_sites <= HARD_SITE_CAP):
            raise ValueError(
                f"n_sites must be in [1, {HARD_SITE_CAP}], got {self.n_sites}"
            )
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def dim(self) -> int:
        return 1 << self.n_sites


@dataclass(frozen=True)
class PauliString:
    """A product of single-site Paulis times a real coefficient.

    ``factors`` maps site index -> axis ("X", "Y" or "Z"); unlisted sites
    carry the identity.
    """

    factors: dict = field(default_factory=dict)
    coefficient: float = 1.0

    def __post_init__(self):
        for site, axis in self.factors.items():
            if axis not in ("X", "Y", "Z"):
                raise ValueError(f"unknown Pauli axis {axis!r} at site {site}")
            if site < 0:
                raise ValueError(f"negative site index {site}")


def pauli_string_matrix(ps: PauliString, n_sites: int) -> np.ndarray:
    """Dense matrix of a Pauli string on an ``n_sites`` chain: float64 unless
    a factor is Y (or the coefficient is complex), complex then."""
    if not (1 <= n_sites <= HARD_SITE_CAP):
        raise ValueError(f"n_sites must be in [1, {HARD_SITE_CAP}]")
    if ps.factors and max(ps.factors) >= n_sites:
        raise ValueError(
            f"site index {max(ps.factors)} out of range for n_sites={n_sites}"
        )
    real = "Y" not in ps.factors.values() and not np.iscomplexobj(ps.coefficient)
    out = np.array([[ps.coefficient]], dtype=float if real else complex)
    for site in range(n_sites):
        factor = PAULI[ps.factors.get(site, "I")]
        out = np.kron(out, factor.real if real else factor)
    return out


def build_tfim(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Transverse-field Ising Hamiltonian and its conjugate observable.

    H = sin(gamma) sum_i sigma_i^z - cos(gamma) sum_i sigma_i^x sigma_{i+1}^x
        + theta sum_i sigma_i^x      (open boundary)
    O = sum_i sigma_i^x = dH/dtheta

    Built with basis-index bit arithmetic rather than Kronecker products so
    chains near the site cap stay cheap.
    """
    n = spec.n_sites
    d = spec.dim
    idx = np.arange(d)

    zdiag = np.zeros(d)
    for i in range(n):
        bit = (idx >> (n - 1 - i)) & 1
        zdiag += 1.0 - 2.0 * bit

    H = np.zeros((d, d))
    H[idx, idx] = np.sin(spec.gamma) * zdiag
    for i in range(n - 1):
        mask = (1 << (n - 1 - i)) | (1 << (n - 2 - i))
        H[idx ^ mask, idx] += -np.cos(spec.gamma)

    O = np.zeros((d, d))
    for i in range(n):
        O[idx ^ (1 << (n - 1 - i)), idx] += 1.0

    H += spec.theta * O
    return H, O


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian matrix, (G + G^dag)/2 of a complex Gaussian.

    Uses numpy's PCG64 generator, so a fixed seed reproduces the same matrix
    across runs and platforms.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > HARD_DIM_CAP:
        raise ValueError(f"dim {dim} exceeds cap {HARD_DIM_CAP}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def single_qubit_model(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form fixture: H = sigma^z + theta sigma^x, O = sigma^x."""
    H = PAULI["Z"] + theta * PAULI["X"]
    return H, PAULI["X"].copy()
