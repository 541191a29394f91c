"""Hermitian operator construction for finite spin chains.

The TFIM is defined once, as bit terms (``FlipOperator``: a diagonal plus
coefficients of bit-flip masks), from which the symmetry blocks are read
without a dense matrix; ``build_tfim`` writes the same terms densely and
``FlipOperator.from_dense`` reads them back.  Every other builder returns a
plain ``numpy`` array in the computational (z) basis, float64 where real
and complex otherwise.  Site 0 is the leftmost tensor factor, i.e. the most
significant bit of the basis index.
"""

from __future__ import annotations

import math
import numbers
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


def _integer(value, name: str, lo: int, hi: float = math.inf) -> int:
    """value as an int in [lo, hi]: numpy integers pass; bool, 2.5 and "3" do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _hermitian_deviation(a: np.ndarray) -> tuple[float, float]:
    """max|a - a^dag| of a square ``a`` and its tolerance 1e-12 max(1, max|a|),
    the one Hermiticity rule.  Both maxima are taken tile by tile, each
    TILE x TILE tile against its transposed partner, so the strided transpose
    is read in cache-sized pieces and no d x d temporary is made; ``np.max``
    over the tile maxima keeps a NaN, so ``dev <= tol`` fails on one."""
    tiles = []
    for i in range(0, a.shape[0], TILE):
        for j in range(i, a.shape[0], TILE):
            x, y = a[i:i + TILE, j:j + TILE], a[j:j + TILE, i:i + TILE]
            tiles.append((np.max(np.abs(x - y.conj().T)),
                          np.max(np.abs(x)), np.max(np.abs(y))))
    dev, *peak = np.max(tiles, axis=0)
    return float(dev), 1e-12 * max(1.0, *peak)


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate ``a`` as square and Hermitian to 1e-12 relative; return
    float64 if real, else complex."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    dev, tol = _hermitian_deviation(a)
    if not dev <= tol:  # NaN fails
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
        _integer(self.n_sites, "n_sites", 1, HARD_SITE_CAP)
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
    _integer(n_sites, "n_sites", 1, HARD_SITE_CAP)
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


@dataclass(frozen=True, eq=False)
class FlipOperator:
    """A real operator on the d = 2^n basis states of a chain as bit terms,
    diag(diagonal) + sum_m c_m X^m over ``flips`` = ((m, c_m), ...), where X^m
    flips the bits of the mask m, |i> -> |i xor m>.  Every X^m is a symmetric
    permutation, so the operator is Hermitian by construction.  The masks are
    distinct and nonzero and the coefficients finite; a zero coefficient is
    dropped, as the dense matrix holds nothing for it, and ``flips`` is kept
    sorted by mask."""

    diagonal: np.ndarray
    flips: tuple = ()

    __array_ufunc__ = None  # a numpy scalar times A takes __rmul__
    dtype = np.dtype(float)

    def __post_init__(self):
        diagonal = np.array(self.diagonal, dtype=float)
        d = len(diagonal)
        if diagonal.ndim != 1 or not 2 <= d <= HARD_DIM_CAP or d & (d - 1):
            raise ValueError(f"diagonal must have 2^n entries, 1 <= n <= "
                             f"{HARD_SITE_CAP}, got shape {diagonal.shape}")
        flips = {}
        for mask, c in self.flips:
            if not 0 < mask < d or mask in flips:
                raise ValueError(f"flip masks must be distinct and in [1, {d}), got {mask}")
            flips[int(mask)] = float(c)
        if not (np.all(np.isfinite(diagonal)) and all(map(math.isfinite, flips.values()))):
            raise ValueError("coefficients must be finite")
        diagonal.setflags(write=False)
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "flips", tuple(sorted(
            (m, c) for m, c in flips.items() if c != 0.0)))

    @classmethod
    def from_dense(cls, M) -> FlipOperator | None:
        """A dense matrix as bit terms, or None: a real 2^n x 2^n M is bit terms
        (and symmetric) when each entry M[i, i xor m] off the diagonal equals
        M[0, m], compared TILE rows at a time; a NaN there compares unequal.
        A non-finite diagonal or coefficient raises as in the constructor."""
        M = np.asarray(M)
        d = M.shape[0] if M.ndim == 2 else 0
        if M.shape != (d, d) or np.iscomplexobj(M) or not 2 <= d <= HARD_DIM_CAP or d & (d - 1):
            return None
        M = M.astype(float, copy=False)
        t, idx = min(TILE, d), np.arange(d)
        masks, k = idx[:t, None] ^ idx, idx[:t]
        for i in range(0, d, t):
            same = M[i:i + t] == M[0, idx ^ i][masks]
            same[k, i + k] = True
            if not same.all():
                return None
        m = np.flatnonzero(M[0, 1:]) + 1
        return cls(M.diagonal(), tuple(zip(m.tolist(), M[0, m].tolist())))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.diagonal),) * 2

    def __rmul__(self, s):
        """s A: s times every diagonal entry and coefficient."""
        return FlipOperator(s * self.diagonal, tuple((m, s * c) for m, c in self.flips))

    def __add__(self, other):
        """A + B by the dense sum's float operations: a term of one operand
        alone adds 0.0 from the other, and every other off-diagonal entry is
        0.0 + 0.0."""
        if not isinstance(other, FlipOperator):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"dimension mismatch: {self.shape} and {other.shape}")
        a, b = dict(self.flips), dict(other.flips)
        return FlipOperator(self.diagonal + other.diagonal,
                            tuple((m, a.get(m, 0.0) + b.get(m, 0.0)) for m in a.keys() | b.keys()))

    def links_parity(self, flip: int) -> bool:
        """Whether a nonzero element links states whose spin parities
        (popcount mod 2) differ by ``flip``: the diagonal keeps the parity,
        and the mask m changes it by its popcount mod 2."""
        return (flip == 0 and bool(np.any(self.diagonal))) or any(
            m.bit_count() % 2 == flip for m, _ in self.flips)

    def mirrored(self, rev: np.ndarray, sign: int) -> bool:
        """Whether A[r, r] == sign A exactly for a permutation of the bits,
        r = ``rev`` on indices: the diagonal must satisfy it, and each mask m
        must have a partner r(m) with coefficient sign c_m."""
        flips = dict(self.flips)
        return np.array_equal(self.diagonal[rev], sign * self.diagonal) and all(
            flips.get(int(rev[m])) == sign * c for m, c in self.flips)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A[np.ix_(rows, cols)] for distinct ``cols``, filled term by term
        through the position of each column: row s holds the diagonal at
        column s and c_m at column s xor m, where those are among ``cols``."""
        pos = np.full(len(self.diagonal), -1, dtype=np.intp)
        pos[cols] = np.arange(len(cols))
        out = np.zeros((len(rows), len(cols)))
        k = np.arange(len(rows))
        for mask, c in ((0, self.diagonal[rows]), *self.flips):
            col = pos[rows ^ mask]
            hit = col >= 0
            out[k[hit], col[hit]] = c[hit] if mask == 0 else c
        return out

    def dense(self) -> np.ndarray:
        """The d x d float64 matrix."""
        idx = np.arange(len(self.diagonal))
        out = np.zeros(self.shape)
        out[idx, idx] = self.diagonal
        for mask, c in self.flips:
            out[idx ^ mask, idx] = c
        return out


def tfim_operators(spec: ModelSpec) -> tuple[FlipOperator, FlipOperator]:
    """Transverse-field Ising Hamiltonian and its conjugate observable as bit
    terms.

    H = sin(gamma) sum_i sigma_i^z - cos(gamma) sum_i sigma_i^x sigma_{i+1}^x
        + theta sum_i sigma_i^x      (open boundary)
    O = sum_i sigma_i^x = dH/dtheta

    sigma_i^z is diagonal, and sigma_i^x flips bit n-1-i of the basis index.
    H is formed as H_0 + theta O, so its entries are those of the dense sum.
    """
    n = spec.n_sites
    idx = np.arange(spec.dim)
    zdiag = np.zeros(spec.dim)
    for i in range(n):
        bit = (idx >> (n - 1 - i)) & 1
        zdiag += 1.0 - 2.0 * bit
    sites = [1 << (n - 1 - i) for i in range(n)]
    O = FlipOperator(np.zeros(spec.dim), tuple((m, 1.0) for m in sites))
    H0 = FlipOperator(np.sin(spec.gamma) * zdiag,
                      tuple((m | m >> 1, -np.cos(spec.gamma)) for m in sites[:-1]))
    return H0 + spec.theta * O, O


def build_tfim(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The dense H and O of ``tfim_operators``, float64 d x d arrays."""
    H, O = tfim_operators(spec)
    return H.dense(), O.dense()


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
