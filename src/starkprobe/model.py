"""Hamiltonians and jump operators of a tilted tight-binding chain.

Site index runs 1..L, so the gradient term reads ``h*j`` on site ``j``.
A uniform shift of the diagonal only adds a global phase to the dynamics
and leaves every Fisher-information quantity unchanged, which makes the
index base a pure gauge choice (covered by tests).  Units: ``hbar = 1``,
energies in units of the tunneling ``J``, time in ``1/J``.  Open boundary
conditions throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeSpec",
    "OperatorMatrix",
    "as_matrix",
    "build_stark",
    "build_dephasing_ops",
    "build_effective_dephasing",
    "build_hatano_nelson",
    "build_unidirectional",
    "site_state",
    "middle_site",
    "gaussian_packet",
]

# Hermiticity tag tolerance, relative to the largest entry.
HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class LatticeSpec:
    """Physical configuration of the probe lattice.

    Attributes
    ----------
    L : number of sites (>= 2)
    J : nearest-neighbor tunneling energy (> 0, sets the energy unit)
    h : gradient field in units of J (>= 0)
    gamma : decoherence strength in units of J (>= 0)
    """

    L: int
    J: float = 1.0
    h: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not isinstance(self.L, (int, np.integer)) or isinstance(self.L, bool):
            raise ValueError(f"L must be an integer, got {self.L!r}")
        if self.L < 2:
            raise ValueError(f"L must be >= 2, got {self.L}")
        for name in ("J", "h", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.J <= 0:
            raise ValueError(f"J must be > 0, got {self.J}")
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")

    @property
    def mu(self) -> float:
        """Nonreciprocity exponent sinh^-1(gamma).

        Evaluated as log(gamma + sqrt(gamma^2 + 1)), which is stable for
        small gamma.
        """
        g = float(self.gamma)
        return math.log(g + math.sqrt(g * g + 1.0))

    def with_field(self, h: float) -> "LatticeSpec":
        """Copy of this spec with the gradient field replaced (for h-derivatives)."""
        return LatticeSpec(self.L, self.J, h, self.gamma)

    def sites(self) -> np.ndarray:
        """Site indices 1..L as a float array."""
        return np.arange(1, self.L + 1, dtype=float)


@dataclass
class OperatorMatrix:
    """Dense complex square matrix with an explicit Hermiticity tag.

    The tag is verified at construction: when set, the anti-Hermitian part
    must vanish to within ``HERMITICITY_RTOL`` relative to the largest entry.
    """

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        A = np.array(self.entries, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {A.shape}")
        if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
            raise ValueError("entries must be finite")
        if self.hermitian:
            scale = float(np.abs(A).max())
            if scale > 0.0 and float(np.abs(A - A.conj().T).max()) >= HERMITICITY_RTOL * scale:
                raise ValueError("hermitian tag set on a non-Hermitian matrix")
        self.entries = A

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def as_matrix(op) -> np.ndarray:
    """Return the dense complex array behind an OperatorMatrix or array-like."""
    if isinstance(op, OperatorMatrix):
        return op.entries
    A = np.asarray(op, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def build_stark(spec: LatticeSpec) -> OperatorMatrix:
    """Tight-binding chain with a linear gradient.

    Off-diagonals (j, j+1) = (j+1, j) = J, diagonal h*j for j = 1..L.
    """
    L = spec.L
    H = np.zeros((L, L), dtype=complex)
    off = np.arange(L - 1)
    H[off, off + 1] = spec.J
    H[off + 1, off] = spec.J
    H[np.arange(L), np.arange(L)] = spec.h * spec.sites()
    return OperatorMatrix(H, hermitian=True)


def build_dephasing_ops(spec: LatticeSpec) -> list[OperatorMatrix]:
    """Site-occupation projectors |j><j| acting as the dephasing jump operators."""
    ops = []
    for j in range(spec.L):
        n = np.zeros((spec.L, spec.L), dtype=complex)
        n[j, j] = 1.0
        ops.append(OperatorMatrix(n, hermitian=True))
    return ops


def build_effective_dephasing(spec: LatticeSpec) -> OperatorMatrix:
    """No-jump effective Hamiltonian H_S - (i*gamma/2) * sum_j n_j^dag n_j.

    The site projectors sum to the identity, so this is the chain
    Hamiltonian with a uniform imaginary shift -i*gamma/2.
    """
    H = build_stark(spec).entries.copy()
    H -= 0.5j * spec.gamma * np.eye(spec.L)
    return OperatorMatrix(H, hermitian=(spec.gamma == 0.0))


def build_hatano_nelson(spec: LatticeSpec) -> OperatorMatrix:
    """Nonreciprocal chain with J_L = J e^mu leftward and J_R = J e^-mu rightward.

    mu = sinh^-1(gamma), so gamma = 0 reduces to the reciprocal chain and
    J_L * J_R = J^2 for every gamma.
    """
    L, mu = spec.L, spec.mu
    H = np.zeros((L, L), dtype=complex)
    off = np.arange(L - 1)
    H[off, off + 1] = spec.J * math.exp(mu)
    H[off + 1, off] = spec.J * math.exp(-mu)
    H[np.arange(L), np.arange(L)] = spec.h * spec.sites()
    return OperatorMatrix(H, hermitian=(spec.gamma == 0.0))


def build_unidirectional(spec: LatticeSpec) -> OperatorMatrix:
    """Chain with hopping in one direction only: (j, j+1) = J, (j+1, j) = 0.

    Upper triangular, so the spectrum is exactly the diagonal h*j.
    """
    L = spec.L
    H = np.zeros((L, L), dtype=complex)
    off = np.arange(L - 1)
    H[off, off + 1] = spec.J
    H[np.arange(L), np.arange(L)] = spec.h * spec.sites()
    return OperatorMatrix(H, hermitian=False)


def middle_site(L: int) -> int:
    """Mid-lattice site ceil(L/2) (1-based)."""
    return (L + 1) // 2


def site_state(L: int, site: int) -> np.ndarray:
    """Unit vector for a particle on one site (1-based index)."""
    if not 1 <= site <= L:
        raise ValueError(f"site must be in 1..{L}, got {site}")
    v = np.zeros(L, dtype=complex)
    v[site - 1] = 1.0
    return v


def gaussian_packet(L: int, sigma: float = 2.0, center: float | None = None) -> np.ndarray:
    """Normalized packet with amplitudes exp(-(j - center)^2 / (2 sigma^2)).

    ``center`` defaults to L/2 on the 1-based site axis.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if center is None:
        center = L / 2.0
    j = np.arange(1, L + 1, dtype=float)
    v = np.exp(-((j - center) ** 2) / (2.0 * sigma * sigma)).astype(complex)
    return v / np.linalg.norm(v)
