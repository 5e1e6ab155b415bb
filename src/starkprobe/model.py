"""Hamiltonians and jump operators of a tilted tight-binding chain.

Site index runs 1..L, so the gradient term reads ``h*j`` on site ``j``.
A uniform shift of the diagonal only adds a global phase to the dynamics
and leaves every Fisher-information quantity unchanged, which makes the
index base a pure gauge choice (covered by tests).  Units: ``hbar = 1``,
energies in units of the tunneling ``J``, time in ``1/J``.  Open boundary
conditions throughout.

Every builder returns a plain dense complex ``ndarray``.  The three chains
differ only in their two hopping amplitudes and share one constructor;
whoever needs Hermiticity (``spectral.eig_hermitian``) checks it numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeSpec",
    "build_stark",
    "build_dephasing_ops",
    "build_effective_dephasing",
    "build_hatano_nelson",
    "build_unidirectional",
    "site_state",
    "middle_site",
    "gaussian_packet",
]


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


def _chain(spec: LatticeSpec, upper: float, lower: float) -> np.ndarray:
    """Tilted chain: (j, j+1) = upper, (j+1, j) = lower, diagonal h*j for j = 1..L."""
    hop = np.ones(spec.L - 1)
    H = np.diag(spec.h * spec.sites()) + np.diag(upper * hop, 1) + np.diag(lower * hop, -1)
    return H.astype(complex)


def build_stark(spec: LatticeSpec) -> np.ndarray:
    """Tight-binding chain with a linear gradient: hopping J both ways."""
    return _chain(spec, spec.J, spec.J)


def build_dephasing_ops(spec: LatticeSpec) -> list[np.ndarray]:
    """Site-occupation projectors |j><j| acting as the dephasing jump operators."""
    return [np.diag(row) for row in np.eye(spec.L, dtype=complex)]


def build_effective_dephasing(spec: LatticeSpec) -> np.ndarray:
    """No-jump effective Hamiltonian H_S - (i*gamma/2) * sum_j n_j^dag n_j.

    The site projectors sum to the identity, so this is the chain
    Hamiltonian with a uniform imaginary shift -i*gamma/2.
    """
    return build_stark(spec) - 0.5j * spec.gamma * np.eye(spec.L)


def build_hatano_nelson(spec: LatticeSpec) -> np.ndarray:
    """Nonreciprocal chain with J_L = J e^mu leftward and J_R = J e^-mu rightward.

    mu = sinh^-1(gamma), so gamma = 0 reduces to the reciprocal chain and
    J_L * J_R = J^2 for every gamma.
    """
    return _chain(spec, spec.J * math.exp(spec.mu), spec.J * math.exp(-spec.mu))


def build_unidirectional(spec: LatticeSpec) -> np.ndarray:
    """Chain with hopping in one direction only: (j, j+1) = J, (j+1, j) = 0.

    Upper triangular, so the spectrum is exactly the diagonal h*j.
    """
    return _chain(spec, spec.J, 0.0)


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


def gaussian_packet(L: int, sigma: float = 2.0) -> np.ndarray:
    """Normalized packet with amplitudes exp(-(j - L/2)^2 / (2 sigma^2)).

    Centered at L/2 on the 1-based site axis.  A ``sigma`` so narrow that
    the squared peak amplitude underflows (no site near enough to the
    center) leaves no norm to divide by and raises ValueError.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    j = np.arange(1, L + 1, dtype=float)
    with np.errstate(all="ignore"):  # an underflowing packet is rejected below
        v = np.exp(-((j - L / 2.0) ** 2) / (2.0 * sigma * sigma))
    if not v.max() >= np.sqrt(np.finfo(float).tiny):
        raise ValueError(f"sigma = {sigma} at L = {L}: the packet underflows")
    v = v.astype(complex)
    return v / np.linalg.norm(v)
