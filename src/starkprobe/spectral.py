"""Dense spectral machinery.

Hermitian and biorthogonal (left/right) eigendecompositions of plain
square arrays, and the closed-form eigenvectors of the unidirectional chain.
Both eigensolvers check their input square and finite; ``eig_hermitian``
also checks Hermiticity numerically.  Everything here is dense; the
dimensions in this package stay well below the point where sparse or Krylov
methods would pay off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln

from .errors import ExceptionalPointProximity
from .model import LatticeSpec

__all__ = [
    "BiorthogonalSystem",
    "eig_hermitian",
    "eig_biorthogonal",
    "unidirectional_eigvec_normalized",
]

# Above this eigenvector-matrix condition number the basis is treated as
# defective (exceptional-point proximity) and rejected.
EIGENVECTOR_CONDITION_LIMIT = 1e10


@dataclass
class BiorthogonalSystem:
    """Eigenvalues with mutually normalized right and left eigenvector sets.

    Columns of ``right_vectors`` / ``left_vectors`` are paired so that
    <L_m|R_n> = delta_mn; ``condition`` is the 2-norm condition number of the
    right-vector matrix and quantifies how far the completeness relation can
    be trusted.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition: float

    def overlaps(self, psi: np.ndarray) -> np.ndarray:
        """Expansion coefficients <L_n|psi> of a state in the right basis."""
        return self.left_vectors.conj().T @ np.asarray(psi, dtype=complex)


def _square(H) -> np.ndarray:
    """``H`` as a dense complex array, checked square and finite.

    ``np.linalg.eigh`` returns NaN eigenvalues for an ``inf`` entry and
    raises nothing, so the check has to come first.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def eig_hermitian(H):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Raises ValueError unless ``H`` is square, finite and Hermitian to within
    1e-12 of its largest entry.
    """
    A = _square(H)
    scale = float(np.abs(A).max())
    if scale > 0.0 and float(np.abs(A - A.conj().T).max()) >= 1e-12 * scale:
        raise ValueError("eig_hermitian called with a non-Hermitian matrix")
    return np.linalg.eigh(A)


def eig_biorthogonal(H) -> BiorthogonalSystem:
    """Left/right eigendecomposition normalized to <L_m|R_n> = delta_mn.

    Eigenvalues are sorted by real part (ties by imaginary part) and each
    right eigenvector's largest-magnitude component is rotated to the real
    positive axis, which makes the output deterministic.  Raises
    ExceptionalPointProximity when the right-vector matrix condition number
    exceeds ``EIGENVECTOR_CONDITION_LIMIT`` (defective or nearly defective
    input, e.g. the unidirectional chain at h = 0).
    """
    A = _square(H)
    w, vr = sla.eig(A)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]

    cond = float(np.linalg.cond(vr))
    if not np.isfinite(cond) or cond > EIGENVECTOR_CONDITION_LIMIT:
        raise ExceptionalPointProximity(
            f"eigenvector condition number {cond:.3e} exceeds "
            f"{EIGENVECTOR_CONDITION_LIMIT:.0e}; matrix is defective or nearly so"
        )

    # Phase fix: largest-magnitude component of each right vector made real
    # positive.  The left vectors inherit the same rotation through the
    # inverse, which keeps <L_m|R_n> = delta_mn.
    dim = A.shape[0]
    peak = np.argmax(np.abs(vr), axis=0)
    phases = vr[peak, np.arange(dim)]
    phases = phases / np.abs(phases)
    vr = vr / phases[np.newaxis, :]

    left = np.linalg.inv(vr).conj().T
    return BiorthogonalSystem(w, vr, left, cond)


def _unidirectional_log_coeffs(n: int, spec: LatticeSpec) -> np.ndarray:
    if spec.h <= 0:
        raise ValueError("unidirectional eigenvectors require h > 0 (h = 0 is defective)")
    if not 0 <= n <= spec.L - 1:
        raise ValueError(f"eigenvector index must be in 0..{spec.L - 1}, got {n}")
    j = np.arange(spec.L)
    k = n - j  # exponent of (J/h), nonnegative on the support j <= n
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.where(j <= n, k * np.log(spec.J / spec.h) - gammaln(np.maximum(k, 0) + 1.0), -np.inf)
    return log_c


def unidirectional_eigvec_normalized(n: int, spec: LatticeSpec) -> np.ndarray:
    """Unit-norm closed-form right eigenvector of the unidirectional chain.

    ``n`` is the 0-based index: component (J/h)^(n-j)/(n-j)! on sites j <= n,
    0 above, eigenvalue h*(n+1) on the 1-based lattice.  Log-space
    evaluation keeps it finite for arbitrarily large J/h.
    """
    log_c = _unidirectional_log_coeffs(n, spec)
    c = np.exp(log_c - np.max(log_c))
    return (c / np.linalg.norm(c)).astype(complex)

