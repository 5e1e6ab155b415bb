"""Dense spectral machinery.

Hermitian and biorthogonal (left/right) eigendecompositions of plain
square arrays, and the closed-form eigenvectors of the unidirectional chain.
Both eigensolvers check their input square and finite; ``eig_hermitian``
also checks Hermiticity numerically.  ``eig_biorthogonal`` diagonalizes a
real tridiagonal chain whose opposite hoppings share a sign (the Stark and
Hatano-Nelson chains) through the imaginary gauge, with one real symmetric
eigensolve; any other input, and a gauge result above its residual bound,
takes the general complex eigensolver.  The gauge route checks the
defectiveness limit on a closed-form bound of the eigenvector condition
number and runs the SVD only when that bound reaches the limit.  Everything
here is dense; the dimensions in this package stay well below the point
where sparse or Krylov methods would pay off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

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
    <L_m|R_n> = delta_mn; ``condition`` is the exact 2-norm condition number
    of the right-vector matrix and quantifies how far the completeness
    relation can be trusted.  It costs one SVD, computed on first read.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    @cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(self.right_vectors))

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
    input, e.g. the unidirectional chain at h = 0).  The general route checks
    the exact condition number; the gauge route first bounds it in closed
    form and runs the SVD only when the bound exceeds the limit, so both
    routes accept and reject the same inputs.

    A real tridiagonal matrix whose off-diagonal pairs have positive products
    (the Stark and Hatano-Nelson chains) is diagonalized through the
    imaginary gauge, with one real symmetric eigensolve.  That result is kept
    when every eigenpair residual ||A r - w r|| is below 100 n eps max|A_ij|
    for an n x n input.  Every other input, and a gauge result above that
    bound, goes through the general complex eigensolver.
    """
    A = _square(H)
    system = _eig_gauge(A)
    return _eig_general(A) if system is None else system


def _checked_condition(vr: np.ndarray) -> None:
    """Raise when the 2-norm condition number of ``vr`` passes the defectiveness limit."""
    cond = float(np.linalg.cond(vr))
    if not np.isfinite(cond) or cond > EIGENVECTOR_CONDITION_LIMIT:
        raise ExceptionalPointProximity(
            f"eigenvector condition number {cond:.3e} exceeds "
            f"{EIGENVECTOR_CONDITION_LIMIT:.0e}; matrix is defective or nearly so"
        )


def _peak_phases(vr: np.ndarray) -> np.ndarray:
    """Unit phase of each column's first component of (near-)largest magnitude.

    A mirror-symmetric chain has two peaks of equal magnitude that rounding
    orders either way; taking the lowest index within a relative 1e-8 of the
    maximum gives every eigensolver the same phase.
    """
    mag = np.abs(vr)
    peak = np.argmax(mag >= (1.0 - 1e-8) * mag.max(axis=0), axis=0)
    phases = vr[peak, np.arange(vr.shape[1])]
    return phases / np.abs(phases)


def _eig_general(A: np.ndarray) -> BiorthogonalSystem:
    w, vr = sla.eig(A)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    _checked_condition(vr)
    # The left vectors inherit the phase fix through the inverse, which keeps
    # <L_m|R_n> = delta_mn.
    vr = vr / _peak_phases(vr)[np.newaxis, :]
    left = np.linalg.inv(vr).conj().T
    return BiorthogonalSystem(w, vr, left)


def _eig_gauge(A: np.ndarray) -> BiorthogonalSystem | None:
    """Biorthogonal system of a real tridiagonal chain through the imaginary gauge.

    With upper hoppings u_j and lower hoppings l_j of equal sign, the
    diagonal gauge d_{j+1}/d_j = sqrt(l_j/u_j) makes D^-1 A D = T real
    symmetric tridiagonal with off-diagonals sign(u_j) sqrt(u_j l_j)
    (Hatano & Nelson, PRL 77, 570 (1996)).  From T = V diag(w) V^T the right
    vectors are D V and the left vectors D^-1 V, normalized in closed form.
    Both are built column by column in log space, so no gauge factor
    overflows or underflows however far the skin effect reaches.  The right
    vectors are D V C with C the diagonal of inverse column norms, so
    cond(D) cond(C) bounds their condition number, up to the O(n eps) loss
    of orthogonality of V.

    Returns None when A is not such a chain, or when an eigenpair residual
    ||A r - w r|| exceeds 100 n eps max|A_ij|: there the gauge amplifies the
    eigensolver's rounding in the small components of V (strong field with
    strong nonreciprocity) and the general solver is more accurate.
    """
    if np.any(A.imag):
        return None
    A = A.real
    n = A.shape[0]
    upper, lower = np.diag(A, 1), np.diag(A, -1)
    if np.any(np.triu(A, 2)) or np.any(np.tril(A, -2)):
        return None
    if not np.all(np.sign(upper) * np.sign(lower) > 0):
        return None
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * (np.log(np.abs(lower)) - np.log(np.abs(upper))))))
    log_d -= log_d.max()
    hop = np.sign(upper) * np.sqrt(np.abs(upper)) * np.sqrt(np.abs(lower))
    w, v = np.linalg.eigh(np.diag(np.diag(A)) + np.diag(hop, 1) + np.diag(hop, -1))

    sign = np.sign(v)
    with np.errstate(divide="ignore"):  # an exact zero of v has log -inf
        log_v = np.log(np.abs(v))
    log_r = log_d[:, np.newaxis] + log_v
    log_peak = log_r.max(axis=0)
    right = sign * np.exp(log_r - log_peak)
    norms = np.linalg.norm(right, axis=0)
    right /= norms
    residual = np.linalg.norm(A @ right - right * w, axis=0).max()
    if residual > 100 * n * np.finfo(float).eps * np.abs(A).max():
        return None

    # log ||D v_n|| per column; the factor 2 in the bound covers the loss of
    # orthogonality of V and the rounding of the exponential.  Below the limit
    # the exact condition number is below it too, and the SVD is skipped.
    log_norms = np.log(norms)
    log_bound = math.log(2.0) + np.ptp(log_d) + np.ptp(log_norms + log_peak)
    if log_bound > math.log(EIGENVECTOR_CONDITION_LIMIT):
        _checked_condition(right)
    # Past this check every left-vector entry is bounded by the condition
    # number, so the exponential below cannot overflow.
    phases = _peak_phases(right)
    right = right * phases
    # <L_n|R_n> = sum_j v_jn^2 = 1 with the per-column factors cancelling.
    left = sign * phases * np.exp(log_v - log_d[:, np.newaxis] + log_peak + log_norms)
    return BiorthogonalSystem(w.astype(complex), right.astype(complex), left.astype(complex))


def _unidirectional_log_coeffs(n: int, spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.h <= 0:
        raise ValueError("unidirectional eigenvectors require h > 0 (h = 0 is defective)")
    if not 0 <= n <= spec.L - 1:
        raise ValueError(f"eigenvector index must be in 0..{spec.L - 1}, got {n}")
    k = np.arange(n, -1, -1)  # exponent of J/h on the support j = 0..n
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1)))))[::-1]
    return k, k * (math.log(spec.J) - math.log(spec.h)) - log_factorial


def unidirectional_eigvec_normalized(n: int, spec: LatticeSpec) -> np.ndarray:
    """Unit-norm closed-form right eigenvector of the unidirectional chain.

    ``n`` is the 0-based index: component (J/h)^(n-j)/(n-j)! on sites j <= n,
    0 above, eigenvalue h*(n+1) on the 1-based lattice.  Log-space
    evaluation keeps it finite for arbitrarily large J/h.
    """
    _, log_c = _unidirectional_log_coeffs(n, spec)
    c = np.zeros(spec.L, dtype=complex)
    c[: n + 1] = np.exp(log_c - np.max(log_c))
    return c / np.linalg.norm(c)


def _unidirectional_qfi(n: int, spec: LatticeSpec) -> float:
    """QFI in h of eigenvector ``n``: exactly 4 Var_p(k) / h^2 with p ~ c^2.

    d/dh log c_k = -k/h.  The moments of k/h are taken about the argmax of p
    and each term is summed from its log, so 1/h^2 never overflows where h^2
    underflows; as h -> 0 the QFI tends to 4 n^2 / J^2.
    """
    k, log_c = _unidirectional_log_coeffs(n, spec)
    log_w = 2.0 * (log_c - log_c.max())
    d = k - k[np.argmax(log_w)]
    off = d != 0
    log_dh = np.log(np.abs(d[off])) - math.log(spec.h)
    z = np.exp(log_w).sum()
    mean = np.sum(np.sign(d[off]) * np.exp(log_w[off] + log_dh)) / z
    return 4.0 * float(np.sum(np.exp(log_w[off] + 2.0 * log_dh)) / z - mean**2)
