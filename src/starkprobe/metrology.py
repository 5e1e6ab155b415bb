"""Fisher-information layer.

Pure-state quantum Fisher information, the mixed-state construction through
the symmetric logarithmic derivative, classical Fisher information, the
signal-to-noise ratio h*sqrt(M*F), and ``state_derivative``, a gauge-aligned
central difference of a single probe state that serves as the reference for
the pipelines' own field derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .lindblad import _entries

__all__ = [
    "FisherResult",
    "qfi_pure",
    "qfi_mixed",
    "cfi",
    "state_derivative",
    "default_step",
    "snr",
    "qfi_pure_batch",
]

# Negative values above this are clamped to zero; anything below is a hard error.
NEGATIVE_CLAMP = -1e-10

# Spectral pairs with p_m + p_n below this weight are dropped from the SLD sum.
SLD_WEIGHT_THRESHOLD = 1e-12

# Fraction of dropped pairs beyond which rank deficiency is flagged.
RANK_DEFICIENCY_FRACTION = 0.2

CFI_PROBABILITY_FLOOR = 1e-12


@dataclass
class FisherResult:
    """Fisher-information value; ``condition_flags`` collects soft diagnostics
    such as "rank-deficient"."""

    value: float
    condition_flags: list[str] = field(default_factory=list)


def _clamped(values, context: str) -> np.ndarray:
    """``values`` clipped at 0; NumericalError on a value below ``NEGATIVE_CLAMP``
    (a broken derivative) or a non-finite one (a broken state)."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values) | (values < NEGATIVE_CLAMP)
    if np.any(bad):
        raise NumericalError(f"{context}: {int(bad.sum())} values non-finite or below "
                             f"the clamp window, first {values[bad].flat[0]:.3e}")
    return np.clip(values, 0.0, None)


def qfi_pure(psi, dpsi) -> FisherResult:
    """Quantum Fisher information 4(<dpsi|dpsi> - |<dpsi|psi>|^2) of a pure probe.

    ``dpsi`` must be the parameter derivative of the normalized state; a
    global-phase component of the derivative drops out of the formula.  The
    value is ``qfi_pure_batch`` on one row.
    """
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("qfi_pure requires a normalized state")
    return FisherResult(float(qfi_pure_batch([psi], [dpsi])[0]))


def qfi_mixed(rho, drho):
    """Mixed-state QFI and SLD from the spectral decomposition of rho.

    With rho = sum_m p_m |m><m| the SLD matrix elements are
    2 <m|drho|n> / (p_m + p_n) over pairs whose weight exceeds
    ``SLD_WEIGHT_THRESHOLD``, and F = sum 2 |<m|drho|n>|^2 / (p_m + p_n).
    Dropping more than 20% of the pairs flags "rank-deficient" (reported,
    not fatal).  Returns (FisherResult, SLD) with the SLD in the input basis.
    """
    r = _entries(rho)
    d = np.asarray(drho, dtype=complex)
    if d.shape != r.shape:
        raise ValueError(f"shape mismatch: rho {r.shape}, drho {d.shape}")
    scale = float(np.abs(d).max())
    if scale > 0.0 and float(np.abs(d - d.conj().T).max()) > 1e-8 * max(scale, 1.0):
        raise ValueError("drho must be Hermitian")
    if abs(complex(np.trace(d))) > 1e-8 * max(scale * r.shape[0], 1.0):
        raise ValueError("drho must be traceless")

    p, V = np.linalg.eigh(r)
    M = V.conj().T @ d @ V
    weight = p[:, np.newaxis] + p[np.newaxis, :]
    mask = weight > SLD_WEIGHT_THRESHOLD

    sld_eig = np.zeros_like(M)
    sld_eig[mask] = 2.0 * M[mask] / weight[mask]
    value = float((2.0 * np.abs(M[mask]) ** 2 / weight[mask]).sum())

    flags = []
    dropped = 1.0 - mask.sum() / mask.size
    if dropped > RANK_DEFICIENCY_FRACTION:
        flags.append("rank-deficient")

    sld = V @ sld_eig @ V.conj().T
    result = FisherResult(float(_clamped(value, "qfi_mixed")), flags)
    return result, sld


def cfi(p, dp) -> float:
    """Classical Fisher information sum_n (dp_n)^2 / p_n of an outcome distribution.

    Outcomes with probability below ``CFI_PROBABILITY_FLOOR`` but a
    resolvable derivative are singular (formally infinite information) and
    reported as ``inf``.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    if p.shape != dp.shape:
        raise ValueError("p and dp must have the same shape")
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {p.sum():.10f}, expected 1")
    if abs(dp.sum()) > 1e-8:
        raise ValueError(f"probability derivatives sum to {dp.sum():.3e}, expected 0")
    live = p > CFI_PROBABILITY_FLOOR
    if np.any(~live & (np.abs(dp) > 1e-10)):
        return math.inf
    return float((dp[live] ** 2 / p[live]).sum())


def _align_phase(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate v by a global phase to maximize its real overlap with ref."""
    z = complex(np.vdot(ref, v))
    if z == 0.0:
        return v
    return v * (z.conjugate() / abs(z))


def default_step(h: float) -> float:
    """Central-difference step max(1e-6, 1e-4 |h|), in units of J."""
    return max(1e-6, 1e-4 * abs(h))


def state_derivative(evolve, h: float, *, delta: float | None = None):
    """State and its field derivative by gauge-aligned central differences.

    ``evolve(h')`` must deterministically return either a state vector or a
    density matrix.  Vectors at h +/- delta are phase-rotated to maximize
    their real overlap with the vector at h before differencing (matrices
    are differenced entrywise with no gauge step).

    Returns (state, derivative, delta).
    """
    if delta is None:
        delta = default_step(h)
    base = np.asarray(evolve(h), dtype=complex)
    plus = np.asarray(evolve(h + delta), dtype=complex)
    minus = np.asarray(evolve(h - delta), dtype=complex)
    if base.ndim == 1:
        plus = _align_phase(plus, base)
        minus = _align_phase(minus, base)
    return base, (plus - minus) / (2.0 * delta), delta


def qfi_pure_batch(states, dstates) -> np.ndarray:
    """Pure-state QFI 4(<d|d> - |<d|psi>|^2) of a stack of states and derivatives.

    ``states`` holds normalized states as the rows of an (n, dim) array and
    ``dstates`` their field derivatives; row i of the result is the QFI at
    sample i.  The pipelines use this form; ``qfi_pure`` is one row of it.
    """
    states = np.asarray(states, dtype=complex)
    der = np.asarray(dstates, dtype=complex)
    grad = np.einsum("ij,ij->i", der.conj(), der).real
    overlap = np.einsum("ij,ij->i", der.conj(), states)
    return _clamped(4.0 * (grad - np.abs(overlap) ** 2), "qfi_pure_batch")


def snr(h: float, M: float, fq: float) -> float:
    """Signal-to-noise ratio h * sqrt(M * F) of M optimal repetitions."""
    if h < 0 or M < 0 or fq < 0:
        raise ValueError("snr requires nonnegative h, M and fq")
    return h * math.sqrt(M * fq)
