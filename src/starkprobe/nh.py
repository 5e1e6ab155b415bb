"""Trace-preserving evolution under non-Hermitian Hamiltonians.

The normalized state sum_n exp(-i E_n t) <L_n|psi0> |R_n> / ||...|| is exact
for any diagonalizable generator; conjugation-and-renormalization gives the
density-matrix form, which preserves trace and keeps pure states pure.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import TraceCollapse
from .lindblad import DensityMatrix, _entries
from .spectral import BiorthogonalSystem, _square

__all__ = [
    "evolve_nh_series",
    "evolve_nh_grid",
    "evolve_nh_density",
]

TRACE_COLLAPSE_FLOOR = 1e-300


def evolve_nh_series(psi0, system: BiorthogonalSystem, times) -> np.ndarray:
    """Normalized states at many times from one biorthogonal decomposition.

    Returns an array of shape (len(times), dim), row i being the state at
    times[i].
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    coeff = system.overlaps(psi0)
    phases = np.exp(-1j * np.outer(system.eigenvalues, times))
    states = system.right_vectors @ (phases * coeff[:, np.newaxis])
    norms = np.linalg.norm(states, axis=0)
    if np.any(norms == 0.0):
        raise ZeroDivisionError("evolved state vanished")
    return (states / norms[np.newaxis, :]).T


def evolve_nh_grid(psi0, H_NH, times) -> np.ndarray:
    """Normalized states on a uniform time grid via repeated short steps.

    One dense exponential of the step generator is reused for the whole
    grid, with renormalization after every step; projectively this equals
    the single-shot exponential but never overflows, so it covers the
    near-defective regimes the spectral route rejects (e.g. the
    unidirectional chain at small h).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return np.empty((0, psi0.size), dtype=complex)
    dt = times[0] if times.size == 1 else float(times[1] - times[0])
    if dt <= 0.0:
        raise ValueError("grid times must be strictly increasing from > 0")
    k = np.rint(times / dt)
    if np.max(np.abs(k * dt - times)) > 1e-9 * max(1.0, float(times[-1])):
        raise ValueError("times do not form a uniform grid")
    E = sla.expm(-1j * _square(H_NH) * dt)
    out = np.empty((times.size, psi0.size), dtype=complex)
    psi = _normalized(psi0)
    steps_done = 0
    for i, target in enumerate(k.astype(int)):
        while steps_done < target:
            psi = _normalized(E @ psi)
            steps_done += 1
        out[i] = psi
    return out


def evolve_nh_density(rho0, H_NH, t: float) -> DensityMatrix:
    """Normalized conjugation exp(-i H t) rho0 exp(i H^dag t) / trace.

    Raises TraceCollapse when the unnormalized trace underflows (total loss,
    an unphysical parameter regime).
    """
    r0 = _entries(rho0)
    M = sla.expm(-1j * _square(H_NH) * t)
    r = M @ r0 @ M.conj().T
    tr = float(np.trace(r).real)
    if not np.isfinite(tr) or tr < TRACE_COLLAPSE_FLOOR:
        raise TraceCollapse(f"unnormalized trace {tr:.3e} at t = {t}")
    r = r / tr
    return DensityMatrix((r + r.conj().T) / 2.0)


def _normalized(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0 or not np.isfinite(n):
        raise ZeroDivisionError("evolved state has no finite norm")
    return v / n
