"""Exact propagation of the site-dephasing master equation.

The density matrix is columnwise vectorized and evolved with the dense
exponential of the L^2 x L^2 Liouvillian.  One exponential is computed per
distinct time gap and reused, so uniform grids cost a single ``expm`` plus
repeated matrix-vector products.  This removes integrator tolerances as a
confound in the scaling fits downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import PositivityLoss
from .model import LatticeSpec, build_dephasing_ops, build_stark

__all__ = [
    "DensityMatrix",
    "vectorize",
    "devectorize",
    "build_liouvillian",
    "propagate",
    "trace_distance",
]

TRACE_ATOL = 1e-10
HERMITICITY_ATOL = 1e-10
# Positivity floor of the type; propagate reports a breach as PositivityLoss.
POSITIVITY_FLOOR = -1e-8


class _NotPositive(ValueError):
    """A DensityMatrix candidate has an eigenvalue at or below POSITIVITY_FLOOR."""


@dataclass
class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian matrix.

    Construction validates trace (1e-10), Hermiticity (1e-10) and positivity
    (smallest eigenvalue above -1e-8).
    """

    entries: np.ndarray

    def __post_init__(self):
        rho = np.array(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        if float(np.abs(rho - rho.conj().T).max()) > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        lo = float(np.linalg.eigvalsh(rho).min())
        if lo <= POSITIVITY_FLOOR:
            raise _NotPositive(f"smallest eigenvalue {lo:.3e} violates positivity")
        self.entries = rho

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pure(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        n = np.linalg.norm(psi)
        if n == 0:
            raise ValueError("cannot form a density matrix from the zero vector")
        psi = psi / n
        return cls(np.outer(psi, psi.conj()))

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def _entries(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return np.asarray(rho, dtype=complex)


def vectorize(rho) -> np.ndarray:
    """Columnwise stacking: [[a, c], [b, d]] -> (a, b, c, d)."""
    return _entries(rho).flatten(order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`.  Rejects lengths that are not perfect squares."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


def build_liouvillian(spec: LatticeSpec) -> np.ndarray:
    """Vectorized generator of the dephasing master equation.

    -i(1 x H - H^T x 1) + (gamma/2) sum_j (2 n_j* x n_j - 1 x n_j^dag n_j
    - (n_j^dag n_j)^T x 1) with the site projectors n_j as jump operators.
    Assembled sparse (the terms are extremely sparse), returned dense.
    """
    H = sp.csr_matrix(build_stark(spec).entries)
    eye = sp.identity(spec.L, dtype=complex, format="csr")
    gen = -1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
    if spec.gamma > 0.0:
        for op in build_dephasing_ops(spec):
            n = sp.csr_matrix(op.entries)
            ndn = (n.conj().T @ n).tocsr()
            gen = gen + (spec.gamma / 2.0) * (
                2.0 * sp.kron(n.conj(), n) - sp.kron(eye, ndn) - sp.kron(ndn.T, eye)
            )
    return gen.toarray()


def propagate(rho0, spec: LatticeSpec, times, *, generator=None) -> list[DensityMatrix]:
    """Evolve rho0 to every requested time under the dephasing master equation.

    ``times`` must be sorted ascending with times[0] >= 0.  The propagator
    exp(L * gap) is computed once per distinct gap between consecutive
    requested times and reused.  Output states are re-symmetrized
    (rho + rho^dag)/2 to suppress 1e-14-level drift and validated against
    the DensityMatrix invariants; a smallest eigenvalue at or below -1e-8
    raises PositivityLoss.  ``generator`` overrides the spec-built
    Liouvillian (prebuilt or modified L^2 x L^2 arrays).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if times[0] < 0.0:
        raise ValueError(f"times must start at >= 0, got {times[0]}")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be sorted ascending")

    if generator is None:
        gen = build_liouvillian(spec)
    else:
        gen = np.asarray(generator, dtype=complex)
    v = vectorize(rho0)
    propagators: dict[float, np.ndarray] = {}
    out = []
    prev = 0.0
    for t in times:
        gap = float(t - prev)
        if gap > 0.0:
            key = round(gap, 12)
            E = propagators.get(key)
            if E is None:
                E = sla.expm(gen * gap)
                propagators[key] = E
            v = E @ v
        prev = float(t)
        rho = devectorize(v)
        try:
            out.append(DensityMatrix((rho + rho.conj().T) / 2.0))
        except _NotPositive as exc:
            raise PositivityLoss(f"{exc} at t = {t} (propagation failure)") from exc
    return out


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = _entries(a) - _entries(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
