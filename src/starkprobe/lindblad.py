"""Exact propagation of the site-dephasing master equation.

The Liouvillian maps Hermitian matrices to Hermitian matrices, so in the
orthonormal Hermitian basis (rho_aa, sqrt(2) Re rho_ab, sqrt(2) Im rho_ab for
a < b) its L^2 x L^2 generator is real.  :func:`propagate` converts the
columnwise-vectorized generator to that basis once and evolves a real
coordinate vector with dense real exponentials.  One exponential is computed
per distinct time gap and reused, so uniform grids cost a single ``expm``
plus repeated matrix-vector products.  This removes integrator tolerances as
a confound in the scaling fits downstream.
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
    """Columnwise-vectorized generator of the dephasing master equation.

    -i(1 x H - H^T x 1) + (gamma/2) sum_j (2 n_j* x n_j - 1 x n_j^dag n_j
    - (n_j^dag n_j)^T x 1) with the site projectors n_j as jump operators.
    The jump operators are diagonal, so the dissipator is diagonal in vec
    space and is built in one step from their diagonals.  Assembled sparse,
    returned as a dense complex array.
    """
    H = sp.csr_matrix(build_stark(spec))
    eye = sp.identity(spec.L, dtype=complex, format="csr")
    gen = -1j * (sp.kron(eye, H) - sp.kron(H.T, eye))
    if spec.gamma > 0.0:
        d = np.array([np.diag(op) for op in build_dephasing_ops(spec)])
        weight = (np.abs(d) ** 2).sum(axis=0)
        # [a, b] is the vec-space diagonal entry at index a + b*L.
        diss = 2.0 * (d.T @ d.conj()) - weight[:, np.newaxis] - weight[np.newaxis, :]
        gen = gen + sp.diags((spec.gamma / 2.0) * diss.flatten(order="F"))
    return gen.toarray()


def _hermitian_basis(dim: int) -> sp.csr_matrix:
    """Unitary T taking vec(rho) to real coordinates when rho is Hermitian.

    Rows: rho_aa for each a, then sqrt(2) Re rho_ab, then sqrt(2) Im rho_ab
    for the pairs a < b in ``np.triu_indices`` order.  Two nonzeros per
    off-diagonal row; a generator G becomes T G T^dag.
    """
    a, b = np.triu_indices(dim, 1)
    m = a.size
    ab, ba = a + b * dim, b + a * dim  # vec indices of rho_ab and rho_ba
    re, im = dim + np.arange(m), dim + m + np.arange(m)
    s = 1.0 / math.sqrt(2.0)
    rows = np.concatenate([np.arange(dim), re, re, im, im])
    cols = np.concatenate([np.arange(dim) * (dim + 1), ab, ba, ab, ba])
    vals = np.concatenate([np.ones(dim), np.full(2 * m, s),
                           np.full(m, -1j * s), np.full(m, 1j * s)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))


def propagate(rho0, spec: LatticeSpec, times, *, generator=None) -> list[DensityMatrix]:
    """Evolve rho0 to every requested time under the dephasing master equation.

    ``times`` must be sorted ascending with times[0] >= 0.  ``generator``
    overrides the spec-built Liouvillian (a prebuilt or modified L^2 x L^2
    columnwise generator).  The generator is converted once to the real
    Hermitian basis; a ValueError is raised if it does not preserve
    Hermiticity there.  The real propagator exp(G * gap) is computed once per
    distinct gap between consecutive requested times and reused.  Each state
    is mapped back to rho, which is Hermitian by construction, and validated
    against the DensityMatrix invariants; a smallest eigenvalue at or below
    -1e-8 raises PositivityLoss.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if times[0] < 0.0:
        raise ValueError(f"times must start at >= 0, got {times[0]}")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be sorted ascending")

    gen = build_liouvillian(spec) if generator is None else np.asarray(generator, dtype=complex)
    T = _hermitian_basis(_entries(rho0).shape[0])
    back = T.conj().T.tocsr()
    gen = T @ (gen @ back)  # T G T^dag
    drift = float(np.abs(gen.imag).max())
    if drift > 1e-12 * float(np.abs(gen.real).max(initial=0.0)):
        raise ValueError(f"generator does not preserve Hermiticity: imaginary part "
                         f"{drift:.3e} in the Hermitian basis")
    gen = np.ascontiguousarray(gen.real)
    # The real part is the Hermitian part of rho0.
    x = (T @ vectorize(rho0)).real
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
            x = E @ x
        prev = float(t)
        try:
            out.append(DensityMatrix(devectorize(back @ x)))
        except _NotPositive as exc:
            raise PositivityLoss(f"{exc} at t = {t} (propagation failure)") from exc
    return out


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = _entries(a) - _entries(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
