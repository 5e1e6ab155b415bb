"""Exact propagation of the site-dephasing master equation.

The Liouvillian maps Hermitian matrices to Hermitian matrices, so in the
orthonormal Hermitian basis (rho_aa, sqrt(2) Re rho_ab, sqrt(2) Im rho_ab for
a < b) its n x n generator G, n = L^2, is real.  :func:`build_liouvillian`
assembles the columnwise-vectorized generator sparse from a spec;
:func:`propagate` builds it from its spec, takes it to that basis sparse,
makes one dense real array of G and evolves a real coordinate vector with
dense real exponentials; T^dag maps the coordinates back to rho, so the basis
is laid out in :func:`_hermitian_basis` alone.  This removes integrator
tolerances as a confound in the scaling fits downstream.

Cost model.  One ``expm`` of size n is computed per distinct gap g between
consecutive requested times and reused for each of the u uses of that gap.
``scipy.linalg.expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)) scales G g down by 2^s, s = ceil(log2(||G g||_1 / THETA_13)), and
squares the result back s times, each squaring an O(n^3) product.  A
propagator that is only ever applied to a vector need not be squared up all
the way: the propagator of g is exp(G g / 2^j), applied 2^j times per use,
with j in [0, s] minimizing

    (s - j) * C_SQUARE + (2^j - 1) * u

in units of one matrix-vector product, C_SQUARE being the cost of one n x n
product.  A 100-point grid (u = 100) keeps j = 0, one full exponential and
one product with a vector per point.  A single late time (u = 1) trades most
of the squarings for 2^j products with a vector.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import PositivityLoss
from .model import LatticeSpec, build_dephasing_ops, build_stark

__all__ = [
    "DensityMatrix",
    "vectorize",
    "build_liouvillian",
    "propagate",
    "trace_distance",
]

TRACE_ATOL = 1e-10
HERMITICITY_ATOL = 1e-10
# Positivity floor of the type; propagate reports a breach as PositivityLoss.
POSITIVITY_FLOOR = -1e-8
# Largest ||A||_1 for which expm's degree-13 Pade approximant needs no
# scaling (theta_13, Al-Mohy & Higham 2009, Table 3.1).
THETA_13 = 5.37
# Cost of one n x n real product, in n x n matrix-vector products.  With
# OpenBLAS at one thread on a 2-core Xeon, a product took 0.58-0.62 ms and a
# product with a vector 10.3-10.5 us at n = 256 (L = 16), a ratio of 56-60;
# at n = 576 (L = 24) 6.5-7.3 ms against 91-101 us, 68-77.  The ratio grows
# with n (94-102 at n = 1024); it must stay below 100 for a 100-point grid
# to keep j = 0.
C_SQUARE = 64


class _NotPositive(ValueError):
    """A DensityMatrix candidate has an eigenvalue at or below POSITIVITY_FLOOR.

    ``index`` is the position of that candidate in the checked stack.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check(rho: np.ndarray) -> None:
    """Validate a (k, d, d) stack of candidates against the DensityMatrix invariants.

    One pass over the whole stack, with one batched ``eigvalsh``.  The first
    candidate that breaks an invariant raises, for the first of trace,
    Hermiticity and positivity that it breaks.  Each test is written so that
    a NaN fails it.  A NaN or infinite entry makes the Hermiticity residual
    NaN or infinite (inf - inf is a NaN there, not a warning), so only finite
    candidates pass the first two tests, and only those reach ``eigvalsh``,
    which cannot converge on the others.
    """
    with np.errstate(invalid="ignore"):
        trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
        asym = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    sound = (trace_dev <= TRACE_ATOL) & (asym <= HERMITICITY_ATOL)
    lo = np.full(len(rho), np.nan)
    lo[sound] = np.linalg.eigvalsh(rho if sound.all() else rho[sound]).min(axis=1, initial=np.inf)
    good = sound & (lo > POSITIVITY_FLOOR)
    if good.all():
        return
    i = int(np.argmin(good))
    if not trace_dev[i] <= TRACE_ATOL:
        raise ValueError(f"trace deviates from 1 by {trace_dev[i]:.3e}")
    if not asym[i] <= HERMITICITY_ATOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    raise _NotPositive(f"smallest eigenvalue {lo[i]:.3e} violates positivity", i)


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
        _check(rho[np.newaxis])
        self.entries = rho

    @classmethod
    def _stack(cls, rho: np.ndarray) -> list["DensityMatrix"]:
        """One state per matrix of a complex (k, d, d) stack, checked in one pass."""
        _check(rho)
        out = []
        for entries in rho:
            state = object.__new__(cls)
            state.entries = entries
            out.append(state)
        return out

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


def build_liouvillian(spec: LatticeSpec) -> sp.csr_matrix:
    """Columnwise-vectorized generator of the dephasing master equation.

    -i(1 x H - H^T x 1) + (gamma/2) sum_j (2 n_j* x n_j - 1 x n_j^dag n_j
    - (n_j^dag n_j)^T x 1) with the site projectors n_j as jump operators.
    The jump operators are diagonal, so the dissipator is diagonal in vec
    space and is built in one step from their diagonals.  Returned as a
    complex L^2 x L^2 CSR matrix.
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
    return gen.tocsr()


def _hermitian_basis(dim: int) -> sp.csr_matrix:
    """Unitary T taking vec(rho) to real coordinates when rho is Hermitian.

    Rows: rho_aa for each a, then sqrt(2) Re rho_ab, then sqrt(2) Im rho_ab
    for the pairs a < b in ``np.triu_indices`` order.  Two nonzeros per
    off-diagonal row; a generator G becomes T G T^dag, and T^dag maps real
    coordinates back to vec(rho), a Hermitian rho.  This is the one place
    the layout of the coordinates is decided.
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


def _step(gen: np.ndarray, norm: float, gap: float, uses: int) -> tuple[np.ndarray, int]:
    """Propagator of one gap as (exp(gen gap / 2^j), 2^j), for ``uses`` uses.

    ``norm`` is ||gen gap||_1.  j follows the step rule of the module
    docstring: expm would square s times, and each use applies the returned
    matrix 2^j times.
    """
    s = math.ceil(math.log2(norm / THETA_13)) if THETA_13 < norm < math.inf else 0
    j = min(range(s + 1), key=lambda j: (s - j) * C_SQUARE + (2 ** j - 1) * uses)
    return sla.expm(gen * (gap / 2 ** j)), 2 ** j


def propagate(rho0, spec: LatticeSpec, times) -> list[DensityMatrix]:
    """Evolve rho0 to every requested time under the dephasing master equation.

    ``times`` must be finite and sorted ascending with times[0] >= 0.  The
    Liouvillian ``build_liouvillian(spec)`` is taken sparse to the real
    Hermitian basis, where it is real.  One exponential is computed per
    distinct gap between consecutive requested times and applied as the step
    rule of the module docstring says.  The states are mapped back to rho
    by T^dag, the adjoint of the basis map, which makes them Hermitian
    entry for entry.  They are validated together against the
    DensityMatrix invariants; a smallest eigenvalue at or below -1e-8 raises
    PositivityLoss naming the first time it occurs at.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0.0:
        raise ValueError(f"times must start at >= 0, got {times[0]}")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be sorted ascending")

    dim = _entries(rho0).shape[0]
    T = _hermitian_basis(dim)
    gen = (T @ (build_liouvillian(spec) @ T.conj().T)).real  # T G T^dag
    norm = float(abs(gen).sum(axis=0).max())  # ||G||_1
    gen = gen.toarray()
    # The real part is the Hermitian part of rho0.
    x = (T @ vectorize(rho0)).real

    gaps = [float(gap) for gap in np.diff(times, prepend=0.0)]
    uses = Counter(round(gap, 12) for gap in gaps if gap > 0.0)
    steps: dict[float, tuple[np.ndarray, int]] = {}
    coords = np.empty((times.size, x.size))
    for i, gap in enumerate(gaps):
        if gap > 0.0:
            key = round(gap, 12)
            if key not in steps:
                steps[key] = _step(gen, norm * gap, gap, uses[key])
            E, reps = steps[key]
            for _ in range(reps):
                x = E @ x
        coords[i] = x
    # Row i of coords @ conj(T) is T^dag x_i = vec(rho_i), columnwise.
    rho = (coords @ T.conj()).reshape((times.size, dim, dim), order="F")
    try:
        return DensityMatrix._stack(rho)
    except _NotPositive as exc:
        raise PositivityLoss(f"{exc} at t = {times[exc.index]} (propagation failure)") from exc


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = _entries(a) - _entries(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
