"""Exact propagation of the site-dephasing master equation.

The Liouvillian maps Hermitian matrices to Hermitian matrices, so in an
orthonormal Hermitian basis (built from rho_aa, sqrt(2) Re rho_ab and
sqrt(2) Im rho_ab for a < b) its n x n generator G, n = L^2, is real.
:func:`build_liouvillian` assembles the columnwise-vectorized generator
sparse from a spec; :func:`propagate` builds it from its spec, takes it to
that basis sparse and evolves a real coordinate vector by one of two exact
routes; T^dag maps the coordinates back to rho, so the basis is laid out in
:func:`_hermitian_basis` alone.  This removes integrator tolerances as a
confound in the scaling fits downstream.

Mirror sectors.  Reversing the sites with alternating signs, rho -> V rho^T
V^T, commutes with the generator of every LatticeSpec (Buca & Prosen, New J.
Phys. 14, 073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).
The basis orders the coordinates by its sign, so G is block diagonal with
two sector blocks of (L^2 - L)/2 and (L^2 + L)/2 coordinates; the
cross-sector blocks vanish and are never formed.

Cost model.  Below n = TAYLOR_MIN_DIM the dense route makes one dense real
array of each sector block and computes one ``expm`` per sector per
distinct gap g between consecutive requested times, reused for each of the
u uses of that gap: two exponentials of about n/2, a quarter of the flops of
one of size n each.  Below n = MIRROR_MIN_DIM, where the second call's
overhead outweighs that, the block-diagonal G is exponentiated whole.
``scipy.linalg.expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)) scales G g down by 2^s, s = ceil(log2(||G g||_1 / THETA_13)), and
squares the result back s times, each squaring an O(n^3) product.  A
propagator that is only ever applied to a vector need not be squared up all
the way: the propagator of g is exp(G g / 2^j), applied 2^j times per use,
with j in [0, s] minimizing

    (s - j) * C_SQUARE + (2^j - 1) * u

in units of one matrix-vector product, C_SQUARE being the cost of one
square product; each sector block takes its own s and j from its own norm.
A 100-point grid (u = 100) keeps j = 0, one full exponential and one product
with a vector per point.  A single late time (u = 1) trades most of the
squarings for 2^j products with a vector.

From n = TAYLOR_MIN_DIM on, the sparse route never forms a dense array: it
shifts the block-diagonal G by mu = tr(G)/n and advances the whole vector
across each use of a gap with the truncated Taylor action of Al-Mohy &
Higham (SIAM J. Sci. Comput. 33, 488 (2011), Alg. 3.2): s substeps of
degree at most m, each substep stopping early once two successive terms
fall below 2^-53 of the partial sum.  (m, s) minimizes m * s subject to
||(G - mu I) g||_1 / s <= theta_m (THETA_TAYLOR), so one use costs at most
m * s sparse products with a vector, O(nnz ||G g||_1), against the
O(n^3 log ||G g||_1) of the dense exponentials.
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
# Cost of one square real product, in matrix-vector products of its size.
# With OpenBLAS at one thread on a 2-core Xeon, the ratio was 22-25 at
# n = 120 and 45-48 at n = 136 (the mirror sectors at L = 16), 32-55 at
# n = 171-210, 71-79 at n = 276 and 112-115 at n = 300 (the sectors at
# L = 24) and 99-119 at n = 378-528.  It must stay below 100 for a 100-point
# grid to keep j = 0.
C_SQUARE = 64
# Smallest n = L^2 that propagates by the sparse Taylor action.  Timed per
# propagation against the dense route with its two mirror sectors
# (100-point grid at h = 0.05 and 0.5, single t = 100 at h = 0.1, 0.5, 1.1
# and 2.0, gamma = 0.02, OpenBLAS at one thread on a 2-core Xeon), the
# Taylor route took 1.8-7.3 times the dense time at L = 20, 0.96-3.3 at
# L = 24, 0.50-1.93 at L = 28 and 0.34-1.26 at L = 32; it wins on the grid
# and on the weaker fields from L = 28, and loses on single times at
# h >= 1.1 up to L = 32.
TAYLOR_MIN_DIM = 28 * 28
# Smallest n = L^2 whose dense route exponentiates the two mirror sectors
# apart.  Two expm of the sector blocks took 1.36-2.48 times one expm of the
# whole block-diagonal generator at L = 3-4, 1.03-1.12 at L = 5, 0.74-0.77
# at L = 6, 0.49-0.58 at L = 7-8 and 0.25-0.37 at L = 11-24 (OpenBLAS at
# one thread on a 2-core Xeon).
MIRROR_MIN_DIM = 6 * 6
# theta_m for the tolerance 2^-53: the degree-m truncated Taylor series of
# exp(B) has a relative backward error of at most 2^-53 when ||B||_1 <=
# theta_m (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1).
THETA_TAYLOR = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4, 25: 2.4, 30: 3.5,
                35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


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


def _hermitian_basis(dim: int) -> tuple[sp.csr_matrix, int]:
    """Unitary T taking vec(rho) to real coordinates when rho is Hermitian, and k.

    The coordinates are the orthonormal combinations of rho_aa, sqrt(2) Re
    rho_ab and sqrt(2) Im rho_ab (a < b) that are even (the first k) or odd
    (the other n - k) under the mirror map R: rho -> V rho^T V^T, V = P U,
    P reversing the sites and U = diag((-1)^j).  R takes rho_aa to rho_a'a'
    and Re and Im rho_ab to (-1)^(a+b) times Re and Im rho_b'a', a' = L+1-a.
    It commutes with the generator of every LatticeSpec: the transpose
    reverses the commutator -i[H, rho], V H V^T = h(L+1) - H reverses it
    back, and V n_j V^T = n_j'.  So in these coordinates T G T^dag is block
    diagonal with blocks of k and n - k, (L^2 - L)/2 and (L^2 + L)/2 in
    either order.  A coordinate R fixes is one row of one or two nonzeros;
    a pair that R swaps gives one even and one odd row, each of two
    (populations) or four nonzeros.  T^dag maps real coordinates back to
    vec(rho), a Hermitian rho.  This is the one place the layout of the
    coordinates is decided.
    """
    n = dim * dim
    a, b = np.triu_indices(dim, 1)
    m = a.size
    ab, ba = a + b * dim, b + a * dim  # vec indices of rho_ab and rho_ba
    re, im = dim + np.arange(m), dim + m + np.arange(m)
    # Rows rho_aa, rho_ab + rho_ba and i(rho_ba - rho_ab): unit entries.
    rows = np.concatenate([np.arange(dim), re, re, im, im])
    cols = np.concatenate([np.arange(dim) * (dim + 1), ab, ba, ab, ba])
    vals = np.concatenate([np.ones(dim + 2 * m), np.full(m, -1j), np.full(m, 1j)])
    raw = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    # R takes raw coordinate i to sign[i] times raw coordinate mirror[i].
    pair = np.empty((dim, dim), dtype=int)
    pair[a, b] = np.arange(m)
    image = pair[dim - 1 - b, dim - 1 - a]
    mirror = np.concatenate([dim - 1 - np.arange(dim), dim + image, dim + m + image])
    sign = np.concatenate([np.ones(dim), np.tile((-1.0) ** (a + b), 2)])
    i = np.arange(n)
    sectors = []
    for parity in (1.0, -1.0):
        # one row per pair that R swaps, and one per fixed coordinate of this parity
        lead = np.flatnonzero((i < mirror) | ((i == mirror) & (sign == parity)))
        swapped = lead < mirror[lead]
        r = np.arange(lead.size)
        sectors.append(sp.csr_matrix(
            (np.concatenate([np.ones(lead.size), parity * sign[lead[swapped]]]),
             (np.concatenate([r, r[swapped]]), np.concatenate([lead, mirror[lead[swapped]]]))),
            shape=(lead.size, n)))
    T = sp.vstack(sectors, format="csr") @ raw
    # The raw rows a sector row combines have disjoint supports, so every
    # entry has modulus one and a row of q entries has norm sqrt(q).
    T = sp.diags(1.0 / np.sqrt(np.diff(T.indptr))) @ T
    return T.tocsr(), sectors[0].shape[0]


def _step(gen: np.ndarray, norm: float, gap: float, uses: int) -> tuple[np.ndarray, int]:
    """Propagator of one gap as (exp(gen gap / 2^j), 2^j), for ``uses`` uses.

    ``norm`` is ||gen gap||_1.  j follows the step rule of the module
    docstring: expm would square s times, and each use applies the returned
    matrix 2^j times.
    """
    s = math.ceil(math.log2(norm / THETA_13)) if THETA_13 < norm < math.inf else 0
    j = min(range(s + 1), key=lambda j: (s - j) * C_SQUARE + (2 ** j - 1) * uses)
    return sla.expm(gen * (gap / 2 ** j)), 2 ** j


def _dense_route(blocks: list[sp.csr_matrix], uses: Counter):
    """x, gap -> exp(G gap) x for G = diag(blocks), by the step rule per block.

    One dense ``expm`` per block and distinct gap; each propagator advances
    its own slice of the coordinate vector.
    """
    norms = [float(abs(block).sum(axis=0).max()) for block in blocks]  # ||G_k||_1
    dense = [block.toarray() for block in blocks]
    cuts = np.cumsum([block.shape[0] for block in blocks])[:-1]
    steps: dict[float, list[tuple[np.ndarray, int]]] = {}

    def advance(x: np.ndarray, gap: float) -> np.ndarray:
        key = round(gap, 12)
        if key not in steps:
            steps[key] = [_step(gen, norm * gap, gap, uses[key]) for gen, norm in zip(dense, norms)]
        parts = []
        for (E, reps), y in zip(steps[key], np.split(x, cuts)):
            for _ in range(reps):
                y = E @ y
            parts.append(y)
        return np.concatenate(parts)

    return advance


def _taylor_route(gen: sp.csr_matrix):
    """x, gap -> exp(G gap) x by the sparse truncated Taylor action.

    G is shifted by mu = tr(G)/n once; each call picks the (m, s) pair
    minimizing m * s with ||(G - mu I) gap||_1 / s <= theta_m.
    Each substep sums at most m terms and stops once two successive terms
    are below 2^-53 of the partial sum (Al-Mohy & Higham 2011, Alg. 3.2).
    """
    n = gen.shape[0]
    mu = float(gen.diagonal().sum()) / n
    A = gen - mu * sp.identity(n, format="csr")
    norm = float(abs(A).sum(axis=0).max())  # ||G - mu I||_1

    def advance(x: np.ndarray, gap: float) -> np.ndarray:
        m, s = min(((m, max(math.ceil(norm * gap / theta), 1))
                    for m, theta in THETA_TAYLOR.items()), key=lambda plan: plan[0] * plan[1])
        eta = math.exp(mu * gap / s)
        x = x.copy()
        for _ in range(s):
            b, c1 = x, np.abs(x).max()
            for k in range(1, m + 1):
                b = A @ b
                b *= gap / (s * k)
                c2 = np.abs(b).max()
                x += b
                if c1 + c2 <= 2.0 ** -53 * np.abs(x).max():
                    break
                c1 = c2
            x *= eta
        return x

    return advance


def propagate(rho0, spec: LatticeSpec, times) -> list[DensityMatrix]:
    """Evolve rho0 to every requested time under the dephasing master equation.

    ``times`` must be finite and sorted ascending with times[0] >= 0.  The
    Liouvillian ``build_liouvillian(spec)`` is taken sparse to the real
    Hermitian basis, where it is real, one mirror sector at a time.  Below
    n = L^2 = TAYLOR_MIN_DIM one dense exponential per sector (one of the
    whole block-diagonal generator below MIRROR_MIN_DIM) is computed per
    distinct gap between consecutive requested times, applied to that
    sector's coordinates as the step rule of the module docstring says;
    from TAYLOR_MIN_DIM on the block-diagonal sparse generator advances the
    vector across each gap by the truncated Taylor action, and no dense
    n x n array is formed.  The states are mapped back to rho by T^dag, the
    adjoint of the basis map, which makes them Hermitian entry for entry.
    They are validated together against the DensityMatrix invariants; a
    smallest eigenvalue at or below -1e-8 raises PositivityLoss naming the
    first time it occurs at.
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
    T, k = _hermitian_basis(dim)
    liouvillian = build_liouvillian(spec)
    # T G T^dag, sector by sector: the mirror symmetry makes the cross-sector
    # blocks vanish, so they are never formed.
    blocks = [(S @ (liouvillian @ S.conj().T)).real for S in (T[:k], T[k:])]
    # The real part is the Hermitian part of rho0.
    x = (T @ vectorize(rho0)).real

    gaps = [float(gap) for gap in np.diff(times, prepend=0.0)]
    if x.size >= TAYLOR_MIN_DIM:
        advance = _taylor_route(sp.block_diag(blocks, format="csr"))
    else:
        if x.size < MIRROR_MIN_DIM:
            blocks = [sp.block_diag(blocks, format="csr")]
        advance = _dense_route(blocks, Counter(round(gap, 12) for gap in gaps if gap > 0.0))
    coords = np.empty((times.size, x.size))
    for i, gap in enumerate(gaps):
        if gap > 0.0:
            x = advance(x, gap)
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
