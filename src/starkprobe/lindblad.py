"""Exact propagation of the site-dephasing master equation.

The Liouvillian maps Hermitian matrices to Hermitian matrices, so in an
orthonormal Hermitian basis (built from rho_aa, sqrt(2) Re rho_ab and
sqrt(2) Im rho_ab for a < b) its n x n generator G, n = L^2, is real.
:func:`build_liouvillian` assembles the columnwise-vectorized generator
sparse from a spec; :func:`propagate` builds it from its spec, takes it to
that basis sparse and evolves a real coordinate vector by one of two exact
routes, one per call; T^dag maps the coordinates back to rho, so the basis
is laid out in :func:`_hermitian_basis` alone.  This removes integrator
tolerances as a confound in the scaling fits downstream.

Assembly.  Each call of :func:`propagate` pays for its generator before
either route starts, so that cost is kept to array work.
:func:`build_liouvillian` writes the CSR arrays of the generator directly:
the band of 1 x H and H^T x 1 and the diagonal form one index pattern per
L, merged once and cached, and a call only sums the entries of H and the
dissipator into it.  The two sector blocks of T G T^dag are made by scipy's
compiled ``csr_matmat`` on CSR arrays of T_k and T_k^dag cached per L, the
kernel that scipy's sparse product calls, without its Python dispatch.  Both
give the entries of the Kronecker form and of scipy's sparse triple product
bit for bit.

Checks.  The states of a call are validated as one stack.  Positivity,
smallest eigenvalue above -1e-8, is one batched Cholesky factorization of
rho + 1e-8 I, which exists exactly when it holds; ``eigvalsh`` runs only
after a failure, to name the first state to blame and its eigenvalue.

Mirror sectors.  Reversing the sites with alternating signs, rho -> V rho^T
V^T, commutes with the generator of every LatticeSpec (Buca & Prosen, New J.
Phys. 14, 073007 (2012); Albert & Jiang, Phys. Rev. A 89, 022118 (2014)).
The basis orders the coordinates by its sign, so G is block diagonal with
two sector blocks of (L^2 - L)/2 and (L^2 + L)/2 coordinates; the
cross-sector blocks vanish and are never formed.

Dense route.  G is block diagonal, so the route advances one sector block
at a time over all the gaps, each into its own coordinates.  It makes one
dense real array of the block and computes one ``expm`` per distinct gap g
between consecutive requested times, reused for each of the u uses of that
gap: two exponentials of about n/2, a quarter of the flops of one of size n
each.  Below n = MIRROR_MIN_DIM, where the second call's overhead outweighs
that, the block-diagonal G is exponentiated whole, and always by this route.
``scipy.linalg.expm`` (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
(2009)) scales G g down by 2^s, s = ceil(log2(||G g||_1 / THETA_13)), and
squares the result back s times, each squaring an O(n^3) product.  A
propagator that is only ever applied to a vector need not be squared up all
the way: the propagator of g is exp(G g / 2^j), applied 2^j times per use,
with j in [0, s] the one of least dense price (Route choice), which trades
each squaring skipped, N3_S n^3, for u 2^j more products with a vector,
N2_S n^2 each; each block takes its own s and j from its own size and
norm.  A 100-point grid (u = 100) keeps j = 0 below n = u N2_S / N3_S = 375,
one full exponential and one product with a vector per point.  A single
late time (u = 1) trades most of the squarings for 2^j products with a
vector.

Chebyshev route.  It never forms a dense array.  In the real basis G = K +
D: K, the -i[H, .] part, is real antisymmetric with ||K||_2 = E_max - E_min
of the Stark H, and D = diag(G) is 0 on populations and -gamma on
coherences.  With c the midpoint of diag(G), rho >= ||K||_2 and B = (G -
cI)/rho, the numerical range W(B) lies in [-eps, eps] x i[-1, 1], eps the
half-width of diag(G) over rho.  The real recurrence w_0 = x, w_1 = B x,
w_(k+1) = 2B w_k + w_(k-1) gives w_k = i^k T_k(-iB) x, and with z = rho g

    exp(G g) x = e^(c g) [J_0(z) x + 2 sum_k J_k(z) w_k]

(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The rectangle lies
in the Bernstein ellipse of parameter e^eta, cosh eta = (eps + sqrt(eps^2 +
4))/2 (eta ~ sqrt(eps)), where |T_k| <= e^(k eta); by Crouzeix & Palencia
(SIAM J. Matrix Anal. Appl. 38, 649 (2017)), ||p(B)||_2 <= (1 + sqrt 2) max
over W(B) of |p|, so the series is cut after the first K with

    (1 + sqrt 2) sum_(k > K) 2 |J_k(z)| e^(k eta) <= 2^-53.

The same factor e^(k eta) bounds how much the recurrence can amplify its
own rounding, so a gap is split into s = ceil(z eta / THETA_CHEBYSHEV)
substeps of equal length.  That is required, not tuning: at L = 16, h =
1.1, t = 100, a single substep was off from a dense ``expm`` by 1.6e-9 at
gamma = 0.02 and by 2e12 at gamma = 0.1, against 2e-14 and 8e-15 split.
THETA_CHEBYSHEV = 8 bounds the amplification by e^8 ~ 3e3.  On seven shapes
at L = 8-24, t = 30-1000, theta = 1, 2, 4, 8 and 16 all matched a dense
``expm`` to 2e-16-3e-14 (2.7e-13 on one shape at 16) and theta = 32 lost up
to 1.7e-12; the total number of terms fell by 36-52 % from theta = 1 to 8
and by 3-9 % more to 16.  The coefficients J_k(z) come from Miller's
backward recurrence.  Each term w_(k+1) is made by one call of scipy's
compiled kernel ``csr_matvec``, which adds 2B w_k into the buffer row that
already holds w_(k-1): no temporary array and no per-term Python dispatch
of a sparse product, which took most of a term's time up to L ~ 40.

Windows.  A single short gap spends most of its K terms on the truncation
tail: at L = 32, h = 0.05 a gap of 1 has z = 5 and takes K = 28.  So the
route splits the gaps into windows of offsets tau_1 < ... < tau_m from the
window's start, and advances a window with one recurrence from its start
state x, all its outputs taken from the same w_k:

    x(tau_i) = e^(c tau_i) [J_0(rho tau_i) x + 2 sum_k J_k(rho tau_i) w_k].

The w_k fill a buffer of CHEBYSHEV_CHUNK rows, and each full buffer goes
into the m states by one matrix product.  The series is cut at the K of the
largest z = rho tau_m, and K >= z.  J_k rises from 0 to its first maximum,
which lies above k, so for k > K >= z >= z_i, J_k(z_i) <= J_k(z): that cut
bounds every output's tail too.  A window grows while rho tau eta <=
THETA_CHEBYSHEV, so that its recurrence is one substep long and its rounding
growth e^(K eta) is bounded as before, and while the predicted K stays at
most CHEBYSHEV_WINDOW_TERMS: the combination costs m (K + 1) n multiply-adds
per window, which outgrows the tail it saves.  A gap that does not fit
with its successor goes by its s substeps, each a window of one output; its
K may exceed CHEBYSHEV_WINDOW_TERMS, which caps only windows of two or more
gaps.  A zero gap neither starts nor joins a window: it repeats the state.
The Bessel coefficients of a window's outputs are computed once per
distinct window, each to the count of the largest z.

Route choice.  From MIRROR_MIN_DIM on, each call of :func:`propagate`
builds the one route with the smaller predicted cost over all its distinct
gaps, and advances every gap by it.  Both costs are known before any work
and are sums over the distinct gaps g, each used u times: u s K (TERM_S +
NNZ_S nnz) for the Chebyshev route, with K from Kapteyn's bound on J_k
(:func:`_term_count`), and, per sector of size n, (PADE_PRODUCTS + s - j)
N3_S n^3 + u 2^j N2_S n^2 for the dense route at the j in [0, s] that
makes it least, the smaller j on a tie (:func:`_dense_step`).  The
Chebyshev cost prices each gap as its own window, an upper bound on its
cost inside a longer window, and leaves out the route's fixed cost, which
it keeps small: it makes the CSR arrays of 2B from those of the sector
blocks by a few array operations (about 80 us at L = 10-16, against 260 us
for scipy's ``block_diag`` and sparse arithmetic), and the coefficients by
one scalar recurrence per output.  At gamma = 0.02, h =
0.05-1.1, a 100-point grid of short gaps goes by the Chebyshev route,
O(nnz rho g), from L = 20-22 on, a single time t = 10 from L = 10-12 on and
t = 100 from L = 14-18 on (L = 16 while h is below about 0.7), the smaller
h the smaller L; a very long single gap, whose dense cost grows only with
log ||G g||_1, goes dense: t = 1000 up to L = 20, and up to L = 24-32 as h
grows.  A sector whose coordinates start at exactly zero stays zero, since
G is block diagonal, and is not propagated: for odd L the middle-site start
has no mirror-odd part.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz, csr_matvec, csr_sort_indices

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
# Smallest n = L^2 whose dense route exponentiates the two mirror sectors
# apart.  Two expm of the sector blocks took 1.36-2.48 times one expm of the
# whole block-diagonal generator at L = 3-4, 1.03-1.12 at L = 5, 0.74-0.77
# at L = 6, 0.49-0.58 at L = 7-8 and 0.25-0.37 at L = 11-24 (OpenBLAS at
# one thread on a 2-core Xeon).
MIRROR_MIN_DIM = 6 * 6
# Bound on z * eta per Chebyshev substep (module docstring).
THETA_CHEBYSHEV = 8.0
# Longest predicted recurrence of a window of Chebyshev gaps (module docstring).
# tools/chebyshev_window.py times ``propagate`` on 100-point grids at L = 24,
# 32 and 40 and h = 0.05, 0.35 and 0.6 (OpenBLAS at one thread on a 2-core
# Xeon).  Against the fastest cap of each shape, the geometric mean of the
# times was 1.47-1.63 without windows, 1.26-1.38 at a cap of 64, 1.13-1.19
# at 96, 1.06-1.15 at 128, 1.04-1.15 at 192, 1.06-1.12 at 256 and 1.02-1.14
# at 384, over three runs at gamma = 0.02 and two at 0.1, with each term one
# kernel call: 192 was the best cap at 0.02 and 256-384 at 0.1, and over all
# five runs 192, 256 and 384 averaged 1.07, 1.08 and 1.09.
CHEBYSHEV_WINDOW_TERMS = 192
# Rows of the buffer that holds the w_k of a window; each full buffer is
# combined into the window's states by one matrix product.  Buffers of 16, 32
# and 64 rows ran the grids at L = 24-40 within the noise of one another;
# one of a whole window's up to 193 rows (1.5 MB at L = 32) raised the peak
# resident memory of three passes over the dephasing-grid shape by 1.6 MB,
# 32 rows by 0.1 MB.
CHEBYSHEV_CHUNK = 32
# 2^-53 / (1 + sqrt(2)): the truncation bound of a Chebyshev substep, with
# the Crouzeix-Palencia constant taken out.
CHEBYSHEV_TOL = 2.0 ** -53 / (1.0 + math.sqrt(2.0))
# Cost model, in seconds (module docstring, Route choice).  Measured with
# OpenBLAS at one thread on a 2-core Xeon.  One Chebyshev term (one kernel
# call, y += 2B v, with its share of the window's combination) took TERM_S +
# NNZ_S * nnz: tools/chebyshev_window.py timed 1.4 us at nnz = 282 (L = 8),
# 2.1-2.2 us at 1322 (L = 16), 3.7-4.1 us at 3130 (L = 24), 5.8-6.1 us at
# 5706 (L = 32), 8.4-9.7 us at 9050 (L = 40) and 18.2-20.2 us at 20770
# (L = 60), and its least-squares lines over five runs at gamma = 0.02 and
# 0.1 gave TERM_S = 1.03-1.2 us and NNZ_S = 0.82-0.92 ns.  A square real
# product took 0.046 n^3 ns at n = 136, 0.044 at n = 300 and 0.036 at n =
# 528 (N3_S); ``expm`` at one squaring cost 16.7, 13.8 and 11.6 such products
# there, so PADE_PRODUCTS = 16 carries its per-call overhead at the sector
# sizes where the routes are close.  A dense matrix-vector product took 3.2,
# 9.2 and 52 us at n = 136, 300 and 528 (N2_S n^2).  The same script times
# these dense products too; their ratio N3_S n / N2_S, a squaring in
# matrix-vector products, also sets the step rule's j (:func:`_dense_step`).
TERM_S = 1.05e-6
NNZ_S = 0.85e-9
N3_S = 0.04e-9
PADE_PRODUCTS = 16
N2_S = 0.15e-9


class _NotPositive(ValueError):
    """A DensityMatrix candidate has an eigenvalue at or below POSITIVITY_FLOOR.

    ``index`` is the position of that candidate in the checked stack.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _check(rho: np.ndarray) -> None:
    """Validate a (k, d, d) stack of candidates against the DensityMatrix invariants.

    One pass over the whole stack.  The first candidate that breaks an
    invariant raises, for the first of trace, Hermiticity and positivity
    that it breaks.  Each test is written so that a NaN fails it.  A NaN or
    infinite entry makes the Hermiticity residual NaN or infinite (inf - inf
    is a NaN there, not a warning), so only finite candidates pass the first
    two tests, and only those reach a LAPACK factorization, which cannot
    converge on the others.  When every candidate passes them, one batched
    Cholesky factorization of rho - POSITIVITY_FLOOR I tests positivity,
    smallest eigenvalue above the floor, for the whole stack at a quarter
    of the flops of ``eigvalsh``.  Only when it fails, or some candidate
    failed the first two tests, does one batched ``eigvalsh`` find the
    first candidate to blame and its smallest eigenvalue.
    """
    with np.errstate(invalid="ignore"):
        trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)
        asym = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    sound = (trace_dev <= TRACE_ATOL) & (asym <= HERMITICITY_ATOL)
    if sound.all():
        shifted = rho.copy()
        np.einsum("kii->ki", shifted)[...] -= POSITIVITY_FLOOR
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
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


@functools.lru_cache(maxsize=8)
def _liouvillian_pattern(dim: int) -> tuple[np.ndarray, ...]:
    """src, slot, diagonal, indptr, indices: the CSR pattern of -i(1 x H - H^T x 1) + D.

    H is tridiagonal and D diagonal.  Entry c of the two Kronecker products,
    those of 1 x H first, takes the entry ``src[c]`` of the flattened H and
    adds into the CSR entry ``slot[c]``; ``diagonal[p]`` is the CSR entry of
    the vec-space diagonal at p.  The entries are merged once by their keys
    row n + col, n = dim^2, so each row is sorted by column.  The result is
    cached per ``dim`` and shared by every caller, so its arrays are
    read-only.
    """
    n = dim * dim
    r, c = np.nonzero(np.abs(np.subtract.outer(np.arange(dim), np.arange(dim))) <= 1)
    site = np.arange(dim)[:, np.newaxis]
    # 1 x H takes rho_(c, b) to rho_(r, b) by H_rc; H^T x 1 takes rho_(a, r)
    # to rho_(a, c) by H_rc; vec index a + b dim
    rows = np.concatenate([(r + dim * site).ravel(), (site + dim * c).ravel()])
    cols = np.concatenate([(c + dim * site).ravel(), (site + dim * r).ravel()])
    src = np.tile(r * dim + c, 2 * dim)
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    diagonal = np.searchsorted(keys, np.arange(n) * (n + 1))
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    pattern = src, slot, diagonal, indptr, (keys % n).astype(np.int32)
    for part in pattern:
        part.flags.writeable = False
    return pattern


def build_liouvillian(spec: LatticeSpec) -> sp.csr_matrix:
    """Columnwise-vectorized generator of the dephasing master equation.

    -i(1 x H - H^T x 1) + (gamma/2) sum_j (2 n_j* x n_j - 1 x n_j^dag n_j
    - (n_j^dag n_j)^T x 1) with the site projectors n_j as jump operators.
    The jump operators are diagonal, so the dissipator is diagonal in vec
    space and is built in one step from their diagonals.  The CSR arrays
    are assembled directly on the cached pattern of the tridiagonal H
    (:func:`_liouvillian_pattern`): the entries -i H and +i H^T, and the
    dissipator on the diagonal, are summed into their places by one
    ``np.bincount`` each for the real and imaginary parts, in the order of
    the Kronecker form, so every entry equals that form's bit for bit; exact
    zeros are dropped.  Returned as a complex L^2 x L^2 CSR matrix, each
    row sorted by column.
    """
    src, slot, diagonal, indptr, indices = _liouvillian_pattern(spec.L)
    H = build_stark(spec).ravel()[src]
    half = H.size // 2
    # -i z = (Im z, -Re z) for the entries of 1 x H, +i z = (-Im z, Re z) for H^T x 1
    re = np.concatenate([H.imag[:half], -H.imag[half:]])
    im = np.concatenate([-H.real[:half], H.real[half:]])
    if spec.gamma > 0.0:
        d = np.array([np.diag(op) for op in build_dephasing_ops(spec)])
        weight = (np.abs(d) ** 2).sum(axis=0)
        # [a, b] is the vec-space diagonal entry at index a + b*L.
        diss = 2.0 * (d.T @ d.conj()) - weight[:, np.newaxis] - weight[np.newaxis, :]
        diss = (spec.gamma / 2.0) * diss.flatten(order="F")
        slot = np.concatenate([slot, diagonal])
        re, im = np.concatenate([re, diss.real]), np.concatenate([im, diss.imag])
    data = np.empty(indices.size, dtype=complex)
    data.real = np.bincount(slot, re, indices.size)
    data.imag = np.bincount(slot, im, indices.size)
    kept = data != 0.0
    n = spec.L * spec.L
    return sp.csr_matrix((data[kept], indices[kept], np.concatenate([[0], np.cumsum(kept)])[indptr]),
                         shape=(n, n))


@functools.lru_cache(maxsize=8)
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
    coordinates is decided.  The result is cached per ``dim`` and shared by
    every caller, so the arrays of T are read-only.
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
    T = (sp.diags(1.0 / np.sqrt(np.diff(T.indptr))) @ T).tocsr()
    for part in (T.data, T.indices, T.indptr):
        part.flags.writeable = False
    return T, sectors[0].shape[0]


@functools.lru_cache(maxsize=8)
def _sector_maps(dim: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per mirror sector, the CSR arrays (indptr, indices, data) of T_k, then of T_k^dag.

    T_k is the sector's rows of T (:func:`_hermitian_basis`); T_k^dag is
    laid out as scipy's sparse product lays out the CSC transpose, so that
    :func:`_sectors` makes scipy's products bit for bit.  The result is
    cached per ``dim`` and shared by every caller, so its arrays are
    read-only.
    """
    T, k = _hermitian_basis(dim)
    maps = []
    for S in (T[:k], T[k:]):
        adjoint = sp.csr_matrix(S.conj().T)
        parts = (S.indptr, S.indices, S.data, adjoint.indptr, adjoint.indices, adjoint.data)
        for part in parts:
            part.flags.writeable = False
        maps.append(parts)
    return tuple(maps)


def _matmat(rows: int, cols: int, a: tuple, b: tuple) -> tuple[np.ndarray, ...]:
    """CSR arrays of the product of two complex CSR matrices, by scipy's compiled kernels.

    ``a`` and ``b`` are (indptr, indices, data).  The kernels are the ones
    scipy's sparse ``@`` calls, so the entries, their order within a row and
    the exact zeros left out are its own; the arrays are cut to the stored
    entries.
    """
    nnz = csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    indptr = np.empty(rows + 1, dtype=np.int32)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz, dtype=complex)
    csr_matmat(rows, cols, *a, *b, indptr, indices, data)
    return indptr, indices[:indptr[-1]], data[:indptr[-1]]


def _sectors(spec: LatticeSpec) -> tuple[sp.csr_matrix, int, list[sp.csr_matrix]]:
    """T, k and the two real sector blocks of T G T^dag, G = build_liouvillian(spec).

    The mirror symmetry makes the cross-sector blocks vanish, so they are
    never formed.  Each block is (T_k (G T_k^dag)).real, made by scipy's
    compiled kernels on the cached arrays of :func:`_sector_maps` without
    scipy's Python dispatch of a sparse product; it equals that product in
    its CSR arrays, explicit zeros of the real part included.  Whatever
    ``build_liouvillian`` returns is projected.
    """
    T, k = _hermitian_basis(spec.L)
    G = build_liouvillian(spec).tocsr()
    gen = (G.indptr.astype(np.int32, copy=False), G.indices.astype(np.int32, copy=False),
           G.data.astype(complex, copy=False))
    blocks = []
    for S in _sector_maps(spec.L):
        size = len(S[0]) - 1
        indptr, indices, data = _matmat(size, size, S[:3], _matmat(G.shape[0], size, gen, S[3:]))
        blocks.append(sp.csr_matrix((data.real.copy(), indices, indptr), shape=(size, size)))
    return T, k, blocks


def _width(spec: LatticeSpec) -> float:
    """E_max - E_min of the Stark Hamiltonian, ||K||_2 of its commutator part.

    From the eigenvalues of the tridiagonal chain (diagonal h*j, hopping J),
    so that no second Hamiltonian is built.
    """
    E = sla.eigvalsh_tridiagonal(spec.h * spec.sites(), np.full(spec.L - 1, float(spec.J)))
    return float(E[-1] - E[0])


def _dense_step(norm: float, n: int, uses: int) -> tuple[int, float]:
    """(j, seconds) of the step rule for a gap of 1-norm ``norm`` in a block of size n.

    ``expm`` would square s times; the propagator skips the j in [0, s] of
    the squarings whose price (PADE_PRODUCTS + s - j) N3_S n^3 + uses 2^j
    N2_S n^2 is least, the smaller j on a tie, and that price is returned.
    """
    s = math.ceil(math.log2(norm / THETA_13)) if THETA_13 < norm < math.inf else 0
    prices = [(PADE_PRODUCTS + s - j) * N3_S * n ** 3 + uses * 2 ** j * N2_S * n * n
              for j in range(s + 1)]
    j = prices.index(min(prices))
    return j, prices[j]


def _norm1(block: sp.csr_matrix) -> float:
    """||block||_1, the largest column sum of moduli, from the CSR arrays."""
    return float(np.bincount(block.indices, np.abs(block.data), block.shape[1]).max())


def _dense_route(blocks: list[sp.csr_matrix], uses: Counter):
    """x, gaps, out: out[i] = the state after gap i under G = diag(blocks), by the step rule.

    G is block diagonal, so each block advances its own slice of x over all
    the gaps into its own columns of out, one block after the other.  A
    block makes one dense ``expm`` per distinct positive gap, of exp(G_k
    gap / 2^j) with j from :func:`_dense_step`, and each use applies it 2^j
    times.  A zero gap repeats the state.
    """
    def advance(x: np.ndarray, gaps: list[float], out: np.ndarray) -> None:
        cuts = np.cumsum([0] + [block.shape[0] for block in blocks])
        for block, lo, hi in zip(blocks, cuts, cuts[1:]):
            gen, norm, y = block.toarray(), _norm1(block), x[lo:hi]
            steps: dict[float, tuple[np.ndarray, int]] = {}
            for i, gap in enumerate(gaps):
                if gap:
                    key = round(gap, 12)
                    if key not in steps:
                        j = _dense_step(norm * gap, block.shape[0], uses[key])[0]
                        steps[key] = sla.expm(gen * (gap / 2 ** j)), 2 ** j
                    E, reps = steps[key]
                    for _ in range(reps):
                        y = E @ y
                out[i, lo:hi] = y

    return advance


def _bessel(z: np.ndarray, count: int) -> np.ndarray:
    """Row i holds J_0(z_i), ..., J_count(z_i), for a 1-D array of z_i > 0.

    Miller's backward recurrence, once per entry: J_(k-1) = (2k/z) J_k -
    J_(k+1) is stable downward.  It starts from 1 and 0 well above ``count``
    (the margin of Numerical Recipes' ``bessj``, Press et al., 2nd ed., Sec.
    6.5), rescales before it could overflow, and is normalized by J_0 + 2
    sum_k J_2k = 1 (Abramowitz & Stegun 9.1.46).
    """
    top = count + 20 + math.isqrt(40 * count)
    out = np.empty((len(z), count + 1))
    for row, x in zip(out, map(float, z)):
        vals = np.zeros(top + 1)
        nxt, cur = 0.0, 1.0
        for k in range(top, 0, -1):
            vals[k] = cur
            nxt, cur = cur, (2.0 * k / x) * cur - nxt
            if abs(cur) > 1e200:
                vals[k:] *= 1e-200
                nxt, cur = nxt * 1e-200, cur * 1e-200
        vals[0] = cur
        row[:] = vals[:count + 1] / (vals[0] + 2.0 * vals[2::2].sum())
    return out


def _term_count(z: float, eta: float) -> int:
    """Terms of one Chebyshev substep of width z, predicted without the J_k.

    The smallest k >= z at which Kapteyn's bound J_k(z) <= exp(-k (a - tanh a)),
    cosh a = k/z (Watson, Sec. 8.7), times the growth e^(k eta) of the
    Chebyshev polynomials of B, falls below CHEBYSHEV_TOL; a bisection over
    integer k.  It was 0.5-2 terms above the count the J_k give for z from
    1e-3 to 3000 and eta from 1e-3 to 1.
    """
    def short(k: int) -> bool:
        a = math.acosh(k / z)
        return k * (a - math.tanh(a) - eta) < -math.log(CHEBYSHEV_TOL)

    lo = hi = math.ceil(z)
    while short(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return hi


def _chebyshev_shape(diag: np.ndarray, width: float) -> tuple[float, float, float]:
    """(c, rho, eta) of G = K + D with diagonal ``diag`` and ||K||_2 <= width."""
    lo, hi = float(diag.min()), float(diag.max())
    c, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    rho = max(width, half)
    eps = half / rho if rho else 0.0
    # the smallest Bernstein ellipse around [-1, 1] x i[-eps, eps]
    return c, rho, math.acosh(0.5 * (eps + math.sqrt(eps * eps + 4.0)))


def _chebyshev_plan(rho: float, eta: float, gap: float) -> tuple[int, float]:
    """(s, z): the substeps of one gap and the width z = rho gap / s of each."""
    z = rho * gap
    s = max(1, math.ceil(z * eta / THETA_CHEBYSHEV))
    return s, z / s


def _truncation(J: np.ndarray, eta: float) -> int:
    """The K at which (1 + sqrt 2) sum_(k > K) 2 |J_k| e^(k eta) <= 2^-53, at least 1."""
    tail = np.cumsum((2.0 * np.abs(J) * np.exp(eta * np.arange(J.size)))[::-1])[::-1]
    return max(1, int(np.argmax(np.append(tail[1:], 0.0) <= CHEBYSHEV_TOL)))


def _chebyshev_route(blocks: list[sp.csr_matrix], width: float):
    """x, gaps, out: out[i] = exp(G t_i) x, by the Chebyshev-Bessel action.

    G = diag(blocks) = K + D, K real antisymmetric with ||K||_2 <= ``width``,
    D diagonal; no block holds two entries at one place.  The gaps are at
    least 0 and t_i is the sum of the first i.  The module docstring gives
    the expansion, its bound, the substep rule and the windows: the gaps are
    split into windows, each advanced from its start by one recurrence, a
    gap that is a window of its own goes by s windows of one substep each,
    and a zero gap repeats the state.
    Coefficients are computed once per distinct window.  Each term is one
    call of scipy's compiled ``csr_matvec`` on the CSR arrays of 2B, which
    adds 2B w_k into the ring-buffer row that holds w_(k-1) and so makes
    w_(k+1) in place; w_1 = B x is made by the same call into a zeroed row,
    then halved.  The CSR arrays of 2B are made from those of the blocks by
    a few array operations, each entry (g - c) (2 / rho) as scipy's sparse
    arithmetic would give it, at a fraction of the fixed cost of scipy's
    ``block_diag`` and sparse arithmetic.
    """
    # the CSR arrays of G, each row sorted by column, with a zero put in at
    # its place where a row has no diagonal entry
    cuts = np.cumsum([0] + [block.shape[0] for block in blocks])
    ends = np.cumsum([0] + [block.nnz for block in blocks])
    n = int(cuts[-1])
    indptr = np.concatenate([[0]] + [block.indptr[1:] + end for block, end in zip(blocks, ends)],
                            dtype=np.int64)
    indices = np.concatenate([block.indices + cut for block, cut in zip(blocks, cuts)],
                             dtype=np.int64)
    data = np.concatenate([block.data for block in blocks])
    csr_sort_indices(n, indptr, indices, data)
    row_ids = np.repeat(np.arange(n), np.diff(indptr))
    missing = np.ones(n, dtype=bool)
    missing[row_ids[indices == row_ids]] = False
    at = (indptr[:-1] + np.bincount(row_ids[indices < row_ids], minlength=n))[missing]
    added = np.flatnonzero(missing)
    row_ids = np.insert(row_ids, at, added)
    indices, data = np.insert(indices, at, added), np.insert(data, at, 0.0)
    indptr = indptr + np.concatenate([[0], np.cumsum(missing)])
    diagonal = np.flatnonzero(indices == row_ids)
    c, rho, eta = _chebyshev_shape(data[diagonal], width)
    if rho:
        data[diagonal] -= c
        data *= 2.0 / rho
        # y += 2B v by scipy's compiled CSR kernel, straight into y
        add_product = functools.partial(csr_matvec, n, n, indptr, indices, data)
    windows: dict[tuple, np.ndarray] = {}
    terms = np.empty((CHEBYSHEV_CHUNK, n))
    rows = list(terms)

    def fits(tau: float) -> bool:
        z = rho * tau
        return z * eta <= THETA_CHEBYSHEV and _term_count(z, eta) <= CHEBYSHEV_WINDOW_TERMS

    def window(x: np.ndarray, gaps: list[float]) -> np.ndarray:
        key = tuple(round(gap, 12) for gap in gaps)
        if key not in windows:
            tau = np.cumsum(gaps)
            z = rho * tau
            J = _bessel(z, _term_count(z[-1], eta))
            # the largest z bounds the tail of every output (module docstring)
            coef = 2.0 * J[:, :_truncation(J[-1], eta) + 1]
            coef[:, 0] = J[:, 0]
            windows[key] = coef * np.exp(c * tau)[:, np.newaxis]
        coef = windows[key]
        # w_0 = x, w_1 = B x, w_(k+1) = 2B w_k + w_(k-1); w_k is row k % size
        # of the buffer, each made in place by one kernel call, and each full
        # buffer, and the rows left at the end, go into the states by one
        # matrix product
        size, count = len(rows), coef.shape[1]
        prev, cur = rows[0], rows[1]
        np.copyto(prev, x)
        cur.fill(0.0)
        add_product(prev, cur)
        cur *= 0.5
        states = np.zeros((len(coef), x.size))
        for k in range(2, count):
            nxt = rows[k % size]
            np.copyto(nxt, prev)
            add_product(cur, nxt)
            prev, cur = cur, nxt
            if k % size == size - 1:
                states += coef[:, k + 1 - size:k + 1] @ terms
        done = count - count % size
        states += coef[:, done:] @ terms[:count - done]
        return states

    def advance(x: np.ndarray, gaps: list[float], out: np.ndarray) -> None:
        i = 0
        while i < len(gaps):
            j, tau = i + 1, gaps[i]
            while rho * tau and j < len(gaps) and gaps[j] and fits(tau + gaps[j]):
                tau += gaps[j]
                j += 1
            if j - i > 1:
                out[i:j] = window(x, gaps[i:j])
            elif rho * tau == 0.0:  # G = cI, or a zero gap: x e^0 is x
                out[i] = x * math.exp(c * tau)
            else:
                s = _chebyshev_plan(rho, eta, tau)[0]
                for _ in range(s):
                    x = window(x, [tau / s])[0]
                out[i] = x
            x = out[j - 1]
            i = j

    return advance


def _dense_wins(blocks: list[sp.csr_matrix], width: float, uses: Counter) -> bool:
    """Whether the dense route is predicted to advance all the distinct gaps faster.

    The distinct gaps are the keys of ``uses``, each used as often as it
    counts.  Each route's cost is the sum of its prices of those gaps; both
    follow from sizes, norms and plans alone, before any exponential or
    coefficient is computed (module docstring, Route choice).
    """
    norms = [_norm1(block) for block in blocks]
    c, rho, eta = _chebyshev_shape(np.concatenate([block.diagonal() for block in blocks]), width)
    term = TERM_S + NNZ_S * sum(block.nnz for block in blocks)
    dense = chebyshev = 0.0
    for key, u in uses.items():
        for block, norm in zip(blocks, norms):
            dense += _dense_step(norm * key, block.shape[0], u)[1]
        s, z = _chebyshev_plan(rho, eta, key)
        if z:  # at z = 0 the Chebyshev route only scales the state
            chebyshev += u * s * _term_count(z, eta) * term
    return dense < chebyshev


def propagate(rho0, spec: LatticeSpec, times) -> list[DensityMatrix]:
    """Evolve rho0 to every requested time under the dephasing master equation.

    ``times`` must be finite and sorted ascending with times[0] >= 0.  The
    Liouvillian ``build_liouvillian(spec)`` is taken sparse to the real
    Hermitian basis, where it is real, G = K + D, one mirror sector at a
    time, by scipy's compiled sparse products on cached maps (module
    docstring, Assembly).  Below n = L^2 = MIRROR_MIN_DIM one dense
    exponential of the whole block-diagonal generator is computed per
    distinct gap between consecutive requested times.  From there on the call
    builds one route, the one of smaller predicted cost summed over its
    distinct gaps (module docstring), and advances every gap by it: one
    dense exponential per sector and distinct gap, applied as the step rule
    says, or the Chebyshev-Bessel action of the sparse generator, whose
    truncation the K + D form bounds.  The Chebyshev route splits the gaps
    into windows, and advances each window by one recurrence from its start
    to all of its times; a gap that is a window of its own goes by ceil(rho
    g eta / THETA_CHEBYSHEV) windows of one substep each.  On either route a
    zero gap repeats the state bit for bit.  A mirror sector whose
    coordinates start at zero is skipped.  The states are mapped back to rho
    by T^dag, the adjoint of the basis map, which makes them Hermitian entry
    for entry.  They are validated together against the DensityMatrix
    invariants, positivity by one batched Cholesky factorization; a smallest
    eigenvalue at or below -1e-8 raises PositivityLoss naming the first time
    it occurs at, found by ``eigvalsh`` only then.
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

    T, k, blocks = _sectors(spec)
    # The real part is the Hermitian part of rho0.
    x = (T @ vectorize(rho0)).real

    gaps = [float(gap) for gap in np.diff(times, prepend=0.0)]
    uses = Counter(round(gap, 12) for gap in gaps if gap > 0.0)
    live = slice(None)
    if x.size < MIRROR_MIN_DIM:
        advance = _dense_route([sp.block_diag(blocks, format="csr")], uses)
    else:
        # G is block diagonal, so a sector whose coordinates start at zero
        # stays zero: only the sectors from the first to the last live one move.
        bounds = [0, k, x.size]
        moving = [i for i in (0, 1) if x[bounds[i]:bounds[i + 1]].any()] or [0, 1]
        live = slice(bounds[moving[0]], bounds[moving[-1] + 1])
        blocks, width = blocks[moving[0]:moving[-1] + 1], _width(spec)
        advance = (_dense_route(blocks, uses) if _dense_wins(blocks, width, uses)
                   else _chebyshev_route(blocks, width))
    coords = np.zeros((times.size, x.size))
    advance(x[live], gaps, coords[:, live])
    # Row i of coords @ conj(T) is T^dag x_i = vec(rho_i), columnwise.
    rho = (coords @ T.conj()).reshape((times.size, spec.L, spec.L), order="F")
    try:
        return DensityMatrix._stack(rho)
    except _NotPositive as exc:
        raise PositivityLoss(f"{exc} at t = {times[exc.index]} (propagation failure)") from exc


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two states."""
    diff = _entries(a) - _entries(b)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
