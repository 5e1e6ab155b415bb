"""Monte Carlo wave-function unraveling of the dephasing master equation.

Each trajectory alternates no-jump evolution under the effective
non-Hermitian Hamiltonian with stochastic projector jumps; averaging the
pure-state projectors over many trajectories recovers the master-equation
density matrix.  The jump operators are site projectors, so
H_eff = H - (i gamma / 2) 1 and every state loses the same norm
exp(-gamma dt) per step: a step jumps with the exact probability
1 - exp(-gamma dt), which agrees with the first-order textbook update
gamma*dt*sum_j <n_j> to O(dt^2) while removing its step-size bias.  The
steps between jumps are therefore geometric, and a trajectory draws them
directly: the waiting-time method (Dalibard, Castin & Molmer, PRL 68, 580
(1992); Plenio & Knight, RMP 70, 101 (1998)) on the dt grid.

Cost: the no-jump evolutions of the initial state and of the L site states
are tabulated once per ensemble, so each trajectory does work per jump
(about gamma * t of them) rather than per time step.  The trajectories of a
chunk advance together, one jump per round.

Reproducibility: trajectory k owns the counter-based Philox stream under the
two-word key (seed, k) and reads it in order, two uniforms per jump: draw 2r
is its r-th waiting uniform and draw 2r + 1 its r-th site uniform.  So
results are independent of execution order and identical between serial and
parallel drivers.  Philox computes any block of four draws from its key and
counter alone (Salmon et al., SC11 (2011)), so a trajectory generates only
the blocks that hold its jumps, and one vectorized pass computes the block
of every trajectory of a round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NormCollapse
from .lindblad import DensityMatrix
from .model import LatticeSpec, build_effective_dephasing

__all__ = ["TrajectoryConfig", "run_ensemble"]

# Validation ceiling for the expected per-step jump probability.
MAX_DP_PER_STEP = 0.1

# Norm^2 below which a trajectory is considered collapsed.
NORM_COLLAPSE_FLOOR = 1e-24

# Trajectories advanced together; bounds the round arrays and the checkpoint
# gathers, so memory does not grow with the ensemble size.
_CHUNK = 4096


@dataclass(frozen=True)
class TrajectoryConfig:
    """Time step, ensemble size and RNG seed; the horizon is the last time asked for."""

    dt: float
    n_traj: int
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


# Philox4x64-10 (Salmon et al., SC11 (2011)) as numpy's Philox computes it:
# round multipliers, key bumps, and the low-half mask of the 128-bit product.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW = np.uint64(0xFFFFFFFF)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, high from 32-bit halves."""
    m_hi, m_lo, x_hi, x_lo = m >> 32, m & _LOW, x >> 32, x & _LOW
    t = x_hi * m_lo + ((x_lo * m_lo) >> 32)
    u = x_lo * m_hi + (t & _LOW)
    return x_hi * m_hi + (t >> 32) + (u >> 32), x * m


def _philox_block(seed: int, trajs, block: int) -> np.ndarray:
    """``(n, 4)`` draws 4 * block .. 4 * block + 3 of the streams (seed, trajs).

    Bit for bit what numpy's Philox with key [seed, k] gives as doubles
    there: numpy steps the counter before it fills its buffer, so block b is
    counter b + 1, and a double is the top 53 bits of a word times 2**-53.
    Two-word key: XORing the seed with the index would only permute one run's
    key set into another's, making different seeds share streams.  All words
    stay arrays, whose uint64 arithmetic wraps without a warning.
    """
    k1 = np.asarray(trajs, dtype=np.uint64)
    k0 = np.full(k1.shape, seed, dtype=np.uint64)
    c0 = np.full(k1.shape, block + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for i in range(10):
        if i:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        (hi0, lo0), (hi1, lo1) = _mulhilo(_PHILOX_M[0], c0), _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (np.stack([c0, c1, c2, c3], axis=1) >> np.uint64(11)) * 2.0**-53


def _round_uniforms(seed: int, trajs: np.ndarray, r: int,
                    block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Waiting and site uniforms of round r: draws 2r and 2r + 1 of each stream.

    Row i of ``block`` holds the current four-draw Philox block of stream
    (seed, trajs[i]).  An even round fills every row with block r / 2, whose
    last two draws then serve round r + 1.
    """
    if r % 2 == 0:
        block[:] = _philox_block(seed, trajs, r // 2)
    lane = 2 * (r % 2)
    return block[:, lane], block[:, lane + 1]


def _no_jump_table(psi0: np.ndarray, E: np.ndarray, gamma_dt: float, n_steps: int) -> np.ndarray:
    """Normalized no-jump evolutions, site-major: column c after m steps is table[:, m, c].

    Column 0 starts at psi0 and column 1 + j at site j.  H_eff - H is a
    multiple of the identity, so P = E exp(gamma dt / 2) is unitary and every
    column loses the same norm.  Steps j .. 2j - 1 are P^j applied to steps
    0 .. j - 1: in the site-major layout each such block is a 2-D view, so
    every doubling is one product written in place.
    """
    L = E.shape[0]
    table = np.empty((L, n_steps + 1, L + 1), dtype=complex)
    table[:, 0, 0] = psi0
    table[:, 0, 1:] = np.eye(L)
    flat, w = table.reshape(L, -1), L + 1
    power, j = E * math.exp(gamma_dt / 2.0), 1
    while j <= n_steps:
        m = min(j, n_steps + 1 - j)
        np.matmul(power, flat[:, :m * w], out=flat[:, j * w:(j + m) * w])
        power, j = power @ power, 2 * j
    # |z|^2 summed over sites, from the interleaved real and imaginary parts
    # of a float view, so that no array the size of the table is made.
    parts = table.view(float)
    q = np.einsum("imc,imc->mc", parts, parts)
    q = q[:, 0::2] + q[:, 1::2]
    if not np.all(q >= NORM_COLLAPSE_FLOOR):
        m = int(np.argmin(np.all(q >= NORM_COLLAPSE_FLOOR, axis=1)))
        raise NormCollapse(f"trajectory no-jump norm^2 = {np.min(q[m]):.3e} at step {m} "
                           f"is below {NORM_COLLAPSE_FLOOR:g}")
    table /= np.sqrt(q)
    return table


def run_ensemble(psi0, spec: LatticeSpec, cfg: TrajectoryConfig, times) -> list[DensityMatrix]:
    """Average |psi_k(t)><psi_k(t)| over cfg.n_traj dephasing trajectories.

    ``times`` must lie on the dt grid; the ensemble runs to the largest.
    Deterministic given cfg.seed; trajectory k reads only its own Philox
    stream (seed, k), in order, two uniforms per jump: draw 2r is the r-th
    waiting uniform u and draw 2r + 1 the r-th site uniform.  A segment that starts at step b waits
    K = floor(-log1p(-u) / (gamma dt)) steps, so P(K >= k) = exp(-gamma k dt)
    exactly, and jumps in step s = b + K if s < n_steps.  The site is picked
    by cumulative weight from the state before that step, and the next
    segment starts at step s + 1 on that site.  So the result does not depend
    on execution order.  At gamma = 0 nothing is drawn.

    Between jumps a trajectory is the normalized no-jump evolution of psi0
    or of the site state it last jumped to, so those L + 1 columns are
    evolved once for the whole ensemble into a table of
    (n_steps + 1) * (L + 1) * L complex values.  The trajectories of a chunk
    advance together: round r draws the r-th jump of every trajectory still
    active, with one gather from the table, and each checkpoint inside a
    segment is one gather and one matrix product.  Every even round computes
    the next block of four draws of all its streams in one vectorized
    Philox pass, so each block serves two rounds.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("run_ensemble requires a unit-norm initial state")
    rate = spec.gamma * cfg.dt
    if rate >= MAX_DP_PER_STEP:
        raise ValueError(
            f"expected jump probability per step gamma*dt = {rate:.3g} "
            f"exceeds {MAX_DP_PER_STEP}; reduce dt"
        )

    times = np.asarray(times, dtype=float)
    steps_of = []
    for t in times:
        k = round(t / cfg.dt)
        if abs(k * cfg.dt - t) > 1e-9 * max(1.0, abs(t)) or k < 0:
            raise ValueError(f"time {t} does not lie on the dt = {cfg.dt} grid")
        steps_of.append(k)
    n_steps = max(steps_of, default=0)

    L = spec.L
    E = sla.expm(-1j * build_effective_dephasing(spec) * cfg.dt)
    table = _no_jump_table(psi0, E, rate, n_steps)

    sums = [np.zeros((L, L), dtype=complex) for _ in steps_of]
    for start in range(0, cfg.n_traj, _CHUNK):
        # From step b[i] on, trajectory trajs[i] is column c[i] of the table,
        # b[i] steps late.  Every trajectory opens with b = 0, c = 0.
        trajs = np.arange(start, min(start + _CHUNK, cfg.n_traj))
        b, c = np.zeros_like(trajs), np.zeros_like(trajs)
        block = np.empty((trajs.size, 4))
        r = 0
        while True:
            # s is the step in which the open segment ends with a jump, kept
            # in float: a wait beyond n_steps (or beyond the float range) is
            # compared before any integer cast.
            if rate > 0.0:
                u_wait, u_site = _round_uniforms(cfg.seed, trajs, r, block)
                with np.errstate(over="ignore"):
                    s = b + np.floor(-np.log1p(-u_wait) / rate)
            else:
                s = np.full(trajs.size, np.inf)
            for S, n in zip(sums, steps_of):
                here = (b <= n) & (n <= s)
                v = table[:, n - b[here], c[here]]
                S += v @ v.conj().T
            jump = s < n_steps
            if not jump.any():
                break
            trajs, b, c, block = trajs[jump], b[jump], c[jump], block[jump]
            s, u_site = s[jump].astype(np.int64), u_site[jump]
            # Cumulative selection over the pre-step weights; sites of zero
            # weight can never be the first to exceed the draw.
            cum = np.cumsum(np.abs(table[:, s - b, c]) ** 2, axis=0)
            site = (cum > u_site * cum[-1]).argmax(axis=0)
            # The post-jump phase cancels in |psi><psi|.
            b, c = s + 1, 1 + site
            r += 1

    return [DensityMatrix((S + S.conj().T) / (2.0 * cfg.n_traj)) for S in sums]
