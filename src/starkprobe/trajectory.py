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
parallel drivers.  Philox computes any block of four draws from its counter
alone (Salmon et al., SC11 (2011)), so a trajectory generates only the
blocks that hold its jumps.
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
    """Time step, horizon, ensemble size and RNG seed of a trajectory run."""

    dt: float
    t_final: float
    n_traj: int
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt}")
        if not (self.t_final >= 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _seek(rng: np.random.Generator, seed: int, k: int, block: int) -> None:
    """Move rng's Philox generator to block ``block`` of stream (seed, k).

    Each block holds four draws; the generator steps its counter before it
    fills the buffer, so counter ``block`` with the buffer spent makes draw
    4 * block the next one read.  Two-word key: XORing the seed with the
    index would only permute one run's key set into another's, making
    different seeds share streams.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [block, 0, 0, 0], "key": [seed, k]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def _round_uniforms(rng: np.random.Generator, seed: int, trajs: np.ndarray, r: int,
                    block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Waiting and site uniforms of round r: draws 2r and 2r + 1 of each stream.

    Row i of ``block`` holds the current four-draw Philox block of stream
    (seed, trajs[i]).  An even round moves every row on to block r / 2, whose
    last two draws then serve round r + 1.
    """
    if r % 2 == 0:
        for row, k in zip(block, trajs.tolist()):
            _seek(rng, seed, k, r // 2)
            rng.random(out=row)
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

    ``times`` must lie on the dt grid.  Deterministic given cfg.seed;
    trajectory k reads only its own Philox stream (seed, k), in order, two
    uniforms per jump: draw 2r is the r-th waiting uniform u and draw 2r + 1
    the r-th site uniform.  A segment that starts at step b waits
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
    segment is one gather and one matrix product.  A reused generator is
    moved onto each stream by its counter and generates one block of four
    draws per two rounds.
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
    if n_steps * cfg.dt > cfg.t_final + 1e-9:
        raise ValueError("requested times extend beyond t_final")

    L = spec.L
    E = sla.expm(-1j * build_effective_dephasing(spec) * cfg.dt)
    table = _no_jump_table(psi0, E, rate, n_steps)

    rng = np.random.Generator(np.random.Philox())
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
                u_wait, u_site = _round_uniforms(rng, cfg.seed, trajs, r, block)
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
