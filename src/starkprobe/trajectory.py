"""Monte Carlo wave-function unraveling of the dephasing master equation.

Each trajectory alternates no-jump evolution under the effective
non-Hermitian Hamiltonian with stochastic projector jumps; averaging the
pure-state projectors over many trajectories recovers the master-equation
density matrix.  The no-jump branch uses the exact exponential step and the
exact norm loss for the jump probability, which agrees with the first-order
textbook update gamma*dt*sum_j <n_j> to O(dt^2) while removing its
step-size bias.

Cost: the no-jump evolutions of the initial state and of the L site states
are stepped once per ensemble and tabulated, so each trajectory does work
per jump (about gamma * t of them) rather than per time step.

Reproducibility: trajectory k owns the counter-based Philox stream under the
two-word key (seed, k), two uniforms per step: the rows of its first
(2, n_steps) block are the jump and the site uniforms.  So results are
independent of execution order and identical between serial and parallel
drivers.  Philox computes any draw from its counter alone (Salmon et al.,
SC11 (2011)), so only the draws the walk reads are generated: the jump row,
and the site uniform of each step that jumps.
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

# Trajectories walked between reductions; bounds the segment lists and the
# checkpoint gathers, so memory does not grow with the ensemble size.
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


def _draw(rng: np.random.Generator, seed: int, k: int, d: int) -> float:
    """Uniform number d of stream (seed, k), generating at most four."""
    _seek(rng, seed, k, d // 4)
    return rng.random(d % 4 + 1)[-1]


def run_ensemble(psi0, spec: LatticeSpec, cfg: TrajectoryConfig, times) -> list[DensityMatrix]:
    """Average |psi_k(t)><psi_k(t)| over cfg.n_traj dephasing trajectories.

    ``times`` must lie on the dt grid.  Deterministic given cfg.seed;
    trajectory k reads only its own Philox stream (seed, k), which holds
    two uniforms per step: the jump decisions as draws 0 .. n_steps-1 and
    the site selections as draws n_steps .. 2 n_steps - 1.  So the result
    does not depend on execution order.  One reused generator is moved onto
    each stream by its counter; it generates the jump row and, per jump,
    only the block holding that step's site uniform.

    Between jumps a trajectory is the normalized no-jump evolution of psi0
    or of the site state it last jumped to, so those L + 1 columns are
    stepped once for the whole ensemble into a table of
    (n_steps + 1) * (L + 1) * L complex values.  A trajectory visits only
    the steps whose jump uniform lies below the largest per-step jump
    probability, so its cost grows with its jumps, not its steps; each
    checkpoint is one gather from the table and one matrix product.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("run_ensemble requires a unit-norm initial state")
    if spec.gamma * cfg.dt >= MAX_DP_PER_STEP:
        raise ValueError(
            f"expected jump probability per step gamma*dt = {spec.gamma * cfg.dt:.3g} "
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
    H_eff = build_effective_dephasing(spec)
    E = sla.expm(-1j * H_eff * cfg.dt)

    # No-jump table: column 0 starts at psi0, column 1 + j at site j.
    # table[m][:, c] is column c after m normalized steps; dp[m, c] is the
    # norm loss of the next step, which is its jump probability.
    table = np.empty((n_steps + 1, L, L + 1), dtype=complex)
    table[0] = np.column_stack([psi0, np.eye(L)])
    dp = np.empty((n_steps, L + 1))
    phi = np.empty((L, L + 1), dtype=complex)
    for m in range(n_steps):
        np.matmul(E, table[m], out=phi)
        q = np.einsum("ij,ij->j", phi.conj(), phi).real
        if np.any(q < NORM_COLLAPSE_FLOOR):
            # H_eff - H is a multiple of the identity, so the norm loss is
            # the same from every state: every trajectory meets this step.
            raise NormCollapse(f"norm^2 = {q.min():.3e} at step {m}")
        dp[m] = 1.0 - q
        np.divide(phi, np.sqrt(q), out=table[m + 1])
    dp_max = dp.max(initial=0.0)  # dp is empty when n_steps = 0

    rng = np.random.Generator(np.random.Philox())
    u_jump = np.empty(n_steps)
    sums = [np.zeros((L, L), dtype=complex) for _ in steps_of]
    for start in range(0, cfg.n_traj, _CHUNK):
        trajs = range(start, min(start + _CHUNK, cfg.n_traj))
        # Segments (k, b, c): from step b on, trajectory k is column c of
        # the table, b steps late.  Every trajectory opens with (k, 0, 0).
        segs = []
        for k in trajs:
            _seek(rng, cfg.seed, k, 0)
            rng.random(out=u_jump)
            b, c = 0, 0
            segs.append((k, b, c))
            # A step can only jump if its uniform lies below the largest dp.
            for s in np.flatnonzero(u_jump < dp_max).tolist():
                if u_jump[s] < dp[s - b, c]:
                    # Cumulative selection over the pre-step weights; sites
                    # of zero weight can never be the first to exceed the draw.
                    cum = np.cumsum(np.abs(table[s - b, :, c]) ** 2)
                    u_site = _draw(rng, cfg.seed, k, n_steps + s)
                    site = int(np.argmax(cum > u_site * cum[-1]))
                    # The post-jump phase cancels in |psi><psi|.
                    b, c = s + 1, 1 + site
                    segs.append((k, b, c))

        # Segment keys ascend, so the last segment opened by step n of each
        # trajectory is one sorted search away.
        seg_traj, seg_start, seg_col = np.array(segs).T
        key = seg_traj * (n_steps + 1) + seg_start
        first = np.array(trajs) * (n_steps + 1)
        for S, n in zip(sums, steps_of):
            seg = np.searchsorted(key, first + n, side="right") - 1
            v = table[n - seg_start[seg], :, seg_col[seg]]
            S += v.T @ v.conj()

    return [DensityMatrix((S + S.conj().T) / (2.0 * cfg.n_traj)) for S in sums]
