"""Monte Carlo wave-function unraveling of the dephasing master equation.

Each trajectory alternates no-jump evolution under the effective
non-Hermitian Hamiltonian with stochastic projector jumps; averaging the
pure-state projectors over many trajectories recovers the master-equation
density matrix.  The no-jump branch uses the exact exponential step and the
exact norm loss for the jump probability, which agrees with the first-order
textbook update gamma*dt*sum_j <n_j> to O(dt^2) while removing its
step-size bias.

Reproducibility: trajectory k draws from a counter-based Philox stream under
the two-word key (seed, k), and the ensemble reducer accumulates fixed-size
blocks in index order, so results are independent of execution order and
identical between serial and parallel drivers.
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

_BLOCK = 256


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

    def n_steps(self) -> int:
        steps = round(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"t_final = {self.t_final} is not a multiple of dt = {self.dt}"
            )
        return steps


def _philox(seed: int, k: int) -> np.random.Generator:
    # Two-word key: XORing the seed with the index would only permute one
    # run's key set into another's, making different seeds share streams.
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
    )


def run_ensemble(psi0, spec: LatticeSpec, cfg: TrajectoryConfig, times) -> list[DensityMatrix]:
    """Average |psi_k(t)><psi_k(t)| over cfg.n_traj dephasing trajectories.

    ``times`` must lie on the dt grid.  Deterministic given cfg.seed;
    trajectory k consumes only its own Philox stream (two uniforms per step:
    jump decision and jump-site selection), so the result does not depend on
    block or execution order.
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
    checkpoints: dict[int, list[int]] = {}
    for idx, k in enumerate(steps_of):
        checkpoints.setdefault(k, []).append(idx)

    L = spec.L
    H_eff = build_effective_dephasing(spec).entries
    E = sla.expm(-1j * H_eff * cfg.dt)

    sums = [np.zeros((L, L), dtype=complex) for _ in times]

    for start in range(0, cfg.n_traj, _BLOCK):
        block = min(_BLOCK, cfg.n_traj - start)
        # Two uniforms per step per trajectory, drawn up front from the
        # per-trajectory streams so the consumption pattern is fixed.
        u_jump = np.empty((block, n_steps))
        u_site = np.empty((block, n_steps))
        for b in range(block):
            u = _philox(cfg.seed, start + b).random((2, n_steps))
            u_jump[b] = u[0]
            u_site[b] = u[1]

        psi = np.tile(psi0[:, np.newaxis], (1, block))
        if 0 in checkpoints:
            for idx in checkpoints[0]:
                sums[idx] += block * np.outer(psi0, psi0.conj())

        for s in range(n_steps):
            pre = psi  # jump weights and phases come from the pre-step state
            prob = np.abs(pre) ** 2  # columns sum to 1
            phi = E @ pre
            q = np.einsum("ij,ij->j", phi.conj(), phi).real
            if np.any(q < NORM_COLLAPSE_FLOOR):
                b = int(np.argmin(q))
                raise NormCollapse(
                    f"trajectory {start + b}: norm^2 = {q[b]:.3e} at step {s}"
                )
            dp = 1.0 - q
            psi = phi / np.sqrt(q)[np.newaxis, :]

            jumpers = np.flatnonzero(u_jump[:, s] < dp)
            if jumpers.size:
                # Cumulative selection with one uniform per jumper; sites of
                # zero weight can never be the first to exceed the draw.
                cum = np.cumsum(prob[:, jumpers], axis=0)
                r = u_site[jumpers, s] * cum[-1]
                sites = (cum > r[np.newaxis, :]).argmax(axis=0)
                amps = pre[sites, jumpers]
                cols = np.zeros((L, jumpers.size), dtype=complex)
                cols[sites, np.arange(jumpers.size)] = amps / np.abs(amps)
                psi[:, jumpers] = cols

            if (s + 1) in checkpoints:
                for idx in checkpoints[s + 1]:
                    sums[idx] += psi @ psi.conj().T

    return [DensityMatrix((S + S.conj().T) / (2.0 * cfg.n_traj)) for S in sums]

