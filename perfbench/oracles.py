"""Correctness oracles for the benchmark, run outside the timed region.

Every oracle recomputes its reference with numpy/scipy directly from the
config; none calls into starkprobe.  ``reference(cfg)`` does the expensive
part once per run, ``check(cfg, tables, ref)`` compares a run's CSV tables
with it and returns the failures, and ``perturbations(cfg, tables)`` yields
corrupted copies of the tables that ``check`` must reject (the oracles' own
self-test).

- lindblad-sweep: QFI of the smallest-L series at t = t_max against a dense
  augmented exponential expm([[G, dG/dh], [0, G]] t), dG/dh = -i(1 x D - D x 1),
  which gives rho and drho/dh exactly (rel 1e-3; the program's
  finite-difference error is ~2.6e-4 at worst on these bands).
- traj-validate: trace distance to the exact state below 0.05 at every time.
- hn-dynamic: the spectral-route QFI against an independent stepped-route
  computation (renormalized short-step exponentials) at rel 1e-6.
- hn-static: the refined maximum is interior to the grid and not below it.
- uni-static: the closed-form QFI 4 Var_p(k) / h^2 of the unidirectional
  eigenvector c_k ~ (J/h)^k / k! at rel 1e-3.
- every experiment: the expected row counts, every numeric cell finite and
  >= 0.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import scipy.linalg as sla

DEPHASING_RTOL = 1e-3
TRAJECTORY_MAX_DISTANCE = 0.05
ROUTE_RTOL = 1e-6
CLOSED_FORM_RTOL = 1e-3
SLD_WEIGHT_THRESHOLD = 1e-12


def _time_grid(t_max, dt):
    return dt * np.arange(1, int(round(t_max / dt)) + 1)


def _step(h):
    return max(1e-6, 1e-4 * abs(h))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def dephasing_qfi_exact(L, gamma, h, t, J=1.0):
    """Mixed-state QFI at time t from a dense augmented exponential."""
    j = np.arange(1, L + 1, dtype=float)
    H = np.diag(h * j) + J * (np.eye(L, k=1) + np.eye(L, k=-1))
    I = np.eye(L)
    # Columnwise vec: entry a + L*b holds rho[a, b].
    a_idx = np.tile(np.arange(L), L)
    b_idx = np.repeat(np.arange(L), L)
    G = -1j * (np.kron(I, H) - np.kron(H.T, I))
    G = G - gamma * np.diag((a_idx != b_idx).astype(float))
    dG = np.diag(-1j * (j[a_idx] - j[b_idx]))
    n = L * L
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    A[:n, :n] = G
    A[:n, n:] = dG
    A[n:, n:] = G
    E = sla.expm(A * t)
    site = (L + 1) // 2 - 1
    v0 = np.zeros(n, dtype=complex)
    v0[site + L * site] = 1.0
    rho = (E[:n, :n] @ v0).reshape((L, L), order="F")
    drho = (E[:n, n:] @ v0).reshape((L, L), order="F")
    rho = (rho + rho.conj().T) / 2.0
    drho = (drho + drho.conj().T) / 2.0
    p, V = np.linalg.eigh(rho)
    M = V.conj().T @ drho @ V
    w = p[:, None] + p[None, :]
    keep = w > SLD_WEIGHT_THRESHOLD
    return float((2.0 * np.abs(M[keep]) ** 2 / w[keep]).sum())


def hn_stepped_qfi(L, gamma, h, times, J=1.0):
    """Pure-state QFI of the normalized Hatano-Nelson evolution, stepped route."""
    mu = math.asinh(gamma)
    j = np.arange(1, L + 1, dtype=float)
    dt = float(times[1] - times[0])
    psi0 = np.zeros(L, dtype=complex)
    psi0[(L + 1) // 2 - 1] = 1.0

    def states(hp):
        H = np.diag(hp * j) + J * math.exp(mu) * np.eye(L, k=1) \
            + J * math.exp(-mu) * np.eye(L, k=-1)
        E = sla.expm(-1j * H * dt)
        out = np.empty((times.size, L), dtype=complex)
        psi = psi0
        for i in range(times.size):
            psi = E @ psi
            psi = psi / np.linalg.norm(psi)
            out[i] = psi
        return out

    delta = _step(h)
    base, plus, minus = states(h), states(h + delta), states(h - delta)

    def aligned(block):
        z = np.einsum("ij,ij->i", base.conj(), block)
        return block * (np.conj(z) / np.abs(z))[:, None]

    der = (aligned(plus) - aligned(minus)) / (2.0 * delta)
    grad = np.einsum("ij,ij->i", der.conj(), der).real
    overlap = np.einsum("ij,ij->i", der.conj(), base)
    return 4.0 * (grad - np.abs(overlap) ** 2)


def unidirectional_qfi_exact(L, n, h, J=1.0):
    """4 Var_p(k) / h^2 with p_j ~ c_j^2, c_j = (J/h)^k / k!, k = n - j."""
    k = np.arange(n, -1, -1, dtype=float)  # k for j = 0..n
    log_c = k * math.log(J / h) - np.array([math.lgamma(x + 1.0) for x in k])
    p = np.exp(2.0 * (log_c - log_c.max()))
    p /= p.sum()
    mean = float((p * k).sum())
    return 4.0 * float((p * (k - mean) ** 2).sum()) / h ** 2


def reference(cfg):
    """Expensive reference values for one config (computed once per run)."""
    exp, p = cfg["experiment"], cfg["params"]
    if exp == "lindblad-sweep":
        L = min(p["L"])
        return {(g, h): dephasing_qfi_exact(L, g, h, p["t_max"])
                for g in p["gamma"] for h in p["h"]}
    if exp == "hn-dynamic":
        times = _time_grid(p["t_max"], p["dt"])
        return {(L, h): hn_stepped_qfi(L, p["gamma"], h, times)
                for L in p["L"] for h in p["h"]}
    return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _expected_rows(cfg):
    exp, p = cfg["experiment"], cfg["params"]
    if exp == "lindblad-sweep":
        n = len(p["L"]) * len(p["gamma"]) * len(p["h"])
        return {"lindblad_sweep": n * len(_time_grid(p["t_max"], p["dt"]))}
    if exp == "traj-validate":
        return {"traj_validate": len(p["times"])}
    if exp == "hn-static":
        n = len(p["L"]) * len(p["gamma"])
        return {"hn_static": n * p["h_grid"]["n"], "hn_static_maxima": n}
    if exp == "uni-static":
        n = len(p["L"]) * len(p["states"])
        return {"uni_static": n * p["h_grid"]["n"], "uni_static_maxima": n}
    if exp in ("hn-dynamic", "uni-dynamic"):
        n = len(p["L"]) * len(p["h"])
        table = exp.replace("-", "_")
        return {table: n * len(_time_grid(p["t_max"], p["dt"])),
                table + "_maxima": n}
    raise ValueError(f"no oracle for experiment {exp!r}")


def _common(cfg, tables):
    failures = []
    expected = _expected_rows(cfg)
    if sorted(tables) != sorted(expected):
        failures.append(f"tables {sorted(tables)}, expected {sorted(expected)}")
    for name, count in expected.items():
        rows = tables.get(name, [])
        if len(rows) != count:
            failures.append(f"{name}: {len(rows)} rows, expected {count}")
        for i, row in enumerate(rows):
            for key, value in row.items():
                if isinstance(value, float) and not (math.isfinite(value) and value >= 0.0):
                    failures.append(f"{name} row {i}: {key} = {value}")
    return failures


def _check_lindblad(cfg, tables, ref):
    p = cfg["params"]
    L, t = min(p["L"]), p["t_max"]
    failures = []
    for (g, h), exact in ref.items():
        rows = [r for r in tables.get("lindblad_sweep", [])
                if r["L"] == L and r["gamma"] == g and r["h"] == h
                and abs(r["t"] - t) < 1e-9]
        if len(rows) != 1:
            failures.append(f"lindblad L={L} h={h} t={t}: {len(rows)} rows")
        elif not _rel(rows[0]["fq"], exact) <= DEPHASING_RTOL:
            failures.append(f"lindblad L={L} h={h} t={t}: fq {rows[0]['fq']!r} vs "
                            f"augmented-expm {exact!r}")
    return failures


def _check_trajectory(cfg, tables, ref):
    return [f"traj t={r['t']}: trace distance {r['trace_distance']!r}"
            for r in tables.get("traj_validate", [])
            if not r["trace_distance"] < TRAJECTORY_MAX_DISTANCE]


def _check_hn_dynamic(cfg, tables, ref):
    failures = []
    for (L, h), exact in ref.items():
        fq = np.array([r["fq"] for r in tables.get("hn_dynamic", [])
                       if r["L"] == L and r["h"] == h])
        if fq.shape != exact.shape:
            failures.append(f"hn-dynamic L={L} h={h}: {fq.size} rows")
            continue
        err = float(np.max(np.abs(fq - exact) / np.maximum(np.abs(exact), 1e-300)))
        if not err <= ROUTE_RTOL:
            failures.append(f"hn-dynamic L={L} h={h}: spectral vs stepped rel {err:.3e}")
    return failures


def _check_hn_static(cfg, tables, ref):
    failures = []
    for m in tables.get("hn_static_maxima", []):
        curve = [r for r in tables.get("hn_static", [])
                 if r["L"] == m["L"] and r["gamma"] == m["gamma"]]
        hs = [r["h"] for r in curve]
        if not curve or not min(hs) < m["h_max"] < max(hs):
            failures.append(f"hn-static L={m['L']}: h_max {m['h_max']!r} not interior")
        elif not m["fq_max"] >= max(r["fq"] for r in curve):
            failures.append(f"hn-static L={m['L']}: fq_max below the grid maximum")
    return failures


def _check_uni_static(cfg, tables, ref):
    failures = []
    for r in tables.get("uni_static", []):
        if not (0 <= r["state_index"] < r["L"] and r["h"] > 0):
            failures.append(f"uni-static: state {r['state_index']!r} at h={r['h']!r}")
            continue
        exact = unidirectional_qfi_exact(r["L"], int(r["state_index"]), r["h"])
        if not _rel(r["fq"], exact) <= CLOSED_FORM_RTOL:
            failures.append(f"uni-static n={r['state_index']} h={r['h']}: fq "
                            f"{r['fq']!r} vs closed form {exact!r}")
    return failures


_CHECKS = {
    "lindblad-sweep": _check_lindblad,
    "traj-validate": _check_trajectory,
    "hn-dynamic": _check_hn_dynamic,
    "hn-static": _check_hn_static,
    "uni-static": _check_uni_static,
}


def check(cfg, tables, ref):
    """Failures of one run's CSV tables against the oracles (empty when correct)."""
    failures = _common(cfg, tables)
    specific = _CHECKS.get(cfg["experiment"])
    if specific is not None:
        failures += specific(cfg, tables, ref)
    return failures


# ---------------------------------------------------------------------------
# Oracle self-test: corrupted results must be rejected
# ---------------------------------------------------------------------------

def _corrupt(tables, table, pick, key, fn):
    out = copy.deepcopy(tables)
    rows = [r for r in out[table] if pick(r)]
    rows[0][key] = fn(rows[0][key])
    return out


def perturbations(cfg, tables):
    """(label, corrupted tables) pairs that ``check`` must reject."""
    exp, p = cfg["experiment"], cfg["params"]
    first = next(iter(tables))
    # The result columns come last in every row.
    numeric = [k for k, v in tables[first][0].items() if isinstance(v, float)][-1]
    every = lambda r: True
    out = [
        ("negative value", _corrupt(tables, first, every, numeric, lambda v: -1.0)),
        ("nan value", _corrupt(tables, first, every, numeric, lambda v: math.nan)),
        ("missing row", {**tables, first: tables[first][:-1]}),
    ]
    if exp == "lindblad-sweep":
        L, t = min(p["L"]), p["t_max"]
        pick = lambda r: r["L"] == L and abs(r["t"] - t) < 1e-9
        out.append(("fq +1%", _corrupt(tables, "lindblad_sweep", pick, "fq",
                                       lambda v: v * 1.01)))
    elif exp == "traj-validate":
        out.append(("trace distance +0.05", _corrupt(
            tables, "traj_validate", every, "trace_distance", lambda v: v + 0.05)))
    elif exp == "hn-dynamic":
        pick = lambda r: r["t"] == p["t_max"]
        out.append(("fq +1e-5", _corrupt(tables, "hn_dynamic", pick, "fq",
                                         lambda v: v * (1.0 + 1e-5))))
    elif exp == "hn-static":
        lo = min(r["h"] for r in tables["hn_static"])
        out.append(("h_max at the grid edge", _corrupt(
            tables, "hn_static_maxima", every, "h_max", lambda v: lo)))
    elif exp == "uni-static":
        out.append(("fq +1%", _corrupt(tables, "uni_static", every, "fq",
                                       lambda v: v * 1.01)))
    return out
