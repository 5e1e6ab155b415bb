"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the stated tolerance.  Heavy sweeps are shared through
module-scoped fixtures; everything is deterministic except the seeded
trajectory ensembles.  The whole module took 167 s on a 2-core machine
(Python 3.11, numpy 2.4, OpenBLAS), dominated by the L = 40 Liouvillian
sweeps.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from starkprobe.analysis import (
    localized_collapse_check,
    peak_qfi_over_t2,
    short_time_alpha,
    size_scaling_beta,
    skin_localization_metric,
    transition_point,
)
from starkprobe.experiments import (
    lindblad_qfi_series,
    nh_qfi_series,
    run_table1,
    static_qfi_scan,
    unitary_qfi_series,
)
from starkprobe.lindblad import DensityMatrix, propagate, trace_distance
from starkprobe.metrology import cfi, default_step, qfi_mixed, qfi_pure, state_derivative
from starkprobe.model import (
    LatticeSpec,
    build_effective_dephasing,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    gaussian_packet,
    middle_site,
    site_state,
)
from starkprobe.nh import evolve_nh_density, evolve_nh_grid
from starkprobe.spectral import (
    eig_biorthogonal,
    eig_hermitian,
    unidirectional_eigvec_normalized,
)
from starkprobe.trajectory import TrajectoryConfig, run_ensemble

# Minutes of sweeps: `pytest -m "not slow"` runs the unit suite without them.
pytestmark = pytest.mark.slow


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {number:>2}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} ({description}){suffix}"


# --------------------------------------------------------------------------
# 1. Noiseless short-time exponent
# --------------------------------------------------------------------------

def test_criterion_1_short_time_alpha():
    spec = LatticeSpec(40, 1.0, 0.05, 0.0)
    times = np.linspace(0.05, 1.2, 47)
    series = unitary_qfi_series(spec, times)
    fit = short_time_alpha(series, window=(0.1, 1.0))
    ok = abs(fit.exponent - 4.0) <= 0.1
    report(1, "noiseless short-time exponent alpha = 4.0 +/- 0.1", ok,
           f"alpha = {fit.exponent:.4f}, r2 = {fit.r_squared:.6f}")


# --------------------------------------------------------------------------
# 2. Dephasing size-scaling
# --------------------------------------------------------------------------

EXTENDED_SIZES = [16, 24, 32, 40]
DEPHASING_GAMMAS = [0.005, 0.01, 0.02, 0.05]


@pytest.fixture(scope="module")
def dephasing_scaling():
    times = np.arange(1.0, 101.0, 1.0)
    betas = {}
    for gamma in DEPHASING_GAMMAS:
        peaks = []
        for L in EXTENDED_SIZES:
            series = lindblad_qfi_series(LatticeSpec(L, 1.0, 0.05, gamma), times)
            peaks.append(peak_qfi_over_t2(series)[1])
        betas[gamma] = size_scaling_beta(EXTENDED_SIZES, peaks).exponent
    localized_peaks = []
    for L in EXTENDED_SIZES:
        series = lindblad_qfi_series(LatticeSpec(L, 1.0, 0.3, 0.02), times)
        localized_peaks.append(peak_qfi_over_t2(series)[1])
    beta_localized = size_scaling_beta(EXTENDED_SIZES, localized_peaks).exponent
    return betas, beta_localized


def test_criterion_2_dephasing_size_scaling(dephasing_scaling):
    betas, beta_localized = dephasing_scaling
    ordered = [betas[g] for g in DEPHASING_GAMMAS]
    near_heisenberg = abs(ordered[0] - 2.0) <= 0.2
    monotone = all(a > b for a, b in zip(ordered, ordered[1:]))
    localized_standard = beta_localized < 1.0
    detail = (f"beta(gamma) = {', '.join(f'{g}: {b:.3f}' for g, b in betas.items())}; "
              f"localized beta = {beta_localized:.3f}")
    report(2, "extended beta = 2.0 +/- 0.2 at gamma -> 0+, decreasing in gamma; "
              "localized beta < 1", near_heisenberg and monotone and localized_standard,
           detail)


# --------------------------------------------------------------------------
# 3 + 4. Localized-phase collapse and transition points (shared sweep)
# --------------------------------------------------------------------------

COLLAPSE_SIZES = [20, 30, 40]
COLLAPSE_GRID = np.geomspace(0.1, 1.1, 16)


@pytest.fixture(scope="module")
def localized_sweep():
    t_report = 100.0
    curves = {}
    for L in COLLAPSE_SIZES:
        values = []
        for h in COLLAPSE_GRID:
            series = lindblad_qfi_series(
                LatticeSpec(L, 1.0, float(h), 0.02), np.array([t_report]))
            values.append(series.values[0] / t_report**2)
        curves[L] = np.array(values)
    return curves


def test_criterion_3_localized_collapse(localized_sweep):
    h_c = transition_point(COLLAPSE_GRID, localized_sweep)
    knee = max(h_c.values())
    exponent, spread = localized_collapse_check(
        COLLAPSE_GRID, localized_sweep, h_c=knee)
    ok = abs(exponent + 2.0) <= 0.2 and spread < 0.10
    report(3, "F/t^2 falls as 1/h^2 beyond the transition with <10% size spread",
           ok, f"exponent = {exponent:.3f}, spread = {spread:.3%} beyond h = {knee:.3f}")


def test_criterion_4_transition_point(localized_sweep):
    h_c = transition_point(COLLAPSE_GRID, localized_sweep)
    ratios = {L: h_c[L] * L / 8.0 for L in COLLAPSE_SIZES}
    within_30 = all(abs(r - 1.0) <= 0.3 for r in ratios.values())
    products = [h_c[L] * L for L in COLLAPSE_SIZES]
    product_spread = (max(products) - min(products)) / np.mean(products)
    ok = within_30 and product_spread <= 0.4  # +/- 20% around the mean
    detail = (f"h_c = {', '.join(f'{L}: {h_c[L]:.3f}' for L in COLLAPSE_SIZES)}; "
              f"h_c*L/8 = {', '.join(f'{r:.3f}' for r in ratios.values())}; "
              f"h_c*L spread = {product_spread:.1%}")
    report(4, "h_c within 30% of 8J/L and h_c*L constant to +/- 20%", ok, detail)


# --------------------------------------------------------------------------
# 5. Trajectory vs Liouvillian oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_5_trajectory_oracle():
    spec = LatticeSpec(10, 1.0, 0.05, 0.02)
    psi0 = site_state(10, middle_site(10))
    times = [10.0, 25.0, 50.0]
    exact = propagate(DensityMatrix.from_pure(psi0), spec, times)

    def distances(n_traj):
        cfg = TrajectoryConfig(dt=0.02, t_final=50.0, n_traj=n_traj, seed=2024)
        ens = run_ensemble(psi0, spec, cfg, times)
        return np.array([trace_distance(a, b) for a, b in zip(ens, exact)])

    d_full = distances(5000)
    d_half = distances(2500)
    within = bool(np.all(d_full < 0.05))
    inflation = float(np.mean(d_half) / np.mean(d_full))
    rough_sqrt2 = 1.05 <= inflation <= 2.2
    detail = (f"trace distances at tJ=10/25/50: "
              f"{', '.join(f'{d:.4f}' for d in d_full)}; "
              f"halving N inflates mean deviation x{inflation:.2f}")
    report(5, "N=5000 ensemble within 0.05 of exact propagation; "
              "halving N roughly sqrt(2)-inflates the deviation",
           within and rough_sqrt2, detail)


# --------------------------------------------------------------------------
# 6. Effective-Hamiltonian identity
# --------------------------------------------------------------------------

def test_criterion_6_effective_hamiltonian_identity():
    spec = LatticeSpec(40, 1.0, 0.05, 0.02)
    psi0 = site_state(40, middle_site(40))
    t = 50.0
    raw = sla.expm(-1j * build_effective_dephasing(spec) * t) @ psi0
    no_jump = raw / np.linalg.norm(raw)
    unitary = sla.expm(-1j * build_stark(spec) * t) @ psi0
    deficit = 1.0 - abs(np.vdot(unitary, no_jump)) ** 2
    ok = deficit < 1e-10
    report(6, "normalized no-jump evolution equals unitary evolution at tJ=50",
           ok, f"fidelity deficit = {deficit:.2e}")


# --------------------------------------------------------------------------
# 7. Hatano-Nelson statics
# --------------------------------------------------------------------------

HN_STATIC_GRID = np.geomspace(3e-6, 1e-3, 25)


def test_criterion_7a_skin_effect():
    spec = LatticeSpec(100, 1.0, 0.0, 0.05)
    system = eig_biorthogonal(build_hatano_nelson(spec))
    coms = []
    for n in range(spec.L):
        v = system.right_vectors[:, n]
        coms.append(skin_localization_metric(v / np.linalg.norm(v))[1])
    ok = max(coms) < spec.L / 4
    report(7, "(a) every eigenstate center of mass < L/4 at h=0, gamma=0.05",
           ok, f"max CoM = {max(coms):.2f} of {spec.L / 4:.0f}")


def test_criterion_7b_qfi_peak_location_monotone_in_gamma():
    # The probe is the spectral extremum where the gradient competes with
    # the skin effect (top index under the ascending site gauge).
    h_maxes = {}
    interior = True
    for gamma in (0.02, 0.05, 0.1):
        spec = LatticeSpec(100, 1.0, 0.0, gamma)
        values, h_max, _ = static_qfi_scan("hatano-nelson", spec, HN_STATIC_GRID)
        argmax = int(np.argmax(values))
        interior &= 0 < argmax < HN_STATIC_GRID.size - 1
        h_maxes[gamma] = h_max
    monotone = h_maxes[0.02] < h_maxes[0.05] < h_maxes[0.1]
    detail = ", ".join(f"gamma {g}: h_max = {h:.3e}" for g, h in h_maxes.items())
    report(7, "(b) interior QFI maximum with h_max increasing in gamma",
           interior and monotone, detail)


def test_criterion_7c_static_scaling_beta():
    sizes = [60, 80, 100, 120, 140]
    peaks = []
    for L in sizes:
        spec = LatticeSpec(L, 1.0, 0.0, 0.05)
        _, _, fq_max = static_qfi_scan("hatano-nelson", spec, HN_STATIC_GRID)
        peaks.append(fq_max)
    fit = size_scaling_beta(sizes, peaks)
    ok = fit.exponent > 2.0
    report(7, "(c) maximal QFI scales with beta > 2 at gamma=0.05",
           ok, f"beta = {fit.exponent:.3f}, r2 = {fit.r_squared:.4f}")


# --------------------------------------------------------------------------
# 8. Unidirectional statics
# --------------------------------------------------------------------------

def test_criterion_8_unidirectional_statics():
    # exact ladder spectrum
    spec = LatticeSpec(40, 1.0, 0.07)
    w = np.sort(sla.eigvals(build_unidirectional(spec)).real)
    ladder_err = float(np.abs(w - spec.h * np.arange(1, 41)).max())
    ladder_ok = ladder_err < 1e-12

    # closed form against the general eigensolver at J/h = 20
    cf_spec = LatticeSpec(30, 1.0, 0.05)
    H = build_unidirectional(cf_spec)
    vals, vecs = sla.eig(H)
    order = np.argsort(vals.real)
    vecs = vecs[:, order]
    worst = 0.0
    for n in (5, 15, 29):
        u = vecs[:, n]
        u = u / u[np.argmax(np.abs(u))]
        v = unidirectional_eigvec_normalized(n, cf_spec)
        v = v / v[np.argmax(np.abs(v))]
        worst = max(worst, float(np.abs(u - v).max()))
    closed_ok = worst < 1e-8

    # size scaling of the maximal eigenstate QFI
    sizes = [100, 200, 300, 400]
    grid = np.geomspace(5e-4, 0.1, 48)
    peaks = []
    for L in sizes:
        _, _, fq_max = static_qfi_scan(
            "unidirectional", LatticeSpec(L, 1.0, 0.0, 0.0), grid)
        peaks.append(fq_max)
    fit = size_scaling_beta(sizes, peaks)
    beta_ok = fit.exponent > 3.0

    ok = ladder_ok and closed_ok and beta_ok
    report(8, "ladder spectrum exact, closed form matches solver at J/h<=20, "
              "static beta > 3",
           ok, f"ladder err = {ladder_err:.1e}, eigvec mismatch = {worst:.1e}, "
               f"beta = {fit.exponent:.3f} (r2 = {fit.r_squared:.4f})")


# --------------------------------------------------------------------------
# 9. Bloch revival
# --------------------------------------------------------------------------

def test_criterion_9_bloch_revival():
    spec = LatticeSpec(100, 1.0, 0.1, 0.0)
    period = 2 * np.pi / spec.h
    steps_per_period = 128
    dt = period / steps_per_period
    times = dt * np.arange(1, 4 * steps_per_period + 1)
    states = evolve_nh_grid(gaussian_packet(100, 2.0), build_unidirectional(spec), times)
    fidelities = [
        abs(np.vdot(states[i], states[i + steps_per_period])) ** 2
        for i in range(3 * steps_per_period)
    ]
    worst = min(fidelities)
    ok = worst > 0.99
    report(9, "revival fidelity > 0.99 across three periods T = 2 pi / h",
           ok, f"min fidelity = {worst:.6f}")


# --------------------------------------------------------------------------
# 10. Dynamic non-Hermitian scaling
# --------------------------------------------------------------------------

def test_criterion_10_dynamic_scaling():
    sizes = [60, 80, 100, 120]

    hn_peaks = []
    times = np.arange(0.5, 150.0001, 0.5)
    for L in sizes:
        series = nh_qfi_series("hatano-nelson", LatticeSpec(L, 1.0, 0.001, 0.05), times)
        hn_peaks.append(peak_qfi_over_t2(series)[1])
    hn_fit = size_scaling_beta(sizes, hn_peaks)

    # Unidirectional Heisenberg scaling needs the packet to cover a fixed
    # lattice fraction; a fixed-width packet saturates below beta = 1
    # (sensitivity report: sigma = 2 gives beta ~ 0.8 on the same sizes).
    uni_peaks = []
    for L in sizes:
        grid = 0.25 * np.arange(1, int(0.6 * L / 0.25) + 1)
        series = nh_qfi_series(
            "unidirectional", LatticeSpec(L, 1.0, 0.001, 0.0), grid,
            psi0=gaussian_packet(L, sigma=L / 10))
        uni_peaks.append(peak_qfi_over_t2(series)[1])
    uni_fit = size_scaling_beta(sizes, uni_peaks)

    ok = hn_fit.exponent > 1.0 and abs(uni_fit.exponent - 2.0) <= 0.3
    report(10, "nonreciprocal beta > 1; unidirectional beta = 2 +/- 0.3 "
               "(packet width L/10)",
           ok, f"hn beta = {hn_fit.exponent:.3f}, uni beta = {uni_fit.exponent:.3f}")


# --------------------------------------------------------------------------
# 11. Signal-to-noise spot checks
# --------------------------------------------------------------------------

def test_criterion_11_snr_table():
    tables = run_table1({}, seed=0, threads=2)
    rows = {(r["formalism"], r["h"]): r for r in tables["table1"]}

    lind = rows[("lindblad", 0.5)]
    uni = rows[("unidirectional", 0.1)]
    hn = rows[("hatano-nelson", 0.1)]

    checks = {
        "lindblad h=0.5 SNR(tJ=10)": (lind["snr_tfixed"], 1016.7, 0.10),
        "unidirectional h=0.1 SNR(t_opt)": (uni["snr_topt"], 70.7, 0.10),
        "unidirectional h=0.1 SNR(tJ=10)": (uni["snr_tfixed"], 70.7, 0.10),
        "hatano-nelson h=0.1 SNR(tJ=10)": (hn["snr_tfixed"], 423.5, 0.15),
    }
    failures = []
    parts = []
    for name, (got, want, tol) in checks.items():
        rel = abs(got - want) / want
        parts.append(f"{name}: {got:.1f} vs {want} ({rel:+.1%})")
        if rel > tol:
            failures.append(name)
    report(11, "Table-style SNR spot checks", not failures, "; ".join(parts))


# --------------------------------------------------------------------------
# 12. Metrology self-consistency
# --------------------------------------------------------------------------

def test_criterion_12_metrology_self_consistency():
    problems = []

    # pure/SLD agreement across an (h, t) grid of evolved probes
    spec = LatticeSpec(12, 1.0, 0.0, 0.0)
    psi0 = site_state(12, 6)
    for h in (0.02, 0.1, 0.4):
        delta = default_step(h)

        def evolved(hp, t=7.0):
            w, V = eig_hermitian(build_stark(spec.with_field(hp)))
            return V @ (np.exp(-1j * w * t) * (V.conj().T @ psi0))

        psi, dpsi, _ = state_derivative(evolved, h, delta=delta)
        fq_pure = qfi_pure(psi, dpsi).value
        rho_of = lambda hp: np.outer(evolved(hp), evolved(hp).conj())
        drho = (rho_of(h + delta) - rho_of(h - delta)) / (2 * delta)
        fq_sld = qfi_mixed(rho_of(h), drho)[0].value
        if abs(fq_sld - fq_pure) > 1e-5 * max(fq_pure, 1.0):
            problems.append(f"pure/SLD mismatch at h={h}")

        # classical information never exceeds the quantum bound
        p_of = lambda hp: np.abs(evolved(hp)) ** 2
        dp = (p_of(h + delta) - p_of(h - delta)) / (2 * delta)
        fc = cfi(p_of(h), dp)
        if fc > fq_pure + 1e-8 * max(fq_pure, 1.0):
            problems.append(f"CFI exceeds QFI at h={h}")

        # global-phase invariance under h-proportional diagonal shifts
        def shifted(hp, t=7.0):
            H = build_stark(spec.with_field(hp)) + 5.0 * hp * np.eye(12)
            return sla.expm(-1j * H * t) @ psi0

        psi_s, dpsi_s, _ = state_derivative(shifted, h, delta=delta)
        fq_shift = qfi_pure(psi_s, dpsi_s).value
        if abs(fq_shift - fq_pure) > 1e-6 * max(fq_pure, 1.0):
            problems.append(f"diagonal-shift variance at h={h}")

    # purity preservation under the trace-preserving NH dynamics
    rng = np.random.default_rng(7)
    for gamma in (0.05, 0.2):
        hn_spec = LatticeSpec(10, 1.0, 0.03, gamma)
        H = build_hatano_nelson(hn_spec)
        raw = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rho0 = DensityMatrix.from_pure(raw)
        for t in (2.0, 10.0, 20.0):
            out = evolve_nh_density(rho0, H, t)
            if abs(out.purity() - 1.0) > 1e-9:
                problems.append(f"purity loss at gamma={gamma}, t={t}")
            if abs(np.trace(out.entries).real - 1.0) > 1e-10:
                problems.append(f"NH trace drift at gamma={gamma}, t={t}")

    # trace preservation along the exact dephasing propagation
    lind_spec = LatticeSpec(12, 1.0, 0.1, 0.05)
    states = propagate(DensityMatrix.from_pure(site_state(12, 6)), lind_spec,
                       np.linspace(1.0, 30.0, 10))
    for dm in states:
        if abs(np.trace(dm.entries).real - 1.0) > 1e-10:
            problems.append("Liouvillian trace drift")

    report(12, "pure/SLD 1e-5, CFI <= QFI, phase invariance 1e-6, purity 1e-9, "
               "trace 1e-10", not problems, "; ".join(problems) or "all checks clean")
