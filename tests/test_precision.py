"""Exact references for the pipelines: closed forms and arbitrary precision.

- The unidirectional eigenvectors and eigenstate QFI against mpmath with
  exact factorials.  mpmath evaluates the coefficients (J/h)^k / k! and the
  QFI 4 Var_p(k) / h^2 with p ~ c^2 straight from its definition.  That
  variance cancels in the reference unless it carries about 2|log10 h| + 50
  digits; 1400 digits cover h = 1e-300.
- The Wannier-Stark and Hatano-Nelson dynamics from one site in closed form
  (Bessel functions; Hartmann, Keck, Korsch & Mossmann, New J. Phys. 6, 2
  (2004)), checked against a float64 Van Loan derivative, where an edge
  guard shows that the open chain is still the infinite one.
- The Van Loan derivative (IEEE TAC 23, 395 (1978)): the exponential of the
  augmented generator [[A, dA/dh], [0, A]] holds exp(A t) and its field
  derivative.  Taken in mpmath for the nonreciprocal chains (2L) and the
  dephasing Liouvillian (2L^2), h = 0 included, it checks the float64 one
  to 1e-10 and bounds each finite-difference pipeline.
- Hatano-Nelson eigenpairs at L = 30 from ``mpmath.eig`` at 40 digits, and
  the QFI series at the gauge corner (gamma = 5, h = 3) from the same
  eigenpairs.

Each ``*_RTOL`` constant is the largest relative error a finite-difference
pipeline showed against these references at the tested shapes; an exact
route (ROADMAP items 5-7) tightens it.
"""

import functools

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.special as ss

from starkprobe.experiments import lindblad_qfi_series, nh_qfi_series, static_qfi_scan
from starkprobe.metrology import qfi_mixed
from starkprobe.model import (
    LatticeSpec,
    build_dephasing_ops,
    build_hatano_nelson,
    build_stark,
    build_unidirectional,
    middle_site,
    site_state,
)
from starkprobe.spectral import eig_biorthogonal, unidirectional_eigvec_normalized

H_GRID = [1e-300, 1e-12, 1e-6, 1e-3, 0.05, 1.0, 10.0]

# The open chain matches the infinite one while the weight it would put on
# its nearer edge stays below this.
EDGE_WEIGHT_LIMIT = 1e-14

# Largest relative error of nh_qfi_series("hatano-nelson") against the closed
# form and the mpmath Van Loan reference (measured 6.65e-6 at L = 100,
# h = 0.5, gamma = 0.1).
HN_SERIES_RTOL = 6.7e-6
# The same pipeline at the gauge corner L = 30, gamma = 5, h = 3, up to
# t = 10 (measured 2.10e-5 at t = 8.5; it reaches 2.1e-2 by t = 150).
HN_CORNER_RTOL = 2.1e-5
# nh_qfi_series("unidirectional") against the mpmath Van Loan reference
# (measured 7.91e-8 at L = 12, h = 1).
UNI_SERIES_RTOL = 8.0e-8
# lindblad_qfi_series against the mpmath Van Loan reference (measured 9.39e-8
# at L = 4, h = 1, gamma = 0.1).
LINDBLAD_SERIES_RTOL = 9.4e-8
# Float64 against mpmath where both are exact.
EXACT_RTOL = 1e-10


def _indices(L):
    return [0, 1, L // 2, L - 1]


def reference_coeffs(n, L, h):
    """(J/h)^k / k!, k = n - j, on sites j = 0..L-1 at J = 1 (unnormalized)."""
    x = 1 / mpmath.mpf(h)
    return [x ** (n - j) / mpmath.factorial(n - j) if j <= n else mpmath.mpf(0)
            for j in range(L)]


def reference_qfi(n, h):
    """4 Var_p(k) / h^2 at J = 1, summed term by term."""
    with mpmath.workdps(1400):
        p = [c**2 for c in reference_coeffs(n, n + 1, h)]
        z = mpmath.fsum(p)
        mean = mpmath.fsum(k * pk for k, pk in zip(range(n, -1, -1), p)) / z
        var = mpmath.fsum((k - mean) ** 2 * pk for k, pk in zip(range(n, -1, -1), p)) / z
        return float(4 * var / mpmath.mpf(h) ** 2)


@pytest.mark.parametrize("L", [16, 30])
@pytest.mark.parametrize("joh", [0.1, 1.0, 1e2, 1e3])
def test_eigenvector_matches_exact_factorials(L, joh):
    h = 1.0 / joh
    for n in _indices(L):
        with mpmath.workdps(60):
            c = reference_coeffs(n, L, h)
            norm = mpmath.sqrt(mpmath.fsum(x**2 for x in c))
            ref = np.array([float(x / norm) for x in c])
        v = unidirectional_eigvec_normalized(n, LatticeSpec(L, 1.0, h))
        assert np.all(v.imag == 0.0)
        np.testing.assert_allclose(v.real, ref, rtol=1e-10, atol=1e-300)


@pytest.mark.parametrize("L", [16, 30])
def test_state_qfi_matches_high_precision_variance(L):
    for n in _indices(L):
        values = static_qfi_scan("unidirectional", LatticeSpec(L, 1.0), H_GRID, state_index=n)[0]
        for h, value in zip(H_GRID, values):
            if n == 0:
                assert value == 0.0
            else:
                assert value == pytest.approx(reference_qfi(n, h), rel=1e-10), (n, h)


# ---------------------------------------------------------------------------
# Van Loan derivatives
# ---------------------------------------------------------------------------

def grid(dt, n):
    return dt * np.arange(1, n + 1)


def field_gradient(L):
    """dH/dh = D = diag(1..L) for every chain of the package."""
    return np.diag(np.arange(1.0, L + 1))


def van_loan(A, dA, v0, dt, n):
    """x(t) = exp(A t) v0 and dx/dh on the grid t = dt, ..., n dt, in float64.

    One exponential of the augmented generator [[A, dA], [0, A]] dt, applied
    n times to (0, v0).  Returns two (n, dim) arrays.
    """
    dim = len(v0)
    E = sla.expm(np.block([[A, dA], [np.zeros_like(A), A]]) * dt)
    y = np.concatenate([np.zeros(dim), v0]).astype(complex)
    out = np.empty((n, 2 * dim), dtype=complex)
    for k in range(n):
        y = E @ y
        out[k] = y
    return out[:, dim:], out[:, :dim]


def mp_van_loan(A, dA, v0, dt, n):
    """``van_loan`` with ``mpmath.expm``, at the caller's working precision.

    A and dA are the float64 arrays, taken exactly.  Returns a list of n
    pairs (x, dx) of mpmath vectors.
    """
    dim = len(v0)
    M = mpmath.matrix(2 * dim)
    for i in range(dim):
        for j in range(dim):
            M[i, j] = M[dim + i, dim + j] = mpmath.mpc(complex(A[i, j])) * dt
            M[i, dim + j] = mpmath.mpc(complex(dA[i, j])) * dt
    E = mpmath.expm(M)
    y = mpmath.matrix([0] * dim + [mpmath.mpc(complex(c)) for c in v0])
    out = []
    for _ in range(n):
        y = E * y
        out.append((y[dim:, 0], y[:dim, 0]))
    return out


def pure_qfi(phi, dphi):
    """QFI of phi / ||phi|| from an unnormalized state and its derivative (rows)."""
    norm = np.einsum("ij,ij->i", phi.conj(), phi).real
    grad = np.einsum("ij,ij->i", dphi.conj(), dphi).real
    overlap = np.einsum("ij,ij->i", phi.conj(), dphi)
    return 4.0 * (grad / norm - np.abs(overlap) ** 2 / norm**2)


def mp_pure_qfi(phi, dphi):
    """``pure_qfi`` of one state, in mpmath at the caller's precision."""
    norm = mpmath.fsum(abs(x) ** 2 for x in phi)
    grad = mpmath.fsum(abs(x) ** 2 for x in dphi)
    overlap = mpmath.fsum(mpmath.conj(a) * b for a, b in zip(phi, dphi))
    return float(4 * (grad / norm - abs(overlap) ** 2 / norm**2))


def chain_series(builder, spec, dt, n):
    """Float64 Van Loan QFI of the normalized evolution from the middle site."""
    H = builder(spec)
    psi0 = site_state(spec.L, middle_site(spec.L))
    return pure_qfi(*van_loan(-1j * H, -1j * field_gradient(spec.L), psi0, dt, n))


def max_rel(values, ref):
    return float(np.max(np.abs(np.asarray(values) / np.asarray(ref) - 1.0)))


# ---------------------------------------------------------------------------
# Closed forms (ROADMAP item 9)
# ---------------------------------------------------------------------------

def _chi(spec, t):
    """chi = (4J/h) sin(ht/2) and d chi / dh."""
    J, h = spec.J, spec.h
    s, c = np.sin(h * t / 2.0), np.cos(h * t / 2.0)
    return 4.0 * J / h * s, -4.0 * J / h**2 * s + 2.0 * J * t / h * c


def check_edges(spec, t_max):
    """Refuse a series whose packet reaches an edge of the open chain.

    With k the displacement from the start site m, the infinite chain puts
    the weight J_k(chi)^2 e^{-2 mu k} on site m + k, and |chi| stays below
    min(2Jt, 4J/h).  That weight is taken on the last site on each side.
    """
    m = middle_site(spec.L)
    k = np.array([1 - m, spec.L - m])
    chi = min(2.0 * spec.J * t_max, 4.0 * spec.J / spec.h)
    weight = float(np.max(ss.jv(k, chi) ** 2 * np.exp(-2.0 * spec.mu * k)))
    if weight > EDGE_WEIGHT_LIMIT:
        raise ValueError(f"edge weight {weight:.2e} exceeds {EDGE_WEIGHT_LIMIT:.0e}")


def wannier_stark_qfi(spec, times):
    """F(t) = 2 (d chi/dh)^2 + t^2 chi^2 / 2 from one site of the Stark chain.

    The amplitudes J_k(chi) e^{ik(pi - ht)/2} give it through
    sum J_k'^2 = 1/2, sum k^2 J_k^2 = chi^2 / 2 and sum k J_k^2 = 0.
    """
    times = np.asarray(times, dtype=float)
    check_edges(spec, times.max())
    chi, dchi = _chi(spec, times)
    return 2.0 * dchi**2 + times**2 * chi**2 / 2.0


def hatano_nelson_qfi(spec, times):
    """QFI of psi_k ~ e^{-mu k} J_k(chi) e^{ik(pi - ht)/2}, normalized.

    The Stark amplitudes under the gauge S = diag(e^{-mu j}), which carries
    the Stark chain into the Hatano-Nelson one and does not depend on h.
    """
    times = np.asarray(times, dtype=float)
    check_edges(spec, times.max())
    m = middle_site(spec.L)
    k = np.arange(1 - m, spec.L - m + 1)
    t = times[:, np.newaxis]
    chi, dchi = _chi(spec, t)
    weight = np.exp(-spec.mu * k)
    phase = np.exp(0.5j * k * (np.pi - spec.h * t))
    amp = weight * ss.jv(k, chi)
    phi = amp * phase
    dphi = (weight * ss.jvp(k, chi) * dchi - 0.5j * k * t * amp) * phase
    return pure_qfi(phi, dphi)


# (L, h, gamma, dt, n): criterion 1's short times first.
CLOSED_FORM_SHAPES = [
    (40, 0.05, 0.0, 0.05, 24),
    (60, 0.3, 0.0, 0.5, 40),
    (80, 0.2, 0.0, 0.5, 40),
    (60, 0.3, 0.05, 0.5, 40),
    (100, 0.5, 0.1, 0.5, 40),
]


@pytest.mark.parametrize("L, h, gamma, dt, n", CLOSED_FORM_SHAPES)
def test_closed_forms_match_van_loan(L, h, gamma, dt, n):
    spec = LatticeSpec(L, 1.0, h, gamma)
    ref = chain_series(build_hatano_nelson, spec, dt, n)
    assert max_rel(hatano_nelson_qfi(spec, grid(dt, n)), ref) < 1e-8
    if gamma == 0.0:
        assert max_rel(wannier_stark_qfi(spec, grid(dt, n)), ref) < 1e-8


@pytest.mark.parametrize("L, h, gamma, dt, n", CLOSED_FORM_SHAPES)
def test_hatano_nelson_pipeline_against_closed_form(L, h, gamma, dt, n):
    spec = LatticeSpec(L, 1.0, h, gamma)
    times = grid(dt, n)
    values = nh_qfi_series("hatano-nelson", spec, times).values
    assert max_rel(values, hatano_nelson_qfi(spec, times)) <= HN_SERIES_RTOL


def test_edge_guard_refuses_a_packet_at_the_edge():
    spec = LatticeSpec(100, 1.0, 0.1)
    with pytest.raises(ValueError, match="edge weight"):
        wannier_stark_qfi(spec, grid(0.5, 40))
    with pytest.raises(ValueError, match="edge weight"):
        hatano_nelson_qfi(spec, grid(0.5, 40))


# ---------------------------------------------------------------------------
# Arbitrary-precision Van Loan references (ROADMAP item 4(ii) and 4(iii))
# ---------------------------------------------------------------------------

# kind: (builder, gamma, pipeline bound)
NONRECIPROCAL = {
    "hatano-nelson": (build_hatano_nelson, 0.3, HN_SERIES_RTOL),
    "unidirectional": (build_unidirectional, 0.0, UNI_SERIES_RTOL),
}


@pytest.mark.parametrize("h", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("kind", sorted(NONRECIPROCAL))
def test_nonreciprocal_qfi_against_mpmath_van_loan(kind, h):
    builder, gamma, bound = NONRECIPROCAL[kind]
    spec = LatticeSpec(12, 1.0, h, gamma)
    dt, n = 0.5, 8
    H = builder(spec)
    psi0 = site_state(spec.L, middle_site(spec.L))
    with mpmath.workdps(30):
        ref = np.array([mp_pure_qfi(x, dx) for x, dx in
                        mp_van_loan(-1j * H, -1j * field_gradient(spec.L), psi0, dt, n)])
    assert max_rel(chain_series(builder, spec, dt, n), ref) <= EXACT_RTOL
    if h > 0.0:  # the central difference steps below h = 0 until items 6 and 7
        assert max_rel(nh_qfi_series(kind, spec, grid(dt, n)).values, ref) <= bound


def kronecker_liouvillian(spec):
    """Columnwise generator and its h-derivative, one Kronecker term per jump operator."""
    H, D, I = build_stark(spec), field_gradient(spec.L), np.eye(spec.L)
    gen = -1j * (np.kron(I, H) - np.kron(H.T, I))
    for op in build_dephasing_ops(spec):
        opdop = op.conj().T @ op
        gen = gen + (spec.gamma / 2.0) * (
            2.0 * np.kron(op.conj(), op) - np.kron(I, opdop) - np.kron(opdop.T, I))
    return gen, -1j * (np.kron(I, D) - np.kron(D.T, I))


def mp_mixed_qfi(x, dx, L):
    """tr(drho S) with the SLD S from rho S + S rho = 2 drho, solved in vec space.

    rho_ab is x[a + b L]; row a + b L of the operator holds rho_ac at S_cb
    and rho_cb at S_ac.
    """
    lyap = mpmath.matrix(L * L)
    for a in range(L):
        for b in range(L):
            for c in range(L):
                lyap[a + b * L, c + b * L] += x[a + c * L]
                lyap[a + b * L, a + c * L] += x[c + b * L]
    sld = mpmath.lu_solve(lyap, 2 * dx)
    return float(mpmath.re(mpmath.fsum(mpmath.conj(p) * q for p, q in zip(dx, sld))))


@pytest.mark.slow
@pytest.mark.parametrize("h", [0.0, 0.3, 1.0])
def test_lindblad_qfi_against_mpmath_van_loan(h):
    spec = LatticeSpec(4, 1.0, h, 0.1)
    dt, n = 0.5, 8
    gen, dgen = kronecker_liouvillian(spec)
    psi0 = site_state(spec.L, middle_site(spec.L))
    rho0 = np.outer(psi0, psi0.conj()).flatten(order="F")
    with mpmath.workdps(30):
        ref = np.array([mp_mixed_qfi(x, dx, spec.L) for x, dx in mp_van_loan(gen, dgen, rho0, dt, n)])
    x, dx = van_loan(gen, dgen, rho0, dt, n)
    values = [qfi_mixed(r.reshape((4, 4), order="F"), d.reshape((4, 4), order="F"))[0].value
              for r, d in zip(x, dx)]
    assert max_rel(values, ref) <= EXACT_RTOL
    if h > 0.0:  # the central difference steps below h = 0 until item 5
        assert max_rel(lindblad_qfi_series(spec, grid(dt, n)).values, ref) <= LINDBLAD_SERIES_RTOL


# ---------------------------------------------------------------------------
# Forty-digit eigenpairs and the gauge corner (ROADMAP item 4(i))
# ---------------------------------------------------------------------------

@functools.cache
def mp_hatano_nelson_eig(gamma, h):
    """Eigenvalues and right eigenvectors of the L = 30 chain at 40 digits, by real part.

    Returns (w, R) as mpmath matrices, built from the float64 chain entries.
    """
    H = build_hatano_nelson(LatticeSpec(30, 1.0, h, gamma)).real
    with mpmath.workdps(40):
        w, R = mpmath.eig(mpmath.matrix(H.tolist()))
        order = sorted(range(30), key=lambda i: (mpmath.re(w[i]), mpmath.im(w[i])))
        return ([w[i] for i in order],
                mpmath.matrix([[R[r, i] for i in order] for r in range(30)]))


def phase_fixed(R):
    """Unit columns with the first near-largest entry real and positive, as eig_biorthogonal."""
    out = np.empty((R.rows, R.cols), dtype=complex)
    with mpmath.workdps(40):
        for c in range(R.cols):
            col = R[:, c]
            col = col / mpmath.norm(col)
            mag = [abs(v) for v in col]
            peak = next(i for i, v in enumerate(mag) if v >= (1 - mpmath.mpf("1e-8")) * max(mag))
            out[:, c] = [complex(v * abs(col[peak]) / col[peak]) for v in col]
    return out


# (gamma, h, general-route calls, eigenvalue error, right-vector error): the
# errors of eig_biorthogonal, measured 1.33e-15 and 2.61e-15 at the typical
# point and 2.63e-13 and 1.99e-14 at the corner, rounded up.  The corner
# falls back to the general eigensolver.
EIGENPAIR_CASES = [
    (0.05, 0.1, 0, 2e-15, 3e-15),
    (5.0, 3.0, 1, 3e-13, 3e-14),
]


@pytest.mark.parametrize("gamma, h, general, w_err, r_err", EIGENPAIR_CASES)
def test_eigenpairs_match_forty_digits(monkeypatch, gamma, h, general, w_err, r_err):
    calls, real_eig = [], sla.eig
    monkeypatch.setattr(sla, "eig", lambda *a, **k: calls.append(1) or real_eig(*a, **k))
    system = eig_biorthogonal(build_hatano_nelson(LatticeSpec(30, 1.0, h, gamma)))
    assert len(calls) == general
    w, R = mp_hatano_nelson_eig(gamma, h)
    assert np.abs(system.eigenvalues - np.array([complex(v) for v in w])).max() <= w_err
    assert np.abs(system.right_vectors - phase_fixed(R)).max() <= r_err


def mp_eig_series(gamma, h, times):
    """QFI series from the middle site through the forty-digit eigenpairs.

    exp(-iHt) = R e^{-iwt} R^-1, and its h-derivative is R (Phi o K) R^-1
    with K = R^-1 (-iD) R and Phi_ab = (e_a - e_b) / (-i(w_a - w_b)),
    Phi_aa = t e_a (Daleckii-Krein).
    """
    w, R = mp_hatano_nelson_eig(gamma, h)
    L = len(w)
    m = middle_site(L) - 1
    out = []
    with mpmath.workdps(40):
        Rinv = mpmath.inverse(R)
        y = Rinv[:, m]
        K = -1j * (Rinv * mpmath.diag(list(range(1, L + 1))) * R)
        for t in times:
            t = mpmath.mpf(t)
            e = [mpmath.exp(-1j * v * t) for v in w]
            z = mpmath.matrix(L, 1)
            for a in range(L):
                z[a] = mpmath.fsum((t * e[a] if a == b else (e[a] - e[b]) / (-1j * (w[a] - w[b])))
                                   * K[a, b] * y[b] for b in range(L))
            phi = R * mpmath.matrix([e[a] * y[a] for a in range(L)])
            out.append(mp_pure_qfi(phi, R * z))
    return np.array(out)


def test_gauge_corner_series_against_forty_digits():
    spec = LatticeSpec(30, 1.0, 3.0, 5.0)
    dt, n = 0.5, 20
    ref = mp_eig_series(spec.gamma, spec.h, grid(dt, n))
    assert max_rel(chain_series(build_hatano_nelson, spec, dt, n), ref) <= EXACT_RTOL
    values = nh_qfi_series("hatano-nelson", spec, grid(dt, n)).values
    assert max_rel(values, ref) <= HN_CORNER_RTOL
