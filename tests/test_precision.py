"""Closed forms of the unidirectional chain against arbitrary-precision references.

mpmath evaluates the eigenvector coefficients (J/h)^k / k! with exact
factorials, and the eigenstate QFI 4 Var_p(k) / h^2 with p ~ c^2 straight
from its definition.  That variance cancels in the reference unless it
carries about 2|log10 h| + 50 digits; 1400 digits cover h = 1e-300.
"""

import mpmath
import numpy as np
import pytest

from starkprobe.experiments import static_qfi_scan
from starkprobe.model import LatticeSpec
from starkprobe.spectral import unidirectional_eigvec_normalized

H_GRID = [1e-300, 1e-12, 1e-6, 1e-3, 0.05, 1.0, 10.0]


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
