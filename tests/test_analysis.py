import numpy as np
import pytest

from starkprobe.analysis import (
    TimeSeries,
    fit_power_law,
    localized_collapse_check,
    peak_qfi_over_t2,
    short_time_alpha,
    size_scaling_beta,
    skin_localization_metric,
    transition_point,
)
from starkprobe.errors import InsufficientPoints, NonPositiveData, PeakAtBoundary
from starkprobe.model import LatticeSpec, build_hatano_nelson
from starkprobe.spectral import eig_biorthogonal


class TestFitPowerLaw:
    def test_exact_square(self):
        x = np.linspace(1.0, 10.0, 20)
        fit = fit_power_law(x, x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_prefactor(self):
        x = np.geomspace(0.5, 50.0, 15)
        fit = fit_power_law(x, 3.0 * x**1.5)
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)

    def test_noisy_quartic(self):
        rng = np.random.default_rng(2024)
        x = np.geomspace(1.0, 100.0, 40)
        y = x**4 * (1.0 + 0.01 * rng.standard_normal(40))
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(4.0, abs=0.05)

    def test_window_restriction_and_determinism(self):
        x = np.linspace(0.5, 20.0, 40)
        y = 2.0 * x**3
        fit = fit_power_law(x, y, window=(1.0, 10.0))
        again = fit_power_law(x, y, window=fit.window)
        assert again.exponent == pytest.approx(fit.exponent, abs=1e-9)

    def test_errors(self):
        with pytest.raises(InsufficientPoints):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
        with pytest.raises(NonPositiveData):
            fit_power_law([1.0, 2.0, 3.0, 4.0], [1.0, -4.0, 9.0, 16.0])


class TestTimeSeries:
    def test_rejects_nan_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])


class TestShortTimeAlpha:
    def test_synthetic_quartic(self):
        t = np.linspace(0.02, 2.0, 100)
        series = TimeSeries(t, 5.0 * t**4)
        fit = short_time_alpha(series)
        assert fit.exponent == pytest.approx(4.0, abs=1e-9)
        assert fit.window == (0.1, 1.0)

    def test_window_outside_range(self):
        series = TimeSeries(np.linspace(0.5, 2.0, 10), np.ones(10))
        with pytest.raises(ValueError):
            short_time_alpha(series)


class TestPeak:
    def test_monotone_is_boundary(self):
        t = np.linspace(0.1, 10.0, 50)
        series = TimeSeries(t, t**2 * np.exp(-t))  # F/t^2 = e^-t, monotone
        with pytest.raises(PeakAtBoundary):
            peak_qfi_over_t2(series)

    def test_gaussian_bump(self):
        t = np.linspace(0.5, 10.0, 96)
        series = TimeSeries(t, t**2 * np.exp(-((t - 5.0) ** 2)))
        t_opt, peak = peak_qfi_over_t2(series)
        assert t_opt == pytest.approx(5.0, abs=0.01)
        assert peak == pytest.approx(1.0, abs=0.01)

    def test_refinement_beats_grid(self):
        t = np.linspace(0.5, 10.0, 25)  # coarse grid, peak off-grid
        center = 5.13
        series = TimeSeries(t, t**2 * np.exp(-((t - center) ** 2)))
        t_opt, _ = peak_qfi_over_t2(series)
        grid_best = t[np.argmax(series.values / t**2)]
        assert abs(t_opt - center) < abs(grid_best - center)


class TestSizeScaling:
    def test_clean_power_law(self):
        L = np.array([16, 24, 32, 40])
        fit = size_scaling_beta(L, 0.7 * L**2.0)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)

    def test_subset_determinism(self):
        L = np.array([10, 20, 30, 40, 50, 60])
        peaks = 1.3 * L**1.7
        full = size_scaling_beta(L, peaks)
        subset = size_scaling_beta(L[:4], peaks[:4])
        assert subset.exponent == pytest.approx(full.exponent, abs=1e-9)

    def test_needs_four_sizes(self):
        with pytest.raises(InsufficientPoints):
            size_scaling_beta([10, 20, 30], [1.0, 2.0, 3.0])


def synthetic_knee_curves(h, Ls, c=2.0):
    """Plateau ~ L^2 below 8/L, then the shared c/h^2 tail."""
    curves = {}
    for L in Ls:
        knee = 8.0 / L
        plateau = c / knee**2
        curves[L] = np.where(h < knee, plateau, c / h**2)
    return curves


class TestLocalizedCollapse:
    def test_pure_inverse_square(self):
        h = np.geomspace(0.05, 1.0, 25)
        curves = {L: 3.0 / h**2 for L in (20, 30, 40)}
        exponent, spread = localized_collapse_check(h, curves)
        assert exponent == pytest.approx(-2.0, abs=1e-9)
        assert spread < 1e-12

    def test_knee_family(self):
        h = np.geomspace(0.05, 1.2, 40)
        curves = synthetic_knee_curves(h, (20, 30, 40))
        exponent, spread = localized_collapse_check(h, curves)
        assert exponent == pytest.approx(-2.0, abs=0.05)
        assert spread < 0.01

    def test_grid_must_cross(self):
        h = np.geomspace(0.01, 0.1, 10)  # all below 8/40 = 0.2
        curves = {L: np.ones(10) for L in (20, 40)}
        with pytest.raises(ValueError):
            localized_collapse_check(h, curves)


class TestTransitionPoint:
    def test_recovers_knee_within_one_step(self):
        h = np.geomspace(0.05, 1.2, 48)
        Ls = (20, 30, 40)
        curves = synthetic_knee_curves(h, Ls)
        out = transition_point(h, curves)
        step = h[1] / h[0]
        for L in Ls:
            knee = 8.0 / L
            assert out[L] <= knee * step * 1.0001
            assert out[L] >= knee / step**2

    def test_inverse_size_scaling(self):
        h = np.geomspace(0.02, 1.5, 64)
        Ls = (20, 30, 40, 50)
        out = transition_point(h, synthetic_knee_curves(h, Ls))
        fit = np.polyfit(np.log(Ls), np.log([out[L] for L in Ls]), 1)
        assert fit[0] == pytest.approx(-1.0, abs=0.15)

    def test_no_crossing(self):
        h = np.geomspace(0.01, 0.05, 12)
        curves = {20: np.full(12, 10.0), 40: np.full(12, 40.0)}
        with pytest.raises(ValueError):
            transition_point(h, curves)


class TestSkinMetric:
    def test_basis_state(self):
        v = np.zeros(10, dtype=complex)
        v[3] = 1.0
        pr, com = skin_localization_metric(v)
        assert pr == pytest.approx(1.0)
        assert com == pytest.approx(4.0)  # sites are 1-based

    def test_uniform_state(self):
        L = 16
        v = np.ones(L, dtype=complex) / np.sqrt(L)
        pr, com = skin_localization_metric(v)
        assert pr == pytest.approx(L)
        assert com == pytest.approx((L + 1) / 2)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            skin_localization_metric(np.ones(4))

    def test_hatano_nelson_eigenstates_pile_left(self):
        # L must be large against the skin depth 1/(2 mu) = 10 sites here
        spec = LatticeSpec(100, 1.0, 0.0, 0.05)
        system = eig_biorthogonal(build_hatano_nelson(spec))
        for n in range(spec.L):
            v = system.right_vectors[:, n]
            _, com = skin_localization_metric(v / np.linalg.norm(v))
            assert com < spec.L / 4
