import numpy as np
import pytest
import scipy.integrate

from conftest import bump, interior_signal
from evowaves.signals import (
    WeightedGrid,
    WeightedSignal,
    rho_inner,
    rho_norm,
    translate,
    truncate_before,
)
from evowaves.transform import (
    SpectralSignal,
    WindowDecayWarning,
    apply_scalar_symbol,
    assert_padded,
    forward_transform,
    frequencies_for,
    inverse_transform,
    time_antiderivative,
    time_derivative,
    translate_spectral,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def rel_gap(a, b):
    return rho_norm(a.with_values(a.values - b.values)) / rho_norm(b)


class TestForwardInverse:
    def test_zero(self, grid):
        z = WeightedSignal.zeros(grid, 2)
        assert not forward_transform(z).values.any()
        zh = forward_transform(z)
        assert not inverse_transform(zh, grid).values.any()

    def test_direct_sum_oracle(self):
        # small n: compare the fft path against the defining quadrature sum
        grid = WeightedGrid(-1.0, 0.1, 64, 1.0)
        u = interior_signal(grid, dim=2, seed=0)
        got = forward_transform(u)
        t = grid.times
        for k in (0, 17, 40, 63):
            s = got.freqs[k]
            direct = (grid.dt / SQRT_2PI) * np.sum(
                np.exp(-1j * s * t)[:, None] * np.exp(-grid.rho * t)[:, None] * u.values,
                axis=0,
            )
            assert np.abs(direct - got.values[k]).max() < 1e-12 * np.abs(got.values).max()

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 5.0])
    def test_parseval(self, rho):
        grid = WeightedGrid(-2.0, 0.01, 1024, rho)
        u = interior_signal(grid, dim=2, seed=3)
        u_hat = forward_transform(u)
        ds = u_hat.freqs[1] - u_hat.freqs[0]
        lhs = np.sum(np.abs(u_hat.values) ** 2) * ds
        rhs = rho_norm(u) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_unit_pulse_flat_spectrum(self):
        # sample of height 1/dt at t = 0 transforms to modulus 1/sqrt(2 pi)
        grid = WeightedGrid(0.0, 0.02, 256, 1.0)
        vals = np.zeros((256, 1))
        vals[0, 0] = 1.0 / grid.dt
        u_hat = forward_transform(WeightedSignal(grid, vals))
        assert np.allclose(np.abs(u_hat.values), 1.0 / SQRT_2PI, rtol=1e-12)

    def test_round_trip(self, grid):
        u = interior_signal(grid, dim=3, seed=4)
        back = inverse_transform(forward_transform(u), grid)
        assert rel_gap(back, u) < 1e-12

    def test_inverse_linearity(self, grid):
        u_hat = forward_transform(interior_signal(grid, seed=5))
        w_hat = forward_transform(interior_signal(grid, seed=6))
        combo = SpectralSignal(u_hat.freqs, 2.0 * u_hat.values - 1j * w_hat.values, grid.rho)
        lhs = inverse_transform(combo, grid)
        rhs = lhs.with_values(
            2.0 * inverse_transform(u_hat, grid).values
            - 1j * inverse_transform(w_hat, grid).values
        )
        assert rel_gap(lhs, rhs) < 1e-12

    def test_shape_mismatch_rejected(self, grid):
        u_hat = forward_transform(interior_signal(grid, seed=7))
        bad = WeightedGrid(grid.t0, grid.dt, grid.n // 2, grid.rho)
        with pytest.raises(ValueError):
            inverse_transform(u_hat, bad)


class TestDerivative:
    def test_exponential_times_bump(self):
        grid = WeightedGrid(-2.0, 0.01, 1024, 2.0)
        t = grid.times
        lam = 0.7
        center, width = 2.0, 0.5
        base = np.exp(lam * (t - center)) * bump(t, center, width)
        u = WeightedSignal(grid, base[:, None])
        deriv = time_derivative(u)
        exact = (lam - 2.0 * (t - center) / width**2) * base
        inner = slice(grid.n // 10, -grid.n // 10)
        assert np.abs(deriv.values[inner, 0] - exact[inner]).max() < 1e-8

    @pytest.mark.filterwarnings("ignore::evowaves.transform.WindowDecayWarning")
    def test_inverse_pair(self, grid):
        # the antiderivative plateaus at the window end, so the derivative
        # legitimately warns about the missing decay there
        u = interior_signal(grid, seed=9)
        back = time_derivative(time_antiderivative(u))
        assert rel_gap(back, u) < 1e-10

    def test_constant_plateau_interior(self):
        # constant over the plateau of a smooth box: derivative vanishes there
        grid = WeightedGrid(-2.0, 0.01, 1024, 2.0)
        t = grid.times
        box = np.exp(-(((t - 3.0) / 1.5) ** 16))
        deriv = time_derivative(WeightedSignal(grid, box[:, None]))
        plateau = (t > 2.8) & (t < 3.2)
        assert np.abs(deriv.values[plateau, 0]).max() < 1e-8

    def test_undecayed_signal_warns(self):
        grid = WeightedGrid(0.0, 0.02, 512, 1.0)
        u = WeightedSignal(grid, np.ones((512, 1)))
        with pytest.warns(WindowDecayWarning):
            time_derivative(u)

    def test_normality_commutator(self, grid):
        # the derivative and its adjoint (conjugate symbol) commute
        u = interior_signal(grid, seed=10)
        s = frequencies_for(grid)
        fwd = 1j * s + grid.rho
        adj = -1j * s + grid.rho
        a = apply_scalar_symbol(apply_scalar_symbol(u, fwd), adj)
        b = apply_scalar_symbol(apply_scalar_symbol(u, adj), fwd)
        assert rel_gap(a, b) < 1e-10

    def test_derivative_coercivity(self):
        # Re <u | du/dt> >= (rho - eps) |u|^2 for decaying u
        grid = WeightedGrid(-2.0, 0.01, 1024, 2.0)
        u = interior_signal(grid, dim=2, seed=11)
        val = rho_inner(u, time_derivative(u)).real
        assert val >= (grid.rho - 1e-6) * rho_norm(u) ** 2


class TestAntiderivative:
    def test_step_becomes_ramp(self):
        # window sized so the weighted wrap tail stays below the O(dt) target
        grid = WeightedGrid(-4.0, 16.0 / 2047, 2048, 0.5)
        t = grid.times
        u = WeightedSignal(grid, (t >= 0).astype(float)[:, None])
        ramp = time_antiderivative(u)
        exact = np.where(t >= 0, t, 0.0)
        assert np.abs(ramp.values[:, 0] - exact).max() <= 5 * grid.dt

    def test_zero(self, grid):
        z = WeightedSignal.zeros(grid, 1)
        assert not time_antiderivative(z).values.any()

    def test_matches_cumulative_trapezoid(self, grid):
        u = interior_signal(grid, seed=12)
        anti = time_antiderivative(u)
        oracle = scipy.integrate.cumulative_trapezoid(
            u.values[:, 0], grid.times, initial=0.0
        )
        gap = anti.with_values(anti.values[:, 0:1] - oracle[:, None])
        # the trapezoid oracle owns the error here: O(dt^2) per step on a
        # signal with band limit 0.15 * nyquist
        assert rho_norm(gap) < 5e-3 * rho_norm(anti)

    def test_support_preservation(self):
        # kernel is causal: mass before the support start stays tiny
        grid = WeightedGrid(-4.0, 0.01, 2048, 3.0)
        t = grid.times
        u = WeightedSignal(grid, bump(t, 6.0, 0.4)[:, None])
        out = time_antiderivative(u)
        pre = truncate_before(out, 4.0 - grid.dt)
        assert rho_norm(pre) <= 1e-8 * rho_norm(u)


class TestSpectralTranslate:
    def test_zero_shift(self, grid):
        u = interior_signal(grid, seed=13)
        assert rel_gap(translate_spectral(u, 0.0), u) < 1e-13

    def test_matches_time_domain_translate(self, grid):
        u = interior_signal(grid, seed=14)
        h = 16 * grid.dt
        assert rel_gap(translate_spectral(u, h), translate(u, h)) < 1e-10
        assert rel_gap(translate_spectral(u, -h), translate(u, -h)) < 1e-10

    def test_composition(self, grid):
        u = interior_signal(grid, seed=15)
        a = translate_spectral(translate_spectral(u, 0.2), 0.3)
        b = translate_spectral(u, 0.5)
        assert rel_gap(a, b) < 1e-10

    def test_non_multiple_rejected(self, grid):
        with pytest.raises(ValueError, match="multiple"):
            translate_spectral(interior_signal(grid, seed=16), grid.dt / 3)


class TestPadding:
    def test_padded_signal_accepted(self, grid):
        w = grid.window_length
        u = interior_signal(grid, seed=17, center=grid.t0 + 0.25 * w, width=0.03 * w)
        assert_padded(u)

    def test_unpadded_rejected(self, grid):
        t = grid.times
        late = WeightedSignal(grid, bump(t, grid.t_end - 0.2, 0.1)[:, None])
        with pytest.raises(ValueError, match="trailing"):
            assert_padded(late)

    def test_zero_signal_accepted(self, grid):
        assert_padded(WeightedSignal.zeros(grid, 1))
