import mmap

import numpy as np
import pytest
import scipy.integrate

from conftest import apply_symbol, bump, interior_signal, zero_signal
from evowaves.signals import WeightedGrid, WeightedSignal, rho_inner, rho_norm, truncate_before
from evowaves.transform import (
    SpectralSignal,
    assert_padded,
    forward_transform,
    frequencies_for,
    inverse_transform,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def rel_gap(a, b):
    return rho_norm(a.with_values(a.values - b.values)) / rho_norm(b)


def time_derivative(u):
    """The closed time derivative: the multiplier i s + rho."""
    return apply_symbol(u, 1j * frequencies_for(u.grid) + u.grid.rho)


def time_antiderivative(u):
    """The causal antiderivative: the multiplier 1/(i s + rho)."""
    return apply_symbol(u, 1.0 / (1j * frequencies_for(u.grid) + u.grid.rho))


class TestForwardInverse:
    def test_zero(self, grid):
        z = zero_signal(grid, 2)
        assert not forward_transform(z).values.any()
        zh = forward_transform(z)
        assert not inverse_transform(zh).values.any()

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
        back = inverse_transform(forward_transform(u))
        assert rel_gap(back, u) < 1e-12

    def test_inverse_linearity(self, grid):
        u_hat = forward_transform(interior_signal(grid, seed=5))
        w_hat = forward_transform(interior_signal(grid, seed=6))
        lhs = inverse_transform(SpectralSignal(grid, 2.0 * u_hat.values - 1j * w_hat.values))
        rhs = lhs.with_values(
            2.0 * inverse_transform(u_hat).values - 1j * inverse_transform(w_hat).values
        )
        assert rel_gap(lhs, rhs) < 1e-12

    # odd and even n; t0 != 0 so the phase multiplies every row, and the
    # operand order of each product shows in the last bit (the ids are
    # those of an earlier form of the test, which had a fourth parameter)
    @pytest.mark.parametrize(
        "n,dim,seed",
        [(512, 63, 0), (64, 3, 1), (9, 2, 2), (2, 1, 3)],
        ids=["512-63-0-None", "64-3-1-None", "9-2-2-None", "2-1-3-None"],
    )
    def test_bitwise_equal_to_out_of_place(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        grid = WeightedGrid(-1.7 + seed, 0.037, n, 1.3)
        vals = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        u = WeightedSignal(grid, vals)

        # the transforms as out-of-place expressions, one temporary per step
        g = np.exp(-grid.rho * grid.times)[:, None] * u.values
        spec = np.fft.fft(g, axis=0)
        s = frequencies_for(grid)
        phase = np.exp(-1j * s * grid.t0)
        fwd = (grid.dt / SQRT_2PI) * phase[:, None] * spec

        phase = np.exp(1j * s * grid.t0)
        spec = (SQRT_2PI / grid.dt) * phase[:, None] * vals
        inv = np.exp(grid.rho * grid.times)[:, None] * np.fft.ifft(spec, axis=0)

        got_fwd = forward_transform(u).values
        got_inv = inverse_transform(SpectralSignal(grid, vals)).values
        assert np.array_equal(got_fwd.view(np.int64), fwd.view(np.int64))
        assert np.array_equal(got_inv.view(np.int64), inv.view(np.int64))

    def test_shape_mismatch_rejected(self, grid):
        u_hat = forward_transform(interior_signal(grid, seed=7))
        bad = WeightedGrid(grid.t0, grid.dt, grid.n // 2, grid.rho)
        with pytest.raises(ValueError, match="n=512"):
            SpectralSignal(bad, u_hat.values)
        with pytest.raises(ValueError):
            SpectralSignal(grid, u_hat.values[:, 0])

    @pytest.mark.parametrize("n", [63, 64])
    def test_freqs_uniform_increasing(self, n):
        # the frequencies a spectrum reports are its grid's, spaced 2 pi/(n dt)
        # in FFT order: s = 0 first, increasing once fftshift puts them in order
        grid = WeightedGrid(-0.4, 0.05, n, 1.5)
        s = forward_transform(interior_signal(grid, seed=8)).freqs
        assert s.shape == (n,) and s[0] == 0.0
        sorted_s = np.fft.fftshift(s)
        np.testing.assert_allclose(np.diff(sorted_s), 2.0 * np.pi / (n * grid.dt), rtol=1e-12)


class TestHalfSpectrum:
    """A real signal's spectrum on s >= 0 (plus Nyquist), by the real FFT."""

    @pytest.mark.parametrize("n", [64, 63, 2])
    def test_rows_of_the_full_spectrum(self, n):
        grid = WeightedGrid(-1.3, 0.07, n, 0.9)
        u = WeightedSignal(grid, np.random.default_rng(n).standard_normal((n, 3)))
        full, half = forward_transform(u), forward_transform(u, half=True)
        assert half.half and half.values.shape == (n // 2 + 1, 3)
        rows = slice(n // 2 + 1)  # the half spectrum is a prefix of the full one
        np.testing.assert_array_equal(half.freqs, full.freqs[rows])
        assert (half.freqs >= 0).all() == (n % 2 == 1)  # even n ends at -Nyquist
        scale = np.abs(full.values).max()
        assert np.abs(half.values - full.values[rows]).max() <= 1e-14 * scale

        back = inverse_transform(half).values
        assert not back.imag.any()
        assert np.abs(back - u.values).max() <= 1e-13 * np.abs(u.values).max()
        assert np.abs(back - inverse_transform(full).values).max() <= 1e-13 * np.abs(u.values).max()

    def test_inverse_is_float64_in_its_own_mapping(self):
        grid = WeightedGrid(-1.3, 0.07, 64, 0.9)
        u = WeightedSignal(grid, np.random.default_rng(5).standard_normal((64, 3)))
        assert u.values.dtype == np.float64
        assert inverse_transform(forward_transform(u)).values.dtype == np.complex128
        back = inverse_transform(forward_transform(u, half=True)).values
        assert back.dtype == np.float64 and back.flags.c_contiguous
        base = back
        while isinstance(base, np.ndarray):
            base = base.base
        # a memoryview of an anonymous mapping, returned to the system with the signal
        assert isinstance(base.obj, mmap.mmap)

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_width_inverse(self, n):
        # a zero-byte mapping is an error; a (n, 0) signal is not
        grid = WeightedGrid(0.0, 0.1, n, 1.0)
        back = inverse_transform(SpectralSignal(grid, np.zeros((n // 2 + 1, 0), complex), half=True))
        assert back.values.shape == (n, 0) and back.values.dtype == np.float64
        with pytest.raises(ValueError, match="need at least 2 samples"):  # no zero-length grid
            WeightedGrid(0.0, 0.1, 0, 1.0)

    def test_shape_checked(self, grid):
        with pytest.raises(ValueError, match=r"n // 2 \+ 1, d\) with n=1024"):
            SpectralSignal(grid, np.zeros((grid.n, 1)), half=True)


class TestSeparable:
    """A separable signal's spectrum is w_hat g: one FFT of w, never the samples."""

    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("n", [64, 63])
    def test_matches_the_samples(self, n, half):
        grid = WeightedGrid(-1.3, 0.07, n, 0.9)
        rng = np.random.default_rng(n)
        w = rng.standard_normal(n)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = WeightedSignal(grid, profiles=(w, g))
        got = forward_transform(u, half)
        assert "values" not in u.__dict__
        want = forward_transform(WeightedSignal(grid, w[:, None] * g[None, :]), half)
        assert got.half == half and got.values.shape == want.values.shape
        assert np.abs(got.values - want.values).max() <= 1e-14 * np.abs(want.values).max()

    @pytest.mark.parametrize("center", [0.25, 0.95])
    def test_padding_verdict_matches_the_samples(self, grid, center):
        w = bump(grid.times, grid.t0 + center * grid.window_length, 0.1)
        g = np.array([0.0, 1.0, -0.5])
        verdicts = []
        for u in (WeightedSignal(grid, profiles=(w, g)), WeightedSignal(grid, w[:, None] * g)):
            try:
                assert_padded(u)
                verdicts.append(None)
            except ValueError as exc:
                verdicts.append(str(exc))
        assert verdicts[0] == verdicts[1]
        assert (verdicts[0] is None) == (center < 0.5)


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

    def test_inverse_pair(self, grid):
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

    def test_normality_commutator(self, grid):
        # the derivative and its adjoint (conjugate symbol) commute
        u = interior_signal(grid, seed=10)
        s = frequencies_for(grid)
        fwd = 1j * s + grid.rho
        adj = -1j * s + grid.rho
        a = apply_symbol(apply_symbol(u, fwd), adj)
        b = apply_symbol(apply_symbol(u, adj), fwd)
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
        z = zero_signal(grid, 1)
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
        assert_padded(zero_signal(grid, 1))
