import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interior_signal
from evowaves.signals import (
    WeightedGrid,
    WeightedSignal,
    read_signal_csv,
    rho_inner,
    rho_norm,
    translate,
    truncate_before,
    write_signal_csv,
)


def random_signal(grid, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((grid.n, dim)) + 1j * rng.standard_normal((grid.n, dim))
    return WeightedSignal(grid, vals)


class TestGridValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            WeightedGrid(0.0, -0.1, 10, 1.0)
        with pytest.raises(ValueError):
            WeightedGrid(0.0, 0.1, 1, 1.0)
        with pytest.raises(ValueError):
            WeightedGrid(0.0, 0.1, 10, 0.0)

    def test_times_increasing(self):
        grid = WeightedGrid(-1.0, 0.25, 9, 1.0)
        assert np.all(np.diff(grid.times) > 0)
        assert grid.t_end == pytest.approx(1.0)


class TestInnerProduct:
    def test_zero_signal(self, grid):
        z = WeightedSignal.zeros(grid, 3)
        assert rho_inner(z, z) == 0.0

    def test_constant_one_closed_form(self):
        # integral of exp(-2t) over [0, 1] = (1 - e^-2)/2
        grid = WeightedGrid(0.0, 1.0 / 2000, 2001, 1.0)
        u = WeightedSignal(grid, np.ones((2001, 1)))
        expected = (1.0 - np.exp(-2.0)) / 2.0
        assert rho_inner(u, u).real == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(0.432332, abs=1e-6)

    def test_conjugate_symmetry(self, grid):
        u = random_signal(grid, seed=1)
        w = random_signal(grid, seed=2)
        assert rho_inner(u, w) == pytest.approx(np.conj(rho_inner(w, u)))

    def test_linear_in_second_factor(self, grid):
        u = random_signal(grid, seed=3)
        w = random_signal(grid, seed=4)
        lhs = rho_inner(u, w.with_values((2.0 - 1.0j) * w.values))
        assert lhs == pytest.approx((2.0 - 1.0j) * rho_inner(u, w))

    def test_grid_mismatch_rejected(self, grid):
        other = WeightedGrid(grid.t0, grid.dt, grid.n, grid.rho + 1.0)
        with pytest.raises(ValueError, match="mismatch"):
            rho_inner(random_signal(grid), random_signal(other))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_cauchy_schwarz(self, seed):
        grid = WeightedGrid(-1.0, 0.05, 64, 1.5)
        u = random_signal(grid, seed=seed)
        w = random_signal(grid, seed=seed + 1)
        assert abs(rho_inner(u, w)) <= rho_norm(u) * rho_norm(w) * (1 + 1e-12)


class TestTruncate:
    def test_full_and_empty_support(self, grid):
        u = random_signal(grid)
        assert np.array_equal(truncate_before(u, grid.t_end + 1.0).values, u.values)
        assert not truncate_before(u, grid.t0 - 1.0).values.any()

    def test_idempotent(self, grid):
        u = random_signal(grid)
        once = truncate_before(u, 0.37)
        assert np.array_equal(truncate_before(once, 0.37).values, once.values)

    def test_orthogonal_projection_identity(self, grid):
        u = random_signal(grid, seed=5)
        w = random_signal(grid, seed=6)
        chi_u = truncate_before(u, 0.2)
        assert rho_inner(chi_u, w) == pytest.approx(
            rho_inner(chi_u, truncate_before(w, 0.2))
        )


class TestTranslate:
    def test_zero_shift_identity(self, grid):
        u = random_signal(grid)
        assert np.array_equal(translate(u, 0.0).values, u.values)

    def test_group_law_on_interior(self, grid):
        u = interior_signal(grid, dim=2, seed=7)
        back = translate(translate(u, 0.5), -0.5)
        assert np.abs(back.values - u.values).max() < 1e-13 * np.abs(u.values).max()

    def test_weighted_norm_relation(self, grid):
        # |tau_h u| = e^{rho h} |u| by change of variables
        u = interior_signal(grid, seed=8)
        h = 0.25
        assert rho_norm(translate(u, h)) == pytest.approx(
            np.exp(grid.rho * h) * rho_norm(u), rel=1e-10
        )

    def test_non_multiple_rejected(self, grid):
        with pytest.raises(ValueError, match="multiple"):
            translate(random_signal(grid), grid.dt * 1.5)


class TestCsv:
    def test_round_trip_exact(self, grid, tmp_path):
        u = random_signal(grid, dim=3, seed=10)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        back = read_signal_csv(str(path), grid)
        assert np.array_equal(back.values, u.values)

    def test_exact_bytes(self, tmp_path):
        g = WeightedGrid(0.0, 0.1, 3, 1.0)
        vals = np.array(
            [
                [complex(-0.0, 5e-324), complex(1e300, 0.1)],
                [complex(1.0, -2.5e-17), complex(0.1, -0.0)],
                [complex(5e-324, 1e300), complex(-2.5e-17, 1.0)],
            ]
        )
        u = WeightedSignal(g, vals)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        assert path.read_bytes() == (
            b"t,re_0,im_0,re_1,im_1\r\n"
            b"0,-0,4.9406564584124654e-324,1.0000000000000001e+300,0.10000000000000001\r\n"
            b"0.10000000000000001,1,-2.4999999999999999e-17,0.10000000000000001,-0\r\n"
            b"0.20000000000000001,4.9406564584124654e-324,1.0000000000000001e+300,"
            b"-2.4999999999999999e-17,1\r\n"
        )
        back = read_signal_csv(str(path), g)
        assert np.array_equal(back.values, u.values)

    def test_round_trip_keeps_signed_zero(self, tmp_path):
        g = WeightedGrid(0.0, 0.1, 2, 1.0)
        u = WeightedSignal(g, np.array([[complex(-0.0, 1.0)], [complex(2.0, -0.0)]]))
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        back = read_signal_csv(str(path), g)
        # bit patterns, so a -0.0 that comes back as +0.0 fails
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    def test_wrong_grid_rejected(self, grid, tmp_path):
        u = random_signal(grid, seed=11)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        shifted = WeightedGrid(grid.t0 + 0.5, grid.dt, grid.n, grid.rho)
        with pytest.raises(ValueError, match="time column"):
            read_signal_csv(str(path), shifted)

    def test_wrong_length_rejected(self, grid, tmp_path):
        u = random_signal(grid, seed=12)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        small = WeightedGrid(grid.t0, grid.dt, grid.n - 1, grid.rho)
        with pytest.raises(ValueError, match="rows"):
            read_signal_csv(str(path), small)

    @pytest.mark.parametrize(
        "rows",
        [
            b"0,1,2\r\n0.10000000000000001,3\r\n",  # one row short
            b"0,1,2,3,4\r\n0.10000000000000001,5,6,7,8\r\n",  # wider than the header
        ],
    )
    def test_wrong_column_count_rejected(self, tmp_path, rows):
        g = WeightedGrid(0.0, 0.1, 2, 1.0)
        path = tmp_path / "sig.csv"
        path.write_bytes(b"t,re_0,im_0\r\n" + rows)
        with pytest.raises(ValueError, match="column"):
            read_signal_csv(str(path), g)
