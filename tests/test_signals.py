import dataclasses
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import interior_signal, zero_signal
from evowaves import signals
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


class TestGridVectors:
    """The vectors of a grid are computed once, read-only, and depend on its fields alone."""

    NAMES = ["times", "freqs", "decay", "growth", "forward_phase", "inverse_phase"]

    @staticmethod
    def vectors(grid):
        return [getattr(grid, name) for name in TestGridVectors.NAMES] + [grid.weights()]

    def test_computed_once(self):
        grid = WeightedGrid(-1.3, 0.07, 64, 0.9)
        for first, again in zip(self.vectors(grid), self.vectors(grid)):
            assert first is again

    def test_read_only(self):
        grid = WeightedGrid(-1.3, 0.07, 64, 0.9)
        for x in self.vectors(grid):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(x, 2.0, out=x)
            assert not x[1:].flags.writeable  # nor through a view

    def test_equal_grids_equal_vectors(self):
        grid = WeightedGrid(-1.3, 0.07, 64, 0.9)
        twin = WeightedGrid(-1.3, 0.07, 64, 0.9)
        first = self.vectors(grid)  # computed on grid alone
        assert twin == grid and hash(twin) == hash(grid)
        for x, y in zip(first, self.vectors(twin)):
            assert x is not y and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        other = dataclasses.replace(grid, rho=1.1)
        assert np.array_equal(other.times, grid.times)
        assert not np.array_equal(other.decay, grid.decay)

    def test_values(self):
        # the expressions the transforms and norms computed on each call
        grid = WeightedGrid(-1.3, 0.07, 9, 0.9)
        times = grid.t0 + grid.dt * np.arange(grid.n)
        theta = np.r_[0.5, np.ones(grid.n - 2), 0.5]
        s = 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dt)
        expected = {
            "times": times,
            "freqs": s,
            "decay": np.exp(-grid.rho * times),
            "growth": np.exp(grid.rho * times),
            "forward_phase": (grid.dt / np.sqrt(2.0 * np.pi)) * np.exp(-1j * s * grid.t0),
            "inverse_phase": (np.sqrt(2.0 * np.pi) / grid.dt) * np.exp(1j * s * grid.t0),
        }
        for name, x in expected.items():
            assert np.array_equal(getattr(grid, name).view(np.uint64), x.view(np.uint64)), name
        weights = theta * grid.dt * np.exp(-2.0 * grid.rho * times)
        assert np.array_equal(grid.weights().view(np.uint64), weights.view(np.uint64))


class TestInnerProduct:
    def test_zero_signal(self, grid):
        z = zero_signal(grid, 3)
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


class TestSeparable:
    """WeightedSignal(grid, profiles=(w, g)): the samples w_j g_d, built only when read."""

    @staticmethod
    def profiles(grid, complex_g=False):
        rng = np.random.default_rng(3)
        w = rng.standard_normal(grid.n)
        g = rng.standard_normal(4) + (1j * rng.standard_normal(4) if complex_g else 0.0)
        g[1] = 0.0
        return w, g

    @pytest.mark.parametrize("complex_g", [False, True])
    def test_helpers_match_the_samples(self, grid, complex_g):
        w, g = self.profiles(grid, complex_g)
        u = WeightedSignal(grid, profiles=(w, g))
        samples = np.zeros((grid.n, 4), dtype=complex)
        samples[:] = w[:, None] * g[None, :]
        v = WeightedSignal(grid, samples)
        assert u.dim == v.dim == 4
        np.testing.assert_allclose(u.sample_energy(), v.sample_energy(), rtol=1e-14, atol=0)
        np.testing.assert_allclose(u.sample_peak(), v.sample_peak(), rtol=1e-15, atol=0)
        assert u.is_real == v.is_real == (not complex_g)
        assert rho_norm(u) == pytest.approx(np.sqrt(rho_inner(v, v).real), rel=1e-14)
        assert "values" not in u.__dict__  # the helpers read the profiles alone
        assert u.values.dtype == (np.complex128 if complex_g else np.float64)
        if not complex_g:  # a real g gives the complex samples' real parts, bit for bit
            assert not samples.imag.view(np.uint64).any()
            samples = samples.real
        assert np.array_equal(u.values.view(np.uint64), samples.view(np.uint64))
        assert u.values is u.values and not u.values.flags.writeable

    def test_per_sample_energy(self, grid):
        u = random_signal(grid, dim=3, seed=4)
        np.testing.assert_allclose(u.sample_energy(), (np.abs(u.values) ** 2).sum(axis=1), rtol=1e-14)
        assert rho_norm(u) == pytest.approx(np.sqrt(rho_inner(u, u).real), rel=1e-14)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profile_refused(self, grid, which, bad):
        profiles = self.profiles(grid)
        profiles[which][2] = bad
        with pytest.raises(ValueError, match="signal contains non-finite samples"):
            WeightedSignal(grid, profiles=profiles)

    def test_time_profile_must_be_real_of_length_n(self, grid):
        w, g = self.profiles(grid)
        for bad in (w + 1j, w[:-1], w[:, None]):
            with pytest.raises(ValueError, match="profiles must be a real"):
                WeightedSignal(grid, profiles=(bad, g))


def exact_signal():
    g = WeightedGrid(0.0, 0.1, 3, 1.0)
    vals = np.array(
        [
            [complex(-0.0, 5e-324), complex(1e300, 0.1)],
            [complex(1.0, -2.5e-17), complex(0.1, -0.0)],
            [complex(5e-324, 1e300), complex(-2.5e-17, 1.0)],
        ]
    )
    return WeightedSignal(g, vals)


EXACT_BYTES = (
    b"t,re_0,im_0,re_1,im_1\r\n"
    b"0,-0,4.9406564584124654e-324,1.0000000000000001e+300,0.10000000000000001\r\n"
    b"0.10000000000000001,1,-2.4999999999999999e-17,0.10000000000000001,-0\r\n"
    b"0.20000000000000001,4.9406564584124654e-324,1.0000000000000001e+300,"
    b"-2.4999999999999999e-17,1\r\n"
)


class TestCsv:
    def test_round_trip_exact(self, grid, tmp_path):
        u = random_signal(grid, dim=3, seed=10)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        back = read_signal_csv(str(path), grid)
        assert np.array_equal(back.values, u.values)

    @pytest.mark.parametrize("dim", [4, 5])
    @pytest.mark.parametrize("im", [0.0, 0.5])
    def test_file_order(self, tmp_path, dim, im):
        # unknown i holds i + 1 (+ 1j * im * i): the first row reads the even
        # unknowns, a reduced signal's pressures 1, 3, 5, ..., then the odd
        # ones, its velocities 2, 4, ..., and reads back in the program's order
        g = WeightedGrid(0.0, 0.1, 2, 1.0)
        i = np.arange(dim)
        u = WeightedSignal(g, np.tile(i + 1 + 1j * im * i if im else i + 1.0, (2, 1)))
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        row = [float(x) for x in path.read_bytes().split(b"\r\n")[1].split(b",")]
        assert row[1::2] == [*range(1, dim + 1, 2), *range(2, dim + 1, 2)]
        assert row[2::2] == [im * j for j in file_order(dim)]
        back = read_signal_csv(str(path), g)
        assert back.values.dtype == u.values.dtype
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    def test_exact_bytes(self, tmp_path):
        u = exact_signal()
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        assert path.read_bytes() == EXACT_BYTES
        back = read_signal_csv(str(path), u.grid)
        assert np.array_equal(back.values, u.values)

    def test_round_trip_keeps_signed_zero(self, tmp_path):
        g = WeightedGrid(0.0, 0.1, 2, 1.0)
        u = WeightedSignal(g, np.array([[complex(-0.0, 1.0)], [complex(2.0, -0.0)]]))
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        back = read_signal_csv(str(path), g)
        # bit patterns, so a -0.0 that comes back as +0.0 fails
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    @pytest.mark.parametrize("im", [0.0, -0.0])
    def test_dtype_read_from_the_im_fields(self, tmp_path, im):
        # every im_j +0.0 reads back float64; one -0.0 is written "-0" and reads back complex
        g = WeightedGrid(0.0, 0.1, 2, 1.0)
        u = WeightedSignal(g, np.array([[1.5 + 0j, -0.25 + 0j], [-0.0 + 0j, complex(2.0, im)]]))
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        assert path.read_bytes().endswith(b",2,%s\r\n" % (b"-0" if np.signbit(im) else b"0"))
        back = read_signal_csv(str(path), g)
        want = u.values if np.signbit(im) else u.values.real
        assert back.values.dtype == want.dtype
        assert np.array_equal(back.values.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("data", [[[1.0, -0.0], [2.0, 3.0]], [[1, 2], [3, 4]]])
    def test_real_samples_stay_float64(self, data):
        u = WeightedSignal(WeightedGrid(0.0, 0.1, 2, 1.0), data)
        assert u.values.dtype == np.float64 and u.is_real
        assert np.array_equal(u.values, np.array(data, float))
        assert np.array_equal(np.signbit(u.values), np.signbit(np.array(data, float)))
        c = u.with_values(u.values * (1 + 1j))
        assert c.values.dtype == np.complex128 and not c.is_real

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

    @pytest.mark.parametrize("sample", [b"nan", b"inf", b"-inf"])
    def test_non_finite_sample_names_file_and_row(self, tmp_path, sample):
        g = WeightedGrid(0.0, 0.1, 3, 1.0)
        path = tmp_path / "sig.csv"
        path.write_bytes(
            b"t,re_0,im_0\r\n0,1,2\r\n0.10000000000000001,3," + sample + b"\r\n0.2,nan,4\r\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 2 holds a non-finite"):
            read_signal_csv(str(path), g)


def written(x):
    """The writer's bytes for the doubles x, one per row."""
    fh = io.BytesIO()
    signals._write_rows(fh, x, np.empty((x.size, 0)), np.array([signals._CRLF]), 0, x.size)
    return fh.getvalue()


def reference(x):
    return b"".join(b"%.17g\r\n" % v for v in x.tolist())


KERNEL_EDGES = [
    0.0,
    5e-324,
    2.2250738585072014e-308,
    1e-99,
    9.9999999999999999e-100,
    1e-4,
    9.9999999999999995e-05,
    1e-5,
    1e16,
    1e17,
    1e300,
]


class TestFormatKernel:
    """The vectorized writer prints every double exactly as b"%.17g" % x."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500, deadline=None)
    def test_any_double(self, v):
        x = np.array([v, -v])
        assert written(x) == reference(x)

    # the decades the kernel itself writes
    @given(st.floats(min_value=1e-99, max_value=1.0, exclude_max=True))
    @settings(max_examples=500, deadline=None)
    def test_kernel_range(self, v):
        x = np.array([v, -v, np.nextafter(v, 0.0), np.nextafter(v, 1.0)])
        assert written(x) == reference(x)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64)
        x = bits.view(np.float64)
        x = x[np.isfinite(x)]
        assert written(x) == reference(x)

    def test_random_decades(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(1.0, 10.0, 200_000) * 10.0 ** rng.integers(-110, 20, 200_000)
        assert written(x) == reference(x)

    def test_named_edges(self):
        x = np.array(KERNEL_EDGES)
        x = np.concatenate([x, -x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        assert written(x) == reference(x)

    def test_signed_zeros_among_others(self):
        # the zeros take their own path: "0" and "-0" by the sign bit
        x = np.random.default_rng(22).choice([0.0, -0.0, 0.5, -1.25e-7, 3.0, 1e-300], 10_000)
        assert b"\n0\r\n" in written(x) and b"\n-0\r\n" in written(x)
        assert written(x) == reference(x)

    def test_exact_tie_rounds_half_to_even(self):
        # 2**-25 = 2.98023223876953125e-08 exactly: 18 digits ending in 5
        assert written(np.array([2.0**-25, -(2.0**-25)])) == (
            b"2.9802322387695312e-08\r\n-2.9802322387695312e-08\r\n"
        )


EDGE_DOUBLES = [-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5e-17, 1.0]
# one double per form "%.17g" takes: exponent and fixed form (kernel-written),
# an exact tie, a mantissa ending in zeros, zeros, a subnormal, three-digit
# exponents, |x| >= 1 in fixed and exponent form
EVERY_FORM = [
    -1.2345678901234567e-07,
    4.5e-05,
    0.00012345,
    -0.5,
    2.0**-25,
    2.0**-17,
    0.0,
    -0.0,
    5e-324,
    -1e-100,
    123.25,
    -1e17,
]


def edge_signal(n, dim=2):
    """Every row holds some of the hardest doubles for %.17g, so each block boundary does too."""
    reals = np.resize(EDGE_DOUBLES + EVERY_FORM, 2 * n * dim)
    return WeightedSignal(WeightedGrid(-0.3, 0.1, n, 1.0), reals.view(complex).reshape(n, dim))


def real_signal(n, dim):
    """edge_signal's doubles in the re_j columns, and every im_j +0.0."""
    vals = np.zeros((n, dim), complex)
    vals.real = np.resize(EDGE_DOUBLES + EVERY_FORM, n * dim).reshape(n, dim)  # keeps -0.0
    return WeightedSignal(WeightedGrid(-0.3, 0.1, n, 1.0), vals)


def file_order(dim):
    """The unknown in each CSV column: the even ones, a reduced signal's pressures, then the odd ones."""
    return [*range(0, dim, 2), *range(1, dim, 2)]


def reference_csv(u):
    """The CSV of u built one number at a time with b"%.17g", its unknowns in file order."""
    header = ["t"] + [f"{p}_{j}" for j in range(u.dim) for p in ("re", "im")]
    cols = np.ascontiguousarray(u.values[:, file_order(u.dim)], dtype=complex).view(np.float64)
    rows = [
        b",".join(b"%.17g" % v for v in [t, *r]) + b"\r\n"
        for t, r in zip(u.grid.times.tolist(), cols.tolist())
    ]
    return (",".join(header) + "\r\n").encode() + b"".join(rows)


class TestCsvBlocks:
    """write_signal_csv split across forked writers gives the one-process bytes."""

    @pytest.fixture
    def split(self, monkeypatch):
        """Force a block per CPU, for a given CPU count."""
        monkeypatch.setattr(signals, "MIN_DOUBLES_PER_WORKER", 1)

        def set_cpus(cpus):
            monkeypatch.setattr(signals, "_usable_cpus", lambda: cpus)

        return set_cpus

    # at 3 CPUs each row is its own block
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_exact_bytes_in_blocks(self, tmp_path, split, cpus):
        split(cpus)
        path = tmp_path / "sig.csv"
        write_signal_csv(exact_signal(), str(path))
        assert path.read_bytes() == EXACT_BYTES

    # n = 2 is below the worker count at 3 CPUs; 7 and 10 do not divide evenly
    @pytest.mark.parametrize("n", [2, 7, 10])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_blocks_byte_identical(self, tmp_path, split, n, cpus):
        u = edge_signal(n)
        write_signal_csv(u, str(tmp_path / "one.csv"))
        split(cpus)
        write_signal_csv(u, str(tmp_path / "many.csv"))
        assert (tmp_path / "many.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["many.csv", "one.csv"]
        back = read_signal_csv(str(tmp_path / "many.csv"), u.grid)
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_form_in_one_row(self, tmp_path, split, cpus):
        reals = np.array([EVERY_FORM, [-v for v in reversed(EVERY_FORM)]])
        u = WeightedSignal(WeightedGrid(0.0, 0.1, 2, 1.0), reals.view(complex))
        split(cpus)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        assert path.read_bytes() == reference_csv(u)

    # a complex signal whose every im_j is +0.0 and its float64 real part
    # write the same bytes, and read back as that float64 signal; dim 0 has
    # no im_j column
    @pytest.mark.parametrize("dim", [0, 1, 3])
    @pytest.mark.parametrize("n", [2, 7, 10])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_real_signal_exact_bytes(self, tmp_path, split, dim, n, cpus):
        u = real_signal(n, dim)
        split(cpus)
        path = tmp_path / "sig.csv"
        real = u.with_values(u.values.real)
        assert real.values.dtype == np.float64
        for v in (real, u):
            write_signal_csv(v, str(path))
            assert path.read_bytes() == reference_csv(u)
        if dim:
            rows = path.read_bytes().split(b"\r\n")
            assert rows[-1] == b"" and all(row.endswith(b",0") for row in rows[1:-1])
        back = read_signal_csv(str(path), u.grid)
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values.view(np.int64), real.values.view(np.int64))

    # one bit pattern other than +0.0 in an im_j sends the signal down the general path
    @pytest.mark.parametrize("im", [-0.0, 5e-324])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_nonzero_bits_in_last_block(self, tmp_path, split, im, cpus):
        vals = real_signal(10, 3).values.copy()
        vals[-1, 1] = complex(vals[-1, 1].real, im)
        u = WeightedSignal(WeightedGrid(-0.3, 0.1, 10, 1.0), vals)
        split(cpus)
        path = tmp_path / "sig.csv"
        write_signal_csv(u, str(path))
        assert path.read_bytes() == reference_csv(u)
        back = read_signal_csv(str(path), u.grid)
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))

    def test_replaces_existing_file(self, tmp_path, split):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"old contents that are longer than the new file" * 100)
        split(2)
        u = edge_signal(4)
        write_signal_csv(u, str(path))
        assert np.array_equal(read_signal_csv(str(path), u.grid).values, u.values)

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failed_block_leaves_nothing(self, tmp_path, split, monkeypatch, failing):
        u = edge_signal(9)
        lo_failing = [0, 3, 6][failing]
        write_rows = signals._write_rows

        def flaky(fh, times, cols, seps, lo, hi):
            if lo == lo_failing:
                raise OSError("no space left")
            write_rows(fh, times, cols, seps, lo, hi)

        monkeypatch.setattr(signals, "_write_rows", flaky)
        split(3)
        path = tmp_path / "sig.csv"
        with pytest.raises(OSError, match=f"sig.csv: block {failing} of 3") as info:
            write_signal_csv(u, str(path))
        assert str(path) in str(info.value)
        assert not path.exists()
        assert os.listdir(tmp_path) == []

    def test_failed_block_keeps_old_file(self, tmp_path, split, monkeypatch):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"previous result")
        # runs only in the forked child of block 1
        monkeypatch.setattr(signals, "_write_part", lambda *args: os._exit(7))
        split(2)
        with pytest.raises(OSError, match="block 1 of 2 .*status 7"):
            write_signal_csv(edge_signal(4), str(path))
        assert path.read_bytes() == b"previous result"
        assert os.listdir(tmp_path) == ["sig.csv"]

    @pytest.mark.parametrize("cpus,per_worker", [(1, 1), (64, signals.MIN_DOUBLES_PER_WORKER)])
    def test_one_process_never_forks(self, tmp_path, monkeypatch, cpus, per_worker):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(signals, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(signals, "MIN_DOUBLES_PER_WORKER", per_worker)
        u = edge_signal(50)
        write_signal_csv(u, str(tmp_path / "sig.csv"))
        assert np.array_equal(read_signal_csv(str(tmp_path / "sig.csv"), u.grid).values, u.values)

    def test_no_fork_platform_stays_in_process(self, tmp_path, split, monkeypatch):
        monkeypatch.delattr(os, "fork")
        split(4)
        u = edge_signal(8)
        write_signal_csv(u, str(tmp_path / "sig.csv"))
        assert np.array_equal(read_signal_csv(str(tmp_path / "sig.csv"), u.grid).values, u.values)
