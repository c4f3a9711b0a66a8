import numpy as np
import pytest

from conftest import apply_symbol, bump, constant_fn, interior_signal, zero_fn
from evowaves.material import (
    MaterialLaw,
    MaterialLawError,
    coercivity,
    law_symbol,
    memory_bound,
    select_rho,
)
from evowaves.rational import RationalMatrixFunction, scalar_rational
from evowaves.signals import (
    WeightedGrid,
    WeightedSignal,
    rho_inner,
    rho_norm,
    translate,
    truncate_before,
)


def rel_gap(a, b):
    return rho_norm(a.with_values(a.values - b.values)) / rho_norm(b)


def symbol(law, grid):
    """The law's per-frequency matrices on the grid's frequencies."""
    return law_symbol(law, grid.w)


def adjoint_symbol(law, grid):
    return np.conj(np.swapaxes(symbol(law, grid), 1, 2))


def margin(law, rho):
    return rho * coercivity(law) - memory_bound(law, rho)


def random_law(seed, d=2, r=1.0, pole_margin=1.1):
    """One random pole strictly outside the closed holomorphy ball."""
    rng = np.random.default_rng(seed)
    radius = r * pole_margin * (1.0 + rng.uniform(0.0, 2.0))
    angle = rng.uniform(0, 2 * np.pi)
    pole = r + radius * np.exp(1j * angle)
    res = 0.3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m1 = RationalMatrixFunction(
        const=0.1 * rng.standard_normal((d, d)),
        lin=np.zeros((d, d)),
        poles=np.array([pole]),
        residues=res[None],
    )
    m0 = rng.standard_normal((d, d))
    m0 = m0 @ m0.T + 0.5 * np.eye(d)
    return MaterialLaw(m0, m1, r=r)


class TestEval:
    # law_symbol evaluates M at z = 1/w: w = 2 is z = 0.5
    def test_identity(self):
        law = MaterialLaw(np.eye(2), zero_fn(2), r=1.0)
        assert np.allclose(law_symbol(law, np.array([2.0 + 0j]))[0], np.eye(2))

    def test_constant_memory(self):
        c = 0.3 - 0.1j
        law = MaterialLaw(np.eye(2), constant_fn(c * np.eye(2)), r=1.0)
        z = 0.4 + 0.2j  # 1/z = 2 - 1j
        assert np.allclose(law_symbol(law, np.array([2.0 - 1j]))[0], (1.0 + c * z) * np.eye(2))

    def test_single_pole_two_routes(self):
        res = np.array([[0.5]], dtype=complex)
        m1 = RationalMatrixFunction(
            np.zeros((1, 1)), np.zeros((1, 1)), np.array([-1.0]), res[None]
        )
        law = MaterialLaw(np.eye(1), m1, r=1.0)
        z = 0.5
        direct = 1.0 + z * (0.5 / (z + 1.0))
        assert abs(law_symbol(law, np.array([2.0 + 0j]))[0, 0, 0] - direct) < 1e-14

    def test_non_hermitian_m0_rejected(self):
        with pytest.raises(MaterialLawError, match="Hermitian"):
            MaterialLaw(np.array([[1.0, 1.0], [0.0, 1.0]]), zero_fn(2), 1.0)


class TestApply:
    def test_identity_law(self, grid):
        law = MaterialLaw(np.eye(2), zero_fn(2), r=1.0)
        u = interior_signal(grid, dim=2, seed=0)
        assert rel_gap(apply_symbol(u, symbol(law, grid)), u) < 1e-12

    def test_z_symbol_is_antiderivative(self, grid):
        # M(z) = z I as a matrix symbol against the multiplier 1/(i s + rho)
        zfun = RationalMatrixFunction(
            np.zeros((2, 2)), np.eye(2), np.zeros(0), np.zeros((0, 2, 2))
        )
        u = interior_signal(grid, dim=2, seed=1)
        zs = 1.0 / (1j * grid.freqs + grid.rho)
        a = apply_symbol(u, zfun.eval_many(zs))
        assert rel_gap(a, apply_symbol(u, zs)) < 1e-12

    def test_rho_floor_enforced(self):
        law = MaterialLaw(np.eye(1), zero_fn(1), r=1.0)
        grid = WeightedGrid(0.0, 0.01, 256, 0.4)
        with pytest.raises(MaterialLawError, match=r"1/\(2r\)"):
            symbol(law, grid)

    def test_causal(self):
        # output mass before the input support stays at wrap-around level
        grid = WeightedGrid(0.0, 16.0 / 2048, 2048, 2.5)
        t = grid.times
        u = WeightedSignal(grid, bump(t, 4.5, 0.35)[:, None] * np.ones((1, 2)))
        t_start = 4.5 - 5.5 * 0.35
        for seed in range(5):
            law = random_law(seed)
            out = apply_symbol(u, symbol(law, grid))
            pre = truncate_before(out, t_start - grid.dt)
            assert rho_norm(pre) <= 1e-8 * rho_norm(u)

    def test_translation_invariance(self):
        # window long enough that the kernel tail of the law (which can grow
        # like exp(Re(1/pole) t) unweighted) is negligible in weighted norm
        grid = WeightedGrid(-4.0, 24.0 / 2048, 2048, 2.5)
        law = random_law(3)
        u = interior_signal(grid, dim=2, seed=4, center=grid.t0 + 7.0, width=0.5)
        h = 32 * grid.dt
        lhs = translate(apply_symbol(u, symbol(law, grid)), h)
        rhs = apply_symbol(translate(u, h), symbol(law, grid))
        assert rel_gap(lhs, rhs) < 1e-10

    def test_uniform_boundedness(self, grid):
        law = random_law(5)
        zs = law.r + law.r * np.exp(1j * np.linspace(0, 2 * np.pi, 512, endpoint=False))
        vals = law.m0[None] + zs[:, None, None] * law.m1.eval_many(zs)
        sup_m = np.linalg.norm(vals, ord=2, axis=(1, 2)).max()
        u = interior_signal(grid, dim=2, seed=6)
        assert rho_norm(apply_symbol(u, symbol(law, grid))) <= sup_m * rho_norm(u) * (1 + 1e-8)

    def test_delay_law_approximation(self):
        # all-pass product approximating a pure delay; error drops with order
        # (orders stay modest: partial fractions of clustered poles lose
        # digits to cancellation, so high orders do not help in doubles)
        grid = WeightedGrid(-2.0, 10.0 / 1024, 1024, 2.0)
        t = grid.times
        u = WeightedSignal(grid, (bump(t, 1.5, 0.35) * np.cos(3 * t))[:, None])
        h = 16 * grid.dt
        target = translate(u, -h)
        zs = 1.0 / (1j * grid.freqs + grid.rho)
        errs = []
        for order in (2, 4, 8):
            fn = delay_rational(h, order)
            fn.check_holomorphic(1.0)
            got = apply_symbol(u, fn.eval_many(zs))
            errs.append(rel_gap(got, target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01


def delay_rational(h: float, order: int) -> RationalMatrixFunction:
    """Product of first-order all-pass sections, in partial fractions of z.

    Each section (1 - w tau/2)/(1 + w tau/2) approximates exp(-w tau); the
    section delays tau_j are spread out so the poles stay well separated
    (clustered poles make partial-fraction residues blow up).
    """
    tau = (h / order) * np.linspace(0.7, 1.3, order) if order > 1 else np.array([h])
    tau *= h / tau.sum()
    w_poles = -2.0 / tau
    k_inf = (-1.0) ** order

    def numerator(w):
        return np.prod(1.0 - w * tau / 2.0)

    residues_w = []
    for m in range(order):
        others = np.delete(w_poles, m)
        den_prime = np.prod(w_poles[m] - others) * np.prod(tau / 2.0)
        residues_w.append(numerator(w_poles[m]) / den_prime)
    residues_w = np.asarray(residues_w, dtype=complex)
    # K(1/z) in partial fractions: poles 1/w, residues -c/w^2, const shift
    z_poles = 1.0 / w_poles
    z_res = -residues_w / w_poles**2
    const = k_inf - np.sum(residues_w / w_poles)
    return scalar_rational(const=const, poles=z_poles, residues=z_res)


class TestAdjoint:
    def test_hermitian_constant_self_adjoint(self, grid):
        m0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        law = MaterialLaw(m0, zero_fn(2), r=1.0)
        u = interior_signal(grid, dim=2, seed=8)
        adj = apply_symbol(u, adjoint_symbol(law, grid))
        assert rel_gap(adj, apply_symbol(u, symbol(law, grid))) < 1e-13

    def test_pairing_identity(self, grid):
        law = random_law(9)
        u = interior_signal(grid, dim=2, seed=10)
        w = interior_signal(grid, dim=2, seed=11)
        lhs = rho_inner(apply_symbol(u, symbol(law, grid)), w)
        rhs = rho_inner(u, apply_symbol(w, adjoint_symbol(law, grid)))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1e-300)

    def test_double_adjoint(self, grid):
        # the adjoint of the adjoint is the original operator: the pairing
        # identity holds with the roles of the two applications swapped
        law = random_law(12)
        u = interior_signal(grid, dim=2, seed=13)
        w = interior_signal(grid, dim=2, seed=14)
        lhs = rho_inner(apply_symbol(u, adjoint_symbol(law, grid)), w)
        rhs = rho_inner(u, apply_symbol(w, symbol(law, grid)))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-300)


class TestConstants:
    def test_coercivity_identity(self):
        law = MaterialLaw(np.eye(3), zero_fn(3), r=1.0)
        assert coercivity(law) == pytest.approx(1.0)

    def test_coercivity_diagonal(self):
        law = MaterialLaw(np.diag([2.0, 0.5]), zero_fn(2), r=1.0)
        assert coercivity(law) == pytest.approx(0.5)

    def test_coercivity_rayleigh_oracle(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m0 = a @ a.conj().T + 0.3 * np.eye(5)
        law = MaterialLaw(m0, zero_fn(5), r=1.0)
        assert abs(coercivity(law) - rayleigh_min_eig(m0, seed=15)) < 1e-10

    def test_nonpositive_rejected(self):
        law = MaterialLaw(np.diag([1.0, -0.1]), zero_fn(2), r=1.0)
        with pytest.raises(MaterialLawError, match="positive definite"):
            coercivity(law)

    def test_memory_bound_zero(self):
        law = MaterialLaw(np.eye(2), zero_fn(2), r=1.0)
        assert memory_bound(law, 2.0) == 0.0

    def test_memory_bound_constant(self):
        c = 0.4
        law = MaterialLaw(np.eye(2), constant_fn(c * np.eye(2)), r=1.0)
        assert c <= memory_bound(law, 2.0) <= c * (1 + 2e-12)

    def test_memory_bound_sup_at_infinity(self):
        # |r / (z + 1/2)| on the circle |z - 1/4| = 1/4 peaks at z = 0 alone,
        # the end s = +-inf, where it is 2 r
        m1 = RationalMatrixFunction(np.zeros((2, 2)), np.zeros((2, 2)), [-0.5], np.diag([0.2, 0.1])[None])
        law = MaterialLaw(np.eye(2), m1, r=1.0)
        mu = memory_bound(law, 2.0)
        assert 0.4 <= mu <= 0.4 * (1 + 2e-12)
        s = np.linspace(-1e4, 1e4, 200001)
        assert np.abs(m1.eval_many(1.0 / (1j * s + 2.0))).max() < 0.4

    def test_memory_bound_vs_brute_force(self):
        law = random_law(16)
        rho = 2.0
        mu = memory_bound(law, rho)
        theta = np.linspace(-np.pi / 2, np.pi / 2, 51200 + 2)[1:-1]
        zs = 1.0 / (1j * rho * np.tan(theta) + rho)
        brute = np.linalg.norm(law.m1.eval_many(zs), ord=2, axis=(1, 2)).max()
        assert brute <= mu <= brute * 1.05 * 1.001

    def test_margin_no_memory(self):
        law = MaterialLaw(np.eye(2), zero_fn(2), r=1.0)
        assert margin(law, 3.0) == pytest.approx(3.0)

    def test_margin_threshold(self):
        # gamma = 0.5, mu ~ 1.05: positive only past mu/gamma
        law = MaterialLaw(np.diag([0.5, 1.0]), constant_fn(np.eye(2)), r=1.0)
        assert margin(law, 2.0) < 0
        assert margin(law, 2.2) > 0

    def test_select_rho_satisfies_constraints(self):
        for seed in range(4):
            law = random_law(seed + 20)
            rho = select_rho(law)
            assert rho > 1.0 / (2.0 * law.r)
            assert margin(law, rho) > 0

    def test_empirical_coercivity_of_derivative_part(self):
        # Re <chi u | d/dt(M u)> >= beta0 <chi u | chi u> on random fields
        grid = WeightedGrid(-4.0, 16.0 / 1024, 1024, 3.0)
        law = random_law(21)
        beta0 = margin(law, grid.rho)
        assert beta0 > 0
        # d/dt M is the matrix symbol (i s + rho) M(z_s)
        w = 1j * grid.freqs + grid.rho
        dm = w[:, None, None] * symbol(law, grid)
        worst = np.inf
        for seed in range(20):
            u = interior_signal(grid, dim=2, seed=100 + seed)
            chi_u = truncate_before(u, 0.0)
            tu = apply_symbol(u, dm)
            denom = rho_inner(chi_u, chi_u).real
            worst = min(worst, (rho_inner(chi_u, tu).real - beta0 * denom) / denom)
        assert worst >= -1e-6

    def test_symbol_points_inside_ball(self):
        law = random_law(22)
        s = np.linspace(-50, 50, 101)
        rho = 2.0
        mats = law_symbol(law, 1j * s + rho)
        assert np.all(np.isfinite(mats))
        zs = 1.0 / (1j * s + rho)
        assert np.all(np.abs(zs - law.r) < law.r)


def rayleigh_min_eig(m: np.ndarray, seed: int, iters: int = 500) -> float:
    """Independent smallest-eigenvalue oracle for Hermitian positive m.

    Inverse power iteration drives the Rayleigh quotient to its minimum
    without going through the library eigensolver.
    """
    rng = np.random.default_rng(seed)
    d = m.shape[0]
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    lam = float((v.conj() @ m @ v).real)
    for _ in range(iters):
        v = np.linalg.solve(m, v)
        v /= np.linalg.norm(v)
        lam_new = float((v.conj() @ m @ v).real)
        if abs(lam_new - lam) < 1e-14 * max(abs(lam), 1.0):
            return lam_new
        lam = lam_new
    return lam
