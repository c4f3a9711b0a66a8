import numpy as np
import pytest

from conftest import constant_fn
from evowaves.rational import PoleError, RationalMatrixFunction, scalar_rational


def at(fn, z):
    """fn evaluated at the single point z."""
    return fn.eval_many([z])[0]


class TestEvaluation:
    def test_constant(self):
        fn = constant_fn(np.diag([2.0, 3.0]))
        assert np.allclose(at(fn, 0.3 + 0.1j), np.diag([2.0, 3.0]))

    def test_linear_term(self):
        fn = scalar_rational(const=1.0, lin=2.0)
        z = 0.4 - 0.2j
        assert at(fn, z)[0, 0] == pytest.approx(1.0 + 2.0 * z)

    def test_single_pole_two_routes(self):
        # partial fractions against the direct rational formula
        res = np.array([[0.7, 0.1], [0.0, -0.3]], dtype=complex)
        fn = RationalMatrixFunction(
            const=np.eye(2), lin=np.zeros((2, 2)),
            poles=np.array([-1.0]), residues=res[None],
        )
        z = 0.5
        direct = np.eye(2) + res / (z - (-1.0))
        assert np.abs(at(fn, z) - direct).max() < 1e-14

    def test_pole_hit_raises(self):
        fn = scalar_rational(poles=[-1.0], residues=[1.0])
        with pytest.raises(PoleError):
            at(fn, -1.0)

    def test_near_coincident_poles_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            scalar_rational(poles=[-1.0, -1.0 + 1e-12], residues=[1.0, 1.0])


class TestHolomorphy:
    def test_pole_inside_ball_rejected(self):
        fn = scalar_rational(poles=[0.5], residues=[1.0])
        with pytest.raises(ValueError, match="inside the closed ball"):
            fn.check_holomorphic(1.0)

    def test_pole_on_boundary_rejected(self):
        fn = scalar_rational(poles=[2.0], residues=[1.0])
        with pytest.raises(ValueError, match="inside the closed ball"):
            fn.check_holomorphic(1.0)

    def test_outside_pole_accepted(self):
        fn = scalar_rational(poles=[-0.1], residues=[1.0])
        assert fn.check_holomorphic(1.0) is None



class TestIsReal:
    """is_real: R(conj z) = conj R(z), the symbol of a kernel that is real in time."""

    @pytest.mark.parametrize(
        "fn,real",
        [
            (scalar_rational(const=0.3, lin=0.5, poles=[-1.0, -2.5], residues=[0.2, -0.3]), True),
            (scalar_rational(poles=[-1 + 2j, -2.0, -1 - 2j], residues=[0.5 - 1j, 0.1, 0.5 + 1j]), True),
            (scalar_rational(poles=[-1 + 2j], residues=[0.5]), False),
            (scalar_rational(poles=[-1 + 2j, -1 - 2j], residues=[0.5 - 1j, 0.5 - 1j]), False),
            (scalar_rational(const=0.3 + 1e-3j, poles=[-1.0], residues=[0.2]), False),
        ],
        ids=["real-poles", "conjugate-pair", "unpaired-pole", "pair-non-conjugate-residues", "complex-const"],
    )
    def test_cases(self, fn, real):
        assert fn.is_real() == real
        z = np.array([0.3 + 0.7j, -0.2 + 1.1j, 2.0 - 0.4j])
        asymmetry = np.abs(fn.eval_many(z.conj()) - fn.eval_many(z).conj()).max()
        assert asymmetry < 1e-14 if real else asymmetry > 1e-6
