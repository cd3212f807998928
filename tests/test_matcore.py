import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radiuslab import matcore, radius
from radiuslab.ensembles import EnsembleSpec, generate, random_unit_vectors

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)


def _ginibre(n, seed, scale=1.0):
    return generate(EnsembleSpec("ginibre", n, seed, scale))


def _complex_matrices(max_n=4):
    side = st.integers(min_value=1, max_value=max_n)
    return side.flatmap(lambda n: arrays(
        np.float64, (2, n, n),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    ).map(lambda parts: parts[0] + 1j * parts[1]))


class TestAdjoint:
    def test_real_transpose(self):
        np.testing.assert_array_equal(matcore.adjoint(E12),
                                      np.array([[0, 0], [1, 0]], dtype=complex))

    def test_conjugation(self):
        np.testing.assert_array_equal(matcore.adjoint(np.array([[1j]])),
                                      np.array([[-1j]]))

    def test_involution_bitwise(self):
        a = _ginibre(3, 7)
        assert np.array_equal(matcore.adjoint(matcore.adjoint(a)), a)

    @settings(max_examples=50, deadline=None)
    @given(_complex_matrices())
    def test_involution_property(self, a):
        assert np.array_equal(matcore.adjoint(matcore.adjoint(a)), a)


class TestCartesianParts:
    def test_worked_matrix(self):
        re = matcore.re_part(WORKED)
        im = matcore.im_part(WORKED)
        np.testing.assert_allclose(re, [[1.0, 0.5], [0.5, 0.0]], atol=0)
        np.testing.assert_allclose(im, [[0.0, -0.5j], [0.5j, 0.0]], atol=0)

    def test_hermitian_input(self):
        h = generate(EnsembleSpec("hermitian", 4, 11))
        np.testing.assert_array_equal(matcore.re_part(h), h)
        assert np.abs(matcore.im_part(h)).max() == 0.0

    def test_reconstruction(self):
        a = _ginibre(5, 3)
        np.testing.assert_allclose(matcore.re_part(a) + 1j * matcore.im_part(a), a,
                                   atol=1e-14)

    def test_parts_are_hermitian(self):
        a = _ginibre(4, 9)
        for part in (matcore.re_part(a), matcore.im_part(a)):
            assert matcore.hermitian_defect(part) == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(matcore.MatrixShapeError):
            matcore.re_part(np.ones((2, 3)))

    @settings(max_examples=50, deadline=None)
    @given(_complex_matrices())
    def test_reconstruction_property(self, a):
        re, im = matcore.re_part(a), matcore.im_part(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(re + 1j * im - a).max() <= 1e-14 * scale


class TestRotate:
    def test_zero_angle_exact(self):
        a = _ginibre(3, 2)
        assert np.array_equal(matcore.rotate(a, 0.0), a)

    def test_half_turn(self):
        np.testing.assert_allclose(matcore.rotate(np.eye(2), math.pi), -np.eye(2),
                                   atol=1e-15)

    def test_cartesian_expansion(self):
        # Re(e^{i theta} T) == cos(theta) Re(T) - sin(theta) Im(T)
        a = _ginibre(4, 5)
        re, im = matcore.re_part(a), matcore.im_part(a)
        for theta in np.linspace(0.0, 2 * math.pi, 9):
            lhs = matcore.re_part(matcore.rotate(a, theta))
            rhs = math.cos(theta) * re - math.sin(theta) * im
            assert np.abs(lhs - rhs).max() <= 1e-13


class TestHermitianEigs:
    def test_diagonal(self):
        res = matcore.hermitian_eigs(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        res = matcore.hermitian_eigs(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(res.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_worked_matrix_real_part(self):
        res = matcore.hermitian_eigs(matcore.re_part(WORKED))
        expected = [(1 - math.sqrt(2)) / 2, (1 + math.sqrt(2)) / 2]
        np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(matcore.NonHermitianInput):
            matcore.hermitian_eigs(E12)

    def test_orthonormality_and_residual(self):
        for seed in range(8):
            h = generate(EnsembleSpec("hermitian", 6, 40 + seed))
            res = matcore.hermitian_eigs(h)
            n = h.shape[0]
            defect = np.abs(matcore.adjoint(res.eigenvectors) @ res.eigenvectors
                            - np.eye(n)).max()
            assert defect <= 1e-11
            assert res.residual <= 1e-12 * max(1.0, matcore.frobenius_norm(h))
            assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_near_hermitian_symmetrized(self):
        h = generate(EnsembleSpec("hermitian", 3, 1))
        noisy = h + 1e-13 * E12[0, 1] * np.eye(3)  # still well inside tolerance
        res = matcore.hermitian_eigs(noisy)
        assert res.residual <= 1e-12 * max(1.0, matcore.frobenius_norm(h))


class TestSpectralNorm:
    def test_rank_one(self):
        assert matcore.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, abs=1e-14)

    def test_unitary_is_isometry(self):
        u = generate(EnsembleSpec("haar_unitary", 5, 21))
        assert matcore.spectral_norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_worked_matrix(self):
        assert matcore.spectral_norm(WORKED) == pytest.approx(math.sqrt(2.0), abs=1e-13)

    def test_hermitian_path_agreement(self):
        # sqrt(lambda_max(A*A)) must match max |eigenvalue| on Hermitian input
        for seed in range(10):
            h = generate(EnsembleSpec("hermitian", 5, 60 + seed))
            via_gram = matcore.spectral_norm(h)
            via_eigs = float(np.abs(matcore.hermitian_eigs(h).eigenvalues).max())
            assert abs(via_gram - via_eigs) <= 1e-12 * max(1.0, via_eigs)

    def test_unitary_invariance(self):
        a = _ginibre(4, 8)
        u = generate(EnsembleSpec("haar_unitary", 4, 81))
        v = generate(EnsembleSpec("haar_unitary", 4, 82))
        assert matcore.spectral_norm(u @ a @ v) == pytest.approx(
            matcore.spectral_norm(a), abs=1e-10)

    def test_batched_matches_scalar(self):
        stack = np.stack([_ginibre(4, 100 + k) for k in range(6)])
        many = matcore.spectral_norm_many(stack)
        assert many.tolist() == [matcore.spectral_norm(m) for m in stack]


# far enough out that squares underflow or overflow, and at the edge of it
EXTREME_SCALES = (1e-300, 1e-160, 1e160)


class TestScaleSafeNorms:
    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_norms_scale_exactly(self, scale):
        a = _ginibre(4, 120)
        big = scale * a
        assert matcore.frobenius_norm(big) == pytest.approx(
            scale * matcore.frobenius_norm(a), rel=1e-14)
        assert matcore.spectral_norm(big) == pytest.approx(
            scale * matcore.spectral_norm(a), rel=1e-14)
        stack = np.stack([a, big, np.zeros((4, 4))])
        np.testing.assert_allclose(matcore.spectral_norm_many(stack),
                                   [matcore.spectral_norm(m) for m in stack], rtol=1e-14)

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_worked_matrix_at_scale(self, scale):
        assert matcore.frobenius_norm(scale * WORKED) == pytest.approx(
            scale * math.sqrt(2.0), rel=1e-15)
        assert matcore.spectral_norm(scale * WORKED) == pytest.approx(
            scale * math.sqrt(2.0), rel=1e-15)

    def test_overflow_to_inf_and_empty_stack(self):
        huge = 1e308 * np.ones((2, 2))
        assert matcore.frobenius_norm(huge) == math.inf
        assert matcore.spectral_norm(huge) == math.inf
        np.testing.assert_array_equal(matcore.spectral_norm_many(np.stack([huge, np.eye(2)])),
                                      [math.inf, 1.0])
        assert matcore.spectral_norm_many(np.zeros((0, 3, 3))).shape == (0,)

    def test_frobenius_of_a_stack(self):
        a = _ginibre(4, 122)
        stack = np.stack([a, 2.0 ** 600 * a, 2.0 ** -600 * np.kron(E12, np.eye(2)),
                          np.zeros((4, 4))])
        assert matcore.frobenius_norm(stack).tolist() == [
            matcore.frobenius_norm(m) for m in stack]

    def test_hermitian_defect_at_scale(self):
        # ||A - A*||_F of the raw entries overflows at 1e200; near-Hermitian
        # input there must still be accepted
        h = generate(EnsembleSpec("hermitian", 4, 3))
        g = generate(EnsembleSpec("ginibre", 4, 4))
        a = 1e200 * (h + 1e-13 * g)
        assert 0.0 < matcore.hermitian_defect(a) < 1e-10 * matcore.frobenius_norm(a)
        np.testing.assert_array_equal(matcore.require_hermitian(a),
                                      (a + matcore.adjoint(a)) / 2)

    def test_binary_scaled_is_exact(self):
        a = _ginibre(3, 121) * 1e-200
        scaled, exponent = matcore.binary_scaled(a)
        assert 0.5 <= np.abs(scaled.view(np.float64)).max() < 1.0
        np.testing.assert_array_equal(np.ldexp(scaled.view(np.float64), exponent),
                                      a.view(np.float64))
        assert matcore.binary_scaled(np.zeros((2, 2)))[1] == 0


class TestFrobeniusAndTrace:
    def test_trace_of_square(self):
        # w_2(D)^2 = ||D||_F^2 / 2 + |tr(D^2)| / 2 = 1 + 1
        d = np.diag([1.0, -1.0]).astype(complex)
        assert radius.hs_radius_sq(d) == pytest.approx(2.0)

    def test_unit_frobenius(self):
        assert matcore.frobenius_norm(E12) == 1.0

    def test_adjoint_preserves_frobenius(self):
        a = _ginibre(4, 13)
        assert matcore.frobenius_norm(matcore.adjoint(a)) == matcore.frobenius_norm(a)

    def test_submultiplicative_sweep(self):
        for seed in range(100):
            a = _ginibre(3, 200 + seed)
            b = _ginibre(3, 300 + seed)
            assert (matcore.frobenius_norm(a @ b)
                    <= matcore.frobenius_norm(a) * matcore.frobenius_norm(b) + 1e-12)


class TestSqrtDefectAndCayley:
    def test_not_a_contraction(self):
        with pytest.raises(matcore.NotAContraction):
            matcore.cayley_unitary(np.diag([1.1]))

    def test_cayley_zero(self):
        np.testing.assert_allclose(matcore.cayley_unitary(np.zeros((2, 2))),
                                   1j * np.eye(2), atol=1e-14)

    def test_cayley_identity(self):
        np.testing.assert_allclose(matcore.cayley_unitary(np.diag([1.0])),
                                   np.diag([1.0 + 0j]), atol=1e-12)

    def test_cayley_postconditions(self):
        s = generate(EnsembleSpec("hermitian_contraction", 4, 11))
        u = matcore.cayley_unitary(s)
        assert np.abs(matcore.adjoint(u) @ u - np.eye(4)).max() <= 1e-10
        assert np.abs(matcore.re_part(u) - s).max() <= 1e-10

    def test_cayley_validates_once(self, monkeypatch):
        calls = []
        require = matcore.require_hermitian

        def spy(a, tol=matcore.HERMITIAN_RTOL):
            calls.append(tol)
            return require(a, tol)

        monkeypatch.setattr(matcore, "require_hermitian", spy)
        matcore.cayley_unitary(generate(EnsembleSpec("hermitian_contraction", 4, 11)))
        assert len(calls) == 1


class TestInvariants:
    def test_cartesian_identity(self):
        # Re^2 + Im^2 of every rotation equals (A A* + A* A)/2
        a = _ginibre(5, 17)
        target = (a @ matcore.adjoint(a) + matcore.adjoint(a) @ a) / 2
        budget = 1e-12 * matcore.frobenius_norm(a) ** 2
        phis = generate(EnsembleSpec("ginibre", 4, 23)).real.reshape(-1)
        assert len(phis) == 16
        for phi in phis:
            rot = matcore.rotate(a, float(phi))
            re, im = matcore.re_part(rot), matcore.im_part(rot)
            assert np.abs(re @ re + im @ im - target).max() <= budget

    def test_buzano_vector_inequality(self):
        # |<a,c>|^2 + |<b,c>|^2 <= ||c||^2 (max(||a||^2, ||b||^2) + |<a,b>|)
        count = 0
        for block, dim in enumerate(range(2, 9)):
            vecs = random_unit_vectors(900 + block, 3 * 72, dim)
            for k in range(72):
                a, b, c = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
                lhs = abs(np.vdot(c, a)) ** 2 + abs(np.vdot(c, b)) ** 2
                rhs = max(np.vdot(a, a).real, np.vdot(b, b).real) + abs(np.vdot(b, a))
                assert lhs <= rhs + 1e-12
                count += 1
        assert count >= 500


class TestValidation:
    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(matcore.NonFiniteEntry):
            matcore.as_matrix(bad)

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(matcore.MatrixShapeError):
            matcore.as_matrix(np.ones((0, 2)))
        with pytest.raises(matcore.MatrixShapeError):
            matcore.as_matrix(np.ones(3))
