import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radiuslab import matcore, radius
from radiuslab.ensembles import EnsembleSpec, generate
from radiuslab.norms import (
    frobenius_norm_spec,
    numerical_radius_norm_spec,
    operator_norm_spec,
    schatten_norm_spec,
)
from radiuslab.radius import (
    alphabeta_radius,
    generalized_radius,
    hs_radius_sq,
    numerical_radius,
    numerical_radius_oracle,
    omega_norm,
    omega_radius,
    omega_radius_slow,
    omega_vector_lower_bound,
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
W_WORKED = (1.0 + math.sqrt(2.0)) / 2.0
OP = operator_norm_spec()
FRO = frobenius_norm_spec()


class TestGeneralizedRadius:
    def test_worked_matrix_operator_norm(self):
        res = generalized_radius(WORKED, OP)
        assert res.value == pytest.approx(W_WORKED, abs=1e-9)

    def test_hermitian_reaches_spectral_norm(self):
        h = generate(EnsembleSpec("hermitian", 4, 3))
        res = generalized_radius(h, OP)
        assert res.value == pytest.approx(matcore.spectral_norm(h), abs=1e-10)

    def test_flat_frobenius_objective(self):
        # ||Re(e^{i theta} E12)||_F = sqrt(2)/2 for every theta
        res = generalized_radius(E12, FRO)
        assert res.value == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_result_invariants(self):
        for seed in range(5):
            a = generate(EnsembleSpec("ginibre", 4, 50 + seed))
            res = generalized_radius(a, OP, refine_tol=1e-10)
            assert res.achieved_interval <= 1e-10
            assert 0.0 <= res.argmax_theta < 2 * math.pi
            re_eval = OP.evaluate(matcore.re_part(matcore.rotate(a, res.argmax_theta)))
            assert abs(res.value - re_eval) <= 1e-12 * max(1.0, res.value)
            assert res.evaluations > 0


def _top_eigenvalue(h):
    return np.linalg.eigvalsh(h)[..., -1]


class TestRotatedObjective:
    ANGLES = np.arange(37) * (2 * math.pi / 37)

    @pytest.mark.parametrize("spec", [OP, FRO, schatten_norm_spec(1)])
    def test_one_angle_and_grid_match_explicit_operands(self, spec):
        a = generate(EnsembleSpec("ginibre", 4, 41))
        re, im = matcore.re_part(a), matcore.im_part(a)
        F = radius.rotated_objective(a, spec.evaluate, spec.evaluate_many)
        for t in (0.0, 0.3, 2.5, 5.9):
            assert F(t) == spec.evaluate(math.cos(t) * re - math.sin(t) * im)
        c, s = np.cos(self.ANGLES), np.sin(self.ANGLES)
        stack = c[:, None, None] * re - s[:, None, None] * im
        np.testing.assert_array_equal(F(self.ANGLES), spec.evaluate_many(stack))

    def test_imaginary_part_coefficients(self):
        a = generate(EnsembleSpec("ginibre", 4, 42))
        F = radius.rotated_objective(a, _top_eigenvalue, _top_eigenvalue,
                                     radius.im_coefficients)
        expected = [float(_top_eigenvalue(matcore.im_part(matcore.rotate(a, phi))))
                    for phi in self.ANGLES]
        atol = 1e-14 * max(1.0, matcore.spectral_norm(a))
        np.testing.assert_allclose(F(self.ANGLES), expected, rtol=0, atol=atol)
        for phi, value in zip(self.ANGLES, expected):
            assert abs(F(float(phi)) - value) <= atol


class TestNumericalRadius:
    def test_worked_matrix(self):
        assert numerical_radius(WORKED).value == pytest.approx(W_WORKED, abs=1e-9)

    def test_square_zero(self):
        assert numerical_radius(E12).value == pytest.approx(0.5, abs=1e-10)

    def test_normal_equals_spectral_norm(self):
        a = generate(EnsembleSpec("normal", 4, 3))
        assert numerical_radius(a).value == pytest.approx(
            matcore.spectral_norm(a), abs=1e-8)

    def test_lambda_max_method_agrees(self):
        for seed in range(5):
            a = generate(EnsembleSpec("ginibre", 3, 20 + seed))
            fast = numerical_radius(a).value
            grid = generalized_radius(a, OP).value
            assert abs(fast - grid) <= 1e-10 * max(1.0, fast)


def _top_at(a, theta):
    """lambda_max(Re(exp(i theta) A)) from the explicit operand."""
    re, im = matcore.re_part(a), matcore.im_part(a)
    return float(np.linalg.eigvalsh(math.cos(theta) * re - math.sin(theta) * im)[-1])


def _engine(a):
    """numerical_radius(a), checked to attain its value at its argmax."""
    res = numerical_radius(a)
    assert 0.0 <= res.argmax_theta < 2 * math.pi
    assert _top_at(a, res.argmax_theta) == res.value
    return res


def _e12_plus(d):
    """E12 (flat lambda_max 1/2) direct sum the scalar d."""
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1], a[2, 2] = 1.0, d
    return a


class TestLevelSetEngine:
    def test_zero_matrix_is_exactly_zero(self):
        res = numerical_radius(np.zeros((3, 3)))
        assert (res.value, res.argmax_theta, res.evaluations) == (0.0, 0.0, 0)

    def test_one_by_one(self):
        res = _engine(np.array([[2.0 - 1.0j]]))
        assert res.value == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert res.argmax_theta == pytest.approx(math.atan2(1.0, 2.0), abs=1e-7)

    @pytest.mark.parametrize("c, theta", [(3.0, 0.0), (-2.0, math.pi), (1j, 1.5 * math.pi),
                                          (0.7 * np.exp(0.3j), 2 * math.pi - 0.3)])
    def test_scalar_identity(self, c, theta):
        # lambda_max(Re(exp(i t) c I)) = |c| cos(t + arg c): one maximizer
        res = _engine(c * np.eye(3))
        assert res.value == pytest.approx(abs(c), rel=1e-15)
        assert res.argmax_theta == pytest.approx(theta, abs=1e-7)

    def test_ties_go_to_the_smallest_angle(self):
        # |cos t| peaks at 0 and pi, 2 |sin t| at pi/2 and 3 pi/2: seeds tie exactly
        res = _engine(np.diag([1.0, -1.0]).astype(complex))
        assert (res.value, res.argmax_theta) == (1.0, 0.0)
        res = _engine(np.diag([2.0j, -2.0j]))
        assert res.value == 2.0
        assert res.argmax_theta == pytest.approx(math.pi / 2, abs=1e-7)

    def test_flat_lambda_max(self):
        assert _engine(E12).value == pytest.approx(0.5, rel=1e-15)
        for n in (2, 3, 5, 8):
            for seed in range(3):
                a = generate(EnsembleSpec("square_zero", n, 60 + seed))
                res = _engine(a)
                assert res.value == pytest.approx(matcore.spectral_norm(a) / 2, rel=1e-14)

    def test_flat_branch_below_the_maximum(self):
        # the seeds see only E12's flat 1/2, where the pencil is singular and
        # the grid optimizer finishes the search
        for d in (0.52 * np.exp(0.125j * math.pi), 0.5 + 1e-7):
            assert _engine(_e12_plus(d)).value == pytest.approx(abs(d), rel=1e-15)

    @pytest.mark.parametrize("kind", ["hermitian", "normal", "haar_unitary"])
    def test_normal_inputs_reach_the_norm(self, kind):
        for n in (2, 4, 7):
            a = generate(EnsembleSpec(kind, n, 70 + n))
            assert _engine(a).value == pytest.approx(matcore.spectral_norm(a), rel=1e-14)

    def test_scalar_multiples(self):
        a = generate(EnsembleSpec("ginibre", 4, 71))
        w = _engine(a).value
        for c in (3.0, -0.5, 2j, 1e-3 * np.exp(0.7j), 1e3):
            assert _engine(c * a).value == pytest.approx(abs(c) * w, rel=1e-14)

    def test_shift_on_a_pencil_eigenvalue_is_retried(self):
        # t solves shift^2 t - 2 r shift + conj(t) = 0, so the first shift is
        # an eigenvalue of the pencil of diag(t, 1/2) at level r
        shift, r = radius._SHIFTS[0], 0.3
        rows = np.array([[(shift ** 2 + 1).real, (1j * (shift ** 2 - 1)).real],
                         [(shift ** 2 + 1).imag, (1j * (shift ** 2 - 1)).imag]])
        x, y = np.linalg.solve(rows, [(2 * r * shift).real, (2 * r * shift).imag])
        a = np.diag([complex(x, y), 0.5])
        pencil = shift ** 2 * a - 2 * r * shift * np.eye(2) + matcore.adjoint(a)
        assert np.linalg.svd(pencil, compute_uv=False)[-1] < 1e-14
        scale = np.abs(a).max()
        cross = radius._level_crossings(a / scale, r / scale)
        # only the 1/2 block crosses: cos(t) / 2 = r
        expected = [math.acos(2 * r), 2 * math.pi - math.acos(2 * r)]
        np.testing.assert_allclose(cross, expected, rtol=0, atol=1e-12)

    def test_certificate_at_the_maximum(self):
        # just above w no angle reaches the level; just below, two crossings
        # bracket the maximizer
        a = generate(EnsembleSpec("ginibre", 5, 72))
        res = _engine(a)
        scale = np.abs(a).max()
        assert radius._level_crossings(a / scale, res.value / scale * (1 + 1e-6)).size == 0
        below = radius._level_crossings(a / scale, res.value / scale * (1 - 1e-6))
        assert below.size >= 2
        assert res.achieved_interval < 1e-6


AGREEMENT_KINDS = ("ginibre", "hermitian", "normal", "square_zero", "haar_unitary")
AGREEMENT_DIMS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32)


class TestLevelSetAgreement:
    def test_matches_the_grid_path(self):
        draws = 0
        for kind in AGREEMENT_KINDS:
            for n in AGREEMENT_DIMS:
                if kind == "square_zero" and n == 1:
                    continue
                for seed in range(4):
                    a = generate(EnsembleSpec(kind, n, 1000 + 10 * n + seed))
                    w = _engine(a).value
                    grid = generalized_radius(a, OP).value
                    assert abs(w - grid) <= 1e-12 * max(1.0, w), (kind, n, seed)
                    draws += 1
        assert draws >= 200

    def test_matches_the_oracle(self):
        for seed in range(8):
            kind = AGREEMENT_KINDS[seed % len(AGREEMENT_KINDS)]
            a = generate(EnsembleSpec(kind, 2 + seed % 4, 1100 + seed))
            w = numerical_radius(a).value
            assert abs(w - numerical_radius_oracle(a)) <= 1e-9 * max(1.0, w)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6)
                      .filter(lambda shape: shape[0] == shape[1]),
                      elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                  allow_infinity=False)))
    def test_grid_path_never_exceeds_the_engine(self, a):
        # every grid value is attained, so it is a lower bound on w
        w = _engine(a).value
        assert generalized_radius(a, OP).value <= w + 1e-12 * max(1.0, w)


class TestOracle:
    def test_identity(self):
        assert numerical_radius_oracle(np.eye(3), grid=5000) == pytest.approx(1.0, abs=1e-12)

    def test_worked_matrix(self):
        assert numerical_radius_oracle(WORKED) == pytest.approx(W_WORKED, abs=1e-9)

    def test_agreement_small_sweep(self):
        for seed in range(10):
            a = generate(EnsembleSpec("ginibre", 2 + seed % 4, 100 + seed))
            w = numerical_radius(a).value
            oracle = numerical_radius_oracle(a, grid=50000)
            assert abs(w - oracle) <= 1e-8 * max(1.0, oracle)


class TestAlphaBeta:
    def test_agrees_with_rotation_form(self):
        for seed in range(25):
            a = generate(EnsembleSpec("ginibre", 3, 150 + seed))
            for spec in (OP, FRO):
                assert abs(alphabeta_radius(a, spec)
                           - generalized_radius(a, spec).value) <= 1e-9

    def test_hermitian(self):
        h = generate(EnsembleSpec("hermitian", 3, 9))
        assert alphabeta_radius(h, OP) == pytest.approx(
            matcore.spectral_norm(h), abs=1e-10)

    def test_worked_matrix(self):
        assert alphabeta_radius(WORKED, OP) == pytest.approx(W_WORKED, abs=1e-9)


class TestOmegaNorm:
    def test_hermitian_closed_form(self):
        h = generate(EnsembleSpec("hermitian", 4, 7))
        res = omega_norm(h)
        assert res.value == pytest.approx(math.sqrt(2.0) * matcore.spectral_norm(h),
                                          abs=1e-9)
        assert res.argmax[0] == pytest.approx(math.pi / 4, abs=1e-6)

    def test_square_zero(self):
        res = omega_norm(E12)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_normal_closed_form(self):
        a = generate(EnsembleSpec("normal", 3, 5))
        assert omega_norm(a).value == pytest.approx(
            math.sqrt(2.0) * matcore.spectral_norm(a), abs=1e-7)

    def test_result_invariants(self):
        for seed in range(4):
            a = generate(EnsembleSpec("ginibre", 3, 200 + seed))
            res = omega_norm(a)
            s, psi = res.argmax
            assert 0.0 <= s <= math.pi / 2 and 0.0 <= psi < 2 * math.pi
            direct = matcore.spectral_norm(
                math.cos(s) * a + np.exp(1j * psi) * math.sin(s) * matcore.adjoint(a))
            assert abs(res.value - direct) <= 1e-12 * max(1.0, res.value)
            assert res.achieved_cell <= 1e-9

    def test_sandwich(self):
        for seed in range(10):
            a = generate(EnsembleSpec("ginibre", 4, 300 + seed))
            nrm = matcore.spectral_norm(a)
            om = omega_norm(a).value
            assert nrm - 1e-9 <= om <= math.sqrt(2.0) * nrm + 1e-9


def _reference_omega_grid(a, grid_s, grid_psi):
    """The direct grid evaluation: build cos(s) A + exp(i psi) sin(s) A*
    for every node and take its spectral norm, one s row at a time."""
    at = matcore.adjoint(a)
    s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
    p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
    out = np.empty((grid_s, grid_psi))
    for i, s in enumerate(s_nodes):
        coef_b = math.sin(s) * np.exp(1j * p_nodes)
        stack = math.cos(s) * a + coef_b[:, None, None] * at
        out[i] = matcore.spectral_norm_many(stack)
    return out


def _svd_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


OMEGA_KINDS = ("ginibre", "normal", "hermitian", "square_zero")


class TestOmegaGramGrid:
    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("grid_s, grid_psi", [(13, 24), (96, 192)])
    def test_matches_direct_grid(self, kind, dim, grid_s, grid_psi):
        a = generate(EnsembleSpec(kind, dim, 900 + dim))
        s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
        p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
        vals, evaluated = radius._omega_grid(radius._omega_basis(a), s_nodes, p_nodes)
        ref = _reference_omega_grid(a, grid_s, grid_psi)
        assert evaluated == ((grid_s + 1) // 2) * grid_psi
        scale = ref.max()
        # both sides are square roots of Gram eigenvalues: compare those to
        # the grid's scale, and the norms themselves wherever no cancellation
        # drives them to rounding level (Hermitian T at s = pi/4, psi = pi)
        np.testing.assert_allclose(vals ** 2, ref ** 2, rtol=1e-12, atol=1e-12 * scale ** 2)
        away = ref > 1e-4 * scale
        np.testing.assert_allclose(vals[away], ref[away], rtol=1e-12)

    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    def test_mirror_identity_and_probe(self, kind):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 8):
            a = generate(EnsembleSpec(kind, dim, 950 + dim))
            at = matcore.adjoint(a)
            g = radius._omega_objective(radius._omega_basis(a))
            for s, psi in zip(rng.uniform(0, math.pi / 2, 10), rng.uniform(0, 2 * math.pi, 10)):
                phase = np.exp(1j * psi)
                lhs = _svd_norm(math.cos(s) * a + phase * math.sin(s) * at)
                rhs = _svd_norm(math.sin(s) * a + phase * math.cos(s) * at)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)
                assert g(s, psi) == pytest.approx(lhs, rel=1e-12, abs=1e-12 * _svd_norm(a))

    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    def test_value_attained_at_argmax(self, kind):
        for dim in (2, 3, 8):
            t = generate(EnsembleSpec(kind, dim, 980 + dim))
            for opts in ({}, radius.SLOW_OMEGA_INNER):
                res = omega_norm(t, **opts)
                s, psi = res.argmax
                at_max = math.cos(s) * t + np.exp(1j * psi) * math.sin(s) * matcore.adjoint(t)
                assert res.value == pytest.approx(_svd_norm(at_max), rel=1e-12)

    @pytest.mark.parametrize("grid_s, rows", [(13, 7), (12, 6)])
    def test_evaluations_count_half_grid(self, grid_s, rows):
        res = omega_norm(WORKED, grid_s=grid_s, grid_psi=24, top_cells=1, max_rounds=0)
        assert res.evaluations == rows * 24


class TestOmegaVectorLowerBound:
    def test_never_exceeds_omega(self):
        for seed in range(100):
            kind = ("ginibre", "normal", "square_zero")[seed % 3]
            a = generate(EnsembleSpec(kind, 2 + seed % 3, 400 + seed))
            lb = omega_vector_lower_bound(a, 50, seed)
            assert lb <= omega_norm(a).value + 1e-9

    def test_identity_monte_carlo(self):
        lb = omega_vector_lower_bound(np.eye(2), 4000, 77)
        assert lb <= math.sqrt(2.0) + 1e-9
        assert lb >= math.sqrt(2.0) - 0.05

    def test_zero(self):
        assert omega_vector_lower_bound(np.zeros((3, 3)), 10, 1) == 0.0


class TestOmegaRadius:
    def test_identity(self):
        assert omega_radius(np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_square_zero(self):
        assert omega_radius(E12) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)

    def test_normal_matches_omega(self):
        a = generate(EnsembleSpec("normal", 3, 8))
        assert omega_radius(a) == pytest.approx(omega_norm(a).value, abs=1e-7)

    def test_slow_path_agreement(self):
        for seed, kind in ((1, "ginibre"), (2, "normal"), (3, "square_zero")):
            a = generate(EnsembleSpec(kind, 3, 500 + seed))
            w = numerical_radius(a).value
            assert abs(omega_radius_slow(a) - math.sqrt(2.0) * w) \
                <= 1e-7 * max(1.0, w)


class TestHilbertSchmidtRadius:
    def test_square_zero(self):
        assert hs_radius_sq(E12) == pytest.approx(0.5)
        assert generalized_radius(E12, FRO).value ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_identity(self):
        assert hs_radius_sq(np.eye(2)) == pytest.approx(2.0)

    def test_zero(self):
        assert hs_radius_sq(np.zeros((3, 3))) == 0.0

    def test_identity_matches_radius(self):
        for seed in range(20):
            a = generate(EnsembleSpec("ginibre", 3, 600 + seed))
            w2 = generalized_radius(a, FRO).value
            assert abs(w2 ** 2 - hs_radius_sq(a)) <= 1e-9 * max(1.0, hs_radius_sq(a))


ENSEMBLE_CASES = [("ginibre", 3), ("ginibre", 5), ("hermitian", 4), ("normal", 4),
                  ("square_zero", 4), ("haar_unitary", 3)]


class TestSandwichProperties:
    def test_operator_norm_sandwich(self):
        for kind, dim in ENSEMBLE_CASES:
            for seed in range(10):
                a = generate(EnsembleSpec(kind, dim, 700 + seed))
                nrm = matcore.spectral_norm(a)
                w = numerical_radius(a).value
                assert 0.5 * nrm - 1e-9 <= w <= nrm + 1e-9

    def test_generalized_sandwich_and_parts(self):
        specs = [OP, schatten_norm_spec(1), FRO]
        for kind, dim in ENSEMBLE_CASES[:4]:
            for seed in range(4):
                a = generate(EnsembleSpec(kind, dim, 750 + seed))
                at = matcore.adjoint(a)
                re, im = matcore.re_part(a), matcore.im_part(a)
                for spec in specs:
                    wn = generalized_radius(a, spec).value
                    n = spec.evaluate(a)
                    assert 0.5 * n - 1e-9 <= wn <= n + 1e-9
                    assert spec.evaluate(re) <= wn + 1e-9
                    assert spec.evaluate(im) <= wn + 1e-9
                    assert abs(generalized_radius(at, spec).value - wn) <= 1e-9 * max(1.0, wn)

    def test_radius_fixed_point(self):
        # w_N with N = w recovers w itself (they agree on Hermitian input)
        wnum = numerical_radius_norm_spec()
        for seed in (1, 2, 3):
            a = generate(EnsembleSpec("ginibre", 3, 800 + seed))
            w = numerical_radius(a).value
            assert abs(generalized_radius(a, wnum).value - w) <= 1e-8 * max(1.0, w)

    def test_weak_unitary_invariance(self):
        for seed in range(5):
            a = generate(EnsembleSpec("ginibre", 3, 850 + seed))
            u = generate(EnsembleSpec("haar_unitary", 3, 860 + seed))
            conj = matcore.adjoint(u) @ a @ u
            w = numerical_radius(a).value
            assert abs(numerical_radius(conj).value - w) <= 1e-8 * max(1.0, w)
            om = omega_norm(a).value
            assert abs(omega_norm(conj).value - om) <= 1e-8 * max(1.0, om)
