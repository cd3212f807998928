import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from radiuslab import inequalities, matcore, radius
from radiuslab.ensembles import EnsembleSpec, generate, random_unit_vectors
from radiuslab.norms import (
    frobenius_norm_spec,
    numerical_radius_norm_spec,
    omega_norm_spec,
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
)

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
W_WORKED = (1.0 + math.sqrt(2.0)) / 2.0
OP = operator_norm_spec()
# op without its declared radius: generalized_radius takes the grid path,
# an optimizer independent of the level-set engine
OP_GRID = dataclasses.replace(OP, radius=None)
FRO = frobenius_norm_spec()


class TestGeneralizedRadius:
    def test_worked_matrix_operator_norm(self):
        res = generalized_radius(WORKED, OP_GRID)
        assert res.value == pytest.approx(W_WORKED, abs=1e-9)

    def test_hermitian_reaches_spectral_norm(self):
        h = generate(EnsembleSpec("hermitian", 4, 3))
        res = generalized_radius(h, OP_GRID)
        assert res.value == pytest.approx(matcore.spectral_norm(h), abs=1e-10)

    def test_flat_frobenius_objective(self):
        # ||Re(e^{i theta} E12)||_F = sqrt(2)/2 for every theta
        res = generalized_radius(E12, FRO)
        assert res.value == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)

    def test_result_invariants(self):
        for seed in range(5):
            a = generate(EnsembleSpec("ginibre", 4, 50 + seed))
            res = generalized_radius(a, OP_GRID, refine_tol=1e-10)
            assert res.achieved_interval <= 1e-10
            assert 0.0 <= res.argmax_theta < 2 * math.pi
            re_eval = OP.evaluate(matcore.re_part(matcore.rotate(a, res.argmax_theta)))
            assert abs(res.value - re_eval) <= 1e-12 * max(1.0, res.value)
            assert res.evaluations > 0

    @pytest.mark.parametrize("spec", [OP, schatten_norm_spec(math.inf)])
    def test_declared_radius_ignores_the_settings(self, spec):
        a = generate(EnsembleSpec("ginibre", 4, 55))
        w = numerical_radius(a)
        assert generalized_radius(a, spec) == w
        assert generalized_radius(a, spec, grid=8, refine_tol=1.0, top_brackets=1) == w


def _top_eigenvalue(h):
    return np.linalg.eigvalsh(h)[..., -1]


class TestRotatedObjective:
    ANGLES = np.arange(37) * (2 * math.pi / 37)

    @pytest.mark.parametrize("spec", [OP, FRO, schatten_norm_spec(1),
                                      numerical_radius_norm_spec()])
    def test_one_angle_and_grid_match_explicit_operands(self, spec):
        a = generate(EnsembleSpec("ginibre", 4, 41))
        re, im = matcore.re_part(a), matcore.im_part(a)
        F = radius.rotated_objective(a, spec.evaluate_many)
        for t in (0.0, 0.3, 2.5, 5.9):
            operand = math.cos(t) * re - math.sin(t) * im
            assert F(np.array([t]))[0] == spec.evaluate_many(operand[None])[0]
        c, s = np.cos(self.ANGLES), np.sin(self.ANGLES)
        stack = c[:, None, None] * re - s[:, None, None] * im
        np.testing.assert_array_equal(F(self.ANGLES), spec.evaluate_many(stack))

    def test_imaginary_part_coefficients(self):
        # Im(exp(i phi) T) = Re(exp(i (phi - pi/2)) T)
        a = generate(EnsembleSpec("ginibre", 4, 42))
        re_F = radius.rotated_objective(a, _top_eigenvalue)

        def F(angles):
            return re_F(angles - math.pi / 2)

        expected = [float(_top_eigenvalue(matcore.im_part(matcore.rotate(a, phi))))
                    for phi in self.ANGLES]
        atol = 1e-14 * max(1.0, matcore.spectral_norm(a))
        np.testing.assert_allclose(F(self.ANGLES), expected, rtol=0, atol=atol)
        for phi, value in zip(self.ANGLES, expected):
            assert abs(F(np.array([phi]))[0] - value) <= atol


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
            grid = generalized_radius(a, OP_GRID).value
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

    def test_shift_on_a_pencil_eigenvalue_is_retried(self, monkeypatch):
        # t solves shift^2 t - 2 r shift + conj(t) = 0, so the first shift is
        # an eigenvalue of the pencil of diag(t, 1/2) at level r
        r = 0.3
        a = _pencil_eigenvalue_at_shift(r, 0.5)
        shift = radius._SHIFTS[0]
        pencil = shift ** 2 * a - 2 * r * shift * np.eye(2) + matcore.adjoint(a)
        assert np.linalg.svd(pencil, compute_uv=False)[-1] < 1e-14
        scale = np.abs(a).max()
        # only the 1/2 block crosses: cos(t) / 2 = r
        expected = [math.acos(2 * r), 2 * math.pi - math.acos(2 * r)]
        cross, counts = _crossings((a / scale)[None], [r / scale])
        assert counts.tolist() == [2]
        np.testing.assert_allclose(cross, expected, rtol=0, atol=1e-12)
        # in a stack, only that member is solved again with the second shift,
        # and the others get what they get alone
        b = generate(EnsembleSpec("ginibre", 2, 73))
        b_scale = np.abs(b).max()
        b_level = 0.9 * numerical_radius(b).value / b_scale
        b_cross, b_counts = _crossings((b / b_scale)[None], [b_level])
        assert b_counts[0] >= 2
        solved = _count_solves(monkeypatch)
        cross, counts = _crossings(np.stack([b / b_scale, a / scale, b / b_scale]),
                                   [b_level, r / scale, b_level])
        assert solved == [3, 1]
        assert counts.tolist() == [b_counts[0], 2, b_counts[0]]
        first, mine, last = _split(cross, counts)
        assert first.tolist() == last.tolist() == b_cross.tolist()
        np.testing.assert_allclose(mine, expected, rtol=0, atol=1e-12)

    def test_certificate_at_the_maximum(self):
        # just above w no angle reaches the level; just below, two crossings
        # bracket the maximizer
        a = generate(EnsembleSpec("ginibre", 5, 72))
        res = _engine(a)
        scale = np.abs(a).max()
        that = a / scale
        levels = res.value / scale * np.array([1 + 1e-6, 1 - 1e-6])
        cross, counts = _crossings(np.stack([that, that]), levels)
        assert counts[0] == 0
        assert counts[1] >= 2 and cross.size == counts[1]
        assert res.achieved_interval < 1e-6


def _pencil_eigenvalue_at_shift(r, d):
    """diag(t, d) with t solving shift^2 t - 2 r shift + conj(t) = 0: the
    first shift is an eigenvalue of its pencil at level r."""
    shift = radius._SHIFTS[0]
    rows = np.array([[(shift ** 2 + 1).real, (1j * (shift ** 2 - 1)).real],
                     [(shift ** 2 + 1).imag, (1j * (shift ** 2 - 1)).imag]])
    x, y = np.linalg.solve(rows, [(2 * r * shift).real, (2 * r * shift).imag])
    return np.diag([complex(x, y), d])


def _crossings(thats, levels):
    """`_level_crossings` of a stack of scaled matrices at their levels."""
    return radius._level_crossings(*radius._pencils(thats), np.asarray(levels, dtype=float))


def _count_solves(monkeypatch):
    """The number of matrices of every np.linalg.solve call from now on."""
    sizes = []
    solve = np.linalg.solve

    def spy(a, b):
        sizes.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return sizes


def _split(cross, counts):
    """`_level_crossings` angles as one array per matrix (None where -1)."""
    ends = np.cumsum(np.maximum(counts, 0))
    return [None if c < 0 else cross[e - c:e] for c, e in zip(counts, ends)]


def _certified(a):
    """(numerical_radius(a), the disk test's verdicts while it ran): one
    list of booleans per disk test, one boolean per matrix tested."""
    verdicts = []
    test = radius._disk_certified

    def spy(spectra, level):
        verdict = test(spectra, level)
        verdicts.append(verdict.tolist())
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radius, "_disk_certified", spy)
        res = _engine(a)
    return res, verdicts


def _samples(n):
    """N, the number of angles of the disk test of an n x n matrix."""
    return 8 * math.ceil((2 * n + 1) / 8)


def _jordan(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


def _disk_draws():
    """Disk matrices (W(T) a disk about 0) with at most 4 rows."""
    return st.one_of(
        st.builds(lambda n, seed: generate(EnsembleSpec("square_zero", n, seed)),
                  st.integers(2, 4), st.integers(0, 10 ** 6)),
        st.builds(_jordan, st.integers(2, 4)),
        st.builds(lambda w: np.diag(w, 1).astype(complex),
                  hnp.arrays(np.float64, st.integers(1, 3), elements=st.floats(0.1, 2.0))))


class TestDiskCertificate:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_square_zero_is_exact(self, n):
        # ||T|| / 2 <= w(T) holds with equality when T^2 = 0
        for seed in range(3):
            a = generate(EnsembleSpec("square_zero", n, 1500 + seed))
            res, verdicts = _certified(a)
            assert verdicts == [[True]]
            assert res.value == pytest.approx(matcore.spectral_norm(a) / 2, rel=1e-14, abs=0)
            assert res.achieved_interval == 0.0
            # against 939 for the grid fallback
            assert res.evaluations <= 8 + _samples(n)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_jordan_block(self, n):
        # w(J_n) = cos(pi / (n + 1)) (Haagerup & de la Harpe 1992)
        res, verdicts = _certified(_jordan(n))
        assert verdicts == [[True]]
        assert res.value == pytest.approx(math.cos(math.pi / (n + 1)), rel=1e-14, abs=0)

    def test_weighted_shift_and_disk_plus_inner_point(self):
        # W(T) of a weighted shift is a disk about 0, of radius
        # lambda_max(Re T); E12 + d with |d| < 1/2 adds a point inside W(E12)
        shift = np.diag([1.0, 2.0, 0.5, 3.0, 0.25], 1).astype(complex)
        res, verdicts = _certified(shift)
        assert verdicts == [[True]]
        w = np.linalg.eigvalsh(matcore.re_part(shift))[-1]
        assert res.value == pytest.approx(w, rel=1e-14, abs=0)
        for d in (0.0, 0.3, -0.4j, 0.45 * np.exp(2.0j)):
            res, verdicts = _certified(_e12_plus(d))
            assert verdicts == [[True]]
            assert res.value == pytest.approx(0.5, rel=1e-15, abs=0)
            assert res.achieved_interval == 0.0

    def test_disk_plus_outer_point_goes_to_the_grid(self):
        # w = |d| > 1/2 is attained off the seeds: the test must not fire
        for d in (0.52 * np.exp(0.125j * math.pi), 0.5 + 1e-7, 0.53 * np.exp(2.75j)):
            res, verdicts = _certified(_e12_plus(d))
            assert verdicts == [[False]]
            assert res.value == pytest.approx(abs(d), rel=1e-15, abs=0)
            assert res.achieved_interval > 0.0

    @pytest.mark.parametrize("n", [3, 5])
    def test_perturbed_disk_reaches_the_oracle(self, n):
        for seed in range(2):
            a = (generate(EnsembleSpec("square_zero", n, 1510 + seed))
                 + 1e-8 * generate(EnsembleSpec("ginibre", n, 1520 + seed)))
            w = numerical_radius(a).value
            assert abs(w - numerical_radius_oracle(a)) <= 1e-9 * max(1.0, w)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(0, 12), st.data())
    def test_coefficient_bound_is_below_the_minimum(self, degree, data):
        # p(t) = a_0 + sum_k (a_k cos kt + b_k sin kt), sampled at the N
        # angles of the disk test
        coef = data.draw(hnp.arrays(np.float64, (2, degree + 1),
                                    elements=st.floats(-1.0, 1.0)))
        count = _samples(degree)
        assert radius._disk_angles(degree).size == count

        def p(t):
            k = np.arange(degree + 1)
            return np.cos(np.outer(t, k)) @ coef[0] + np.sin(np.outer(t, k)) @ coef[1]

        samples = p(np.arange(count) * (2 * math.pi / count))
        bound = radius._trig_lower_bound(samples[None], degree)[0]
        dense = p(np.linspace(0.0, 2 * math.pi, 20001)).min()
        assert bound <= dense + 1e-12
        # a constant polynomial's bound is its value
        if not coef[:, 1:].any():
            assert bound == pytest.approx(coef[0, 0], abs=1e-15)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_disk_draws(), st.sampled_from(["point", "perturbation"]),
           st.complex_numbers(max_magnitude=1.5), st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8]),
           st.integers(0, 10 ** 6))
    def test_certificate_is_sound_near_disks(self, disk, kind, d, size, seed):
        n = disk.shape[0]
        if kind == "point":
            a = np.zeros((n + 1, n + 1), dtype=complex)
            a[:n, :n], a[n, n] = disk, d
        else:
            a = disk + size * generate(EnsembleSpec("ginibre", n, seed))
        # on the binary-scaled matrix the certificate reads
        # w < r' = value + CIRCLE_TOL max(1, value), and oracle <= w
        a = matcore.binary_scaled(a)[0]
        res, verdicts = _certified(a)
        if any(v for verdict in verdicts for v in verdict):
            oracle = numerical_radius_oracle(a)
            raised = res.value + radius.CIRCLE_TOL * max(1.0, res.value)
            assert oracle <= raised + 1e-14 * max(1.0, res.value)


# tracemalloc peak of one numerical_radius_many call, whatever the stack's
# length: unchunked, a 720-matrix n = 8 stack peaks at about 25 MB
PEAK_BOUND = 4 * 2 ** 20


class TestLevelSetStack:
    def test_many_is_bitwise_the_one_matrix_engine(self, monkeypatch):
        n = 8
        # E12 (flat 1/2 at every seed: the grid finishes) and a member whose
        # first level sits on the first shift, each padded to n x n
        flat = np.zeros((n, n), dtype=complex)
        flat[:3, :3] = _e12_plus(0.52 * np.exp(0.125j * math.pi))
        shifted = np.zeros((n, n), dtype=complex)
        shifted[:2, :2] = _pencil_eigenvalue_at_shift(1.0, 1.0)
        solved = _count_solves(monkeypatch)
        assert _crossings(shifted[None], [1.0])[1][0] >= 0
        assert solved == [1, 1]
        monkeypatch.undo()
        kinds = ("ginibre", "normal", "hermitian", "haar_unitary", "square_zero")
        stack = [generate(EnsembleSpec(kinds[k % 5], n, 1400 + k)) for k in range(297)]
        stack[10:10] = [flat, shifted, np.zeros((n, n))]
        stack = np.stack(stack)
        # numpy elides temporaries from 256 KiB on, reordering complex products
        assert stack.nbytes > 256 * 1024
        assert radius.numerical_radius_many(stack) == [numerical_radius(t) for t in stack]

    def test_empty_and_invalid_stacks(self):
        assert radius.numerical_radius_many(np.zeros((0, 2, 2))) == []
        with pytest.raises(matcore.MatrixShapeError):
            radius.numerical_radius_many(np.zeros((2, 2, 3)))
        with pytest.raises(matcore.NonFiniteEntry):
            radius.numerical_radius_many(np.full((1, 2, 2), np.nan))

    def test_working_set_does_not_grow_with_the_stack(self):
        # the 720 rotated operands of a wnum grid over the full circle
        a = generate(EnsembleSpec("ginibre", 8, 1410))
        t = np.arange(720) * (2 * math.pi / 720)
        stack = (np.cos(t)[:, None, None] * matcore.re_part(a)
                 - np.sin(t)[:, None, None] * matcore.im_part(a))
        tracemalloc.start()
        try:
            radius.numerical_radius_many(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BOUND


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
                    grid = generalized_radius(a, OP_GRID).value
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
        assert generalized_radius(a, OP_GRID).value <= w + 1e-12 * max(1.0, w)


def _golden_max(f, lo, hi, tol, seed, max_iter=300):
    """Scalar golden-section maximization on [lo, hi] down to bracket width
    tol, one f call per probe, starting from the known point `seed`; ties go
    to the smaller x.  Returns (x, fx, width, evaluations)."""
    a, b = lo, hi
    best_x, best_v = seed
    h = b - a
    if h <= tol:
        return best_x, best_v, h, 0
    x1, x2 = b - radius._INVPHI * h, a + radius._INVPHI * h
    f1, f2 = f(x1), f(x2)
    evals = 2
    for x, v in ((x1, f1), (x2, f2)):
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
    while h > tol and evals < max_iter:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x = x1 = b - radius._INVPHI * h
            v = f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x = x2 = a + radius._INVPHI * h
            v = f2 = f(x2)
        evals += 1
        if v > best_v or (v == best_v and x < best_x):
            best_x, best_v = x, v
    return best_x, best_v, h, evals


def _scalar_maximize_on_circle(F, period, points, refine_tol, top_brackets):
    """maximize_on_circle with one bracket after the other, F on one angle
    per probe."""
    thetas = np.arange(points) * (period / points)
    vals = np.asarray(F(thetas), dtype=float)
    local = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    if local.size == 0:
        local = np.array([int(np.argmax(vals))])
    order = sorted(local.tolist(), key=lambda i: (-vals[i], i))[: max(1, top_brackets)]
    h = period / points
    best, evals = None, points
    for i in order:
        center = thetas[i]
        x, v, w, ev = _golden_max(lambda t: float(F(np.array([t]))[0]), center - h,
                                  center + h, refine_tol, (center, vals[i]))
        evals += ev
        if best is None or v > best[0] or (v == best[0] and x < best[1]):
            best = (v, x, w)
    return best[1], best[0], best[2], evals


class TestLockstepBrackets:
    @pytest.mark.parametrize("spec", [OP, FRO, schatten_norm_spec(1)])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "square_zero"])
    def test_matches_scalar_golden_section(self, spec, kind):
        a = generate(EnsembleSpec(kind, 4, 1300))
        F = radius.rotated_objective(a, spec.evaluate_many)
        for points, tol, brackets in ((720, 1e-10, 5), (96, 1e-6, 3), (16, 1e-3, 8),
                                      (8, 10.0, 2)):
            lockstep = radius.maximize_on_circle(F, True, 2 * points, tol, brackets)
            assert lockstep == _scalar_maximize_on_circle(F, math.pi, points, tol, brackets)

    def test_ties_and_probe_cap(self):
        # cos(4t) has four equal peaks; a zero tolerance runs into the cap
        def F(angles):
            return np.cos(4.0 * angles)

        lockstep = radius.maximize_on_circle(F, False, 64, 0.0, 4)
        assert lockstep == _scalar_maximize_on_circle(F, 2 * math.pi, 64, 0.0, 4)
        assert lockstep[3] == 64 + 4 * radius._MAX_PROBES
        assert lockstep[0] == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("m", [1, 3])
    def test_one_call_per_step(self, m):
        # one call for every objective's grid, one for the first two probes
        # of every bracket, then one per golden-section step for all brackets
        calls = []

        def F(owner, angles):
            calls.append((owner.tolist(), angles.size))
            return -np.cos(3.0 * angles + owner) + 0.1 * np.sin(angles)

        radius.maximize_on_circle_many(F, m, False, 96, 1e-8, 3)
        assert calls[0] == (np.arange(m).repeat(96).tolist(), 96 * m)
        assert calls[1] == (2 * np.arange(m).repeat(3).tolist(), 6 * m)
        assert {size for _, size in calls[2:]} == {3 * m}
        assert all(owner == np.arange(m).repeat(3).tolist() for owner, _ in calls[2:])
        if m == 1:   # the one-objective search makes the same calls
            sizes = []
            radius.maximize_on_circle(
                lambda t: sizes.append(t.size) or -np.cos(3.0 * t) + 0.1 * np.sin(t),
                False, 96, 1e-8, 3)
            assert sizes == [size for _, size in calls]

    def test_many_matches_each_objective_alone(self):
        a = generate(EnsembleSpec("ginibre", 3, 1310))
        s1 = schatten_norm_spec(1)
        objectives = [
            lambda t: np.cos(4.0 * t),                      # four tied peaks
            radius.rotated_objective(a, s1.evaluate_many),
            lambda t: np.zeros_like(t),                     # ties everywhere
            lambda t: -np.cos(3.0 * t) + 0.1 * np.sin(t),
        ]

        def F(owner, angles):
            out = np.empty(angles.size)
            for k, f in enumerate(objectives):
                mine = owner == k
                out[mine] = f(angles[mine])
            return out

        # the probe cap (refine_tol = 0), the defaults, slow-Omega settings,
        # and brackets too wide to refine
        for even, grid, tol, brackets in ((False, 64, 0.0, 4), (True, 720, 1e-10, 5),
                                          (True, 96, 1e-6, 3), (False, 16, 10.0, 2)):
            together = radius.maximize_on_circle_many(F, len(objectives), even, grid, tol,
                                                      brackets)
            alone = [radius.maximize_on_circle(f, even, grid, tol, brackets)
                     for f in objectives]
            assert repr(together) == repr(alone)
        capped = radius.maximize_on_circle_many(F, len(objectives), False, 64, 0.0, 4)
        assert capped[0][3] == 64 + 4 * radius._MAX_PROBES


def _stack_with_degenerate(n, seed):
    """ginibre, square_zero, normal and hermitian draws and the zero matrix."""
    kinds = ("ginibre", "square_zero", "normal", "hermitian")
    mats = [generate(EnsembleSpec(kind, n, seed + k)) for k, kind in enumerate(kinds)]
    return np.stack(mats + [np.zeros((n, n), dtype=complex)])


class TestStackedRadii:
    @pytest.mark.parametrize("spec", [FRO, schatten_norm_spec(1), OP_GRID, OP])
    @pytest.mark.parametrize("n", [2, 4])
    def test_generalized_radius_many_is_the_one_matrix_path(self, spec, n):
        stack = _stack_with_degenerate(n, 1320)
        alone = [generalized_radius(t, spec) for t in stack]
        assert repr(radius.generalized_radius_many(stack, spec)) == repr(alone)

    def test_nested_norm_and_settings(self):
        stack = _stack_with_degenerate(3, 1330)
        wnum, cheap = numerical_radius_norm_spec(), {"grid": 24, "refine_tol": 1e-4}
        alone = [generalized_radius(t, wnum, **cheap) for t in stack]
        assert repr(radius.generalized_radius_many(stack, wnum, **cheap)) == repr(alone)

    @pytest.mark.parametrize("n", [2, 3])
    def test_omega_radius_slow_many_is_the_one_matrix_path(self, n):
        stack = _stack_with_degenerate(n, 1340)
        many = radius.omega_radius_slow_many(stack)
        assert repr(many) == repr([omega_radius_slow(t) for t in stack])
        assert many[-1].value == 0.0

    def test_op_radii_run_one_engine_call_per_chunk(self, monkeypatch):
        calls = []
        engine = radius._level_set

        def spy(raw):
            calls.append(raw.shape[0])
            return engine(raw)

        monkeypatch.setattr(radius, "_level_set", spy)
        small = _stack_with_degenerate(4, 1350)
        # 32 matrices of n = 8 fill a chunk of _PENCIL_ENTRIES pencil entries
        large = np.stack([generate(EnsembleSpec("ginibre", 8, 1360 + k)) for k in range(33)])
        for stack, chunks in ((small, [4]), (large, [32, 1])):
            calls.clear()
            many = radius.generalized_radius_many(stack, OP)
            assert calls == chunks
            assert repr(many) == repr([numerical_radius(t) for t in stack])

    @pytest.mark.parametrize("bad, error", [
        (np.ones(3), matcore.MatrixShapeError),
        (np.ones((1, 2, 2)), matcore.MatrixShapeError),
        (np.ones((2, 3)), matcore.MatrixShapeError),
        (np.zeros((0, 0)), matcore.MatrixShapeError),
        (np.full((2, 2), np.nan), matcore.NonFiniteEntry),
    ])
    def test_one_matrix_functions_check_their_input(self, bad, error):
        one_matrix = [numerical_radius, omega_norm, omega_radius_slow, omega_radius,
                      hs_radius_sq, lambda t: generalized_radius(t, OP),
                      lambda t: generalized_radius(t, FRO),
                      lambda t: alphabeta_radius(t, FRO),
                      lambda t: radius.rotated_objective(t, FRO.evaluate_many)]
        for fn in one_matrix:
            with pytest.raises(error):
                fn(bad)

    def test_stack_shapes(self):
        assert radius.generalized_radius_many(np.zeros((0, 2, 2)), FRO) == []
        with pytest.raises(matcore.MatrixShapeError):
            radius.generalized_radius_many(np.zeros((2, 2)), FRO)
        with pytest.raises(matcore.NonFiniteEntry):
            radius.omega_radius_slow_many(np.full((1, 2, 2), np.nan))


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


def _full_omega_grid(basis, grid_s, grid_psi):
    """lambda_max(G(u)) at every node of the half grid s <= pi/4 for each
    matrix of a (m, 4, n, n) basis stack, shape (m, rows, grid_psi): the
    full-grid evaluation that the pruned search replaces, through the same
    `_omega_gram` product of every node's weights (one gemm)."""
    rows = (grid_s + 1) // 2
    s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
    p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
    weights = radius._sphere_weights(s_nodes[:rows, None], p_nodes[None, :]).reshape(-1, 4)
    tops = np.linalg.eigvalsh(radius._omega_gram(weights, basis))[..., -1]
    return tops.reshape(basis.shape[0], rows, grid_psi)


def _mirrored(half, grid_s):
    """The full grid_s-row grid from its rows s <= pi/4: row i > pi/4 is
    row grid_s - 1 - i."""
    rows = half.shape[1]
    return np.concatenate((half, half[:, : grid_s - rows][:, ::-1]), axis=1)


def _reference_candidates(vals, top_cells):
    """The full-grid candidate rule: (matrix, i, j) of the `top_cells` best
    local maxima of each matrix's full grid among the rows s <= pi/4 (row 0
    once, as (0, 0)), best value first, then smaller s, then smaller psi."""
    rows = (vals.shape[1] + 1) // 2
    up = np.concatenate((vals[:, :1], vals[:, :-1]), axis=1)
    down = np.concatenate((vals[:, 1:], vals[:, -1:]), axis=1)
    hood = np.maximum(np.maximum(up, vals), down)
    hood = np.maximum(np.maximum(np.roll(hood, 1, axis=2), hood), np.roll(hood, -1, axis=2))
    local = (vals >= hood)[:, :rows]
    local[:, 0] = False
    local[:, 0, 0] = vals[:, 0, 0] >= vals[:, 1].max(axis=1)
    kk, ii, jj = np.nonzero(local)
    order = np.lexsort((jj, ii, -vals[kk, ii, jj], kk))
    kk, ii, jj = kk[order], ii[order], jj[order]
    keep = np.arange(kk.size) - np.searchsorted(kk, kk) < max(1, top_cells)
    return kk[keep], ii[keep], jj[keep]


def _reference_omega_value(t, grid_s=radius.OMEGA_GRID_S, grid_psi=radius.OMEGA_GRID_PSI,
                           refine_tol=radius.OMEGA_TOL, top_cells=radius.OMEGA_CELLS):
    """Omega(T) the full-grid way: every node of the half grid, the
    full-grid candidate rule, then the same Newton refinement."""
    scaled, exponent = matcore.binary_scaled(t[None])
    basis = radius._omega_basis(scaled)
    vals = _mirrored(np.sqrt(np.maximum(_full_omega_grid(basis, grid_s, grid_psi), 0.0)),
                     grid_s)
    owner, ii, jj = _reference_candidates(vals, top_cells)
    s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
    p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
    start = radius._sphere_weights(s_nodes[ii], p_nodes[jj])[:, 1:]
    cell = 2.0 * max(math.pi / 2 / (grid_s - 1), 2 * math.pi / grid_psi)
    _, lam1, _, _ = radius._newton_on_sphere(basis[owner], owner, start,
                                             np.full(owner.size, cell), refine_tol)
    best = np.lexsort((np.arange(owner.size), -lam1))[0]
    return float(matcore.binary_unscaled(np.sqrt(max(lam1[best], 0.0)), exponent[0]))


def _svd_norm(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


OMEGA_KINDS = ("ginibre", "normal", "hermitian", "square_zero")


class TestOmegaGramGrid:
    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("grid_s, grid_psi", [(13, 24), (96, 192)])
    def test_matches_direct_grid(self, kind, dim, grid_s, grid_psi):
        a = generate(EnsembleSpec(kind, dim, 900 + dim))
        tops, floor, evaluated = radius._omega_grid(radius._omega_basis(a[None]),
                                                    grid_s, grid_psi)
        ref = _reference_omega_grid(a, grid_s, grid_psi)[: tops.shape[1]]
        done = tops[0] > -np.inf
        assert evaluated[0] == done[1:].sum() + 1
        vals = np.sqrt(np.maximum(tops[0][done], 0.0))
        scale = ref.max()
        # both sides are square roots of Gram eigenvalues: compare those to
        # the grid's scale, and the norms themselves wherever no cancellation
        # drives them to rounding level (Hermitian T at s = pi/4, psi = pi)
        np.testing.assert_allclose(vals ** 2, ref[done] ** 2, rtol=1e-12,
                                   atol=1e-12 * scale ** 2)
        away = ref[done] > 1e-4 * scale
        np.testing.assert_allclose(vals[away], ref[done][away], rtol=1e-12)
        # a skipped node lies below the floor, to the rounding of the two grids
        assert (ref[~done] ** 2 < floor[0] + 1e-12 * scale ** 2).all()

    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    def test_mirror_identity_and_probe(self, kind):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 8):
            a = generate(EnsembleSpec(kind, dim, 950 + dim))
            at = matcore.adjoint(a)
            s, psi = rng.uniform(0, math.pi / 2, 10), rng.uniform(0, 2 * math.pi, 10)
            # the sphere point of (s, psi) and the Gram matrix G(u) there
            u = np.stack((np.cos(2 * s), np.sin(2 * s) * np.cos(psi),
                          np.sin(2 * s) * np.sin(psi)), axis=1)
            basis = radius._omega_basis(a[None])
            lam, _ = radius._sphere_eigh(np.repeat(basis, s.size, axis=0), u)
            for k in range(s.size):
                phase = np.exp(1j * psi[k])
                lhs = _svd_norm(math.cos(s[k]) * a + phase * math.sin(s[k]) * at)
                rhs = _svd_norm(math.sin(s[k]) * a + phase * math.cos(s[k]) * at)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)
                assert math.sqrt(max(lam[k, -1], 0.0)) == pytest.approx(
                    lhs, rel=1e-12, abs=1e-12 * _svd_norm(a))

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
        # the zero matrix has L = 0, so no node can be skipped: every node of
        # the half grid is evaluated, the row s = 0 once, and the one
        # candidate stops after two eigensolves, its start and then the
        # zero-length step the zero gradient gives
        res = omega_norm(np.zeros((2, 2)), grid_s=grid_s, grid_psi=24, top_cells=1)
        assert res.evaluations == (rows - 1) * 24 + 1 + 2

    def test_node_tops_hold_one_chunk(self):
        # 8,192 needed nodes at n = 8 fill eight chunks; one chunk's Gram
        # stack is 8 * _CHUNK_ENTRIES bytes, and two alive at once would
        # take the peak past 16 * _CHUNK_ENTRIES
        n, q = 8, 8192
        basis = radius._omega_basis(generate(EnsembleSpec("ginibre", n, 1500))[None])
        weights = radius._sphere_weights(np.linspace(0.0, math.pi / 4, q), np.arange(q) * 0.1)
        need = np.ones((1, q), dtype=bool)
        assert q * n * n >= 4 * radius._CHUNK_ENTRIES
        tracemalloc.start()
        try:
            radius._node_tops(weights, basis, need)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * radius._CHUNK_ENTRIES


def _attained(t, res):
    """res.value equals the SVD norm of cos(s) T + exp(i psi) sin(s) T* at
    res.argmax, to 1e-12 relative."""
    s, psi = res.argmax
    assert 0.0 <= s <= math.pi / 2 and 0.0 <= psi < 2 * math.pi
    at_max = math.cos(s) * t + np.exp(1j * psi) * math.sin(s) * matcore.adjoint(t)
    assert abs(res.value - _svd_norm(at_max)) <= 1e-12 * max(1.0, res.value)
    return res


# SVD norms at points the refinement reached, truncated to ten decimals: the
# alternating golden-section search stopped 2.2e-6, 1.7e-6, 1.0e-6 and
# 1.4e-8 (relative) below them on ridges
OMEGA_ATTAINED = [((6, 104), 3.6235378155), ((4, 107), 3.2476572542),
                  ((8, 103), 4.9415254446), ((8, 105), 4.7688778795)]


class TestOmegaNewton:
    @pytest.mark.parametrize("draw, attained", OMEGA_ATTAINED)
    def test_no_underestimate_on_ridges(self, draw, attained):
        t = generate(EnsembleSpec("ginibre", *draw))
        res = _attained(t, omega_norm(t))
        assert res.value >= attained * (1 - 1e-12)

    # at this phase the ridge draw's best grid cell sits beside the peak that
    # its second cell converges to, and used to crawl for all _NEWTON_ROUNDS
    @pytest.mark.parametrize("c", [1.0, 0.9790806804464681 - 0.20347240888258297j])
    def test_no_crawl_beside_a_converged_peak(self, c, monkeypatch):
        solves = []
        original = radius._sphere_eigh

        def counting(basis, u):
            solves.append(u.shape[0])
            return original(basis, u)

        monkeypatch.setattr(radius, "_sphere_eigh", counting)
        t = c * generate(EnsembleSpec("ginibre", 8, 105))
        res = _attained(t, omega_norm(t))
        assert res.value >= 4.7688778795 * (1 - 1e-12)
        # at most 20 Newton eigensolves over all candidate cells
        assert sum(solves) <= 20

    def test_zero_matrix(self):
        res = omega_norm(np.zeros((3, 3)))
        assert (res.value, res.argmax) == (0.0, (0.0, 0.0))

    def test_one_by_one(self):
        t = np.array([[2.0 - 1.0j]])
        assert _attained(t, omega_norm(t)).value == pytest.approx(
            math.sqrt(10.0), rel=1e-15)

    @pytest.mark.parametrize("kind", ["hermitian", "normal", "haar_unitary"])
    def test_normal_inputs(self, kind):
        for n in (2, 4, 7):
            t = generate(EnsembleSpec(kind, n, 1200 + n))
            res = _attained(t, omega_norm(t))
            assert res.value == pytest.approx(math.sqrt(2.0) * matcore.spectral_norm(t),
                                              rel=1e-12)

    def test_square_zero(self):
        for n in (2, 3, 6):
            t = generate(EnsembleSpec("square_zero", n, 1210 + n))
            res = _attained(t, omega_norm(t))
            assert res.value == pytest.approx(matcore.spectral_norm(t), rel=1e-12)

    @pytest.mark.parametrize("c", [2.0, -0.5, 3j, 0.7 * np.exp(2.1j)])
    def test_scalar_multiples(self, c):
        t = generate(EnsembleSpec("ginibre", 4, 1220))
        om = omega_norm(t).value
        res = _attained(c * t, omega_norm(c * t))
        assert res.value == pytest.approx(abs(c) * om, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_extreme_scales(self, scale):
        t = generate(EnsembleSpec("ginibre", 3, 1230))
        res = omega_norm(scale * t)
        assert res.value == pytest.approx(scale * omega_norm(t).value, rel=1e-14)
        assert res.argmax == pytest.approx(omega_norm(t).argmax, abs=1e-12)

    def test_value_above_the_float_range_is_inf(self):
        # Omega(c J) = 3 sqrt(2) c for the all-ones J, past the largest float
        res = omega_norm(5e307 * np.ones((3, 3)))
        assert res.value == math.inf
        eye, huge = radius.omega_norm_many(np.stack([np.eye(3), 5e307 * np.ones((3, 3))]))
        assert eye.value == pytest.approx(math.sqrt(2.0), rel=1e-12) and huge.value == math.inf

    def test_many_is_the_one_matrix_path(self):
        stack = np.stack([generate(EnsembleSpec("ginibre", 3, 1240 + k)) for k in range(4)])
        for opts in ({}, radius.SLOW_OMEGA_INNER):
            assert radius.omega_norm_many(stack, **opts) == [omega_norm(t, **opts)
                                                            for t in stack]
        assert radius.omega_norm_many(np.zeros((0, 2, 2))) == []

    def test_candidates_are_distinct_half_grid_maxima(self):
        grid_s, grid_psi = 96, 192
        for kind in OMEGA_KINDS:
            t = generate(EnsembleSpec(kind, 5, 1250))
            basis = radius._omega_basis(t[None])
            tops, floor, _ = radius._omega_grid(basis, grid_s, grid_psi)
            owner, ii, jj = radius._grid_candidates(tops, floor, grid_s, 5)
            vals = _mirrored(np.sqrt(np.maximum(_full_omega_grid(basis, grid_s, grid_psi), 0.0)),
                             grid_s)[0]
            assert 1 <= owner.size <= 5 and not owner.any()
            assert (ii < grid_s // 2).all()
            assert len(set(zip(ii.tolist(), jj.tolist()))) == ii.size
            got = vals[ii, jj]
            assert got[0] == vals.max()
            assert (np.diff(got) <= 0).all()
            for i, j in zip(ii, jj):
                rows = [max(i - 1, 0), i, i + 1]
                cols = [(j - 1) % grid_psi, j, (j + 1) % grid_psi]
                assert vals[i, j] >= vals[np.ix_(rows, cols)].max()

    def test_maximum_at_the_pole_reports_psi_zero(self):
        # psi is no coordinate at s = 0; this draw's maximum sits there, and
        # the psi of the rounding-level u used to be reported (4.23)
        for t in (E12, generate(EnsembleSpec("square_zero", 3, 12))):
            res = _attained(t, omega_norm(t))
            assert res.argmax[0] <= 1e-15 and res.argmax[1] == 0.0


def _pruning_draws(dims, seeds):
    """Seeded draws of the families the pruned Omega search was checked on:
    five ensembles, near-rank-one, near-square-zero and near-diagonal
    unitary matrices."""
    out = []
    for n in dims:
        for seed in seeds:
            g = generate(EnsembleSpec("ginibre", n, seed + 5000))
            phases = np.exp(1j * (1 + seed % 3) * np.arange(n) * (2 * math.pi / n))
            out += [generate(EnsembleSpec(kind, n, seed)) for kind in
                    ("ginibre", "normal", "hermitian", "square_zero", "haar_unitary")]
            out += [np.ones((n, n)) + 1e-3 * g,
                    generate(EnsembleSpec("square_zero", n, seed)) + 1e-3 * g,
                    np.diag(phases) + 1e-3 * g]
    return out


GRIDS = [(13, 24), (96, 192)]
PRUNING_DRAWS = _pruning_draws((2, 5), (1300,)) + [generate(EnsembleSpec("ginibre", 8, 105))]


class TestPrunedOmegaSearch:
    """The coarse-to-fine Omega grid search against the full grid."""

    @pytest.mark.parametrize("grid_s, grid_psi", GRIDS)
    @pytest.mark.parametrize("k", range(len(PRUNING_DRAWS)))
    def test_skips_only_nodes_below_the_floor(self, k, grid_s, grid_psi):
        basis = radius._omega_basis(PRUNING_DRAWS[k][None])
        tops, floor, evaluated = radius._omega_grid(basis, grid_s, grid_psi)
        ref = _full_omega_grid(basis, grid_s, grid_psi)
        done = tops > -np.inf
        assert (tops[done] == ref[done]).all()
        assert (ref[~done] < floor[0]).all()
        # the best node is evaluated; row 0 is one node
        assert tops.max() == ref.max()
        assert evaluated[0] == done[0, 1:].sum() + 1

    @pytest.mark.parametrize("grid_s, grid_psi", GRIDS)
    def test_rho_covers_the_sphere(self, grid_s, grid_psi):
        rho = radius._omega_lattice(grid_s, grid_psi)[2]
        s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
        p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
        nodes = radius._sphere_weights(s_nodes[:, None], p_nodes[None, :]).reshape(-1, 4)[:, 1:]
        points = random_unit_vectors(1320, 4000, 3).real
        points /= np.linalg.norm(points, axis=1)[:, None]
        gap = np.sqrt(np.maximum(
            2.0 - 2.0 * (points @ nodes.T).max(axis=1), 0.0)).max()
        assert 0.8 * rho <= gap <= rho

    @pytest.mark.parametrize("k", range(len(PRUNING_DRAWS)))
    def test_lipschitz_constant_bounds_every_direction(self, k):
        # L = (best - floor) / (rho^2 / 2) bounds ||c.K|| for unit c
        t = PRUNING_DRAWS[k]
        basis = radius._omega_basis(t[None])
        tops, floor, _ = radius._omega_grid(basis, 13, 24)
        lip = (tops.max() - floor[0]) / (radius._omega_lattice(13, 24)[2] ** 2 / 2)
        c = random_unit_vectors(1330 + k, 500, 3).real
        c /= np.linalg.norm(c, axis=1)[:, None]
        sizes = np.abs(np.linalg.eigvalsh(np.einsum("pi,ijk->pjk", c, basis[0, 1:])))
        assert sizes.max() <= lip * (1 + 1e-9)
        assert sizes.max() >= lip / math.sqrt(3.0) * 0.9

    @pytest.mark.parametrize("grid_s, grid_psi", GRIDS)
    @pytest.mark.parametrize("k", range(len(PRUNING_DRAWS)))
    def test_candidates_are_the_full_grid_maxima_above_the_floor(self, k, grid_s, grid_psi):
        basis = radius._omega_basis(PRUNING_DRAWS[k][None])
        tops, floor, _ = radius._omega_grid(basis, grid_s, grid_psi)
        ref = _full_omega_grid(basis, grid_s, grid_psi)
        got = radius._grid_candidates(tops, floor, grid_s, radius.OMEGA_CELLS)
        vals = _mirrored(np.sqrt(np.maximum(ref, 0.0)), grid_s)
        owner, ii, jj = _reference_candidates(vals, 10 * grid_s * grid_psi)
        keep = ref[owner, ii, jj] >= floor[owner]
        want = [a[keep][: radius.OMEGA_CELLS] for a in (owner, ii, jj)]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_values_match_the_full_grid_search(self):
        draws = _pruning_draws((2, 3, 4, 5, 6, 8), (1310,)) + [
            generate(EnsembleSpec("ginibre", n, seed)) for n in (2, 3, 4, 5, 6, 8)
            for seed in (104, 105)]
        assert len(draws) == 60
        for t in draws:
            for opts in ({}, radius.SLOW_OMEGA_INNER):
                assert omega_norm(t, **opts).value == _reference_omega_value(t, **opts)

    @pytest.mark.parametrize("kind", OMEGA_KINDS)
    def test_values_match_the_full_grid_search_at_larger_n(self, kind):
        # where the chord bound skips the most nodes
        for n in (16, 32):
            t = generate(EnsembleSpec(kind, n, 1320 + n))
            for opts in ({}, radius.SLOW_OMEGA_INNER):
                assert omega_norm(t, **opts).value == _reference_omega_value(t, **opts)

    @pytest.mark.parametrize("kind, most", [("hermitian", 50), ("normal", 50),
                                            ("square_zero", 210), ("ginibre", 70),
                                            ("haar_unitary", 100)])
    def test_chord_bound_evaluates_few_nodes(self, kind, most):
        # the first-order bound min over corners of (value + L distance)
        # evaluated 248, 244 to 247 and 1,923 nodes on the first three
        # families; the chord bound with the first-order floor best - L rho
        # 110, 110 to 112, 1,191, 184 to 229 and 573 to 587; with the floor
        # best - L rho^2 / 2, 40, 43 to 44, 195, 53 to 58 and 76 to 83
        for seed in (1400, 1401, 1402):
            assert omega_norm(generate(EnsembleSpec(kind, 8, seed))).evaluations <= most

    @pytest.mark.parametrize("grid_s, grid_psi", GRIDS)
    def test_lattice_weights_interpolate_the_corners(self, grid_s, grid_psi):
        _, levels, _ = radius._omega_lattice(grid_s, grid_psi)
        for nodes, corners, a, _ in levels[1:]:
            assert (a >= 0).all()
            np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=1e-15)
            # (row, column) of each node is the weighted mean of its corners',
            # the pole (node 0) at the node's column, columns unwrapped past
            # the last one
            ii, jj = np.divmod(nodes, grid_psi)
            ci, cj = np.divmod(corners, grid_psi)
            cj = np.where(corners == 0, jj[:, None], cj)
            cj = np.where(cj < jj[:, None] - grid_psi // 2, cj + grid_psi, cj)
            np.testing.assert_allclose((a * ci).sum(axis=1), ii, atol=1e-12)
            np.testing.assert_allclose((a * cj).sum(axis=1), jj, atol=1e-12)

    @staticmethod
    def _assert_within_floor_margin(t, grid_s, grid_psi, seed):
        # every point of the sphere is within rho of a node, so the nodes'
        # hull holds the ball of radius 1 - rho^2 / 2 and each point p is
        # within rho^2 / 2 of a convex combination of nodes: by convexity and
        # the Lipschitz bound lambda_max(G(p)) <= best + L rho^2 / 2, best the
        # best node of the whole grid, its mirrored rows included
        basis = radius._omega_basis(t[None])[0]
        k = basis[1:]
        lip = math.sqrt(max(np.linalg.eigvalsh((k @ k).sum(axis=0))[-1], 0.0))
        rho = radius._omega_lattice(grid_s, grid_psi)[2]
        s_nodes = np.linspace(0.0, math.pi / 2, grid_s)
        p_nodes = np.arange(grid_psi) * (2 * math.pi / grid_psi)
        nodes = radius._sphere_weights(s_nodes[:, None], p_nodes[None, :]).reshape(-1, 4)
        best = np.linalg.eigvalsh(radius._omega_gram(nodes, basis))[:, -1].max()
        p = random_unit_vectors(seed, 4000, 3).real
        p /= np.linalg.norm(p, axis=1)[:, None]
        w = np.concatenate((np.ones((p.shape[0], 1)), p), axis=1)
        tops = np.linalg.eigvalsh(radius._omega_gram(w, basis))[:, -1]
        omega = omega_norm(t, grid_s=grid_s, grid_psi=grid_psi).value
        bound = best + lip * rho ** 2 / 2 + 1e-12 * max(1.0, abs(basis[0]).sum())
        assert tops.max() <= bound
        assert omega ** 2 <= bound

    @pytest.mark.parametrize("grid_s, grid_psi", [(13, 24), (6, 8), (4, 4)])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hnp.arrays(np.complex128, st.integers(1, 6).map(lambda n: (n, n)),
                      elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                  allow_infinity=False)),
           st.integers(0, 2 ** 32 - 1))
    def test_no_point_beats_the_best_node_by_more_than_the_floor_margin(
            self, grid_s, grid_psi, t, seed):
        self._assert_within_floor_margin(t, grid_s, grid_psi, seed)

    @pytest.mark.parametrize("grid_s, grid_psi", [(13, 24), (6, 8), (4, 4)])
    def test_floor_margin_holds_where_it_is_nearly_tight(self, grid_s, grid_psi):
        # for a unit scalar exp(i alpha), lambda_max(G(u)) = 1 + u . d with d
        # = (0, cos 2 alpha, sin 2 alpha) and L = 1, so Omega^2 = 2 exceeds
        # the best node by 1 - cos of the angle from d to its nearest node:
        # up to 0.96 of the margin L rho^2 / 2 on the 6 x 8 grid and 0.87 on
        # the 4 x 4 one, so a margin cut by 5% fails here
        for a in range(64):
            t = np.array([[cmath.exp(1j * math.pi * a / 64)]])
            self._assert_within_floor_margin(t, grid_s, grid_psi, 1340 + a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(hnp.arrays(np.complex128, st.integers(1, 6).map(lambda n: (n, n)),
                      elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                                  allow_infinity=False)),
           st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 2.0))
    def test_chord_bound_holds(self, t, seed, spread):
        # lambda_max(G(u)) <= sum_c a_c lambda_max(G(u_c)) + L |u - sum_c a_c u_c|
        # for sphere points u, u_c and convex weights a: lambda_max(G) is
        # convex on R^3, and L-Lipschitz by Weyl and Cauchy-Schwarz
        basis = radius._omega_basis(t[None])[0]
        k = basis[1:]
        lip = math.sqrt(max(np.linalg.eigvalsh((k @ k).sum(axis=0))[-1], 0.0))
        rng = np.random.default_rng(seed)

        def unit(x):
            return x / np.linalg.norm(x, axis=-1, keepdims=True)

        def top(u):
            w = np.concatenate((np.ones(u.shape[:-1] + (1,)), u), axis=-1)
            return np.linalg.eigvalsh(radius._omega_gram(w, basis))[..., -1]

        center = unit(rng.normal(size=(40, 1, 3)))
        corners = unit(center + spread * rng.normal(size=(40, 4, 3)))
        a = rng.dirichlet(np.ones(4), size=40) * (rng.random((40, 4)) > 0.2)
        a[a.sum(axis=1) == 0, 0] = 1.0
        a /= a.sum(axis=1, keepdims=True)
        chord = np.einsum("qc,qck->qk", a, corners)
        u = unit(chord + spread * rng.normal(size=(40, 3)) * rng.random((40, 1)))
        bound = (a * top(corners)).sum(axis=1) + lip * np.linalg.norm(u - chord, axis=1)
        scale = max(1.0, abs(basis[0]).sum())
        assert (top(u) <= bound + 1e-12 * scale).all()


def omega_vector_lower_bound(T, samples: int, seed: int) -> float:
    """Monte-Carlo lower bound for Omega(T): the best of
    sqrt(|<Ty, x>|^2 + |<T*y, x>|^2) over `samples` seeded unit pairs."""
    arr = matcore.as_matrix(T, square=True)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    vecs = random_unit_vectors(seed, 2 * samples, arr.shape[0])
    x, y = vecs[0::2], vecs[1::2]
    ty = y @ arr.T
    tsy = y @ np.conj(arr)
    a = np.sum(np.conj(x) * ty, axis=1)
    b = np.sum(np.conj(x) * tsy, axis=1)
    return float(np.sqrt(np.max(np.abs(a) ** 2 + np.abs(b) ** 2)))


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
            assert abs(omega_radius_slow(a).value - math.sqrt(2.0) * w) \
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


def _ldexp(t, e):
    """t * 2^e, entry part by entry part."""
    return np.ldexp(np.ascontiguousarray(t).view(np.float64), e).view(np.complex128)


def _fields(res):
    """A result's value first, then whatever else it holds."""
    if isinstance(res, tuple):   # a `_phase_sups` (argmax, value)
        return res[::-1]
    return dataclasses.astuple(res)


# every stack search, as a one-matrix function; the nested norms at cheap
# outer settings
_CHEAP = {"grid": 24, "refine_tol": 1e-4}
SCALED_SEARCHES = {
    "numerical_radius": numerical_radius,
    "op": lambda t: generalized_radius(t, OP),
    "schatten:1": lambda t: generalized_radius(t, schatten_norm_spec(1)),
    "schatten:2": lambda t: generalized_radius(t, FRO),
    "wnum": lambda t: generalized_radius(t, numerical_radius_norm_spec(), **_CHEAP),
    "omega": lambda t: generalized_radius(t, omega_norm_spec(), **_CHEAP),
    "omega_norm": omega_norm,
    "omega_radius_slow": omega_radius_slow,
    "phase[inf-upper]": lambda t: inequalities._phase_sups(
        t[None], OP, inequalities._negated_quadrature)[0],
    "phase[lower-bound]": lambda t: inequalities._phase_sups(
        t[None], schatten_norm_spec(1), inequalities._square_difference)[0],
}


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "square_zero", "hermitian"])
    @pytest.mark.parametrize("search", sorted(SCALED_SEARCHES))
    def test_searches_scale_exactly(self, kind, search):
        # each search runs on the binary-scaled copy of its stack, so a
        # power-of-two factor changes nothing but the value's exponent, far
        # past where squares of the entries overflow or underflow
        fn = SCALED_SEARCHES[search]
        t = generate(EnsembleSpec(kind, 3, 1500))
        value, *rest = _fields(fn(t))
        for e in (600, -600, 1000, -1000):
            scaled_value, *scaled_rest = _fields(fn(_ldexp(t, e)))
            assert scaled_value == math.ldexp(value, e), e
            assert scaled_rest == rest, e

    @pytest.mark.parametrize("kind", ["ginibre", "normal", "hermitian"])
    def test_small_scales_keep_full_precision(self, kind):
        # the level-set engine stops on CIRCLE_TOL * max(1, r) of the scaled
        # value, so a small w is not cut off at an absolute 1e-10
        for n in (2, 4, 8):
            t = generate(EnsembleSpec(kind, n, 1510 + n))
            w = numerical_radius(t).value
            for c in (1e-9, 1e-300):
                assert numerical_radius(c * t).value == pytest.approx(c * w, rel=1e-13, abs=0.0)


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
