import math

import numpy as np
import pytest

from radiuslab import matcore
from radiuslab.ensembles import EnsembleSpec, generate
from radiuslab.norms import (
    UnknownNormId,
    numerical_radius_norm_spec,
    omega_norm_spec,
    operator_norm_spec,
    parse_norm_id,
    registry,
    schatten_norm_spec,
    validate_norm,
)
from radiuslab.radius import generalized_radius

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)


class TestOperatorSpec:
    def test_identity(self):
        assert operator_norm_spec().evaluate(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_unitary_sup(self):
        assert operator_norm_spec().unitary_sup(5) == 1.0

    def test_worked_matrix(self):
        assert operator_norm_spec().evaluate(WORKED) == pytest.approx(
            math.sqrt(2.0), abs=1e-13)

    def test_flags(self):
        spec = operator_norm_spec()
        assert spec.self_adjoint and spec.algebra and spec.weakly_unitarily_invariant
        assert spec.even


class TestSchattenSpec:
    def test_frobenius_of_e12(self):
        assert schatten_norm_spec(2).evaluate(E12) == 1.0

    def test_trace_norm_of_diagonal(self):
        assert schatten_norm_spec(1).evaluate(np.diag([1.0, -2.0, 3.0])) == pytest.approx(
            6.0, abs=1e-12)

    def test_unitary_sup_frobenius(self):
        spec = schatten_norm_spec(2)
        assert spec.unitary_sup(4) == pytest.approx(2.0)
        best = max(spec.evaluate(generate(EnsembleSpec("haar_unitary", 4, 600 + k)))
                   for k in range(20))
        assert best == pytest.approx(2.0, abs=1e-9)

    def test_infinite_p_is_operator_norm(self):
        spec = schatten_norm_spec(math.inf)
        a = generate(EnsembleSpec("ginibre", 4, 2))
        assert spec.evaluate(a) == pytest.approx(matcore.spectral_norm(a), abs=1e-12)
        assert spec.unitary_sup(7) == 1.0

    def test_batched_agrees_with_scalar(self):
        for p in (1.0, 2.0, 3.5):
            spec = schatten_norm_spec(p)
            stack = np.stack([generate(EnsembleSpec("ginibre", 3, 700 + k))
                              for k in range(5)])
            assert spec.evaluate_many(stack).tolist() == [spec.evaluate(m) for m in stack]

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 3.5])
    def test_scales_exactly(self, p):
        # sv ** p of the raw entries overflows near 2^300 (p = 3.5) and
        # underflows near 2^-300; the kernel forms it on the binary-scaled
        # stack, so a power-of-two factor comes out exactly
        spec = schatten_norm_spec(p)
        t = generate(EnsembleSpec("ginibre", 4, 5))
        one = spec.evaluate(t)
        for k in (300, -300, 600, -600, 1000, -1000):
            assert spec.evaluate(2.0 ** k * t) == math.ldexp(one, k)

    @pytest.mark.parametrize("e", [530, -560])
    def test_frobenius_radius_scales_exactly(self, e):
        # squares of entries near 2^530 overflow and near 2^-560 underflow;
        # the batched norm, as the scalar one, squares the binary-scaled
        # entries, so a power-of-two factor comes out exactly
        fro = schatten_norm_spec(2)
        t = generate(EnsembleSpec("ginibre", 4, 5))
        one, scaled = generalized_radius(t, fro), generalized_radius(2.0 ** e * t, fro)
        assert (scaled.value, scaled.argmax_theta) == (2.0 ** e * one.value, one.argmax_theta)
        stack = 2.0 ** e * np.stack([t, matcore.adjoint(t), np.zeros((4, 4))])
        assert fro.evaluate_many(stack).tolist() == [fro.evaluate(m) for m in stack]

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            schatten_norm_spec(0.5)


class TestRadiusBackedSpecs:
    def test_wnum_on_hermitian(self):
        spec = numerical_radius_norm_spec()
        h = generate(EnsembleSpec("hermitian", 4, 31))
        assert spec.evaluate(h) == pytest.approx(matcore.spectral_norm(h), abs=1e-9)

    def test_wnum_square_zero(self):
        assert numerical_radius_norm_spec().evaluate(E12) == pytest.approx(0.5, abs=1e-10)

    def test_wnum_identity(self):
        assert numerical_radius_norm_spec().evaluate(np.eye(2)) == pytest.approx(
            1.0, abs=1e-10)

    def test_omega_identity(self):
        assert omega_norm_spec().evaluate(np.eye(2)) == pytest.approx(
            math.sqrt(2.0), abs=1e-9)

    def test_omega_unitary_sup(self):
        assert omega_norm_spec().unitary_sup(3) == pytest.approx(math.sqrt(2.0))

    def test_flags(self):
        for spec in (numerical_radius_norm_spec(), omega_norm_spec()):
            assert spec.self_adjoint and spec.weakly_unitarily_invariant
            assert not spec.algebra


class TestUnitarySupremum:
    @pytest.mark.parametrize("norm_id", ["op", "schatten:1", "schatten:2"])
    def test_attained_for_unitarily_invariant(self, norm_id):
        spec = registry()[norm_id]
        n = 4
        values = [spec.evaluate(generate(EnsembleSpec("haar_unitary", n, 800 + k)))
                  for k in range(50)]
        sup = spec.unitary_sup(n)
        assert max(values) <= sup + 1e-9
        assert max(values) >= sup - 1e-6

    @pytest.mark.parametrize("norm_id", ["wnum", "omega"])
    def test_never_exceeded(self, norm_id):
        spec = registry()[norm_id]
        n = 3
        values = [spec.evaluate(generate(EnsembleSpec("haar_unitary", n, 900 + k)))
                  for k in range(50)]
        assert max(values) <= spec.unitary_sup(n) + 1e-9


class TestValidateNorm:
    def test_operator_norm_clean(self):
        result = validate_norm(operator_norm_spec(), 4, 200, 1000)
        assert result.passed
        for audit in result.audits:
            assert audit.worst <= 1e-10

    def test_schatten_one_triangle(self):
        result = validate_norm(schatten_norm_spec(1), 4, 200, 1100)
        assert result.passed
        triangle = {a.name: a for a in result.audits}["triangle"]
        assert triangle.worst <= triangle.tolerance

    def test_wnum_algebra_witness_found(self):
        result = validate_norm(numerical_radius_norm_spec(), 2, 5, 1200)
        assert result.passed
        assert "nilpotent" in result.algebra_witness

    def test_omega_algebra_witness_found(self):
        result = validate_norm(omega_norm_spec(), 2, 3, 1300)
        assert result.passed
        assert result.algebra_witness

    def test_wnum_axioms(self):
        result = validate_norm(numerical_radius_norm_spec(), 3, 25, 1400)
        assert result.passed

    def test_misdeclared_algebra_flag_fails(self):
        import dataclasses

        bogus = dataclasses.replace(numerical_radius_norm_spec(), algebra=True)
        result = validate_norm(bogus, 2, 30, 1500)
        assert not result.passed
        algebra = {a.name: a for a in result.audits}["algebra"]
        assert algebra.worst > algebra.tolerance
        assert algebra.witness


SHIPPED_IDS = ("op", "schatten:1", "schatten:2", "schatten:3.5", "schatten:inf", "wnum",
               "omega")


def _mixed_stack(n):
    stack = [generate(EnsembleSpec(kind, n, 40 + n))
             for kind in ("ginibre", "normal", "hermitian", "haar_unitary")]
    if n > 1:
        stack.append(generate(EnsembleSpec("square_zero", n, 44)))
    stack.append(np.zeros((n, n)))
    return np.stack(stack)


@pytest.mark.parametrize("e", [0, 600, -600])
@pytest.mark.parametrize("spec", [parse_norm_id(norm_id) for norm_id in SHIPPED_IDS]
                         + [omega_norm_spec(grid_s=13, grid_psi=24, refine_tol=1e-4,
                                            top_cells=2)],
                         ids=[*SHIPPED_IDS, "omega-coarse"])
def test_evaluate_is_evaluate_many_bitwise(spec, e):
    # mixed stacks with zero and square-zero members, at scales 1 and 2^+-600
    for n in (1, 2, 3, 6):
        stack = 2.0 ** e * _mixed_stack(n)
        assert spec.evaluate_many(stack).tolist() == [spec.evaluate(m) for m in stack]


class TestRegistryAndIds:
    def test_registry_contents(self):
        ids = set(registry())
        assert ids == {"op", "schatten:1", "schatten:2", "wnum", "omega"}

    def test_parse_round_trips(self):
        for text in ("op", "wnum", "omega", "schatten:1", "schatten:2.5", "schatten:inf"):
            assert parse_norm_id(text).id == text if ":" not in text else True

    def test_parse_values(self):
        assert parse_norm_id("schatten:2").evaluate(E12) == 1.0
        assert parse_norm_id("op").evaluate(np.eye(4)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("bad", ["bogus", "schatten:0.5", "schatten:x", "opnorm"])
    def test_unknown_ids(self, bad):
        with pytest.raises(UnknownNormId):
            parse_norm_id(bad)


class TestSchattenBatched:
    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_square_zero_rank_deficient(self, dim):
        s1 = schatten_norm_spec(1)
        s3 = schatten_norm_spec(3)
        thetas = np.arange(36) * (2 * math.pi / 36)
        for seed in range(3):
            t = generate(EnsembleSpec("square_zero", dim, 40 + seed))
            re, im = matcore.re_part(t), matcore.im_part(t)
            stack = np.cos(thetas)[:, None, None] * re - np.sin(thetas)[:, None, None] * im
            for spec in (s1, s3):
                many = spec.evaluate_many(stack)
                assert many.tolist() == [spec.evaluate(m) for m in stack]
            # Re(e^{i theta} T) has eigenvalues +/- ||T||/2 and zeros
            nrm = matcore.spectral_norm(t)
            assert generalized_radius(t, s1).value == pytest.approx(nrm, rel=1e-12)
