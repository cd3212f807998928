import math

import numpy as np
import pytest

from radiuslab import matcore
from radiuslab.ensembles import (
    KINDS,
    EnsembleSpec,
    Stream,
    ensemble_id,
    generate,
    generate_pair,
    parse_ensemble_id,
    random_unit_vectors,
    splitmix64,
)


def _splitmix_reference(seed: int, count: int):
    """Independent big-int implementation of the documented generator."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestStream:
    def test_against_big_int_reference(self):
        for seed in (0, 1, 2024, 2**63 + 5, (1 << 64) - 1):
            assert [int(z) for z in splitmix64(seed, 40)] == _splitmix_reference(seed, 40)

    def test_frozen_seed_zero_values(self):
        assert [int(z) for z in splitmix64(0, 3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_offset_is_consistent(self):
        whole = splitmix64(99, 20)
        assert np.array_equal(splitmix64(99, 12, offset=8), whole[8:])

    def test_stream_cursor(self):
        s = Stream(7)
        first = s.raw(5)
        second = s.raw(5)
        assert np.array_equal(np.concatenate([first, second]), splitmix64(7, 10))

    def test_uniform_ranges(self):
        s = Stream(3)
        u = s.uniforms(10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        up = Stream(3).uniforms_pos(10000)
        assert up.min() > 0.0 and up.max() <= 1.0

    def test_gaussian_moments(self):
        g = Stream(13).gaussians(40000)
        assert abs(g.mean()) < 0.03
        assert abs(g.std() - 1.0) < 0.03

    def test_complex_gaussian_unit_variance(self):
        z = Stream(17).cgaussians(40000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.03


DIMS = (2, 3, 4, 6, 8)
SWEEP_SEEDS = 1000


class TestStructuralResiduals:
    def test_determinism_bitwise(self):
        for kind in KINDS:
            spec = EnsembleSpec(kind, 4, 42)
            a, b = generate(spec), generate(spec)
            if kind in ("commuting_hermitian_pair", "anticommuting_hermitian_pair"):
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            else:
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", DIMS)
    def test_residual_sweep(self, dim):
        for seed in range(SWEEP_SEEDS):
            h = generate(EnsembleSpec("hermitian", dim, seed))
            assert matcore.hermitian_defect(h) == 0.0

            a = generate(EnsembleSpec("normal", dim, seed))
            comm = np.linalg.norm(a @ matcore.adjoint(a) - matcore.adjoint(a) @ a, "fro")
            assert comm <= 1e-10 * matcore.frobenius_norm(a) ** 2

            u = generate(EnsembleSpec("haar_unitary", dim, seed))
            assert np.linalg.norm(matcore.adjoint(u) @ u - np.eye(dim), "fro") <= 1e-10

            t = generate(EnsembleSpec("square_zero", dim, seed))
            assert (np.linalg.norm(t @ t, "fro")
                    <= 1e-12 * matcore.frobenius_norm(t) ** 2)

            s = generate(EnsembleSpec("hermitian_contraction", dim, seed))
            assert matcore.hermitian_defect(s) == 0.0
            assert matcore.spectral_norm(s) <= 1.0

            ca, cb = generate(EnsembleSpec("commuting_hermitian_pair", dim, seed))
            scale = matcore.frobenius_norm(ca) * matcore.frobenius_norm(cb)
            assert np.linalg.norm(ca @ cb - cb @ ca, "fro") <= 1e-10 * max(scale, 1e-30)

            if dim % 2 == 0:
                ta, tb = generate(EnsembleSpec("anticommuting_hermitian_pair", dim, seed))
                scale = matcore.frobenius_norm(ta) * matcore.frobenius_norm(tb)
                assert np.linalg.norm(ta @ tb + tb @ ta, "fro") <= 1e-10 * max(scale, 1e-30)
                assert matcore.hermitian_defect(ta) == 0.0
                assert matcore.hermitian_defect(tb) == 0.0

    def test_anticommuting_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            generate(EnsembleSpec("anticommuting_hermitian_pair", 3, 1))

    def test_square_zero_needs_dim_two(self):
        with pytest.raises(ValueError):
            generate(EnsembleSpec("square_zero", 1, 1))

    def test_scale_applies_linearly(self):
        a = generate(EnsembleSpec("ginibre", 3, 5, scale=1.0))
        b = generate(EnsembleSpec("ginibre", 3, 5, scale=2.5))
        np.testing.assert_allclose(b, 2.5 * a, rtol=0, atol=0)


class TestHaarStatistics:
    def test_first_entry_modulus(self):
        # E |u_{11}|^2 = 1/n for Haar; 2000 draws stay within 3 standard errors
        n, draws = 4, 2000
        total = 0.0
        for seed in range(draws):
            u = generate(EnsembleSpec("haar_unitary", n, 10_000 + seed))
            total += abs(u[0, 0]) ** 2
        mean = total / draws
        var = 2.0 / (n * (n + 1)) - 1.0 / n**2
        assert abs(mean - 1.0 / n) <= 3.0 * math.sqrt(var / draws)


class TestPairsAndIds:
    def test_generate_pair_single_kind(self):
        a, b = generate_pair(EnsembleSpec("ginibre", 3, 77))
        assert not np.array_equal(a, b)
        a2, b2 = generate_pair(EnsembleSpec("ginibre", 3, 77))
        assert np.array_equal(a, a2) and np.array_equal(b, b2)
        # first element matches the plain draw (one stream, sequential)
        assert np.array_equal(a, generate(EnsembleSpec("ginibre", 3, 77)))

    def test_generate_pair_pair_kind(self):
        a, b = generate_pair(EnsembleSpec("commuting_hermitian_pair", 4, 5))
        c, d = generate(EnsembleSpec("commuting_hermitian_pair", 4, 5))
        assert np.array_equal(a, c) and np.array_equal(b, d)

    def test_ids_round_trip(self):
        for kind in KINDS:
            ident = ensemble_id(kind, 4)
            assert parse_ensemble_id(ident) == (kind, 4)

    @pytest.mark.parametrize("bad", ["ginibre", "nope:4", "ginibre:x", "ginibre:0"])
    def test_bad_ids(self, bad):
        with pytest.raises(ValueError):
            parse_ensemble_id(bad)

    @pytest.mark.parametrize("bad, message", [
        ("nil:1", "square_zero needs dim >= 2"),
        ("anticommute:3", "anticommuting_hermitian_pair needs an even dim"),
    ])
    def test_undrawable_dims(self, bad, message):
        with pytest.raises(ValueError, match=message):
            parse_ensemble_id(bad)

    def test_unit_vectors(self):
        vecs = random_unit_vectors(1, 50, 5)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
