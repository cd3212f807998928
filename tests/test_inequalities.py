import dataclasses
import math

import numpy as np
import pytest

from radiuslab import inequalities as iq
from radiuslab import radius
from radiuslab.ensembles import EnsembleSpec, generate, generate_pair
from radiuslab.norms import numerical_radius_norm_spec, operator_norm_spec, schatten_norm_spec

OP = operator_norm_spec()
S2 = schatten_norm_spec(2)
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
E21 = E12.T.copy()
WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SQRT2 = math.sqrt(2.0)


class TestBasicBounds:
    def test_square_zero_left_equality(self):
        rep = iq.check_basic_bounds(E12)
        assert rep.holds
        assert rep.terms["slack[lower]"] == pytest.approx(0.0, abs=1e-10)
        assert rep.terms["slack[upper]"] == pytest.approx(0.5, abs=1e-9)

    def test_hermitian_right_equality(self):
        h = generate(EnsembleSpec("hermitian", 3, 4))
        rep = iq.check_basic_bounds(h)
        assert rep.holds
        assert rep.terms["slack[upper]"] == pytest.approx(0.0, abs=1e-9)

    def test_worked_matrix_strict(self):
        rep = iq.check_basic_bounds(WORKED)
        assert rep.holds
        w, nrm = rep.terms["w"], rep.terms["operator_norm"]
        assert w == pytest.approx((1 + SQRT2) / 2, abs=1e-9)
        assert nrm == pytest.approx(SQRT2, abs=1e-12)
        assert 0.5 * nrm < w < nrm


class TestUpperBounds:
    def test_kittaneh_square_zero(self):
        rep = iq.check_kittaneh(E12)
        assert rep.holds
        assert rep.terms["w"] == pytest.approx(0.5, abs=1e-10)
        assert rep.terms["bound"] == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_kittaneh_identity_equality(self):
        rep = iq.check_kittaneh(I2)
        assert rep.holds
        assert abs(rep.slack) <= 1e-9

    def test_kittaneh_sweep(self):
        for seed in range(30):
            rep = iq.check_kittaneh(generate(EnsembleSpec("ginibre", 3, 1000 + seed)))
            assert rep.holds

    def test_dragomir_square_zero(self):
        rep = iq.check_dragomir(E12)
        assert rep.holds
        assert rep.terms["bound"] == pytest.approx(SQRT2 / 2, abs=1e-10)

    def test_dragomir_identity_equality(self):
        rep = iq.check_dragomir(I2)
        assert rep.holds
        assert abs(rep.slack) <= 1e-9

    def test_dragomir_sweep(self):
        for seed in range(30):
            rep = iq.check_dragomir(generate(EnsembleSpec("ginibre", 3, 1100 + seed)))
            assert rep.holds


class TestInfUpper:
    def test_worked_matrix_chain(self):
        rep = iq.check_inf_upper(WORKED, OP)
        assert rep.holds
        assert rep.terms["w_N"] == pytest.approx((1 + SQRT2) / 2, abs=1e-9)
        assert rep.terms["inf"] == pytest.approx(math.sqrt(1 + SQRT2 / 2), abs=1e-9)
        assert rep.terms["sum"] == pytest.approx(1 + SQRT2 / 2, abs=1e-12)
        assert rep.terms["w_N"] < rep.terms["inf"] < rep.terms["sum"]

    def test_hermitian(self):
        h = generate(EnsembleSpec("hermitian", 3, 6))
        rep = iq.check_inf_upper(h, OP)
        assert rep.holds

    def test_sweep_over_norms(self):
        for seed in range(8):
            a = generate(EnsembleSpec("ginibre", 3, 1200 + seed))
            for spec in (OP, S2, schatten_norm_spec(1)):
                assert iq.check_inf_upper(a, spec).holds


class TestLowerBound:
    def test_square_zero_equality(self):
        rep = iq.check_lower_bound(E12, OP)
        assert rep.holds
        assert abs(rep.terms["raw_slack_min"]) <= 1e-10

    def test_identity_equality(self):
        rep = iq.check_lower_bound(I2, OP)
        assert rep.holds
        assert rep.terms["slack[refined]"] == pytest.approx(0.0, abs=1e-9)

    def test_requires_algebra_norm(self):
        with pytest.raises(iq.RequiresAlgebraNorm):
            iq.check_lower_bound(E12, numerical_radius_norm_spec())

    def test_sweep(self):
        for seed in range(8):
            a = generate(EnsembleSpec("ginibre", 3, 1300 + seed))
            for spec in (OP, S2):
                assert iq.check_lower_bound(a, spec).holds


class TestProductFamily:
    def test_chain_identity(self):
        rep = iq.check_norm_chain(I2, I2, OP)
        assert rep.holds
        assert rep.terms["w_N_TS"] == pytest.approx(1.0, abs=1e-10)

    def test_chain_square_zero_product(self):
        rep = iq.check_norm_chain(E12, E12, OP)
        assert rep.holds
        assert rep.terms["w_N_TS"] == pytest.approx(0.0, abs=1e-12)

    def test_chain_sweep(self):
        for seed in range(6):
            t, s = generate_pair(EnsembleSpec("ginibre", 3, 1400 + seed))
            for spec in (OP, S2):
                assert iq.check_norm_chain(t, s, spec).holds

    @pytest.mark.parametrize("check", [
        lambda t, s: iq.check_norm_chain(t, s, OP),
        lambda t, s: iq.check_commutator(t, s, OP),
        lambda t, s: iq.check_unitary_commutator(t, s, OP),
        lambda t, s: iq.check_product(t, s, OP),
        lambda t, s: iq.check_commuting_product(t, s, OP),
        iq.check_hs_pair,
    ])
    def test_pairs_of_different_shapes_are_refused(self, check):
        with pytest.raises(ValueError, match="same shape"):
            check(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_commutator_identity_t(self):
        s = generate(EnsembleSpec("ginibre", 3, 7))
        rep = iq.check_commutator(I2 if s.shape[0] == 2 else np.eye(3, dtype=complex), s, OP)
        assert rep.holds

    def test_commutator_nilpotent_equality(self):
        rep = iq.check_commutator(E12, E21, OP)
        assert rep.holds
        assert rep.terms["lhs_plus"] == pytest.approx(1.0, abs=1e-10)
        assert rep.terms["rhs"] == pytest.approx(1.0, abs=1e-10)

    def test_commutator_sweep(self):
        for seed in range(6):
            t, s = generate_pair(EnsembleSpec("ginibre", 3, 1500 + seed))
            for spec in (OP, S2):
                assert iq.check_commutator(t, s, spec).holds

    def test_product_identity(self):
        rep = iq.check_product(I2, I2, OP)
        assert rep.holds
        assert rep.terms["branch1_minus"] == pytest.approx(1.0, abs=1e-10)
        assert rep.terms["level2"] == pytest.approx(2.0, abs=1e-10)
        assert rep.terms["level3"] == pytest.approx(4.0, abs=1e-10)

    def test_product_square_zero(self):
        rep = iq.check_product(E12, E12, OP)
        assert rep.holds
        assert rep.terms["w_N_TS"] == pytest.approx(0.0, abs=1e-12)

    def test_product_sweep(self):
        for seed in range(5):
            t, s = generate_pair(EnsembleSpec("ginibre", 3, 1600 + seed))
            for spec in (OP, S2):
                assert iq.check_product(t, s, spec).holds


class TestContractionFamily:
    def test_unitary_commutator_sign_diagonal(self):
        d = np.diag([1.0, -1.0]).astype(complex)
        rep = iq.check_unitary_commutator(d, d, OP)
        assert rep.holds
        assert rep.terms["lhs_plus"] == pytest.approx(2.0, abs=1e-9)
        assert rep.terms["rhs"] == pytest.approx(2.0, abs=1e-9)
        assert rep.terms["cayley_defect"] <= 1e-10

    def test_unitary_commutator_commuting_pair(self):
        t = generate(EnsembleSpec("hermitian_contraction", 4, 9))
        rep = iq.check_unitary_commutator(t, t, OP)
        assert rep.holds
        assert rep.terms["lhs_minus"] == pytest.approx(0.0, abs=1e-10)

    def test_unitary_commutator_sweep(self):
        for seed in range(6):
            t, s = generate_pair(EnsembleSpec("hermitian_contraction", 4, 1700 + seed))
            for spec in (OP, S2):
                assert iq.check_unitary_commutator(t, s, spec).holds

    def test_unitary_commutator_rejects_dilation(self):
        with pytest.raises(iq.RequiresContraction):
            iq.check_unitary_commutator(2.0 * np.eye(2), np.eye(2), OP)

    def test_unitary_commutator_rejects_non_hermitian(self):
        with pytest.raises(iq.RequiresStructure):
            iq.check_unitary_commutator(E12, 0.5 * I2, OP)

    def test_self_commutator_normal_input(self):
        u = generate(EnsembleSpec("haar_unitary", 3, 31))
        rep = iq.check_self_commutator(u, OP)
        assert rep.holds
        assert rep.terms["lhs"] == pytest.approx(0.0, abs=1e-9)

    def test_self_commutator_square_zero(self):
        rep = iq.check_self_commutator(E12, OP)
        assert rep.holds
        assert rep.terms["lhs"] == pytest.approx(1.0, abs=1e-9)
        assert rep.terms["rhs"] == pytest.approx(4.0, abs=1e-12)

    def test_self_commutator_rejects_dilation(self):
        with pytest.raises(iq.RequiresContraction):
            iq.check_self_commutator(3.0 * E12, OP)


class TestCommutingProduct:
    def test_commuting_diagonals_equality(self):
        rep = iq.check_commuting_product(np.diag([2.0, 1.0]).astype(complex),
                                         np.diag([3.0, 1.0]).astype(complex), OP)
        assert rep.holds
        assert rep.terms["lhs"] == pytest.approx(6.0, abs=1e-9)
        assert rep.terms["rhs"] == pytest.approx(6.0, abs=1e-9)

    def test_anticommuting_paulis(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        rep = iq.check_commuting_product(sx, sz, OP)
        assert rep.holds
        assert rep.terms["mode"] == -1.0
        assert rep.terms["lhs"] == pytest.approx(1.0, abs=1e-9)

    def test_sweep(self):
        for seed in range(5):
            for kind in ("commuting_hermitian_pair", "anticommuting_hermitian_pair"):
                t, s = generate(EnsembleSpec(kind, 4, 1800 + seed))
                for spec in (OP, S2, schatten_norm_spec(1)):
                    assert iq.check_commuting_product(t, s, spec).holds

    def test_rejects_generic_pair(self):
        h1 = generate(EnsembleSpec("hermitian", 3, 51))
        h2 = generate(EnsembleSpec("hermitian", 3, 52))
        with pytest.raises(iq.RequiresCommutation):
            iq.check_commuting_product(h1, h2, OP)


class TestOmegaChecks:
    def test_omega_upper_square_zero_equality(self):
        rep = iq.check_omega_upper(E12)
        assert rep.holds
        assert rep.terms["omega"] == pytest.approx(1.0, abs=1e-9)
        assert rep.terms["branch_gram"] == pytest.approx(1.0, abs=1e-12)
        assert rep.terms["branch_square"] == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.slack) <= 1e-9

    def test_omega_upper_identity(self):
        rep = iq.check_omega_upper(I2)
        assert rep.holds
        assert abs(rep.slack) <= 1e-9

    def test_omega_upper_sweep(self):
        for seed in range(6):
            assert iq.check_omega_upper(generate(EnsembleSpec("ginibre", 3, 1900 + seed))).holds

    def test_omega_chain_worked(self):
        rep = iq.check_omega_chain(WORKED)
        assert rep.holds
        assert rep.terms["w"] == pytest.approx((1 + SQRT2) / 2, abs=1e-9)
        assert rep.terms["identity_residual"] <= 1e-7

    def test_omega_chain_normal_equalities(self):
        a = generate(EnsembleSpec("normal", 3, 21))
        rep = iq.check_omega_chain(a)
        assert rep.holds
        assert abs(rep.terms["slack[w-vs-omega]"]) <= 1e-7

    def test_omega_equality_square_zero(self):
        rep = iq.check_omega_equality(E12)
        assert rep.holds
        assert rep.terms["cond_halving"] == 0.0
        assert rep.terms["cond_flat"] == 0.0

    def test_omega_equality_zero_matrix(self):
        rep = iq.check_omega_equality(np.zeros((2, 2)))
        assert rep.holds
        assert rep.terms["cond_halving"] == 1.0 and rep.terms["cond_flat"] == 1.0

    def test_omega_equality_sweep(self):
        for seed in range(6):
            rep = iq.check_omega_equality(generate(EnsembleSpec("ginibre", 3, 2000 + seed)))
            assert rep.holds

    def test_special_forms(self):
        rep = iq.check_special_forms(np.diag([1j, 2.0 + 0j]), "normal")
        assert rep.holds
        assert rep.terms["omega"] == pytest.approx(2 * SQRT2, abs=1e-7)
        rep = iq.check_special_forms(E12, "square_zero")
        assert rep.holds
        rep = iq.check_special_forms(np.array([[0.0, 1.0], [1.0, 0.0]]), "self_adjoint")
        assert rep.holds
        assert rep.terms["omega"] == pytest.approx(SQRT2, abs=1e-7)

    def test_special_forms_structure_gate(self):
        with pytest.raises(iq.RequiresStructure):
            iq.check_special_forms(WORKED, "normal")
        with pytest.raises(ValueError):
            iq.check_special_forms(E12, "unitary")

    def test_rank_one_orthogonal_outer_product(self):
        t = generate(EnsembleSpec("square_zero", 4, 33))
        rep = iq.check_special_forms(t, "square_zero")
        assert rep.holds
        assert rep.terms["omega"] == pytest.approx(rep.terms["operator_norm"], abs=1e-7)


class TestHilbertSchmidtPair:
    def test_square_zero(self):
        rep = iq.check_hs_pair(E12, E12)
        assert rep.holds
        assert rep.terms["lhs_i"] == pytest.approx(SQRT2, abs=1e-10)
        assert rep.terms["rhs_i"] == pytest.approx(2.0, abs=1e-12)

    def test_identity_pair(self):
        rep = iq.check_hs_pair(I2, I2)
        assert rep.holds
        assert rep.terms["lhs_ii"] == pytest.approx(4.0, abs=1e-10)
        assert rep.terms["rhs_ii"] == pytest.approx(32.0, abs=1e-9)

    def test_phi_sup_closed_form(self):
        for seed in range(10):
            t, s = generate_pair(EnsembleSpec("ginibre", 3, 2100 + seed))
            rep = iq.check_hs_pair(t, s)
            assert rep.holds
            closed = rep.terms["phi_sup_closed"]
            assert abs(rep.terms["phi_sup_grid"] - closed) <= 1e-10 * max(1.0, closed)


class TestReportContract:
    def test_holds_matches_slack(self):
        rep = iq.check_basic_bounds(generate(EnsembleSpec("ginibre", 3, 77)))
        assert rep.holds == (rep.slack >= -rep.tolerance)
        assert rep.slack == rep.rhs - rep.lhs

    def test_determinism(self):
        a = generate(EnsembleSpec("ginibre", 3, 88))
        assert iq.check_dragomir(a) == iq.check_dragomir(a)
        assert iq.check_omega_chain(a) == iq.check_omega_chain(a)

    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3])
    def test_scaling_invariance(self, factor):
        a = generate(EnsembleSpec("ginibre", 3, 99)) * factor
        b = generate(EnsembleSpec("ginibre", 3, 100)) * factor
        assert iq.check_basic_bounds(a).holds
        assert iq.check_kittaneh(a).holds
        assert iq.check_dragomir(a).holds
        assert iq.check_inf_upper(a, OP).holds
        assert iq.check_lower_bound(a, OP).holds
        assert iq.check_norm_chain(a, b, OP).holds
        assert iq.check_product(a, b, OP).holds
        assert iq.check_omega_upper(a).holds
        assert iq.check_omega_chain(a).holds
        assert iq.check_omega_equality(a).holds
        assert iq.check_hs_pair(a, b).holds


class TestSuiteRunner:
    def test_small_run_clean(self):
        specs = [EnsembleSpec("ginibre", 3, 2024), EnsembleSpec("square_zero", 4, 2024)]
        rep = iq.run_suite(specs, checks=["basic", "kittaneh", "omega-upper"], trials=4,
                           include_golden=True)
        assert rep.failures == 0 and rep.errors == 0
        names = {r.name for r in rep.records}
        assert names == {"basic", "kittaneh", "omega-upper"}
        golden = [r for r in rep.records if r.ensemble == "golden"]
        assert golden

    def test_trial_seed_mapping(self):
        specs = [EnsembleSpec("ginibre", 2, 5000)]
        rep = iq.run_suite(specs, checks=["kittaneh"], trials=3)
        assert [r.seed for r in rep.records] == [5000, 5001, 5002]

    def test_corrupted_check_surfaces_witness(self):
        def broken(T, *, tol):
            report = iq.check_basic_bounds(T, tol=tol)
            return dataclasses.replace(report, rhs=report.rhs - 1.0,
                                       slack=report.slack - 1.0, holds=False)

        bad = iq.CheckDef(name="broken", tag="selftest", runner=broken,
                          kinds=("ginibre",))
        rep = iq.run_suite([EnsembleSpec("ginibre", 2, 7)], checks=[bad], trials=2)
        assert rep.failures == 2
        assert all(r.status == "violation" and r.input_digest for r in rep.records)

    def test_empty_ensembles(self):
        rep = iq.run_suite([], trials=5)
        assert rep.records == () and rep.failures == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            iq.run_suite([], checks=["nope"], trials=1)

    def test_inapplicable_recorded(self):
        def picky(T, *, tol):
            raise iq.RequiresContraction("always")

        defn = iq.CheckDef(name="picky", tag="selftest", runner=picky,
                           kinds=("ginibre",))
        rep = iq.run_suite([EnsembleSpec("ginibre", 2, 9)], checks=[defn], trials=2)
        assert rep.failures == 0
        assert all(r.status == "inapplicable" and not r.holds for r in rep.records)

    def test_error_recorded_without_aborting(self):
        calls = {"n": 0}

        def flaky(T, *, tol):
            if np.array_equal(T, E12):
                raise RuntimeError("golden boom")
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return iq.check_basic_bounds(T, tol=tol)

        defn = iq.CheckDef(name="flaky", tag="selftest", runner=flaky,
                           kinds=("ginibre",), golden=(iq.GoldenCase("e12", (E12,)),))
        rep = iq.run_suite([EnsembleSpec("ginibre", 2, 11)], checks=[defn], trials=3,
                           include_golden=True)
        assert rep.errors == 2
        statuses = [r.status for r in rep.records]
        assert statuses.count("error") == 2 and statuses.count("ok") == 2
        errors = {(r.ensemble, r.note) for r in rep.records if r.status == "error"}
        assert errors == {("golden", "RuntimeError: golden boom"),
                          ("ginibre:2", "RuntimeError: boom")}

    def test_aggregation_order_independent(self):
        specs = [EnsembleSpec("ginibre", 2, 300), EnsembleSpec("hermitian", 3, 300)]
        rep1 = iq.run_suite(specs, checks=["basic"], trials=3)
        rep2 = iq.run_suite(list(reversed(specs)), checks=["basic"], trials=3)
        assert rep1.records == rep2.records
        assert rep1.aggregates == rep2.aggregates


class TestChunkedGrids:
    def test_small_chunks_give_identical_results(self, monkeypatch):
        t = generate(EnsembleSpec("ginibre", 4, 31))
        s = generate(EnsembleSpec("ginibre", 4, 32))
        s1 = schatten_norm_spec(1)

        def run():
            return (
                [iq.check_inf_upper(t, norm).terms for norm in (OP, S2, s1)],
                [iq.check_lower_bound(t, norm).terms for norm in (OP, S2)],
                iq.check_omega_equality(t).terms,
                radius.generalized_radius(t, dataclasses.replace(OP, radius=None)),
                radius.generalized_radius(t, s1),
                radius.generalized_radius(t, numerical_radius_norm_spec()),
                [radius.alphabeta_radius(t, norm) for norm in (OP, s1)],
                iq.check_hs_pair(t, s).terms,
            )

        default = run()
        # 50 entries hold three 4x4 matrices per grid chunk
        monkeypatch.setattr(radius, "_CHUNK_ENTRIES", 50)
        assert run() == default
