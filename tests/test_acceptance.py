"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS line.  The full verify run (criterion 4) executes once and its
machine report feeds the equality-witness criterion."""

import json
import math
import time

import numpy as np
import pytest

from radiuslab import cli
from radiuslab import matcore
from radiuslab.ensembles import EnsembleSpec, generate, random_unit_vectors
from radiuslab.inequalities import check_hs_pair
from radiuslab.norms import frobenius_norm_spec, operator_norm_spec
from radiuslab.radius import (
    alphabeta_radius,
    generalized_radius,
    hs_radius_sq,
    numerical_radius,
    numerical_radius_oracle,
    omega_norm,
    omega_radius_slow,
)

SQRT2 = math.sqrt(2.0)
OP = operator_norm_spec()
FRO = frobenius_norm_spec()


def _mixed_matrices(count, kinds, base_seed, dims=range(2, 9)):
    dims = list(dims)
    for i in range(count):
        kind = kinds[i % len(kinds)]
        dim = dims[i % len(dims)]
        yield generate(EnsembleSpec(kind, dim, base_seed + i))


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    """Criterion 4's run: cmd_verify with defaults, machine format."""
    out = tmp_path_factory.mktemp("verify") / "report.jsonl"
    start = time.perf_counter()
    code = cli.main(["verify", "--format", "machine", "--out", str(out)])
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return code, elapsed, records


def test_criterion_1_paper_golden_example(tmp_path):
    start = time.perf_counter()
    code = cli.main(["paper-example", "--tol", "1e-8", "--format", "machine",
                     "--out", str(tmp_path / "pe.jsonl")])
    elapsed = time.perf_counter() - start
    assert code == 0
    recs = [json.loads(line)
            for line in (tmp_path / "pe.jsonl").read_text().splitlines()]
    values = {r["name"]: r["value"] for r in recs}
    assert abs(values["w"] - (1 + SQRT2) / 2) <= 1e-8
    assert abs(values["re_norm"] - math.sqrt(3 + 2 * SQRT2) / 2) <= 1e-8
    assert abs(values["im_norm"] - 0.5) <= 1e-8
    assert abs(values["inf_phi"] - math.sqrt(1 + SQRT2 / 2)) <= 1e-8
    assert abs(values["re_plus_im"] - (1 + SQRT2 / 2)) <= 1e-8
    assert values["w"] < values["inf_phi"] < values["re_plus_im"]
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: worked 2x2 example, all closed forms within "
          f"1e-8 ({elapsed:.2f}s)")


def test_criterion_2_omega_radius_identity():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for t in _mixed_matrices(200, ("ginibre", "normal", "square_zero"), 5000):
        w = numerical_radius(t).value
        slow = omega_radius_slow(t).value
        err = abs(slow - SQRT2 * w) / max(1.0, w)
        worst = max(worst, err)
        assert err <= 1e-7
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 200
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: slow-path w_Omega = sqrt(2) w on 200 matrices, "
          f"worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for i, t in enumerate(_mixed_matrices(100, ("ginibre",), 7000)):
        w = numerical_radius(t).value
        oracle = numerical_radius_oracle(t, grid=200000)
        err = abs(w - oracle) / max(1.0, oracle)
        worst = max(worst, err)
        assert err <= 1e-8, f"matrix {i}"
    print(f"\nPASS criterion 3: optimizer vs 200000-point oracle on 100 "
          f"matrices, worst rel err {worst:.2e}")


def test_criterion_4_full_suite(verify_report):
    code, elapsed, records = verify_report
    assert code == 0
    summary = records[-1]
    assert summary["record"] == "summary"
    assert summary["failures"] == 0 and summary["errors"] == 0
    assert elapsed < 600.0
    checks = {r["name"] for r in records if r["record"] == "check"}
    assert len(checks) >= 16
    print(f"\nPASS criterion 4: cmd_verify defaults exit 0, "
          f"{summary['records']} records across {len(checks)} check variants, "
          f"0 failures ({elapsed:.0f}s)")


def test_criterion_5_equality_witnesses(verify_report):
    _, _, records = verify_report
    checks = [r for r in records if r["record"] == "check" and r["status"] == "ok"]

    def raw_slack(rec):
        return rec["slack"] * max(1.0, rec["scale"])

    nil_basic = [r for r in checks if r["name"] == "basic"
                 and r["ensemble"].startswith("nil:")]
    assert nil_basic and all(raw_slack(r) <= 1e-8 * r["scale"] for r in nil_basic)

    normal_basic = [r for r in checks if r["name"] == "basic"
                    and r["ensemble"] == "normal:4"]
    assert normal_basic and all(raw_slack(r) <= 1e-8 * r["scale"] for r in normal_basic)

    nil_omega = [r for r in checks if r["name"] == "omega-upper"
                 and r["ensemble"].startswith("nil:")]
    assert nil_omega and all(raw_slack(r) <= 1e-8 * r["scale"] for r in nil_omega)

    e12_lower = [r for r in checks if r["name"] == "lower-bound[op]"
                 and r["ensemble"] == "golden" and r["note"] == "square-zero-e12-op"]
    assert len(e12_lower) == 1 and raw_slack(e12_lower[0]) <= 1e-8 * e12_lower[0]["scale"]
    print("\nPASS criterion 5: equality witnesses recorded (square-zero left "
          "bound, normal right bound, square-zero omega bound, E12 lower bound)")


def test_criterion_6_hilbert_schmidt_identity():
    worst = 0.0
    for t in _mixed_matrices(200, ("ginibre", "normal", "square_zero"), 9000):
        w2 = generalized_radius(t, FRO).value
        target = hs_radius_sq(t)
        err = abs(w2 ** 2 - target) / max(1.0, target)
        worst = max(worst, err)
        assert err <= 1e-9
    print(f"\nPASS criterion 6: squared Frobenius radius identity on 200 "
          f"matrices, worst rel err {worst:.2e}")


def test_criterion_7_phi_sup_closed_form():
    worst = 0.0
    for t in _mixed_matrices(200, ("ginibre", "normal", "hermitian"), 11000):
        rep = check_hs_pair(t, t)
        closed = rep.terms["phi_sup_closed"]
        err = abs(rep.terms["phi_sup_grid"] - closed) / max(1.0, closed)
        worst = max(worst, err)
        assert err <= 1e-10
    print(f"\nPASS criterion 7: grid-refined phi-sup matches 2|tr(T^2)| on 200 "
          f"matrices, worst rel err {worst:.2e}")


def test_criterion_8_norm_registry_audit(tmp_path):
    out = tmp_path / "norms.jsonl"
    code = cli.main(["validate-norms", "--trials", "20", "--format", "machine",
                     "--out", str(out)])
    assert code == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    audits = [r for r in recs if r["record"] == "norm-audit"]
    assert audits and all(r["passed"] for r in audits)
    norms_seen = {r["norm"] for r in audits}
    assert norms_seen == {"op", "schatten:1", "schatten:2", "wnum", "omega"}
    witnesses = {r["norm"]: r["witness"] for r in recs
                 if r["record"] == "algebra-witness"}
    assert "wnum" in witnesses and "nilpotent" in witnesses["wnum"]
    print("\nPASS criterion 8: norm registry audited clean; submultiplicativity "
          f"witness for the radius norm: {witnesses['wnum']}")


def test_criterion_9_cross_structure_properties():
    # Cartesian identity
    for seed in range(20):
        a = generate(EnsembleSpec("ginibre", 4, 13000 + seed))
        target = (a @ matcore.adjoint(a) + matcore.adjoint(a) @ a) / 2
        budget = 1e-12 * matcore.frobenius_norm(a) ** 2
        for phi in np.linspace(0.0, 2 * math.pi, 16, endpoint=False):
            rot = matcore.rotate(a, float(phi))
            re, im = matcore.re_part(rot), matcore.im_part(rot)
            assert np.abs(re @ re + im @ im - target).max() <= budget

    # alpha-beta parameterization equals the rotation form
    for seed in range(25):
        a = generate(EnsembleSpec("ginibre", 3, 14000 + seed))
        for spec in (OP, FRO):
            assert abs(alphabeta_radius(a, spec)
                       - generalized_radius(a, spec).value) <= 1e-9

    # weak unitary invariance of w and Omega
    for seed in range(10):
        a = generate(EnsembleSpec("ginibre", 3, 15000 + seed))
        u = generate(EnsembleSpec("haar_unitary", 3, 15500 + seed))
        conj = matcore.adjoint(u) @ a @ u
        w = numerical_radius(a).value
        assert abs(numerical_radius(conj).value - w) <= 1e-8 * max(1.0, w)
        om = omega_norm(a).value
        assert abs(omega_norm(conj).value - om) <= 1e-8 * max(1.0, om)

    # Buzano-type vector inequality, 500 seeded triples in dimension <= 8
    count = 0
    for block, dim in enumerate(range(2, 9)):
        vecs = random_unit_vectors(16000 + block, 3 * 72, dim)
        for k in range(72):
            a, b, c = vecs[3 * k], vecs[3 * k + 1], vecs[3 * k + 2]
            lhs = abs(np.vdot(c, a)) ** 2 + abs(np.vdot(c, b)) ** 2
            rhs = max(np.vdot(a, a).real, np.vdot(b, b).real) + abs(np.vdot(b, a))
            assert lhs <= rhs + 1e-12
            count += 1
    assert count >= 500
    print("\nPASS criterion 9: Cartesian identity, alpha-beta equivalence, "
          "weak unitary invariance, Buzano vector inequality")
