"""Tests for the benchmark itself: the numpy oracle on inputs with closed
forms, the tracer's install/uninstall, and a one-round smoke run of every
workload.

    python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SQRT2 = math.sqrt(2.0)

WORKED = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
NORMAL_DIAG = np.diag([1j, 2.0 + 0j])
E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def test_oracle_worked_2x2():
    assert oracle.numerical_radius(WORKED) == pytest.approx((1 + SQRT2) / 2, abs=1e-13)
    assert oracle.op_norm(WORKED) == pytest.approx(SQRT2, abs=1e-14)
    re, im = oracle.parts(WORKED)
    assert oracle.op_norm(re) == pytest.approx((1 + SQRT2) / 2, abs=1e-14)
    assert oracle.op_norm(im) == pytest.approx(0.5, abs=1e-14)
    # T^2 = T, so |tr T^2| = 1 and w_2^2 = ||T||_F^2/2 + 1/2
    assert oracle.hs_radius_sq(WORKED) == pytest.approx(1.5, abs=1e-14)
    assert oracle.norm_radius(WORKED, "schatten:2") ** 2 == pytest.approx(1.5, abs=1e-12)
    assert oracle.norm_radius(WORKED, "op") == pytest.approx((1 + SQRT2) / 2, abs=1e-13)
    assert not oracle.is_normal(WORKED) and not oracle.is_square_zero(WORKED)


def test_oracle_normal_diagonal():
    # normal: w = ||T||; the Schatten-1 radius is sup |sin t| + 2 |cos t| = sqrt 5
    assert oracle.is_normal(NORMAL_DIAG)
    assert oracle.numerical_radius(NORMAL_DIAG) == pytest.approx(2.0, abs=1e-13)
    assert oracle.norm_radius(NORMAL_DIAG, "op") == pytest.approx(2.0, abs=1e-13)
    assert oracle.norm_radius(NORMAL_DIAG, "schatten:1") == pytest.approx(math.sqrt(5.0), abs=1e-12)
    assert oracle.nuclear_norm(NORMAL_DIAG) == pytest.approx(3.0, abs=1e-14)
    assert oracle.fro_norm(NORMAL_DIAG) == pytest.approx(math.sqrt(5.0), abs=1e-14)


def test_oracle_e12():
    # square-zero: w = ||T||/2; Re(e^{it} E12) has eigenvalues +-1/2 for every t
    assert oracle.is_square_zero(E12) and not oracle.is_normal(E12)
    assert oracle.numerical_radius(E12) == pytest.approx(0.5, abs=1e-14)
    assert oracle.norm_radius(E12, "schatten:1") == pytest.approx(1.0, abs=1e-14)
    assert oracle.norm_radius(E12, "schatten:2") ** 2 == pytest.approx(0.5, abs=1e-14)


def _e12_response(**changes):
    """A compute record for E12 from its closed forms: Omega(E12) = ||E12||
    = 1 at s = 0, w = 1/2 at theta = 0, w_Omega = sqrt(2)/2."""
    rec = {"operator_norm": 1.0, "frobenius_norm": 1.0, "re_norm": 0.5, "im_norm": 0.5,
           "w": 0.5, "w_argmax_theta": 0.0, "w_N[op]": 0.5, "w_N[op]_argmax_theta": 0.0,
           "omega": 1.0, "omega_argmax_s": 0.0, "omega_argmax_psi": 0.0,
           "w_omega": SQRT2 / 2, "hs_radius_sq": 0.5}
    rec.update(changes)
    return rec


def test_check_compute_accepts_closed_forms():
    assert oracle.check_compute(E12, "op", _e12_response(), "square_zero") == []


@pytest.mark.parametrize("key", ["w", "omega", "w_N[op]", "hs_radius_sq", "w_omega"])
def test_check_compute_flags_a_perturbed_value(key):
    rec = _e12_response()
    rec[key] += 1e-6
    assert oracle.check_compute(E12, "op", rec, "square_zero") != []


def test_tracer_restores_the_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from radiuslab import cli, inequalities, matcore, norms, radius
    from tracing import Tracer

    before = (radius.numerical_radius, inequalities.numerical_radius,
              norms.operator_norm_spec, matcore.spectral_norm, cli.cmd_compute)
    tracer = Tracer()
    tracer.install({d.runner: d.name for d in inequalities.default_checks()})
    try:
        assert inequalities.numerical_radius is radius.numerical_radius
        assert radius.numerical_radius is not before[0]
        tracer.active = True
        value = radius.numerical_radius(WORKED).value
        tracer.active = False
    finally:
        tracer.uninstall()
    assert value == pytest.approx((1 + SQRT2) / 2, abs=1e-12)
    assert (radius.numerical_radius, inequalities.numerical_radius,
            norms.operator_norm_spec, matcore.spectral_norm, cli.cmd_compute) == before
    m = tracer.layer_metrics([])
    assert m["radius.numerical_radius.calls"] == 1
    assert m["radius.generalized_radius.calls"] == 1
    assert m["norms.evaluate_many.calls"] >= 1
    assert m["matcore.spectral_norm.calls"] == m["norms.evaluate.calls"] > 0


def _metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["suite-default", "compute-batched", "compute-nested"])
def test_smoke_run(workload):
    result = _run(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    result = _run("suite-default", 1)
    assert result["failed"] == 0
    assert set(result["metrics"]) == _metric_names("per_layer")
    m = result["metrics"]
    # one untraced reference pass and one traced pass of equal size
    assert m["inequalities.records"]["value"] * 2 == result["attempted"]
    assert m["radius.omega_radius_slow.calls"]["value"] > 0
    assert 0 < m["radius.distinct_input_ratio"]["value"] <= 1
