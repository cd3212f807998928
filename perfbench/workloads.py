"""The three workloads, each a closed loop of radiuslab CLI calls made
in-process through `radiuslab.cli.main`.

A workload runs in rounds; every round makes the same calls on fresh
inputs, so a run is a whole number of identical rounds.  Seeds come from
the benchmark seed: ``base = 1 + seed * SEED_STRIDE``, and call j of round
k draws from ``base + k * (calls per round) + j`` (a verify pass of
``SUITE_TRIALS`` trials uses seeds ``base + k * SUITE_TRIALS`` onwards), so
no input repeats inside a run.  Set-up and warm-up use the top seed of the
stride, which no round reaches.

`round(k)` returns one `Call` per CLI invocation.  Outputs are checked
after the clock stops: every compute response against `oracle`, every
verify pass by the properties in `check_suite_output`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import oracle

SEED_STRIDE = 100_000
SUITE_TRIALS = 1
COMPUTE_POOL_ROUNDS = 4

# (kind, n, norm id) per compute-batched call: every kind meets every size,
# every size meets every norm.  square_zero is never paired with schatten:1
# (see README: the batched Schatten-1 path loses ~1e-8 on rank-deficient
# input).
BATCHED_CALLS = (
    ("ginibre", 8, "op"), ("ginibre", 16, "schatten:1"), ("ginibre", 32, "schatten:2"),
    ("hermitian", 8, "schatten:1"), ("hermitian", 16, "schatten:2"), ("hermitian", 32, "op"),
    ("normal", 8, "schatten:2"), ("normal", 16, "op"), ("normal", 32, "schatten:1"),
    ("square_zero", 8, "schatten:2"), ("square_zero", 16, "op"), ("square_zero", 32, "op"),
)

# n = 3..8, each with both nested norms; the kind cycles so that each norm
# meets every kind
_KINDS = ("ginibre", "hermitian", "normal", "square_zero")
NESTED_CALLS = tuple((_KINDS[(j + m) % 4], n, norm)
                     for j, n in enumerate(range(3, 9))
                     for m, norm in enumerate(("wnum", "omega")))

# golden worked example T = [[1, 1], [0, 0]]: w = (1 + sqrt 2)/2, ||T|| = sqrt 2
_W_2X2 = (1.0 + math.sqrt(2.0)) / 2.0
_NORM_2X2 = math.sqrt(2.0)
# (record name, golden label) -> (expected scale, a value the record's
# normalized lhs or rhs must carry once multiplied back by max(1, scale))
WORKED_2X2 = {
    ("basic", "worked-2x2"): (_NORM_2X2, _W_2X2),
    # ||Re T|| + ||Im T|| = w + 1/2; the inf-vs-phi0 link binds at
    # inf_phi = sqrt(1 + sqrt(2)/2)
    ("inf-upper[op]", "worked-2x2-op"): (_W_2X2 + 0.5, math.sqrt(1.0 + math.sqrt(2.0) / 2.0)),
    # T^2 = T, so the Dragomir branch sqrt(||T||^2 + w(T^2)) / sqrt 2 is the scale
    ("omega-chain", "worked-2x2"): (math.sqrt((_NORM_2X2 ** 2 + _W_2X2) / 2.0), _W_2X2),
}
GOLDEN_RTOL = 1e-9


@dataclasses.dataclass
class Call:
    latency_s: float
    attempted: int
    failed: int
    wrong: int  # outputs that contradict the oracle or a theorem


def seed_base(seed: int) -> int:
    return 1 + (seed % 2 ** 32) * SEED_STRIDE


def _note(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)


class _Workload:
    def __init__(self, rl, workdir: str, seed: int):
        self.rl = rl
        self.workdir = workdir
        self.base = seed_base(seed)
        self.warm_seed = self.base + SEED_STRIDE - 1
        self.out_path = os.path.join(workdir, "out.jsonl")

    def _cli(self, argv):
        """One timed CLI call; returns (exit code, output text, seconds)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = list(argv) + ["--format", "machine", "--out", self.out_path]
        t0 = time.perf_counter()
        try:
            code = self.rl.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc(file=sys.stderr)
            code = -1
        dt = time.perf_counter() - t0
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return code, text, dt


class SuiteDefault(_Workload):
    """`radiuslab verify` at the CLI defaults, one pass of SUITE_TRIALS
    trials per round; one record is one operation."""

    name = "suite-default"

    def setup(self):
        self._cli(["verify", "--checks", "basic", "--trials", "1",
                   "--ensembles", "ginibre:2", "--seed", str(self.warm_seed)])

    def round(self, k):
        seed = self.base + k * SUITE_TRIALS
        code, text, dt = self._cli(["verify", "--trials", str(SUITE_TRIALS),
                                    "--seed", str(seed)])
        attempted, failed, wrong = check_suite_output(text, code, self.rl)
        return [Call(dt, attempted, failed, wrong)]


def check_suite_output(text: str, code: int, rl):
    """(records, failed records, wrong records) of one verify pass.

    A record fails when it is a violation or an error, or when it breaks
    one of the properties below; a violation or a property mismatch is
    also a wrong output.  A pass whose summary, exit code or golden
    worked-example records are inconsistent fails as a whole.
    """
    try:
        recs = [json.loads(line) for line in text.splitlines() if line]
    except ValueError:
        recs = []
    checks = [r for r in recs if r.get("record") == "check"]
    summary = [r for r in recs if r.get("record") == "summary"]
    n = len(checks)
    violations = sum(r["status"] == "violation" for r in checks)
    errors = sum(r["status"] == "error" for r in checks)
    consistent = (len(summary) == 1 and summary[0]["records"] == n
                  and summary[0]["failures"] == violations
                  and summary[0]["errors"] == errors
                  and code == (0 if violations + errors == 0 else 1))
    golden = {(r["name"], r["note"]): r for r in checks if r["ensemble"] == "golden"}
    if not consistent or n == 0 or not all(key in golden for key in WORKED_2X2):
        _note(f"verify pass inconsistent (exit {code}, {n} records)")
        return max(n, 1), max(n, 1), max(n, 1)

    failed = wrong = 0
    for r in checks:
        ok = r["status"] in ("ok", "inapplicable")
        right = r["status"] != "violation"
        if right and r["ensemble"] == "golden":
            key = (r["name"], r["note"])
            if key in WORKED_2X2:
                right = _golden_ok(r, *WORKED_2X2[key])
        elif right and r["name"] == "basic":
            right = _basic_ok(r, rl)
        if not right:
            _note(f"wrong record {r['name']} {r['ensemble']} seed {r['seed']}")
        failed += not (ok and right)
        wrong += not right
    return n, failed, wrong


def _carried(r):
    d = max(1.0, float(r["scale"]))
    return (float(r["lhs"]) * d, float(r["rhs"]) * d)


def _golden_ok(r, scale, value) -> bool:
    return (oracle.close(r["scale"], scale, GOLDEN_RTOL)
            and any(oracle.close(v, value, GOLDEN_RTOL) for v in _carried(r)))


def _basic_ok(r, rl) -> bool:
    """`basic` on a drawn matrix: the scale is ||T|| and the record carries
    w(T), both against the oracle on the regenerated input."""
    kind, dim = rl.ensembles.parse_ensemble_id(r["ensemble"])
    t = rl.ensembles.generate(rl.ensembles.EnsembleSpec(kind, dim, int(r["seed"])))
    w = oracle.numerical_radius(t)
    return (oracle.close(r["scale"], oracle.op_norm(t), oracle.RTOL_NORM)
            and any(oracle.close(v, w, oracle.RTOL_RADIUS) for v in _carried(r)))


def write_matrix(path: str, t: np.ndarray) -> None:
    """The documented matrix file format, floats at 17 significant digits."""
    data = ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in t.reshape(-1))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"rows":{t.shape[0]},"cols":{t.shape[1]},"data":[{data}]}}\n')


class _Compute(_Workload):
    """`radiuslab compute` requests over matrix files written at set-up,
    one request per entry of `calls` in every round."""

    calls = ()

    def __init__(self, rl, workdir, seed):
        super().__init__(rl, workdir, seed)
        self.inputs = {}  # round -> [(matrix, kind, norm id, path)]

    def _draw(self, kind, n, seed):
        ens = self.rl.ensembles
        return ens.generate(ens.EnsembleSpec(kind, n, seed))

    def _write_round(self, k):
        batch = []
        for j, (kind, n, norm) in enumerate(self.calls):
            t = self._draw(kind, n, self.base + k * len(self.calls) + j)
            path = os.path.join(self.workdir, f"r{k}-{j}.json")
            write_matrix(path, t)
            batch.append((t, kind, norm, path))
        self.inputs[k] = batch

    def setup(self):
        for k in range(COMPUTE_POOL_ROUNDS):
            self._write_round(k)
        kind, n, norm = self.calls[0]
        path = os.path.join(self.workdir, "warm.json")
        write_matrix(path, self._draw(kind, n, self.warm_seed))
        self._cli(["compute", "--matrix", path, "--norm", norm])

    def round(self, k):
        if k not in self.inputs:
            self._write_round(k)
        out = []
        for t, kind, norm, path in self.inputs[k]:
            code, text, dt = self._cli(["compute", "--matrix", path, "--norm", norm])
            bad = ["exit code"] if code != 0 else []
            try:
                bad += oracle.check_compute(t, norm, json.loads(text), kind)
            except (ValueError, KeyError) as exc:
                bad.append(f"unreadable response ({exc})")
            if bad:
                _note(f"{os.path.basename(path)} {kind} n={t.shape[0]} {norm}: {', '.join(bad)}")
            out.append(Call(dt, 1, int(bool(bad)), int(bool(bad) and code == 0)))
        return out


class ComputeBatched(_Compute):
    name = "compute-batched"
    calls = BATCHED_CALLS


class ComputeNested(_Compute):
    name = "compute-nested"
    calls = NESTED_CALLS


WORKLOADS = {w.name: w for w in (SuiteDefault, ComputeBatched, ComputeNested)}
