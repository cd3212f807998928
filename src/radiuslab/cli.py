"""Command-line front end.

Subcommands:

* ``compute``        -- all radii/norms of one matrix file.
* ``verify``         -- run the inequality suite over seeded ensembles.
* ``paper-example``  -- reproduce the classic worked 2x2 example
                        T = [[1, 1], [0, 0]] and assert its closed forms.
* ``validate-norms`` -- audit every registered norm's declared flags.

Exit codes: 0 success, 1 a verified assertion or inequality failed,
2 usage or input errors.  Machine format output is JSON lines with floats
printed at 17 significant digits, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .ensembles import EnsembleSpec, parse_ensemble_id
from .inequalities import DEFAULT_CHECK_NAMES, check_inf_upper, run_suite
from .matcore import (MatrixShapeError, NonFiniteEntry, frobenius_norm, hermitian_norm,
                      im_part, re_part, spectral_norm)
from .matfile import MatrixFormatError, load_matrix
from .norms import (UnknownNormId, operator_norm_spec, parse_norm_id, registry,
                    validate_norm)
from .radius import (
    generalized_radius,
    hs_radius_sq,
    numerical_radius,
    omega_norm,
    omega_radius_slow,
    result_memo,
    rotated_objective,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_ENSEMBLES = ("ginibre:2,ginibre:4,hermitian:4,normal:4,unitary:4,"
                     "nil:2,nil:4,contraction:4,commute:4,anticommute:4")

_SQRT2 = math.sqrt(2.0)


class UsageError(Exception):
    """Bad configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    matrix_path: Optional[str] = None
    norm_id: Optional[str] = None
    ensemble_ids: tuple = ()
    checks: Optional[tuple] = None
    trials: int = 100
    seed: int = 2024
    tol: float = 1e-9
    out_path: Optional[str] = None
    format: str = "human"
    lines: list = field(default_factory=list)

    def validate(self) -> None:
        if self.trials < 1:
            raise UsageError("trials: must be >= 1")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise UsageError("tol: must be a positive finite real")
        if self.format not in ("human", "machine"):
            raise UsageError(f"format: unknown format {self.format!r}")
        if self.command == "compute" and not self.matrix_path:
            raise UsageError("matrix: compute requires --matrix PATH")

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def flush(self) -> None:
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _j(value) -> str:
    """Canonical JSON fragment: floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if math.isnan(x):
            return "null"
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return f"{x:.17g}"
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_j(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)}")


def _jrec(pairs) -> str:
    return "{" + ",".join(f'"{k}":{_j(v)}' for k, v in pairs) + "}"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiuslab",
        description="Numerical radii, the Omega norm, and a mechanical "
                    "verification suite for the inequalities relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, matrix=False):
        if matrix:
            p.add_argument("--matrix", help="path to a matrix file (JSON rows/cols/data)")
        p.add_argument("--norm", default=None,
                       help="norm id: op, schatten:p (p decimal or 'inf'), wnum, omega "
                            "(compute defaults to op; verify runs its norm-sweeping "
                            "checks with this norm alone; validate-norms defaults to "
                            "the whole registry)")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("human", "machine"), default="human")

    p = sub.add_parser("compute", help="compute every radius/norm of one matrix")
    common(p, matrix=True)

    p = sub.add_parser("verify", help="run the inequality suite over seeded ensembles")
    common(p)
    p.add_argument("--ensembles", default=DEFAULT_ENSEMBLES,
                   help="comma-separated ensemble ids like ginibre:4,nil:2")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated check names (default: all; known: "
                        f"{','.join(DEFAULT_CHECK_NAMES)})")

    p = sub.add_parser("paper-example",
                       help="reproduce the worked 2x2 example and assert its closed forms")
    common(p)

    p = sub.add_parser("validate-norms", help="audit the registered norms' declared flags")
    common(p)
    return parser


def _load_square_matrix(config: RunConfig) -> np.ndarray:
    try:
        arr = load_matrix(config.matrix_path)
    except FileNotFoundError:
        raise UsageError(f"matrix: file not found: {config.matrix_path}")
    except MatrixFormatError as exc:
        raise UsageError(f"matrix: {exc}")
    if arr.shape[0] != arr.shape[1]:
        raise UsageError(f"matrix: rows/cols: operator-level quantities need a "
                         f"square matrix, got {arr.shape[0]}x{arr.shape[1]}")
    return arr


@result_memo()
def cmd_compute(config: RunConfig) -> int:
    arr = _load_square_matrix(config)
    norm_id = config.norm_id or "op"
    try:
        norm = parse_norm_id(norm_id)
    except UnknownNormId as exc:
        raise UsageError(f"norm: {exc}")
    w = numerical_radius(arr)
    if norm_id == "omega":
        # the Omega norm as N(.) is itself a 2-D optimization; the reduced
        # slow-path settings keep this interactive while staying refined
        w_n = omega_radius_slow(arr)
    else:
        # op and schatten:inf declare w as their radius: shared with w above
        w_n = generalized_radius(arr, norm)
    om = omega_norm(arr)
    quantities = [
        ("operator_norm", spectral_norm(arr)),
        ("frobenius_norm", frobenius_norm(arr)),
        ("re_norm", spectral_norm(re_part(arr))),
        ("im_norm", spectral_norm(im_part(arr))),
        ("w", w.value),
        ("w_argmax_theta", w.argmax_theta),
        (f"w_N[{norm_id}]", w_n.value),
        (f"w_N[{norm_id}]_argmax_theta", w_n.argmax_theta),
        ("omega", om.value),
        ("omega_argmax_s", om.argmax[0]),
        ("omega_argmax_psi", om.argmax[1]),
        ("w_omega", _SQRT2 * w.value),
        ("hs_radius_sq", hs_radius_sq(arr)),
    ]
    if config.format == "machine":
        config.emit(_jrec([("record", "compute"), ("matrix", config.matrix_path)]
                          + [(k, v) for k, v in quantities]))
    else:
        config.emit(f"matrix: {config.matrix_path} "
                    f"({arr.shape[0]}x{arr.shape[1]}, norm id {norm_id})")
        for key, value in quantities:
            config.emit(f"  {key:32s} {_fmt(value)}")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    specs = []
    for ens_id in config.ensemble_ids:
        try:
            kind, dim = parse_ensemble_id(ens_id)
        except ValueError as exc:
            raise UsageError(f"ensembles: {exc}")
        specs.append(EnsembleSpec(kind, dim, config.seed))
    checks = list(config.checks) if config.checks is not None else None
    if checks is not None:
        if not checks:
            raise UsageError("checks: no check names given")
        unknown = [c for c in checks if c not in DEFAULT_CHECK_NAMES]
        if unknown:
            raise UsageError(f"checks: unknown check(s) {', '.join(unknown)}")
        repeated = list(dict.fromkeys(c for c in checks if checks.count(c) > 1))
        if repeated:
            raise UsageError(f"checks: repeated check(s) {', '.join(repeated)}")
    norm = None
    if config.norm_id is not None:
        try:
            norm = parse_norm_id(config.norm_id)
        except UnknownNormId as exc:
            raise UsageError(f"norm: {exc}")
    report = run_suite(specs, checks=checks, trials=config.trials,
                       tol=config.tol, include_golden=True, norm=norm)
    if config.format == "machine":
        # one JSON field per dataclass field, in declaration order
        for rec in report.records:
            config.emit(_jrec([("record", "check")] + list(asdict(rec).items())))
        for agg in report.aggregates:
            config.emit(_jrec([("record", "aggregate")] + list(asdict(agg).items())))
        config.emit(_jrec([
            ("record", "summary"), ("records", len(report.records)),
            ("failures", report.failures), ("errors", report.errors),
            ("near_equality", list(report.near_equality)),
        ]))
    else:
        config.emit(f"{'check':34s} {'records':>7s} {'min slack':>13s} "
                    f"{'fail':>4s} {'inap':>4s} {'err':>3s}")
        for agg in report.aggregates:
            ms = "" if math.isnan(agg.min_slack) else f"{agg.min_slack:+.3e}"
            config.emit(f"{agg.name:34s} {agg.records:7d} {ms:>13s} "
                        f"{agg.failures:4d} {agg.inapplicable:4d} {agg.errors:3d}")
        for rec in report.records:
            if rec.status == "violation":
                config.emit(f"VIOLATION {rec.name} {rec.ensemble} trial {rec.trial} "
                            f"seed {rec.seed} slack {_fmt(rec.slack)} "
                            f"digest {rec.input_digest}")
            elif rec.status == "error":
                config.emit(f"ERROR {rec.name} {rec.ensemble} trial {rec.trial} "
                            f"seed {rec.seed}: {rec.note}")
        for line in report.near_equality:
            config.emit(f"near-equality candidate: {line}")
        config.emit(f"summary: {len(report.records)} records, "
                    f"{report.failures} failures, {report.errors} errors")
    return EXIT_OK if report.failures == 0 and report.errors == 0 else EXIT_VIOLATION


def cmd_paper_example(config: RunConfig) -> int:
    arr = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    tol = config.tol
    w = numerical_radius(arr).value
    terms = check_inf_upper(arr, operator_norm_spec()).terms
    inf_v, re_norm, im_norm, total = (terms[k] for k in ("inf", "re_norm", "im_norm", "sum"))

    phis = np.arange(360) * (2.0 * math.pi / 360)
    grid_sq = rotated_objective(arr, hermitian_norm)(phis) ** 2
    c2 = np.cos(phis) ** 2
    formula = (1.0 + 2.0 * c2) / 4.0 + np.sqrt(c2 + c2 ** 2) / 2.0
    formula_dev = float(np.abs(grid_sq - formula).max())

    expect_w = (1.0 + math.sqrt(2.0)) / 2.0
    expect_re = math.sqrt(3.0 + 2.0 * math.sqrt(2.0)) / 2.0
    expect_inf = math.sqrt(1.0 + math.sqrt(2.0) / 2.0)
    expect_sum = 1.0 + math.sqrt(2.0) / 2.0

    assertions = [
        ("w", w, expect_w, abs(w - expect_w) <= tol),
        ("re_norm", re_norm, expect_re, abs(re_norm - expect_re) <= tol),
        ("im_norm", im_norm, 0.5, abs(im_norm - 0.5) <= tol),
        ("re_formula_grid_deviation", formula_dev, 0.0, formula_dev <= tol),
        ("inf_phi", inf_v, expect_inf, abs(inf_v - expect_inf) <= tol),
        ("re_plus_im", total, expect_sum, abs(total - expect_sum) <= tol),
        ("strict_order", min(inf_v - w, total - inf_v), 0.0,
         inf_v - w > tol and total - inf_v > tol),
    ]
    if config.format == "machine":
        for name, value, expected, ok in assertions:
            config.emit(_jrec([("record", "assertion"), ("name", name),
                               ("value", value), ("expected", expected),
                               ("error", abs(value - expected)), ("pass", ok)]))
    else:
        config.emit("worked example T = [[1, 1], [0, 0]]:")
        config.emit(f"  w(T)            = {_fmt(w)}   (exact (1+sqrt(2))/2)")
        config.emit(f"  ||Re T||        = {_fmt(re_norm)}   (exact sqrt(3+2 sqrt(2))/2)")
        config.emit(f"  ||Im T||        = {_fmt(im_norm)}   (exact 1/2)")
        config.emit(f"  inf_phi         = {_fmt(inf_v)}   (exact sqrt(1+sqrt(2)/2))")
        config.emit(f"  ||Re||+||Im||   = {_fmt(total)}   (exact 1+sqrt(2)/2)")
        for name, value, expected, ok in assertions:
            config.emit(f"  {'PASS' if ok else 'FAIL'} {name} "
                        f"(error {abs(value - expected):.3e}, tol {tol:g})")
    failed = [a for a in assertions if not a[3]]
    if failed and config.format == "human":
        config.emit(f"first failed assertion: {failed[0][0]}")
    return EXIT_OK if not failed else EXIT_VIOLATION


def cmd_validate_norms(config: RunConfig) -> int:
    specs = registry()
    if config.norm_id is None:
        selected = specs
    elif config.norm_id in specs:
        selected = {config.norm_id: specs[config.norm_id]}
    else:
        # --norm narrows the audit; ids outside the registry are still fine
        # as long as they parse (e.g. schatten:3), anything else is usage
        try:
            selected = {config.norm_id: parse_norm_id(config.norm_id)}
        except UnknownNormId as exc:
            raise UsageError(f"norm: {exc}")
    all_passed = True
    witnesses = {}
    for norm_id, spec in selected.items():
        for dim in (2, 4, 8):
            result = validate_norm(spec, dim, config.trials, config.seed)
            all_passed = all_passed and result.passed
            if result.algebra_witness and norm_id not in witnesses:
                witnesses[norm_id] = result.algebra_witness
            if config.format == "machine":
                for audit in result.audits:
                    config.emit(_jrec([
                        ("record", "norm-audit"), ("norm", norm_id), ("dim", dim),
                        ("axiom", audit.name), ("worst", audit.worst),
                        ("tolerance", audit.tolerance), ("passed", audit.passed),
                        ("witness", audit.witness),
                    ]))
            else:
                worst = max((a.worst for a in result.audits), default=0.0)
                flags = " ".join(f"{a.name}={a.worst:.2e}" for a in result.audits)
                status = "ok" if result.passed else "FAIL"
                config.emit(f"{norm_id:12s} n={dim}  {status:4s} worst={worst:.2e}  {flags}")
    for norm_id, witness in sorted(witnesses.items()):
        if config.format == "machine":
            config.emit(_jrec([("record", "algebra-witness"), ("norm", norm_id),
                               ("witness", witness)]))
        else:
            config.emit(f"submultiplicativity violation witness for {norm_id}: {witness}")
    if config.format == "machine":
        config.emit(_jrec([("record", "summary"), ("passed", all_passed)]))
    else:
        config.emit(f"summary: {'all declared flags audited clean' if all_passed else 'FLAG AUDIT FAILED'}")
    return EXIT_OK if all_passed else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    config = RunConfig(
        command=ns.command,
        matrix_path=getattr(ns, "matrix", None),
        norm_id=ns.norm,
        ensemble_ids=tuple(s for s in getattr(ns, "ensembles", "").split(",") if s),
        checks=(tuple(s for s in ns.checks.split(",") if s)
                if getattr(ns, "checks", None) is not None else None),
        trials=ns.trials,
        seed=ns.seed,
        tol=ns.tol,
        out_path=ns.out,
        format=ns.format,
    )
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "paper-example": cmd_paper_example,
        "validate-norms": cmd_validate_norms,
    }
    try:
        config.validate()
        code = handlers[config.command](config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatrixShapeError, NonFiniteEntry, UnknownNormId) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
