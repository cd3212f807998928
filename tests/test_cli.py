import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radiuslab import cli
from radiuslab.ensembles import EnsembleSpec, generate
from radiuslab.matfile import save_matrix

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def worked_matrix(tmp_path):
    path = tmp_path / "worked.json"
    save_matrix(path, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    return str(path)


@pytest.fixture
def e12_matrix(tmp_path):
    path = tmp_path / "e12.json"
    save_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    return str(path)


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def machine_records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestCompute:
    def test_worked_matrix_values(self, worked_matrix, tmp_path):
        code, text = run_cli(["compute", "--matrix", worked_matrix,
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["record"] == "compute"
        assert rec["w"] == pytest.approx(1.207106781, abs=1e-8)
        assert rec["re_norm"] == pytest.approx(1.207106781, abs=1e-8)
        assert rec["im_norm"] == pytest.approx(0.5, abs=1e-10)
        assert rec["omega"] == pytest.approx(1.0 + SQRT2 / 2, abs=1e-8)
        assert rec["w_omega"] == pytest.approx(SQRT2 * rec["w"], abs=1e-12)
        assert rec["hs_radius_sq"] == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_extreme_scales(self, scale, tmp_path):
        path = tmp_path / "scaled.json"
        save_matrix(path, scale * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
        code, text = run_cli(["compute", "--matrix", str(path),
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        expected = {"operator_norm": SQRT2, "frobenius_norm": SQRT2,
                    "re_norm": (1.0 + SQRT2) / 2, "im_norm": 0.5,
                    "w": (1.0 + SQRT2) / 2, "omega": 1.0 + SQRT2 / 2}
        for key, value in expected.items():
            assert rec[key] == pytest.approx(scale * value, rel=1e-12), key
        # 1.5 scale^2 is below the subnormals, subnormal, or above the range
        assert rec["hs_radius_sq"] == {1e-300: 0.0, 1e-160: pytest.approx(1.5e-320, abs=5e-324),
                                       1e160: "inf"}[scale]

    def test_omega_above_the_float_range(self, tmp_path):
        # Omega = 3 sqrt(2) 5e307 overflows; w = 1.5e308 does not
        path = tmp_path / "huge.json"
        save_matrix(path, 5e307 * np.ones((3, 3), dtype=complex))
        code, text = run_cli(["compute", "--matrix", str(path),
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["omega"] == "inf" and rec["w_omega"] == "inf"
        assert rec["w"] == pytest.approx(1.5e308, rel=1e-12)
        assert rec["operator_norm"] == pytest.approx(1.5e308, rel=1e-12)

    @pytest.mark.parametrize("part", [1.2e308, 1.5e308, 1.7e308])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "square_zero"])
    def test_near_the_top_of_the_float_range(self, kind, part, tmp_path):
        # Re(T) and Im(T) of such a T overflow unless formed on a scaled copy
        t = generate(EnsembleSpec(kind, 4, 5))
        path = tmp_path / "top.json"
        save_matrix(path, t / np.abs(t.view(float)).max() * part)
        for norm in ("op", "schatten:1", "schatten:2", "wnum", "omega"):
            code, text = run_cli(["compute", "--matrix", str(path), "--norm", norm,
                                  "--format", "machine"], tmp_path)
            assert code == 0, norm
            (rec,) = machine_records(text)
            # no NaN (null); a value past the float range is "inf"
            assert None not in rec.values(), norm
            assert rec["w"] == "inf" or rec["w"] > 0.0

    def test_hermitian_matrix_is_answered_by_its_spectrum(self, tmp_path):
        path = tmp_path / "hermitian.json"
        # -lambda_min > lambda_max on this draw: the maximizer is pi, exactly
        save_matrix(path, generate(EnsembleSpec("hermitian", 6, 4)))
        code, text = run_cli(["compute", "--matrix", str(path),
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["w_argmax_theta"] == math.pi
        assert rec["w"] == pytest.approx(rec["operator_norm"], rel=1e-14, abs=0.0)

    def test_zero_matrix(self, tmp_path):
        path = tmp_path / "zero.json"
        save_matrix(path, np.zeros((2, 2)))
        code, text = run_cli(["compute", "--matrix", str(path),
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        for key in ("operator_norm", "w", "omega", "w_omega", "hs_radius_sq"):
            assert rec[key] == 0.0

    def test_square_zero_chain(self, e12_matrix, tmp_path):
        code, text = run_cli(["compute", "--matrix", e12_matrix,
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["w"] == pytest.approx(0.5, abs=1e-9)
        assert rec["omega"] == pytest.approx(1.0, abs=1e-9)
        assert rec["w_omega"] == pytest.approx(0.707106781, abs=1e-8)

    def test_human_contains_same_values(self, e12_matrix, tmp_path):
        code, text = run_cli(["compute", "--matrix", e12_matrix], tmp_path)
        assert code == 0
        code2, machine = run_cli(["compute", "--matrix", e12_matrix,
                                  "--format", "machine"], tmp_path, "m.txt")
        (rec,) = machine_records(machine)
        for key in ("omega", "w", "hs_radius_sq"):
            assert f"{rec[key]:.17g}" in text

    def test_control_characters_in_a_path_stay_on_one_line(self, tmp_path):
        path = tmp_path / 'tab\there\nnewline "é\\.json'
        save_matrix(path, np.eye(2))
        code, text = run_cli(["compute", "--matrix", str(path), "--format", "machine"],
                             tmp_path)
        assert code == 0 and text.count("\n") == 1
        (rec,) = machine_records(text)
        assert rec["matrix"] == str(path)

    def test_strings_are_json_with_control_characters_escaped(self):
        # an error note may hold a newline; other strings are as before
        line = cli._jrec([("note", "RuntimeError: two\nlines\x01"), ("path", 'é"\\')])
        assert "\n" not in line
        assert json.loads(line) == {"note": "RuntimeError: two\nlines\x01", "path": 'é"\\'}
        assert cli._j('é"\\') == '"é\\"\\\\"'

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.json"
        save_matrix(path, np.ones((2, 3)))
        assert cli.main(["compute", "--matrix", str(path)]) == 2

    def test_missing_file(self):
        assert cli.main(["compute", "--matrix", "/nonexistent.json"]) == 2

    def test_corrupt_file_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "data": [[0, 0]]}')
        assert cli.main(["compute", "--matrix", str(path)]) == 2
        assert "data" in capsys.readouterr().err

    def test_integer_beyond_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ", 0]]}")
        assert cli.main(["compute", "--matrix", str(path)]) == 2
        assert "error: matrix: data[0]: entries must be finite" in capsys.readouterr().err

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"rows": 1, "cols": 1, "data": [[1, 0]]} \xe9')
        assert cli.main(["compute", "--matrix", str(path)]) == 2
        assert "error: matrix: document: " in capsys.readouterr().err

    def test_directory_cannot_be_read(self, tmp_path, capsys):
        assert cli.main(["compute", "--matrix", str(tmp_path)]) == 2
        assert f"error: matrix: cannot read {tmp_path}" in capsys.readouterr().err

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["compute", "--matrix", str(path)]) == 2
        assert "error: matrix: document: " in capsys.readouterr().err

    def test_nul_byte_in_a_path(self, e12_matrix, capsys):
        assert cli.main(["compute", "--matrix", "a\x00b"]) == 2
        assert capsys.readouterr().err == ("error: matrix: cannot read 'a\\x00b': "
                                           "embedded null byte\n")
        assert cli.main(["compute", "--matrix", e12_matrix, "--out", "a\x00b"]) == 2
        assert capsys.readouterr().err == ("error: out: cannot write 'a\\x00b': "
                                           "embedded null byte\n")

    def test_unreadable_file(self, e12_matrix, monkeypatch, capsys):
        def denied(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "load_matrix", denied)
        assert cli.main(["compute", "--matrix", e12_matrix]) == 2
        assert "error: matrix: cannot read" in capsys.readouterr().err

    def test_wnum_norm_id(self, e12_matrix, tmp_path):
        code, text = run_cli(["compute", "--matrix", e12_matrix, "--norm", "wnum",
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["w_N[wnum]"] == pytest.approx(0.5, abs=1e-8)

    def test_omega_norm_id(self, e12_matrix, tmp_path):
        code, text = run_cli(["compute", "--matrix", e12_matrix, "--norm", "omega",
                              "--format", "machine"], tmp_path)
        assert code == 0
        (rec,) = machine_records(text)
        assert rec["w_N[omega]"] == pytest.approx(SQRT2 / 2, abs=1e-7)
        assert math.isfinite(rec["w_N[omega]_argmax_theta"])

    def test_compute_does_not_load_numpy_fft(self, tmp_path):
        # numpy imports numpy.fft lazily, and that import alone costs about
        # 0.34 MB of peak RSS; a fresh process shows whether compute needs it
        path = tmp_path / "nil8.json"
        save_matrix(path, generate(EnsembleSpec("square_zero", 8, 3)))
        script = (
            "import sys\n"
            "from radiuslab import cli\n"
            f"code = cli.main(['compute', '--matrix', {str(path)!r}, '--format', 'machine',"
            f" '--out', {str(tmp_path / 'out.jsonl')!r}])\n"
            "assert code == 0, code\n"
            "assert 'numpy.fft' not in sys.modules\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.jsonl").read_text()


class TestVerify:
    def test_square_zero_kittaneh_pattern(self, tmp_path):
        code, text = run_cli(["verify", "--checks", "kittaneh", "--ensembles",
                              "nil:4", "--trials", "5", "--format", "machine"],
                             tmp_path)
        assert code == 0
        recs = [r for r in machine_records(text) if r.get("record") == "check"
                and r["ensemble"] == "nil:4"]
        assert len(recs) == 5
        for rec in recs:
            # w = ||T||/2 against the bound ||T||/sqrt(2): ratio sqrt(2)
            assert rec["rhs"] / rec["lhs"] == pytest.approx(SQRT2, abs=1e-9)

    def test_machine_schema(self, tmp_path):
        code, text = run_cli(["verify", "--checks", "basic", "--ensembles",
                              "ginibre:2", "--trials", "2", "--format", "machine"],
                             tmp_path)
        assert code == 0
        recs = machine_records(text)
        checks = [r for r in recs if r["record"] == "check"]
        for rec in checks:
            for field in ("name", "paper_tag", "ensemble", "trial", "seed",
                          "lhs", "rhs", "slack", "holds", "tolerance",
                          "input_digest"):
                assert field in rec
        assert any(r["record"] == "aggregate" for r in recs)
        assert recs[-1]["record"] == "summary"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--checks", "dragomir", "--ensembles", "ginibre:3",
                "--trials", "3", "--format", "machine"]
        _, first = run_cli(args, tmp_path, "a.txt")
        _, second = run_cli(args, tmp_path, "b.txt")
        assert first == second

    def test_trials_zero_rejected(self):
        assert cli.main(["verify", "--trials", "0"]) == 2

    def test_unknown_ensemble(self):
        assert cli.main(["verify", "--ensembles", "martian:4", "--trials", "1"]) == 2

    def test_unknown_check(self):
        assert cli.main(["verify", "--checks", "bogus", "--trials", "1"]) == 2

    @pytest.mark.parametrize("checks", [",", ""])
    def test_empty_check_list(self, checks, capsys):
        assert cli.main(["verify", "--checks", checks, "--trials", "1",
                         "--ensembles", "ginibre:2"]) == 2
        assert "checks:" in capsys.readouterr().err

    def test_repeated_check_names(self, capsys):
        assert cli.main(["verify", "--checks", "basic,kittaneh,basic", "--trials", "1",
                         "--ensembles", "ginibre:2"]) == 2
        assert "checks: repeated check(s) basic" in capsys.readouterr().err

    def test_unknown_norm(self):
        assert cli.main(["verify", "--checks", "basic", "--norm", "bogus",
                         "--trials", "1", "--ensembles", "ginibre:2"]) == 2

    def test_norm_restricts_sweep(self, tmp_path):
        code, text = run_cli(["verify", "--checks", "inf-upper", "--norm", "schatten:1",
                              "--trials", "1", "--ensembles", "ginibre:2",
                              "--format", "machine"], tmp_path)
        assert code == 0
        recs = [r for r in machine_records(text) if r["record"] == "check"]
        assert recs
        assert {r["name"] for r in recs} == {"inf-upper[schatten:1]"}

    @pytest.mark.parametrize("ident", ["ginibre:65", "nil:100000", "anticommute:3000"])
    def test_ensemble_dims_above_the_bound(self, ident, capsys):
        assert cli.main(["verify", "--checks", "basic", "--ensembles", ident,
                         "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "ensembles:" in err and "<= 64" in err

    def test_ensemble_dim_at_the_bound(self, tmp_path):
        code, text = run_cli(["verify", "--checks", "basic", "--ensembles", "hermitian:64",
                              "--trials", "1", "--format", "machine"], tmp_path)
        assert code == 0
        assert {r["ensemble"] for r in machine_records(text)
                if r["record"] == "check"} >= {"hermitian:64"}

    def test_undrawable_ensemble_dims(self):
        assert cli.main(["verify", "--checks", "basic", "--ensembles", "nil:1",
                         "--trials", "1"]) == 2
        assert cli.main(["verify", "--checks", "commuting-product", "--ensembles",
                         "anticommute:3", "--trials", "1"]) == 2


class TestPaperExample:
    def test_default_run_passes(self, tmp_path):
        code, text = run_cli(["paper-example"], tmp_path)
        assert code == 0
        for value in ("1.2071067811865475", "0.5", "1.3065629648763766",
                      "1.7071067811865475"):
            assert value in text

    def test_machine_records(self, tmp_path):
        code, text = run_cli(["paper-example", "--tol", "1e-8",
                              "--format", "machine"], tmp_path)
        assert code == 0
        recs = machine_records(text)
        names = [r["name"] for r in recs]
        assert names == ["w", "re_norm", "im_norm", "re_formula_grid_deviation",
                         "inf_phi", "re_plus_im", "strict_order"]
        assert all(r["pass"] for r in recs)

    def test_absurd_tolerance_fails(self, tmp_path):
        # demands agreement below the floating-point floor; documents the
        # optimizer's precision limit rather than asserting it
        code, _ = run_cli(["paper-example", "--tol", "1e-18"], tmp_path)
        assert code in (0, 1)


class TestValidateNorms:
    def test_single_norm_quick(self, tmp_path):
        code, text = run_cli(["validate-norms", "--norm", "op", "--trials", "25",
                              "--format", "machine"], tmp_path)
        assert code == 0
        recs = machine_records(text)
        assert all(r["passed"] for r in recs if r["record"] == "norm-audit")
        assert recs[-1] == {"record": "summary", "passed": True}

    def test_schatten_one_quick(self, tmp_path):
        code, _ = run_cli(["validate-norms", "--norm", "schatten:1",
                           "--trials", "25"], tmp_path)
        assert code == 0

    def test_unknown_norm(self):
        assert cli.main(["validate-norms", "--norm", "bogus"]) == 2

    def test_wnum_witness_reported(self, tmp_path):
        code, text = run_cli(["validate-norms", "--norm", "wnum", "--trials", "3",
                              "--format", "machine"], tmp_path)
        assert code == 0
        recs = machine_records(text)
        witnesses = [r for r in recs if r["record"] == "algebra-witness"]
        assert witnesses and witnesses[0]["norm"] == "wnum"
        assert "nilpotent" in witnesses[0]["witness"]


class TestUsage:
    def test_no_command(self):
        assert cli.main([]) == 2

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_tol(self):
        assert cli.main(["paper-example", "--tol", "-1"]) == 2

    @pytest.mark.parametrize("out", ["missing/report.txt", "."])
    def test_unwritable_out(self, tmp_path, out, capsys):
        assert cli.main(["paper-example", "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("error: out: cannot write ")

    @pytest.mark.parametrize("args", [
        ["compute", "--matrix", "T.json", "--trials", "5"],
        ["compute", "--matrix", "T.json", "--seed", "5"],
        ["compute", "--matrix", "T.json", "--tol", "1e-3"],
        ["paper-example", "--norm", "op"],
        ["paper-example", "--trials", "7"],
        ["paper-example", "--seed", "7"],
        ["validate-norms", "--tol", "1e-3"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, args):
        assert cli.main(args) == 2

    @pytest.mark.parametrize("args, fields", [
        (["compute", "--matrix", "T.json", "--norm", "op"],
         {"matrix_path": "T.json", "norm_id": "op"}),
        (["verify", "--norm", "op", "--trials", "2", "--seed", "3", "--tol", "1e-3",
          "--ensembles", "nil:2,", "--checks", "basic"],
         {"norm_id": "op", "trials": 2, "seed": 3, "tol": 1e-3, "ensemble_ids": ("nil:2",),
          "checks": ("basic",)}),
        (["paper-example", "--tol", "1e-3"], {"tol": 1e-3}),
        (["validate-norms", "--norm", "op", "--trials", "2", "--seed", "3"],
         {"norm_id": "op", "trials": 2, "seed": 3}),
    ])
    def test_each_flag_sets_its_field(self, args, fields):
        # the flags not given keep the RunConfig defaults
        ns = cli._build_parser().parse_args(args + ["--out", "o.txt", "--format", "machine"])
        assert cli.RunConfig(**vars(ns)) == cli.RunConfig(
            command=args[0], out_path="o.txt", format="machine", **fields)
