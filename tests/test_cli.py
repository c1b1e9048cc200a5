import json
import subprocess
import sys

import pytest

from mvbernstein.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_quad_cube_value(self, capsys):
        code, out, _ = invoke(
            capsys,
            "eval", "--kind", "cube", "--n", "20", "--dim", "1",
            "--function", "quad", "--point", "0.4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.172, abs=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "eval", "--kind", "cube", "--n", "4", "--dim", "1",
            "--function", "const1", "--point", "0.5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value"
        assert float(lines[1]) == pytest.approx(1.0)

    def test_mixed_requires_d1(self, capsys):
        code, _, err = invoke(
            capsys,
            "eval", "--kind", "mixed", "--n", "4", "--dim", "2",
            "--function", "quad", "--point", "0.2,0.3",
        )
        assert code == 1
        assert "--d1" in err

    def test_d1_outside_the_dimension(self, capsys):
        code, out, err = invoke(
            capsys,
            "eval", "--kind", "mixed", "--d1", "3", "--n", "4", "--dim", "2",
            "--function", "quad", "--point", "0.2,0.3",
        )
        assert code == 1 and out == ""
        assert err == "error: --d1 must lie between 1 and --dim\n"

    def test_mixed_kind_works(self, capsys):
        code, out, _ = invoke(
            capsys,
            "eval", "--kind", "mixed", "--d1", "1", "--n", "6", "--dim", "2",
            "--function", "affine", "--point", "0.2,0.3",
        )
        assert code == 0
        # affine in d=2: x/3 + 2y/3 + 1/3
        assert json.loads(out)["value"] == pytest.approx(0.2 / 3 + 0.6 / 3 + 1 / 3, abs=1e-12)


class TestDeriv:
    def test_prodlin_simplex(self, capsys):
        code, out, _ = invoke(
            capsys,
            "deriv", "--kind", "simplex", "--n", "8", "--dim", "2",
            "--function", "prodlin", "--k", "1,1", "--point", "0.2,0.3",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.875, abs=1e-12)

    def test_order_length_checked(self, capsys):
        code, _, err = invoke(
            capsys,
            "deriv", "--kind", "cube", "--n", "8", "--dim", "2",
            "--function", "quad", "--k", "1", "--point", "0.2,0.3",
        )
        assert code == 1
        assert "order" in err


class TestUsageErrors:
    def test_malformed_point_token(self, capsys):
        code, _, err = invoke(
            capsys,
            "eval", "--kind", "cube", "--n", "4", "--dim", "1",
            "--function", "quad", "--point", "0.4,oops",
        )
        assert code == 2
        assert "oops" in err

    def test_malformed_order_token(self, capsys):
        code, _, err = invoke(
            capsys,
            "deriv", "--kind", "cube", "--n", "4", "--dim", "1",
            "--function", "quad", "--k", "-1", "--point", "0.4",
        )
        assert code == 2
        assert "-1" in err

    def test_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 2

    def test_unknown_function_lists_names(self, capsys):
        code, _, err = invoke(
            capsys,
            "eval", "--kind", "cube", "--n", "4", "--dim", "1",
            "--function", "zeta", "--point", "0.4",
        )
        assert code == 1
        assert "sincos" in err and "expsum" in err

    def test_model_past_the_memory_budget_exit_code(self, capsys):
        code, out, err = invoke(
            capsys,
            "deriv", "--kind", "cube", "--n", "200", "--dim", "5", "--function", "sincos",
            "--k", "1,0,0,0,0", "--point", "0.1,0.2,0.3,0.4,0.5",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: a cube model at n = 200, d = 5 has 328,080,401,001 samples")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["mc", "--kind", "cube", "--dim", "2", "--n", "4", "--samples", "1000000000000"],
             "error: 1,000,000,000,000 Monte Carlo samples on 2 axes draw 29,802.3 GiB"),
            (["lemma-check", "--dim", "2", "--k", "2,2", "--quad-points", "4000"],
             "error: a quadrature grid of 64,000,000 nodes at 4,000 points per unit range"),
        ],
        ids=["mc", "lemma-check"],
    )
    def test_request_past_the_memory_budget_exit_code(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv, "--function", "quad", "--point", "0.3,0.4")
        assert code == 1 and out == ""
        assert err.startswith(message)

    def test_grid_past_the_memory_budget_exit_code(self, capsys):
        # a grid of 40 points an axis on 5 axes: refused by name before
        # numpy is asked for it, not by a MemoryError's traceback
        code, out, err = invoke(capsys, "converge", "--kind", "cube", "--dim", "5", "--function", "quad",
                                "--n-list", "4,8", "--grid", "40")
        assert code == 1 and out == ""
        assert err.startswith("error: a cube model at n = 8, d = 5 on a grid of 102,400,000 points has a working set of ")

    def test_model_past_the_float_range_exit_code(self, capsys):
        # a working set past 1.8e308 bytes is refused by name, not by an
        # OverflowError's traceback
        point = ",".join(["0.1"] * 16)
        code, out, err = invoke(capsys, "eval", "--kind", "cube", "--dim", "16", "--n", str(10**20),
                                "--function", "quad", "--point", point)
        assert code == 1 and out == ""
        assert err.startswith("error: a cube model at n = 100000000000000000000, d = 16 has 100,000,")

    def test_degree_past_int64_exit_code(self, capsys):
        # numpy's draws raised a TypeError here; the reference model is refused first
        code, out, err = invoke(
            capsys,
            "mc", "--kind", "cube", "--dim", "2", "--function", "quad", "--point", "0.3,0.4",
            "--n", "9223372036854775808",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: a cube model at n = 9223372036854775808, d = 2 has ")

    def test_domain_error_exit_code(self, capsys):
        code, _, err = invoke(
            capsys,
            "eval", "--kind", "cube", "--n", "4", "--dim", "1",
            "--function", "quad", "--point", "1.5",
        )
        assert code == 1
        assert "error" in err


class TestMc:
    def test_fields_present(self, capsys):
        code, out, _ = invoke(
            capsys,
            "mc", "--kind", "cube", "--n", "10", "--dim", "1",
            "--function", "quad", "--point", "0.4",
            "--samples", "2000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"estimate", "std_error", "reference", "z_score"}
        assert abs(payload["z_score"]) <= 5.0

    def test_corner_zero_z(self, capsys):
        code, out, _ = invoke(
            capsys,
            "mc", "--kind", "simplex", "--n", "10", "--dim", "2",
            "--function", "expsum", "--point", "1,0", "--samples", "100", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["std_error"] == 0.0
        assert payload["z_score"] == 0.0

    def test_derivative_estimate(self, capsys):
        code, out, _ = invoke(
            capsys,
            "mc", "--kind", "cube", "--n", "20", "--dim", "1",
            "--function", "quad", "--k", "2", "--point", "0.4",
            "--samples", "500", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == pytest.approx(1.9, abs=1e-9)
        assert payload["std_error"] == 0.0


class TestLemmaCheck:
    def test_passes_within_tolerance(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lemma-check", "--dim", "2", "--function", "sincos",
            "--k", "1,1", "--point", "0.2,0.3", "--z", "0.25",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["abs_diff"] <= 1e-6
        assert set(payload) == {"lhs", "rhs", "abs_diff"}

    def test_fails_with_coarse_quadrature(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lemma-check", "--dim", "2", "--function", "expsum",
            "--k", "2,2", "--point", "0.1,0.1", "--z", "0.25",
            "--quad-points", "1", "--tol", "1e-12",
        )
        payload = json.loads(out)
        assert payload["abs_diff"] > 1e-12
        assert code == 1

    def test_steps_neither_one_nor_per_axis(self, capsys):
        code, out, err = invoke(
            capsys,
            "lemma-check", "--dim", "2", "--function", "sincos",
            "--k", "1,1", "--point", "0.2,0.3", "--z", "0.1,0.2,0.3",
        )
        assert code == 1 and out == ""
        assert err == "error: steps have 3 entries, expected 1 or 2\n"


class TestConverge:
    def test_csv_default(self, capsys):
        code, out, _ = invoke(
            capsys,
            "converge", "--kind", "cube", "--dim", "1", "--function", "quad",
            "--n-list", "10,20,40", "--grid", "17",
        )
        assert code == 0
        lines = out.splitlines()
        assert "# function=quad" in lines
        assert "n,sup_error" in lines

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "converge", "--kind", "simplex", "--dim", "2", "--function", "sincos",
            "--k", "1,0", "--n-list", "8,16", "--grid", "9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["function"] == "sincos"
        assert len(payload["rows"]) == 2


class TestCorpus:
    def test_listing(self, capsys):
        code, out, _ = invoke(capsys, "corpus")
        assert code == 0
        names = {e["function"] for e in json.loads(out)}
        assert names == {"const1", "affine", "quad", "prodlin", "sincos", "expsum"}

    def test_csv_listing(self, capsys):
        code, out, _ = invoke(capsys, "corpus", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "function,dims,smoothness"


class TestReproducibility:
    def test_mc_byte_identical(self, capsys):
        argv = [
            "mc", "--kind", "simplex", "--n", "15", "--dim", "2",
            "--function", "sincos", "--point", "0.3,0.2",
            "--samples", "3000", "--seed", "77",
        ]
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_module_entry_point(self):
        argv = [
            sys.executable, "-m", "mvbernstein",
            "eval", "--kind", "cube", "--n", "20", "--dim", "1",
            "--function", "quad", "--point", "0.4",
        ]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["value"] == pytest.approx(0.172, abs=1e-12)

    def test_one_process_matches_fresh_processes(self, capsys):
        # the parser is built once per process; each call must still see its
        # own command's defaults, whatever ran before it
        commands = [
            ["converge", "--kind", "cube", "--dim", "1", "--function", "quad",
             "--n-list", "4,8", "--grid", "5"],
            ["eval", "--kind", "simplex", "--n", "6", "--dim", "2",
             "--function", "sincos", "--point", "0.2,0.3"],
            ["eval", "--kind", "cube", "--n", "6", "--dim", "2", "--function", "quad"],
            ["eval", "--kind", "cube", "--n", "6", "--dim", "2",
             "--function", "quad", "--point", "0.2,0.3", "--format", "csv"],
            ["mc", "--kind", "cube", "--n", "6", "--dim", "2", "--function", "quad",
             "--point", "0.2,0.3", "--samples", "500"],
            ["converge", "--kind", "cube", "--dim", "1", "--function", "quad",
             "--n-list", "4,8", "--grid", "5"],
        ]
        codes = []
        for argv in commands:
            code, out, _ = invoke(capsys, *argv)
            codes.append(code)
            fresh = subprocess.run(
                [sys.executable, "-m", "mvbernstein", *argv], capture_output=True, text=True
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert codes == [0, 0, 2, 0, 0, 0]
