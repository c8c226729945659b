import json
import os
import subprocess
import sys

import pytest

from dyndeg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDegreesCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "degrees", "--zeta", "1+2i", "--count", "3")
        assert code == 0
        assert "5" in out and "66" in out and "454" in out

    def test_rows_json(self, capsys):
        code, out, _ = run(capsys, "degrees", "--zeta", "1+2i", "--count", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [r["d"] for r in obj["rows"]] == ["5", "8", "22"]
        assert [r["e"] for r in obj["rows"]] == ["10", "66", "454"]
        assert obj["rows"][0]["gamma"] == "1-2i"

    def test_zero_count_header_only(self, capsys):
        code, out, _ = run(capsys, "degrees", "--zeta", "1+2i", "--count", "0", "--format", "csv")
        assert code == 0
        assert out.strip() == "j,d,gamma,e"

    def test_default_count_is_200(self, capsys):
        code, out, _ = run(capsys, "degrees", "--zeta", "1+2i", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 201

    def test_inadmissible_exit2(self, capsys):
        code, _, err = run(capsys, "degrees", "--zeta", "1+1i")
        assert code == 2
        assert "1+i" in err  # names the violated criterion


class TestLambdaCommand:
    def test_small_topological_degree(self, capsys):
        code, out, _ = run(capsys, "lambda", "--zeta", "1+2i", "--digits", "10")
        assert code == 0
        assert "6.8575574092" in out

    def test_large_topological_degree(self, capsys):
        code, out, _ = run(capsys, "lambda", "--zeta", "-3+4i", "--digits", "10")
        assert code == 0
        assert "13.4496076817" in out

    def test_inadmissible_exit2(self, capsys):
        code, _, err = run(capsys, "lambda", "--zeta", "2", "--digits", "5")
        assert code == 2
        assert "real" in err

    def test_json_schema_round_trip(self, capsys):
        code, out, _ = run(capsys, "lambda", "--zeta", "1+2i", "--digits", "9", "--format", "json")
        obj = json.loads(out)
        assert set(obj) == {"zeta", "lambda_lo", "lambda_hi", "width", "N_used", "precision_bits"}
        assert json.loads(json.dumps(obj, sort_keys=True)) == obj


class TestOracleCommand:
    def test_matches(self, capsys):
        code, out, _ = run(capsys, "oracle", "--zeta", "1+2i", "--max-iter", "3")
        assert code == 0
        assert "454" in out

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "oracle", "--zeta", "1+2i", "--max-iter", "0", "--format", "csv")
        assert code == 0
        assert out.strip() == "n,recursion,oracle,match"

    def test_fault_injection_exit5(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--zeta", "1+2i", "--max-iter", "2", "--fault", "skip-reduce"
        )
        assert code == 5
        assert "NO" in out

    def test_budget_exit4(self, capsys):
        code, _, err = run(capsys, "oracle", "--zeta", "1+2i", "--max-iter", "5")
        assert code == 4
        assert "cap" in err


class TestCfCommand:
    def test_depth4(self, capsys):
        code, out, _ = run(capsys, "cf", "--zeta", "1+2i", "--depth", "4")
        assert code == 0
        assert "[0;5;1;2;12]" in out
        assert "37/210" in out

    def test_depth0(self, capsys):
        code, out, _ = run(capsys, "cf", "--zeta", "1+2i", "--depth", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["coefficients"] == ["0"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "cf", "--zeta", "1+2i", "--depth", "4", "--format", "csv")
        rows = out.strip().splitlines()
        assert rows[0] == "i,a,m,n"
        assert rows[-1] == "4,12,37,210"


class TestIrregularCommand:
    def test_n210(self, capsys):
        code, out, _ = run(capsys, "irregular", "--zeta", "1+2i", "--n", "210", "--window", "5")
        assert code == 0
        assert "271" in out

    def test_beta_csv(self, capsys):
        code, out, _ = run(
            capsys, "irregular", "--zeta", "1+2i", "--n", "50", "--window", "2",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,i,j,beta_re,beta_im"


class TestReportCommand:
    def test_combined_json(self, capsys):
        code, out, _ = run(
            capsys, "report", "--zeta", "1+2i", "--count", "6", "--digits", "9", "--depth", "6"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lambda_2"] == "5"
        assert obj["degrees"]["e"][:4] == ["1", "10", "66", "454"]
        assert obj["degrees"]["series_identity_verified_order"] == "6"
        assert obj["continued_fraction"]["coefficients"][:5] == ["0", "5", "1", "2", "12"]

    def test_numerals_are_strings(self, capsys):
        code, out, _ = run(capsys, "report", "--zeta", "2+i", "--count", "4", "--digits", "8", "--depth", "4")
        assert code == 0

        def only_strings(node):
            if isinstance(node, dict):
                return all(only_strings(v) for v in node.values())
            if isinstance(node, list):
                return all(only_strings(v) for v in node)
            return isinstance(node, str)

        assert only_strings(json.loads(out))


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("lambda", "--digits", "-3"), "--digits"),
            (("report", "--digits", "-1"), "--digits"),
            (("cf", "--depth", "-1"), "--depth"),
            (("report", "--depth", "-2"), "--depth"),
            (("report", "--count", "-2"), "--count"),
        ],
    )
    def test_negative_argument_one_line_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--zeta", "1+2i", *argv[1:]])
        assert exc.value.code == f"error: {flag} must be >= 0"
        assert capsys.readouterr().out == ""

    def test_negative_digits_exit1_without_traceback(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "dyndeg.cli", "lambda", "--zeta", "1+2i", "--digits", "-3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: --digits must be >= 0\n"


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "report", "--zeta", "1+2i", "--count", "5", "--digits", "9", "--depth", "5")
        _, out2, _ = run(capsys, "report", "--zeta", "1+2i", "--count", "5", "--digits", "9", "--depth", "5")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["lambda", "--zeta", "1+2i", "--digits", "9", "--format", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["zeta"] == "1+2i"
