import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dyndeg import cli, oracle
from dyndeg.cli import main
from dyndeg.degrees import e_sequence
from dyndeg.gaussian import GaussianInt, d_sequence, gamma_argmax, parse_gaussian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=60, **env_vars):
    """`python -m dyndeg.cli argv` in a fresh process, against this checkout's source."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "dyndeg.cli", *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


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

    def test_zero_count_inadmissible_exit2(self, capsys):
        code, out, err = run(capsys, "degrees", "--zeta", "1+1i", "--count", "0")
        assert (code, out) == (2, "")
        assert err == "error: zeta=1+i is inadmissible: integer multiple of 1+i\n"

    def test_default_count_is_200(self, capsys):
        code, out, _ = run(capsys, "degrees", "--zeta", "1+2i", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 201

    def test_inadmissible_exit2(self, capsys):
        code, _, err = run(capsys, "degrees", "--zeta", "1+1i")
        assert code == 2
        assert "1+i" in err  # names the violated criterion


@contextlib.contextmanager
def int_text_unlimited():
    """Python's int <-> str digit limit lifted inside the block, where the interpreter has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestDegreesPastIntTextLimit:
    # e_250 of 10^20 + 7i has about 5000 digits, past the 4300-digit int <-> str limit
    ZETA, COUNT = "100000000000000000000+7i", 250

    def rows(self, fmt, out):
        if fmt == "json":
            return [(r["j"], r["d"], r["gamma"], r["e"]) for r in json.loads(out)["rows"]]
        if fmt == "csv":
            return [tuple(line.split(",")) for line in out.splitlines()[1:]]
        return [tuple(line.split()) for line in out.splitlines()[2:]]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_exact_values_and_limit_restored(self, capsys, fmt):
        before = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "degrees", "--zeta", self.ZETA, "--count", str(self.COUNT), "--format", fmt)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before
        rows = self.rows(fmt, out)
        assert [int(j) for j, *_ in rows] == list(range(1, self.COUNT + 1))
        with int_text_unlimited():
            d = d_sequence(parse_gaussian(self.ZETA), self.COUNT)
            e = e_sequence(d, self.COUNT)
            assert [(int(dj), int(ej)) for _, dj, _, ej in rows] == [(d[j], e[j]) for j in range(1, self.COUNT + 1)]
            assert len(str(e[self.COUNT])) > 4300
            # the last row against the exact recursion e_n = d_n + sum over j < n of e_j d_(n-j), e_0 = 1
            n = self.COUNT
            assert e[n] == d[n] + sum(e[j] * d[n - j] for j in range(n))


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

    def test_zero_iterations_inadmissible_exit2(self, capsys):
        code, out, err = run(capsys, "oracle", "--zeta", "1+1i", "--max-iter", "0")
        assert (code, out) == (2, "")
        assert err == "error: zeta=1+i is inadmissible: integer multiple of 1+i\n"

    def test_fault_injection_exit5(self, capsys, monkeypatch):
        real = cli.e_sequence
        monkeypatch.setattr(cli, "e_sequence", lambda d, n: [e + 1 for e in real(d, n).values])
        code, out, _ = run(capsys, "oracle", "--zeta", "1+2i", "--max-iter", "2")
        assert code == 5
        assert "NO" in out

    def test_budget_exit4(self, capsys):
        code, _, err = run(capsys, "oracle", "--zeta", "1+2i", "--max-iter", "5")
        assert code == 4
        assert "cap" in err

    def test_budget_exit4_before_recursion(self):
        # the degree cap stops iterate 4; e_1..e_20000 alone would take minutes
        proc = run_module("oracle", "--zeta", "1+2i", "--max-iter", "20000", timeout=20)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "error: degree 4540 exceeds cap 1000\n"

    def test_zero_iterations_large_zeta(self, capsys):
        # f at 503+64i exceeds the degree budget, but --max-iter 0 composes nothing
        code, out, _ = run(capsys, "oracle", "--zeta", "503+64i", "--max-iter", "0", "--format", "csv")
        assert (code, out) == (0, "n,recursion,oracle,match\n")


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

    def test_large_real_part_needs_no_theta(self, capsys):
        # theta of 10^40 + i is below 2^-128, so its enclosure at 128 bits
        # does not fit in (0, 1); the scan reads only gamma(j)
        zeta = GaussianInt(10**40, 1)
        code, out, err = run(capsys, "irregular", "--zeta", f"{10**40}+i", "--n", "3", "--format", "json")
        assert (code, err) == (0, "")
        want = [str(j) for j in range(4, 16) if gamma_argmax(zeta, j) != gamma_argmax(zeta, j - 3)]
        assert json.loads(out)["irregular"] == want


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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_zero_count_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "report", "--zeta", "1+2i", "--count", "0", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "542b46736e35db4d846090a94a218c18468c3dcc582cd0abfc0cdbca7e92b9a2"
        )
        degrees = json.loads(out)["degrees"]
        assert degrees == {"d": [], "e": ["1"], "series_identity_verified_order": "0"}

    def test_zero_count_computes_no_degrees(self, capsys, monkeypatch):
        lengths = {"d_sequence": [], "e_sequence": []}

        def recording(name, real):
            def wrapper(*args):
                seq = real(*args)
                lengths[name].append(len(seq))
                return seq

            return wrapper

        for name in lengths:
            monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
        code, _, _ = run(capsys, "report", "--zeta", "503+64i", "--count", "0")
        assert code == 0
        assert set(lengths["d_sequence"]) <= {0}
        assert set(lengths["e_sequence"]) <= {1}  # e_0 = 1 needs no d_j

    def test_zero_count_inadmissible_exit2(self, capsys):
        code, out, err = run(capsys, "report", "--zeta", "1+1i", "--count", "0")
        assert (code, out) == (2, "")
        assert err == "error: zeta=1+i is inadmissible: integer multiple of 1+i\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("lambda", "--digits", "-3"), "--digits"),
            (("report", "--digits", "-1"), "--digits"),
            (("cf", "--depth", "-1"), "--depth"),
            (("report", "--depth", "-2"), "--depth"),
            (("report", "--count", "-2"), "--count"),
            (("cf", "--precision-bits", "0"), "--precision-bits"),
            (("report", "--count", "3", "--precision-bits", "7"), "--precision-bits"),
            (("report", "--precision-bits", "-1"), "--precision-bits"),
            (("oracle", "--max-iter", "-1"), "--max-iter"),
            (("irregular", "--n", "0"), "--n"),
            (("irregular", "--n", "50", "--window", "1"), "--window"),
            (("irregular", "--n", "0", "--window", "1"), "--n"),
            (("irregular", "--n", "1", "--window", "0"), "--window"),
        ],
    )
    def test_negative_argument_one_line_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--zeta", "1+2i", *argv[1:]])
        low = {"--precision-bits": 8, "--n": 1, "--window": 2}.get(flag, 0)
        assert exc.value.code == f"error: {flag} must be >= {low}"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (("lambda", "--zeta", "1+2i", "--digits", "abc"), "--digits"),
            (("cf", "--depth", "4"), "--zeta"),
            (("degrees", "--zeta", "1+2i", "--precision-bits", "64"), "--precision-bits"),
            (("frobnicate", "--zeta", "1+2i"), "frobnicate"),
            (("degrees", "--zeta", "1+2i", "--seed", "3"), "--seed"),
            (("lambda", "--zeta", "1+2i", "--seed", "3"), "--seed"),
            (("oracle", "--zeta", "1+2i", "--seed", "3"), "--seed"),
            (("cf", "--zeta", "1+2i", "--seed", "3"), "--seed"),
            (("irregular", "--zeta", "1+2i", "--n", "50", "--seed", "3"), "--seed"),
            (("report", "--zeta", "1+2i", "--seed", "3"), "--seed"),
            (("oracle", "--zeta", "1+2i", "--fault", "skip-reduce"), "--fault"),
            (("degrees", "--zeta", "--", "--count", "3"), "--zeta"),
            (("degrees", "--zeta=--"), "--zeta"),
            (("report", "--zeta", "1+", "--count", "-1", "--precision-bits", "0"), "from '1+'"),
            (("irregular", "--zeta", "1+2i", "--n", "50", "--precision-bits", "64"), "--precision-bits"),
        ],
    )
    def test_parser_error_one_line(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        message = exc.value.code
        assert isinstance(message, str) and message.startswith("error: ") and "\n" not in message
        assert names in message
        assert capsys.readouterr() == ("", "")

    def test_negative_digits_exit1_without_traceback(self):
        proc = run_module("lambda", "--zeta", "1+2i", "--digits", "-3")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: --digits must be >= 0\n"

    def test_parser_error_exit1_one_line(self):
        proc = run_module("lambda", "--zeta", "1+2i", "--digits", "abc")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: argument --digits: invalid int value: 'abc'\n"

    @pytest.mark.parametrize("cap", ["abc", "", "4"])
    def test_malformed_precision_cap_exit1_one_line(self, cap):
        proc = run_module("lambda", "--zeta", "1+2i", DYNDEG_PRECISION_CAP=cap)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: DYNDEG_PRECISION_CAP must be an integer >= 16\n"

    def test_precision_bits_above_cap_exit3_before_work(self):
        # the exact theta brackets at 20000 bits take tens of seconds
        proc = run_module(
            "cf", "--zeta", "1+2i", "--precision-bits", "20000", timeout=20, DYNDEG_PRECISION_CAP="64"
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "error: theta precision of 20000 bits exceeds the cap of 64 bits\n"

    @pytest.mark.parametrize("command", ["lambda", "report"])
    @pytest.mark.parametrize("cap", [None, "100000"])
    def test_huge_digits_exit3_before_power(self, command, cap):
        # building 10^100000000 alone takes minutes
        env = {} if cap is None else {"DYNDEG_PRECISION_CAP": cap}
        proc = run_module(command, "--zeta", "1+2i", "--digits", "100000000", timeout=20, **env)
        assert (proc.returncode, proc.stdout) == (3, "")
        bits = cap or "65536"
        assert proc.stderr == f"error: needed more than {bits} fractional bits (cap; see DYNDEG_PRECISION_CAP)\n"

    def test_huge_digits_inadmissible_exit2(self):
        proc = run_module("lambda", "--zeta", "1+1i", "--digits", "100000000", timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: zeta=1+i is inadmissible: integer multiple of 1+i\n"

    @pytest.mark.parametrize("command", ["degrees", "lambda", "oracle", "cf", "report", "irregular"])
    def test_malformed_precision_cap_rejected_by_every_command(self, monkeypatch, capsys, command):
        monkeypatch.setenv("DYNDEG_PRECISION_CAP", "-5")
        extra = ("--n", "3") if command == "irregular" else ()
        with pytest.raises(SystemExit) as exc:
            main([command, "--zeta", "1+2i", *extra])
        assert exc.value.code == "error: DYNDEG_PRECISION_CAP must be an integer >= 16"
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("target", [".", "no-such-dir/out.json"], ids=["directory", "missing-dir"])
    def test_unwritable_out_exit1_one_line(self, tmp_path, target):
        proc = run_module("lambda", "--zeta", "1+2i", "--digits", "3", "--out", str(tmp_path / target))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# the size flags each subcommand takes
COMMAND_FLAGS = {
    "degrees": ("--count",),
    "lambda": ("--digits",),
    "oracle": ("--max-iter",),
    "cf": ("--precision-bits", "--depth"),
    "irregular": ("--n", "--window"),
    "report": ("--precision-bits", "--count", "--digits", "--depth"),
}
# a value for every flag the grammar draws; no subcommand takes --seed or --fault
FLAG_VALUES = {
    "--format": st.sampled_from(["text", "json", "csv"]),
    "--count": _ints(-3, 30),
    "--max-iter": _ints(-2, 2),
    "--digits": _ints(-3, 12),
    "--depth": _ints(-2, 20),
    "--n": _ints(-2, 50),
    "--window": _ints(-1, 4),
    "--precision-bits": _ints(-2, 160),
    "--seed": _ints(0, 3),
    "--fault": st.just("skip-reduce"),
}
ZETAS = st.sampled_from([
    "1+2i", "-3+4i", "2-i", "-1-2i", "3+i", "503+64i",  # admissible
    "1+1i", "2", "-3i", "0",  # inadmissible
    "1+", "abc", "", "1.5+2i", "--",  # malformed
])
MALFORMED = st.sampled_from(["x", "1.5", "", "--", "1e3"])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*COMMAND_FLAGS, "frobnicate"]))
    argv = [command]
    if draw(st.integers(0, 9)):  # mostly present
        argv += ["--zeta", draw(ZETAS)]
    # --max-iter is always given: its default, 3, is not a small size
    flags = [f for f in COMMAND_FLAGS.get(command, ()) if f == "--max-iter" or draw(st.integers(0, 7))]
    if draw(st.booleans()):  # one more flag, often one the subcommand does not take
        flags.append(draw(st.sampled_from(list(FLAG_VALUES))))
    for flag in flags:
        malformed = draw(st.integers(0, 7)) == 0
        argv += [flag, draw(MALFORMED if malformed else FLAG_VALUES[flag])]
    return argv


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestArgvGrammar:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_documented_exit_and_repeatable_output(self, argv):
        code, out, err = _outcome(argv)
        if isinstance(code, str):  # a usage error: one line, no output
            assert code.startswith("error: ") and "\n" not in code
            assert (out, err) == ("", "")
        else:
            assert code in (0, 2, 3, 4, 5)
            if code in (2, 3, 4):  # a domain error: one line on stderr, no output
                assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        assert _outcome(argv) == (code, out, err)


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


# SHA-256 of stdout for each README invocation and format, recorded before the
# d_j generator, the partial-sum pass and the iterate loop were unified.
README_DIGESTS = {
    ("degrees", "--zeta", "1+2i", "--count", "10"): {
        "text": "93154169eae6dcd4f81e81930e872acb994d30ef27b3017daa40697d051c489c",
        "json": "9d59de7408eaca94ff28cba1a536f1ef466e3facc9cfa46ab1e78536d2ee04a4",
        "csv": "5515559ed93573d01f88febf86e826b11b1d2b3b0a398981f0f776d88f285d42",
    },
    ("lambda", "--zeta", "1+2i", "--digits", "10"): {
        "text": "1cc0ba6ca7a4cc877f5bc358a928892350ed0c2e049ebba60e86e9c6483779de",
        "json": "72ab8aacc6061084b234334b765bef44daf5e3709e0176f7f92546e638a6989a",
        "csv": "65efe2be134712b92ce1558f5b2119c70dc08a4a2a2b9ec26937cb7bdeafb5ee",
    },
    ("lambda", "--zeta", "-3+4i", "--digits", "10"): {
        "text": "1e2b2bda30af9d320d998e60162b193541e057b02a74689d4166cee01539f70a",
        "json": "da35ae81a3840ef775ecfdf6a3475ca09b99834613f423a3e2733bbfcaeecc0e",
        "csv": "89b449a1d4ad16e30279954b55fa1ef45ddf67a85bb79b80eccf738777b8c238",
    },
    ("oracle", "--zeta", "1+2i", "--max-iter", "3"): {
        "text": "8a7b029e39b09ec16afa8b9550ccddec6ca1d6d3068bb7e33823229c4bb0b7c6",
        "json": "1c63ec5fc15a2bf7112a084593e9c7143eac31fe12dbb73fae82be58bafafeb4",
        "csv": "56d2871c6e007b235af59eb7f2451104656623515dfc08aaa911f3a3b7fb6a6c",
    },
    ("cf", "--zeta", "1+2i", "--depth", "20"): {
        "text": "02f896948f744bb8c87137dc3852cd1914d7804d24c5130c477fafff05cf2bbe",
        "json": "bc6b53c577ca450eff4396915dd264d1cf080f657755166636d0c16195002bdb",
        "csv": "b9198454610f1cbc51fdf4d0b6c1ae5253a4d1981a4a9483f4f3635677b3e0e8",
    },
    ("irregular", "--zeta", "1+2i", "--n", "210", "--window", "5"): {
        "text": "f1aa1226929b627ccc0df6d88374fa743ab1111ea8935181439b826fc02b861a",
        "json": "bbc0d472de7bd7c596f6662c2b6024b4b728d3d622083722bd1ffa3f162debc4",
        "csv": "4c836abd992cc3c5c9158b66cbbd3c6d1ea26bb098721ca5227a006493297d66",
    },
    ("report", "--zeta", "1+2i"): dict.fromkeys(  # always JSON
        ("text", "json", "csv"), "738bc4c5b7e1e788a57acb787a1693f398ff8737cae005fc29c7de4a30d811f8"
    ),
}

# |zeta| up to 1000, the sizes of the survey benchmark, and one count of 1000
SURVEY_DIGESTS = {
    ("degrees", "--zeta", "503+64i", "--count", "200"): "fd17400434b15b5ab9db7a7c216fc6252be9f71324bd4696ec8dc96a5039db82",
    ("degrees", "--zeta", "-16+282i", "--count", "200"): "35f4d0ad1b1b593db1224349fe95c87af44d390050824afb966d087a4e55773a",
    ("degrees", "--zeta", "999-998i", "--count", "200"): "69adf6131bf9097af01d2ea5150c1898733f2ec974e023dc0ffc39fb3020a208",
    ("report", "--zeta", "503+64i"): "32b06f17534918808b968f25d1398a6cdf2b500cd140c8a93ee311714578d3c4",
    ("report", "--zeta", "-16+282i"): "d8ed6713aabbce27b93b5ff004e577a1dccfb4033929c4707fd63c968f46df9f",
    ("report", "--zeta", "999-998i"): "c9ec15f7001d42b063e288b6bb12782dde53a6a785d46f2980df40c16a0c7da3",
    # recorded when e_n and the series identity came from exact big-integer convolutions
    ("degrees", "--zeta", "503+64i"): "fd17400434b15b5ab9db7a7c216fc6252be9f71324bd4696ec8dc96a5039db82",
    ("report", "--zeta", "-900+417i"): "f8933bf78782cf74702c511d56d51414303606246d62230bec85badcd8d35dea",
    ("degrees", "--zeta", "503+64i", "--count", "1000"): "7a7cbfb3f9ff5bb600e0de3eda005a5284bef67fe9068fee53a3ba42556590a6",
    # certified at 2048 and 1024 bits, with the kappa statistic at large n;
    # recorded before theta and the convergent checks ran on fixed-point ints
    ("cf", "--zeta", "3+i", "--depth", "300"): "e188b0123692951eb73fe1c798423b76e10ab2f54e5d96df080415f4aff34811",
    ("cf", "--zeta", "1+2i", "--depth", "200"): "04aff824fe2b5cb932a06d4537b206497746863e2132514a6a4bd496eb82c1ad",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("argv", list(README_DIGESTS), ids="_".join)
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_readme_invocation_byte_identical(self, capsys, argv, fmt):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[argv][fmt]

    @pytest.mark.parametrize("argv", list(SURVEY_DIGESTS), ids="_".join)
    def test_survey_size_json_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_DIGESTS[argv]

    def test_parser_built_once(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", fail)
        calls = [
            ("report", "--zeta", "1+2i"),
            ("degrees", "--zeta", "1+2i", "--count", "10"),
            ("cf", "--zeta", "1+2i", "--depth", "20"),
            ("report", "--zeta", "1+2i"),
        ]
        for argv in calls:  # a default or value left by one call would change the next digest
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == README_DIGESTS[argv]["json"]

    def test_oracle_composes_each_iterate_once(self, capsys, monkeypatch):
        calls = []
        real = oracle.compose

        def counted(outer, inner, *rest):
            calls.append((outer.degree, inner.degree))
            return real(outer, inner, *rest)

        monkeypatch.setattr(oracle, "compose", counted)
        monkeypatch.setattr("dyndeg.cli.compose", counted)
        code, out, _ = run(capsys, "oracle", "--zeta", "-1+2i", "--max-iter", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["1,8,8,true", "2,48,48,true", "3,286,286,true"]
        # f = g o h, then f o f and f o f^2: one composition per iterate
        assert calls == [(2, 4), (8, 8), (8, 48)]
