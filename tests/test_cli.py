import csv
import gc
import io
import json
import math
import warnings

import numpy as np
import pytest

from quadlsq.cli import CSV_COLUMNS, build_parser, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def simpson_file(tmp_path):
    path = tmp_path / "simpson.txt"
    path.write_text("# three equispaced nodes\n-1\n0.0\n1/1\n", encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_custom_simpson_text(self, simpson_file):
        code, text = run(
            ["analyze", "--family", "custom", "--nodes-file", simpson_file]
        )
        assert code == 0
        lines = dict(
            line.split(":", 1) for line in text.splitlines() if ":" in line
        )
        omega = [float(v) for v in lines["omega"].split()]
        np.testing.assert_allclose(omega, [1 / 3, 4 / 3, 1 / 3], rtol=1e-15)
        assert int(lines["degree"].split()[0]) == 3
        assert float(lines["mu_Q"]) == pytest.approx(-4 / 15, rel=1e-15)

    def test_gl17_text(self):
        code, text = run(["analyze", "--family", "gl", "--n", "17"])
        assert code == 0
        lines = dict(
            line.split(":", 1) for line in text.splitlines() if ":" in line
        )
        assert int(lines["degree"].split()[0]) == 33
        assert float(lines["mu_Q"]) == pytest.approx(1.80e-10, rel=2e-2)
        assert float(lines["angle_deg"]) == pytest.approx(0.000154, rel=5e-2)

    def test_unsupported_count_exits_2(self, capsys):
        code, _ = run(["analyze", "--family", "nc", "--n", "1"])
        assert code == 2
        assert "unsupported count" in capsys.readouterr().err

    def test_missing_n_exits_2(self):
        code, _ = run(["analyze", "--family", "nc"])
        assert code == 2

    def test_missing_nodes_file_exits_2(self):
        code, _ = run(["analyze", "--family", "custom"])
        assert code == 2

    def test_numerical_failure_exits_3(self, capsys):
        code, _ = run(["analyze", "--family", "nc", "--n", "5", "--eps-deg", "1e9"])
        assert code == 3
        assert "degree overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["analyze"], ["integrate", "--integrand", "poly:1"],
    ])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_eps_deg_exits_2(self, capsys, command, value):
        code, _ = run(command + ["--family", "nc", "--n", "3", f"--eps-deg={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "eps_deg must be a finite number >= 0" in err
        assert "self-check" not in err and "degree overflow" not in err

    def test_invalid_eps_deg_sweep_rows(self, tmp_path):
        out = tmp_path / "nc.csv"
        code, _ = run(["sweep", "--family", "nc", "--n-min", "2", "--n-max", "3",
                       "--eps-deg=-1", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open(encoding="utf-8")))
        assert [r["error"] for r in rows] == ["eps_deg must be a finite number >= 0, got -1.0"] * 2

    def test_residual_norms_on_a_wide_interval(self):
        # |mu_Q| = 1.6e115: |r|^3 overflows unless the norm is scaled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["analyze", "--family", "nc", "--n", "20",
                              "--interval", "0", "1e6", "--format", "text"])
        assert code == 0
        lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
        mu = abs(float(lines["mu_Q"]))
        assert mu > 1e115
        assert float(lines["r_omega_3"]) == pytest.approx(mu, rel=1e-12)

    def test_csv_round_trips(self):
        code, text = run(["analyze", "--family", "cc", "--n", "6", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == list(CSV_COLUMNS)
        # 17 significant digits: parsing back gives the identical double
        code2, text2 = run(["analyze", "--family", "cc", "--n", "6", "--format", "csv"])
        assert text == text2
        assert float(row["N_omega"]) == pytest.approx(2.0, rel=1e-12)

    def test_json_mirrors_csv_columns(self):
        code, text = run(["analyze", "--family", "fejer1", "--n", "3", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert list(obj) == list(CSV_COLUMNS)
        assert obj["degree"] == 3
        assert obj["mu_Q"] == pytest.approx(-0.1, abs=1e-14)
        assert obj["error"] == ""

    def test_non_finite_interval_exits_2(self, capsys):
        code, _ = run(["analyze", "--family", "gl", "--n", "3",
                       "--interval", "0", "1e400"])
        assert code == 2
        assert "non-finite interval" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--family", "gl", "--n", "64", "--interval", "0", "1000"],
         "moment mu_110 is not finite"),
        (["--family", "nc", "--n", "40", "--interval", "0", "1e8"],
         "moment mu_39 is not finite"),
    ])
    def test_moment_overflow_exits_3(self, capsys, argv, message):
        code, _ = run(["analyze"] + argv)
        assert code == 3
        err = capsys.readouterr().err
        assert message in err
        assert "self-check" not in err and "degree overflow" not in err

    def test_underflowing_diagonal_exits_3(self, tmp_path, capsys):
        path = tmp_path / "clustered.txt"
        path.write_text("0\n1e-200\n2e-200\n", encoding="utf-8")
        code, text = run(["analyze", "--family", "custom", "--nodes-file", str(path)])
        assert code == 3
        assert text == ""
        assert "singular diagonal at row 3" in capsys.readouterr().err

    def test_interval_whose_length_overflows_exits_3(self, capsys):
        # b - a overflows: the generated nodes are finite, and the run stops
        # at the moment check, mu_0 = b - a, with a finite half-length
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(["analyze", "--family", "nc", "--n", "3",
                           "--interval", "-1e308", "1e308"])
        assert code == 3
        err = capsys.readouterr().err
        assert "moment mu_0 is not finite" in err
        assert "half-length 1e+308 " in err
        assert "non-finite node" not in err

    def test_wide_interval_exits_0(self, capsys):
        # the squared 2-norms of the report overflowed on (0, 1e40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["analyze", "--family", "nc", "--n", "3",
                              "--interval", "0", "1e40", "--format", "json"])
        assert code == 0, capsys.readouterr().err
        row = json.loads(text)
        assert row["degree"] == 3
        assert row["r_omega_2"] == pytest.approx(abs(row["mu_Q"]), rel=1e-12)
        assert 0.0 < row["angle_deg"] < 90.0

    @pytest.mark.parametrize("command", [
        ["analyze"], ["integrate", "--integrand", "poly:1"],
    ])
    def test_node_beyond_double_range_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "huge.txt"
        path.write_text("-1e400\n0\n", encoding="utf-8")
        code, _ = run(command + ["--family", "custom", "--nodes-file", str(path)])
        assert code == 2
        assert "node -1.00000e+400 is outside the double range" in capsys.readouterr().err

    def test_interval_flag(self, simpson_file):
        code, text = run([
            "analyze", "--family", "custom", "--nodes-file", simpson_file,
            "--interval", "-1", "3", "--format", "json",
        ])
        assert code == 0
        obj = json.loads(text)
        # weights sum to the interval length
        assert obj["N_omega"] >= 4.0 - 1e-12

    @pytest.mark.parametrize("command", [
        ["analyze", "--family", "nc", "--n", "3"],
        ["sweep", "--family", "nc", "--n-min", "2", "--n-max", "3", "--out", "x.csv"],
        ["integrate", "--family", "nc", "--n", "3", "--integrand", "poly:1"],
    ])
    @pytest.mark.parametrize("a,b", [
        ("-1e50", "1e50"), ("-1e-3", "1"), ("-1E+2", "-1e1"), ("-.5e0", ".5"),
        ("-1.", "1"), ("-inf", "1"), ("-Infinity", "-nan"),
    ])
    def test_signed_endpoints_parse_as_numbers(self, command, a, b):
        # argparse alone reads "-1e50" as an option and fails with
        # "expected 2 arguments"; any signed number literal is a value here
        args = build_parser().parse_args(command + ["--interval", a, b])
        assert [str(v) for v in args.interval] == [str(float(a)), str(float(b))]

    @pytest.mark.parametrize("a,b", [("-1e-3", "1"), ("-1e40", "1e40"), ("-5e-1", "5e-1")])
    def test_exponent_endpoints_exit_0(self, capsys, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(["analyze", "--family", "nc", "--n", "3",
                              "--interval", a, b, "--format", "json"])
        assert code == 0, capsys.readouterr().err
        row = json.loads(text)
        assert row["degree"] == 3
        assert row["N_omega"] == pytest.approx(float(b) - float(a), rel=1e-12)

    @pytest.mark.parametrize("a,b,message", [
        ("-inf", "1", "non-finite interval"),
        ("-1e400", "0", "non-finite interval"),
        ("-nan", "1", "non-finite interval"),
        ("1", "-1e5", "invalid interval: need a < b"),
        ("1e-3", "-1e-3", "invalid interval: need a < b"),
    ])
    def test_non_finite_or_reversed_signed_interval_exits_2(self, capsys, a, b, message):
        code, _ = run(["analyze", "--family", "nc", "--n", "3", "--interval", a, b])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-3", "-inf"])
    def test_negative_eps_deg_in_exponent_notation_exits_2(self, capsys, value):
        code, _ = run(["analyze", "--family", "nc", "--n", "3", "--eps-deg", value])
        assert code == 2
        assert "eps_deg must be a finite number >= 0" in capsys.readouterr().err


class TestSweep:
    def test_deterministic_and_parsable(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code, _ = run([
                "sweep", "--family", "gl", "--n-min", "2", "--n-max", "12",
                "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(out1.open()))
        assert [int(r["n"]) for r in rows] == list(range(2, 13))
        assert [int(r["degree"]) for r in rows] == [2 * n - 1 for n in range(2, 13)]
        # values round-trip through the 17-digit format
        mu = float(rows[0]["mu_Q"])
        assert mu == pytest.approx(8 / 45, rel=1e-12)

    def test_nc_norm_column_shape(self, tmp_path):
        out = tmp_path / "nc.csv"
        code, _ = run([
            "sweep", "--family", "nc", "--n-min", "2", "--n-max", "15",
            "--out", str(out),
        ])
        assert code == 0
        rows = {int(r["n"]): r for r in csv.DictReader(out.open())}
        n_omega = {n: float(rows[n]["N_omega"]) for n in range(2, 16)}
        assert n_omega[11] < n_omega[13] < n_omega[15]
        assert n_omega[15] > 10.0

    def test_fejer_single_row(self, tmp_path):
        out = tmp_path / "f.csv"
        code, _ = run([
            "sweep", "--family", "fejer1", "--n-min", "3", "--n-max", "3",
            "--out", str(out),
        ])
        assert code == 0
        (row,) = list(csv.DictReader(out.open()))
        assert float(row["mu_Q"]) == pytest.approx(-0.1, abs=1e-14)

    def test_row_errors_recorded_run_continues(self, tmp_path):
        out = tmp_path / "err.csv"
        code, _ = run([
            "sweep", "--family", "nc", "--n-min", "1", "--n-max", "3",
            "--out", str(out),
        ])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert "unsupported count" in rows[0]["error"]
        assert rows[0]["degree"] == ""
        assert rows[1]["error"] == "" and rows[2]["error"] == ""

    def test_range_validation(self):
        code, _ = run([
            "sweep", "--family", "gl", "--n-min", "5", "--n-max", "70",
            "--out", "/tmp/never-written.csv",
        ])
        assert code == 2


class TestIntegrate:
    def test_simpson_cubic_is_exact(self, simpson_file):
        code, text = run([
            "integrate", "--family", "custom", "--nodes-file", simpson_file,
            "--integrand", "poly:0,0,0,1", "--format", "json",
        ])
        assert code == 0
        obj = json.loads(text)
        assert obj["value"] == pytest.approx(0.0, abs=1e-16)
        assert obj["c_n"] == pytest.approx((-4 / 15) / 24.0, rel=1e-14)

    def test_simpson_quartic_defect(self, simpson_file):
        code, text = run([
            "integrate", "--family", "custom", "--nodes-file", simpson_file,
            "--integrand", "poly:0,0,0,0,1", "--format", "json",
        ])
        assert code == 0
        assert json.loads(text)["value"] == pytest.approx(2 / 3, rel=1e-15)

    def test_gl_runge_convergence(self):
        # the integrand's poles at +-i/5 give a Gauss-Legendre convergence
        # factor rho = (1 + sqrt(26))/5, so the 10-node error sits near
        # rho^-20 ~ 1.9e-2 and drops below 1e-3 around 18 nodes
        truth = 0.4 * math.atan(5.0)
        code, text = run([
            "integrate", "--family", "gl", "--n", "10",
            "--integrand", "runge", "--format", "json",
        ])
        assert code == 0
        got = json.loads(text)["value"]
        # independent oracle: numpy's own Gauss-Legendre pairing
        x, w = np.polynomial.legendre.leggauss(10)
        oracle = float(w @ (1.0 / (1.0 + 25.0 * x * x)))
        assert got == pytest.approx(oracle, rel=1e-12)
        rho = (1.0 + math.sqrt(26.0)) / 5.0
        assert abs(got - truth) == pytest.approx(rho ** -20, rel=0.5)

        code, text = run([
            "integrate", "--family", "gl", "--n", "18",
            "--integrand", "runge", "--format", "json",
        ])
        assert code == 0
        assert abs(json.loads(text)["value"] - truth) <= 1e-3

    def test_expx(self):
        code, text = run([
            "integrate", "--family", "gl", "--n", "8",
            "--integrand", "expx", "--format", "json",
        ])
        assert code == 0
        truth = math.exp(1.0) - math.exp(-1.0)
        assert json.loads(text)["value"] == pytest.approx(truth, rel=1e-12)

    def test_unknown_integrand_exits_2(self, capsys):
        code, _ = run([
            "integrate", "--family", "gl", "--n", "3", "--integrand", "sinx",
        ])
        assert code == 2
        assert "unknown integrand" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["poly:nan", "poly:inf", "poly:1e400", "poly:1,-inf"])
    def test_non_finite_coefficient_exits_2(self, spec, capsys):
        code, _ = run(["integrate", "--family", "nc", "--n", "3", "--integrand", spec])
        assert code == 2
        assert "not a finite double" in capsys.readouterr().err

    @pytest.mark.parametrize("args,node", [
        # exp(710) overflows in math.exp at the middle node
        (["--family", "gl", "--integrand", "expx", "--interval", "700", "720"], "710"),
        # every term is finite; the running sum leaves the range at the last
        (["--family", "nc", "--integrand", "poly:1e308"], "1"),
        # the weighted term (4/3) 1.7e308 overflows at the middle node
        (["--family", "nc", "--integrand", "poly:1.7e308"], "0"),
    ], ids=["value", "sum", "term"])
    def test_overflow_exits_3_naming_the_node(self, args, node, capsys):
        code, text = run(["integrate", "--n", "3"] + args)
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err.rstrip().endswith(f"at node {node}")

    def test_poly_is_evaluated_exactly(self):
        # p(-1) = p(1) = 0 and p(0) = 1e308 are doubles, so the rule's
        # value (4/3) 1e308 is finite too
        code, text = run(["integrate", "--family", "nc", "--n", "3",
                          "--integrand", "poly:1e308,0,-1e308"])
        assert code == 0
        assert text.splitlines()[0] == "Q_3(f) = 1.3333333333333333e+308"

    def test_error_constant_matches_analyze(self):
        # degree + 1 = 34 > 20: the log-gamma branch of error_coefficient
        args = ["--family", "gl", "--n", "17", "--format", "json"]
        code, text = run(["integrate", "--integrand", "poly:1"] + args)
        assert code == 0
        integrated = json.loads(text)
        code, text = run(["analyze"] + args)
        assert code == 0
        analyzed = json.loads(text)
        assert integrated["degree"] == analyzed["degree"] == 33
        assert integrated["c_n"] == analyzed["c_n"]

    def test_text_format(self, simpson_file):
        code, text = run([
            "integrate", "--family", "custom", "--nodes-file", simpson_file,
            "--integrand", "poly:1",
        ])
        assert code == 0
        assert "Q_3(f) = 2" in text


class TestParser:
    def test_repeated_calls_leave_no_cyclic_garbage(self, tmp_path):
        # one parser per process: argparse's objects form reference cycles,
        # which a parser per call would leave to the collector
        argvs = [["sweep", "--family", fam, "--n-min", "2", "--n-max", "6",
                  "--out", str(tmp_path / f"{fam}.csv")]
                 for fam in ("nc", "fejer1", "cc", "gl")]
        argvs += [["analyze", "--family", "gl", "--n", "5", "--format", fmt]
                  for fmt in ("text", "csv", "json")]
        for argv in argvs:  # the first pass fills caches and builds the parser
            assert run(argv)[0] == 0
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds
        try:
            for argv in argvs:
                assert run(argv)[0] == 0
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert garbage == []

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing --family
        assert exc.value.code == 2

    def test_unknown_family_exits_2(self, capsys):
        code, _ = run(["analyze", "--family", "simpson", "--n", "3"])
        assert code == 2
        assert "unknown family" in capsys.readouterr().err
