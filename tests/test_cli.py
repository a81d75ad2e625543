import contextlib
import csv
import gc
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlsq import FamilySpec, RuleReport, build_report, generate
from quadlsq.cli import CSV_COLUMNS, _fmt, build_parser, main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


#: Node sets whose diagonal entry A_22 is too small to divide |mu_Q| by
#: in double-double, so that tau is nan; omega is finite and right.
TINY_DIAGONAL_NODES = [
    [1e-320, 2e-320],
    [-1e-310, 1e-310],
    [1.3815902728336146e-300, 1.5214422824422244e-300],
]


def _increasing(mantissa, exponent, negative, gaps):
    """Distinct ascending doubles: the first +-mantissa 2^exponent, each
    next one a gap mantissa 2^exponent above, or the next double up where
    that gap is below the spacing there."""
    t = math.ldexp(-mantissa if negative else mantissa, exponent)
    nodes = [t]
    for m, e in gaps:
        t = max(t + math.ldexp(m, e), math.nextafter(t, math.inf))
        nodes.append(t)
    return nodes


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

    def test_text_lines_follow_the_record_fields(self):
        # the header, the four vectors, then one line per report field in
        # the record's order; family and n are in the header and epsilon
        # is not shown
        code, text = run(["analyze", "--family", "cc", "--n", "7"])
        assert code == 0
        lines = [line.split(":", 1) for line in text.splitlines()]
        assert text.startswith("family: clenshaw_curtis   n: 7   interval: (-1, 1)\n")
        assert [k for k, _ in lines[1:5]] == ["nodes", "omega", "z_star", "tau"]
        names = [k for k, _ in lines[5:]]
        assert names == [f for f in RuleReport.__match_args__ if f not in ("family", "n", "epsilon")]
        assert names == ["degree", "mu_Q", "N_omega", "N_z", "angle_deg", "tau_inf", "alpha",
                         "c_n", "Omega", "Gamma", "cond_inf_A", "r_omega_1", "r_omega_2",
                         "r_omega_3", "r_omega_inf", "r_z_inf"]
        rep = build_report(generate(FamilySpec("cc", 7)))
        assert [v.strip() for _, v in lines[5:]] == [_fmt(getattr(rep, k)) for k in names]

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

    def test_nodes_file_with_a_family_exits_2(self, simpson_file, capsys):
        code, _ = run(["analyze", "--family", "nc", "--n", "3", "--nodes-file", simpson_file])
        assert code == 2
        assert "--nodes-file only applies to --family custom" in capsys.readouterr().err

    def test_unordered_nodes_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nodes.txt"
        path.write_text("0.5\n0.1\n", encoding="utf-8")
        code, _ = run(["analyze", "--family", "custom", "--nodes-file", str(path)])
        assert code == 2
        assert f"{path}:2: node 0.1 is not above 0.5 on line 1" in capsys.readouterr().err

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

    def test_zero_half_length_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0\n", encoding="utf-8")
        code, text = run(["analyze", "--family", "custom", "--nodes-file", str(path),
                          "--interval", "0", "5e-324"])
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert "the half-length of (0.0, 5e-324) rounds to 0" in err
        assert "degree overflow" not in err

    @pytest.mark.parametrize("nodes", TINY_DIAGONAL_NODES)
    def test_non_finite_tau_exits_3(self, tmp_path, capsys, nodes):
        # |mu_Q| / A_22 passes 2^996, so tau is nan while omega is finite
        # and passes the epsilon self-check; it was a ValueError of the angle
        path = tmp_path / "tiny.txt"
        path.write_text("".join(f"{t!r}\n" for t in nodes), encoding="utf-8")
        code, text = run(["analyze", "--family", "custom", "--nodes-file", str(path)])
        assert code == 3
        assert text == ""
        assert "tau is not finite from row 2" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(nodes=st.builds(
        _increasing,
        st.floats(0.5, 1.0), st.integers(-1074, 2), st.booleans(),
        st.lists(st.tuples(st.floats(0.5, 1.0), st.integers(-1074, 2)),
                 max_size=5)))
    @example(nodes=TINY_DIAGONAL_NODES[0])
    @example(nodes=TINY_DIAGONAL_NODES[1])
    @example(nodes=TINY_DIAGONAL_NODES[2])
    def test_a_valid_rule_is_reported_or_refused_as_numerical(self, nodes):
        # 1-6 distinct doubles, spaced down to the subnormal range: a node
        # file that passes the node check is never an input error (exit 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "nodes.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{t!r}\n" for t in nodes)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, _ = run(["analyze", "--family", "custom", "--nodes-file", path])
        assert code in (0, 3), (nodes, err.getvalue())

    def test_nan_weights_exit_3(self, tmp_path, capsys):
        # the weights of nodes 1e-155 apart are nan: the epsilon self-check
        # refuses them rather than printing a report of nan
        path = tmp_path / "clustered.txt"
        path.write_text("0\n1e-155\n2e-155\n", encoding="utf-8")
        code, text = run(["analyze", "--family", "custom", "--nodes-file", str(path)])
        assert code == 3
        assert text == ""
        assert "epsilon self-check failed: ||r||_2^2/||r||_1 = nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["analyze"], ["integrate", "--integrand", "poly:1"],
    ])
    def test_n_with_custom_exits_2(self, simpson_file, capsys, command):
        # the node file sets n: a --n beside it is refused, not ignored
        code, text = run(command + ["--family", "custom", "--n", "7",
                                    "--nodes-file", simpson_file])
        assert code == 2
        assert text == ""
        assert ("--n does not apply to --family custom: the node file sets n"
                in capsys.readouterr().err)

    def test_custom_nodes_not_mapped(self, tmp_path):
        # given nodes stay where they are; --interval only sets the interval
        path = tmp_path / "quarter-half.txt"
        path.write_text("0.25\n0.5\n", encoding="utf-8")
        code, text = run(["analyze", "--family", "custom", "--nodes-file", str(path),
                          "--interval", "0", "4"])
        assert code == 0
        assert "nodes:  0.25 0.5\n" in text
        assert "interval: (0, 4)" in text

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

    def test_custom_family_exits_2(self, tmp_path, capsys):
        out = tmp_path / "custom.csv"
        code, _ = run(["sweep", "--family", "custom", "--n-min", "2", "--n-max", "3",
                       "--out", str(out)])
        assert code == 2
        assert "sweep needs a generated family, not custom" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_min,n_max", [(0, 3), (3, 2)])
    def test_empty_or_reversed_n_range_exits_2(self, tmp_path, capsys, n_min, n_max):
        out = tmp_path / "range.csv"
        code, _ = run(["sweep", "--family", "nc", "--n-min", str(n_min),
                       "--n-max", str(n_max), "--out", str(out)])
        assert code == 2
        assert "need 1 <= n-min <= n-max" in capsys.readouterr().err
        assert not out.exists()

    def test_each_row_is_generate_then_build_report(self, tmp_path, monkeypatch):
        # the benchmark times a sweep row from the call to ``generate``
        # until ``build_report`` returns or raises, so the system must be
        # built inside ``build_report``: CC n = 40..42 raise
        # DegreeOverflowError there, and the CLI's own build_system is
        # never called
        import quadlsq.cli as cli

        calls = []

        def traced(name, fn):
            def wrapped(*args, **kwargs):
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    calls.append((name, type(exc).__name__))
                    raise
                calls.append((name, result.n))
                return result
            return wrapped

        def refused(*args, **kwargs):
            raise AssertionError("sweep built a system outside build_report")

        monkeypatch.setattr(cli, "generate", traced("generate", cli.generate))
        monkeypatch.setattr(cli, "build_report", traced("build_report", cli.build_report))
        monkeypatch.setattr(cli, "build_system", refused)
        code, _ = run(["sweep", "--family", "cc", "--n-min", "38", "--n-max", "42",
                       "--out", str(tmp_path / "cc.csv")])
        assert code == 0
        assert calls == [
            ("generate", 38), ("build_report", 38), ("generate", 39), ("build_report", 39),
            ("generate", 40), ("build_report", "DegreeOverflowError"),
            ("generate", 41), ("build_report", "DegreeOverflowError"),
            ("generate", 42), ("build_report", "DegreeOverflowError"),
        ]

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

    def test_unparsable_coefficient_exits_2(self, capsys):
        code, _ = run(["integrate", "--family", "nc", "--n", "3", "--integrand", "poly:1,x"])
        assert code == 2
        assert "bad coefficients in 'poly:1,x'" in capsys.readouterr().err

    def test_csv_format(self):
        # Simpson's rule on x^4: 2/3 rounded, where the exact value is 2/5
        code, text = run(["integrate", "--family", "nc", "--n", "3",
                          "--integrand", "poly:0,0,0,0,1", "--format", "csv"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "family,n,integrand,value,degree,c_n"
        (row,) = csv.DictReader(lines)
        assert row["value"] == "0.66666666666666663"

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

    def test_nan_weights_exit_3(self, tmp_path, capsys):
        # the weights of nodes 1e-155 apart are nan: the rule is refused
        # before the integrand is applied, so no node is blamed
        path = tmp_path / "clustered.txt"
        path.write_text("0\n1e-155\n2e-155\n", encoding="utf-8")
        code, text = run(["integrate", "--family", "custom", "--nodes-file", str(path),
                          "--integrand", "poly:1"])
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert "the rule's weights are not finite doubles" in err
        assert "at node" not in err

    def test_finite_weights_with_a_non_finite_tau_are_applied(self, tmp_path):
        # analyze refuses these nodes, whose tau is nan; their weights 4
        # and -2 are right, and integrate applies them
        path = tmp_path / "tiny.txt"
        path.write_text("1e-320\n2e-320\n", encoding="utf-8")
        code, text = run(["integrate", "--family", "custom", "--nodes-file", str(path),
                          "--integrand", "poly:1", "--format", "json"])
        assert code == 0
        assert json.loads(text)["value"] == 2.0

    def test_finite_weights_are_applied_unchecked(self):
        # integrate checks only that the weights are finite, not the epsilon
        # self-check that analyze runs: Newton-Cotes n = 60 integrates
        code, text = run(["integrate", "--family", "nc", "--n", "60",
                          "--integrand", "poly:1", "--format", "json"])
        assert code == 0
        assert math.isfinite(json.loads(text)["value"])

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


class TestGradedRange:
    """Every command accepts n up to MAX_SWEEP_N = 64, the graded range."""

    COMMANDS = [["analyze"], ["integrate", "--integrand", "poly:1"]]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("family", ["nc", "fejer1", "cc", "gl"])
    def test_n_beyond_the_range_exits_2(self, capsys, command, family):
        code, text = run(command + ["--family", family, "--n", "65"])
        assert code == 2
        assert text == ""
        assert "--n is 65, beyond the graded range: n <= 64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("family,want", [
        ("nc", {"analyze": 3, "integrate": 0}),
        ("fejer1", {"analyze": 3, "integrate": 3}),
        ("cc", {"analyze": 3, "integrate": 3}),
        ("gl", {"analyze": 3, "integrate": 3}),
    ])
    def test_n_at_the_limit_keeps_its_result(self, capsys, command, family, want):
        # n = 64 runs the rule: Newton-Cotes integrates with unchecked
        # weights, and the other rules fail their self-check or scan
        code, _ = run(command + ["--family", family, "--n", "64"])
        assert code == want[command[0]]
        assert "graded range" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_node_file_beyond_the_range_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "65.txt"
        path.write_text("".join(f"{k}/64\n" for k in range(-32, 33)), encoding="utf-8")
        code, text = run(command + ["--family", "custom", "--nodes-file", str(path)])
        assert code == 2
        assert text == ""
        assert ("the node file's node count is 65, beyond the graded range: n <= 64"
                in capsys.readouterr().err)

    def test_sweep_beyond_the_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never-written.csv"
        code, _ = run(["sweep", "--family", "gl", "--n-min", "64", "--n-max", "65",
                       "--out", str(out)])
        assert code == 2
        assert "--n-max is 65, beyond the graded range: n <= 64" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_takes_no_format(self, tmp_path):
        # sweep always writes CSV: --format would be ignored, so it is refused
        out = tmp_path / "never-written.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "nc", "--n-min", "2", "--n-max", "3",
                  "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_format_only_where_it_acts(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        takes_format = {command: any("--format" in a.option_strings for a in p._actions)
                        for command, p in subparsers.items()}
        assert takes_format == {"analyze": True, "sweep": False, "integrate": True}


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

    def test_analyze_and_integrate_share_the_rule_options(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices

        def rule_options(command):
            return [(a.option_strings, a.required, a.type, a.default, a.help)
                    for a in subparsers[command]._actions
                    if {"--family", "--n", "--nodes-file"} & set(a.option_strings)]

        assert len(rule_options("analyze")) == 3
        assert rule_options("integrate") == rule_options("analyze")
        assert all(help_ for *_, help_ in rule_options("integrate"))

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])  # missing --family
        assert exc.value.code == 2

    def test_unknown_family_exits_2(self, capsys):
        code, _ = run(["analyze", "--family", "simpson", "--n", "3"])
        assert code == 2
        assert "unknown family" in capsys.readouterr().err
