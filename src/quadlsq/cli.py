"""Command-line front end: analyze single rules, sweep families, integrate.

``analyze`` and ``integrate`` share their rule options and reach the rule
one way; ``integrate`` applies its weights only when they are finite.
Every command refuses an n beyond the graded range, ``MAX_SWEEP_N``, as an
input error.  Only ``analyze`` and ``integrate`` take ``--format``;
``sweep`` always writes CSV.

Exit codes are a stable contract: 0 on success, 2 on usage/input errors,
3 on numerical failures, each a :class:`quadlsq.NumericalFailure`: no
extended moment rose above the zero threshold (``DegreeOverflowError``), a
moment is not a finite double (``MomentOverflowError``), a diagonal entry
of A is zero or too small for ``analyze``'s tau (``SingularDiagonalError``),
the Gauss-Legendre eigensolver failed or a root failed its acceptance
check (``ConvergenceError``), the rule failed its self-check (``SelfCheckError``),
or ``integrate``'s weights or weighted sum are not finite doubles.

CSV and JSON outputs serialize numbers with 17 significant digits so that
parsing a file back reproduces the original doubles bit for bit, and sweep
files are deterministic: re-running a sweep produces byte-identical output.
"""

import argparse
import csv
import functools
import json
import math
import re
import sys

from .analysis import RuleReport, build_report, error_coefficient
from .basis import Interval, NodeSet, _horner
from .errors import NumericalFailure
from .nodes import Family, FamilySpec, generate, read_nodes_file
from .system import build_system, solve_rule

#: Fixed column order of sweep/analyze rows.
CSV_COLUMNS = (
    "family", "n", "degree", "mu_Q", "N_omega", "N_z", "angle_deg",
    "tau_inf", "alpha", "c_n", "Omega", "Gamma", "cond_inf_A",
    "r_omega_1", "r_omega_2", "r_omega_inf", "r_z_inf", "error",
)

#: The largest n that every command accepts: the n whose degree and mu_Q
#: are graded against the exact references (four families, n = 2..64).
MAX_SWEEP_N = 64


def _fmt(value):
    """17 significant digits: enough for exact float round-trips."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _report_row(report, error=""):
    """The ``CSV_COLUMNS`` of a report: its fields and ``error``
    (``KeyError`` for a column that is neither).  Without a report every
    column but ``error`` is empty."""
    if report is None:
        return {c: error if c == "error" else "" for c in CSV_COLUMNS}
    fields = {**vars(report), "error": error}
    return {c: fields[c] for c in CSV_COLUMNS}


def _json_object(pairs):
    """Flat JSON object with floats at 17 significant digits."""
    parts = (f"{json.dumps(k)}: {_fmt(v) if isinstance(v, float) else json.dumps(v)}"
             for k, v in pairs)
    return "{" + ", ".join(parts) + "}"


def _write_csv(out, rows, columns=CSV_COLUMNS):
    """The header ``columns``, then each row's ``columns`` through :func:`_fmt`."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def _graded(n, what):
    """n, if it is at most ``MAX_SWEEP_N``; else ``ValueError`` naming the
    limit.  The least n is the family's to check (its "unsupported count")."""
    if n > MAX_SWEEP_N:
        raise ValueError(f"{what} is {n}, beyond the graded range: n <= {MAX_SWEEP_N}")
    return n


def _interval(args):
    return Interval(*args.interval) if args.interval else Interval()


def _resolve_nodeset(args):
    """NodeSet from --family/--n or --nodes-file, honoring --interval."""
    interval = _interval(args)
    family = Family.parse(args.family)
    if family is Family.CUSTOM:
        if not args.nodes_file:
            raise ValueError("custom family needs --nodes-file")
        if args.n is not None:
            raise ValueError("--n does not apply to --family custom: the node file sets n")
        nodes = read_nodes_file(args.nodes_file)
        _graded(len(nodes), "the node file's node count")
        return NodeSet(nodes, interval), "custom"
    if args.nodes_file:
        raise ValueError("--nodes-file only applies to --family custom")
    if args.n is None:
        raise ValueError(f"--n is required for family {family.value}")
    return generate(FamilySpec(family, _graded(args.n, "--n")), interval), family.value


def _solved(args):
    """(ns, label, fs, solution) of the rule that the rule options name."""
    ns, label = _resolve_nodeset(args)
    fs = build_system(ns, eps_deg=args.eps_deg)
    return ns, label, fs, solve_rule(fs)


def _print_analyze_text(report, ns, sol, out):
    omega, tau, z_star = sol._doubles
    print(f"family: {report.family}   n: {report.n}   "
          f"interval: ({_fmt(ns.interval.a)}, {_fmt(ns.interval.b)})", file=out)
    print("nodes:  " + " ".join(_fmt(t) for t in ns.nodes), file=out)
    print("omega:  " + " ".join(_fmt(w) for w in omega), file=out)
    print("z_star: " + " ".join(_fmt(z) for z in z_star), file=out)
    print("tau:    " + " ".join(_fmt(t) for t in tau), file=out)
    for name in RuleReport.__match_args__:
        if name not in ("family", "n", "epsilon"):  # the header shows family and n
            print(f"{name}: {_fmt(getattr(report, name))}", file=out)


def _cmd_analyze(args, out):
    ns, label, fs, sol = _solved(args)
    report = build_report(ns, family=label, fs=fs, solution=sol)
    if args.format == "text":
        _print_analyze_text(report, ns, sol, out)
    elif args.format == "csv":
        _write_csv(out, [_report_row(report)])
    else:
        print(_json_object(_report_row(report).items()), file=out)
    return 0


def _cmd_sweep(args, out):
    family = Family.parse(args.family)
    if family is Family.CUSTOM:
        raise ValueError("sweep needs a generated family, not custom")
    if not 1 <= args.n_min <= args.n_max:
        raise ValueError(f"need 1 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    _graded(args.n_max, "--n-max")
    interval = _interval(args)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        try:
            ns = generate(FamilySpec(family, n), interval)
            report = build_report(ns, family=family.value, eps_deg=args.eps_deg)
            rows.append(_report_row(report))
        except (ValueError, NumericalFailure) as exc:
            rows.append({**_report_row(None, error=str(exc)), "family": family.value, "n": n})
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, rows)
    print(f"wrote {len(rows)} rows to {args.out}", file=out)
    return 0


_BUILTIN_INTEGRANDS = {"runge": lambda x: 1.0 / (1.0 + 25.0 * x * x), "expx": math.exp}


def _parse_integrand(spec):
    if spec.startswith("poly:"):
        try:
            coeffs = [float(s) for s in spec[len("poly:"):].split(",")]
        except ValueError:
            raise ValueError(f"unknown integrand: bad coefficients in {spec!r}") from None
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"unknown integrand: {spec!r} has a coefficient "
                             "that is not a finite double")
        from fractions import Fraction

        exact = [Fraction(c) for c in coeffs]
        # exact, rounded once: OverflowError past the double range
        return lambda x: float(_horner(exact, Fraction(x)))
    if spec not in _BUILTIN_INTEGRANDS:
        raise ValueError(f"unknown integrand: {spec!r} (use poly:c0,c1,... , runge, expx)")
    return _BUILTIN_INTEGRANDS[spec]


def _cmd_integrate(args, out):
    f = _parse_integrand(args.integrand)
    ns, label, fs, sol = _solved(args)
    omega = sol._doubles[0]
    if not all(map(math.isfinite, omega)):
        raise NumericalFailure("the rule's weights are not finite doubles")
    # Q_n(f) fails at the first node whose value, term or running sum is not
    # a finite double: an inf or nan term is the fsum, and a sum out of range
    # raises OverflowError (n running fsums, O(n^2) additions in all).
    terms = []
    for w, t in zip(omega, ns.nodes):
        try:
            terms.append(w * f(t))
            if not math.isfinite(math.fsum(terms)):
                raise OverflowError
        except OverflowError:
            raise NumericalFailure(
                f"the integrand's weighted sum is not a finite double at node {_fmt(t)}"
            ) from None
    value = math.fsum(terms)
    c_n = error_coefficient(fs.mu_Q, fs.degree)
    row = {"family": label, "n": ns.n, "integrand": args.integrand,
           "value": value, "degree": fs.degree, "c_n": c_n}
    if args.format == "text":
        print(f"Q_{ns.n}(f) = {_fmt(value)}", file=out)
        print(f"degree: {fs.degree}   error constant c_n: {_fmt(c_n)}", file=out)
    elif args.format == "csv":
        _write_csv(out, [row], columns=tuple(row))
    else:
        print(_json_object(row.items()), file=out)
    return 0


#: A negative number literal, with an optional exponent, or -inf/-nan.
_SIGNED_NUMBER = re.compile(
    r"^-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every signed number literal as a value.

    argparse takes an argument that starts with ``-`` for an option unless
    it looks like a negative number, and its test for that accepts neither
    an exponent nor inf/nan on Python 3.10 and 3.11, so ``--interval -1e50
    1e50`` would fail as "expected 2 arguments".  The parser has no option
    that looks like a number, so widening the test is unambiguous; a
    non-finite value then reaches the interval check and its exit code 2.
    The test is argparse's ``_negative_number_matcher`` attribute, set per
    parser under that name from Python 3.10 to 3.13; subparsers are built
    by the same class, so each gets the wider pattern.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _SIGNED_NUMBER


def build_parser():
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default: text)")
    common = _Parser(add_help=False)
    common.add_argument("--eps-deg", type=float, default=None, metavar="REAL",
                        help="zero threshold override for degree detection")
    common.add_argument("--interval", type=float, nargs=2, default=None,
                        metavar=("A", "B"), help="integration interval (default -1 1)")

    parser = _Parser(
        prog="quadlsq",
        description="Analyze interpolatory quadrature rules through their "
                    "fundamental system: weights, minimax solution, degree, "
                    "principal moment and conditioning diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule = _Parser(add_help=False)
    rule.add_argument("--family", required=True, help="nc, fejer1, cc, gl, or custom")
    rule.add_argument("--n", type=int, default=None, help="total node count")
    rule.add_argument("--nodes-file", default=None, help="node file for --family custom")

    sub.add_parser("analyze", parents=[output, common, rule], help="full report for one rule")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="CSV of reports over a range of n")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_int = sub.add_parser("integrate", parents=[output, common, rule],
                           help="apply a rule to an integrand")
    p_int.add_argument("--integrand", required=True,
                       help="poly:c0,c1,...  or a built-in name (runge, expx)")

    return parser


@functools.cache
def _parser():
    """The process's one parser: argparse's objects form reference cycles,
    so a parser built per call would leave garbage for the collector."""
    return build_parser()


def main(argv=None, out=None):
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    handlers = {"analyze": _cmd_analyze, "sweep": _cmd_sweep,
                "integrate": _cmd_integrate}
    try:
        return handlers[args.command](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
