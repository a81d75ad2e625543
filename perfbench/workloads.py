"""The three workloads: inputs, one timed pass, and the correctness check.

Each workload builds its inputs and references from the seed before any
timing starts.  ``run_pass`` then drives the public API once over every
rule, timing only the calls into quadlsq, and classifies each rule's
outcome against the exact reference:

* ``ok``: degree, mu_Q and weights agree with the reference;
* ``wrong``: a result came back but one of them disagrees (silently wrong);
* ``typed...``: the rule raised a ``quadlsq.NumericalFailure``.

Tolerances.  Degrees must be equal.  mu_Q and the weights are compared
with a relative tolerance of 1e-8 (weights normwise, against the largest
reference weight; sweep CSVs through N_omega).  The pipeline carries
everything in double-double and rounds once to doubles.  At the baseline
commit, over every family rule up to n=64 that returns, the worst errors
are 3.7e-15 for mu_Q and 4e-15 for N_omega; the worst normwise weight
error of any rule is 2.1e-11 (Newton-Cotes n=64, cond_inf(A) near 1e33).
A wrong degree reports a different moment as mu_Q: the smallest such
change seen is 0.99 relative.  1e-8 sits 500 times above the worst right
result and eight orders below the smallest wrong one.
"""

import csv
import io
import math
import random
import statistics
import time

import hostspeed
import reference

MU_RTOL = 1e-8
W_RTOL = 1e-8

SWEEP_FAMILIES = {"newton_cotes": "nc", "fejer1": "fejer1",
                  "clenshaw_curtis": "cc", "gauss_legendre": "gl"}


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def weights_err(weights, ref):
    scale = max(abs(w) for w in ref)
    return max(abs(a - b) for a, b in zip(weights, ref)) / scale


def judge(ref, degree, mu_Q, weights=None, n_omega=None):
    """'ok' or 'wrong' for one result against its reference entry."""
    if degree != ref["degree"] or rel_err(mu_Q, ref["mu_Q"]) > MU_RTOL:
        return "wrong"
    if weights is not None and weights_err(weights, ref["weights"]) > W_RTOL:
        return "wrong"
    if n_omega is not None and rel_err(n_omega, ref["n_omega"]) > W_RTOL:
        return "wrong"
    return "ok"


class Pass:
    """What one pass over a workload produced.

    Times are kept raw and scaled to the reference host speed by the
    factor ``hostspeed.scale()`` measured around each rule.
    """

    def __init__(self):
        self.times = {}          # rule key -> (raw ms, scaled ms, scale)
        self.busy_s = 0.0        # sum of the timed calls
        self.busy_ref_s = 0.0    # the same, scaled
        self.outcomes = {}       # rule key -> 'ok' | 'wrong' | 'typed...'
        self.oracle_disagree = 0
        self.artifacts = {}      # outputs that must repeat byte for byte
        self.problems = []       # failed checks that are not per-rule outcomes

    def add_rule(self, key, seconds, scale):
        self.times[key] = (seconds * 1e3, seconds * 1e3 * scale, scale)

    def add_busy(self, seconds, scale):
        self.busy_s += seconds
        self.busy_ref_s += seconds * scale


class Sweep64:
    """``quadlsq sweep`` in process for four families at n=2..64."""

    name = "sweep64"
    n_min, n_max = reference.N_MIN, reference.N_MAX

    def __init__(self, q, seed, tmp, refs):
        self.q = q
        self.tmp = tmp
        self.refs = {f"{family}/{n}": refs.family(family, n)
                     for family, n in reference.all_family_rules()}

    def run_pass(self, rng, tracer=None):
        cli = self.q.cli
        p = Pass()
        order = list(SWEEP_FAMILIES)
        rng.shuffle(order)
        # Per-row time: from the row's nodes.generate call to the end of
        # its build_report, both looked up in cli's namespace.  The host
        # speed is measured around each row, outside the row's time, and
        # those measurements are taken off the time of the cli.main call.
        clock = time.perf_counter
        generate, build_report = cli.generate, cli.build_report
        row = {}
        rows = []  # (seconds, scale) of the current family's rows

        def measure_host():
            # A span of its own keeps the measurement out of cli.main's
            # self time in a traced pass.
            t0 = clock()
            rec = tracer.open("bench.hostspeed") if tracer is not None else None
            loop = hostspeed.loop_s()
            if rec is not None:
                tracer.close(rec)
            row["calibrating"] += clock() - t0
            return loop

        def timed_generate(spec, *args, **kwargs):
            row["key"] = f"{spec.family.value}/{spec.n}"
            row["loop"] = measure_host()
            row["start"] = clock()
            return generate(spec, *args, **kwargs)

        def timed_build_report(*args, **kwargs):
            try:
                return build_report(*args, **kwargs)
            finally:
                seconds = clock() - row["start"]
                scale = hostspeed.scale(row["loop"], measure_host())
                p.add_rule(row["key"], seconds, scale)
                rows.append((seconds, scale))

        cli.generate, cli.build_report = timed_generate, timed_build_report
        try:
            for family in order:
                path = self.tmp / f"{family}.csv"
                argv = ["sweep", "--family", SWEEP_FAMILIES[family],
                        "--n-min", str(self.n_min), "--n-max", str(self.n_max),
                        "--out", str(path)]
                rows.clear()
                row["calibrating"] = 0.0
                t0 = clock()
                code = cli.main(argv, out=io.StringIO())
                busy = clock() - t0 - row["calibrating"]
                # Rows count at their own scale; the call's time outside
                # the rows (arguments, CSV output) at the rows' mean scale.
                for seconds, scale in rows:
                    p.add_busy(seconds, scale)
                p.add_busy(busy - math.fsum(s for s, _ in rows),
                           statistics.fmean(k for _, k in rows) if rows else 1.0)
                if code != 0:
                    p.problems.append(f"sweep {family} exited {code}")
                    continue
                p.artifacts[family] = path.read_bytes()
        finally:
            cli.generate, cli.build_report = generate, build_report
        for family, data in p.artifacts.items():
            self._classify(family, data.decode("utf-8"), p)
        if p.outcomes.keys() != self.refs.keys():
            p.problems.append(f"{len(p.outcomes)} rows classified, "
                              f"expected {len(self.refs)}")
        return p

    def _classify(self, family, text, p):
        for row in csv.DictReader(io.StringIO(text)):
            key = f"{row['family']}/{row['n']}"
            if row["family"] != family or key in p.outcomes or key not in self.refs:
                p.problems.append(f"unexpected row {key}")
                continue
            if row["error"]:
                p.outcomes[key] = "typed"
                continue
            p.outcomes[key] = judge(self.refs[key], int(row["degree"]),
                                    float(row["mu_Q"]), n_omega=float(row["N_omega"]))


def _timed_rule(q, p, tracer, key, call):
    """Time ``call()`` as one rule; returns (result, NumericalFailure or None)."""
    loop_before = hostspeed.loop_s()
    rec = tracer.open("rule") if tracer is not None else None
    result = error = None
    t0 = time.perf_counter()
    try:
        result = call()
    except q.NumericalFailure as exc:
        error = exc
    dt = time.perf_counter() - t0
    if rec is not None:
        tracer.close(rec, error is not None)
    scale = hostspeed.scale(loop_before, hostspeed.loop_s())
    p.add_busy(dt, scale)
    p.add_rule(key, dt, scale)
    if error is not None:
        p.outcomes[key] = f"typed:{type(error).__name__}"
    return result, error


class AnalyzeSmall:
    """generate + build_report for the four families at n=2..16."""

    name = "analyze-small"

    def __init__(self, q, seed, tmp, refs):
        self.q = q
        self.rules = {f"{family}/{n}": refs.family(family, n)
                      for family in reference.FAMILIES for n in range(2, 17)}

    def _analyze(self, family, n):
        # The calls `quadlsq analyze` makes: build_report reuses the system
        # and the solution, which exposes the weights to the check.
        q = self.q
        ns = q.generate(q.FamilySpec(q.Family(family), n))
        fs = q.build_system(ns)
        sol = q.solve_rule(fs)
        return sol, q.build_report(ns, family=family, fs=fs, solution=sol)

    def run_pass(self, rng, tracer=None):
        p = Pass()
        keys = sorted(self.rules)
        rng.shuffle(keys)
        for key in keys:
            family, n = key.split("/")
            result, error = _timed_rule(self.q, p, tracer, key,
                                        lambda: self._analyze(family, int(n)))
            if error is None:
                sol, report = result
                p.outcomes[key] = judge(self.rules[key], report.degree,
                                        report.mu_Q, weights=sol.omega)
        return p


class CustomVerify:
    """Node files through the pipeline and the four oracle paths.

    The seed picks ``sets_per_n`` node sets for each n from the frozen
    custom pool of ``reference.py``, whose references are cached.
    """

    name = "custom-verify"
    interval = reference.CUSTOM_INTERVAL
    sets_per_n = 3

    def __init__(self, q, seed, tmp, refs):
        self.q = q
        rng = random.Random(f"custom-verify/{seed}")
        pool = reference.custom_pool()
        self.rules = {}
        for n in reference.CUSTOM_N:
            for i in sorted(rng.sample(range(reference.CUSTOM_POOL_PER_N),
                                       self.sets_per_n)):
                key = f"custom/{n}/{i}"
                nodes = pool[key]
                path = tmp / f"nodes-{n:02d}-{i}.txt"
                path.write_text("".join(f"{v}\n" for v in nodes), encoding="utf-8")
                self.rules[key] = (path, refs.get(key, reference.custom_nodeset(q, nodes)))

    def _verify(self, path):
        q = self.q
        values = q.read_nodes_file(path)
        ns = q.NodeSet(tuple(float(v) for v in values), q.Interval(*self.interval))
        fs = q.build_system(ns)
        sol = q.solve_rule(fs)
        report = q.build_report(ns, family="custom", fs=fs, solution=sol)
        return (sol, report, q.rational_pipeline(ns), q.lsq_normal_equations(fs),
                q.direct_sis4_minimax(fs), q.degree_by_monomials(ns, sol.omega))

    def run_pass(self, rng, tracer=None):
        p = Pass()
        keys = list(self.rules)
        rng.shuffle(keys)
        for key in keys:
            path, ref = self.rules[key]
            result, error = _timed_rule(self.q, p, tracer, key,
                                        lambda: self._verify(path))
            if error is not None:
                continue
            sol, report, exact, lsq, (z_direct, eps_direct), mono = result
            p.outcomes[key] = judge(ref, report.degree, report.mu_Q, weights=sol.omega)
            # The oracle paths are verification routes: a disagreement is
            # counted on its own, not as a wrong rule.  The exact path must
            # reproduce the cached reference to the last bit.
            p.oracle_disagree += sum(bool(disagrees) for disagrees in (
                exact.degree != ref["degree"] or float(exact.mu_Q) != ref["mu_Q"]
                or [float(w) for w in exact.weights] != ref["weights"],
                weights_err(lsq, ref["weights"]) > W_RTOL,
                weights_err(z_direct, sol.z_star) > W_RTOL
                or rel_err(eps_direct, abs(ref["mu_Q"])) > MU_RTOL,
                mono != ref["degree"],
            ))
        return p


WORKLOADS = {w.name: w for w in (Sweep64, AnalyzeSmall, CustomVerify)}


def tail_percentile(samples, beyond=10):
    """(percentile, value): the highest percentile with >= ``beyond``
    samples above it, or (nan, nan) with too few samples."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        return math.nan, math.nan
    k = len(xs) - beyond  # samples xs[k:] lie beyond xs[k-1]
    return 100.0 * k / len(xs), xs[k - 1]
