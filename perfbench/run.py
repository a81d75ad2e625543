"""quadlsq benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times whole passes over the workload
for ``--seconds`` seconds (at least two passes) and prints every
end-to-end metric of ``BENCHMARK.json``.  With ``--trace 1`` it alternates
plain and traced passes for ``--seconds`` (at least one of each) and
prints every per-layer metric.  Either way each rule is checked against
its exact reference, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import reference
import tracing
from workloads import WORKLOADS, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 21
SETUP_CODE = ("import time; t0 = time.perf_counter(); import quadlsq; "
              "quadlsq.build_report(quadlsq.NodeSet((-1.0, 0.0, 1.0))); "
              "t = time.perf_counter() - t0; import hostspeed; "
              "print(t, hostspeed.loop_s())")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="quadlsq benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import quadlsq from this checkout's src/, never from elsewhere."""
    if not (SRC / "quadlsq" / "__init__.py").is_file():
        raise SystemExit(f"error: no quadlsq sources under {SRC}")
    # One caller and no threads, here and in the setup_s children: numpy's
    # BLAS would otherwise start a thread per CPU at import, which makes
    # the start-up time erratic.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import quadlsq
    import quadlsq.cli  # noqa: F401  (the package does not import it)

    if Path(quadlsq.__file__).resolve().parent != SRC / "quadlsq":
        raise SystemExit(f"error: imported quadlsq from {quadlsq.__file__}")
    return quadlsq


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "math_fma": hasattr(math, "fma"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup_s():
    """Median time from a fresh interpreter to the first report.

    Each child times its own ``import quadlsq`` and first report, so the
    interpreter's start-up, which no change to the package can move, is
    left out.  Then it times the calibration loop, and its time is scaled
    by that loop.  Returns the (scaled, raw) medians over the children.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", SETUP_CODE]
    run = dict(env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    subprocess.run(cmd, **run)  # writes the bytecode caches once
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        seconds, loop = map(float, subprocess.run(cmd, **run).stdout.split())
        raw.append(seconds)
        scaled.append(seconds * hostspeed.scale(loop))
    return statistics.median(scaled), statistics.median(raw)


def counts_of(passes):
    outcomes = [s for p in passes for s in p.outcomes.values()]
    typed = sum(s.startswith("typed") for s in outcomes)
    wrong = outcomes.count("wrong")
    return len(outcomes), typed, wrong


def problems_of(passes):
    """Checks that are not per-rule outcomes: each pass must repeat the first."""
    first = passes[0]
    problems = [msg for p in passes for msg in p.problems]
    for i, p in enumerate(passes[1:], start=2):
        if p.outcomes != first.outcomes:
            problems.append(f"pass {i}: rule outcomes differ from pass 1")
        if p.artifacts != first.artifacts:
            problems.append(f"pass {i}: output files differ from pass 1")
    return problems


def per_rule_ms(passes, field):
    """One sample per rule: its median time over the passes."""
    keys = passes[0].times
    return [statistics.median(p.times[k][field] for p in passes if k in p.times)
            for k in keys]


def timed_run(workload, rng, seconds):
    setup_s, setup_raw_s = measure_setup_s()
    passes = []
    t_end = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < t_end:
        passes.append(workload.run_pass(rng))
    raw, scaled = per_rule_ms(passes, 0), per_rule_ms(passes, 1)
    attempted, typed, wrong = counts_of(passes)
    pct, tail = tail_percentile(scaled)
    values = {
        "setup_s": setup_s,
        "rules_per_s": statistics.median(len(p.outcomes) / p.busy_ref_s
                                         for p in passes),
        "rule_ms_p50": statistics.median(scaled),
        "rule_ms_tail": tail,
        "right_frac": 1.0 - (typed + wrong) / attempted,
        "honest_frac": 1.0 - wrong / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_pass = len(passes[0].outcomes)
    info = {
        "passes": len(passes),
        "rules_per_pass": per_pass,
        "rule_ms_tail": f"p{pct:.2f} of {len(scaled)} per-rule samples",
        "error_frac": {"value": (typed + wrong) / attempted, "unit": "frac",
                       "per_pass": f"{(typed + wrong) // len(passes)}/{per_pass}"},
        "wrong_frac": {"value": wrong / attempted, "unit": "frac",
                       "per_pass": f"{wrong // len(passes)}/{per_pass}"},
        "typed_failures": f"{typed // len(passes)}/{per_pass}",
        "oracle_disagree": f"{passes[0].oracle_disagree}/{per_pass}",
        "calibration_loop_ms": statistics.median(
            hostspeed.REF_S / t[2] * 1e3 for p in passes for t in p.times.values()),
        "raw": {
            "setup_s": setup_raw_s,
            "rules_per_s": statistics.median(len(p.outcomes) / p.busy_s
                                             for p in passes),
            "rule_ms_p50": statistics.median(raw),
            "rule_ms_tail": tail_percentile(raw)[1],
        },
    }
    return passes, values, info, []


def layer_values(tracer, traced_pass, spec):
    """Per-layer metrics of one traced pass; layers not called read 0."""
    moments = tracer.ext_moments
    values = {m["name"]: 0 for m in spec["per_layer"]}
    values.update(tracer.counts)
    values.update({f"{name}.self_ms": ms
                   for name, ms in tracing.self_times_ms(tracer.spans).items()})
    values.update({
        "system.failed_ms": tracing.failed_ms(tracer.spans),
        "system.ext_moments_used_frac": (moments["used"] / moments["computed"]
                                         if moments["computed"] else 0.0),
        "oracle.disagree.count": traced_pass.oracle_disagree,
    })
    return values


def traced_run(q, workload, rng, seconds, spec, trace_path):
    """Alternate plain and traced passes for ``seconds`` (at least one pair).

    Each per-layer value is the (low) median over traced passes of its per-pass
    value; counts must repeat exactly from pass to pass.
    """
    plain, traced, per_pass, spans = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(workload.run_pass(rng))
        tracer = tracing.Tracer(q)
        with tracer:
            traced.append(workload.run_pass(rng, tracer))
        per_pass.append(layer_values(tracer, traced[-1], spec))
        spans.append(tracer.spans)
    values = {name: statistics.median_low(v[name] for v in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_frac"] = (
        statistics.median(p.busy_ref_s for p in traced)
        / statistics.median(p.busy_ref_s for p in plain) - 1.0)
    problems = [f"{m['name']} differs between traced passes"
                for m in spec["per_layer"] if m["unit"] == "count"
                and len({v[m["name"]] for v in per_pass}) > 1]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"span_fields": ["name", "start_ns", "end_ns", "parent", "error"],
                   "passes": spans}, fh)
        fh.write("\n")
    info = {"traced_passes": len(traced),
            "trace_file": str(trace_path.relative_to(ROOT))}
    return plain + traced, values, info, problems


def main(argv=None):
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    q = import_package()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    env = environment(args)
    print(json.dumps({"env": env}), flush=True)

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        refs = reference.References(q)
        workload = WORKLOADS[args.workload](q, args.seed, tmp, refs)
        rng = random.Random(f"{args.workload}/{args.seed}")
        if args.trace:
            trace_path = (ROOT / ".perfbench_out"
                          / f"trace-{args.workload}-{args.seed}.json")
            passes, values, info, problems = traced_run(
                q, workload, rng, args.seconds, spec, trace_path)
            wanted = spec["per_layer"]
        else:
            passes, values, info, problems = timed_run(workload, rng, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()

    problems += problems_of(passes)
    info["references_recomputed"] = refs.recomputed
    attempted, typed, wrong = counts_of(passes)
    print(json.dumps({"info": info, "problems": problems}), flush=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": typed + wrong,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
