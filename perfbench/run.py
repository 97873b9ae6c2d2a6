"""fdrelay benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload cap-sweep --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` beside this
directory.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
measures the per-layer metrics instead (see README.md in this directory for
which end-to-end metric each of them should move, and on which workload).
Human-readable lines come first; the last line of standard output is the
JSON result.  Per-run details, machine facts included, go to ``_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOAD_NAMES = ("cap-sweep", "oracle-gap", "structural-suite")
END_TO_END = ("setup_s", "items_per_s", "call_p50_ms", "call_p99_ms", "peak_rss_mib")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(), "commit": commit}


class SetupProbe:
    """Times one set-up in a fresh interpreter (setup_probe.py) per call.
    The runner calls it before every pass, so the probes spread over the run
    as the passes do, instead of all landing in one moment of the host."""

    def __init__(self, workload: str, seed: int, checks):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.checks = checks
        self.times: list[float] = []

    def __call__(self) -> None:
        try:
            proc = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            self.checks.record(False, "set-up probe timed out")
            return
        self.checks.record(proc.returncode == 0, f"set-up probe failed:\n{proc.stderr}")
        if proc.returncode == 0:
            self.times.append(float(proc.stdout.split()[-1]))


def end_to_end(passes, setup_times):
    """Medians over the run.  Other tenants of a shared 2-core host slow the
    code by up to 1.7x, in spells of seconds to minutes.  A run's best pass
    depends on whether it caught a quiet moment; its median follows the state
    the host was in for most of the run, and in trials it varied less between
    runs.  The latency percentiles are taken over every call of every pass,
    and set-up over the probes, which are spread over the run like the
    passes.  Returns the metrics and the number of latency samples."""
    latencies = np.concatenate([p.latencies for p in passes])
    pass_s = median(p.seconds for p in passes)
    return {"setup_s": (median(setup_times), "s"),
            "items_per_s": (passes[0].items / pass_s, "1/s"),
            "call_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
            "call_p99_ms": (float(np.percentile(latencies, 99)) * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB")}, latencies.size


def per_layer(tracers, checks):
    """Per-layer metrics: counts from the first traced pass (checked equal in
    every other), times as the median over the traced passes."""
    passes = [(t.aggregate(), t.counts) for t in tracers]
    agg0, counts0 = passes[0]

    def calls(agg, name):
        return agg.get(name, {}).get("calls", 0)

    def self_s(name):
        return median(agg.get(name, {}).get("self_s", 0.0) for agg, _ in passes)

    fingerprint = [({n: s["calls"] for n, s in agg.items()}, dict(c)) for agg, c in passes]
    checks.record(all(f == fingerprint[0] for f in fingerprint),
                  "traced passes disagree on call or point counts")

    m = {}
    for name in ("model._rate_exact_vals", "phase._interference_coh_vals"):
        m[f"{name}.calls"] = (calls(agg0, name), "count")
        m[f"{name}.points"] = (counts0[f"{name}.points"], "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["model._rate_exact_vals.scalar_calls"] = (
        counts0["model._rate_exact_vals.scalar_calls"], "count")

    draws = calls(agg0, "model.sample_channels")
    m["model.sample_channels.calls"] = (draws, "count")
    m["model.sample_channels.distinct_ratio"] = (
        counts0["model.sample_channels.distinct"] / draws if draws else 0.0, "ratio")

    variants = sorted(n for n in agg0 if n.startswith("solver.solve_network."))
    m["solver.solve_network.calls"] = (sum(calls(agg0, n) for n in variants), "count")
    m["solver.solve_network.self_s"] = (
        median(sum(agg.get(n, {}).get("self_s", 0.0) for n in variants)
               for agg, _ in passes), "s")
    for variant in ("noncoherent.zeta0", "noncoherent.zeta_pos", "coherent.zeta0",
                    "coherent.zeta_pos", "hd-baseline"):
        name = f"solver.solve_network.{variant}"
        m[f"{name}.calls"] = (calls(agg0, name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    ascents = counts0["solver.alternate_optimize.calls"]
    m["solver.alternate_optimize.calls"] = (ascents, "count")
    m["solver.alternate_optimize.iterations_mean"] = (
        counts0["solver.alternate_optimize.iterations"] / ascents if ascents else 0.0,
        "count")
    m["solver.alternate_optimize.converged_frac"] = (
        counts0["solver.alternate_optimize.converged"] / ascents if ascents else 0.0,
        "ratio")

    for name in ("solver.brute_force", "phase.decompose", "analysis.f_partials",
                 "analysis.g_partials", "analysis.hessian_noncoh_zeta_zero",
                 "analysis.numeric_hessian"):
        m[f"{name}.calls"] = (calls(agg0, name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    for name in ("harness.run_experiment", "harness.lemma_suite", "harness.emit_csv",
                 "harness.channel_digest"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["harness.emit_csv.bytes"] = (counts0["harness.emit_csv.bytes"], "B")
    return {k: (float(v), u) for k, (v, u) in m.items()}


def write_spans(tracers, path):
    arrays = {}
    for i, t in enumerate(tracers):
        for key, arr in t.spans().items():
            arrays[f"pass{i}_{key}"] = arr
        arrays[f"pass{i}_names"] = np.array(t.names)
    np.savez(path, **arrays)


def measure_untraced(run, args):
    probe = SetupProbe(args.workload, args.seed, run.checks)
    passes, _ = run.measure(args.seconds, between=probe)
    if not (passes and probe.times):
        return {}, {}, ""
    np.savez(OUT / f"{run.tag}-samples.npz", seconds=[p.seconds for p in passes],
             latencies=[p.latencies for p in passes], setup=probe.times)
    workload = run.workload
    metrics, samples = end_to_end(passes, probe.times)
    report = {f"{workload.unit}_per_s": (metrics["items_per_s"][0], f"{workload.unit}/s"),
              f"{workload.call}_p50_ms": metrics["call_p50_ms"],
              f"{workload.call}_p99_ms": metrics["call_p99_ms"],
              **run.quality,
              "setup_s": metrics["setup_s"],
              "peak_rss_mib": metrics["peak_rss_mib"]}
    notes = (f"{len(passes)} passes, each {len(passes[0].latencies)} {workload.call} calls "
             f"and {passes[0].items} {workload.unit}; {samples} latency samples; "
             f"set-up timed {len(probe.times)} times")
    return metrics, report, notes


def measure_traced(run, args):
    import fdrelay
    import kernels
    import workloads

    passes, tracers = run.measure(args.seconds, traced=True)
    plain = [p for p, t in zip(passes, tracers) if t is None]
    traced = [p for p, t in zip(passes, tracers) if t is not None]
    tracers = [t for t in tracers if t is not None]
    if not (plain and traced):
        return {}, {}, ""
    metrics = per_layer(tracers, run.checks)
    ratio = median(p.seconds for p in traced) / median(p.seconds for p in plain)
    metrics["trace.overhead_pct"] = (100.0 * (ratio - 1.0), "%")
    config = run.workload.config
    channels = fdrelay.sample_channels(config, workloads.SEED_STRIDE * args.seed)
    metrics.update(kernels.measure(channels, config))
    write_spans(tracers, OUT / f"spans-{run.tag}.npz")
    notes = (f"{len(plain)} untraced and {len(traced)} traced passes, "
             f"{len(tracers[0].span_id)} spans per traced pass")
    return metrics, {**metrics, **kernels.computed()}, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fdrelay" / "__init__.py").is_file():
        print(f"error: fdrelay sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fdrelay

    if Path(fdrelay.__file__).resolve().parent != (SRC / "fdrelay").resolve():
        print(f"error: imported fdrelay from {fdrelay.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checks = workloads.Checks()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    machine = machine_facts()
    run = workloads.Runner(workload, checks, tag, OUT)

    try:
        workload.setup()
    except Exception:
        traceback.print_exc()
        checks.record(False, "set-up failed")

    metrics, report, notes = {}, {}, ""
    if checks.failed == 0:
        measure = measure_traced if args.trace else measure_untraced
        metrics, report, notes = measure(run, args)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    correct = checks.failed == 0 and bool(metrics)

    print(f"# fdrelay benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# inputs   {workload.describe()}")
    if report:
        print(f"# samples  {notes}")
    width = max((len(k) for k in report), default=0)
    for name, (value, unit) in report.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(f"{'failed_frac':<{width}}  {failed_frac:.6g} ({checks.failed}/{checks.attempted})")

    names = END_TO_END if not args.trace else sorted(metrics)
    result = {"correct": correct, "attempted": max(checks.attempted, 1),
              "failed": checks.failed if checks.attempted else 1,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                          for n in names if n in metrics}}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"machine": machine, "inputs": workload.describe(),
         "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
         "failed_frac": failed_frac, "failures": checks.messages, "result": result},
        indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
