"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Every workload turns ``--seed`` into a fixed set of base seeds for the
harness and runs them as one *pass*: a closed loop with a single caller,
where each library call starts only after the previous one returned.  A run
repeats the same pass until its time is up.  Pass times and call latencies
therefore get many samples, while the outputs -- and every count the traced
run reports -- stay identical from pass to pass, which the checks verify.
"""

from __future__ import annotations

import collections
import hashlib
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from fdrelay import analysis, harness, model, phase, solver

from spans import Patches, Tracer

# every run repeats the pass at least three times, so repeats can be
# compared and a median taken
MIN_PASSES = 3

# --seed n owns base seeds [n * SEED_STRIDE, (n + 1) * SEED_STRIDE)
SEED_STRIDE = 10_000

# The solvers accept a point when its interference is at most
# i_bar * (1 + 1e-9) + 1e-12.  The checker recomputes the interference
# through the public functions, whose operation order differs, so it allows
# a few rounding units on top.
FEAS_REL = 1e-9
FEAS_ABS = 1e-12
ROUNDING = 4e-16
BOX_REL = 1e-9
RATE_REL = 1e-12
ORDER_SLACK = 1e-6          # coherent >= non-coherent, monotone cap series
GAP_MAX_PCT = 3.0           # criterion 1: every row
GAP_CELL_MEAN_PCT = 1.0     # criterion 1: every (scenario, cap) cell mean


@dataclass
class PassOutput:
    """What one pass produced: timed figures plus everything the checks need."""

    seconds: float
    items: int              # CSV rows, or lemma points checked
    latencies: list[float]  # seconds per library call, in call order
    digest: str             # sha256 of the pass's CSV
    payload: Any            # outputs for the checks; dropped once checked


class Checks:
    """Counts checked outputs and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Sweep:
    """Interference-cap sweeps through ``harness.run_experiment``, rows
    written with ``harness.emit_csv``; every ``solver.solve_network`` call is
    timed and its result kept for the checks."""

    unit = "rows"
    call = "solve"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.base_seed = seed * SEED_STRIDE

    def setup(self) -> None:
        self.config = harness.load_config(self.root / "configs" / self.config_file)
        self.specs = self.make_specs()
        channels = model.sample_channels(self.config, self.base_seed)
        solver.solve_network(channels, self.config, solver.NONCOHERENT)

    def describe(self) -> str:
        return (f"{self.realizations} realizations, base seeds {self.base_seed}.."
                f"{self.base_seed + self.realizations - 1}, config {self.config_file}")

    def run_pass(self, csv_path: Path) -> PassOutput:
        calls = []
        original = solver.solve_network

        def timed(channels, config, scenario, *args, **kwargs):
            t0 = perf_counter()
            result = original(channels, config, scenario, *args, **kwargs)
            calls.append((perf_counter() - t0, channels, config, result))
            return result

        with Patches() as patches:
            patches.replace(solver, "solve_network", timed)
            t0 = perf_counter()
            rows = [row for spec in self.specs
                    for row in harness.run_experiment(spec, self.config)]
            harness.emit_csv(rows, csv_path)
            seconds = perf_counter() - t0
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        return PassOutput(seconds, len(rows), [c[0] for c in calls], digest,
                          (rows, calls))

    def check(self, out: PassOutput, checks: Checks) -> None:
        rows, calls = out.payload
        solved = {}
        for _, channels, config, result in calls:
            key = (result.scenario, config.zeta, config.i_bar_p, channels.seed)
            solved[key] = (channels, config, result)
            checks.record(*check_solve(channels, config, result))
        for row in rows:
            key = (row.scenario, row.zeta, model.db_to_linear(row.i_bar_p_db), row.seed)
            result = solved[key][2] if key in solved else None
            checks.record(result is not None and row.rate == result.rate
                          and row.relay == result.selected,
                          f"row {key} does not match its solve")
        for (scenario, zeta, ibar, seed), (channels, config, coh) in solved.items():
            if scenario == solver.COHERENT:
                nc = solved[(solver.NONCOHERENT, zeta, ibar, seed)][2]
                check_coherent_floor(channels, config, coh, nc, checks)
        series = collections.defaultdict(list)
        for r in rows:
            series[(r.scenario, r.zeta, r.seed)].append((r.i_bar_p_db, r.rate))
        for key, points in series.items():
            rates = [rate for _, rate in sorted(points)]
            checks.record(all(b >= a - ORDER_SLACK for a, b in zip(rates, rates[1:])),
                          f"cap series {key} not monotone: {rates}")

    @staticmethod
    def _coh_below_nc(rows) -> int:
        """(seed, zeta, cap) cells whose coherent rate trails the
        non-coherent one; see check_coherent_floor for why they can exist."""
        rate = {(r.zeta, r.i_bar_p_db, r.seed, r.scenario): r.rate for r in rows}
        return sum(1 for (z, i, s, scen), v in rate.items() if scen == solver.COHERENT
                   and v < rate[(z, i, s, solver.NONCOHERENT)] - ORDER_SLACK)

    @staticmethod
    def _mean_rate(rows, scenario) -> float:
        return float(np.mean([r.rate for r in rows if r.scenario == scenario]))


class CapSweep(Sweep):
    """Criterion-5 shape with fewer realizations: 4 leakage values x 6 caps x
    {noncoherent, coherent}, plus the half-duplex pass at zeta = 0.001."""

    name = "cap-sweep"
    config_file = "stock8.cfg"
    realizations = 6

    def make_specs(self):
        common = dict(i_bar_p_db_list=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                      p_max_db_list=(20.0,), num_realizations=self.realizations,
                      base_seed=self.base_seed)
        return (harness.ExperimentSpec(name="rate-vs-ibar",
                                       scenarios=(solver.NONCOHERENT, solver.COHERENT),
                                       zeta_list=(0.0, 0.001, 0.01, 0.4), **common),
                harness.ExperimentSpec(name="rate-vs-ibar",
                                       scenarios=(solver.HD_BASELINE,),
                                       zeta_list=(0.001,), **common))

    def quality(self, out: PassOutput) -> dict:
        rows = out.payload[0]
        return {"mean_rate_nc": (self._mean_rate(rows, solver.NONCOHERENT), "bit/s/Hz"),
                "mean_rate_coh": (self._mean_rate(rows, solver.COHERENT), "bit/s/Hz"),
                "mean_rate_hd": (self._mean_rate(rows, solver.HD_BASELINE), "bit/s/Hz"),
                "coh_below_nc": (self._coh_below_nc(rows), "cells")}


class OracleGap(Sweep):
    """Criterion-1 shape: one relay, accurate solver profile, 201^2 lattice."""

    name = "oracle-gap"
    config_file = "single-relay.cfg"
    realizations = 40

    def setup(self) -> None:
        super().setup()
        channels = model.sample_channels(self.config, self.base_seed)
        solver.brute_force(channels, 0, self.config, solver.COHERENT, 201)

    def make_specs(self):
        return (harness.ExperimentSpec(name="optimality-gap",
                                       scenarios=(solver.NONCOHERENT, solver.COHERENT),
                                       zeta_list=(0.001,),
                                       i_bar_p_db_list=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
                                       p_max_db_list=(20.0,),
                                       num_realizations=self.realizations,
                                       base_seed=self.base_seed, grid_n=201),)

    def _cells(self, rows):
        cells = collections.defaultdict(list)
        for r in rows:
            cells[(r.scenario, r.i_bar_p_db)].append(r.gap_pct)
        return cells

    def check(self, out: PassOutput, checks: Checks) -> None:
        super().check(out, checks)
        rows = out.payload[0]
        for r in rows:
            checks.record(r.gap_pct < GAP_MAX_PCT,
                          f"gap {r.gap_pct:.3f}% >= {GAP_MAX_PCT}% at "
                          f"{r.scenario} ibar={r.i_bar_p_db}dB seed={r.seed}")
        for key, gaps in self._cells(rows).items():
            mean = float(np.mean(gaps))
            checks.record(mean < GAP_CELL_MEAN_PCT,
                          f"cell {key}: mean gap {mean:.3f}% >= {GAP_CELL_MEAN_PCT}%")

    def quality(self, out: PassOutput) -> dict:
        rows = out.payload[0]
        cells = self._cells(rows)
        return {"mean_rate_nc": (self._mean_rate(rows, solver.NONCOHERENT), "bit/s/Hz"),
                "mean_rate_coh": (self._mean_rate(rows, solver.COHERENT), "bit/s/Hz"),
                "gap_mean_pct": (max(float(np.mean(g)) for g in cells.values()), "%"),
                "gap_max_pct": (max(max(g) for g in cells.values()), "%"),
                "coh_below_nc": (self._coh_below_nc(rows), "cells")}


class StructuralSuite:
    """``harness.lemma_suite`` at acceptance scale over several base seeds."""

    name = "structural-suite"
    unit = "checks"
    call = "lemma_suite"
    suites = 4
    points = 10_000
    draws = 100
    # criterion 3: curvature signs at >= 10^4 points, every witness draw certified
    coverage = {"noncoh-per-variable-convexity": points,
                "coh-per-variable-convexity": points,
                "noncoh-zeta0-joint-concavity": points,
                "noncoh-joint-nonconvexity-witness": draws,
                "coh-joint-nonconvexity-witness": draws}

    def __init__(self, root: Path, seed: int):
        # lemma_suite draws base_seed + 0..draws-1: keep the suites disjoint
        self.base_seeds = [seed * SEED_STRIDE + self.draws * j for j in range(self.suites)]

    def setup(self) -> None:
        self.config = harness.default_config()
        harness.lemma_suite(self.config, self.base_seeds[0], num_points=100, num_draws=2)

    def describe(self) -> str:
        return (f"{self.suites} suites x ({self.points} points, {self.draws} draws), "
                f"base seeds {', '.join(map(str, self.base_seeds))}")

    def run_pass(self, csv_path: Path) -> PassOutput:
        latencies, suites = [], []
        t0 = perf_counter()
        for base in self.base_seeds:
            t = perf_counter()
            suites.append(harness.lemma_suite(self.config, base, num_points=self.points,
                                              num_draws=self.draws))
            latencies.append(perf_counter() - t)
        seconds = perf_counter() - t0
        text = "".join(f"{base},{c.name},{c.passed},{c.checked},{c.detail}\n"
                       for base, checks in zip(self.base_seeds, suites) for c in checks)
        csv_path.write_text(text, encoding="utf-8")
        return PassOutput(seconds, sum(c.checked for s in suites for c in s), latencies,
                          hashlib.sha256(text.encode()).hexdigest(), suites)

    def check(self, out: PassOutput, checks: Checks) -> None:
        for base, suite in zip(self.base_seeds, out.payload):
            checks.record(len(suite) == 8, f"suite {base}: {len(suite)} checks, expected 8")
            for c in suite:
                need = self.coverage.get(c.name, 1)
                checks.record(c.passed and c.checked >= need,
                              f"suite {base}: {c.name} passed={c.passed} "
                              f"checked={c.checked} ({c.detail})")

    def quality(self, out: PassOutput) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (CapSweep, OracleGap, StructuralSuite)}


class Runner:
    """Repeats a workload's pass, checks every pass, keeps the figures."""

    def __init__(self, workload, checks: Checks, tag: str, out_dir: Path):
        self.workload = workload
        self.checks = checks
        self.tag = tag
        self.csv = out_dir / f"{tag}.csv"
        self.first_digest = None
        self.quality = {}

    def measure(self, seconds, traced=False, between=None):
        """Passes while another one fits in ``seconds``, at least MIN_PASSES
        of each kind.  With ``traced``, every other pass is traced, so traced
        and untraced passes see the same machine.  ``between()``, if given,
        runs before every pass, inside the same time budget.  Returns the
        pass outputs and, per pass, its tracer or None."""
        passes, tracers = [], []
        least = MIN_PASSES * (2 if traced else 1)
        start, last_pass_s = perf_counter(), 0.0
        while len(passes) < least or perf_counter() - start + last_pass_s < seconds:
            t0 = perf_counter()
            if between is not None:
                between()
            tracer = Tracer() if traced and len(passes) % 2 else None
            try:
                if tracer is None:
                    out = self.workload.run_pass(self.csv)
                else:
                    with tracer:
                        install_trace(tracer)
                        out = self.workload.run_pass(self.csv)
                self.workload.check(out, self.checks)
            except Exception:  # a crash in the program under test is a failed pass
                traceback.print_exc()
                self.checks.record(False, "pass raised an exception")
                break
            if self.first_digest is None:
                self.first_digest = out.digest
                self.quality = self.workload.quality(out)
            else:
                self.checks.record(out.digest == self.first_digest,
                                   "pass output differs from the first pass")
            out.payload = None
            passes.append(out)
            tracers.append(tracer)
            last_pass_s = perf_counter() - t0
        return passes, tracers


def check_solve(channels, config, result) -> tuple[bool, str]:
    """Re-check one network solve through the public API: exact feasibility
    of every relay's allocation, the reported rates, and the selection."""
    scenario = result.scenario
    cap = config.i_bar_p * (1.0 + FEAS_REL + ROUNDING) + FEAS_ABS
    hsp2 = abs(channels.h_sp) ** 2
    for k, r in enumerate(result.relays):
        a = r.alloc
        where = f"{scenario} zeta={config.zeta} ibar={config.i_bar_p:.6g} " \
                f"seed={channels.seed} relay={k}"
        if r.relay != k:
            return False, f"{where}: result for relay {r.relay}"
        if not (0.0 <= a.p_s <= config.p_s_max * (1.0 + BOX_REL)
                and 0.0 <= a.p_r <= config.p_r_max * (1.0 + BOX_REL)):
            return False, f"{where}: ({a.p_s}, {a.p_r}) outside the power box"
        if scenario == solver.NONCOHERENT:
            feasible = model.interference_noncoh(a, channels, k, config) <= cap
            rate = model.rate_exact(a, channels, k, config)
        elif scenario == solver.COHERENT:
            feasible = phase.interference_coh(a, channels, k, config) <= cap
            rate = model.rate_exact(a, channels, k, config)
        else:  # half duplex: each slot under the cap on its own
            hrp2 = abs(channels.h_rp[k]) ** 2
            feasible = hsp2 * a.p_s <= cap and hrp2 * a.p_r <= cap
            rate = model.rate_hd(a, channels, k, config)
        if not feasible:
            return False, f"{where}: ({a.p_s}, {a.p_r}) violates the interference cap"
        if not math.isclose(r.rate, rate, rel_tol=RATE_REL):
            return False, f"{where}: reported rate {r.rate!r} != recomputed {rate!r}"
    best = max(r.rate for r in result.relays)
    ok = result.relays[result.selected].rate == best
    return ok, f"{scenario} seed={channels.seed}: selected relay is not the best"


def check_coherent_floor(channels, config, coh, nc, checks: Checks) -> None:
    """Coherent >= non-coherent, per relay, wherever the solver promises it.

    The coherent solve takes the non-coherent allocation as a warm point, so
    it can do no worse whenever that allocation is coherent-feasible.  It is
    not always: the relay's forwarded phasor carries a fixed-phase noise
    proxy, and the aligned interference (|a| - |b|)^2 can exceed the
    non-coherent sum of powers.  There the coherent optimum itself can be
    lower (the lattice oracle agrees), so a shortfall is counted and printed
    as coh_below_nc, not failed.
    """
    inside = config.i_bar_p * (1.0 + FEAS_REL - ROUNDING) + FEAS_ABS
    for k, (c, n) in enumerate(zip(coh.relays, nc.relays)):
        if phase.interference_coh(n.alloc, channels, k, config) <= inside:
            checks.record(c.rate >= n.rate - ORDER_SLACK,
                          f"coherent {c.rate} < non-coherent {n.rate} at zeta="
                          f"{config.zeta} ibar={config.i_bar_p:.6g} seed={channels.seed} "
                          f"relay={k}, non-coherent point coherent-feasible")


def install_trace(tracer) -> None:
    """Wrap the attributes through which fdrelay's layers call each other."""
    seen_draws = set()

    def points(name):
        def hook(t, args, kwargs, result):
            n = int(np.size(result))
            t.counts[name + ".points"] += n
            if n == 1:
                t.counts[name + ".scalar_calls"] += 1
        return hook

    def draws(t, args, kwargs, result):
        seen_draws.add((result.seed, args[0]))
        t.counts["model.sample_channels.distinct"] = len(seen_draws)

    def ascent(t, args, kwargs, result):
        t.counts["solver.alternate_optimize.calls"] += 1
        t.counts["solver.alternate_optimize.iterations"] += result.iterations
        t.counts["solver.alternate_optimize.converged"] += int(result.converged)

    def csv_bytes(t, args, kwargs, result):
        t.counts["harness.emit_csv.bytes"] += Path(args[1]).stat().st_size

    def network(args, kwargs):
        config, scenario = args[1], args[2]
        if scenario == solver.HD_BASELINE:  # half duplex has no loop leakage
            return f"solver.solve_network.{scenario}"
        regime = "zeta0" if config.zeta == 0.0 else "zeta_pos"
        return f"solver.solve_network.{scenario}.{regime}"

    tracer.wrap(harness, "run_experiment", "harness.run_experiment")
    tracer.wrap(harness, "lemma_suite", "harness.lemma_suite")
    tracer.wrap(harness, "emit_csv", "harness.emit_csv", hook=csv_bytes)
    tracer.wrap(harness, "channel_digest", "harness.channel_digest")
    tracer.wrap(model, "sample_channels", "model.sample_channels", hook=draws)
    tracer.wrap(solver, "solve_network", "solver.solve_network", name_of=network)
    tracer.wrap(solver, "alternate_optimize", "solver.alternate_optimize",
                hook=ascent, span=False)
    tracer.wrap(solver, "brute_force", "solver.brute_force")
    tracer.wrap(model, "_rate_exact_vals", "model._rate_exact_vals",
                hook=points("model._rate_exact_vals"))
    tracer.wrap(phase, "_interference_coh_vals", "phase._interference_coh_vals",
                hook=points("phase._interference_coh_vals"))
    tracer.wrap(phase, "decompose", "phase.decompose")
    for fn in ("f_partials", "g_partials", "hessian_noncoh_zeta_zero", "numeric_hessian"):
        tracer.wrap(analysis, fn, f"analysis.{fn}")
