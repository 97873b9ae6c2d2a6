"""The parts of fdrelay that the ``perfbench/`` benchmark patches or reads.

The benchmark times every ``solver.solve_network`` call that the harness
makes, by replacing that module attribute, and its tracer wraps
``solver.alternate_optimize`` the same way.  If the harness or the network
solve stopped calling through those attributes, the benchmark would see no
calls and print no result.  A coherent network solve runs each relay it does
not skip through ``solver.alternate_optimize``; a non-coherent or half-duplex
one solves all its relays in one batched closed form and calls it not at all.
Its structural workload checks the names, number and coverage of
``harness.lemma_suite``'s checks.  These tests run the benchmark's own code on
small passes; they change nothing under ``perfbench/``.
"""

from pathlib import Path

import pytest

from fdrelay import harness, solver

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return workloads


def test_cap_sweep_pass_is_timed_and_checked(workloads, tmp_path):
    class OneRealization(workloads.CapSweep):
        realizations = 1

    bench = OneRealization(ROOT, seed=1)
    bench.setup()
    out = bench.run_pass(tmp_path / "pass.csv")
    checks = workloads.Checks()
    bench.check(out, checks)
    assert checks.failed == 0, checks.messages
    # 2 scenarios x 4 leakage values x 6 caps, plus 6 half-duplex caps
    assert out.items == 54
    assert len(out.latencies) == 54


def test_oracle_gap_pass_is_timed_and_checked(workloads, tmp_path):
    class OneRealization(workloads.OracleGap):
        realizations = 1

    bench = OneRealization(ROOT, seed=1)
    bench.setup()
    out = bench.run_pass(tmp_path / "pass.csv")
    checks = workloads.Checks()
    bench.check(out, checks)
    assert checks.failed == 0, checks.messages
    # 2 scenarios x 6 caps, each row gap-checked against the lattice oracle
    assert out.items == 12
    assert len(out.latencies) == 12


def test_structural_suite_pass_is_checked(workloads, tmp_path):
    class SmallSuite(workloads.StructuralSuite):
        suites = 2
        points = 200
        draws = 4
        coverage = {"noncoh-per-variable-convexity": points,
                    "coh-per-variable-convexity": points,
                    "noncoh-zeta0-joint-concavity": points,
                    "noncoh-joint-nonconvexity-witness": draws,
                    "coh-joint-nonconvexity-witness": draws}

    bench = SmallSuite(ROOT, seed=1)
    bench.setup()
    out = bench.run_pass(tmp_path / "pass.csv")
    checks = workloads.Checks()
    bench.check(out, checks)
    assert checks.failed == 0, checks.messages
    # per suite: 4 phase instances, 3 x 200 curvature points, 2 x 4 witnesses,
    # 2 x 20 Cauchy-Schwarz instances
    assert out.items == 2 * (4 + 600 + 8 + 40)
    assert len(out.latencies) == 2


def test_tracer_sees_every_relay_solve(workloads):
    config = harness.load_config(ROOT / "configs" / "single-relay.cfg")
    for scenario, relay_solves_per_row in ((solver.COHERENT, 1), (solver.NONCOHERENT, 0)):
        spec = harness.ExperimentSpec(name="rate-vs-ibar", scenarios=(scenario,),
                                      num_realizations=1, base_seed=3)
        tracer = workloads.Tracer()
        with tracer:
            workloads.install_trace(tracer)
            rows = harness.run_experiment(spec, config)
        assert len(rows) == 6
        assert (tracer.counts["solver.alternate_optimize.calls"]
                == relay_solves_per_row * len(rows))
        network = sum(v["calls"] for name, v in tracer.aggregate().items()
                      if name.startswith("solver.solve_network"))
        assert network == len(rows)
