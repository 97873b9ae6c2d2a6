"""The parts of fdrelay that the ``perfbench/`` benchmark patches or reads.

The benchmark times every ``solver.solve_network`` call that the harness
makes, by replacing that module attribute, and its tracer wraps
``solver.alternate_optimize`` the same way.  If the harness or the network
solve stopped calling through those attributes, the benchmark would see no
calls and print no result.  These tests run the benchmark's own code on a
small pass; they change nothing under ``perfbench/``.
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


def test_tracer_sees_every_relay_solve(workloads):
    config = harness.load_config(ROOT / "configs" / "single-relay.cfg")
    spec = harness.ExperimentSpec(name="rate-vs-ibar", scenarios=(solver.NONCOHERENT,),
                                  num_realizations=1, base_seed=3)
    tracer = workloads.Tracer()
    with tracer:
        workloads.install_trace(tracer)
        rows = harness.run_experiment(spec, config)
    assert len(rows) == 6
    assert tracer.counts["solver.alternate_optimize.calls"] == len(rows)
    network = sum(v["calls"] for name, v in tracer.aggregate().items()
                  if name.startswith("solver.solve_network"))
    assert network == len(rows)
