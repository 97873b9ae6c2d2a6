import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdrelay as fd
from fdrelay import harness
from fdrelay.harness import (CSV_COLUMNS, UNCONSTRAINED, ExperimentSpec,
                             channel_digest, default_config, emit_csv,
                             lemma_suite, load_config, parse_config_text,
                             run_experiment)

import identity
import pins

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

LEMMA_NAMES = {
    "phase-alignment-optimality",
    "noncoh-per-variable-convexity",
    "coh-per-variable-convexity",
    "noncoh-zeta0-joint-concavity",
    "noncoh-joint-nonconvexity-witness",
    "coh-joint-nonconvexity-witness",
    "cross-term-bound",
    "surrogate-conservatism",
}


def small_config(num_relays=2):
    return fd.NetworkConfig(num_relays=num_relays, zeta=0.001, p_s_max=100.0,
                            p_r_max=100.0, i_bar_p=10.0)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    {"name": "rate-vs-nothing"},
    {"name": "rate-vs-ibar", "scenarios": ()},
    {"name": "rate-vs-ibar", "zeta_list": ()},
    {"name": "rate-vs-ibar", "zeta_list": (-0.1,)},
    {"name": "rate-vs-ibar", "i_bar_p_db_list": ()},
    {"name": "rate-vs-ibar", "num_realizations": 0},
    {"name": "optimality-gap", "grid_n": 1},
    {"name": "rate-vs-ibar", "scenarios": ("telepathic",)},
    {"name": "optimality-gap", "i_bar_p_db_list": (0.0, float("nan"), float("inf"))},
    {"name": "rate-vs-ibar", "zeta_list": (float("nan"),)},
    {"name": "rate-vs-ibar", "zeta_list": (float("inf"),)},
    {"name": "rate-vs-ibar", "p_max_db_list": (float("-inf"),)},
    {"name": "rate-vs-ibar", "p_max_db_list": (float("nan"),)},
    {"name": "rate-vs-pr", "fixed_db": float("inf")},
    {"name": "rate-vs-ps", "fixed_db": float("nan")},
])
def test_spec_validation(bad):
    with pytest.raises(ValueError):
        ExperimentSpec(**bad)


def test_spec_keeps_infinite_caps():
    # +inf dB is no interference cap, -inf dB a zero cap
    spec = ExperimentSpec(name="rate-vs-ibar", i_bar_p_db_list=(float("inf"), float("-inf")))
    assert spec.i_bar_p_db_list == (math.inf, -math.inf)


def test_spec_normalizes_aliases_and_floats():
    spec = ExperimentSpec(name="rate-vs-ibar", scenarios=("noncoh", "coh"),
                          i_bar_p_db_list=(0, 4), zeta_list=(0,))
    assert spec.scenarios == (fd.NONCOHERENT, fd.COHERENT)
    assert spec.i_bar_p_db_list == (0.0, 4.0)
    assert spec.zeta_list == (0.0,)


# ---------------------------------------------------------------------------
# channel digest
# ---------------------------------------------------------------------------

def test_channel_digest_shape_and_determinism():
    cfg = small_config()
    d0 = channel_digest(fd.sample_channels(cfg, seed=0))
    d0_again = channel_digest(fd.sample_channels(cfg, seed=0))
    d1 = channel_digest(fd.sample_channels(cfg, seed=1))
    assert d0 == d0_again
    assert d0 != d1
    assert len(d0) == 16 and int(d0, 16) >= 0
    # draws (hence digests) do not depend on leakage or caps
    other = dataclasses.replace(cfg, zeta=0.4, i_bar_p=1.0)
    assert channel_digest(fd.sample_channels(other, seed=0)) == d0


def test_channel_digest_golden_value():
    # frozen draw-order guard: any change to sampling breaks this
    cfg = small_config()
    assert channel_digest(fd.sample_channels(cfg, seed=0)) == "d3034052982ce953"


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def test_cap_sweep_rows_order_and_monotonicity():
    cfg = small_config()
    spec = ExperimentSpec(name="rate-vs-ibar", num_realizations=3,
                          i_bar_p_db_list=(8.0, 0.0, 4.0))
    rows = run_experiment(spec, cfg)
    assert len(rows) == 2 * 3 * 3  # scenarios x realizations x caps
    keys = [harness._row_key(r) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert r.experiment == "rate-vs-ibar"
        assert r.oracle_rate is None and r.gap_pct is None
        assert 0 <= r.relay < cfg.num_relays
        assert r.fixed_p_db is None and r.sweep_p_db is None
    # per (scenario, seed): nondecreasing in the cap; digests pair by seed
    by_seed_digest = {}
    for scen in (fd.NONCOHERENT, fd.COHERENT):
        for seed in range(3):
            series = [r for r in rows if r.scenario == scen and r.seed == seed]
            series.sort(key=lambda r: r.i_bar_p_db)
            rates = [r.rate for r in series]
            assert all(b >= a - 1e-6 for a, b in zip(rates, rates[1:]))
            digests = {r.channel_digest for r in series}
            assert len(digests) == 1
            by_seed_digest.setdefault(seed, set()).update(digests)
    assert len({d for s in by_seed_digest.values() for d in s}) == 3


def test_coherent_rows_dominate_noncoherent_rows():
    cfg = small_config()
    spec = ExperimentSpec(name="rate-vs-ibar", num_realizations=4,
                          i_bar_p_db_list=(0.0, 6.0))
    rows = run_experiment(spec, cfg)
    nc = {(r.seed, r.i_bar_p_db): r.rate for r in rows if r.scenario == fd.NONCOHERENT}
    co = {(r.seed, r.i_bar_p_db): r.rate for r in rows if r.scenario == fd.COHERENT}
    assert nc.keys() == co.keys()
    for key, nc_rate in nc.items():
        assert co[key] >= nc_rate - 1e-6


def test_optimality_gap_rows():
    cfg = small_config(num_relays=1)
    spec = ExperimentSpec(name="optimality-gap", num_realizations=2,
                          i_bar_p_db_list=(6.0,), grid_n=101)
    rows = run_experiment(spec, cfg)
    assert len(rows) == 2 * 2
    for r in rows:
        assert r.oracle_rate is not None and r.gap_pct is not None
        assert r.gap_pct <= 3.0  # envelope solve against a 101-point lattice
        assert r.oracle_rate >= 0.0


def test_optimality_gap_csv_is_pinned(tmp_path):
    # the per-realization oracle lattices must reproduce these bytes exactly
    pin = pins.PINS["optimality-gap"]
    rows = pin.run()
    assert len(rows) == pin.rows
    assert pins.csv_sha256(rows, tmp_path / "gap.csv") == pin.sha256


@pytest.mark.parametrize("cfg_name", ["stock8", "strong-leakage"])
def test_rate_vs_ibar_csv_is_pinned(cfg_name, tmp_path):
    # multi-relay network solves, warm-chained over the caps (zero and no cap
    # included), with coherent relay skipping, must reproduce these bytes exactly
    pin = pins.PINS[f"rate-vs-ibar-{cfg_name}"]
    rows = pin.run()
    assert len(rows) == pin.rows
    assert pins.csv_sha256(rows, tmp_path / "ibar.csv") == pin.sha256


def test_pinned_csvs_hold_at_numpy_baseline_dispatch(tmp_path):
    # the pinned bytes, not raw float bits, are the results' identity: each pin
    # must hold with numpy's SIMD dispatch cut to its baseline.  A child process
    # gets every dispatch target this numpy knows disabled (the targets found
    # here and any already disabled here), and fails unless numpy reports them
    # all as not found
    simd = np.__config__.CONFIG["SIMD Extensions"]
    targets = simd.get("found", []) + simd.get("not found", [])
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    proc = subprocess.run([sys.executable, pins.__file__],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: pin.sha256 for name, pin in pins.PINS.items()}


@pytest.mark.parametrize("name", ["rate-vs-pr", "rate-vs-ps"])
def test_fixed_power_sweeps(name):
    cfg = small_config()
    spec = ExperimentSpec(name=name, num_realizations=2, zeta_list=(0.4,),
                          i_bar_p_db_list=(8.0,), fixed_db=5.0,
                          sweep_db_list=(-5.0, 0.0, 5.0))
    rows = run_experiment(spec, cfg)
    assert len(rows) == 2 * 3
    sweep_cfg = dataclasses.replace(cfg, zeta=0.4, i_bar_p=fd.db_to_linear(8.0))
    for r in rows:
        assert r.scenario == UNCONSTRAINED
        assert r.fixed_p_db == 5.0
        assert r.sweep_p_db in (-5.0, 0.0, 5.0)
        ch = fd.sample_channels(cfg, seed=r.seed)
        fixed = fd.db_to_linear(5.0)
        swept = fd.db_to_linear(r.sweep_p_db)
        alloc = (fd.PowerAllocation(fixed, swept) if name == "rate-vs-pr"
                 else fd.PowerAllocation(swept, fixed))
        rates = [fd.rate_exact(alloc, ch, k, sweep_cfg)
                 for k in range(cfg.num_relays)]
        assert r.rate == pytest.approx(max(rates), rel=1e-12)
        assert r.relay == int(np.argmax(rates))


def test_default_sweep_axis_spans_minus10_to_cap():
    cfg = small_config(num_relays=1)
    spec = ExperimentSpec(name="rate-vs-pr", num_realizations=1,
                          zeta_list=(0.4,), i_bar_p_db_list=(8.0,))
    rows = run_experiment(spec, cfg)
    sweeps = sorted(r.sweep_p_db for r in rows)
    assert len(sweeps) == 71
    assert sweeps[0] == pytest.approx(-10.0)
    assert sweeps[-1] == pytest.approx(20.0)


def test_lemma_suite_experiment_rows():
    cfg = small_config()
    spec = ExperimentSpec(name="lemma-suite", num_realizations=1)
    rows = run_experiment(spec, cfg)
    assert {r.scenario for r in rows} == LEMMA_NAMES
    assert all(r.rate == 1.0 for r in rows)  # 1.0 == passed


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_emit_csv_round_trip(tmp_path):
    cfg = small_config()
    spec = ExperimentSpec(name="rate-vs-ibar", num_realizations=2,
                          i_bar_p_db_list=(0.0, 8.0))
    rows = run_experiment(spec, cfg)
    out = tmp_path / "rows.csv"
    emit_csv(rows, out)
    data = out.read_bytes()
    assert b"\r" not in data  # LF only
    with open(out, newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    assert records[0] == list(CSV_COLUMNS)
    assert len(records) == len(rows) + 1
    first = dict(zip(CSV_COLUMNS, records[1]))
    assert first["experiment"] == "rate-vs-ibar"
    assert first["oracle_rate"] == "" and first["gap_pct"] == ""
    assert first["rate"] == f"{rows[0].rate:.6g}"


def test_emit_csv_empty_and_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([], a)
    assert a.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"

    cfg = small_config()
    spec = ExperimentSpec(name="rate-vs-ibar", num_realizations=2,
                          i_bar_p_db_list=(4.0,))
    emit_csv(run_experiment(spec, cfg), a)
    emit_csv(run_experiment(spec, cfg), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_csv_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="cannot write CSV"):
        emit_csv([], tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def test_lemma_suite_all_pass_small_scale():
    checks = lemma_suite(small_config(num_relays=3), base_seed=0,
                         num_points=500, num_draws=10)
    assert {c.name for c in checks} == LEMMA_NAMES
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"
        assert c.checked > 0
        assert isinstance(c.detail, str) and c.detail


@pytest.mark.parametrize("points,draws,counts", [
    (100, 2, [2, 100, 100, 100, 2, 2, 10, 10]),
    (2000, 50, [50, 2000, 2000, 2000, 50, 50, 200, 200]),
    (50, 100, [100] * 8),
])
def test_lemma_suite_checked_counts(points, draws, counts):
    checks = lemma_suite(small_config(), base_seed=0, num_points=points, num_draws=draws)
    assert [c.checked for c in checks] == counts
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("points,draws,name", [
    (100, 0, "num_draws"), (-3, 5, "num_points"), (0, 1, "num_points")])
def test_lemma_suite_rejects_non_positive_sizes(points, draws, name):
    # with no draws the phase check used to pass with 0 instances checked
    with pytest.raises(ValueError, match=name):
        lemma_suite(small_config(), base_seed=0, num_points=points, num_draws=draws)


def test_lemma_suite_report_is_pinned():
    checks = lemma_suite(default_config(), 0, num_points=10_000, num_draws=100)
    assert [f"{c.name},{c.passed},{c.checked},{c.detail}" for c in checks] == [
        "phase-alignment-optimality,True,200,"
        "max rel excess over grid 0.000e+00, closed-form dev 4.642e-16",
        "noncoh-per-variable-convexity,True,10000,0 sign violations",
        "coh-per-variable-convexity,True,10000,0 sign violations",
        "noncoh-zeta0-joint-concavity,True,10000,0 semidefiniteness violations",
        "noncoh-joint-nonconvexity-witness,True,100,0 uncertified witnesses",
        "coh-joint-nonconvexity-witness,True,100,0 uncertified witnesses",
        "cross-term-bound,True,1000,max normalized slack -6.925e-01",
        "surrogate-conservatism,True,1000,coupling ratio in [0.0026, 0.7692]",
    ]


def test_lemma_suite_reports_are_pinned():
    # eight more full-scale suites pin every check's RNG order and report past base seed 0
    bases = [base + 100 * j for base in (430_000, 180_000) for j in range(4)]
    assert hashlib.sha256(identity.suite_report(bases).encode()).hexdigest() == (
        "4da330ad4379f353b6fd90bef1874e335a7223986e3aabeb667782ed5103c9a1")


def test_lemma_suite_passes_where_a_witness_sits_near_zero_power():
    # a non-coherent witness here has p_s ~ 9e-9, below the old finite-difference
    # step floor; the suite raised ValueError instead of reporting
    checks = lemma_suite(harness.default_config(), 180200, num_points=10_000, num_draws=100)
    assert {c.name for c in checks} == LEMMA_NAMES
    assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

GOOD_TEXT = """\
# comment line
num_relays = 3
zeta = 0.01
p_s_max_db = 20      # dB form converts to linear
p_r_max = 100.0
i_bar_p_db = 10
var_sp_range = 0.8, 1.0
var_rp_range = 0.8, 1.0
"""


def test_parse_config_text_good():
    cfg = parse_config_text(GOOD_TEXT, "inline.cfg")
    assert cfg.num_relays == 3
    assert cfg.zeta == 0.01
    assert cfg.p_s_max == pytest.approx(100.0)
    assert cfg.p_r_max == 100.0
    assert cfg.i_bar_p == pytest.approx(10.0)
    assert cfg.var_sp_range == (0.8, 1.0)


@pytest.mark.parametrize("text,fragment", [
    ("num_relays = 2\nwhatever = 1\n", "inline.cfg:2: unknown key 'whatever'"),
    ("zeta 0.01\n", "inline.cfg:1: expected 'key = value'"),
    ("zeta = 0.01\nzeta_db = -30\n", "inline.cfg:2: duplicate key 'zeta'"),
    ("num_relays = 2.5\n", "inline.cfg:1: bad value for 'num_relays'"),
    ("var_sp_range = 0.8\n", "inline.cfg:1: bad value for 'var_sp_range'"),
    ("var_sp_range_db = 1, 2\n", "inline.cfg:1: bad value"),
    ("num_relays_db = 3\n", "inline.cfg:1: bad value"),
    ("num_relays = 2\n", "incomplete config"),
    ("num_relays = 2\nzeta = -1\np_s_max = 1\np_r_max = 1\ni_bar_p = 1\n",
     "inline.cfg: "),
])
def test_parse_config_text_errors(text, fragment):
    with pytest.raises(fd.ConfigError) as err:
        parse_config_text(text, "inline.cfg")
    assert fragment in str(err.value)


def test_load_config(tmp_path):
    p = tmp_path / "net.cfg"
    p.write_text(GOOD_TEXT, encoding="utf-8")
    cfg = load_config(p)
    assert cfg.num_relays == 3
    with pytest.raises(fd.ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_shipped_configs_parse():
    for name, relays in (("stock8.cfg", 8), ("single-relay.cfg", 1),
                         ("strong-leakage.cfg", 10)):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.num_relays == relays


def test_default_config():
    cfg = default_config()
    assert cfg.num_relays == 8
    assert cfg.zeta == 0.001
    assert cfg.p_s_max == pytest.approx(fd.db_to_linear(20.0))
    assert cfg.i_bar_p == pytest.approx(fd.db_to_linear(10.0))
    assert default_config(num_relays=3).num_relays == 3
