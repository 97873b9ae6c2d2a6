import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdrelay as fd
from fdrelay import COHERENT, HD_BASELINE, NONCOHERENT, harness, phase, solver

import identity

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _log10_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def cap_slack(config):
    return config.i_bar_p * (1 + 1e-9) + 1e-12


def box_maximizer(channels, k, config):
    """(P_s, p_r*): the rate rises in p_s, and at p_s = P_s it falls in the convex
    phi = c0 + c2 p_r + c1/p_r, least at p_r* = min(P_r, sqrt(c1/c2)); so no point
    of the power box rates higher."""
    c2 = channels.hrd2[k] * fd.zeta_hat(channels, k, config)
    c1 = config.sigma2_dest * (config.p_s_max * channels.hsr2[k] + config.sigma2_relay)
    return fd.PowerAllocation(config.p_s_max,
                              min(config.p_r_max, math.sqrt(c1 / c2) if c2 > 0.0 else math.inf))


def interference(scenario, alloc, channels, k, config):
    """The scenario's exact constraint value; per-slot maximum for half duplex."""
    if scenario == NONCOHERENT:
        return fd.interference_noncoh(alloc, channels, k, config)
    if scenario == COHERENT:
        return fd.interference_coh(alloc, channels, k, config)
    return max(abs(channels.h_sp) ** 2 * alloc.p_s,
               abs(channels.h_rp[k]) ** 2 * alloc.p_r)


# ---------------------------------------------------------------------------
# scenario names
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alias,canonical", [
    ("noncoh", NONCOHERENT), ("non-coherent", NONCOHERENT),
    ("NONCOHERENT", NONCOHERENT), ("coh", COHERENT), ("Coherent", COHERENT),
    ("hd", HD_BASELINE), ("half-duplex", HD_BASELINE),
])
def test_scenario_aliases(alias, canonical, stock_channels, stock_config):
    res = fd.alternate_optimize(stock_channels, 0, stock_config, alias)
    assert res.scenario == canonical


def test_unknown_scenario_rejected(stock_channels, stock_config):
    with pytest.raises(ValueError, match="scenario"):
        fd.alternate_optimize(stock_channels, 0, stock_config, "telepathic")


# ---------------------------------------------------------------------------
# envelope solver behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", [NONCOHERENT, COHERENT])
def test_traces_rates_feasibility(scenario, stock_config):
    for seed in range(8):
        channels = fd.sample_channels(stock_config, seed=seed)
        for k in range(stock_config.num_relays):
            res = fd.alternate_optimize(channels, k, stock_config, scenario)
            assert res.rate == pytest.approx(
                fd.rate_exact(res.alloc, channels, k, stock_config), rel=1e-12)
            assert 0.0 <= res.alloc.p_s <= stock_config.p_s_max * (1 + 1e-12)
            assert 0.0 <= res.alloc.p_r <= stock_config.p_r_max * (1 + 1e-12)
            i = (fd.interference_noncoh if scenario == NONCOHERENT
                 else fd.interference_coh)(res.alloc, channels, k, stock_config)
            assert i <= cap_slack(stock_config) * (1 + 1e-9)
            assert res.iterations == (2 if scenario == COHERENT else 0)
            assert isinstance(res.converged, bool)


@pytest.mark.parametrize("scenario", [NONCOHERENT, COHERENT, HD_BASELINE])
def test_solver_matches_lattice_oracle(scenario, stock_config):
    for seed in range(6):
        channels = fd.sample_channels(stock_config, seed=30 + seed)
        res = fd.alternate_optimize(channels, 0, stock_config, scenario)
        oracle = fd.brute_force(channels, 0, stock_config, scenario, grid_n=201)
        assert res.rate >= oracle.rate * (1 - 0.01)


def test_warm_start_lower_bounds_result(stock_config):
    for seed in range(6):
        channels = fd.sample_channels(stock_config, seed=60 + seed)
        oracle = fd.brute_force(channels, 0, stock_config, NONCOHERENT)
        res = fd.alternate_optimize(channels, 0, stock_config, NONCOHERENT,
                                    warm_start=oracle.alloc)
        assert res.rate >= oracle.rate - 1e-9


def test_zero_interference_budget(stock_channels):
    cfg = fd.NetworkConfig(num_relays=4, zeta=0.001, p_s_max=100.0,
                           p_r_max=100.0, i_bar_p=0.0)
    for scenario in (NONCOHERENT, COHERENT, HD_BASELINE):
        res = fd.alternate_optimize(stock_channels, 0, cfg, scenario)
        assert res.alloc.p_s == 0.0 and res.alloc.p_r == 0.0
        assert res.rate == 0.0 and res.converged


def test_unlimited_cap_solves_to_power_box_optimum():
    # i_bar_p = inf means no interference cap: every scenario then solves the
    # power box alone, where the rate rises in p_s, so p_s sits at its cap and
    # p_r at the best point of the top edge (interior under strong leakage)
    base = harness.load_config(CONFIG_DIR / "strong-leakage.cfg")
    edge = np.linspace(0.0, base.p_r_max, 4097)
    for zeta in (0.001, base.zeta):
        cfg = dataclasses.replace(base, zeta=zeta, i_bar_p=math.inf)
        channels = fd.sample_channels(cfg, seed=3)
        for scenario in (NONCOHERENT, COHERENT, HD_BASELINE):
            res = fd.alternate_optimize(channels, 0, cfg, scenario)
            assert res.alloc.p_s == cfg.p_s_max
            rate_at = fd.rate_hd if scenario == HD_BASELINE else fd.rate_exact
            best_edge = max(rate_at(fd.PowerAllocation(cfg.p_s_max, float(p)),
                                    channels, 0, cfg) for p in edge)
            assert res.rate >= best_edge - 1e-9
            assert res.rate >= fd.brute_force(channels, 0, cfg, scenario).rate - 1e-9


@pytest.mark.parametrize("cfg_name", ["stock8.cfg", "single-relay.cfg",
                                      "strong-leakage.cfg"])
def test_noncoherent_closed_form_beats_dense_envelope(cfg_name):
    # the closed-form optimum of each envelope piece is at least every point
    # of a dense sqrt-spaced scan of R(ps_top(p_r), p_r), and exactly feasible
    base = harness.load_config(CONFIG_DIR / cfg_name)
    for ibar_db in (-10.0, 0.0, 5.0, 10.0, 30.0):
        for zeta in (0.0, 1e-3, 0.4):
            cfg = dataclasses.replace(base, zeta=zeta, i_bar_p=fd.db_to_linear(ibar_db))
            channels = fd.sample_channels(cfg, seed=0)
            hsp2 = abs(channels.h_sp) ** 2
            for k in range(cfg.num_relays):
                c = abs(channels.h_rp[k]) ** 2 * (1.0 + zeta)
                pr = np.linspace(0.0, math.sqrt(min(cfg.p_r_max, cfg.i_bar_p / c)),
                                 400_001) ** 2
                ps = np.clip((cfg.i_bar_p - c * pr) / hsp2, 0.0, cfg.p_s_max)
                x = pr * abs(channels.h_rd[k]) ** 2 / cfg.sigma2_dest
                y = ps * abs(channels.h_sr[k]) ** 2 / (
                    fd.zeta_hat(channels, k, cfg) * pr + cfg.sigma2_relay)
                scan = np.log2(1.0 + x * y / (1.0 + x + y))
                res = fd.alternate_optimize(channels, k, cfg, NONCOHERENT)
                # the box corner is evaluated in another operation order
                assert scan.max() <= res.rate + 4 * math.ulp(res.rate)
                assert fd.interference_noncoh(res.alloc, channels, k, cfg) <= cap_slack(cfg)
                assert 0.0 <= res.alloc.p_s <= cfg.p_s_max
                assert 0.0 <= res.alloc.p_r <= cfg.p_r_max


# ---------------------------------------------------------------------------
# zero leakage and half duplex
# ---------------------------------------------------------------------------

def test_zeta_zero_noncoh_saturates_constraint(stock_config):
    # with no loop leakage the exact rate rises in both powers, so the
    # optimum sits on the interference line or the power box
    cfg0 = dataclasses.replace(stock_config, zeta=0.0)
    for seed in range(6):
        channels = fd.sample_channels(cfg0, seed=90 + seed)
        res = fd.alternate_optimize(channels, 0, cfg0, NONCOHERENT)
        i = fd.interference_noncoh(res.alloc, channels, 0, cfg0)
        on_cap = i >= cfg0.i_bar_p * (1 - 1e-6)
        on_box = (res.alloc.p_s >= cfg0.p_s_max * (1 - 1e-6)
                  and res.alloc.p_r >= cfg0.p_r_max * (1 - 1e-6))
        assert on_cap or on_box
        oracle = fd.brute_force(channels, 0, cfg0, NONCOHERENT, grid_n=301)
        assert res.rate >= oracle.rate - 1e-9


def test_zeta_zero_coherent_band_solver(stock_config):
    cfg0 = dataclasses.replace(stock_config, zeta=0.0)
    for seed in range(6):
        channels = fd.sample_channels(cfg0, seed=120 + seed)
        res = fd.alternate_optimize(channels, 0, cfg0, COHERENT)
        i = fd.interference_coh(res.alloc, channels, 0, cfg0)
        assert i <= cap_slack(cfg0) * (1 + 1e-9)
        oracle = fd.brute_force(channels, 0, cfg0, COHERENT, grid_n=301)
        assert res.rate >= oracle.rate - 1e-9


def test_hd_baseline_hits_decoupled_corner(stock_channels, stock_config):
    res = fd.alternate_optimize(stock_channels, 0, stock_config, HD_BASELINE)
    hsp2 = abs(stock_channels.h_sp) ** 2
    hrp2 = abs(stock_channels.h_rp[0]) ** 2
    assert res.alloc.p_s == pytest.approx(
        min(stock_config.p_s_max, stock_config.i_bar_p / hsp2), rel=1e-6)
    assert res.alloc.p_r == pytest.approx(
        min(stock_config.p_r_max, stock_config.i_bar_p / hrp2), rel=1e-6)
    assert res.rate == pytest.approx(
        fd.rate_hd(res.alloc, stock_channels, 0, stock_config), rel=1e-12)
    oracle = fd.brute_force(stock_channels, 0, stock_config, HD_BASELINE)
    assert res.rate >= oracle.rate - 1e-9


# ---------------------------------------------------------------------------
# oracle grid nesting, selection, network solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", [NONCOHERENT, COHERENT])
def test_brute_force_grid_nesting(scenario, stock_channels, stock_config):
    # each lattice is a refinement of the previous, so rates cannot drop
    r101 = fd.brute_force(stock_channels, 1, stock_config, scenario, grid_n=101)
    r201 = fd.brute_force(stock_channels, 1, stock_config, scenario, grid_n=201)
    r401 = fd.brute_force(stock_channels, 1, stock_config, scenario, grid_n=401)
    assert r101.rate <= r201.rate + 1e-12
    assert r201.rate <= r401.rate + 1e-12


def test_brute_force_validates_grid(stock_channels, stock_config):
    with pytest.raises(ValueError):
        fd.brute_force(stock_channels, 0, stock_config, NONCOHERENT, grid_n=1)


def _masked_lattice_oracle(channels, k, config, scenario, grid_n):
    """The oracle written out per cap: full feasibility mask, box included."""
    ps = np.linspace(0.0, config.p_s_max, grid_n)[:, None]
    pr = np.linspace(0.0, config.p_r_max, grid_n)[None, :]
    masked = np.where(solver._feasible(ps, pr, channels, k, config, scenario),
                      solver._rate_fn(channels, k, config, scenario)(ps, pr), -1.0)
    j = int(np.argmax(masked))
    return fd.PowerAllocation(ps[j // grid_n, 0], pr[0, j % grid_n]), masked.flat[j]


@pytest.mark.parametrize("grid_n", [2, 51])
@pytest.mark.parametrize("scenario", [NONCOHERENT, COHERENT, HD_BASELINE])
def test_oracle_sweep_matches_brute_force_at_each_cap(scenario, grid_n):
    config = harness.load_config(CONFIG_DIR / "stock8.cfg")
    channels = fd.sample_channels(config, seed=3)
    caps = (10.0, 0.0, 1e-12, math.inf, 10.0)  # unsorted, with a repeat
    for k in range(config.num_relays):
        swept = solver._oracle_sweep(channels, k, config, scenario, caps, grid_n)
        assert len(swept) == len(caps)
        for cap, res in zip(caps, swept):
            cfg = dataclasses.replace(config, i_bar_p=cap)
            ref = fd.brute_force(channels, k, cfg, scenario, grid_n)
            assert (res.relay, res.scenario) == (k, scenario)
            assert (res.alloc, res.rate) == (ref.alloc, ref.rate)
            assert (res.alloc, res.rate) == _masked_lattice_oracle(
                channels, k, cfg, scenario, grid_n)


@settings(max_examples=200, deadline=None)
@given(p_s_max=_log10_uniform(-9, 12), p_r_max=_log10_uniform(-9, 12),
       grid_n=st.integers(2, 1000))
def test_oracle_lattice_lies_inside_the_box(p_s_max, p_r_max, grid_n):
    # why _oracle_sweep masks the lattice by the cap alone
    cfg = fd.NetworkConfig(num_relays=1, zeta=0.001, p_s_max=p_s_max,
                           p_r_max=p_r_max, i_bar_p=math.inf)
    channels = fd.sample_channels(cfg, seed=0)
    ps = np.linspace(0.0, p_s_max, grid_n)[:, None]
    pr = np.linspace(0.0, p_r_max, grid_n)[None, :]
    assert solver._feasible(ps, pr, channels, 0, cfg, NONCOHERENT).all()


def test_select_relay_tie_break(stock_channels, stock_config):
    a = fd.alternate_optimize(stock_channels, 0, stock_config, NONCOHERENT)
    twin = fd.RelayResult(relay=1, scenario=a.scenario, alloc=a.alloc, rate=a.rate,
                          iterations=a.iterations, converged=a.converged)
    picked = fd.select_relay([a, twin])
    assert picked.selected == 0
    assert picked.best is picked.relays[0]
    assert picked.rate == a.rate
    with pytest.raises(ValueError):
        fd.select_relay([])


def test_solve_network_selection(stock_channels, stock_config):
    res = fd.solve_network(stock_channels, stock_config, NONCOHERENT)
    assert len(res.relays) == stock_config.num_relays
    rates = [r.rate for r in res.relays]
    assert res.selected == int(np.argmax(rates))
    assert res.rate == max(rates)
    assert all(r.relay == i for i, r in enumerate(res.relays))


def test_solve_network_warm_forms(stock_channels, stock_config):
    cold = fd.solve_network(stock_channels, stock_config, NONCOHERENT)
    warm = fd.solve_network(stock_channels, stock_config, NONCOHERENT, warm=cold)
    for r, c in zip(warm.relays, cold.relays):
        assert r.rate >= c.rate - 1e-9


def test_solve_network_rejects_a_warm_result_with_another_relay_count():
    cfg8 = harness.load_config(CONFIG_DIR / "stock8.cfg")
    cfg4 = dataclasses.replace(cfg8, num_relays=4)
    ch8, ch4 = fd.sample_channels(cfg8, seed=2), fd.sample_channels(cfg4, seed=2)
    warm8 = fd.solve_network(ch8, cfg8, NONCOHERENT)
    warm4 = fd.solve_network(ch4, cfg4, NONCOHERENT)
    for scenario in (NONCOHERENT, COHERENT, HD_BASELINE):
        with pytest.raises(ValueError, match="4 relays.* 8"):  # fewer relays
            fd.solve_network(ch8, cfg8, scenario, warm=warm4)
        with pytest.raises(ValueError, match="8 relays.* 4"):  # more relays
            fd.solve_network(ch4, cfg4, scenario, warm=warm8)


def test_solve_network_rejects_channels_with_another_relay_count():
    # channels and config must agree on K, or the solve would quietly use the channels'
    cfg8 = harness.load_config(CONFIG_DIR / "stock8.cfg")
    ch8 = fd.sample_channels(cfg8, seed=2)
    for scenario in (NONCOHERENT, COHERENT, HD_BASELINE):
        with pytest.raises(ValueError, match="8 relays.* 3"):
            fd.solve_network(ch8, dataclasses.replace(cfg8, num_relays=3), scenario)


@pytest.mark.parametrize("k", [-1, 8])
def test_relay_index_out_of_range_rejected(k):
    # a negative k would solve relay K + k and report it as k
    cfg = harness.load_config(CONFIG_DIR / "stock8.cfg")
    channels = fd.sample_channels(cfg, seed=2)
    for scenario in (NONCOHERENT, COHERENT, HD_BASELINE):
        with pytest.raises(ValueError, match=f"index {k} .* 8 relays"):
            fd.alternate_optimize(channels, k, cfg, scenario)
        with pytest.raises(ValueError, match=f"index {k} .* 8 relays"):
            fd.brute_force(channels, k, cfg, scenario, grid_n=5)


@pytest.mark.parametrize("scenario,p_s_max,p_r_max,i_bar_p,zeta,seed,raise_by", [
    (NONCOHERENT, 27288303.581350088, 40.14518542724135, 50883.15382975333,
     4.1020998421044635e-05, 505022069, 1e-12),
    (HD_BASELINE, 11266533.649059188, 3.2134507046322343, 247.17398224697547,
     9.293870626942605, 688006974, 1e-15),
], ids=["noncoherent", "half-duplex"])
def test_warm_chain_keeps_closed_form_sweeps_monotone(scenario, p_s_max, p_r_max, i_bar_p,
                                                      zeta, seed, raise_by):
    # the closed forms are exact optima, but a cold solve at a cap raised this
    # little falls by a few ulps; the warm point keeps the sweep monotone
    cfg = fd.NetworkConfig(num_relays=1, zeta=zeta, p_s_max=p_s_max, p_r_max=p_r_max,
                           i_bar_p=i_bar_p)
    channels = fd.sample_channels(cfg, seed=seed)
    first = fd.solve_network(channels, cfg, scenario)
    raised = dataclasses.replace(cfg, i_bar_p=i_bar_p * (1.0 + raise_by))
    assert fd.solve_network(channels, raised, scenario, warm=first).rate >= first.rate


def test_coherent_dominates_noncoherent(stock_config):
    # the coherent solve compares in the non-coherent optimum, so it can do no
    # worse wherever that allocation is coherent-feasible (it is on these draws)
    for seed in range(12):
        channels = fd.sample_channels(stock_config, seed=200 + seed)
        for k in range(stock_config.num_relays):
            nc = fd.alternate_optimize(channels, k, stock_config, NONCOHERENT)
            co = fd.alternate_optimize(channels, k, stock_config, COHERENT)
            assert co.rate >= nc.rate - 1e-6


def test_cold_coherent_solve_matches_noncoherent_without_a_cap():
    # with no cap both scenarios maximize the same rate over the power box; the
    # coherent p_r grid alone misses an optimum this far below P_r (8.15e-5
    # against 1.2972e-4 bit/s/Hz)
    cfg = fd.NetworkConfig(num_relays=1, zeta=253.7, p_s_max=0.2715, p_r_max=7.68e8,
                           i_bar_p=math.inf)
    channels = fd.sample_channels(cfg, seed=333636)
    nc = fd.alternate_optimize(channels, 0, cfg, NONCOHERENT)
    co = fd.alternate_optimize(channels, 0, cfg, COHERENT)
    assert co.rate == pytest.approx(nc.rate, rel=1e-12)


def test_coherent_can_trail_noncoherent_when_its_optimum_is_infeasible():
    # phase alignment does not only relax the constraint: the relay's
    # forwarded phasor carries a fixed-phase noise proxy, so the aligned
    # interference (|a| - |b|)^2 can exceed the non-coherent sum of powers
    cfg = harness.load_config(CONFIG_DIR / "single-relay.cfg")  # ibar = 10 dB
    channels = fd.sample_channels(cfg, seed=220019)
    nc = fd.alternate_optimize(channels, 0, cfg, NONCOHERENT)
    co = fd.alternate_optimize(channels, 0, cfg, COHERENT, warm_start=nc.alloc)
    assert fd.interference_coh(nc.alloc, channels, 0, cfg) > cap_slack(cfg)
    assert fd.interference_coh(co.alloc, channels, 0, cfg) <= cap_slack(cfg)
    assert co.rate < nc.rate
    assert co.rate >= fd.brute_force(channels, 0, cfg, COHERENT, grid_n=201).rate


@pytest.mark.parametrize("cfg_name", ["stock8.cfg", "strong-leakage.cfg"])
def test_coherent_solve_returns_a_feasible_box_maximizer(cfg_name):
    # where the power-box maximizer meets the exact coherent constraint it is the
    # optimum, and the solve returns it without a search
    base = harness.load_config(CONFIG_DIR / cfg_name)
    certified = 0
    for seed, ibar_db, zeta in itertools.product(range(3), (0.0, 10.0, 30.0),
                                                 (0.0, 1e-3, 0.4)):
        cfg = dataclasses.replace(base, zeta=zeta, i_bar_p=fd.db_to_linear(ibar_db))
        channels = fd.sample_channels(cfg, seed=seed)
        for k in range(cfg.num_relays):
            top = box_maximizer(channels, k, cfg)
            if fd.interference_coh(top, channels, k, cfg) > cap_slack(cfg):
                continue
            certified += 1
            res = fd.alternate_optimize(channels, k, cfg, COHERENT)
            assert res.alloc == top and res.iterations == 2
            assert res.rate == pytest.approx(fd.rate_exact(top, channels, k, cfg), rel=1e-12)
            assert res.rate >= fd.brute_force(channels, k, cfg, COHERENT, grid_n=201).rate
    assert certified > 0


@pytest.mark.parametrize("dead", ["h_sr", "h_rd"])
def test_coherent_relay_without_a_link_rates_zero(dead):
    base = dataclasses.replace(harness.load_config(CONFIG_DIR / "stock8.cfg"), zeta=0.4)
    channels = fd.sample_channels(base, seed=1)
    coeffs = getattr(channels, dead).copy()
    coeffs[2] = 0.0
    channels = dataclasses.replace(channels, **{dead: coeffs})
    for ibar_db in (-10.0, 10.0, math.inf):  # box maximizer infeasible, then feasible
        cfg = dataclasses.replace(base, i_bar_p=fd.db_to_linear(ibar_db))
        res = fd.alternate_optimize(channels, 2, cfg, COHERENT)
        assert (res.alloc, res.rate) == (fd.PowerAllocation(0.0, 0.0), 0.0)


def test_feasible_box_maximizer_beats_the_search():
    # stock8 at seed 6, zeta = 0.4, relay 6: the search's point rated
    # 5.091376960971584 at both caps; the box maximizer (100, 37.1052...) is
    # coherent-feasible at 0 dB already
    base = dataclasses.replace(harness.load_config(CONFIG_DIR / "stock8.cfg"), zeta=0.4)
    channels = fd.sample_channels(base, seed=6)
    for ibar_db in (0.0, 10.0):
        cfg = dataclasses.replace(base, i_bar_p=fd.db_to_linear(ibar_db))
        res = fd.alternate_optimize(channels, 6, cfg, COHERENT)
        assert res.alloc == box_maximizer(channels, 6, cfg)
        assert res.rate >= 5.091376961585702


def test_coherent_thin_feasible_band():
    # at a near-zero cap the coherent feasible set is a thin band around
    # |a| = |b|; bracketing the gap's sign change finds it, a grid mask does not
    cfg = dataclasses.replace(harness.load_config(CONFIG_DIR / "stock8.cfg"),
                              i_bar_p=1e-12)
    channels = fd.sample_channels(cfg, seed=0)
    for k in range(3):
        res = fd.alternate_optimize(channels, k, cfg, COHERENT)
        assert res.rate > 0.0
        assert fd.interference_coh(res.alloc, channels, k, cfg) <= cap_slack(cfg)
        assert res.rate >= fd.brute_force(channels, k, cfg, COHERENT).rate


def test_coherent_top_edge_kink():
    # the optimum sits at p_s = P_s just before that edge turns infeasible as
    # p_r grows; a 2,000,001-point scan of p_r at p_s = P_s finds 3.838616
    cfg = dataclasses.replace(harness.load_config(CONFIG_DIR / "single-relay.cfg"),
                              i_bar_p=1.0)
    channels = fd.sample_channels(cfg, seed=220036)
    nc = fd.alternate_optimize(channels, 0, cfg, NONCOHERENT)
    co = fd.alternate_optimize(channels, 0, cfg, COHERENT, warm_start=nc.alloc)
    assert co.rate >= 3.838616
    assert fd.interference_coh(co.alloc, channels, 0, cfg) <= cap_slack(cfg)
    assert co.rate == pytest.approx(fd.rate_exact(co.alloc, channels, 0, cfg), rel=1e-12)


def test_coherent_columns_ranked_by_chord_root():
    # near p_r = P_r the envelope rises more slowly than the column scans' p_s
    # grid step, so ranking columns by their bracket's lower end picked
    # p_r = 99.655 (0.121877); a dense scan of p_r in [90, 100] finds 0.122056
    cfg = dataclasses.replace(harness.load_config(CONFIG_DIR / "stock8.cfg"),
                              i_bar_p=fd.db_to_linear(-10.0))
    channels = fd.sample_channels(cfg, seed=3)
    res = fd.alternate_optimize(channels, 3, cfg, COHERENT)
    assert res.rate >= 0.122061
    assert fd.interference_coh(res.alloc, channels, 3, cfg) <= cap_slack(cfg)


def test_stock8_seed2_relay1_coherent_optimum():
    # one of ROADMAP item 4's coherent targets: 3.018516 bit/s/Hz at
    # (p_s, p_r) = (54.5226, 100.0), exactly feasible
    cfg = dataclasses.replace(harness.load_config(CONFIG_DIR / "stock8.cfg"),
                              i_bar_p=fd.db_to_linear(10.0))
    channels = fd.sample_channels(cfg, seed=2)
    res = fd.alternate_optimize(channels, 1, cfg, COHERENT)
    assert res.rate >= 3.018516
    assert fd.interference_coh(res.alloc, channels, 1, cfg) <= cfg.i_bar_p
    assert res.rate == pytest.approx(fd.rate_exact(res.alloc, channels, 1, cfg), rel=1e-12)


@pytest.mark.parametrize("p_s_max,p_r_max,i_bar_p,zeta,seed,dense", [
    (1.037e8, 0.02268, 1.913e-6, 1.571, 749947401, 2.770227e-3),
    (1.698e7, 1.096e-7, 3.301e-9, 6.078, 554799187, 7.367880e-15),
    (37.2831, 3.56907e-8, 1.14261e-3, 777626.8, 475310, 3.821367e-12),
])
def test_coherent_column_scan_capped_far_below_p_s(p_s_max, p_r_max, i_bar_p, zeta,
                                                   seed, dense):
    # every feasible p_s lies far below P_s, so column scans over [0, P_s] put
    # all their points in the first cell (4.36e-9, 0 and 3.7973e-12 bit/s/Hz).
    # `dense` is the best of 4,096 sqrt-spaced p_r columns, each bisected to its
    # top feasible p_s and re-checked through the public functions
    cfg = fd.NetworkConfig(num_relays=1, zeta=zeta, p_s_max=p_s_max, p_r_max=p_r_max,
                           i_bar_p=i_bar_p)
    channels = fd.sample_channels(cfg, seed=seed)
    res = fd.alternate_optimize(channels, 0, cfg, COHERENT)
    assert fd.interference_coh(res.alloc, channels, 0, cfg) <= i_bar_p
    assert res.rate >= dense * (1.0 - 1e-6)


@pytest.mark.parametrize("cfg_name", ["stock8.cfg", "strong-leakage.cfg"])
def test_coherent_relay_skipping_keeps_the_selection(cfg_name):
    # a relay is skipped only when its certified bound is below a rate already
    # solved, so the selection and its rate equal those of solving every relay
    base = harness.load_config(CONFIG_DIR / cfg_name)
    ibars = [fd.db_to_linear(db) for db in (-10.0, 0.0, 10.0, 30.0)] + [math.inf]
    for seed in range(30):
        channels = fd.sample_channels(base, seed=seed)
        for i_bar_p, zeta in itertools.product(ibars, (0.0, 1e-3, 0.4)):
            cfg = dataclasses.replace(base, i_bar_p=i_bar_p, zeta=zeta)
            res = fd.solve_network(channels, cfg, COHERENT)
            every = fd.select_relay(fd.alternate_optimize(channels, k, cfg, COHERENT)
                                    for k in range(cfg.num_relays))
            assert (res.selected, res.rate) == (every.selected, every.rate), (seed, cfg)


def test_skipped_relays_keep_their_best_feasible_fallback():
    base = harness.load_config(CONFIG_DIR / "stock8.cfg")
    skipped = 0
    for seed in range(4):
        channels = fd.sample_channels(base, seed=seed)
        warm = None
        for ibar_db in (0.0, 5.0, 10.0):
            cfg = dataclasses.replace(base, i_bar_p=fd.db_to_linear(ibar_db))
            res = fd.solve_network(channels, cfg, COHERENT, warm=warm)
            for k, r in enumerate(res.relays):
                if r.iterations:  # solved, not skipped
                    continue
                skipped += 1
                assert fd.interference_coh(r.alloc, channels, k, cfg) <= cap_slack(cfg)
                assert r.rate == pytest.approx(fd.rate_exact(r.alloc, channels, k, cfg),
                                               rel=1e-12)
                points = [fd.PowerAllocation(*p)
                          for p in solver._noncoherent_points(channels, k, cfg)]
                points += [warm.relays[k].alloc] if warm else []
                for p in points:
                    if fd.interference_coh(p, channels, k, cfg) <= cfg.i_bar_p:
                        assert r.rate >= fd.rate_exact(p, channels, k, cfg) * (1.0 - 1e-12)
            warm = res
    assert skipped > 0


@settings(max_examples=40, deadline=None)
@given(p_s_max=_log10_uniform(-9, 9), p_r_max=_log10_uniform(-9, 9),
       i_bar_p=_log10_uniform(-12, 6),
       zeta=st.one_of(st.just(0.0), _log10_uniform(-6, 6)),
       scenario=st.sampled_from([NONCOHERENT, COHERENT, HD_BASELINE]),
       seed=st.integers(0, 10_000))
def test_envelope_invariants_over_extreme_ranges(p_s_max, p_r_max, i_bar_p, zeta,
                                                 scenario, seed):
    cfg = fd.NetworkConfig(num_relays=1, zeta=zeta, p_s_max=p_s_max,
                           p_r_max=p_r_max, i_bar_p=i_bar_p)
    channels = fd.sample_channels(cfg, seed=seed)
    res = fd.alternate_optimize(channels, 0, cfg, scenario)
    assert interference(scenario, res.alloc, channels, 0, cfg) <= cap_slack(cfg)
    if scenario == COHERENT:
        assert solver._coherent_bound(channels, 0, cfg) >= res.rate * (1.0 - 1e-9)
        top = box_maximizer(channels, 0, cfg)
        if interference(scenario, top, channels, 0, cfg) <= cap_slack(cfg):
            assert res.rate >= fd.rate_exact(top, channels, 0, cfg) * (1.0 - 1e-15)
    assert res.rate >= fd.brute_force(channels, 0, cfg, scenario, grid_n=51).rate - 1e-9
    wider = dataclasses.replace(cfg, i_bar_p=10.0 * i_bar_p)
    grown = fd.alternate_optimize(channels, 0, wider, scenario, warm_start=res.alloc)
    assert grown.rate >= res.rate - 1e-12 * max(1.0, res.rate)


@pytest.mark.filterwarnings("error")
def test_reported_allocations_lie_in_the_closed_power_box():
    # the coherent search squares sqrt-coordinates, which can land an ulp above
    # P_s or P_r, and a caller's warm point can lie just outside the box; what a
    # solve reports must lie in the box with no slack
    cfg = fd.NetworkConfig(num_relays=1, zeta=0.001, p_s_max=100.0, p_r_max=100.0,
                           i_bar_p=1e9)  # the box corner is feasible in every scenario
    channels = fd.sample_channels(cfg, seed=3)
    case = fd.alternate_optimize(channels, 0, cfg, NONCOHERENT,
                                 warm_start=fd.PowerAllocation(100 * (1 + 5e-13), 100))
    assert case.alloc.p_s == 100.0
    instances = [(channels, cfg), *identity.extreme_instances(300)]
    outside = []
    for i, (channels, cfg) in enumerate(instances):
        ps_max, pr_max = cfg.p_s_max, cfg.p_r_max
        ulp = (np.nextafter(ps_max, math.inf), np.nextafter(pr_max, math.inf))
        rel = (ps_max * (1 + 5e-13), pr_max * (1 + 5e-13))
        warm = [None] + [fd.PowerAllocation(*p) for up in (ulp, rel)
                         for p in ((up[0], pr_max), (ps_max, up[1]))]
        for scenario, w in itertools.product((NONCOHERENT, COHERENT, HD_BASELINE), warm):
            res = fd.alternate_optimize(channels, 0, cfg, scenario, warm_start=w)
            warm_net = None if w is None else fd.SolveResult(
                scenario, (dataclasses.replace(res, alloc=w),), 0)
            net = fd.solve_network(channels, cfg, scenario, warm=warm_net)
            for p in (res.alloc, net.best.alloc):
                if not (0.0 <= p.p_s <= ps_max and 0.0 <= p.p_r <= pr_max):
                    outside.append((i, scenario, w, p.p_s - ps_max, p.p_r - pr_max))
    assert outside == []


# ---------------------------------------------------------------------------
# the bracket scans
# ---------------------------------------------------------------------------

def _bottom_up_shrink(gap, columns, lo, hi, root, points):
    """``solver._shrink`` as a scan from the bracket's bottom up: the last point
    with f <= 0, found by an argmax over the reversed row."""
    t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, points)
    g = gap(t, columns)
    f = np.copysign(1.0, g[:, -1:]) * g - root
    j = points - 1 - np.argmax(f[:, ::-1] <= 0.0, axis=1)
    rows, nxt = np.arange(len(lo)), np.minimum(j + 1, points - 1)
    return t[rows, j], t[rows, nxt], f[rows, j], f[rows, nxt]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cfg_name", ["stock8.cfg", "strong-leakage.cfg"])
def test_top_down_shrink_equals_the_bottom_up_scan(cfg_name):
    # the search scans each bracket from the top down; it must keep exactly the
    # brackets and f values of the bottom-up scan, closed brackets included
    base = harness.load_config(CONFIG_DIR / cfg_name)
    for seed, zeta, cap_db in itertools.product(range(6), (0.0, 1e-3, 0.4),
                                                (-10.0, 0.0, 10.0, math.inf)):
        cfg = dataclasses.replace(base, zeta=zeta, i_bar_p=fd.db_to_linear(cap_db))
        channels = fd.sample_channels(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        k, n = seed % cfg.num_relays, 129
        top = math.sqrt(cfg.p_s_max)
        columns = phase._scan_columns(rng.uniform(0.0, cfg.p_r_max, (n, 1)), channels, k, cfg)
        lo = rng.uniform(0.0, top, n) * (rng.random(n) < 0.8)
        hi = np.where(rng.random(n) < 0.2, lo, rng.uniform(lo, top))  # some closed

        def scan(t, c):
            return phase._scan_gap(t, c, channels, k)

        line = (rng.choice([-1.0, 1.0], (n, 1)), lo[:, None])  # either sign, 0 at lo
        for gap, cols, root in [(scan, columns, math.sqrt(cfg.i_bar_p)),
                                (scan, columns, 0.0),  # no feasible point
                                (lambda t, c: c[0] * (t - c[1]), line, 0.0)]:  # f = 0 at lo
            for points in (17, 33, 257):
                got = solver._shrink(gap, cols, lo, hi, root, points)
                want = _bottom_up_shrink(gap, cols, lo, hi, root, points)
                assert all(np.all(a == b) for a, b in zip(got, want)), (seed, zeta, cap_db)


def test_linspace_replica_equals_numpy_linspace():
    rng = np.random.default_rng(5)
    ends = 10.0 ** rng.uniform(-9, 9, (200, 2)) * rng.choice([-1.0, 1.0], (200, 2))
    ends[::4, 0] = 0.0
    ends[1::4, 1] = ends[1::4, 0]  # a == b
    for (a, b), n in itertools.product(ends.tolist(), (33, 129, 257)):
        assert np.all(solver._linspace(a, b, n) == np.linspace(a, b, n)), (a, b, n)


@st.composite
def _networks(draw):
    """Up to 4 relays over the extreme ranges; each relay may have a zero
    |h_sr|, |h_rd| or |h_rp|, and |h_sp| may be zero."""
    cfg = fd.NetworkConfig(num_relays=draw(st.integers(1, 4)),
                           zeta=draw(st.one_of(st.just(0.0), _log10_uniform(-6, 6))),
                           p_s_max=draw(_log10_uniform(-9, 9)),
                           p_r_max=draw(_log10_uniform(-9, 9)),
                           i_bar_p=draw(st.one_of(st.just(math.inf), _log10_uniform(-12, 9))))
    channels = fd.sample_channels(cfg, seed=draw(st.integers(0, 10_000)))
    coeffs = {name: getattr(channels, name).copy() for name in ("h_sr", "h_rd", "h_rp")}
    for k in range(cfg.num_relays):
        name = draw(st.sampled_from([None, "h_sr", "h_rd", "h_rp"]))
        if name:
            coeffs[name][k] = 0.0
    h_sp = 0j if draw(st.booleans()) and draw(st.booleans()) else channels.h_sp
    return dataclasses.replace(channels, h_sp=h_sp, **coeffs), cfg


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(network=_networks())
def test_batched_network_solve_equals_each_relay_alone(network):
    channels, cfg = network

    def bits(r):
        return tuple(float(v).hex() for v in (r.alloc.p_s, r.alloc.p_r, r.rate))

    lower = dataclasses.replace(cfg, i_bar_p=cfg.i_bar_p / 10.0)
    for scenario in (NONCOHERENT, HD_BASELINE):
        warm = fd.solve_network(channels, lower, scenario)
        res = fd.solve_network(channels, cfg, scenario, warm=warm)
        for k, r in enumerate(res.relays):
            alone = fd.alternate_optimize(channels, k, cfg, scenario,
                                          warm_start=warm.relays[k].alloc)
            assert (r.relay, r.iterations, bits(r)) == (k, 0, bits(alone))
            assert interference(scenario, r.alloc, channels, k, cfg) <= cap_slack(cfg)
    res = fd.solve_network(channels, cfg, COHERENT)
    for k, r in enumerate(res.relays):  # skipped relays (iterations == 0) included
        assert fd.interference_coh(r.alloc, channels, k, cfg) <= cap_slack(cfg)
