import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import fdrelay as fd
from fdrelay import harness, phase

import identity

TWO_PI = 2.0 * math.pi
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def random_instance(seed, config):
    rng = np.random.default_rng(seed)
    channels = fd.sample_channels(config, seed=seed)
    k = int(rng.integers(config.num_relays))
    alloc = fd.PowerAllocation(float(rng.uniform(0.05, config.p_s_max)),
                               float(rng.uniform(0.05, config.p_r_max)))
    return channels, k, alloc


def test_decompose_matches_hand_construction(stock_channels, stock_config):
    alloc = fd.PowerAllocation(5.0, 13.0)
    k = 2
    dec = fd.decompose(alloc, stock_channels, k, stock_config)
    zeta = stock_config.zeta
    a = (stock_channels.h_sp * math.sqrt(alloc.p_s)
         + stock_channels.h_rp[k] * math.sqrt(zeta * alloc.p_r))
    g = fd.relay_gain(alloc, stock_channels, k, stock_config)
    noise = math.sqrt(stock_config.sigma2_relay) * (1 + 1j) / math.sqrt(2.0)
    d = (stock_channels.h_sr[k] * math.sqrt(alloc.p_s)
         + stock_channels.h_rr[k] * math.sqrt(zeta * alloc.p_r) + noise)
    b = d * g * stock_channels.h_rp[k] * math.sqrt(alloc.p_r)
    assert dec.a == pytest.approx(a, rel=1e-12)
    assert dec.b == pytest.approx(b, rel=1e-12)
    assert dec.phi_a == pytest.approx(np.angle(a))
    assert dec.phi_b == pytest.approx(np.angle(b))


def test_aligned_level_is_closest_approach(stock_config):
    for seed in range(40):
        channels, k, alloc = random_instance(seed, stock_config)
        dec = fd.decompose(alloc, channels, k, stock_config)
        sol = fd.optimal_phase(dec)
        assert sol.i_coh == pytest.approx((abs(dec.a) - abs(dec.b)) ** 2,
                                          rel=1e-12, abs=1e-15)
        assert 0.0 <= sol.phi_opt < TWO_PI


def test_aligned_phase_beats_dense_grid(stock_config):
    phis = np.linspace(0.0, TWO_PI, 2001, endpoint=False)
    for seed in range(25):
        channels, k, alloc = random_instance(100 + seed, stock_config)
        dec = fd.decompose(alloc, channels, k, stock_config)
        sol = fd.optimal_phase(dec)
        sweep = fd.interference_coh_at_phase(alloc, channels, k, stock_config, phis)
        assert sol.i_coh <= sweep.min() + 1e-9 * max(1.0, sweep.min())


def test_phase_sweep_extremes(stock_channels, stock_config):
    alloc = fd.PowerAllocation(7.0, 21.0)
    dec = fd.decompose(alloc, stock_channels, 0, stock_config)
    sol = fd.optimal_phase(dec)
    at_opt = fd.interference_coh_at_phase(alloc, stock_channels, 0, stock_config,
                                          sol.phi_opt)
    worst = fd.interference_coh_at_phase(alloc, stock_channels, 0, stock_config,
                                         (sol.phi_opt + math.pi) % TWO_PI)
    assert at_opt == pytest.approx(sol.i_coh, rel=1e-12)
    assert worst == pytest.approx((abs(dec.a) + abs(dec.b)) ** 2, rel=1e-12)


def test_interference_coh_uses_aligned_phase(stock_channels, stock_config):
    alloc = fd.PowerAllocation(2.0, 3.0)
    dec = fd.decompose(alloc, stock_channels, 1, stock_config)
    assert fd.interference_coh(alloc, stock_channels, 1, stock_config) == \
        pytest.approx((abs(dec.a) - abs(dec.b)) ** 2, rel=1e-12)


def test_delay_scaling():
    cfg = fd.NetworkConfig(num_relays=1, zeta=0.01, p_s_max=10.0, p_r_max=10.0,
                           i_bar_p=1.0, sampling_freq=2e6)
    ch = fd.sample_channels(cfg, seed=1)
    dec = fd.decompose(fd.PowerAllocation(1.0, 1.0), ch, 0, cfg)
    default = fd.optimal_phase(dec)            # fs defaults to 1
    scaled = fd.optimal_phase(dec, sampling_freq=cfg.sampling_freq)
    assert default.delay == pytest.approx(default.phi_opt / TWO_PI)
    assert scaled.delay == pytest.approx(default.phi_opt / (TWO_PI * 2e6))


def test_degenerate_decomposition_uses_pi_convention():
    # no path to the protected receiver at all: A = B = 0
    ch = fd.ChannelRealization(seed=0, h_sp=0j, h_sd=1 + 0j,
                               h_sr=np.array([1 + 0j]), h_rd=np.array([1 + 0j]),
                               h_rp=np.array([0j]), h_rr=np.array([1 + 0j]),
                               var_sp=1.0, var_rp=np.ones(1))
    cfg = fd.NetworkConfig(num_relays=1, zeta=0.01, p_s_max=10.0, p_r_max=10.0,
                           i_bar_p=1.0)
    dec = fd.decompose(fd.PowerAllocation(1.0, 1.0), ch, 0, cfg)
    sol = fd.optimal_phase(dec)
    assert dec.a == 0j and dec.b == 0j
    assert sol.phi_opt == pytest.approx(math.pi)
    assert sol.i_coh == 0.0


# ---------------------------------------------------------------------------
# convexified constraint
# ---------------------------------------------------------------------------

def test_frozen_constraint_construction(stock_channels, stock_config):
    ref = fd.PowerAllocation(4.0, 16.0)
    k = 3
    frozen = fd.freeze_constraint(ref, stock_channels, k, stock_config)
    dec = fd.decompose(ref, stock_channels, k, stock_config)
    sol = fd.optimal_phase(dec)
    psi = dec.phi_b - sol.phi_opt
    hrp = stock_channels.h_rp[k]
    f1 = hrp.real * math.sqrt(stock_config.zeta) + math.sqrt(3) * abs(hrp) * math.cos(psi)
    f2 = hrp.imag * math.sqrt(stock_config.zeta) + math.sqrt(3) * abs(hrp) * math.sin(psi)
    assert frozen.f1 == pytest.approx(f1, rel=1e-12)
    assert frozen.f2 == pytest.approx(f2, rel=1e-12)
    assert frozen.frozen_phi == pytest.approx(sol.phi_opt)


def test_convexified_interference_is_quadratic_psd(stock_channels, stock_config):
    ref = fd.PowerAllocation(4.0, 16.0)
    for k in range(stock_config.num_relays):
        frozen = fd.freeze_constraint(ref, stock_channels, k, stock_config)
        q_ss, q_sr, q_rr = fd.convexified_curvatures(stock_channels, k, frozen)
        # Cauchy-Schwarz makes the quadratic's Hessian PSD exactly
        assert q_ss >= 0.0 and q_rr >= 0.0
        assert q_ss * q_rr - q_sr ** 2 >= -1e-12 * max(1.0, q_ss * q_rr)
        # quadratic in sqrt powers: doubling both sqrt powers quadruples it
        v1 = fd.convexified_interference((1.3, 2.1), stock_channels, k,
                                         stock_config, frozen)
        v2 = fd.convexified_interference((2.6, 4.2), stock_channels, k,
                                         stock_config, frozen)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_frozen_quadratic_closed_form_at_reference(stock_config):
    # the frozen form swaps the relayed amplitude for its bound sqrt(3)|h_rp|
    # anti-aligned with the direct component, so at the reference point it
    # collapses to (|A| - sqrt(3)|h_rp| sqrt(pr))^2; the bound itself must
    # dominate the true relayed amplitude |B|
    for seed in range(30):
        channels, k, alloc = random_instance(300 + seed, stock_config)
        frozen = fd.freeze_constraint(alloc, channels, k, stock_config)
        dec = fd.decompose(alloc, channels, k, stock_config)
        sq = (math.sqrt(alloc.p_s), math.sqrt(alloc.p_r))
        sur = fd.convexified_interference(sq, channels, k, stock_config, frozen)
        bound = math.sqrt(3.0) * abs(channels.h_rp[k]) * sq[1]
        assert abs(dec.b) <= bound * (1 + 1e-12)
        assert sur == pytest.approx((abs(dec.a) - bound) ** 2,
                                    rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# the exact gap kernel
# ---------------------------------------------------------------------------

def _one_shot_amplitudes(ps, pr, channels, k, config):
    """|a| and |b| of the signed gap, written as one formula."""
    ps = np.asarray(ps, dtype=float)
    pr = np.asarray(pr, dtype=float)
    hrp = channels.h_rp[k]
    sps = np.sqrt(ps)
    szr = np.sqrt(config.zeta * pr)
    a = channels.h_sp * sps + hrp * szr
    g = 1.0 / np.sqrt(ps * channels.hsr2[k] + config.zeta * pr * channels.hrr2[k]
                      + config.sigma2_relay)
    noise = math.sqrt(config.sigma2_relay) * (1.0 + 1.0j) / math.sqrt(2.0)
    d = channels.h_sr[k] * sps + channels.h_rr[k] * szr + noise
    b = d * g * hrp * np.sqrt(pr)
    return np.abs(a), np.abs(b)


def _one_shot_gap(ps, pr, channels, k, config):
    """The signed gap |a| - |b| written as one formula: the reference for the
    kernel's p_r-column and per-point halves."""
    abs_a, abs_b = _one_shot_amplitudes(ps, pr, channels, k, config)
    return abs_a - abs_b


@pytest.mark.parametrize("cfg_name", ["stock8.cfg", "strong-leakage.cfg"])
def test_gap_halves_match_the_one_shot_formula(cfg_name):
    # _gap_at is the exact gap behind _interference_coh_vals, which accepts every
    # coherent point (feasibility, the certificate, the kink test, the oracle), and
    # the reference the scan kernel is held to; its phasors come from _phasors_at,
    # which the structural suite reads too.  With the p_r terms built apart, every
    # value, on whole arrays and on row subsets alike, must keep the formula's bits
    base = harness.load_config(CONFIG_DIR / cfg_name)
    lattice = (np.linspace(0.0, base.p_s_max, 201)[:, None],
               np.linspace(0.0, base.p_r_max, 201)[None, :])
    t = np.sqrt(base.p_s_max) * np.linspace(0.0, 1.0, 33)  # a scan's sqrt p_s, from 0
    u = np.sqrt(base.p_r_max) * np.linspace(0.0, 1.0, 129)  # its columns' sqrt p_r, from 0
    n = base.num_relays
    for seed, zeta in itertools.product(range(10), (0.0, 1e-3, 0.4)):
        cfg = dataclasses.replace(base, zeta=zeta)
        channels = fd.sample_channels(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        scan = ((rng.uniform(0.0, 1.0, (129, 1)) * t) ** 2, (u * u)[:, None])
        relay_rows = ((rng.uniform(0.0, 1.0, (n, 1)) * t) ** 2,
                      rng.uniform(0.0, cfg.p_r_max, (n, 1)))
        cases = [(k, shape) for k in range(n)
                 for shape in [(float(rng.uniform(0.0, cfg.p_s_max)),
                                float(rng.uniform(0.0, cfg.p_r_max))), lattice, scan]]
        cases += [(np.arange(n)[:, None], relay_rows), (np.arange(n)[:, None], (2.0, 3.0))]
        for k, (ps, pr) in cases:
            want = _one_shot_gap(ps, pr, channels, k, cfg)
            columns = phase._gap_columns(pr, channels, k, cfg)
            assert np.all(phase._gap_at(ps, columns, channels, k, cfg) == want)
        for k in range(n):  # open columns only, as the scans after a round's first
            rows = np.flatnonzero(rng.random(129) < 0.3)
            columns = [c[rows] for c in phase._gap_columns(scan[1], channels, k, cfg)]
            assert np.all(phase._gap_at(scan[0][rows], columns, channels, k, cfg)
                          == _one_shot_gap(*scan, channels, k, cfg)[rows])


def _phasor_cases():
    """(channels, config) of stock8 and strong-leakage, seeds 0-9 at three leakage
    values, then the first 300 extreme one-relay instances."""
    for cfg_name in ("stock8.cfg", "strong-leakage.cfg"):
        base = harness.load_config(CONFIG_DIR / cfg_name)
        for seed, zeta in itertools.product(range(10), (0.0, 1e-3, 0.4)):
            cfg = dataclasses.replace(base, zeta=zeta)
            yield fd.sample_channels(cfg, seed=seed), cfg
    yield from identity.extreme_instances(300)


def test_array_phasors_match_decompose():
    # lemma_suite's phase and cross-term checks take decompose's phasors from
    # _phasors_at, many instances and relays per call; each must lie within
    # 8 eps of |a| + |b| of the scalar decomposition
    rng = np.random.default_rng(24)
    eps = np.finfo(float).eps
    n = 16
    for channels, cfg in _phasor_cases():
        k = rng.integers(channels.num_relays, size=n)
        scale = np.where(np.arange(n) < n // 2, rng.random(n), 10.0 ** rng.uniform(-9, 0, n))
        ps, pr = cfg.p_s_max * scale, cfg.p_r_max * rng.permutation(scale)
        a, b = phase._phasors_at(ps, phase._gap_columns(pr, channels, k, cfg), channels, k,
                                 cfg)
        for i in range(n):
            dec = fd.decompose(fd.PowerAllocation(float(ps[i]), float(pr[i])), channels,
                               int(k[i]), cfg)
            tol = 8.0 * eps * (abs(dec.a) + abs(dec.b))
            assert abs(a[i] - dec.a) <= tol, (cfg, channels.seed, i)
            assert abs(b[i] - dec.b) <= tol, (cfg, channels.seed, i)


def _scan_gap_errors(t, pr, channels, k, config):
    """|scan kernel - _gap_at| at sqrt source powers t and relay powers pr, and the
    one-shot |a| + |b| there."""
    ps = np.asarray(t, dtype=float) ** 2
    scan = phase._scan_gap(t, phase._scan_columns(pr, channels, k, config), channels, k)
    want = phase._gap_at(ps, phase._gap_columns(pr, channels, k, config), channels, k, config)
    return np.abs(scan - want), sum(_one_shot_amplitudes(ps, pr, channels, k, config))


def _scan_cases(channels, config, rng):
    """(k, t, pr) cases: per relay a scalar and a (columns x points) scan from t = 0
    and sqrt(p_r) = 0, the 201^2 lattice on one relay, and all relays at once as
    (n, 1) rows."""
    n, ts, us = config.num_relays, np.sqrt(config.p_s_max), np.sqrt(config.p_r_max)
    lattice = (ts * np.sqrt(np.linspace(0.0, 1.0, 201))[:, None],
               np.linspace(0.0, config.p_r_max, 201)[None, :])
    scan = (rng.uniform(0.0, 1.0, (129, 1)) * ts * np.linspace(0.0, 1.0, 33),
            (us * np.linspace(0.0, 1.0, 129))[:, None] ** 2)
    rows = (rng.uniform(0.0, 1.0, (n, 1)) * ts * np.linspace(0.0, 1.0, 17),
            rng.uniform(0.0, config.p_r_max, (n, 1)))
    cases = [(k, shape) for k in range(n)
             for shape in [(float(rng.uniform(0.0, ts)), float(rng.uniform(0.0, config.p_r_max))),
                           scan]]
    return cases + [(int(rng.integers(n)), lattice), (np.arange(n)[:, None], rows)]


@pytest.mark.filterwarnings("error")
def test_scan_kernel_matches_the_reference_gap_to_a_few_ulps():
    # the search's scans evaluate the gap in sqrt(p_s) with h_rp sqrt(p_r) folded into
    # the column terms; it is not bit for bit _gap_at, but within 32 eps of |a| + |b|
    instances = [(fd.sample_channels(cfg, seed=seed), cfg)
                 for name, seed, zeta in itertools.product(
                     ("stock8.cfg", "strong-leakage.cfg"), range(10), (0.0, 1e-3, 0.4))
                 for cfg in [dataclasses.replace(harness.load_config(CONFIG_DIR / name),
                                                 zeta=zeta)]]
    instances += list(identity.extreme_instances(300))
    for i, (channels, cfg) in enumerate(instances):
        for k, (t, pr) in _scan_cases(channels, cfg, np.random.default_rng(i)):
            err, scale = _scan_gap_errors(t, pr, channels, k, cfg)
            assert np.all(err <= 32 * np.finfo(float).eps * scale), (i, k)
