import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdrelay as fd


def make_config(**overrides):
    base = dict(num_relays=2, zeta=0.001, p_s_max=100.0, p_r_max=100.0,
                i_bar_p=10.0)
    base.update(overrides)
    return fd.NetworkConfig(**base)


def unit_channels(num_relays=1, zeta_cfg=None, **cfg_overrides):
    """Hand-built realization with every coefficient equal to 1 (real)."""
    ones = np.ones(num_relays, dtype=np.complex128)
    ch = fd.ChannelRealization(seed=0, h_sp=1 + 0j, h_sd=1 + 0j,
                               h_sr=ones.copy(), h_rd=ones.copy(),
                               h_rp=ones.copy(), h_rr=ones.copy(),
                               var_sp=1.0, var_rp=np.ones(num_relays))
    cfg = make_config(num_relays=num_relays, **cfg_overrides)
    if zeta_cfg is not None:
        cfg = dataclasses.replace(cfg, zeta=zeta_cfg)
    return ch, cfg


# ---------------------------------------------------------------------------
# dB helpers
# ---------------------------------------------------------------------------

def test_db_conversions():
    assert fd.db_to_linear(0.0) == 1.0
    assert fd.db_to_linear(10.0) == pytest.approx(10.0)
    assert fd.db_to_linear(20.0) == pytest.approx(100.0)
    assert fd.linear_to_db(100.0) == pytest.approx(20.0)


@given(st.floats(min_value=-60.0, max_value=60.0))
def test_db_round_trip(x):
    assert fd.linear_to_db(fd.db_to_linear(x)) == pytest.approx(x, abs=1e-9)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(num_relays=0),
    dict(zeta=-0.1),
    dict(p_s_max=0.0),
    dict(p_r_max=-1.0),
    dict(i_bar_p=-0.5),
    dict(sigma2_relay=0.0),
    dict(var_sr=-1.0),
    dict(var_sp_range=(1.0, 0.8)),   # reversed
    dict(var_rp_range=(-0.1, 1.0)),
    dict(p_s_max=math.inf),
    dict(p_r_max=math.inf),
    dict(p_s_max=math.nan),
    dict(zeta=math.inf),
    dict(i_bar_p=math.nan),
    dict(sigma2_dest=math.inf),
    dict(sigma2_pu=math.inf),
    dict(var_rr=math.inf),
    dict(var_sp_range=(0.8, math.inf)),
    dict(sampling_freq=math.inf),
])
def test_config_validation_rejects(bad):
    with pytest.raises(fd.ConfigError):
        make_config(**bad)


def test_config_zero_interference_cap_is_legal():
    cfg = make_config(i_bar_p=0.0)
    assert cfg.i_bar_p == 0.0


def test_replace_config_is_nondestructive():
    cfg = make_config()
    cfg2 = dataclasses.replace(cfg, zeta=0.4, i_bar_p=2.0)
    assert cfg2.zeta == 0.4 and cfg2.i_bar_p == 2.0
    assert cfg.zeta == 0.001 and cfg.i_bar_p == 10.0
    with pytest.raises(fd.ConfigError):
        dataclasses.replace(cfg, zeta=-1.0)  # __post_init__ re-validates


# ---------------------------------------------------------------------------
# channel sampling
# ---------------------------------------------------------------------------

def test_sampler_shapes_and_types():
    cfg = make_config(num_relays=5)
    ch = fd.sample_channels(cfg, seed=3)
    assert ch.num_relays == 5
    assert isinstance(ch.h_sp, complex) and isinstance(ch.h_sd, complex)
    for arr in (ch.h_sr, ch.h_rd, ch.h_rp, ch.h_rr):
        assert arr.shape == (5,) and arr.dtype == np.complex128
        assert not arr.flags.writeable
    assert cfg.var_sp_range[0] <= ch.var_sp <= cfg.var_sp_range[1]
    assert np.all((ch.var_rp >= cfg.var_rp_range[0])
                  & (ch.var_rp <= cfg.var_rp_range[1]))


def test_sampler_deterministic_and_seed_sensitive():
    cfg = make_config()
    a = fd.sample_channels(cfg, seed=11)
    b = fd.sample_channels(cfg, seed=11)
    c = fd.sample_channels(cfg, seed=12)
    assert a.h_sp == b.h_sp
    assert np.array_equal(a.h_sr, b.h_sr)
    assert a.h_sp != c.h_sp


def test_sampler_draw_order_is_frozen():
    # compatibility contract: these exact values pin the documented draw
    # order (var_sp, var_rp, h_sp, h_sd, h_sr, h_rd, h_rp, h_rr) for seed 0
    ch = fd.sample_channels(make_config(), seed=0)
    assert ch.var_sp == pytest.approx(0.9273923374642908, rel=1e-12)
    assert ch.h_sp == pytest.approx(0.07143198635589791 - 0.36476534434268826j,
                                    rel=1e-12)
    assert ch.h_sr[0] == pytest.approx(0.6696873713613738 - 0.8947881032357202j,
                                       rel=1e-12)
    assert ch.h_rd[1] == pytest.approx(-1.6440450272145315 - 0.8809920795571974j,
                                       rel=1e-12)
    assert ch.h_rr[0] == pytest.approx(0.7371682730105539 + 0.9662355862693871j,
                                       rel=1e-12)


def test_sampler_draws_are_independent_of_leakage_and_caps():
    a = fd.sample_channels(make_config(zeta=0.0, i_bar_p=1.0), seed=5)
    b = fd.sample_channels(make_config(zeta=0.4, p_s_max=7.0), seed=5)
    assert a.h_sp == b.h_sp and np.array_equal(a.h_rr, b.h_rr)


def test_sampler_second_moments():
    # E|h|^2 equals the configured variance; one big draw keeps this cheap
    cfg = make_config(num_relays=20000, var_sd=0.1)
    ch = fd.sample_channels(cfg, seed=1)
    assert np.mean(np.abs(ch.h_sr) ** 2) == pytest.approx(cfg.var_sr, rel=0.05)
    assert np.mean(np.abs(ch.h_rd) ** 2) == pytest.approx(cfg.var_rd, rel=0.05)
    assert np.mean(np.abs(ch.h_rr) ** 2) == pytest.approx(cfg.var_rr, rel=0.05)


# ---------------------------------------------------------------------------
# gain and rate kernels
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(ps=st.floats(min_value=1e-3, max_value=1e3),
       pr=st.floats(min_value=1e-3, max_value=1e3),
       seed=st.integers(min_value=0, max_value=50))
def test_gain_normalizes_relay_input_power(ps, pr, seed):
    cfg = make_config(zeta=0.01)
    ch = fd.sample_channels(cfg, seed=seed)
    alloc = fd.PowerAllocation(ps, pr)
    g = fd.relay_gain(alloc, ch, 0, cfg)
    received = (ps * abs(ch.h_sr[0]) ** 2 + cfg.zeta * pr * abs(ch.h_rr[0]) ** 2
                + cfg.sigma2_relay)
    assert g ** 2 * received == pytest.approx(1.0, rel=1e-12)


def test_zeta_hat_definition(stock_channels, stock_config):
    for k in range(stock_config.num_relays):
        expected = stock_config.zeta * abs(stock_channels.h_rr[k]) ** 2
        assert fd.zeta_hat(stock_channels, k, stock_config) == pytest.approx(expected)


def test_derived_quantities_bundle(stock_channels, stock_config):
    alloc = fd.PowerAllocation(4.0, 9.0)
    d = fd.derived_quantities(alloc, stock_channels, 1, stock_config)
    assert d.zeta_hat == fd.zeta_hat(stock_channels, 1, stock_config)
    assert d.gain == fd.relay_gain(alloc, stock_channels, 1, stock_config)


def test_rate_exact_longhand(stock_channels, stock_config):
    ps, pr, k = 6.0, 11.0, 2
    zh = fd.zeta_hat(stock_channels, k, stock_config)
    x = pr * abs(stock_channels.h_rd[k]) ** 2 / stock_config.sigma2_dest
    y = ps * abs(stock_channels.h_sr[k]) ** 2 / (zh * pr + stock_config.sigma2_relay)
    expected = math.log2(1.0 + x * y / (1.0 + x + y))
    got = fd.rate_exact(fd.PowerAllocation(ps, pr), stock_channels, k, stock_config)
    assert got == pytest.approx(expected, rel=1e-12)


def test_rate_zero_on_boundary(stock_channels, stock_config):
    assert fd.rate_exact(fd.PowerAllocation(0.0, 5.0), stock_channels, 0,
                         stock_config) == 0.0
    assert fd.rate_exact(fd.PowerAllocation(5.0, 0.0), stock_channels, 0,
                         stock_config) == 0.0


def test_surrogate_unit_example():
    # all-ones channels, zeta = 1, unit powers: X = 1, Ybar = 1, value 1/3
    ch, cfg = unit_channels(zeta_cfg=1.0)
    val = fd.rate_noncoh_obj(fd.PowerAllocation(1.0, 1.0), ch, 0, cfg)
    assert val == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_surrogate_requires_leakage(stock_channels):
    cfg0 = make_config(num_relays=4, zeta=0.0)
    with pytest.raises(fd.ZetaHatZero):
        fd.rate_noncoh_obj(fd.PowerAllocation(1.0, 1.0), stock_channels, 0, cfg0)
    # and the zero-leakage variant takes over: x*y/(x+y)
    v = fd.rate_noncoh_obj_zeta_zero(fd.PowerAllocation(1.0, 1.0),
                                     stock_channels, 0, cfg0)
    x = abs(stock_channels.h_rd[0]) ** 2
    y = abs(stock_channels.h_sr[0]) ** 2
    assert v == pytest.approx(x * y / (x + y), rel=1e-12)


def test_coh_objective_is_sqrt_reparameterization(stock_channels, stock_config):
    a, b = 1.7, 2.9
    v1 = fd.rate_coh_obj((a, b), stock_channels, 3, stock_config)
    v2 = fd.rate_noncoh_obj(fd.PowerAllocation(a * a, b * b), stock_channels, 3,
                            stock_config)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_hd_rate_is_half_of_leakage_free_exact(stock_channels, stock_config):
    cfg0 = dataclasses.replace(stock_config, zeta=0.0)
    alloc = fd.PowerAllocation(8.0, 3.0)
    for k in range(stock_config.num_relays):
        hd = fd.rate_hd(alloc, stock_channels, k, stock_config)
        full = fd.rate_exact(alloc, stock_channels, k, cfg0)
        assert hd == pytest.approx(0.5 * full, rel=1e-12)


# ---------------------------------------------------------------------------
# interference
# ---------------------------------------------------------------------------

def test_interference_noncoh_closed_form(stock_channels, stock_config):
    ps, pr, k = 3.0, 7.0, 1
    expected = (abs(stock_channels.h_sp) ** 2 * ps
                + abs(stock_channels.h_rp[k]) ** 2 * pr * (1 + stock_config.zeta))
    got = fd.interference_noncoh(fd.PowerAllocation(ps, pr), stock_channels, k,
                                 stock_config)
    assert got == pytest.approx(expected, rel=1e-12)


def test_interference_noncoh_matches_unsimplified_budget(stock_channels,
                                                         stock_config):
    # the relay's amplified transmission carries exactly pr of power (gain
    # identity), so the term-by-term budget collapses to the closed form
    ps, pr, k = 9.0, 4.0, 0
    alloc = fd.PowerAllocation(ps, pr)
    g = fd.relay_gain(alloc, stock_channels, k, stock_config)
    hrp2 = abs(stock_channels.h_rp[k]) ** 2
    relayed = hrp2 * pr * g ** 2 * (
        ps * abs(stock_channels.h_sr[k]) ** 2
        + stock_config.zeta * pr * abs(stock_channels.h_rr[k]) ** 2
        + stock_config.sigma2_relay)
    unsimplified = (abs(stock_channels.h_sp) ** 2 * ps
                    + stock_config.zeta * pr * hrp2 + relayed)
    got = fd.interference_noncoh(alloc, stock_channels, k, stock_config)
    assert got == pytest.approx(unsimplified, rel=1e-12)


def test_power_allocation_rejects_negative():
    with pytest.raises(ValueError):
        fd.PowerAllocation(-1.0, 2.0)
    with pytest.raises(ValueError):
        fd.PowerAllocation(1.0, -2.0)


def test_channel_realization_is_frozen(stock_channels):
    with pytest.raises(dataclasses.FrozenInstanceError):
        stock_channels.h_sp = 0j
    with pytest.raises(ValueError):
        stock_channels.h_sr[0] = 0j  # arrays locked too
