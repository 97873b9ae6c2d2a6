import dataclasses
import math

import numpy as np
import pytest

import fdrelay as fd
from fdrelay import Definiteness, DomainError


def unit_channels():
    one = np.ones(1, dtype=complex)
    return fd.ChannelRealization(seed=0, h_sp=1 + 0j, h_sd=1 + 0j,
                                 h_sr=one.copy(), h_rd=one.copy(),
                                 h_rp=one.copy(), h_rr=one.copy(),
                                 var_sp=1.0, var_rp=np.ones(1))


def unit_config(zeta=1.0):
    return fd.NetworkConfig(num_relays=1, zeta=zeta, p_s_max=100.0,
                            p_r_max=100.0, i_bar_p=10.0)


def random_point(rng):
    return float(rng.uniform(0.05, 30.0)), float(rng.uniform(0.05, 30.0))


def fd_tol(closed, rel=1e-4, floor=1e-6):
    return max(floor, rel * abs(closed))


# ---------------------------------------------------------------------------
# closed-form partials against finite differences of the value functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["f", "g", "ftilde"])
def test_partials_match_finite_differences(which, stock_channels, stock_config):
    # gradient step 1e-5 and hessian step 3e-3 keep the central differences
    # clear of cancellation noise from the large leakage term 1/(zh*pr)
    partial_fn = {"f": fd.f_partials, "g": fd.g_partials,
                  "ftilde": fd.ftilde_partials}[which]
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(stock_config.num_relays))
        ps, pr = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.5, 20.0))
        vals = partial_fn(ps, pr, stock_channels, k, stock_config)
        v, v_s, v_r, v_ss, v_sr, v_rr = vals

        def value(a, b, k=k):
            return partial_fn(a, b, stock_channels, k, stock_config)[0]

        grad = fd.numeric_gradient(value, ps, pr, rel_step=1e-5)
        hess = fd.numeric_hessian(value, ps, pr, rel_step=3e-3)
        assert v_s == pytest.approx(grad[0], abs=fd_tol(v_s))
        assert v_r == pytest.approx(grad[1], abs=fd_tol(v_r))
        assert v_ss == pytest.approx(hess[0, 0], abs=fd_tol(v_ss))
        assert v_sr == pytest.approx(hess[0, 1], abs=fd_tol(v_sr))
        assert v_rr == pytest.approx(hess[1, 1], abs=fd_tol(v_rr))
        # the reciprocal structure behind unimodal 1-D slices
        assert v_ss > 0.0 and v_rr > 0.0


def test_sqrt_coordinate_value_identity(stock_channels, stock_config):
    # g evaluated at sqrt powers equals f evaluated at the powers themselves
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(stock_config.num_relays))
        s, r = random_point(rng)
        g = fd.g_partials(s, r, stock_channels, k, stock_config)[0]
        f = fd.f_partials(s * s, r * r, stock_channels, k, stock_config)[0]
        assert g == pytest.approx(f, rel=1e-12)


def test_ftilde_mixed_partial_is_zero(stock_channels, stock_config):
    vals = fd.ftilde_partials(3.0, 5.0, stock_channels, 0, stock_config)
    assert vals[4] == 0.0


# ---------------------------------------------------------------------------
# Hessians of the surrogate objectives against finite differences
# ---------------------------------------------------------------------------

def test_hessian_noncoh_matches_objective_fd(stock_channels, stock_config):
    rng = np.random.default_rng(21)
    for _ in range(60):
        k = int(rng.integers(stock_config.num_relays))
        ps, pr = random_point(rng)
        rep = fd.hessian_noncoh(fd.PowerAllocation(ps, pr), stock_channels,
                                k, stock_config)

        def obj(a, b, k=k):
            return fd.rate_noncoh_obj(fd.PowerAllocation(a, b),
                                      stock_channels, k, stock_config)

        num = fd.numeric_hessian(obj, ps, pr)
        scale = max(1.0, float(np.abs(num).max()))
        assert rep.h11 == pytest.approx(num[0, 0], abs=1e-4 * scale)
        assert rep.h12 == pytest.approx(num[0, 1], abs=1e-4 * scale)
        assert rep.h22 == pytest.approx(num[1, 1], abs=1e-4 * scale)
        assert rep.h21 == rep.h12
        assert rep.det == pytest.approx(rep.h11 * rep.h22 - rep.h12 ** 2,
                                        rel=1e-12, abs=1e-300)


def test_hessian_coh_matches_objective_fd(stock_channels, stock_config):
    rng = np.random.default_rng(22)
    for _ in range(60):
        k = int(rng.integers(stock_config.num_relays))
        s, r = float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.2, 6.0))
        rep = fd.hessian_coh((s, r), stock_channels, k, stock_config)

        def obj(a, b, k=k):
            return fd.rate_coh_obj((a, b), stock_channels, k, stock_config)

        num = fd.numeric_hessian(obj, s, r)
        scale = max(1.0, float(np.abs(num).max()))
        assert rep.h11 == pytest.approx(num[0, 0], abs=1e-4 * scale)
        assert rep.h12 == pytest.approx(num[0, 1], abs=1e-4 * scale)
        assert rep.h22 == pytest.approx(num[1, 1], abs=1e-4 * scale)


def test_hessian_zeta_zero_is_negative_semidefinite(stock_channels, stock_config):
    rng = np.random.default_rng(23)
    for _ in range(60):
        k = int(rng.integers(stock_config.num_relays))
        ps, pr = random_point(rng)
        rep = fd.hessian_noncoh_zeta_zero(fd.PowerAllocation(ps, pr),
                                          stock_channels, k, stock_config)
        assert rep.definiteness is Definiteness.NEGATIVE_SEMIDEFINITE
        assert rep.h11 < 0.0 and rep.h22 < 0.0
        # analytically rank-one deficient
        scale = max(abs(rep.h11), abs(rep.h22))
        assert abs(rep.det) <= 1e-9 * scale * scale

        def obj(a, b, k=k):
            return fd.rate_noncoh_obj_zeta_zero(fd.PowerAllocation(a, b),
                                                stock_channels, k, stock_config)

        num = fd.numeric_hessian(obj, ps, pr)
        scale = max(1.0, float(np.abs(num).max()))
        assert rep.h11 == pytest.approx(num[0, 0], abs=1e-4 * scale)
        assert rep.h22 == pytest.approx(num[1, 1], abs=1e-4 * scale)


def test_definiteness_labels_match_eigenvalues(stock_channels, stock_config):
    rng = np.random.default_rng(24)
    for _ in range(120):
        k = int(rng.integers(stock_config.num_relays))
        ps, pr = random_point(rng)
        rep = fd.hessian_noncoh(fd.PowerAllocation(ps, pr), stock_channels,
                                k, stock_config)
        lo, hi = np.linalg.eigvalsh(rep.matrix)
        band = 1e-8 * max(abs(rep.h11), abs(rep.h22))
        if rep.definiteness is Definiteness.INDEFINITE:
            assert lo < band and hi > -band
        elif rep.definiteness is Definiteness.NEGATIVE_DEFINITE:
            assert hi < band
        elif rep.definiteness is Definiteness.POSITIVE_DEFINITE:
            assert lo > -band
        elif rep.definiteness is Definiteness.NEGATIVE_SEMIDEFINITE:
            assert lo < band and hi <= band
        else:
            assert hi > -band and lo >= -band


# ---------------------------------------------------------------------------
# factored determinant, thresholds, witnesses
# ---------------------------------------------------------------------------

def test_factored_determinant_agrees_with_entrywise(stock_channels, stock_config):
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = int(rng.integers(stock_config.num_relays))
        ps, pr = random_point(rng)
        alloc = fd.PowerAllocation(ps, pr)
        det_factored = fd.sc1(alloc, stock_channels, k, stock_config)
        rep = fd.hessian_noncoh(alloc, stock_channels, k, stock_config)
        assert det_factored == pytest.approx(rep.det, rel=1e-9, abs=1e-300)


def test_unit_channel_threshold_closed_form():
    # all-unit channels with full leakage give quadratic 23 x^2 + 6 x - 2 at
    # relay power 1, whose positive root is (-3 + sqrt(55))/23
    ch = unit_channels()
    cfg = unit_config(zeta=1.0)
    th = fd.threshold_ps(ch, 0, cfg, p_rk=1.0)
    assert th.p_s_tilde == pytest.approx((-3.0 + math.sqrt(55.0)) / 23.0, rel=1e-12)
    assert th.p_rk_tilde == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert 0.0 < th.p_s_tilde_coh < th.p_rk_tilde


def test_threshold_certifies_indefiniteness(stock_channels, stock_config):
    rng = np.random.default_rng(32)
    hits = 0
    for _ in range(80):
        k = int(rng.integers(stock_config.num_relays))
        p_rk = float(rng.uniform(0.1, stock_config.p_r_max))
        th = fd.threshold_ps(stock_channels, k, stock_config, p_rk)
        assert th.p_s_tilde > 0.0
        ps = 0.9 * th.p_s_tilde
        rep = fd.hessian_noncoh(fd.PowerAllocation(ps, p_rk), stock_channels,
                                k, stock_config)
        assert rep.det < 0.0
        # the label uses a relative zero band, so only insist on INDEFINITE
        # when the determinant clears that band with margin
        scale = max(abs(rep.h11), abs(rep.h22))
        if abs(rep.det) > 1e-8 * scale * scale:
            assert rep.definiteness is Definiteness.INDEFINITE

        def obj(a, b, k=k):
            return fd.rate_noncoh_obj(fd.PowerAllocation(a, b),
                                      stock_channels, k, stock_config)

        num = fd.numeric_hessian(obj, ps, p_rk)
        assert num[0, 0] * num[1, 1] - num[0, 1] * num[1, 0] < 0.0
        hits += 1
    assert hits == 80


def test_sqrt_coordinate_witness_is_certified(stock_channels, stock_config):
    for k in range(stock_config.num_relays):
        (ps, pr), det = fd.sc2_witness(stock_channels, k, stock_config)
        assert det < 0.0
        rep = fd.hessian_coh((ps, pr), stock_channels, k, stock_config)
        assert rep.det == pytest.approx(det, rel=1e-12)
        assert rep.definiteness is Definiteness.INDEFINITE
        th = fd.threshold_ps(stock_channels, k, stock_config, p_rk=1.0)
        assert 0.0 < pr <= 0.5 * th.p_rk_tilde * (1 + 1e-12)


def test_convexified_curvatures_match_fd(stock_channels, stock_config):
    ref = fd.PowerAllocation(4.0, 9.0)
    for k in range(stock_config.num_relays):
        frozen = fd.freeze_constraint(ref, stock_channels, k, stock_config)
        q_ss, q_sr, q_rr = fd.convexified_curvatures(stock_channels, k, frozen)

        def quad(a, b, k=k, frozen=frozen):
            return fd.convexified_interference((a, b), stock_channels, k,
                                               stock_config, frozen)

        num = fd.numeric_hessian(quad, 1.7, 2.9)
        scale = max(1.0, float(np.abs(num).max()))
        assert q_ss == pytest.approx(num[0, 0], abs=1e-5 * scale)
        assert q_sr == pytest.approx(num[0, 1], abs=1e-5 * scale)
        assert q_rr == pytest.approx(num[1, 1], abs=1e-5 * scale)


# ---------------------------------------------------------------------------
# domain errors
# ---------------------------------------------------------------------------

def test_domain_errors(stock_channels, stock_config):
    zero_cfg = dataclasses.replace(stock_config, zeta=0.0)
    with pytest.raises(DomainError):
        fd.f_partials(0.0, 1.0, stock_channels, 0, stock_config)
    with pytest.raises(DomainError):
        fd.g_partials(1.0, -1.0, stock_channels, 0, stock_config)
    with pytest.raises(DomainError):
        fd.ftilde_partials(1.0, 0.0, stock_channels, 0, stock_config)
    with pytest.raises(DomainError, match="ftilde"):
        fd.f_partials(1.0, 1.0, stock_channels, 0, zero_cfg)
    with pytest.raises(DomainError):
        fd.sc1(fd.PowerAllocation(1.0, 1.0), stock_channels, 0, zero_cfg)
    with pytest.raises(DomainError):
        fd.threshold_ps(stock_channels, 0, stock_config, p_rk=0.0)
    with pytest.raises(DomainError):
        fd.threshold_ps(stock_channels, 0, zero_cfg, p_rk=1.0)
    with pytest.raises(DomainError):
        fd.sc2_witness(stock_channels, 0, zero_cfg)


def test_numeric_oracles_on_known_function():
    # analytic check of the finite-difference helpers themselves
    def fn(x, y):
        return x ** 3 * y + 2.0 * y ** 2

    grad = fd.numeric_gradient(fn, 1.5, 2.0)
    hess = fd.numeric_hessian(fn, 1.5, 2.0)
    assert grad[0] == pytest.approx(3 * 1.5 ** 2 * 2.0, rel=1e-6)
    assert grad[1] == pytest.approx(1.5 ** 3 + 4 * 2.0, rel=1e-6)
    assert hess[0, 0] == pytest.approx(6 * 1.5 * 2.0, rel=1e-4)
    assert hess[0, 1] == pytest.approx(3 * 1.5 ** 2, rel=1e-4)
    assert hess[1, 1] == pytest.approx(4.0, rel=1e-4)


def test_numeric_steps_keep_a_small_positive_coordinate_positive():
    # a witness can sit at p_s ~ 1e-8; a step floored at rel_step^2 = 1e-8
    # probed a negative power there
    probes = []

    def fn(x, y):
        probes.append(x)
        return x * y

    fd.numeric_hessian(fn, 5e-9, 1.0)
    fd.numeric_gradient(fn, 5e-9, 1.0)
    assert min(probes) > 0.0
