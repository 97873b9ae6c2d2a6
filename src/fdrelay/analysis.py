"""Curvature analysis of the surrogate objectives, in closed form.

Two structural facts shape the power-control problem: each surrogate
objective is CONVEX-reciprocal in each power coordinate separately (so every
1-D subproblem is exactly solvable), yet the JOINT problem is not convex --
below explicit power thresholds the Hessian of the reciprocal objective has
negative determinant.  This module carries the closed-form partial
derivatives, the determinant signs, the thresholds, and a certified witness
constructor, plus the finite-difference oracles the tests use to cross-check
every formula.

Notation used throughout (all scalars, linear units):
  f(ps, pr)   reciprocal of the interference-limited surrogate in POWER
              coordinates: 1/ps + pr*hrd2/(ps*s2d) + hsr2/(zh*pr).
  g(ps, pr)   same quantity in SQRT-POWER coordinates:
              1/ps^2 + pr^2*hrd2/(ps^2*s2d) + hsr2/(zh*pr^2).
  ft(ps, pr)  the zero-leakage (zh == 0) reciprocal:
              hrd2/(ps*s2d) + hsr2/(s2r*pr).
The objectives themselves are positive multiples of 1/f, 1/g, 1/ft, so all
sign/definiteness conclusions transfer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, NetworkConfig, PowerAllocation
from . import model as _model

__all__ = [
    "DomainError",
    "Definiteness",
    "HessianReport",
    "Thresholds",
    "f_partials",
    "g_partials",
    "ftilde_partials",
    "hessian_noncoh",
    "hessian_noncoh_zeta_zero",
    "hessian_coh",
    "sc1",
    "threshold_ps",
    "sc2_witness",
    "convexified_curvatures",
    "numeric_gradient",
    "numeric_hessian",
]


class DomainError(ValueError):
    """Point outside the open domain the closed forms need (boundary or zh=0)."""


class Definiteness(enum.Enum):
    NEGATIVE_DEFINITE = "negative-definite"
    NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
    INDEFINITE = "indefinite"
    POSITIVE_SEMIDEFINITE = "positive-semidefinite"
    POSITIVE_DEFINITE = "positive-definite"


@dataclass(frozen=True)
class HessianReport:
    """2x2 Hessian of a reciprocal objective (1/f or 1/g) at one point."""

    h11: float
    h12: float
    h21: float
    h22: float
    det: float
    definiteness: Definiteness

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.h11, self.h12], [self.h21, self.h22]])


@dataclass(frozen=True)
class Thresholds:
    """Power thresholds bounding the certified-nonconvex regions.

    p_s_tilde: below this SOURCE POWER (at the given relay power) the
        interference-limited reciprocal objective's Hessian determinant is
        negative -- positive root of the closed-form quadratic.
    p_rk_tilde: sqrt-relay-power bound sigma_d/(sqrt(3)|h_rd|) for the
        sqrt-coordinate analysis.
    p_s_tilde_coh: sqrt-source-power bound, min of the two closed-form
        roots, evaluated at the canonical witness coordinate p_rk_tilde/2.
    """

    p_s_tilde: float
    p_rk_tilde: float
    p_s_tilde_coh: float


def _classify(h11: float, h22: float, det: float) -> Definiteness:
    """Sylvester-style classification with a relative zero band.

    Determinant magnitudes below 1e-9 x (entry scale)^2 count as zero so the
    analytically rank-deficient zero-leakage case lands on the semidefinite
    branch instead of flapping on rounding noise.
    """
    scale = max(abs(h11), abs(h22), 1e-300)
    tol = 1e-9 * scale * scale
    etol = 1e-12 * scale
    if det > tol:
        return Definiteness.POSITIVE_DEFINITE if h11 > 0 else Definiteness.NEGATIVE_DEFINITE
    if det < -tol:
        return Definiteness.INDEFINITE
    if h11 < -etol or h22 < -etol:
        return Definiteness.NEGATIVE_SEMIDEFINITE
    return Definiteness.POSITIVE_SEMIDEFINITE


def _coeffs(channels: ChannelRealization, k: int, config: NetworkConfig):
    return (float(channels.hsr2[k]), float(channels.hrd2[k]),
            _model.zeta_hat(channels, k, config), config.sigma2_dest, config.sigma2_relay)


def f_partials(ps: float, pr: float, channels: ChannelRealization, k: int,
               config: NetworkConfig) -> tuple[float, float, float, float, float, float]:
    """(f, f_s, f_r, f_ss, f_sr, f_rr) of the power-coordinate reciprocal; broadcasts."""
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    if not (np.all(ps > 0.0) and np.all(pr > 0.0)):
        raise DomainError(f"interior point required, got ps={ps!r}, pr={pr!r}")
    if zh == 0.0:
        raise DomainError("zeta_hat == 0: use ftilde_partials")
    f = 1.0 / ps + pr * hrd2 / (ps * s2d) + hsr2 / (zh * pr)
    f_s = -1.0 / ps ** 2 - hrd2 * pr / (ps ** 2 * s2d)
    f_r = hrd2 / (ps * s2d) - hsr2 / (zh * pr ** 2)
    f_ss = 2.0 / ps ** 3 + 2.0 * pr * hrd2 / (s2d * ps ** 3)
    f_sr = -hrd2 / (s2d * ps ** 2)
    f_rr = 2.0 * hsr2 / (zh * pr ** 3)
    return f, f_s, f_r, f_ss, f_sr, f_rr


def g_partials(ps: float, pr: float, channels: ChannelRealization, k: int,
               config: NetworkConfig) -> tuple[float, float, float, float, float, float]:
    """(g, g_s, g_r, g_ss, g_sr, g_rr) of the sqrt-coordinate reciprocal; broadcasts."""
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    if not (np.all(ps > 0.0) and np.all(pr > 0.0)):
        raise DomainError(f"interior point required, got ps={ps!r}, pr={pr!r}")
    if zh == 0.0:
        raise DomainError("zeta_hat == 0: the sqrt-coordinate reciprocal degenerates")
    g = 1.0 / (ps * ps) + (pr * pr) * hrd2 / ((ps * ps) * s2d) + hsr2 / (zh * (pr * pr))
    g_s = -2.0 / ps ** 3 - 2.0 * hrd2 * pr ** 2 / (ps ** 3 * s2d)
    g_r = 2.0 * hrd2 * pr / (ps ** 2 * s2d) - 2.0 * hsr2 / (zh * pr ** 3)
    g_ss = 6.0 / ps ** 4 + 6.0 * hrd2 * pr ** 2 / (s2d * ps ** 4)
    g_sr = -4.0 * pr * hrd2 / (s2d * ps ** 3)
    g_rr = 2.0 * hrd2 / (ps ** 2 * s2d) + 6.0 * hsr2 / (zh * pr ** 4)
    return g, g_s, g_r, g_ss, g_sr, g_rr


def ftilde_partials(ps: float, pr: float, channels: ChannelRealization, k: int,
                    config: NetworkConfig) -> tuple[float, float, float, float, float, float]:
    """(ft, ft_s, ft_r, ft_ss, ft_sr, ft_rr) of the zero-leakage reciprocal; broadcasts.

    Separable in the two powers, so the mixed partial of ft is identically 0
    (the mixed partial of 1/ft is not).  lemma_suite passes a draw's points as arrays.
    """
    hsr2, hrd2, _, s2d, s2r = _coeffs(channels, k, config)
    if not (np.all(ps > 0.0) and np.all(pr > 0.0)):
        raise DomainError(f"interior point required, got ps={ps!r}, pr={pr!r}")
    ft = hrd2 / (ps * s2d) + hsr2 / (s2r * pr)
    ft_s = -hrd2 / (ps ** 2 * s2d)
    ft_r = -hsr2 / (s2r * pr ** 2)
    ft_ss = 2.0 * hrd2 / (ps ** 3 * s2d)
    ft_sr = 0.0
    ft_rr = 2.0 * hsr2 / (s2r * pr ** 3)
    return ft, ft_s, ft_r, ft_ss, ft_sr, ft_rr


def _quotient_hessian(partials, scale: float):
    """(h11, h12, h22, det) of scale/v from v's partials (quotient rule); broadcasts."""
    v, v1, v2, v11, v12, v22 = partials
    h11 = scale * (-(v * v11 - 2.0 * v1 * v1) / v ** 3)
    h12 = scale * (-(v * v12 - 2.0 * v1 * v2) / v ** 3)
    h22 = scale * (-(v * v22 - 2.0 * v2 * v2) / v ** 3)
    return h11, h12, h22, h11 * h22 - h12 * h12


def _hessian_report(partials, scale: float) -> HessianReport:
    h11, h12, h22, det = _quotient_hessian(partials, scale)
    return HessianReport(h11=h11, h12=h12, h21=h12, h22=h22, det=det,
                         definiteness=_classify(h11, h22, det))


def _surrogate_scale(channels, k, config, zero_leakage=False) -> float:
    """The surrogate objective is scale/f (resp. scale/ft); curvature reports
    carry this positive constant so they match finite differences of the
    actual objective, not just its reciprocal's shape."""
    hsr2, hrd2, zh, s2d, s2r = _coeffs(channels, k, config)
    if zero_leakage:
        return hsr2 * hrd2 / (s2d * s2r)
    return hsr2 * hrd2 / (zh * s2d)


def hessian_noncoh(alloc: PowerAllocation, channels: ChannelRealization, k: int,
                   config: NetworkConfig) -> HessianReport:
    """Hessian of the interference-limited surrogate objective (= scale/f) at
    a power-coordinate interior point."""
    return _hessian_report(f_partials(alloc.p_s, alloc.p_r, channels, k, config),
                           _surrogate_scale(channels, k, config))


def hessian_noncoh_zeta_zero(alloc: PowerAllocation, channels: ChannelRealization,
                             k: int, config: NetworkConfig) -> HessianReport:
    """Hessian of the zero-leakage surrogate objective (= scale/ft).

    Analytically rank-deficient: det == 0 and the diagonal is negative, so
    the surrogate is concave (negative semidefinite) on the open quadrant.
    """
    return _hessian_report(ftilde_partials(alloc.p_s, alloc.p_r, channels, k, config),
                           _surrogate_scale(channels, k, config, zero_leakage=True))


def hessian_coh(p: tuple[float, float], channels: ChannelRealization, k: int,
                config: NetworkConfig) -> HessianReport:
    """Hessian of the surrogate objective in sqrt coordinates (= scale/g) at
    an interior point p = (ps, pr)."""
    ps, pr = p
    return _hessian_report(g_partials(ps, pr, channels, k, config),
                           _surrogate_scale(channels, k, config))


def sc1(alloc: PowerAllocation, channels: ChannelRealization, k: int,
        config: NetworkConfig) -> float:
    """det of hessian_noncoh in fully factored closed form.

    -scale^2 * hrd2 * T / (zh * pr^2 * ps^5 * s2d^3 * f^5) with
    T = pr^3*hrd2^2*zh + pr^2*hrd2*s2d*zh - 3*pr*ps*hrd2*hsr2*s2d
        - 4*ps*hsr2*s2d^2.
    An algebraically independent route to the determinant: tests assert its
    sign (and value) against the entrywise product form.
    """
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    ps, pr = alloc.p_s, alloc.p_r
    if not (ps > 0.0 and pr > 0.0):
        raise DomainError(f"interior point required, got ps={ps!r}, pr={pr!r}")
    if zh == 0.0:
        raise DomainError("zeta_hat == 0: determinant degenerates; use hessian_noncoh_zeta_zero")
    f = 1.0 / ps + pr * hrd2 / (ps * s2d) + hsr2 / (zh * pr)
    t = (pr ** 3 * hrd2 ** 2 * zh + pr ** 2 * hrd2 * s2d * zh
         - 3.0 * pr * ps * hrd2 * hsr2 * s2d - 4.0 * ps * hsr2 * s2d ** 2)
    c = _surrogate_scale(channels, k, config)
    return float(-(c ** 2) * hrd2 * t / (zh * pr ** 2 * ps ** 5 * s2d ** 3 * f ** 5))


def threshold_ps(channels: ChannelRealization, k: int, config: NetworkConfig,
                 p_rk: float) -> Thresholds:
    """Closed-form nonconvexity thresholds.

    p_s_tilde is the positive root of the quadratic a*Ps^2 + b*Ps + c whose
    coefficients (a > 0, c < 0, so exactly one positive root) are evaluated
    at relay POWER ``p_rk``; source powers below it are certified to have
    indefinite 1/f Hessians.  The sqrt-coordinate thresholds p_rk_tilde and
    p_s_tilde_coh bound the mirror-image region for 1/g; p_s_tilde_coh is
    evaluated at the canonical witness coordinate p_rk_tilde/2 (where that
    region is guaranteed nonempty).
    """
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    if zh == 0.0:
        raise DomainError("zeta_hat == 0: every threshold degenerates")
    if not p_rk > 0.0:
        raise DomainError(f"p_rk must be > 0, got {p_rk!r}")
    snr_rd = hrd2 * p_rk / s2d
    a = (hsr2 ** 2 / (zh ** 2 * p_rk ** 3)) * (12.0 + 11.0 * snr_rd)
    b = (2.0 * hsr2 / (zh * p_rk ** 2)) * (2.0 + snr_rd)
    c = -(hrd2 / s2d) * (1.0 + snr_rd)
    p_s_tilde = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    p_rk_tilde, _, p_s_tilde_coh = _sqrt_thresholds(hsr2, hrd2, zh, s2d, halvings=1)
    return Thresholds(p_s_tilde=float(p_s_tilde), p_rk_tilde=float(p_rk_tilde),
                      p_s_tilde_coh=float(p_s_tilde_coh))


def _sqrt_thresholds(hsr2: float, hrd2: float, zh: float, s2d: float,
                     halvings: int) -> tuple[float, float, float]:
    """(p_rk_tilde, pr, min(p_s1, p_s2)) in sqrt coordinates, where
    pr = p_rk_tilde / 2^halvings and the min of the two closed-form roots
    bounds the sqrt source power of the nonconvex region at pr."""
    p_rk_tilde = math.sqrt(s2d) / (math.sqrt(3.0) * math.sqrt(hrd2))
    pr = p_rk_tilde * 0.5 ** halvings
    p_s1 = math.sqrt(zh / 6.0) * pr / math.sqrt(hsr2)
    p_s2 = math.sqrt(_eta_positive_root(pr, hsr2, hrd2, zh, s2d))
    return p_rk_tilde, pr, min(p_s1, p_s2)


def _eta_positive_root(pr: float, hsr2: float, hrd2: float, zh: float, s2d: float) -> float:
    """Positive root (in u = ps^2) of the relay-coordinate curvature quadratic.

    eta(u) = a1*u^2 + 2*a2*u + a3 multiplies the second partial of 1/g in the
    relay coordinate; a1 > 0 and (for pr below p_rk_tilde) a3 < 0, so eta has
    exactly one positive root and is negative left of it.
    """
    a1 = 2.0 * hsr2 ** 2 / (zh ** 2 * pr ** 6)
    a2 = -3.0 * hsr2 * (s2d + 4.0 * hrd2 * pr ** 2) / (zh * pr ** 4 * s2d)
    a3 = -2.0 * hrd2 * (s2d - 3.0 * hrd2 * pr ** 2) / (s2d ** 2)
    disc = a2 * a2 - a1 * a3
    return (-a2 + math.sqrt(disc)) / a1


def sc2_witness(channels: ChannelRealization, k: int,
                config: NetworkConfig) -> tuple[tuple[float, float], float]:
    """A certified indefinite point of the sqrt-coordinate reciprocal.

    Construction: take pr = p_rk_tilde/2 (relay-coordinate curvature of 1/g
    negative there for small enough ps) and ps = half the source-coordinate
    threshold (source-coordinate curvature positive, so the determinant must
    be negative).  The closed-form determinant AND an independent central
    finite-difference determinant are both required to certify; on failure
    the point shrinks toward the origin by 1/2 up to 40 times.

    Returns ((ps, pr), det).  Raises DomainError if zeta_hat == 0 or the
    shrink budget is exhausted.
    """
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    if zh == 0.0:
        raise DomainError("zeta_hat == 0: the reciprocal is jointly concave; no witness exists")
    for halvings in range(1, 42):
        _, pr, ps = _sqrt_thresholds(hsr2, hrd2, zh, s2d, halvings)
        ps *= 0.5
        if ps <= 0.0 or pr <= 0.0:
            break
        rep = hessian_coh((ps, pr), channels, k, config)
        # g(ps, pr) is f(ps^2, pr^2) op for op: numeric_hessian's bits over 1/g
        num = _numeric_hessian_vals(_sqrt_coords(
            lambda a, b: 1.0 / f_partials(a, b, channels, k, config)[0]), ps, pr)
        num_det = num[0, 0] * num[1, 1] - num[0, 1] * num[1, 0]
        if rep.det < 0.0 and num_det < 0.0:
            return (ps, pr), float(rep.det)
    raise DomainError("witness construction failed to certify after 40 shrinks")


def convexified_curvatures(channels: ChannelRealization, k: int,
                           frozen) -> tuple[float, float, float]:
    """Closed-form second partials (q_ss, q_sr, q_rr) of the frozen quadratic.

    The quadratic is (Re(h_sp)*ps + f1*pr)^2 + (Im(h_sp)*ps + f2*pr)^2, so
    its Hessian is constant: q_ss = 2|h_sp|^2, q_rr = 2(f1^2 + f2^2),
    q_sr = 2(Re(h_sp)*f1 + Im(h_sp)*f2).
    """
    hsp = complex(channels.h_sp)
    q_ss = 2.0 * (hsp.real ** 2 + hsp.imag ** 2)
    q_rr = 2.0 * (frozen.f1 ** 2 + frozen.f2 ** 2)
    q_sr = 2.0 * (hsp.real * frozen.f1 + hsp.imag * frozen.f2)
    return q_ss, q_sr, q_rr


def _surrogate_vals(channels: ChannelRealization, k: int, config: NetworkConfig):
    """rate_noncoh_obj as one broadcasting function of (ps, pr), with the same bits."""
    hsr2, hrd2, zh, s2d, _ = _coeffs(channels, k, config)
    return lambda ps, pr: _model._noncoh_obj_vals(ps, pr, hsr2, hrd2, zh, s2d)


def _sqrt_coords(fn):
    """fn at the squared point, so _sqrt_coords(_surrogate_vals(...)) is rate_coh_obj; squares
    by x * x, as there and in g_partials: IEEE multiplication rounds alike in Python and numpy."""
    return lambda xs, ys: fn(xs * xs, ys * ys)


# ----------------------------------------------------------------------------
# Finite-difference oracles.
# ----------------------------------------------------------------------------

_REL_STEP = 1e-4


def _steps(x: float, y: float, rel_step: float) -> tuple[float, float]:
    # relative to |x| even below rel_step, so x +- h keeps x's sign; rel_step^2 at x = 0
    return rel_step * (abs(x) or rel_step), rel_step * (abs(y) or rel_step)


def numeric_gradient(fn, x: float, y: float, rel_step: float = _REL_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of two variables."""
    hx, hy = _steps(x, y, rel_step)
    gx = (fn(x + hx, y) - fn(x - hx, y)) / (2.0 * hx)
    gy = (fn(x, y + hy) - fn(x, y - hy)) / (2.0 * hy)
    return np.array([gx, gy])


def numeric_hessian(fn, x: float, y: float, rel_step: float = _REL_STEP) -> np.ndarray:
    """Central-difference 2x2 Hessian (symmetric), one scalar ``fn`` call per stencil point;
    lemma_suite's witnesses use _numeric_hessian_vals, one broadcasting call per stencil."""
    return _stencil_hessian(lambda xs, ys: [fn(a, b) for a, b in zip(xs, ys)], x, y, rel_step)


def _numeric_hessian_vals(fn, x: float, y: float) -> np.ndarray:
    """numeric_hessian's bits from one call of a broadcasting ``fn`` on the 9 points.
    A negative point raises ValueError, as PowerAllocation does, not a boundary 0."""
    def evaluate(xs, ys):
        xs, ys = np.array(xs), np.array(ys)
        if not (np.all(xs >= 0.0) and np.all(ys >= 0.0)):
            raise ValueError(f"stencil leaves the power quadrant: {xs!r}, {ys!r}")
        return fn(xs, ys)
    return _stencil_hessian(evaluate, x, y, _REL_STEP)


def _stencil_hessian(evaluate, x: float, y: float, rel_step: float) -> np.ndarray:
    """9-point central-difference Hessian; ``evaluate(xs, ys)`` gives fn at (xs[i], ys[i]):
    the centre, x +- hx, y +- hy, then the corners (+,+), (+,-), (-,+), (-,-)."""
    hx, hy = _steps(x, y, rel_step)
    v = evaluate((x, x + hx, x - hx, x, x, x + hx, x + hx, x - hx, x - hx),
                 (y, y, y, y + hy, y - hy, y + hy, y - hy, y + hy, y - hy))
    dxx = (v[1] - 2.0 * v[0] + v[2]) / (hx * hx)
    dyy = (v[3] - 2.0 * v[0] + v[4]) / (hy * hy)
    dxy = (v[5] - v[6] - v[7] + v[8]) / (4.0 * hx * hy)
    return np.array([[dxx, dxy], [dxy, dyy]])
