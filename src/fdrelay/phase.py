"""Coherent-scenario machinery: phase alignment at the primary receiver.

When the relay can regulate the phase of its forwarded signal, the two
interference contributions at the primary receiver -- the direct leakage
``A`` (source signal plus the relay's residual self-interference image) and
the relay's forwarded composite ``B`` -- can be steered to collide
destructively.  Rotating ``B`` by ``e^{-j phi}`` and picking
``phi = pi + angle(B) - angle(A)`` puts the two phasors in opposition, so the
best achievable interference power is exactly ``(|A| - |B|)^2``.

The feasibility analysis of the power subproblems replaces ``|B|`` with the
bound ``sqrt(3) * p_r_sqrt * |h_rp|`` (a three-term Cauchy-Schwarz estimate of
the relay's composite amplitude) and freezes the alignment phase, which turns
the constraint into a convex quadratic in square-root powers -- see
``ConvexifiedConstraint``.  The solver works on the exact signed gap |a| - |b|
instead, whose square is the interference: ``_gap_at``, in ``decompose``'s
operations, accepts points, and the cheaper scan kernel ``_scan_gap``, in
sqrt(p_s) and a few ulps of |a| + |b| from it, places the search's brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization, NetworkConfig, PowerAllocation, relay_gain

__all__ = [
    "CoherentDecomposition",
    "PhaseSolution",
    "ConvexifiedConstraint",
    "decompose",
    "optimal_phase",
    "interference_coh",
    "interference_coh_at_phase",
    "freeze_constraint",
    "convexified_interference",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CoherentDecomposition:
    """The two phasors whose sum is the received interference amplitude.

    a: source leakage plus the relay's residual self-interference image,
       h_sp*sqrt(p_s) + h_rp*sqrt(zeta*p_r).
    b: the relay's forwarded composite (desired signal + loop leakage + noise
       proxy), scaled by the true relay gain and the relay->primary channel:
       (h_sr*sqrt(p_s) + h_rr*sqrt(zeta*p_r) + sigma_relay*(1+1j)/sqrt(2))
       * G * h_rp * sqrt(p_r).
    phi_a, phi_b: their phases in radians (atan2 convention, (-pi, pi]).
    """

    a: complex
    b: complex
    phi_a: float
    phi_b: float


@dataclass(frozen=True)
class PhaseSolution:
    """Optimal forwarding phase and what it buys.

    phi_opt in [0, 2*pi); i_coh = (|a| - |b|)^2 is the interference power at
    that phase; delay is the equivalent timing offset phi_opt/(2*pi*f_s).
    """

    phi_opt: float
    i_coh: float
    delay: float


@dataclass(frozen=True)
class ConvexifiedConstraint:
    """Frozen quadratic stand-in for the phase-regulated interference.

    With the phase frozen at ``frozen_phi`` and |b| replaced by its
    Cauchy-Schwarz bound, the interference becomes
    (Re(h_sp)*ps + f1*pr)^2 + (Im(h_sp)*ps + f2*pr)^2 in square-root power
    coordinates (ps, pr) -- convex in each coordinate (curvatures
    2|h_sp|^2 and 2(f1^2+f2^2)).
    """

    f1: float
    f2: float
    frozen_phi: float


def decompose(alloc: PowerAllocation, channels: ChannelRealization, k: int,
              config: NetworkConfig) -> CoherentDecomposition:
    """Split the interference amplitude at the primary receiver into a + b.

    Uses the true relay gain, not the bound used for convexification.  The
    noise inside the relay's composite is represented by its fixed-phase
    proxy sigma_relay*(1+1j)/sqrt(2) (unit-variance direction, magnitude
    sigma_relay).
    """
    sps = math.sqrt(alloc.p_s)
    szr = math.sqrt(config.zeta * alloc.p_r)
    spr = math.sqrt(alloc.p_r)
    hrp = complex(channels.h_rp[k])
    a = complex(channels.h_sp) * sps + hrp * szr
    g = relay_gain(alloc, channels, k, config)
    noise = math.sqrt(config.sigma2_relay) * (1.0 + 1.0j) / math.sqrt(2.0)
    d = complex(channels.h_sr[k]) * sps + complex(channels.h_rr[k]) * szr + noise
    b = d * g * hrp * spr
    return CoherentDecomposition(a=a, b=b, phi_a=float(np.angle(a)), phi_b=float(np.angle(b)))


def optimal_phase(dec: CoherentDecomposition, sampling_freq: float = 1.0) -> PhaseSolution:
    """Best forwarding phase: put b in phase opposition to a.

    phi_opt = pi + phi_b - phi_a (mod 2*pi) minimizes |a + b*e^{-j phi}|^2,
    and the minimum is (|a| - |b|)^2.  With a = b = 0 any phase works; the
    convention phi_opt = pi (the formula's value at phi_a = phi_b) keeps the
    function total.  ``sampling_freq`` only converts the phase to a delay.
    """
    phi = (math.pi + dec.phi_b - dec.phi_a) % TWO_PI
    i_coh = (abs(dec.a) - abs(dec.b)) ** 2
    return PhaseSolution(phi_opt=phi, i_coh=float(i_coh),
                         delay=phi / (TWO_PI * sampling_freq))


def interference_coh(alloc: PowerAllocation, channels: ChannelRealization, k: int,
                     config: NetworkConfig) -> float:
    """Phase-regulated interference power at the primary receiver, (|a|-|b|)^2."""
    dec = decompose(alloc, channels, k, config)
    return (abs(dec.a) - abs(dec.b)) ** 2


def interference_coh_at_phase(alloc: PowerAllocation, channels: ChannelRealization,
                              k: int, config: NetworkConfig, phi: float) -> float:
    """Interference power |a + b*e^{-j phi}|^2 at an arbitrary phase (oracle hook)."""
    dec = decompose(alloc, channels, k, config)
    return abs(dec.a + dec.b * np.exp(-1j * phi)) ** 2


def freeze_constraint(ref_alloc: PowerAllocation, channels: ChannelRealization,
                      k: int, config: NetworkConfig) -> ConvexifiedConstraint:
    """Build the convex quadratic's coefficients at a reference allocation.

    f1/f2 combine the relay's residual-leakage direction h_rp*sqrt(zeta) with
    the bound sqrt(3)|h_rp| rotated by (phi_b - phi_opt); both are evaluated
    at the reference point's decomposition and then held fixed for one
    subproblem.
    """
    dec = decompose(ref_alloc, channels, k, config)
    sol = optimal_phase(dec, config.sampling_freq)
    psi = dec.phi_b - sol.phi_opt
    hrp = complex(channels.h_rp[k])
    root3_mag = math.sqrt(3.0) * abs(hrp)
    sz = math.sqrt(config.zeta)
    f1 = hrp.real * sz + root3_mag * math.cos(psi)
    f2 = hrp.imag * sz + root3_mag * math.sin(psi)
    return ConvexifiedConstraint(f1=f1, f2=f2, frozen_phi=sol.phi_opt)


def convexified_interference(p: tuple[float, float], channels: ChannelRealization,
                             k: int, config: NetworkConfig,
                             frozen: ConvexifiedConstraint) -> float:
    """Frozen convex quadratic in sqrt-power coordinates p = (ps, pr)."""
    ps, pr = p
    hsp = complex(channels.h_sp)
    return ((hsp.real * ps + frozen.f1 * pr) ** 2
            + (hsp.imag * ps + frozen.f2 * pr) ** 2)


# ----------------------------------------------------------------------------
# Broadcastable kernels (private): exact coherent interference over power grids.
# ----------------------------------------------------------------------------

def _gap_columns(pr, channels: ChannelRealization, k, config: NetworkConfig):
    """The terms of the signed gap |a| - |b| that depend on p_r alone: h_rp sqrt(zeta p_r),
    zeta p_r |h_rr|^2, h_rr sqrt(zeta p_r) and sqrt(p_r), for ``_gap_at`` at many
    source powers.  ``_scan_columns`` builds the scan kernel's terms from them."""
    pr = np.asarray(pr, dtype=float)
    zpr = config.zeta * pr
    szr = np.sqrt(zpr)
    return (channels.h_rp[k] * szr, zpr * channels.hrr2[k], channels.h_rr[k] * szr, np.sqrt(pr))


def _gap_at(ps, columns, channels: ChannelRealization, k, config: NetworkConfig):
    """The signed amplitude gap |a| - |b| at source POWERS ps, against ``_gap_columns``
    terms that broadcast with ps, in the order of ``decompose``'s operations.  The
    aligned interference is its square, so the feasible set is where it lies in
    [-sqrt(i_bar_p), sqrt(i_bar_p)].  ``k`` is a relay index, or an integer array of
    them that broadcasts against the powers."""
    hrp_szr, zpr_hrr2, hrr_szr, spr = columns
    ps = np.asarray(ps, dtype=float)
    sps = np.sqrt(ps)
    a = channels.h_sp * sps + hrp_szr
    g = 1.0 / np.sqrt(ps * channels.hsr2[k] + zpr_hrr2 + config.sigma2_relay)
    noise = math.sqrt(config.sigma2_relay) * (1.0 + 1.0j) / math.sqrt(2.0)
    d = channels.h_sr[k] * sps + hrr_szr + noise
    b = d * g * channels.h_rp[k] * spr
    return np.abs(a) - np.abs(b)


def _scan_columns(pr, channels: ChannelRealization, k, config: NetworkConfig):
    """``_scan_gap``'s per-column terms at relay POWERS pr: alpha = h_rp sqrt(zeta p_r),
    e = zeta p_r |h_rr|^2 + sigma_r^2, c1 = h_sr h_rp sqrt(p_r) and
    c2 = (h_rr sqrt(zeta p_r) + noise) h_rp sqrt(p_r)."""
    alpha, zpr_hrr2, hrr_szr, spr = _gap_columns(pr, channels, k, config)
    noise = math.sqrt(config.sigma2_relay) * (1.0 + 1.0j) / math.sqrt(2.0)
    w = channels.h_rp[k] * spr
    return alpha, zpr_hrr2 + config.sigma2_relay, channels.h_sr[k] * w, (hrr_szr + noise) * w


def _scan_gap(t, columns, channels: ChannelRealization, k):
    """The signed gap |a| - |b| at t = sqrt(p_s), against ``_scan_columns`` terms that
    broadcast with t: |h_sp t + alpha| - |c1 t + c2| / sqrt(|h_sr|^2 t^2 + e)."""
    alpha, e, c1, c2 = columns
    tc = np.asarray(t, dtype=complex)  # numpy casts t for each product otherwise
    b = c1 * tc
    b += c2
    gap = np.abs(b)
    gap /= np.sqrt(channels.hsr2[k] * (t * t) + e)
    return np.abs(channels.h_sp * tc + alpha) - gap


def _interference_coh_vals(ps, pr, channels: ChannelRealization, k,
                           config: NetworkConfig):
    """(|a| - |b|)^2 elementwise over broadcastable POWER arrays ps, pr."""
    return _gap_at(ps, _gap_columns(pr, channels, k, config), channels, k, config) ** 2
