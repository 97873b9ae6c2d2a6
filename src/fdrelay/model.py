"""Core network model: configuration, channel draws, rate and interference.

The setting is an underlay secondary link: a source reaches its destination
through one full-duplex amplify-and-forward relay picked from ``num_relays``
candidates, while a nearby primary receiver tolerates at most ``i_bar_p`` of
aggregate interference power.  Because the relay transmits while it receives,
a fraction ``zeta`` of its transmit power leaks back into its own input after
self-interference cancellation; the loop channel ``h_rr`` scales that leakage
into the effective loop gain ``zeta_hat = |h_rr|^2 * zeta``.

Everything in this module is a pure function of (allocation, channels, relay
index, config).  Broadcastable kernels used by the solvers live at the bottom
(underscore-prefixed); the public API is scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfigError",
    "ZetaHatZero",
    "NetworkConfig",
    "ChannelRealization",
    "PowerAllocation",
    "db_to_linear",
    "linear_to_db",
    "sample_channels",
    "zeta_hat",
    "relay_gain",
    "rate_exact",
    "rate_noncoh_obj",
    "rate_noncoh_obj_zeta_zero",
    "rate_coh_obj",
    "rate_hd",
    "interference_noncoh",
]


class ConfigError(ValueError):
    """A NetworkConfig field is out of range or inconsistent."""


class ZetaHatZero(ValueError):
    """The interference-limited surrogate was requested where zeta_hat == 0.

    With no residual loop leakage the surrogate's defining approximation
    (drop the relay noise next to the loop term) divides by zero; callers
    must route to the dedicated zero-leakage path instead.
    """


def db_to_linear(x_db):
    """dB -> linear power ratio. Works elementwise on arrays."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0) if np.ndim(x_db) else 10.0 ** (float(x_db) / 10.0)


def linear_to_db(x):
    """Linear power ratio -> dB. Works elementwise on arrays."""
    return 10.0 * np.log10(x)


@dataclass(frozen=True)
class NetworkConfig:
    """All scalar parameters of the network (linear units unless noted).

    ``var_sp_range`` / ``var_rp_range`` are the intervals the per-realization
    variances of the two interfering links (source->primary, relay->primary)
    are drawn from; every other link has a fixed variance.  ``sampling_freq``
    only matters when converting an alignment phase to a delay in seconds.
    """

    num_relays: int
    zeta: float
    p_s_max: float
    p_r_max: float
    i_bar_p: float
    sigma2_relay: float = 1.0
    sigma2_dest: float = 1.0
    var_sr: float = 1.0
    var_rd: float = 1.0
    var_sd: float = 0.1
    var_rr: float = 1.0
    var_sp_range: tuple[float, float] = (0.8, 1.0)
    var_rp_range: tuple[float, float] = (0.8, 1.0)
    sampling_freq: float = 1.0e6

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_sp_range", tuple(float(v) for v in self.var_sp_range))
        object.__setattr__(self, "var_rp_range", tuple(float(v) for v in self.var_rp_range))
        if not isinstance(self.num_relays, int) or isinstance(self.num_relays, bool) or self.num_relays < 1:
            raise ConfigError(f"num_relays must be a positive integer, got {self.num_relays!r}")
        if not (self.zeta >= 0.0 and math.isfinite(self.zeta)):
            raise ConfigError(f"zeta must be finite and >= 0, got {self.zeta!r}")
        for name in ("p_s_max", "p_r_max", "sigma2_relay", "sigma2_dest",
                     "var_sr", "var_rd", "var_sd", "var_rr", "sampling_freq"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ConfigError(f"{name} must be finite and > 0, got {val!r}")
        # i_bar_p == 0 is a meaningful cap (it forces the all-zero allocation),
        # and i_bar_p == inf means no interference cap at all.
        if not self.i_bar_p >= 0.0:
            raise ConfigError(f"i_bar_p must be >= 0, got {self.i_bar_p!r}")
        for name in ("var_sp_range", "var_rp_range"):
            lo, hi = getattr(self, name)
            if not (0.0 < lo <= hi and math.isfinite(hi)):
                raise ConfigError(f"{name} must satisfy 0 < lo <= hi < inf, "
                                  f"got ({lo!r}, {hi!r})")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every complex channel coefficient for ``num_relays`` relays.

    Arrays are frozen (non-writeable) after construction.  ``seed`` is the
    RNG seed that produced the draw; regenerating with the same seed and the
    same config fields yields bit-identical coefficients.

    The squared magnitudes every rate and interference formula reads are
    computed once, at construction: ``hsr2``, ``hrd2``, ``hrp2``, ``hrr2``
    (read-only K-arrays) and ``hsp2`` (a float).  They are derived attributes,
    not dataclass fields, so they stay out of the constructor, ``repr``,
    equality, ``dataclasses.replace`` and the channel digest.
    Each array is ``np.abs(h) ** 2`` over the link's coefficients, so its last
    bit may depend on numpy's SIMD dispatch; what results promise across
    dispatch levels is the pinned CSV bytes (README, "Reproducibility").
    """

    seed: int
    h_sp: complex        # source -> primary receiver
    h_sd: complex        # source -> destination (sampled, unused by the rate by assumption)
    h_sr: np.ndarray     # source -> relay k, shape (K,)
    h_rd: np.ndarray     # relay k -> destination
    h_rp: np.ndarray     # relay k -> primary receiver
    h_rr: np.ndarray     # relay k loop (transmit antenna -> own receive antenna)
    var_sp: float        # the variance actually drawn for h_sp
    var_rp: np.ndarray   # per-relay variances drawn for h_rp

    def __post_init__(self) -> None:
        k = self.h_sr.shape[0]
        for name in ("h_rd", "h_rp", "h_rr", "var_rp"):
            arr = getattr(self, name)
            if arr.shape != (k,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({k},)")
        for name in ("h_sp", "h_sd", "h_sr", "h_rd", "h_rp", "h_rr"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has a NaN or infinite coefficient")
        for name in ("h_sr", "h_rd", "h_rp", "h_rr"):
            gains = np.abs(getattr(self, name)) ** 2
            object.__setattr__(self, name.replace("_", "") + "2", gains)
        object.__setattr__(self, "hsp2", float(np.abs(self.h_sp) ** 2))
        for name in ("h_sr", "h_rd", "h_rp", "h_rr", "var_rp", "hsr2", "hrd2", "hrp2", "hrr2"):
            getattr(self, name).setflags(write=False)

    @property
    def num_relays(self) -> int:
        return int(self.h_sr.shape[0])


@dataclass(frozen=True)
class PowerAllocation:
    """A candidate transmit-power point (source, relay), linear watts."""

    p_s: float
    p_r: float

    def __post_init__(self) -> None:
        if not (self.p_s >= 0.0 and self.p_r >= 0.0):
            raise ValueError(f"powers must be >= 0, got ({self.p_s!r}, {self.p_r!r})")


def sample_channels(config: NetworkConfig, seed: int) -> ChannelRealization:
    """Draw one realization of all channel coefficients.

    Every link is flat Rayleigh fading: coefficients are circularly-symmetric
    complex Gaussian, variance per the config.  The variances of the two
    links into the primary receiver are themselves uniform draws from the
    configured intervals (one draw for the source link, one per relay).

    The draw order below is a compatibility contract -- reordering it would
    silently change every seeded experiment and its row digests:
    var_sp, var_rp[K], then coefficients h_sp, h_sd, h_sr[K], h_rd[K],
    h_rp[K], h_rr[K], each via (randn + 1j*randn) * sqrt(var/2).
    """
    k = config.num_relays
    rng = np.random.default_rng(seed)
    var_sp = float(rng.uniform(*config.var_sp_range))
    var_rp = rng.uniform(config.var_rp_range[0], config.var_rp_range[1], size=k)

    def cn(var, size=None):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return z * np.sqrt(np.asarray(var) / 2.0)

    h_sp = complex(cn(var_sp))
    h_sd = complex(cn(config.var_sd))
    h_sr = cn(config.var_sr, k)
    h_rd = cn(config.var_rd, k)
    h_rp = cn(var_rp, k)
    h_rr = cn(config.var_rr, k)
    return ChannelRealization(seed=int(seed), h_sp=h_sp, h_sd=h_sd, h_sr=h_sr,
                              h_rd=h_rd, h_rp=h_rp, h_rr=h_rr,
                              var_sp=var_sp, var_rp=var_rp)


def zeta_hat(channels: ChannelRealization, k: int, config: NetworkConfig) -> float:
    """Effective loop-leakage gain |h_rr[k]|^2 * zeta (>= 0)."""
    return float(channels.hrr2[k] * config.zeta)


def relay_gain(alloc: PowerAllocation, channels: ChannelRealization, k: int,
               config: NetworkConfig) -> float:
    """Amplification gain that normalizes the relay's input power to one.

    G = (p_s*|h_sr|^2 + zeta*p_r*|h_rr|^2 + sigma2_relay)^(-1/2); the noise
    floor keeps it finite at the all-zero allocation.  Decreasing in both
    powers.
    """
    return float(1.0 / np.sqrt(alloc.p_s * float(channels.hsr2[k])
                               + config.zeta * alloc.p_r * float(channels.hrr2[k])
                               + config.sigma2_relay))


def rate_exact(alloc: PowerAllocation, channels: ChannelRealization, k: int,
               config: NetworkConfig) -> float:
    """End-to-end achievable rate (bits/s/Hz) through relay k.

    log2(1 + x*y/(1 + x + y)) with x the relay->destination SNR and y the
    source->relay SINR (loop leakage zeta_hat*p_r sits in y's noise).  The
    weak direct source->destination path is ignored by modeling assumption.
    Zero iff either power is zero.
    """
    hsr2, hrd2 = float(channels.hsr2[k]), float(channels.hrd2[k])
    zh = zeta_hat(channels, k, config)
    return float(_rate_exact_vals(alloc.p_s, alloc.p_r, hsr2, hrd2, zh,
                                  config.sigma2_relay, config.sigma2_dest))


def rate_noncoh_obj(alloc: PowerAllocation, channels: ChannelRealization, k: int,
                    config: NetworkConfig) -> float:
    """Interference-limited surrogate objective (an SINR-style fraction).

    Drops the relay noise floor next to the loop-leakage term zeta_hat*p_r,
    which makes the reciprocal of this fraction a sum of simple reciprocals
    -- the structure the per-variable-convexity analysis feeds on.  Defined
    by continuous extension as 0 on the boundary p_s = 0 or p_r = 0.

    Raises ZetaHatZero where the loop leakage vanishes (the approximation
    divides by zeta_hat * p_r).
    """
    zh = zeta_hat(channels, k, config)
    if zh == 0.0:
        raise ZetaHatZero(f"relay {k}: zeta_hat == 0; use the zero-leakage path")
    hsr2, hrd2 = float(channels.hsr2[k]), float(channels.hrd2[k])
    return float(_noncoh_obj_vals(alloc.p_s, alloc.p_r, hsr2, hrd2, zh,
                                  config.sigma2_dest))


def rate_noncoh_obj_zeta_zero(alloc: PowerAllocation, channels: ChannelRealization,
                              k: int, config: NetworkConfig) -> float:
    """Noise-limited surrogate used where zeta_hat == 0 (high-SNR form).

    x*y/(x + y) with x, y the two hop SNRs -- the exact fraction with its
    "+1" dropped.  Continuous extension 0 on the boundary.
    """
    hsr2, hrd2 = float(channels.hsr2[k]), float(channels.hrd2[k])
    x = alloc.p_r * hrd2 / config.sigma2_dest
    y = alloc.p_s * hsr2 / config.sigma2_relay
    if x <= 0.0 or y <= 0.0:
        return 0.0
    return float(x * y / (x + y))


def rate_coh_obj(p: tuple[float, float], channels: ChannelRealization, k: int,
                 config: NetworkConfig) -> float:
    """Surrogate objective in square-root power coordinates.

    ``p = (sqrt(p_s), sqrt(p_r))``.  Pure reparameterization: equals
    rate_noncoh_obj at the squared point.  The square-root coordinates are
    the ones in which the phase-regulated interference constraint becomes a
    quadratic form.
    """
    ps_sqrt, pr_sqrt = p
    if ps_sqrt < 0.0 or pr_sqrt < 0.0:
        raise ValueError("sqrt-power coordinates must be >= 0")
    return rate_noncoh_obj(PowerAllocation(ps_sqrt * ps_sqrt, pr_sqrt * pr_sqrt),
                           channels, k, config)


def rate_hd(alloc: PowerAllocation, channels: ChannelRealization, k: int,
            config: NetworkConfig) -> float:
    """Half-duplex comparator rate: two time slots, no loop leakage.

    0.5 * log2(1 + x*y/(1+x+y)) with the zeta_hat = 0 SINR; the 1/2 is the
    spectral-efficiency price of separate receive/transmit slots.
    """
    hsr2, hrd2 = float(channels.hsr2[k]), float(channels.hrd2[k])
    return 0.5 * float(_rate_exact_vals(alloc.p_s, alloc.p_r, hsr2, hrd2, 0.0,
                                        config.sigma2_relay, config.sigma2_dest))


def interference_noncoh(alloc: PowerAllocation, channels: ChannelRealization,
                        k: int, config: NetworkConfig) -> float:
    """Aggregate interference power at the primary receiver, no phase control.

    |h_sp|^2 p_s + |h_rp|^2 p_r (1 + zeta): the relay's forwarded signal
    (whose gain normalization makes its radiated power exactly p_r) plus its
    residual self-interference re-broadcast, zeta * p_r.  Linear in both
    powers.
    """
    return (channels.hsp2 * alloc.p_s
            + float(channels.hrp2[k]) * alloc.p_r * (1.0 + config.zeta))


# ----------------------------------------------------------------------------
# Broadcastable kernels (private). All magnitudes pre-squared, all floats.
# ----------------------------------------------------------------------------

def _rate_exact_vals(ps, pr, hsr2, hrd2, zhat, s2_relay, s2_dest):
    """Exact rate, elementwise over broadcastable ps/pr arrays."""
    ps = np.asarray(ps, dtype=float)
    pr = np.asarray(pr, dtype=float)
    x = pr * hrd2 / s2_dest
    y = ps * hsr2 / (zhat * pr + s2_relay)
    return np.log2(1.0 + x * y / (1.0 + x + y))


def _noncoh_obj_vals(ps, pr, hsr2, hrd2, zhat, s2_dest):
    """Interference-limited surrogate fraction, elementwise; 0 on the boundary."""
    ps = np.asarray(ps, dtype=float)
    pr = np.asarray(pr, dtype=float)
    x = pr * hrd2 / s2_dest
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(pr > 0.0, ps * hsr2 / (zhat * np.where(pr > 0.0, pr, 1.0)), np.inf)
        out = x * y / (1.0 + x + y)
    # boundary: pr = 0 gives x = 0, y = inf -> limit 0; ps = 0 gives y = 0.
    out = np.where((pr > 0.0) & (ps > 0.0), out, 0.0)
    return out


def _hd_rate_vals(ps, pr, hsr2, hrd2, s2_relay, s2_dest):
    return 0.5 * _rate_exact_vals(ps, pr, hsr2, hrd2, 0.0, s2_relay, s2_dest)
