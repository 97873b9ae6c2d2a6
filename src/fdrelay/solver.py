"""Per-relay power optimization, the lattice oracle, and relay selection.

The joint (p_s, p_r) problem is not convex, but in every scenario it is a
1-D problem.  At fixed p_r the exact rate log2(1 + x*y/(1 + x + y)) depends
on p_s only through the source->relay SINR y, which rises strictly in p_s,
and d/dy [x*y/(1 + x + y)] = x*(1 + x)/(1 + x + y)^2 > 0.  So the best
source power is the largest feasible one, ps_top(p_r), and the optimum is
max over p_r of R(ps_top(p_r), p_r).  ps_top is, per scenario:

* non-coherent: min(P_s', (Ibar - c p_r)/|h_sp|^2), with c = |h_rp|^2 (1 + zeta)
  and P_s' = min(P_s, Ibar/|h_sp|^2).  The rate falls in phi = 1/x + 1/y + 1/(xy),
  which is convex in p_r on both pieces, so each has a closed-form optimum,
  clipped to the piece: on the flat one phi = c0 + c1/p_r + c2 p_r is least at
  sqrt(s2d (P_s' |h_sr|^2 + s2r) / (|h_rd|^2 zeta_hat)); on the slope
  phi' = Q/(Ibar - c p_r)^2 - P/p_r^2 (P, Q > 0) vanishes at Ibar/(c + sqrt(Q/P)).
* half-duplex: the slot caps decouple and the rate rises in both powers,
  so the optimum is the corner (min(P_s, Ibar/|h_sp|^2), min(P_r, Ibar/|h_rp|^2));
* coherent: the top root of |a| - |b| = +-sqrt(Ibar) along p_s
  (``phase._amp_gap_vals``), bracketed for a whole p_r grid at once by
  scans of the gap's sign, which also finds feasible bands thinner than
  any grid cell.  Columns are ranked by the chord root of their brackets,
  and the winning column's bracket is then shrunk to a point.
  Where the winning column tops out at P_s, the edge p_s = P_s stops being
  feasible somewhere before the next column; nested scans along p_r find
  that kink, and its last feasible point is compared in.  The p_r search
  is a sqrt-spaced grid, then zoom rounds around the argmax.  The non-coherent
  optimum is compared in too, wherever it is coherent-feasible.  Every
  column's scan starts at the Cauchy-Schwarz cap ``_source_cap``, not at P_s.

Warm points are compared in as lower bounds, so cap sweeps are monotone by
construction.
Every returned allocation satisfies the box and the scenario's EXACT
interference constraint (within 1e-9 relative).  A coherent network solve
skips relays that a certified rate bound rules out (``solve_network``).

The lattice oracle (``brute_force``) evaluates the exact rate and the
scenario's interference load on a grid_n x grid_n power lattice.  Neither
depends on the cap, so ``_oracle_sweep`` builds both once and serves a whole
cap sweep by masking the load at each cap and taking the first maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, phase
from .model import ChannelRealization, NetworkConfig, PowerAllocation

__all__ = [
    "RelayResult",
    "SolveResult",
    "NONCOHERENT",
    "COHERENT",
    "HD_BASELINE",
    "alternate_optimize",
    "brute_force",
    "select_relay",
    "solve_network",
]

NONCOHERENT = "noncoherent"
COHERENT = "coherent"
HD_BASELINE = "hd-baseline"

_SCENARIO_ALIASES = {
    "noncoherent": NONCOHERENT, "non-coherent": NONCOHERENT, "noncoh": NONCOHERENT,
    "coherent": COHERENT, "coh": COHERENT,
    "hd-baseline": HD_BASELINE, "hd": HD_BASELINE, "half-duplex": HD_BASELINE,
}

_PR_GRID = 129          # sqrt-spaced relay powers in the first envelope scan
_ZOOM_GRID = 33         # relay powers per zoom round around the argmax
_ZOOM_ROUNDS = 2
_COLUMN_SCANS = (33, 17, 17)  # per coherent column: sqrt p_s grid, 2 refinements
_SHRINK_GRID = 257      # points per bracket-shrink scan on the winning column
_SHRINK_ROUNDS = 3      # bracket-shrink scans on the winning column
_UNIT = {n: np.linspace(0.0, 1.0, n) for n in (*_COLUMN_SCANS, _SHRINK_GRID)}
_BOUND_CELLS = 256      # sqrt p_r cells of the coherent rate bound


def _norm_scenario(scenario: str) -> str:
    try:
        return _SCENARIO_ALIASES[scenario.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown scenario {scenario!r}; expected one of "
                         f"{sorted(set(_SCENARIO_ALIASES.values()))}") from None


@dataclass(frozen=True)
class RelayResult:
    """Outcome of one per-relay solve."""

    relay: int
    scenario: str
    alloc: PowerAllocation
    rate: float            # exact achievable rate at alloc (always the reported figure)
    iterations: int        # coherent p_r zoom rounds, else 0 (skips too); the tracer reads it
    converged: bool        # always True; kept only because the benchmark's tracer reads it


@dataclass(frozen=True)
class SolveResult:
    """All per-relay results plus the selection."""

    scenario: str
    relays: tuple[RelayResult, ...]
    selected: int

    @property
    def best(self) -> RelayResult:
        return self.relays[self.selected]

    @property
    def rate(self) -> float:
        return self.best.rate


# ----------------------------------------------------------------------------
# The envelope engine.
# ----------------------------------------------------------------------------

def _gains(channels: ChannelRealization, k: int):
    """|h_sr|^2, |h_rd|^2, |h_sp|^2, |h_rp|^2 of relay k."""
    return (float(np.abs(channels.h_sr[k]) ** 2), float(np.abs(channels.h_rd[k]) ** 2),
            float(np.abs(channels.h_sp) ** 2), float(np.abs(channels.h_rp[k]) ** 2))


def _cap_ratio(budget: float, gain: float) -> float:
    """budget / gain, with a zero gain never binding."""
    return budget / gain if gain > 0.0 else math.inf


def _rate_fn(channels, k, config, scenario):
    """The scenario's exact rate as a broadcastable function of (p_s, p_r)."""
    hsr2, hrd2, _, _ = _gains(channels, k)
    s2r, s2d = config.sigma2_relay, config.sigma2_dest
    if scenario == HD_BASELINE:
        return lambda ps, pr: model._hd_rate_vals(ps, pr, hsr2, hrd2, s2r, s2d)
    zh = model.zeta_hat(channels, k, config)
    return lambda ps, pr: model._rate_exact_vals(ps, pr, hsr2, hrd2, zh, s2r, s2d)


def _slack_cap(i_bar_p: float) -> float:  # the cap with the solver's feasibility slack
    return i_bar_p * (1.0 + 1e-9) + 1e-12


def _load(ps, pr, channels, k, config, scenario):
    """The EXACT scenario constraint's left-hand side, elementwise; it does not
    depend on the cap (half duplex: the larger of the two slots' loads)."""
    _, _, hsp2, hrp2 = _gains(channels, k)
    if scenario == NONCOHERENT:
        return hsp2 * ps + hrp2 * (1.0 + config.zeta) * pr
    if scenario == COHERENT:
        return phase._interference_coh_vals(ps, pr, channels, k, config)
    return np.maximum(hsp2 * ps, hrp2 * pr)


def _feasible(ps, pr, channels, k, config, scenario):
    """Box and EXACT scenario constraint, elementwise, with the solver's slack."""
    ok = _load(ps, pr, channels, k, config, scenario) <= _slack_cap(config.i_bar_p)
    return (ok & (0.0 <= ps) & (ps <= config.p_s_max * (1 + 1e-12))
            & (0.0 <= pr) & (pr <= config.p_r_max * (1 + 1e-12)))


def _envelope(top, rate, pr_hi):
    """Maximize rate(ps_top(p_r), p_r) over p_r in [0, pr_hi] (coherent).

    ``top`` maps a p_r array to (ps_est, ps_lo, ps_hi) arrays: ps_est
    estimates ps_top and ranks the columns (negative where the column has no
    feasible point), ps_lo is at most ps_top and ps_hi bounds it from above
    (equal to ps_lo where ps_lo is exact).  Returns
    (value, p_r, ps_lo, ps_hi, next p_r on its grid) of the best column.
    """
    u = np.linspace(0.0, math.sqrt(pr_hi), _PR_GRID)
    best = (-1.0, 0.0, -1.0, -1.0, 0.0)
    for _ in range(_ZOOM_ROUNDS + 1):
        pr = u * u
        ps_est, ps_lo, ps_hi = top(pr)
        vals = np.where(ps_est >= 0.0, rate(np.maximum(ps_est, 0.0), pr), -1.0)
        j = int(np.argmax(vals))
        if vals[j] > best[0]:
            best = (float(vals[j]), float(pr[j]), float(ps_lo[j]), float(ps_hi[j]),
                    float(pr[min(j + 1, len(pr) - 1)]))
        u = np.linspace(u[max(j - 1, 0)], u[min(j + 1, len(u) - 1)], _ZOOM_GRID)
    return best


def _shrink(gap, pr, lo, hi, root, points):
    """One scan of each column's bracket [lo, hi] of sqrt source powers.

    Along p_s the signed gap |a| - |b| must stay in [-root, root].  With s the
    gap's sign at the bracket top, f = s*gap - root is > 0 where the top
    overshoots that level; the last scanned point with f <= 0 and its
    successor are the new bracket.  Returns (lo, hi, f at lo, f at hi):
    f(lo) > 0 means the column has no feasible point, f(lo) < -2*root that lo
    still lies below the lower level (only the top root is then feasible).
    """
    t = lo[:, None] + (hi - lo)[:, None] * _UNIT[points]
    g = gap(t * t, pr[:, None])
    f = np.copysign(1.0, g[:, -1:]) * g - root
    j = points - 1 - np.argmax(f[:, ::-1] <= 0.0, axis=1)
    rows, nxt = np.arange(len(pr)), np.minimum(j + 1, points - 1)
    return t[rows, j], t[rows, nxt], f[rows, j], f[rows, nxt]


def _last_feasible(ok, a, b):
    """Largest x in [a, b] with ok(x), to 1/(_SHRINK_GRID - 1)^_SHRINK_ROUNDS of
    b - a by nested scans, where ok holds from a up to one crossing."""
    for _ in range(_SHRINK_ROUNDS):
        x = np.linspace(a, b, _SHRINK_GRID)
        hits = np.flatnonzero(ok(x))
        if hits.size == 0:
            break
        j = int(hits[-1])
        a, b = float(x[j]), float(x[min(j + 1, len(x) - 1)])
    return a


def _source_cap(u, hsp2, hrp2, config):
    """sqrt(P_s), clipped to a bound on sqrt(p_s) of every coherent-feasible point at
    sqrt(p_r) = u (an array; ``_coherent_bound``); none if |h_sp| = 0 or Ibar = inf."""
    slope = math.sqrt(hrp2) * (math.sqrt(config.zeta) + math.sqrt(3.0))
    t = ((math.sqrt(_slack_cap(config.i_bar_p)) + slope * u)
         * _cap_ratio(1.0 + 1e-6, math.sqrt(hsp2)))
    return np.minimum(t, math.sqrt(config.p_s_max))


def _coherent_bound(channels, k, config) -> float:
    """Upper bound on relay k's coherent optimum and on any rate the solver reports.

    With t = sqrt(p_s), u = sqrt(p_r), a feasible point has |a| - |b| <= sqrt(Ibar)
    (with the solver's slack), |b| <= sqrt(3) |h_rp| u (Cauchy-Schwarz on the relay's
    composite) and |a| >= |h_sp| t - |h_rp| sqrt(zeta) u, so t <= t_ub(u) =
    (sqrt(Ibar) + |h_rp| (sqrt(zeta) + sqrt(3)) u) / |h_sp| (``_source_cap``, 1e-6
    margin), which rises in u: on a cell [u1, u2] of [0, sqrt(P_r)], p_s <= ps_ub =
    t_ub(u2)^2.  R rises in p_s; at fixed p_s it falls in the convex
    phi = c0 + c2 p_r + c1/p_r, c1 = s2d/|h_rd|^2 (1 + s2r/(|h_sr|^2 p_s)),
    c2 = zeta_hat/(|h_sr|^2 p_s), least at p_r = sqrt(c1/c2) (the cell top if
    zeta_hat = 0).  R(ps_ub, that p_r clipped to [u1^2, u2^2]) bounds the cell; the
    largest of the _BOUND_CELLS cells bounds relay k."""
    hsr2, hrd2, hsp2, hrp2 = _gains(channels, k)
    s2r, s2d = config.sigma2_relay, config.sigma2_dest
    zh = model.zeta_hat(channels, k, config)
    u = np.linspace(0.0, math.sqrt(config.p_r_max), _BOUND_CELLS + 1)
    ps = _source_cap(u[1:], hsp2, hrp2, config) ** 2
    with np.errstate(divide="ignore", over="ignore"):  # inf where zh |h_rd|^2 = 0
        pr = np.clip(np.sqrt(s2d * (ps * hsr2 + s2r) / (hrd2 * zh)), u[:-1] ** 2, u[1:] ** 2)
    return float(np.max(model._rate_exact_vals(ps, pr, hsr2, hrd2, zh, s2r, s2d)))


def _noncoherent_points(channels, k, config):
    """The exact minimizer of phi = 1/x + 1/y + 1/(xy) on each non-coherent envelope
    piece (module docstring); a zero |h_sr| or |h_rd| rates every point 0."""
    hsr2, hrd2, hsp2, hrp2 = _gains(channels, k)
    ibar, s2r, s2d = config.i_bar_p, config.sigma2_relay, config.sigma2_dest
    zh, c = model.zeta_hat(channels, k, config), hrp2 * (1.0 + config.zeta)
    pr_hi = min(config.p_r_max, _cap_ratio(ibar, c))
    ps_flat = min(config.p_s_max, _cap_ratio(ibar, hsp2))
    # where ps_top leaves ps_flat; 0 when the cap already binds at p_r = 0
    kink = max(0.0, min(pr_hi, _cap_ratio(ibar - hsp2 * ps_flat, c)))
    flat = math.sqrt(_cap_ratio(s2d * (ps_flat * hsr2 + s2r), hrd2 * zh))  # inf when zh = 0
    points = [(ps_flat, min(flat, kink))]
    if kink < pr_hi:  # never for |h_sp| = 0 or Ibar = inf
        # |h_sr|^2 |h_rd|^2 phi' = q/(ibar - c p_r)^2 - p/p_r^2 on the slope
        p = s2d * (hsr2 + hsp2 * s2r / ibar)
        q = hsp2 * (hrd2 * (zh * ibar + c * s2r) + s2d * c * (zh + c * s2r / ibar))
        pr = min(max(ibar / (c + math.sqrt(q / p)), kink), pr_hi)
        points.append((min(max((ibar - c * pr) / hsp2, 0.0), ps_flat), pr))
    return points


def _pick(channels, k, config, scenario, rate, cands, warm):
    """(p_s, p_r, rate) of the best feasible (p_s, p_r) candidate or warm allocation."""
    best, best_v = (0.0, 0.0), 0.0
    for p in cands + [(w.p_s, w.p_r) for w in warm]:
        if _feasible(p[0], p[1], channels, k, config, scenario) and rate(*p) > best_v:
            best, best_v = p, float(rate(*p))
    return (*best, best_v)


def _best_point(channels, k, config, scenario, warm):
    """(p_s, p_r, rate) of the best feasible point found for relay k."""
    _, _, hsp2, hrp2 = _gains(channels, k)
    ibar, ps_max, pr_max = config.i_bar_p, config.p_s_max, config.p_r_max
    rate = _rate_fn(channels, k, config, scenario)
    if scenario == HD_BASELINE:
        cands = [(min(ps_max, _cap_ratio(ibar, hsp2)), min(pr_max, _cap_ratio(ibar, hrp2)))]
    elif scenario == NONCOHERENT:
        cands = _noncoherent_points(channels, k, config)
    else:
        def gap(ps, pr):
            return phase._amp_gap_vals(ps, pr, channels, k, config)

        def top(pr):  # sqrt-spaced p_s scan of every column, then finer scans
            lo, hi = np.zeros_like(pr), _source_cap(np.sqrt(pr), hsp2, hrp2, config)
            for points in _COLUMN_SCANS:
                lo, hi, f_lo, f_hi = _shrink(gap, pr, lo, hi, root, points)
            with np.errstate(invalid="ignore"):  # Ibar = inf: f = -inf and lo == hi
                est = np.where(hi > lo, lo + (hi - lo) * f_lo / (f_lo - f_hi), lo)
            return np.where(f_lo <= 0.0, est * est, -1.0), lo * lo, hi * hi

        root = math.sqrt(ibar)
        _, pr, ps_lo, ps_hi, pr_next = _envelope(top, rate, pr_max)
        ps, lo, hi = ps_lo, np.sqrt([ps_lo]), np.sqrt([ps_hi])
        for _ in range(_SHRINK_ROUNDS if ps_lo < ps_hi else 0):
            lo, hi, f_lo, _ = _shrink(gap, np.array([pr]), lo, hi, root, _SHRINK_GRID)
            if f_lo[0] >= -2.0 * root:  # lo is above the lower level too
                ps = float(lo[0] * lo[0])
        cands = [(ps, pr)] + _noncoherent_points(channels, k, config)
        if ps_lo == ps_hi:  # the column tops out at P_s: where does that edge end?
            cands.append((ps_max, _last_feasible(
                lambda x: _feasible(ps_max, x, channels, k, config, COHERENT), pr, pr_next)))
    return _pick(channels, k, config, scenario, rate, cands, warm)


def _relay_result(k, scenario, point, iterations) -> RelayResult:
    ps, pr, rate = point
    return RelayResult(relay=k, scenario=scenario, rate=float(rate), converged=True,
                       alloc=PowerAllocation(float(ps), float(pr)), iterations=iterations)


# ----------------------------------------------------------------------------
# Public solver ops.
# ----------------------------------------------------------------------------

def alternate_optimize(channels: ChannelRealization, k: int, config: NetworkConfig,
                       scenario: str, warm_start=None) -> RelayResult:
    """Envelope solve for one relay, any scenario and any leakage (zeta_hat
    == 0 included).  The returned allocation is exactly feasible.
    ``warm_start`` may be a PowerAllocation or a sequence of them; feasible
    warm points lower-bound the result."""
    scenario = _norm_scenario(scenario)
    warm = [warm_start] if isinstance(warm_start, PowerAllocation) else list(warm_start or ())
    search = config.i_bar_p > 0.0  # a zero cap admits only the all-zero allocation
    point = _best_point(channels, k, config, scenario, warm) if search else (0, 0, 0)
    return _relay_result(k, scenario, point,
                         _ZOOM_ROUNDS if search and scenario == COHERENT else 0)


def _oracle_sweep(channels, k, config, scenario, caps, grid_n):
    """``brute_force`` at each interference cap in ``caps`` (config.i_bar_p is
    not read): the rate and load lattices do not depend on the cap, so they are
    built once and each cap only masks them and takes the first maximum."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    scenario = _norm_scenario(scenario)
    ps = np.linspace(0.0, config.p_s_max, grid_n)
    pr = np.linspace(0.0, config.p_r_max, grid_n)
    grid_ps, grid_pr = ps[:, None], pr[None, :]
    # linspace ends exactly at the box corner, within _feasible's 1e-12 box
    # slack, so the cap is the only mask the lattice needs
    rate = _rate_fn(channels, k, config, scenario)(grid_ps, grid_pr)
    load = _load(grid_ps, grid_pr, channels, k, config, scenario)
    results = []
    for cap in caps:
        masked = np.where(load <= _slack_cap(cap), rate, -1.0)
        j = int(np.argmax(masked))  # (0, 0) is always feasible, so masked.flat[j] >= 0
        results.append(_relay_result(
            k, scenario, (ps[j // grid_n], pr[j % grid_n], masked.flat[j]), 0))
    return results


def brute_force(channels: ChannelRealization, k: int, config: NetworkConfig,
                scenario: str, grid_n: int = 201) -> RelayResult:
    """Exhaustive lattice oracle: exact rate on a grid_n x grid_n power box,
    exact scenario constraint, first-maximum tie-break (deterministic).  The
    lattice is ``_oracle_sweep``'s, which serves a whole cap sweep at once."""
    return _oracle_sweep(channels, k, config, scenario, (config.i_bar_p,), grid_n)[0]


def select_relay(results) -> SolveResult:
    """Pick the relay with the highest achieved rate (ties -> lowest index)."""
    results = list(results)
    if not results:
        raise ValueError("select_relay needs at least one per-relay result")
    return SolveResult(scenario=results[0].scenario, relays=tuple(results),
                       selected=int(np.argmax([r.rate for r in results])))


def solve_network(channels: ChannelRealization, config: NetworkConfig,
                  scenario: str, warm: SolveResult | None = None) -> SolveResult:
    """Solve the relays and select.

    ``warm`` (one SolveResult or a sequence of them) recycles previous
    per-relay allocations as lower bounds: each result is at least as good as
    its best feasible warm point, which makes interference cap sweeps
    monotone.

    A coherent solve over several relays takes them in descending order of
    ``_coherent_bound`` and skips a relay whose bound is below a rate already
    solved: it cannot win, so the selection and its rate, tie-break included,
    are those of solving every relay.  A skipped relay's RelayResult
    (iterations=0) is its best feasible non-coherent closed-form or warm
    point, a lower bound on its optimum, not the optimum.
    """
    scenario = _norm_scenario(scenario)
    warms = [warm] if isinstance(warm, SolveResult) else list(warm or [])
    warms = [w for w in warms if w is not None]
    relays = range(channels.num_relays)
    bounds = ([_coherent_bound(channels, k, config) for k in relays]
              if scenario == COHERENT and len(relays) > 1 else [math.inf] * len(relays))
    results, best = [None] * len(relays), -math.inf
    for k in sorted(relays, key=bounds.__getitem__, reverse=True):  # ties keep index order
        warm_k = [w.relays[k].alloc for w in warms]
        if bounds[k] * (1.0 + 1e-9) < best:
            point = _pick(channels, k, config, scenario,
                          _rate_fn(channels, k, config, scenario),
                          _noncoherent_points(channels, k, config), warm_k)
            results[k] = _relay_result(k, scenario, point, 0)
        else:
            results[k] = alternate_optimize(channels, k, config, scenario, warm_start=warm_k)
            best = max(best, results[k].rate)
    return select_relay(results)
