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
* coherent: first the power-box maximizer (P_s, p_r*), with p_r* the flat
  piece's minimizer above at P_s' = P_s, clipped to P_r (``_flat_pr``): phi
  is convex in p_r at p_s = P_s, so no point of the box rates higher, and
  where that point meets the exact coherent constraint it is the optimum (a
  certificate; nothing is searched).
  Otherwise, the top root of |a| - |b| = +-sqrt(Ibar) along p_s
  (``phase._amp_gap_vals``), bracketed for a whole p_r grid at once by
  scans of the gap's sign, which also finds feasible bands thinner than
  any grid cell.  The gap's p_r terms are built once per column
  (``phase._gap_columns``), and a column whose bracket has closed (lo == hi:
  its top is kept) is left out of the round's later scans, which would return
  it unchanged.  Columns are ranked by the chord root of their brackets,
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

``solve_network`` does its per-relay work for all relays at once, as one
broadcast over (relays x candidates) with a relay per row: the non-coherent
and half-duplex closed forms and their pick among the candidate points, the
coherent rate bounds, and the pick of the relays that bound skips.  Only the
coherent envelope search runs relay by relay.  ``alternate_optimize`` runs the
same broadcast on one relay, whose gains are numpy scalars.

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
    iterations: int        # 2 per solved coherent relay (certified or searched), else 0
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

def _gains(channels: ChannelRealization, k, config):
    """|h_sr|^2, |h_rd|^2, |h_sp|^2, |h_rp|^2 and zeta_hat of relay k.  ``k`` is an
    index, or an (n, 1) index array: the gains are then columns that broadcast
    against (relays, candidates) arrays, one relay per row."""
    return (channels.hsr2[k], channels.hrd2[k], channels.hsp2, channels.hrp2[k],
            channels.hrr2[k] * config.zeta)


def _cap_ratio(budget, gain):
    """budget / gain elementwise, with a zero gain never binding (inf)."""
    if not isinstance(gain, np.ndarray):  # one relay's or the source's gain
        return budget / gain if gain > 0.0 else math.inf
    return np.divide(budget, gain, out=np.full(np.broadcast(budget, gain).shape, math.inf),
                     where=gain > 0.0)


def _rate_fn(channels, k, config, scenario):
    """The scenario's exact rate as a broadcastable function of (p_s, p_r)."""
    hsr2, hrd2, _, _, zh = _gains(channels, k, config)
    s2r, s2d = config.sigma2_relay, config.sigma2_dest
    if scenario == HD_BASELINE:
        return lambda ps, pr: model._hd_rate_vals(ps, pr, hsr2, hrd2, s2r, s2d)
    return lambda ps, pr: model._rate_exact_vals(ps, pr, hsr2, hrd2, zh, s2r, s2d)


def _slack_cap(i_bar_p: float) -> float:  # the cap with the solver's feasibility slack
    return i_bar_p * (1.0 + 1e-9) + 1e-12


def _load(ps, pr, channels, k, config, scenario):
    """The EXACT scenario constraint's left-hand side, elementwise; it does not
    depend on the cap (half duplex: the larger of the two slots' loads)."""
    _, _, hsp2, hrp2, _ = _gains(channels, k, config)
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


def _shrink(gap, columns, lo, hi, root, points):
    """One scan of each column's bracket [lo, hi] of sqrt source powers, with
    ``gap(ps, columns)`` the signed gap at (columns x points) source powers ps and
    ``columns`` the columns' ``phase._gap_columns`` terms.

    Along p_s the signed gap |a| - |b| must stay in [-root, root].  With s the
    gap's sign at the bracket top, f = s*gap - root is > 0 where the top
    overshoots that level; the last scanned point with f <= 0 and its
    successor are the new bracket.  Returns (lo, hi, f at lo, f at hi):
    f(lo) > 0 means the column has no feasible point, f(lo) < -2*root that lo
    still lies below the lower level (only the top root is then feasible).
    lo == hi only where the top was kept (f(top) <= 0, or f > 0 everywhere),
    and a further scan of such a column returns it unchanged.
    """
    t = lo[:, None] + (hi - lo)[:, None] * _UNIT[points]
    g = gap(t * t, columns)
    f = np.copysign(1.0, g[:, -1:]) * g - root
    j = points - 1 - np.argmax(f[:, ::-1] <= 0.0, axis=1)
    rows, nxt = np.arange(len(lo)), np.minimum(j + 1, points - 1)
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
    slope = np.sqrt(hrp2) * (math.sqrt(config.zeta) + math.sqrt(3.0))
    t = ((math.sqrt(_slack_cap(config.i_bar_p)) + slope * u)
         * _cap_ratio(1.0 + 1e-6, math.sqrt(hsp2)))
    return np.minimum(t, math.sqrt(config.p_s_max))


def _flat_pr(ps, hsr2, hrd2, zh, config):
    """argmin over p_r of phi = c0 + c2 p_r + c1/p_r at source power ps, sqrt(c1/c2) =
    sqrt(s2d (ps |h_sr|^2 + s2r) / (|h_rd|^2 zeta_hat)); inf where zeta_hat |h_rd|^2 = 0."""
    return np.sqrt(_cap_ratio(config.sigma2_dest * (ps * hsr2 + config.sigma2_relay),
                              hrd2 * zh))


def _coherent_bound(channels, k, config):
    """Upper bound on relay k's coherent optimum and on any rate the solver reports;
    one bound per row for an (n, 1) index array k.

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
    hsr2, hrd2, hsp2, hrp2, zh = _gains(channels, k, config)
    s2r, s2d = config.sigma2_relay, config.sigma2_dest
    u = np.linspace(0.0, math.sqrt(config.p_r_max), _BOUND_CELLS + 1)
    ps = _source_cap(u[1:], hsp2, hrp2, config) ** 2
    pr = np.clip(_flat_pr(ps, hsr2, hrd2, zh, config), u[:-1] ** 2, u[1:] ** 2)
    return np.max(model._rate_exact_vals(ps, pr, hsr2, hrd2, zh, s2r, s2d), axis=-1)


def _noncoherent_points(channels, k, config):
    """The exact minimizers of phi = 1/x + 1/y + 1/(xy) on the flat, then on the
    sloped non-coherent envelope piece (module docstring) of relay k (``_gains``),
    as [(p_s, p_r), (p_s, p_r)]; where the cap leaves no slope, the slope's point
    is the flat one's.  Needs Ibar > 0.  A zero |h_sr| or |h_rd| rates every point 0."""
    hsr2, hrd2, hsp2, hrp2, zh = _gains(channels, k, config)
    # Python's min, max and conditional take one relay's numpy-scalar gains several
    # times faster than ufuncs do, with the same result (a NaN only ever comes first)
    lo, hi, where = ((np.minimum, np.maximum, np.where) if isinstance(k, np.ndarray)
                     else (min, max, lambda m, a, b: a if m else b))
    ibar, s2r, s2d = config.i_bar_p, config.sigma2_relay, config.sigma2_dest
    c = hrp2 * (1.0 + config.zeta)
    pr_hi = lo(config.p_r_max, _cap_ratio(ibar, c))
    ps_flat = lo(config.p_s_max, _cap_ratio(ibar, hsp2))
    # where ps_top leaves ps_flat; 0 when the cap already binds at p_r = 0
    kink = lo(pr_hi, _cap_ratio(max(ibar - hsp2 * ps_flat, 0.0), c))
    flat = _flat_pr(ps_flat, hsr2, hrd2, zh, config)
    with np.errstate(all="ignore"):  # discarded wherever there is no slope
        # |h_sr|^2 |h_rd|^2 phi' = q/(ibar - c p_r)^2 - p/p_r^2 on the slope
        p = s2d * (hsr2 + hsp2 * s2r / ibar)
        q = hsp2 * (hrd2 * (zh * ibar + c * s2r) + s2d * c * (zh + c * s2r / ibar))
        pr = lo(hi(ibar / (c + np.sqrt(q / p)), kink), pr_hi)
        ps = lo(hi((ibar - c * pr) / hsp2, 0.0), ps_flat)
    slope = kink < pr_hi  # never for |h_sp| = 0 or Ibar = inf
    flat = (ps_flat, lo(flat, kink))
    return [flat, (where(slope, ps, flat[0]), where(slope, pr, flat[1]))]


def _pick(channels, k, config, scenario, points):
    """(p_s, p_r, rate) arrays, one per relay of k (``_gains``), of the best feasible
    (p_s, p_r) of ``points`` (scalars or (n, 1) columns): starting from (0, 0) at
    rate 0, the first point whose rate is strictly higher.  One broadcast over
    (relays x candidates)."""
    n = len(k) if isinstance(k, np.ndarray) else 1
    ps, pr = np.zeros((2, n, 1 + len(points)))
    for j, (a, b) in enumerate(points, 1):  # column 0 holds (0, 0)
        ps[:, j:j + 1], pr[:, j:j + 1] = a, b
    rate = _rate_fn(channels, k, config, scenario)(ps, pr)
    rate = np.where(_feasible(ps, pr, channels, k, config, scenario) & (rate > 0.0),
                    rate, 0.0)
    i, j = np.arange(n), rate.argmax(axis=1)
    return ps[i, j], pr[i, j], rate[i, j]


def _closed_form(channels, k, config, scenario, warm):
    """``_pick`` of relay k's (``_gains``) non-coherent or half-duplex closed-form
    optimum against the ``warm`` points; (0, 0) in any scenario at a zero cap."""
    if config.i_bar_p <= 0.0:  # a zero cap admits only the all-zero allocation
        return _pick(channels, k, config, scenario, [])
    if scenario == NONCOHERENT:
        points = _noncoherent_points(channels, k, config)
    else:  # half duplex: the decoupled corner
        _, _, hsp2, hrp2, _ = _gains(channels, k, config)
        points = [(min(config.p_s_max, _cap_ratio(config.i_bar_p, hsp2)),
                   np.minimum(config.p_r_max, _cap_ratio(config.i_bar_p, hrp2)))]
    return _pick(channels, k, config, scenario, points + warm)


def _best_point(channels, k, config, warm):
    """(p_s, p_r, rate) of the best coherent-feasible point found for relay k, the
    (p_s, p_r) ``warm`` points included.  The whole coherent search (module
    docstring) is here: the power-box maximizer's certificate, then the p_r grid
    and its zoom rounds, each column's bracket of sqrt(ps_top) ranked by its chord
    root, the winning column's shrink and top-edge kink, and the final ``_pick``
    against the non-coherent optimum."""
    hsr2, hrd2, hsp2, hrp2, zh = _gains(channels, k, config)
    root, ps_max = math.sqrt(config.i_bar_p), config.p_s_max
    top = (ps_max, min(config.p_r_max, _flat_pr(ps_max, hsr2, hrd2, zh, config)))
    if _feasible(*top, channels, k, config, COHERENT):  # it beats every box point
        return tuple(v[0] for v in _pick(channels, k, config, COHERENT, [top] + warm))
    rate = _rate_fn(channels, k, config, COHERENT)

    def gap(ps, columns):
        return phase._gap_at(ps, columns, channels, k, config)

    u = np.linspace(0.0, math.sqrt(config.p_r_max), _PR_GRID)
    best, (pr, ps_lo, ps_hi, pr_next) = -1.0, (0.0, -1.0, -1.0, 0.0)
    for _ in range(_ZOOM_ROUNDS + 1):
        cols = u * u
        columns = phase._gap_columns(cols[:, None], channels, k, config)
        lo, hi, f_lo, f_hi = _shrink(gap, columns, np.zeros_like(cols), _source_cap(
            np.sqrt(cols), hsp2, hrp2, config), root, _COLUMN_SCANS[0])
        for points in _COLUMN_SCANS[1:]:  # a closed bracket (lo == hi) stays as it is
            o = np.flatnonzero(hi > lo)
            if o.size == 0:
                break
            lo[o], hi[o], f_lo[o], f_hi[o] = _shrink(
                gap, [c[o] for c in columns], lo[o], hi[o], root, points)
        with np.errstate(invalid="ignore"):  # Ibar = inf: f = -inf and lo == hi
            est = np.where(hi > lo, lo + (hi - lo) * f_lo / (f_lo - f_hi), lo)
        ps_est = np.where(f_lo <= 0.0, est * est, -1.0)
        vals = np.where(ps_est >= 0.0, rate(np.maximum(ps_est, 0.0), cols), -1.0)
        j = int(np.argmax(vals))
        nxt = min(j + 1, len(cols) - 1)
        if vals[j] > best:  # keep the column's p_s bracket and the next p_r on its grid
            best, pr, pr_next = float(vals[j]), float(cols[j]), float(cols[nxt])
            ps_lo, ps_hi = float(lo[j] * lo[j]), float(hi[j] * hi[j])
        u = np.linspace(u[max(j - 1, 0)], u[nxt], _ZOOM_GRID)
    ps, lo, hi = ps_lo, np.sqrt([ps_lo]), np.sqrt([ps_hi])
    columns = phase._gap_columns(np.array([[pr]]), channels, k, config)
    for _ in range(_SHRINK_ROUNDS if ps_lo < ps_hi else 0):
        lo, hi, f_lo, _ = _shrink(gap, columns, lo, hi, root, _SHRINK_GRID)
        if f_lo[0] >= -2.0 * root:  # lo is above the lower level too
            ps = float(lo[0] * lo[0])
    points = [(ps, pr), *_noncoherent_points(channels, k, config)]
    if ps_lo == ps_hi:  # the column tops out at P_s: where does that edge end?
        cap = _slack_cap(config.i_bar_p)  # the box holds all along [pr, pr_next]
        points.append((ps_max, _last_feasible(
            lambda x: phase._interference_coh_vals(ps_max, x, channels, k, config) <= cap,
            pr, pr_next)))
    return tuple(v[0] for v in _pick(channels, k, config, COHERENT, points + warm))


def _relay_result(k, scenario, point, iterations) -> RelayResult:
    ps, pr, rate = point
    return RelayResult(relay=k, scenario=scenario, rate=float(rate), converged=True,
                       alloc=PowerAllocation(float(ps), float(pr)), iterations=iterations)


# ----------------------------------------------------------------------------
# Public solver ops.
# ----------------------------------------------------------------------------

def _check_relay(channels, k):
    if not 0 <= k < channels.num_relays:
        raise ValueError(f"relay index {k} is out of range for {channels.num_relays} relays")


def alternate_optimize(channels: ChannelRealization, k: int, config: NetworkConfig,
                       scenario: str, warm_start: PowerAllocation | None = None) -> RelayResult:
    """Envelope solve for relay k, any scenario and any leakage (zeta_hat
    == 0 included).  The returned allocation is exactly feasible.  A feasible
    ``warm_start`` lower-bounds the result.  The non-coherent and half-duplex
    solves are ``solve_network``'s batched closed form on relay k alone.
    Raises ValueError unless 0 <= k < channels.num_relays."""
    scenario = _norm_scenario(scenario)
    _check_relay(channels, k)
    warm = [] if warm_start is None else [(warm_start.p_s, warm_start.p_r)]
    if scenario == COHERENT and config.i_bar_p > 0.0:
        return _relay_result(k, scenario, _best_point(channels, k, config, warm), _ZOOM_ROUNDS)
    point = _closed_form(channels, k, config, scenario, warm)  # zero cap: (0, 0)
    return _relay_result(k, scenario, [v[0] for v in point], 0)


def _oracle_sweep(channels, k, config, scenario, caps, grid_n):
    """``brute_force`` at each interference cap in ``caps`` (config.i_bar_p is
    not read): the rate and load lattices do not depend on the cap, so they are
    built once and each cap only masks them and takes the first maximum."""
    if grid_n < 2:
        raise ValueError("grid_n must be >= 2")
    scenario = _norm_scenario(scenario)
    _check_relay(channels, k)
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
                       selected=int(np.array([r.rate for r in results]).argmax()))


def solve_network(channels: ChannelRealization, config: NetworkConfig,
                  scenario: str, warm: SolveResult | None = None) -> SolveResult:
    """Solve the relays and select.

    ``warm`` (a SolveResult with one result per relay of ``channels``)
    recycles previous per-relay allocations as lower bounds: each result is at
    least as good as its feasible warm point, which makes interference cap
    sweeps monotone.  Raises ValueError if ``channels`` and ``config`` (or
    ``warm``) disagree on the number of relays.

    The non-coherent and half-duplex closed forms are evaluated for all relays
    at once, in one broadcast over (relays x candidates).  A coherent solve over
    several relays bounds them all in one broadcast (``_coherent_bound``), takes
    them in descending bound order, and skips a relay whose bound is below a rate
    already solved: it cannot win, so the selection and its rate, tie-break
    included, are those of solving every relay.  A skipped relay's RelayResult
    (iterations=0) is its best feasible non-coherent closed-form or warm point, a
    lower bound on its optimum, not the optimum; the skipped relays are picked in
    one broadcast after the solved ones.
    """
    scenario = _norm_scenario(scenario)
    n = channels.num_relays
    if n != config.num_relays:
        raise ValueError(f"the channels have {n} relays, the config {config.num_relays}")
    if warm is not None and len(warm.relays) != n:
        raise ValueError(f"warm result has {len(warm.relays)} relays, the channels have {n}")
    # relays down a column (a lone relay's numpy-scalar gains are several times
    # faster than 1-arrays), and the warm result as one (p_s, p_r) point of columns
    k = np.arange(n)[:, None] if n > 1 else 0
    warm_points = [] if warm is None else [(np.array([[r.alloc.p_s] for r in warm.relays]),
                                            np.array([[r.alloc.p_r] for r in warm.relays]))]
    if scenario != COHERENT:
        points = _closed_form(channels, k, config, scenario, warm_points)
        return select_relay([_relay_result(i, scenario, p, 0)
                             for i, p in enumerate(zip(*(v.tolist() for v in points)))])
    bounds = _coherent_bound(channels, k, config).tolist() if n > 1 else [math.inf]
    results, best, skipped = [None] * n, -math.inf, []
    for i in sorted(range(n), key=bounds.__getitem__, reverse=True):  # ties keep index order
        if bounds[i] * (1.0 + 1e-9) < best:
            skipped.append(i)
        else:
            results[i] = alternate_optimize(channels, i, config, scenario, warm_start=(
                None if warm is None else warm.relays[i].alloc))
            best = max(best, results[i].rate)
    if skipped:
        points = _pick(channels, k[skipped], config, COHERENT,
                       _noncoherent_points(channels, k[skipped], config)
                       + [(ps[skipped], pr[skipped]) for ps, pr in warm_points])
        for i, p in zip(skipped, zip(*(v.tolist() for v in points))):
            results[i] = _relay_result(i, scenario, p, 0)
    return select_relay(results)
