"""Reproducible Monte-Carlo experiments, CSV emission, and the check suite.

Every experiment is a deterministic function of (spec, config): realization r
always uses seed ``base_seed + r``, scenarios and leakage variants share the
channel draws of their seed (paired comparison -- the ``channel_digest``
column makes the pairing auditable), and rows are emitted in canonical
sweep-major, seed-minor order no matter what order they were computed in.
Reruns are byte-identical.

Fixed-power sweeps (``rate-vs-pr``, ``rate-vs-ps``) evaluate the exact rate
at the swept power directly, without applying the interference cap: the swept
axis deliberately crosses power levels that a sizable fraction of channel
draws could not realize under the cap, and a shape study of the rate surface
is only meaningful if the curve exists at every abscissa.  Their rows carry
scenario "unconstrained".
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis, model, phase, solver
from .model import ChannelRealization, ConfigError, NetworkConfig, PowerAllocation

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "ResultRow",
    "LemmaCheck",
    "CSV_COLUMNS",
    "channel_digest",
    "run_experiment",
    "emit_csv",
    "lemma_suite",
    "load_config",
    "parse_config_text",
    "default_config",
]

EXPERIMENTS = ("rate-vs-ibar", "rate-vs-pr", "rate-vs-ps", "optimality-gap",
               "lemma-suite")

UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class ExperimentSpec:
    """What to sweep and how many realizations."""

    name: str
    scenarios: tuple[str, ...] = (solver.NONCOHERENT, solver.COHERENT)
    zeta_list: tuple[float, ...] = (0.001,)
    i_bar_p_db_list: tuple[float, ...] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    p_max_db_list: tuple[float, ...] = (20.0,)
    fixed_db: float = 5.0            # the power held fixed in rate-vs-pr / rate-vs-ps
    sweep_db_list: tuple[float, ...] = ()  # swept power axis; () -> -10..p_max, 71 pts
    num_realizations: int = 200
    base_seed: int = 0
    grid_n: int = 201                # oracle lattice (optimality-gap only)

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}; expected one of {EXPERIMENTS}")
        object.__setattr__(self, "scenarios",
                           tuple(solver._norm_scenario(s) for s in self.scenarios))
        for field in ("zeta_list", "i_bar_p_db_list", "p_max_db_list", "sweep_db_list"):
            object.__setattr__(self, field, tuple(float(v) for v in getattr(self, field)))
        if not (self.scenarios and self.zeta_list and self.i_bar_p_db_list
                and self.p_max_db_list):
            raise ValueError("scenario and sweep lists must be nonempty")
        if not all(math.isfinite(v) for v in (*self.zeta_list, *self.p_max_db_list,
                                              self.fixed_db)):
            raise ValueError("zeta, p_max_db and fixed_db values must be finite")
        if any(math.isnan(v) for v in self.i_bar_p_db_list):  # +-inf dB: no cap, zero cap
            raise ValueError("i_bar_p_db values must not be NaN")
        if any(z < 0 for z in self.zeta_list):
            raise ValueError("zeta values must be >= 0")
        if self.num_realizations < 1:
            raise ValueError("num_realizations must be >= 1")
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")


@dataclass(frozen=True)
class ResultRow:
    """One emitted record; gap_pct = 100*(oracle-rate)/oracle when present."""

    experiment: str
    scenario: str
    zeta: float
    i_bar_p_db: float
    p_max_db: float
    fixed_p_db: float | None
    sweep_p_db: float | None
    seed: int
    channel_digest: str
    relay: int
    rate: float
    oracle_rate: float | None = None
    gap_pct: float | None = None


CSV_COLUMNS = ("experiment", "scenario", "zeta", "i_bar_p_db", "p_max_db",
               "fixed_p_db", "sweep_p_db", "seed", "channel_digest", "relay",
               "rate", "oracle_rate", "gap_pct")


@dataclass(frozen=True)
class LemmaCheck:
    """One verification-suite outcome."""

    name: str
    passed: bool
    checked: int
    detail: str


def channel_digest(channels: ChannelRealization) -> str:
    """64-bit content hash of a realization's coefficients (pairing audits).

    Hashes the complex128 bytes of h_sp, h_sd, h_sr, h_rd, h_rp, h_rr in that
    order; any change to the draws changes the digest.
    """
    h = hashlib.blake2b(digest_size=8)
    for arr in (channels.h_sp, channels.h_sd, channels.h_sr, channels.h_rd,
                channels.h_rp, channels.h_rr):
        h.update(np.asarray(arr, dtype=np.complex128).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------------
# Experiment execution.
# ----------------------------------------------------------------------------

def _row_key(row: ResultRow):
    def none_low(v):
        return -np.inf if v is None else v
    return (row.p_max_db, row.zeta, row.i_bar_p_db, none_low(row.sweep_p_db),
            row.scenario, row.seed)


def _base_config(config: NetworkConfig, zeta: float, p_max_db: float) -> NetworkConfig:
    p_max = model.db_to_linear(p_max_db)
    return dataclasses.replace(config, zeta=zeta, p_s_max=p_max, p_r_max=p_max)


def run_experiment(spec: ExperimentSpec, config: NetworkConfig) -> list[ResultRow]:
    """Execute an experiment; returns rows in deterministic canonical order.

    Channels for seed ``base_seed + r`` are drawn once and shared by every
    scenario, leakage value, and cap (the draws do not depend on any of
    those), which is what makes the comparisons paired.  Interference-cap
    sweeps run smallest cap first and chain each solution into the next cap's
    solve as a warm start, so per-realization rate curves are nondecreasing
    in the cap by construction (warm points lower-bound every solve).
    """
    channels_cache: dict[int, ChannelRealization] = {}

    def draw(seed: int) -> ChannelRealization:
        if seed not in channels_cache:
            channels_cache[seed] = model.sample_channels(config, seed)
        return channels_cache[seed]

    if spec.name == "lemma-suite":
        rows = [
            ResultRow(experiment=spec.name, scenario=check.name, zeta=config.zeta,
                      i_bar_p_db=model.linear_to_db(config.i_bar_p),
                      p_max_db=model.linear_to_db(config.p_s_max), fixed_p_db=None,
                      sweep_p_db=None, seed=spec.base_seed, channel_digest="",
                      relay=0, rate=float(check.passed))
            for check in lemma_suite(config, spec.base_seed)
        ]
        return sorted(rows, key=lambda r: r.scenario)

    if spec.name in ("rate-vs-ibar", "optimality-gap"):
        rows = _run_cap_sweep(spec, config, draw)
    else:
        rows = _run_fixed_power_sweep(spec, config, draw)
    rows.sort(key=_row_key)
    return rows


def _run_cap_sweep(spec, config, draw) -> list[ResultRow]:
    want_oracle = spec.name == "optimality-gap"
    ibar_dbs = sorted(spec.i_bar_p_db_list)
    rows: list[ResultRow] = []
    for p_max_db in spec.p_max_db_list:
        for zeta in spec.zeta_list:
            base = _base_config(config, zeta, p_max_db)
            cfgs = [dataclasses.replace(base, i_bar_p=model.db_to_linear(ibar_db))
                    for ibar_db in ibar_dbs]
            caps = [cfg.i_bar_p for cfg in cfgs]
            for r in range(spec.num_realizations):
                seed = spec.base_seed + r
                ch = draw(seed)
                digest = channel_digest(ch)
                oracles = {}  # per scenario, the best relay's oracle rate at each cap
                for scen in spec.scenarios if want_oracle else ():
                    per_relay = [solver._oracle_sweep(ch, k, base, scen, caps, spec.grid_n)
                                 for k in range(ch.num_relays)]
                    oracles[scen] = [max(r.rate for r in at_cap) for at_cap in zip(*per_relay)]
                warm: dict[str, solver.SolveResult | None] = {
                    s: None for s in spec.scenarios}
                for i, (ibar_db, cfg) in enumerate(zip(ibar_dbs, cfgs)):
                    for scen in spec.scenarios:
                        res = solver.solve_network(ch, cfg, scen, warm=warm[scen])
                        warm[scen] = res
                        oracle = gap = None
                        if want_oracle:
                            oracle = oracles[scen][i]
                            gap = (100.0 * (oracle - res.rate) / oracle
                                   if oracle > 0.0 else 0.0)
                        rows.append(ResultRow(
                            experiment=spec.name, scenario=scen, zeta=zeta,
                            i_bar_p_db=ibar_db, p_max_db=p_max_db, fixed_p_db=None,
                            sweep_p_db=None, seed=seed, channel_digest=digest,
                            relay=res.selected, rate=res.rate, oracle_rate=oracle,
                            gap_pct=gap))
    return rows


def _run_fixed_power_sweep(spec, config, draw) -> list[ResultRow]:
    """rate-vs-pr / rate-vs-ps: exact rate at fixed powers, best relay kept."""
    sweep_pr = spec.name == "rate-vs-pr"
    fixed_lin = model.db_to_linear(spec.fixed_db)
    rows: list[ResultRow] = []
    for p_max_db in spec.p_max_db_list:
        sweep_dbs = spec.sweep_db_list or tuple(np.linspace(-10.0, p_max_db, 71))
        sweep_lin = [model.db_to_linear(v) for v in sweep_dbs]
        for zeta in spec.zeta_list:
            base = _base_config(config, zeta, p_max_db)
            for ibar_db in spec.i_bar_p_db_list:
                cfg = dataclasses.replace(base, i_bar_p=model.db_to_linear(ibar_db))
                for r in range(spec.num_realizations):
                    seed = spec.base_seed + r
                    ch = draw(seed)
                    digest = channel_digest(ch)
                    for v_db, v in zip(sweep_dbs, sweep_lin):
                        alloc = (PowerAllocation(fixed_lin, v) if sweep_pr
                                 else PowerAllocation(v, fixed_lin))
                        rates = [model.rate_exact(alloc, ch, k, cfg)
                                 for k in range(ch.num_relays)]
                        best = int(np.argmax(rates))
                        rows.append(ResultRow(
                            experiment=spec.name, scenario=UNCONSTRAINED, zeta=zeta,
                            i_bar_p_db=ibar_db, p_max_db=p_max_db,
                            fixed_p_db=spec.fixed_db, sweep_p_db=float(v_db),
                            seed=seed, channel_digest=digest, relay=best,
                            rate=float(rates[best])))
    return rows


def emit_csv(rows, path) -> None:
    """Write rows (any iterable) as UTF-8, LF-terminated CSV; floats at six
    significant digits; reruns with identical rows are byte-identical."""
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([fmt(getattr(row, c)) for c in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


# ----------------------------------------------------------------------------
# The verification suite ("verify" subcommand; acceptance tests run it at
# full scale).  Each check is an independent numeric re-derivation of one of
# the structural results the solvers rely on.
# ----------------------------------------------------------------------------

# The suite evaluates at most _BATCH_POINTS points per array, and its phase grid
# _PHASE_BATCH instances (x 512 phases) at a time.
_BATCH_POINTS = 1000
_PHASE_BATCH = 8
_EACH = slice(None)  # the relay index of a _Relays row view: each row is its own relay


@dataclass(frozen=True)
class _Relays:
    """Relay coefficients of several channel draws: h_sp, the one per-draw field and
    the first, as a (draws,) array, the others as (draws, K) arrays.  ``at(d, k)``
    gathers one row per instance, which the phase kernels read as a
    ChannelRealization at relay index ``_EACH``."""

    h_sp: np.ndarray
    h_sr: np.ndarray
    h_rp: np.ndarray
    h_rr: np.ndarray
    hsr2: np.ndarray
    hrd2: np.ndarray
    hrr2: np.ndarray

    def at(self, d, k) -> "_Relays":
        return _Relays(self.h_sp[d], *(getattr(self, f.name)[d, k]
                                       for f in dataclasses.fields(self)[1:]))


def _random_phasors(rng, draws, relays, per_draw, lo, config):
    """``decompose``'s (a, b), with the relay coefficients and p_r, of per_draw random
    instances on each draw, at most ``_BATCH_POINTS`` at a time.  One scalar RNG call
    each: the relay, then p_s and p_r uniform on [lo, their cap]."""
    draw = np.repeat(np.arange(len(draws)), per_draw)
    for start in range(0, draw.size, _BATCH_POINTS):
        d = draw[start:start + _BATCH_POINTS]
        k, ps, pr = np.empty(d.size, dtype=int), np.empty(d.size), np.empty(d.size)
        for i, j in enumerate(d):
            k[i] = rng.integers(draws[j].num_relays)
            ps[i] = rng.uniform(lo, config.p_s_max)
            pr[i] = rng.uniform(lo, config.p_r_max)
        rel = relays.at(d, k)
        columns = phase._gap_columns(pr, rel, _EACH, config)
        yield *phase._phasors_at(ps, columns, rel, _EACH, config), rel, pr


def _interior_points(rng, n, p_max):
    """Log-uniform interior allocations (spread over decades, never on axes)."""
    lo, hi = np.log(1e-2), np.log(p_max)
    ps = np.exp(rng.uniform(lo, hi, n))
    pr = np.exp(rng.uniform(lo, hi, n))
    return ps, pr


def lemma_suite(config: NetworkConfig, base_seed: int = 0, num_points: int = 2000,
                num_draws: int = 50) -> list[LemmaCheck]:
    """Run the structural checks and report pass/fail per check.

    num_points scales the pointwise curvature checks; num_draws scales the
    per-realization witness constructions and phase instances; both must be
    >= 1.  Instances and points are drawn from one RNG stream, draw by draw,
    and evaluated across draws in arrays of at most ``_BATCH_POINTS``
    points (the phase grid: ``_PHASE_BATCH`` instances at a time); each
    witness's 9-point stencil is one broadcasting call.
    """
    for name, n in (("num_points", num_points), ("num_draws", num_draws)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n!r}")
    checks: list[LemmaCheck] = []
    rng = np.random.default_rng(base_seed)
    p_max = max(config.p_s_max, config.p_r_max)

    draws = [model.sample_channels(config, base_seed + i) for i in range(num_draws)]
    relays = _Relays(*(np.array([getattr(ch, f.name) for ch in draws])
                       for f in dataclasses.fields(_Relays)))

    # --- exact phase alignment beats a dense grid and matches the closed form
    worst_rel = 0.0
    worst_eq = 0.0
    n_phase = 0
    rotations = np.exp(-1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    for a, b, _, _ in _random_phasors(rng, draws, relays,
                                      max(1, num_points // (num_draws * 50)), 0.05, config):
        abs_a, abs_b = np.abs(a), np.abs(b)
        i_coh = (abs_a - abs_b) ** 2
        gmin = np.empty(a.size)
        for i in range(0, a.size, _PHASE_BATCH):
            rows = slice(i, i + _PHASE_BATCH)
            gmin[rows] = np.min(np.abs(a[rows, None] + b[rows, None] * rotations) ** 2, axis=1)
        worst_rel = max(worst_rel, float(np.max((i_coh - gmin) / np.maximum(gmin, 1e-30))))
        # the interference at optimal_phase's phi_opt, against its amplitude scale
        phi_opt = phase._opposition_phase(np.angle(a), np.angle(b))
        at_opt = np.abs(a + b * np.exp(-1j * phi_opt)) ** 2
        worst_eq = max(worst_eq, float(np.max(np.abs(i_coh - at_opt)
                                              / np.maximum((abs_a + abs_b) ** 2, 1e-30))))
        n_phase += a.size
    checks.append(LemmaCheck(
        "phase-alignment-optimality", worst_rel <= 1e-9 and worst_eq <= 1e-12 and n_phase > 0,
        n_phase, f"max rel excess over grid {worst_rel:.3e}, closed-form dev {worst_eq:.3e}"))

    n_curv = max(1, num_points // num_draws)

    def curvature_batches(p_top):
        """(relay coefficients, ps, pr) of batches of draws, each draw's interior points
        a row of ps and pr; in RNG order, each draw's points, then its relay."""
        step = max(1, _BATCH_POINTS // n_curv)
        for start in range(0, num_draws, step):
            d = np.arange(start, min(start + step, num_draws))
            ps, pr, k = (np.array(c) for c in zip(*[
                (*_interior_points(rng, n_curv, p_top), rng.integers(draws[j].num_relays))
                for j in d]))
            yield relays.at(d, k), ps, pr

    # --- the leaky surrogate's reciprocal is convex in each power separately
    #     (strictly positive pure second partials), in power and in sqrt coordinates
    #     (coherent subproblems), which makes every 1-D slice of it unimodal
    for name, partials, p_top in (
            ("noncoh-per-variable-convexity", analysis._f_partials_vals, p_max),
            ("coh-per-variable-convexity", analysis._g_partials_vals, float(np.sqrt(p_max)))):
        bad = n_pts = 0
        for rel, ps, pr in curvature_batches(p_top):
            zh = rel.hrr2 * config.zeta  # model.zeta_hat's product, per draw
            live = zh != 0.0
            _, _, _, v_ss, _, v_rr = partials(
                ps[live], pr[live], rel.hsr2[live, None], rel.hrd2[live, None],
                zh[live, None], config.sigma2_dest)
            n_pts += v_ss.size
            bad += int(np.count_nonzero(~((v_ss > 0.0) & (v_rr > 0.0))))
        checks.append(LemmaCheck(name, bad == 0 and n_pts > 0, n_pts,
                                 f"{bad} sign violations"))

    # --- zero-leakage surrogate is jointly concave (negative semidefinite)
    bad = n_pts = 0
    for rel, ps, pr in curvature_batches(p_max):
        gains = rel.hsr2[:, None], rel.hrd2[:, None]
        h11, _, h22, det = analysis._quotient_hessian(
            analysis._ftilde_partials_vals(ps, pr, *gains, config.sigma2_dest,
                                           config.sigma2_relay),
            analysis._surrogate_scale_vals(*gains, config.sigma2_relay, config.sigma2_dest))
        scale = np.maximum(np.maximum(np.abs(h11), np.abs(h22)), 1e-30)
        n_pts += ps.size
        bad += int(np.count_nonzero(~((h11 < 1e-15) & (h22 < 1e-15)
                                      & (det > -1e-9 * scale ** 2))))
    checks.append(LemmaCheck("noncoh-zeta0-joint-concavity", bad == 0 and n_pts > 0,
                             n_pts, f"{bad} semidefiniteness violations"))

    # --- below the closed-form source-power threshold the joint problem is
    #     certifiably nonconvex (numeric determinant goes negative)
    def noncoh_witness(ch, k):
        p_rk = float(rng.uniform(0.1, config.p_r_max))
        ps_w = 0.9 * analysis.threshold_ps(ch, k, config, p_rk).p_s_tilde
        return (ps_w, p_rk), analysis._surrogate_vals(ch, k, config)

    def coh_witness(ch, k):
        point, _ = analysis.sc2_witness(ch, k, config)  # certifies its closed-form det < 0
        return point, analysis._sqrt_coords(analysis._surrogate_vals(ch, k, config))

    for name, witness in (("noncoh-joint-nonconvexity-witness", noncoh_witness),
                          ("coh-joint-nonconvexity-witness", coh_witness)):
        bad = n_w = 0
        for ch in draws:
            k = int(rng.integers(ch.num_relays))
            if model.zeta_hat(ch, k, config) == 0.0:
                continue
            n_w += 1
            try:
                (ps_w, pr_w), obj = witness(ch, k)
            except analysis.DomainError:
                bad += 1
                continue
            hnum = analysis._numeric_hessian_vals(obj, ps_w, pr_w)
            if not hnum[0, 0] * hnum[1, 1] - hnum[0, 1] * hnum[1, 0] < 0.0:
                bad += 1
        checks.append(LemmaCheck(name, bad == 0 and n_w > 0, n_w,
                                 f"{bad} uncertified witnesses"))

    # --- three-term Cauchy-Schwarz: d^2 G^2 = |b|^2 / (|h_rp|^2 p_r) <= 3, so the
    #     cross term L = d^2 - 1/G^2 stays below 2/G^2 and the conservative
    #     surrogate never understates the coupling term (d^2 G^2 / 3 in (0, 1])
    worst, lo_ratio, hi_ratio, n_cs = -np.inf, np.inf, -np.inf, 0
    for _, b, rel, pr in _random_phasors(rng, draws, relays,
                                         max(1, num_points // (num_draws * 10)), 1e-3, config):
        d2g2 = np.abs(b) ** 2 / (np.abs(rel.h_rp) ** 2 * pr)
        worst = max(worst, float(np.max(d2g2 - 3.0)))  # normalized slack
        ratio = d2g2 / 3.0
        lo_ratio, hi_ratio = min(lo_ratio, float(ratio.min())), max(hi_ratio, float(ratio.max()))
        n_cs += d2g2.size
    checks.append(LemmaCheck("cross-term-bound", worst <= 1e-9 and n_cs > 0, n_cs,
                             f"max normalized slack {worst:.3e}"))
    checks.append(LemmaCheck("surrogate-conservatism", 0.0 < lo_ratio
                             and hi_ratio <= 1.0 + 1e-12 and n_cs > 0, n_cs,
                             f"coupling ratio in [{lo_ratio:.4f}, {hi_ratio:.4f}]"))
    return checks


# ----------------------------------------------------------------------------
# Flat key=value config files.
# ----------------------------------------------------------------------------

_RANGE_FIELDS = {"var_sp_range", "var_rp_range"}
_INT_FIELDS = {"num_relays"}


def parse_config_text(text: str, source: str = "<string>") -> NetworkConfig:
    """Parse a flat key=value config into a NetworkConfig.

    Lines: ``key = value``; '#' starts a comment; blank lines ignored.  Keys
    are NetworkConfig field names; any scalar field also accepts a ``_db``
    suffixed variant whose value converts as 10^(x/10).  Range fields take
    two comma-separated floats.  Errors carry the line number.
    """
    field_names = {f.name for f in dataclasses.fields(NetworkConfig)}
    kwargs = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        base_key, is_db = key, False
        if key.endswith("_db") and key not in field_names:
            base_key, is_db = key[:-3], True
        if base_key not in field_names:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if base_key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {base_key!r} "
                              f"(first set on line {seen[base_key]})")
        seen[base_key] = lineno
        try:
            if base_key in _RANGE_FIELDS:
                if is_db:
                    raise ValueError("range fields have no _db form")
                parts = [float(p) for p in value.split(",")]
                if len(parts) != 2:
                    raise ValueError("expected two comma-separated floats")
                kwargs[base_key] = (parts[0], parts[1])
            elif base_key in _INT_FIELDS:
                if is_db:
                    raise ValueError("integer fields have no _db form")
                kwargs[base_key] = int(value)
            else:
                x = float(value)
                kwargs[base_key] = model.db_to_linear(x) if is_db else x
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    try:
        return NetworkConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{source}: incomplete config: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path) -> NetworkConfig:
    """Read a flat key=value config file (see parse_config_text)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)!r}: {exc}") from exc
    return parse_config_text(text, source=os.fspath(path))


def default_config(num_relays: int = 8) -> NetworkConfig:
    """The stock setup: 20 dB power caps, 10 dB cap on received interference,
    leakage 0.001."""
    return NetworkConfig(num_relays=num_relays, zeta=0.001,
                         p_s_max=model.db_to_linear(20.0),
                         p_r_max=model.db_to_linear(20.0),
                         i_bar_p=model.db_to_linear(10.0))
