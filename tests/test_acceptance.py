"""Acceptance gate: seven pinned end-to-end criteria.

Each test prints one PASS line (visible even under pytest capture) with the
measured figures next to its pinned tolerance.  Tolerances, sizes, and seeds
are frozen here on purpose -- do not loosen them to make a regression green.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import fdrelay as fd
from fdrelay import harness


def _announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def _cells(rows, keys):
    out = {}
    for r in rows:
        out.setdefault(tuple(getattr(r, k) for k in keys), []).append(r)
    return out


# ---------------------------------------------------------------------------
# 1. single-relay solver vs the 201x201 exhaustive lattice
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_gap(capsys):
    t0 = time.perf_counter()
    config = fd.NetworkConfig(num_relays=1, zeta=0.001,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=fd.db_to_linear(10.0))
    spec = harness.ExperimentSpec(
        name="optimality-gap",
        scenarios=(fd.NONCOHERENT, fd.COHERENT),
        zeta_list=(0.001,),
        i_bar_p_db_list=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        p_max_db_list=(20.0,),
        num_realizations=100,
        base_seed=0,
        grid_n=201)
    rows = harness.run_experiment(spec, config)
    elapsed = time.perf_counter() - t0

    cells = _cells(rows, ("scenario", "i_bar_p_db"))
    assert len(cells) == 12
    worst_mean = worst_max = -math.inf
    for key, cell in cells.items():
        assert len(cell) == 100
        gaps = np.array([r.gap_pct for r in cell])
        assert gaps.mean() < 1.0, f"cell {key}: mean gap {gaps.mean():.3f}% >= 1%"
        assert gaps.max() < 3.0, f"cell {key}: max gap {gaps.max():.3f}% >= 3%"
        worst_mean = max(worst_mean, gaps.mean())
        worst_max = max(worst_max, gaps.max())
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s (budget 120s)"
    _announce(capsys,
              f"CRITERION 1 PASS: 12/12 cells, worst mean gap {worst_mean:.3f}% "
              f"(<1%), worst max gap {worst_max:.3f}% (<3%), 100 realizations, "
              f"{elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# 2. closed-form phase alignment vs a 10^4-point grid on 10^3 instances
# ---------------------------------------------------------------------------

def test_criterion_2_phase_alignment(capsys):
    config = fd.NetworkConfig(num_relays=4, zeta=0.01,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=fd.db_to_linear(10.0))
    phis = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    rng = np.random.default_rng(2)
    worst_excess = -math.inf
    worst_closed = -math.inf
    for i in range(1000):
        channels = fd.sample_channels(config, seed=i)
        k = int(rng.integers(config.num_relays))
        alloc = fd.PowerAllocation(float(rng.uniform(0.05, config.p_s_max)),
                                   float(rng.uniform(0.05, config.p_r_max)))
        dec = fd.decompose(alloc, channels, k, config)
        sol = fd.optimal_phase(dec)
        grid = fd.interference_coh_at_phase(alloc, channels, k, config, phis)
        gmin = float(grid.min())
        assert sol.i_coh <= gmin * (1.0 + 1e-9) + 1e-18, \
            f"instance {i}: aligned level {sol.i_coh!r} above grid min {gmin!r}"
        closed = (abs(dec.a) - abs(dec.b)) ** 2
        dev = abs(sol.i_coh - closed)
        assert dev <= 1e-12 * max(1.0, closed), \
            f"instance {i}: closed-form deviation {dev!r}"
        worst_excess = max(worst_excess,
                           (sol.i_coh - gmin) / max(gmin, 1e-30))
        worst_closed = max(worst_closed, dev / max(1.0, closed))
    _announce(capsys,
              f"CRITERION 2 PASS: 1000 instances x 10000-point grid, worst "
              f"grid excess {worst_excess:.2e} (<=1e-9), worst closed-form "
              f"deviation {worst_closed:.2e} (<=1e-12)")


# ---------------------------------------------------------------------------
# 3. structural suite at full scale: curvature signs at 10^4 points each,
#    nonconvexity witnesses certified on every one of 100 draws
# ---------------------------------------------------------------------------

def test_criterion_3_structural_suite(capsys):
    config = harness.default_config()
    checks = {c.name: c for c in harness.lemma_suite(config, base_seed=0,
                                                     num_points=10_000,
                                                     num_draws=100)}
    assert len(checks) == 8
    for c in checks.values():
        assert c.passed, f"{c.name} FAILED: {c.detail}"
    for name in ("noncoh-per-variable-convexity", "coh-per-variable-convexity",
                 "noncoh-zeta0-joint-concavity"):
        assert checks[name].checked >= 10_000, \
            f"{name} covered only {checks[name].checked} points"
    for name in ("noncoh-joint-nonconvexity-witness",
                 "coh-joint-nonconvexity-witness"):
        assert checks[name].checked == 100, \
            f"{name} certified {checks[name].checked}/100 draws"
    _announce(capsys,
              "CRITERION 3 PASS: 8/8 structural checks; curvature signs at "
              ">=10000 points each; 100/100 witness draws certified "
              "(closed-form and finite-difference determinants both negative)")


# ---------------------------------------------------------------------------
# 4. every closed-form partial/curvature vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_4_closed_forms_vs_fd(capsys):
    config = fd.NetworkConfig(num_relays=4, zeta=0.001,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=fd.db_to_linear(10.0))
    rng = np.random.default_rng(4)
    draws = [fd.sample_channels(config, seed=s) for s in range(20)]

    def bound(closed):
        return max(1e-6, 1e-4 * abs(closed))

    worst_ratio = -math.inf
    n_checked = 0
    for which, partial_fn in (("f", fd.f_partials), ("g", fd.g_partials),
                              ("ftilde", fd.ftilde_partials)):
        for _ in range(1000):
            channels = draws[int(rng.integers(len(draws)))]
            k = int(rng.integers(config.num_relays))
            ps = float(rng.uniform(0.5, 20.0))
            pr = float(rng.uniform(0.5, 20.0))
            v, v_s, v_r, v_ss, v_sr, v_rr = partial_fn(ps, pr, channels, k,
                                                       config)

            def value(a, b, k=k, channels=channels):
                return partial_fn(a, b, channels, k, config)[0]

            grad = fd.numeric_gradient(value, ps, pr, rel_step=1e-5)
            hess = fd.numeric_hessian(value, ps, pr, rel_step=3e-3)
            for closed, num in ((v_s, grad[0]), (v_r, grad[1]),
                                (v_ss, hess[0, 0]), (v_sr, hess[0, 1]),
                                (v_rr, hess[1, 1])):
                err = abs(closed - num)
                assert err <= bound(closed), \
                    f"{which} at ({ps:.3f},{pr:.3f}): |{closed!r}-{num!r}|"
                worst_ratio = max(worst_ratio, err / bound(closed))
                n_checked += 1

    # frozen-quadratic curvatures: constant Hessian, finite differences exact
    for i in range(1000):
        channels = draws[i % len(draws)]
        k = int(rng.integers(config.num_relays))
        ref = fd.PowerAllocation(float(rng.uniform(0.5, 20.0)),
                                 float(rng.uniform(0.5, 20.0)))
        frozen = fd.freeze_constraint(ref, channels, k, config)
        q_ss, q_sr, q_rr = fd.convexified_curvatures(channels, k, frozen)

        def quad(a, b, k=k, channels=channels, frozen=frozen):
            return fd.convexified_interference((a, b), channels, k, config,
                                               frozen)

        num = fd.numeric_hessian(quad, 1.5, 2.5)
        for closed, fdval in ((q_ss, num[0, 0]), (q_sr, num[0, 1]),
                              (q_rr, num[1, 1])):
            err = abs(closed - fdval)
            assert err <= bound(closed)
            worst_ratio = max(worst_ratio, err / bound(closed))
            n_checked += 1
    _announce(capsys,
              f"CRITERION 4 PASS: {n_checked} closed-form-vs-FD comparisons "
              f"within max(1e-6, 1e-4*|value|); worst at {worst_ratio:.3f} of "
              f"the allowance")


# ---------------------------------------------------------------------------
# 5. paired Monte-Carlo ordering properties on 200 8-relay realizations
# ---------------------------------------------------------------------------

def test_criterion_5_monte_carlo_orderings(capsys, tmp_path):
    t0 = time.perf_counter()
    config = harness.default_config()  # 8 relays, 20 dB caps
    zetas = (0.0, 0.001, 0.01, 0.4)
    ibars = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    fd_spec = harness.ExperimentSpec(
        name="rate-vs-ibar", scenarios=(fd.NONCOHERENT, fd.COHERENT),
        zeta_list=zetas, i_bar_p_db_list=ibars, p_max_db_list=(20.0,),
        num_realizations=200, base_seed=0)
    rows = harness.run_experiment(fd_spec, config)
    hd_spec = harness.ExperimentSpec(
        name="rate-vs-ibar", scenarios=(fd.HD_BASELINE,),
        zeta_list=(0.001,), i_bar_p_db_list=ibars, p_max_db_list=(20.0,),
        num_realizations=200, base_seed=0)
    hd_rows = harness.run_experiment(hd_spec, config)
    elapsed = time.perf_counter() - t0

    # (a) every realization's rate is nondecreasing in the interference cap
    nonmono = 0
    for series in _cells(rows, ("scenario", "zeta", "seed")).values():
        series.sort(key=lambda r: r.i_bar_p_db)
        rates = [r.rate for r in series]
        if any(b < a - 1e-6 for a, b in zip(rates, rates[1:])):
            nonmono += 1
    assert nonmono == 0, f"{nonmono} non-monotone cap series"

    # (b) coherent beats non-coherent in the mean at every (zeta, cap) cell
    cell_means = {key: np.mean([r.rate for r in cell])
                  for key, cell in _cells(rows, ("scenario", "zeta",
                                                 "i_bar_p_db")).items()}
    coh_margin = math.inf
    for zeta in zetas:
        for ibar in ibars:
            nc = cell_means[(fd.NONCOHERENT, zeta, ibar)]
            co = cell_means[(fd.COHERENT, zeta, ibar)]
            assert co > nc, f"coh mean {co:.4f} <= noncoh mean {nc:.4f} " \
                            f"at zeta={zeta}, ibar={ibar}dB"
            coh_margin = min(coh_margin, co - nc)

    # (c) more residual loop leakage can only hurt: scenario means decrease
    #     strictly along 0 -> 0.001 -> 0.01 -> 0.4
    zeta_means = {}
    for scen in (fd.NONCOHERENT, fd.COHERENT):
        means = [np.mean([r.rate for r in rows
                          if r.scenario == scen and r.zeta == z])
                 for z in zetas]
        zeta_means[scen] = means
        assert all(b < a for a, b in zip(means, means[1:])), \
            f"{scen} means not decreasing in leakage: {means}"

    # (d) full-duplex operation beats the half-duplex comparator on average
    fd_mean = np.mean([r.rate for r in rows
                       if r.scenario == fd.NONCOHERENT and r.zeta == 0.001])
    hd_mean = np.mean([r.rate for r in hd_rows])
    assert fd_mean > hd_mean, f"FD mean {fd_mean:.4f} <= HD mean {hd_mean:.4f}"

    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s (budget 300s)"
    # the full-duplex rows' bytes, the same at the AVX-512, AVX2 and baseline
    # numpy dispatch levels
    harness.emit_csv(rows, tmp_path / "criterion5.csv")
    assert len(rows) == 9600
    assert hashlib.sha256((tmp_path / "criterion5.csv").read_bytes()).hexdigest() == (
        "9a118adbaa0fcf6ffb1538b1214e6def4a35602d29ada2bdb88b8c478079b09b")
    nc_means = ", ".join(f"{m:.3f}" for m in zeta_means[fd.NONCOHERENT])
    _announce(capsys,
              f"CRITERION 5 PASS: 200 paired realizations; 0 non-monotone cap "
              f"series (slack 1e-6); coherent>non-coherent in all 24 cells "
              f"(min margin {coh_margin:.3f} bit/s/Hz); non-coherent means "
              f"over leakage [{nc_means}] strictly decreasing; FD "
              f"{fd_mean:.3f} > HD {hd_mean:.3f}; {elapsed:.1f}s (<300s)")


# ---------------------------------------------------------------------------
# 6. relay-power sweep of the exact rate rises then falls (peak interior)
# ---------------------------------------------------------------------------

def test_criterion_6_rise_then_fall(capsys):
    config = fd.NetworkConfig(num_relays=10, zeta=0.4,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=fd.db_to_linear(8.0))
    p_s = fd.db_to_linear(5.0)
    sweep_db = np.linspace(-10.0, 30.0, 161)
    sweep = fd.db_to_linear(sweep_db)
    good_realizations = 0
    interior = []
    for seed in range(100):
        channels = fd.sample_channels(config, seed=seed)
        all_relays_unimodal = True
        for k in range(config.num_relays):
            vals = np.array([fd.rate_exact(fd.PowerAllocation(p_s, float(v)),
                                           channels, k, config)
                             for v in sweep])
            j = int(np.argmax(vals))
            strictly_interior = 0 < j < len(vals) - 1
            rises = bool(np.all(np.diff(vals[:j + 1]) > -1e-12))
            falls = bool(np.all(np.diff(vals[j:]) < 1e-12))
            if not (strictly_interior and rises and falls):
                all_relays_unimodal = False
                break
            interior.append(sweep_db[j])
        if all_relays_unimodal:
            good_realizations += 1
    assert good_realizations >= 90, \
        f"only {good_realizations}/100 realizations fully rise-then-fall"
    _announce(capsys,
              f"CRITERION 6 PASS: {good_realizations}/100 realizations (>=90) "
              f"have rise-then-fall exact rate with a strictly interior peak "
              f"on every relay (161-point sweep, -10..30 dB; peaks span "
              f"{min(interior):.1f}..{max(interior):.1f} dB)")


# ---------------------------------------------------------------------------
# 7. reruns of the experiment harness are byte-identical
# ---------------------------------------------------------------------------

def test_criterion_7_deterministic_csv(tmp_path, capsys):
    config = fd.NetworkConfig(num_relays=3, zeta=0.001,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=fd.db_to_linear(10.0))
    specs = (
        harness.ExperimentSpec(name="rate-vs-ibar", num_realizations=5,
                               i_bar_p_db_list=(0.0, 4.0, 8.0),
                               zeta_list=(0.001, 0.4)),
        harness.ExperimentSpec(name="rate-vs-pr", num_realizations=5,
                               zeta_list=(0.4,), i_bar_p_db_list=(8.0,),
                               sweep_db_list=tuple(np.linspace(-10, 20, 31))),
    )
    total = 0
    for i, spec in enumerate(specs):
        a, b = tmp_path / f"{i}_a.csv", tmp_path / f"{i}_b.csv"
        harness.emit_csv(harness.run_experiment(spec, config), a)
        harness.emit_csv(harness.run_experiment(spec, config), b)
        ba, bb = a.read_bytes(), b.read_bytes()
        assert ba == bb, f"{spec.name}: rerun differs"
        total += len(ba)
    _announce(capsys,
              f"CRITERION 7 PASS: independent reruns of 2 experiment kinds "
              f"byte-identical ({total} bytes compared)")
