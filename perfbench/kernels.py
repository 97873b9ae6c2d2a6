"""Isolated cost of the two broadcastable kernels the solvers call.

A scalar call shows the per-call overhead; a call on a 4097-point source
power grid at a fixed relay power (the shape of one solver axis scan) shows
the per-point cost.

Operations and bytes per call are COMPUTED from the tables below, not
measured: one count per numpy elementwise pass over the grid, 8 bytes per
float64 and 16 per complex128 element read or written, cache effects
ignored.  Scalar-valued subexpressions (everything that depends on the relay
power alone) are left out.  The tables describe the kernel bodies as this
file was written; they are constants of the benchmark, not a measurement of
the code under test, so they are printed as context and are not metrics.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from fdrelay import model, phase

VEC_POINTS = 4097

# (operations, bytes read, bytes written) per grid point, one entry per pass
RATE_PASSES = (
    (1, 8, 8),    # ps * hsr2
    (1, 8, 8),    # / (zhat*pr + s2_relay)
    (1, 8, 8),    # x * y
    (1, 8, 8),    # (1 + x) + y
    (1, 16, 8),   # x*y / (1 + x + y)
    (1, 8, 8),    # 1 + ...
    (1, 8, 8),    # log2
)
COH_PASSES = (
    (1, 8, 8),    # sqrt(ps)
    (6, 8, 16),   # h_sp * sps
    (2, 16, 16),  # a = ... + hrp*szr
    (1, 8, 8),    # ps * hsr2
    (1, 8, 8),    # + zeta*pr*hrr2
    (1, 8, 8),    # + sigma2_relay
    (1, 8, 8),    # sqrt
    (1, 8, 8),    # g = 1 / ...
    (6, 8, 16),   # h_sr * sps
    (2, 16, 16),  # + h_rr*szr
    (2, 16, 16),  # + noise
    (6, 24, 16),  # d * g
    (6, 16, 16),  # * hrp
    (6, 16, 16),  # * sqrt(pr)
    (4, 16, 8),   # |a|
    (4, 16, 8),   # |b|
    (1, 16, 8),   # |a| - |b|
    (1, 8, 8),    # ** 2
)


def _per_call_us(fn, number: int, repeats: int = 7) -> float:
    """Best over ``repeats`` batches of the mean time of one call."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return min(times) * 1e6


def _computed(passes) -> tuple[int, int]:
    ops = sum(p[0] for p in passes) * VEC_POINTS
    moved = sum(p[1] + p[2] for p in passes) * VEC_POINTS
    return ops, moved


def computed() -> dict[str, tuple[float, str]]:
    """Operations and bytes per 4097-point call, from the tables above."""
    out = {}
    for prefix, passes in (("model.rate_kernel", RATE_PASSES),
                           ("phase.coh_kernel", COH_PASSES)):
        ops, moved = _computed(passes)
        out[f"{prefix}.vec4k_ops_computed"] = (float(ops), "count")
        out[f"{prefix}.vec4k_bytes_computed"] = (float(moved), "B")
    return out


def measure(channels, config) -> dict[str, tuple[float, str]]:
    """Measured kernel times for relay 0 of ``channels`` as per-layer
    metrics."""
    k = 0
    hsr2 = float(np.abs(channels.h_sr[k]) ** 2)
    hrd2 = float(np.abs(channels.h_rd[k]) ** 2)
    zh = model.zeta_hat(channels, k, config)
    s2r, s2d = config.sigma2_relay, config.sigma2_dest
    ps = 0.37 * config.p_s_max
    pr = 0.61 * config.p_r_max
    grid = np.linspace(0.0, config.p_s_max, VEC_POINTS)

    out = {}
    for prefix, scalar, vector, n_scalar, n_vec in (
            ("model.rate_kernel",
             lambda: model._rate_exact_vals(ps, pr, hsr2, hrd2, zh, s2r, s2d),
             lambda: model._rate_exact_vals(grid, pr, hsr2, hrd2, zh, s2r, s2d),
             2000, 200),
            ("phase.coh_kernel",
             lambda: phase._interference_coh_vals(ps, pr, channels, k, config),
             lambda: phase._interference_coh_vals(grid, pr, channels, k, config),
             1000, 50)):
        out[f"{prefix}.scalar_us"] = (_per_call_us(scalar, n_scalar), "us")
        out[f"{prefix}.vec4k_us"] = (_per_call_us(vector, n_vec), "us")
    return out
