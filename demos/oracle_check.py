"""Pit the envelope solver against the brute-force lattice, one realization.

Prints the chosen allocations side by side.  Negative gaps mean the solver
out-resolved the lattice (its optimum sits between grid points).
"""

import dataclasses

import fdrelay as fd


def main():
    config = fd.NetworkConfig(num_relays=1, zeta=0.001,
                              p_s_max=fd.db_to_linear(20.0),
                              p_r_max=fd.db_to_linear(20.0),
                              i_bar_p=1.0)
    channels = fd.sample_channels(config, seed=42)

    print(f"{'scen':<12} {'ibar_db':>7} {'solver (ps, pr) -> rate':>34} "
          f"{'oracle rate':>12} {'gap %':>8}")
    for scenario in ("noncoherent", "coherent"):
        for ibar_db in (0.0, 5.0, 10.0):
            cfg = dataclasses.replace(config, i_bar_p=fd.db_to_linear(ibar_db))
            res = fd.alternate_optimize(channels, 0, cfg, scenario)
            ref = fd.brute_force(channels, 0, cfg, scenario, grid_n=201)
            gap = 100.0 * (ref.rate - res.rate) / ref.rate
            print(f"{scenario:<12} {ibar_db:>7.1f} "
                  f"({res.alloc.p_s:8.3f}, {res.alloc.p_r:8.3f}) -> {res.rate:8.4f} "
                  f"{ref.rate:>12.4f} {gap:>+8.4f}")
        print()


if __name__ == "__main__":
    main()
