"""One digest over the raw bits of a fixed set of network solves.

Run as a script (``PYTHONPATH=src python tests/identity.py``) on two commits:
if they print the same digest, every solve of the set returned the same
allocation, rate, iteration count and selection, bit for bit.  Raw bits are a
property of the host as well as of the code (README, "Reproducibility"), so
the script prints numpy's SIMD dispatch beside the digest; compare digests
only between runs with the same dispatch.  pytest does not collect this file;
the tests import its extreme generator (``extreme_instances``).

The set:

* 38,880 warm-chained network solves: stock8, strong-leakage and single-relay;
  P_s = P_r = P_max in {0, 20, 40} dB; zeta in {0, 0.001, 0.4}; seeds 0-59;
  all three scenarios; the cap chained through {-inf, -10, 0, 2, 5, 10, 30,
  inf} dB, each solve warm-started from the one before (246,240 relay results);
* 3,000 one-relay coherent solves over the extreme ranges (the generator
  below, ``default_rng(11)``), with numpy warnings raised as errors.

The digest is one sha256 over, per solve in that order, ``float.hex`` of each
relay's (p_s, p_r, rate), its ``iterations``, and the solve's ``selected``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

import fdrelay as fd
from fdrelay import harness

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = ("stock8.cfg", "strong-leakage.cfg", "single-relay.cfg")
P_MAX_DB = (0.0, 20.0, 40.0)
ZETAS = (0.0, 0.001, 0.4)
SEEDS = range(60)
SCENARIOS = (fd.NONCOHERENT, fd.COHERENT, fd.HD_BASELINE)
CAPS_DB = (-math.inf, -10.0, 0.0, 2.0, 5.0, 10.0, 30.0, math.inf)
EXTREME = 3000


def extreme_instances(n):
    """(channels, config) of the first n draws of the extreme one-relay generator."""
    rng = np.random.default_rng(11)
    for _ in range(n):
        ps_max, pr_max = 10 ** rng.uniform(-9, 9), 10 ** rng.uniform(-9, 9)
        ibar = 10 ** rng.uniform(-12, 6)
        zeta = 0.0 if rng.random() < 0.2 else 10 ** rng.uniform(-6, 6)
        seed = int(rng.integers(1 << 30))
        cfg = fd.NetworkConfig(num_relays=1, zeta=zeta, p_s_max=ps_max,
                               p_r_max=pr_max, i_bar_p=ibar)
        yield fd.sample_channels(cfg, seed=seed), cfg


def warm_chained_solves():
    """Every solve of the warm-chained set, in digest order."""
    for name in CONFIGS:
        base = harness.load_config(CONFIG_DIR / name)
        for p_db, zeta, seed in itertools.product(P_MAX_DB, ZETAS, SEEDS):
            p_max = fd.db_to_linear(p_db)
            cfg = dataclasses.replace(base, zeta=zeta, p_s_max=p_max, p_r_max=p_max)
            channels = fd.sample_channels(cfg, seed=seed)
            for scenario in SCENARIOS:
                warm = None
                for cap_db in CAPS_DB:
                    cfg_cap = dataclasses.replace(cfg, i_bar_p=fd.db_to_linear(cap_db))
                    warm = fd.solve_network(channels, cfg_cap, scenario, warm=warm)
                    yield warm


def extreme_solves():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for channels, cfg in extreme_instances(EXTREME):
            yield fd.solve_network(channels, cfg, fd.COHERENT)


def update(digest, res) -> int:
    """Feed one solve into the digest; returns its relay count."""
    for r in res.relays:
        digest.update(" ".join(float(v).hex() for v in (r.alloc.p_s, r.alloc.p_r, r.rate))
                      .encode())
        digest.update(f" {r.iterations};".encode())
    digest.update(f"selected {res.selected}\n".encode())
    return len(res.relays)


def main() -> None:
    simd = np.__config__.CONFIG["SIMD Extensions"]
    digest, solves, relays, start = hashlib.sha256(), 0, 0, time.perf_counter()
    for res in itertools.chain(warm_chained_solves(), extreme_solves()):
        relays += update(digest, res)
        solves += 1
    print(json.dumps({"numpy": np.__version__, "simd_baseline": simd.get("baseline", []),
                      "simd_found": simd.get("found", []),
                      "simd_not_found": simd.get("not found", []), "solves": solves,
                      "relay_results": relays, "seconds": round(time.perf_counter() - start, 1),
                      "sha256": digest.hexdigest()}))


if __name__ == "__main__":
    main()
