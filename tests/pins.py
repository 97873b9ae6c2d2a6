"""The pinned CSVs, each written once: its experiment, its config file, its row
count and the sha256 of the bytes ``emit_csv`` writes for its rows.

The in-process pins (criterion 5 in test_acceptance, the optimality-gap and
rate-vs-ibar pins in test_harness) and the baseline-dispatch test in
test_harness all read this table.

Run as a script (``PYTHONPATH=src python tests/pins.py``), it first checks that
numpy dispatches to no SIMD target beyond its baseline and that every target
named in ``NPY_DISABLE_CPU_FEATURES`` is reported as not found, then writes
each pinned CSV into a temporary directory and prints {name: sha256} as JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fdrelay as fd
from fdrelay import harness
from fdrelay.harness import ExperimentSpec

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@dataclass(frozen=True)
class Pin:
    config: str          # file name under configs/
    spec: ExperimentSpec
    rows: int
    sha256: str

    def run(self):
        return harness.run_experiment(self.spec, harness.load_config(CONFIG_DIR / self.config))


# multi-relay network solves, warm-chained over the caps (zero and no cap
# included), with coherent relay skipping
_RATE_VS_IBAR = ExperimentSpec(
    name="rate-vs-ibar", scenarios=(fd.NONCOHERENT, fd.COHERENT, fd.HD_BASELINE),
    zeta_list=(0.0, 0.001, 0.4),
    i_bar_p_db_list=(-math.inf, -10.0, 0.0, 5.0, 10.0, 30.0, math.inf),
    p_max_db_list=(20.0,), num_realizations=2, base_seed=7)

PINS = {
    # the full-duplex rows of criterion 5 (200 realizations of the stock setup)
    "criterion-5": Pin("stock8.cfg", ExperimentSpec(
        name="rate-vs-ibar", scenarios=(fd.NONCOHERENT, fd.COHERENT),
        zeta_list=(0.0, 0.001, 0.01, 0.4), i_bar_p_db_list=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        p_max_db_list=(20.0,), num_realizations=200, base_seed=0),
        9600, "9a118adbaa0fcf6ffb1538b1214e6def4a35602d29ada2bdb88b8c478079b09b"),
    # the per-realization oracle lattices
    "optimality-gap": Pin("stock8.cfg", ExperimentSpec(
        name="optimality-gap", scenarios=(fd.NONCOHERENT, fd.COHERENT, fd.HD_BASELINE),
        zeta_list=(0.0, 0.4), i_bar_p_db_list=(30.0, -10.0, 0.0, 10.0),
        num_realizations=2, base_seed=5, grid_n=51),
        48, "4807379ec818b98436023151bfbcfead46073d5fc2b447a8e2cd98329aaef810"),
    "rate-vs-ibar-stock8": Pin("stock8.cfg", _RATE_VS_IBAR, 126,
                               "78f5ab620adc4f6600614eb6d926f95312ef342000e07524f825afce9eb9c411"),
    "rate-vs-ibar-strong-leakage": Pin(
        "strong-leakage.cfg", _RATE_VS_IBAR, 126,
        "ce3e81f6fd3642093a592b830c3d7054a728fc0f258ce810d900544c568b25d6"),
}


def csv_sha256(rows, path) -> str:
    """sha256 of the CSV that ``emit_csv`` writes for ``rows`` at ``path``."""
    harness.emit_csv(rows, path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main() -> None:
    simd = np.__config__.CONFIG["SIMD Extensions"]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    if simd.get("found") or not set(disabled) <= set(simd.get("not found", [])):
        raise SystemExit(f"numpy is not at its baseline dispatch: {simd}")
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({name: csv_sha256(pin.run(), Path(tmp) / f"{name}.csv")
                          for name, pin in PINS.items()}))


if __name__ == "__main__":
    main()
