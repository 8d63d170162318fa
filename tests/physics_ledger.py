"""The physics ledger: every number that a fixed list of runs reports.

``tests/physics_ledger.json`` holds, for each case, its config and what the
package reports for it:

- ``store``: every value of the run.json record, and under
  ``columns_sha256`` the sha256 of each timeseries.csv column's float64
  bytes, so that a moved sample shows although run.json holds none;
- ``sweep``: every row of sweep.csv;
- ``oracle``: the per-case gaps of the oracle report, max|dP|;
- ``oracle_write``: the oracle report's ``scenario_write`` gap alone.  The
  random pairs depend on the seed and ``memory`` only, so the ledger holds
  their gaps once, under ``oracle_default``, and a further oracle config
  runs only its write.

Floats are written as JSON numbers, which Python writes and reads with
``repr``, so the file keeps every bit.  ``tests/test_physics_ledger.py``
recomputes each case in process, on one worker, and compares: exactly on
the build that the ledger records (``build``), and within REL_TOL and
ABS_TOL elsewhere, since another numpy version or SIMD set can move the
last bit (numpy fuses complex products where the CPU has FMA).  The column
digests are compared on the recorded build only: a moved last bit changes
a digest entirely.

A change that moves a number on purpose rewrites the ledger, and its diff
shows every moved digit.  Rewrite it from the repository root with

    PYTHONPATH=src python tests/physics_ledger.py

which prints each number it moved as ``path: old -> new`` and then the
largest absolute and relative move.
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from halfcav import scenario
from halfcav.scenario import ScenarioConfig, build_store_run, oracle_check, sweep_point

LEDGER = Path(__file__).with_name("physics_ledger.json")

# Off the recorded build: |got - want| <= max(REL_TOL*|want|, ABS_TOL).
# ABS_TOL covers the oracle's gaps, differences of two populations near 1.
REL_TOL = 1e-9
ABS_TOL = 1e-13

# The configs of perfbench's store_long_hold seed 7, whose t_w0 reads
# -499.99999999999994 and not -500.0, and of sweep_bandwidth seed 1.
STORE_LONG_HOLD_SEED_7 = {
    "pulse": {"alpha": 0.5104912971415555, "beta": 0.8598829196714702,
              "phi": 0.9478133132026084, "t1": 0.0, "t2": 20.0, "sigma": 0.2},
    "storage_T": 1000.0,
}
SWEEP_BANDWIDTH_SEED_1 = {
    "pulse": {"alpha": 0.3873367586730608, "beta": 0.9219383034567157,
              "phi": 5.324583204732311, "t1": 0.0, "t2": 20.0, "sigma": 0.2},
    "storage_T": 30.0,
    "sweep": {"sigma_min": 0.02, "sigma_max": 5.0, "n_points": 16},
}
CHIRPED = {"phase_compensation": False, "storage_T": 0.0}
# A write and a read that both reach the cap 2*gamma0.
CAPPED = {"pulse": {"alpha": -0.6, "beta": 0.8, "phi": 2.0, "sigma": 5.0}}
# The only case that writes in the lab frame onto the cap.
CHIRPED_CAPPED = {"phase_compensation": False, **CAPPED}
# The key of a store case's column digests in its numbers.
DIGESTS = "columns_sha256"

# (name, command, config): the command's numbers for the config.
CASES = [
    ("default", "store", {}),
    ("chirped", "store", CHIRPED),
    ("single_gaussian_sigma_1", "store",
     {"pulse": {"alpha": 1.0, "beta": 0.0, "t1": 0.0, "t2": 1.0, "sigma": 1.0}}),
    ("capped_time_bin_sigma_5", "store", CAPPED),
    ("chirped_capped", "store", CHIRPED_CAPPED),
    ("store_long_hold_seed_7", "store", STORE_LONG_HOLD_SEED_7),
    ("sweep_bandwidth_seed_1", "sweep", SWEEP_BANDWIDTH_SEED_1),
    ("oracle_default", "oracle", {}),
    ("oracle_chirped", "oracle_write", CHIRPED),
    ("oracle_capped_time_bin_sigma_5", "oracle_write", CAPPED),
    ("oracle_chirped_capped", "oracle_write", CHIRPED_CAPPED),
]


def build() -> dict:
    """What the last bits depend on: numpy's version, the SIMD set it runs
    on, the machine and the C library (its libm)."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
    )

    return {
        "numpy": np.__version__,
        "simd": [*__cpu_baseline__, *(f for f in __cpu_dispatch__ if __cpu_features__[f])],
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
    }


def compute(command: str, config: dict):
    """The numbers that ``command`` reports for ``config``, in process."""
    cfg = ScenarioConfig.from_dict(config)
    if command == "store":
        run = build_store_run(cfg)
        columns = run.timeseries_columns()
        digests = {name: hashlib.sha256(np.ascontiguousarray(column, dtype=np.float64)).hexdigest()
                   for name, column in columns.items()}
        return {**run.record(columns), DIGESTS: digests}
    if command == "sweep":
        return [sweep_point(cfg, float(s)) for s in cfg.sweep.sigmas()]
    if command == "oracle":
        return {c["case"]: c["max_abs_dP"] for c in oracle_check(cfg, threads=1)["cases"]}
    if command == "oracle_write":
        # The oracle's first case, the write; the seed draws only the random pairs.
        write = scenario._case_gap(*scenario._oracle_cases(cfg, seed=0)[0])
        return {write["case"]: write["max_abs_dP"]}
    raise ValueError(f"unknown command {command!r}")


def leaves(tree, path=""):
    """(path, value) for each number, bool or string in a JSON tree."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, tree


def moves(old_cases: list, new_cases: list) -> list:
    """(path, old, new) for each value the new cases hold with other bits
    than the old, by case name; None stands for a value one side lacks."""
    old = dict(leaves({c["name"]: c["numbers"] for c in old_cases}))
    new = dict(leaves({c["name"]: c["numbers"] for c in new_cases}))
    return [(path, old.get(path), new.get(path)) for path in {**old, **new}
            if repr(old.get(path)) != repr(new.get(path))]


def report(moved: list) -> None:
    """Print each move and the largest absolute and relative float move."""
    for path, old, new in moved:
        print(f"{path}: {old!r} -> {new!r}")
    print(f"{len(moved)} moved")
    floats = [(abs(new - old), path, old) for path, old, new in moved
              if type(old) is type(new) is float]
    if floats:
        step, path, _ = max(floats)
        print(f"largest absolute move: {step!r} at {path}")
    relative = [(step / abs(old), path) for step, path, old in floats if old]
    if relative:
        step, path = max(relative)
        print(f"largest relative move: {step!r} at {path}")


def main() -> int:
    old = json.loads(LEDGER.read_text())["cases"] if LEDGER.exists() else []
    cases = [{"name": name, "command": command, "config": config,
              "numbers": compute(command, config)}
             for name, command, config in CASES]
    ledger = {"build": build(), "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "cases": cases}
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {LEDGER.name}: {len(cases)} cases", file=sys.stderr)
    # Read back as the file holds them, so a move is one the file shows.
    report(moves(old, json.loads(LEDGER.read_text())["cases"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
