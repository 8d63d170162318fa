"""Workload definitions: seeded configs, CLI argument lists and output checks.

Each op of a workload is one ``halfcav.cli.main(argv)`` call.  Only the
time-bin amplitude alpha and phase phi come from the seed; t1, t2, sigma,
storage_T and the sweep grid are fixed, so the cost of an op does not drift
with the seed (the grid size moves by under 0.2% through the pulse support
cutoff, which depends on alpha).
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("store_long_hold", "sweep_bandwidth", "oracle_default")

SWEEP = {"sigma_min": 0.02, "sigma_max": 5.0, "n_points": 16}

# Limits on results that do not depend on the seed; an op past them fails.
# The store pulse is absorbed and re-emitted almost whole: over seeds 1 to
# 40, 1 - eta was 1.04e-7 to 1.29e-7.
STORE_LOSS_MAX = 5e-7
# The oracle's worst case is the scenario's write phase, max|dP| = 2.68e-7
# for every seed tried; the report's own tolerance, 1e-6, is looser.
ORACLE_DP_MAX = 4e-7


def time_bin(seed: int) -> dict:
    """Pulse section with alpha in [0.3, 0.95] and phi in [0, 2*pi)."""
    rng = random.Random(seed)
    alpha = 0.3 + 0.65 * rng.random()
    phi = 2.0 * math.pi * rng.random()
    return {
        "alpha": alpha,
        "beta": math.sqrt(1.0 - alpha * alpha),
        "phi": phi,
        "t1": 0.0,
        "t2": 20.0,
        "sigma": 0.2,
    }


def make_config(workload: str, seed: int) -> dict | None:
    """Scenario config for the workload, or None for the built-in default."""
    if workload == "store_long_hold":
        return {"pulse": time_bin(seed), "storage_T": 1000.0}
    if workload == "sweep_bandwidth":
        return {"pulse": time_bin(seed), "storage_T": 30.0, "sweep": dict(SWEEP)}
    if workload == "oracle_default":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(workload: str, seed: int, config_path: Path | None, out_dir: Path) -> list[str]:
    command = {
        "store_long_hold": "store",
        "sweep_bandwidth": "sweep",
        "oracle_default": "oracle",
    }[workload]
    argv = [command, "--out", str(out_dir)]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    if workload == "oracle_default":
        argv += ["--seed", str(seed)]
    return argv


def output_files(workload: str, out_dir: Path) -> list[Path]:
    """Files an op writes, besides its standard output."""
    if workload == "store_long_hold":
        return [out_dir / "run.json", out_dir / "timeseries.csv"]
    if workload == "sweep_bandwidth":
        return [out_dir / "sweep.csv"]
    return []


def _unit(name: str, value: float, errors: list[str]) -> None:
    if not 0.0 <= value <= 1.0:
        errors.append(f"{name}={value!r} outside [0, 1]")


def _product(eta: float, eta_w: float, eta_r: float, errors: list[str], where: str) -> None:
    if not math.isclose(eta, eta_w * eta_r, rel_tol=1e-12, abs_tol=1e-300):
        errors.append(f"{where}: eta={eta!r} != eta_w*eta_r={eta_w * eta_r!r}")


def check_store(out_dir: Path, grid_n: int | None) -> tuple[list[str], dict]:
    errors: list[str] = []
    record = json.loads((out_dir / "run.json").read_text())
    for key in ("eta_w", "eta_r", "eta", "fidelity"):
        _unit(key, record[key], errors)
    _product(record["eta"], record["eta_w"], record["eta_r"], errors, "run.json")
    if not 1.0 - record["eta"] <= STORE_LOSS_MAX:
        errors.append(f"store loss 1 - eta = {1.0 - record['eta']!r} above {STORE_LOSS_MAX}")

    with open(out_dir / "timeseries.csv") as fh:
        header = fh.readline().rstrip("\n").split(",")
        p_col = header.index("P")
        rows = 0
        for line in fh:
            fields = line.split(",")
            if len(fields) != len(header):
                errors.append(f"timeseries row {rows + 1} has {len(fields)} fields")
                break
            p = float(fields[p_col])
            if not 0.0 <= p <= 1.0:
                errors.append(f"timeseries row {rows + 1}: P={p!r} outside [0, 1]")
                break
            rows += 1
    if rows == 0:
        errors.append("timeseries.csv has no rows")
    if grid_n is not None and rows != grid_n:
        errors.append(f"timeseries.csv has {rows} rows, grid has {grid_n} samples")
    return errors, {"eta_min": record["eta"], "fidelity_min": record["fidelity"]}


def check_sweep(out_dir: Path) -> tuple[list[str], dict]:
    errors: list[str] = []
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    if len(rows) != SWEEP["n_points"]:
        errors.append(f"sweep.csv has {len(rows)} rows, expected {SWEEP['n_points']}")
    sigmas = [row["sigma_over_gamma0"] for row in rows]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        errors.append("sweep.csv sigma column is not strictly ascending")
    for i, row in enumerate(rows):
        for key in ("eta_w", "eta_r", "eta", "F"):
            _unit(f"row {i} {key}", row[key], errors)
        _product(row["eta"], row["eta_w"], row["eta_r"], errors, f"sweep row {i}")
    physics = {
        "eta_min": min(row["eta"] for row in rows),
        "fidelity_min": min(row["F"] for row in rows),
    }
    return errors, physics


def check_oracle(stdout: str) -> tuple[list[str], dict]:
    errors: list[str] = []
    report = json.loads(stdout)
    if report.get("passed") is not True:
        errors.append(f"oracle report passed={report.get('passed')!r}")
    if not report["max_abs_dP"] <= ORACLE_DP_MAX:
        errors.append(f"oracle max|dP| = {report['max_abs_dP']!r} above {ORACLE_DP_MAX}")
    return errors, {
        "oracle_max_abs_dP": report["max_abs_dP"],
        "oracle_tolerance": report["tolerance"],
    }


def check_op(
    workload: str, out_dir: Path, stdout: str, grid_n: int | None = None
) -> tuple[list[str], dict]:
    """Validate one op's outputs; returns (errors, physics values)."""
    try:
        if workload == "store_long_hold":
            return check_store(out_dir, grid_n)
        if workload == "sweep_bandwidth":
            return check_sweep(out_dir)
        return check_oracle(stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def physics_score(workload: str, physics: dict) -> float:
    """Lowest efficiency eta of the op, or for the oracle the share of its
    error tolerance left unused, 1 - max|dP| / tolerance.

    eta, not the loss 1 - eta: through alpha, the sweep's loss moves by a
    quarter from seed to seed and its eta by a few percent.
    """
    if workload == "oracle_default":
        return 1.0 - physics["oracle_max_abs_dP"] / physics["oracle_tolerance"]
    return physics["eta_min"]
