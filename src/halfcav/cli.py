"""Command-line scenario runner and data exporter.

Subcommands:
  store   one store/retrieve run -> timeseries.csv + run.json
  sweep   bandwidth sweep        -> sweep.csv
  oracle  quadrature vs RK4 check -> JSON report on stdout, exit 0/1
  mirror  mirror program export  -> mirror.csv + feasibility.json

All emitted files are deterministic byte-for-byte for a fixed config and
seed: floats are written with 17 significant digits, JSON keys are sorted,
and sweep rows are written in input order regardless of worker scheduling.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from .mirror import feasibility_report, trajectory_from_decay
from .scenario import ScenarioConfig, StoreRun, build_store_run, oracle_check, sweep_point


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write columns of floats, each with 17 significant digits."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str | None, phase_compensation: bool | None = None) -> ScenarioConfig:
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
    if phase_compensation is not None:
        raw["phase_compensation"] = phase_compensation
    return ScenarioConfig.from_dict(raw)


def emit_store(run: StoreRun, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    t = run.grid.times - run.t_mid
    traj = trajectory_from_decay(run.profile_total, run.config.memory)
    ts_path = out_dir / "timeseries.csv"
    write_csv(
        ts_path,
        ["t", "xi_in_re", "xi_in_im", "xi_out_re", "xi_out_im",
         "gamma_z_w", "gamma_z_r", "l_over_lambda", "P"],
        [t,
         run.xi_in.samples.real, run.xi_in.samples.imag,
         run.read.xi_out.samples.real, run.read.xi_out.samples.imag,
         run.write.profile.gamma_z, run.read.profile.gamma_z,
         traj.l_over_lambda, run.trace_total],
    )
    record = run.record()
    record["files"] = {"timeseries": ts_path.name, "run": "run.json"}
    write_json(out_dir / "run.json", record)
    return record


def emit_sweep(cfg: ScenarioConfig, out_dir: Path) -> list[dict]:
    if cfg.sweep is None:
        raise ValueError("config has no sweep section")
    sigmas = [float(s) for s in cfg.sweep.sigmas()]
    max_workers = os.cpu_count() or 1
    env_cap = os.environ.get("HALFCAV_THREADS")
    if env_cap:
        max_workers = max(1, min(max_workers, int(env_cap)))
    max_workers = min(max_workers, len(sigmas))
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(partial(sweep_point, cfg), sigmas))
    else:
        rows = [sweep_point(cfg, s) for s in sigmas]
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["sigma_over_gamma0", "eta_w", "eta_r", "eta", "F"]
    write_csv(out_dir / "sweep.csv", header, [[row[k] for row in rows] for k in header])
    return rows


def emit_mirror(run: StoreRun, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = trajectory_from_decay(run.profile_total, run.config.memory)
    write_csv(
        out_dir / "mirror.csv",
        ["t", "gamma_z", "l_over_lambda", "velocity"],
        [run.grid.times - run.t_mid, run.profile_total.gamma_z,
         traj.l_over_lambda, traj.velocity],
    )
    report = feasibility_report(traj, run.config.memory)
    write_json(out_dir / "feasibility.json", report)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="halfcav",
        description="Quantum memory simulator: a two-level atom in front of "
        "a movable mirror storing and re-emitting single-photon pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("store", "sweep", "oracle", "mirror"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="scenario JSON file")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=12345, help="RNG seed")
        p.add_argument(
            "--no-phase-compensation",
            action="store_true",
            help="disable level-shift phase compensation (raw chirped output)",
        )
    args = parser.parse_args(argv)

    comp = False if args.no_phase_compensation else None
    try:
        cfg = load_config(args.config, phase_compensation=comp)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"halfcav: invalid config: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)

    if args.command == "store":
        record = emit_store(build_store_run(cfg), out_dir)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.command == "sweep":
        try:
            emit_sweep(cfg, out_dir)
        except ValueError as exc:
            print(f"halfcav: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.command == "oracle":
        report = oracle_check(cfg, seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        if report["skipped"]:
            print(f"halfcav: {report['warning']}", file=sys.stderr)
            return 0
        return 0 if report["passed"] else 1
    if args.command == "mirror":
        report = emit_mirror(build_store_run(cfg), out_dir)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
