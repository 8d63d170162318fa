"""Command-line scenario runner and data exporter.

Subcommands:
  store   one store/retrieve run -> timeseries.csv + run.json
  sweep   bandwidth sweep        -> sweep.csv
  oracle  quadrature vs RK4 check -> JSON report on stdout, exit 0/1
  mirror  mirror program export  -> mirror.csv + feasibility.json

All emitted files are deterministic byte-for-byte for a fixed config (and,
for oracle, a fixed --seed, the only subcommand that draws random numbers):
floats are written with 17 significant digits, JSON keys are sorted, and
sweep rows are written in input order regardless of worker scheduling.
The sweep runs on one worker process per CPU, at most HALFCAV_THREADS (a
positive integer) when that is set; any other value exits 2.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .mirror import feasibility_report, trajectory_from_decay
from .scenario import (
    ScenarioConfig,
    StoreRun,
    build_store_run,
    oracle_check,
    resolution_warning,
    sweep_point,
)


# Rows formatted and held in memory at a time by write_csv.
CSV_CHUNK_ROWS = 4096


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write columns of floats, each with 17 significant digits ("%.17g").

    The bytes are those of formatting every field of every row, with fewer
    formats: the rows go out in chunks of CSV_CHUNK_ROWS, and in a chunk the
    first field of each row is formatted, but the rest of the row (its tail)
    only where it differs from the tail of the row before.  Tails are
    compared bit for bit, so -0.0 and 0.0 stay apart.  A run of equal tails,
    such as the hold rows of the store timeline where only t moves, reuses
    one string.  The chunk is bounded because a chunk's strings, about
    0.8 kB a row, are held until it is written: on a storage_T = 1000 store
    (perfbench store_long_hold) 4,096-row chunks raise the peak RSS from 64
    to 67 MB, and 32,768-row chunks to 75 MB for no further speed.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    n = min((len(a) for a in arrays), default=0)
    tail_format = ",%.17g" * (len(arrays) - 1) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, n)
            tail = np.empty((stop - start, len(arrays) - 1))
            for j, a in enumerate(arrays[1:]):
                tail[:, j] = a[start:stop]
            bits = tail.view(np.int64)
            changed = np.ones(stop - start, dtype=bool)
            changed[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            tails = np.array(
                [tail_format % tuple(r) for r in tail[changed].tolist()], dtype=object
            )
            parts = [""] * (2 * (stop - start))
            parts[0::2] = ["%.17g" % v for v in arrays[0][start:stop].tolist()]
            parts[1::2] = tails[np.cumsum(changed) - 1].tolist()
            fh.write("".join(parts))


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str | None) -> ScenarioConfig:
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
    return ScenarioConfig.from_dict(raw)


def timeseries_columns(run: StoreRun) -> dict:
    """The columns of timeseries.csv, by header name, on the full timeline."""
    traj = trajectory_from_decay(run.grid, run.gamma_z, run.config.memory)
    return {
        "t": run.grid.times - run.t_mid,
        "xi_in_re": run.xi_in.samples.real,
        "xi_in_im": run.xi_in.samples.imag,
        "xi_out_re": run.xi_out.samples.real,
        "xi_out_im": run.xi_out.samples.imag,
        "gamma_z_w": run.gamma_w,
        "gamma_z_r": run.gamma_r,
        "l_over_lambda": traj.l_over_lambda,
        "P": run.trace_total,
    }


def emit_store(run: StoreRun, out_dir: Path) -> dict:
    ts_path = out_dir / "timeseries.csv"
    columns = timeseries_columns(run)
    write_csv(ts_path, list(columns), list(columns.values()))
    record = run.record()
    record["files"] = {"timeseries": ts_path.name, "run": "run.json"}
    write_json(out_dir / "run.json", record)
    return record


def parse_threads(raw: str | None) -> int | None:
    """The HALFCAV_THREADS cap on sweep workers, or None when unset."""
    if not raw:
        return None
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"HALFCAV_THREADS must be a positive integer, got {raw!r}")


def emit_sweep(cfg: ScenarioConfig, out_dir: Path, threads: int | None = None) -> list[dict]:
    """Run the sweep on up to ``threads`` workers (default: one per CPU)."""
    sigmas = [float(s) for s in cfg.sweep.sigmas()]
    max_workers = min(os.cpu_count() or 1, threads or len(sigmas), len(sigmas))
    if max_workers > 1:
        # Imported here so the other subcommands never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(partial(sweep_point, cfg), sigmas))
    else:
        rows = [sweep_point(cfg, s) for s in sigmas]
    header = ["sigma_over_gamma0", "eta_w", "eta_r", "eta", "F"]
    write_csv(out_dir / "sweep.csv", header, [[row[k] for row in rows] for k in header])
    return rows


def emit_mirror(run: StoreRun, out_dir: Path) -> dict:
    traj = trajectory_from_decay(run.grid, run.gamma_z, run.config.memory)
    write_csv(
        out_dir / "mirror.csv",
        ["t", "gamma_z", "l_over_lambda", "velocity"],
        [run.grid.times - run.t_mid, run.gamma_z, traj.l_over_lambda, traj.velocity],
    )
    report = feasibility_report(traj)
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
        if name == "oracle":
            p.add_argument("--seed", type=int, default=12345, help="RNG seed")
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be non-negative")

    try:
        cfg = load_config(args.config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"halfcav: invalid config: {exc}", file=sys.stderr)
        return 2
    threads = None
    if args.command == "sweep":
        try:
            if cfg.sweep is None:
                raise ValueError("config has no sweep section")
            threads = parse_threads(os.environ.get("HALFCAV_THREADS"))
        except ValueError as exc:
            print(f"halfcav: {exc}", file=sys.stderr)
            return 2
    out_dir = Path(args.out)
    if args.command != "oracle":
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"halfcav: cannot create the output directory: {exc}", file=sys.stderr)
            return 2
    warning = resolution_warning(cfg)
    if warning is not None and args.command != "oracle":
        print(f"halfcav: {warning}; results are not resolved", file=sys.stderr)

    if args.command == "store":
        record = emit_store(build_store_run(cfg), out_dir)
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.command == "sweep":
        emit_sweep(cfg, out_dir, threads)
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
