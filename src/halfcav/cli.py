"""Command-line scenario runner and data exporter.

Subcommands:
  store   one store/retrieve run -> timeseries.csv + run.json (with the
          mirror program's feasibility numbers)
  sweep   bandwidth sweep        -> sweep.csv
  oracle  quadrature vs RK4 check -> JSON report on stdout, exit 0/1

All emitted files are deterministic byte-for-byte for a fixed config (and,
for oracle, a fixed --seed, the only subcommand that draws random numbers):
floats are written with 17 significant digits, JSON keys are sorted, and
sweep points, oracle cases and CSV row chunks come back in input order at
any worker count.  Each subcommand runs on one worker per CPU this process
may use, and at most HALFCAV_THREADS (a positive integer) when that is set
(core.worker_count); any other HALFCAV_THREADS value exits 2, on every
subcommand, before anything is computed or written.  Sweep points and CSV
row chunks run on core.pool_map's processes (write_csv), oracle cases on
threads (scenario.oracle_check); at one worker nothing is forked and no
thread starts.

Where the C library is glibc, sweep and oracle keep up to 64 MiB of freed
heap for the rest of the process and the workers it forks, in one arena
for all its threads (_keep_freed_heap), so that each sweep point or oracle
case reuses the pages one before it freed instead of faulting fresh ones
in; no output depends on it.  store does not: it has one run to make, and
the kept heap only raised its peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .core import pool_map
from .scenario import (
    ScenarioConfig,
    StoreRun,
    build_store_run,
    oracle_check,
    sweep_point,
)


# Rows formatted and held in memory at a time by one write_csv chunk.
CSV_CHUNK_ROWS = 4096

# Bytes of write_csv's temporary file set aside for one field of a chunk:
# the longest float64 "%.17g", -2.2250738585072014e-308, and a separator.
CSV_FIELD_BYTES = 25


def _keep_freed_heap() -> bool:
    """Set glibc's M_MMAP_THRESHOLD to 32 MiB, its 64-bit maximum,
    M_TRIM_THRESHOLD to 64 MiB and M_ARENA_MAX to 1, for the rest of this
    process and the workers pool_map forks.

    By default glibc maps each array above a dynamic threshold afresh and
    hands the freed top of the heap back to the kernel, so every sweep point
    and oracle case faulted its whole peak in again: about 16k minor faults
    an op, against under ten with these settings.  Each further thread that
    allocates would also get an arena of its own, which kept its own freed
    heap: the oracle's threads share the one arena instead (12 oracle runs in
    one process on two threads of a 2-CPU Xeon: 47.4 MB ru_maxrss with an
    arena a thread, 46.0 MB with one, at the same speed).  True when mallopt
    accepted all three; False where the C library is not glibc, has no
    mallopt, or refuses a value.
    """
    if not hasattr(os, "confstr"):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):
        return False
    # Imported here so the store path and a plain import never load ctypes.
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD (-3), M_TRIM_THRESHOLD (-1) and M_ARENA_MAX (-8) in
    # glibc's malloc.h.
    return (mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1
            and mallopt(-8, 1) == 1)


def _format_chunk(arrays: list, rows: slice) -> bytes:
    """The CSV bytes of ``rows``.  A run of rows whose tails (each row but its
    first field) change is one format of all its fields; a run that repeats
    the tail of the row before it formats its first fields only, around that
    tail formatted once."""
    block = np.empty((rows.stop - rows.start, len(arrays)))
    for j, a in enumerate(arrays):
        block[:, j] = a[rows]
    bits = block[:, 1:].view(np.int64)
    repeats = np.zeros(len(block), dtype=bool)
    repeats[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    bounds = (np.flatnonzero(repeats[1:] != repeats[:-1]) + 1).tolist()
    tail_format = b",%.17g" * (len(arrays) - 1) + b"\n"
    row_format = b"%.17g" + tail_format
    parts = []
    for start, stop in zip([0, *bounds], [*bounds, len(block)]):
        if repeats[start]:
            tail = tail_format % tuple(block[start - 1, 1:].tolist())
            parts.append((b"%.17g" + tail) * (stop - start) % tuple(block[start:stop, 0].tolist()))
        else:
            parts.append(row_format * (stop - start) % tuple(block[start:stop].ravel().tolist()))
    return b"".join(parts)


def _write_chunk(arrays: list, fd: int, rows: slice) -> int:
    """Write the CSV bytes of ``rows`` at the start of their region of the
    file ``fd``, CSV_FIELD_BYTES a field from row ``rows.start`` on, and
    return their length."""
    text = _format_chunk(arrays, rows)
    region = (rows.stop - rows.start) * len(arrays) * CSV_FIELD_BYTES
    if len(text) > region:
        raise RuntimeError(f"rows from {rows.start}: {len(text)} CSV bytes for a {region}-byte region")
    written = os.pwrite(fd, text, rows.start * len(arrays) * CSV_FIELD_BYTES)
    if written != len(text):
        raise OSError(f"short write: {written} of {len(text)} CSV bytes from row {rows.start}")
    return written


def write_csv(path: Path, header: list[str], columns: list, threads: int | None = None) -> None:
    """Write columns of floats, each with 17 significant digits ("%.17g"),
    one header name per column; columns of unequal length, or a header of
    another length, raise ValueError before any file is opened.

    The bytes are those of formatting every field of every row, with fewer
    formats: the rows go out in chunks of CSV_CHUNK_ROWS, and in a chunk the
    rest of a row after its first field (its tail) is formatted only where
    it differs from the tail of the row before.  Tails are compared bit for
    bit, so -0.0 and 0.0 stay apart.  A run of equal tails, such as the hold
    rows of the store timeline where only t moves, is one format of its
    first fields around one tail; a run of changing tails is one format of
    all its fields.  Each chunk restarts the reuse, so its bytes depend on
    its own rows only, and the file is the same at any worker count.

    Each chunk is one item of core.pool_map (at most ``threads`` processes,
    this one among them; with one, nothing is forked).  Whichever process
    runs a chunk writes its bytes with os.pwrite into its own region of an
    anonymous temporary file beside ``path`` and returns only their length.
    A region holds CSV_FIELD_BYTES (25) a field: the longest "%.17g" of a
    float64, -2.2250738585072014e-308, is 24 bytes, and a separator follows
    it.  So regions do not overlap; a chunk longer than its region raises
    RuntimeError rather than write into the next, and a short write raises
    OSError.  This process then copies each chunk in order from its region
    into ``path`` with os.pread: no text crosses a pipe, and this process
    holds no chunk text but the one it copies or formats.  The forked
    workers inherit the temporary file's descriptor.

    The temporary file takes disk space up to the CSV's size while it runs
    (the rest of each region is a hole) and is gone when write_csv returns
    or raises, so no other file is left beside ``path``.  A chunk peaks at
    about 0.6 kB a row of nine columns while it is formatted (0.2 kB a hold
    row), and each process formats one chunk at a time.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    lengths = {len(a) for a in arrays}
    if len(header) != len(arrays) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {sorted(lengths)}")
    n = min(lengths, default=0)
    chunks = [slice(start, min(start + CSV_CHUNK_ROWS, n)) for start in range(0, n, CSV_CHUNK_ROWS)]
    with open(path, "wb") as fh, tempfile.TemporaryFile(dir=path.parent) as tmp:
        fh.write((",".join(header) + "\n").encode())
        written = pool_map(partial(_write_chunk, arrays, tmp.fileno()), chunks, threads)
        for rows, length in zip(chunks, written):
            fh.write(os.pread(tmp.fileno(), length, rows.start * len(arrays) * CSV_FIELD_BYTES))


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


def emit_store(run: StoreRun, out_dir: Path, threads: int | None = None) -> dict:
    ts_path = out_dir / "timeseries.csv"
    columns = run.timeseries_columns()
    # Taken before the CSV is written, whose chunks then reuse the heap that
    # the feasibility numbers' arrays free: taken after it, they raised the
    # peak RSS of a storage_T = 1000 store on one worker from 44.0 to 45.2 MB.
    record = run.record(columns)
    write_csv(ts_path, list(columns), list(columns.values()), threads)
    record["files"] = {"timeseries": ts_path.name, "run": "run.json"}
    write_json(out_dir / "run.json", record)
    return record


def parse_threads(raw: str | None) -> int | None:
    """The HALFCAV_THREADS cap on the workers of every subcommand
    (core.worker_count), or None when unset."""
    if not raw:
        return None
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"HALFCAV_THREADS must be a positive integer, got {raw!r}")


def emit_sweep(cfg: ScenarioConfig, out_dir: Path, threads: int | None = None) -> list[dict]:
    """Run the sweep on pool_map's processes, at most ``threads`` (None: no cap)."""
    sigmas = [float(s) for s in cfg.sweep.sigmas()]
    rows = pool_map(partial(sweep_point, cfg), sigmas, threads)
    header = ["sigma_over_gamma0", "eta_w", "eta_r", "eta", "F"]
    write_csv(out_dir / "sweep.csv", header, [[row[k] for row in rows] for k in header], threads)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="halfcav",
        description="Quantum memory simulator: a two-level atom in front of "
        "a movable mirror storing and re-emitting single-photon pulses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("store", "sweep", "oracle"):
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
    except (ValueError, OSError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the interpreter recurses.
        print(f"halfcav: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "sweep" and cfg.sweep is None:
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
    if args.command != "store":
        # Not on store: it runs once per process, and there the kept heap
        # raised peak RSS from 45.7 to 54.4 MB (storage_T = 1000, in process).
        _keep_freed_heap()

    if args.command == "oracle":
        report = oracle_check(cfg, seed=args.seed, threads=threads)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["passed"] else 1
    try:
        if args.command == "sweep":
            emit_sweep(cfg, out_dir, threads)
            return 0
        record = emit_store(build_store_run(cfg), out_dir, threads)
    except OSError as exc:
        print(f"halfcav: cannot write the outputs: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
