"""Command-line scenario runner and data exporter.

Subcommands:
  store   one store/retrieve run -> timeseries.csv + run.json (with the
          mirror program's feasibility numbers)
  sweep   bandwidth sweep        -> sweep.csv
  oracle  quadrature vs RK4 check -> JSON report on stdout, exit 0/1

All emitted files are deterministic byte-for-byte for a fixed config (and,
for oracle, a fixed --seed, the only subcommand that draws random numbers):
floats are written with 17 significant digits, JSON keys are sorted, and
sweep points and CSV row chunks are written in input order regardless of
worker scheduling.  The sweep points and the row chunks of every CSV run on
one worker process per CPU this process may use, at most HALFCAV_THREADS (a
positive integer) when that is set; any other value exits 2, on every
subcommand, before anything is computed or written.  With one worker, or
one item, no process pool starts.  The oracle starts no process and at
most one thread: when that count is 2 or more, a helper thread runs each
case's RK4 while this thread runs the next case's quadrature; with one,
no thread starts.  Its report is the same either way.

Where the C library is glibc, sweep and oracle keep up to 64 MiB of freed
heap for the rest of the process (_keep_freed_heap), so that each sweep
point or oracle case reuses the pages the one before it freed instead of
faulting fresh ones in; no output depends on it.  store does not: it has
one run to make, and the kept heap only raised its peak RSS.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from pathlib import Path

import numpy as np

from .scenario import (
    ScenarioConfig,
    StoreRun,
    build_store_run,
    oracle_check,
    resolution_warning,
    sweep_point,
)


# Rows formatted and held in memory at a time by one write_csv chunk.
CSV_CHUNK_ROWS = 4096

# Items a pool worker reads through every call, set once per worker process
# by the pool's initializer; never set in the parent.
_worker_shared: tuple = ()


def _keep_freed_heap() -> bool:
    """Set glibc's M_MMAP_THRESHOLD to 32 MiB, its 64-bit maximum, and
    M_TRIM_THRESHOLD to 64 MiB, for the rest of this process and the pool
    workers it forks.

    By default glibc maps each array above a dynamic threshold afresh and
    hands the freed top of the heap back to the kernel, so every sweep point
    and oracle case faulted its whole peak in again: about 16k minor faults
    an op, against under ten with these settings.  True when mallopt accepted
    both; False where the C library is not glibc, has no mallopt, or
    refuses a value.
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
    # M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) in glibc's malloc.h.
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where os has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(*shared) -> None:
    global _worker_shared
    _worker_shared = shared


def _call_shared(fn, item):
    return fn(*_worker_shared, item)


def pool_map(fn, items, threads: int | None, shared: tuple = ()):
    """Yield ``fn(*shared, item)`` for each of ``items``, in order.

    The work runs on min(_usable_cpus(), threads, len(items)) worker
    processes (``threads`` None: no cap), and in this process, with no pool,
    when that is 1.  ``shared`` goes to each worker once, through the pool's
    initializer, so under fork the workers inherit it unpickled.  At most
    2 x workers items are in flight, so a caller that consumes each result
    as it arrives holds a bounded number of them.
    """
    workers = min(_usable_cpus(), threads or len(items), len(items))
    if workers <= 1:
        for item in items:
            yield fn(*shared, item)
        return
    # Imported here so a run with one worker never loads multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, initializer=_share, initargs=shared) as pool:
        pending = deque()
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(_call_shared, fn, item))
        while pending:
            yield pending.popleft().result()


def _format_chunk(arrays: list, rows: slice) -> str:
    """The CSV text of ``rows``: the first field of each row formatted, the
    rest of the row (its tail) only where it differs from the row before."""
    tail_format = ",%.17g" * (len(arrays) - 1) + "\n"
    n = rows.stop - rows.start
    tail = np.empty((n, len(arrays) - 1))
    for j, a in enumerate(arrays[1:]):
        tail[:, j] = a[rows]
    bits = tail.view(np.int64)
    changed = np.ones(n, dtype=bool)
    changed[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    tails = np.array(
        [tail_format % tuple(r) for r in tail[changed].tolist()], dtype=object
    )
    parts = [""] * (2 * n)
    parts[0::2] = ["%.17g" % v for v in arrays[0][rows].tolist()]
    parts[1::2] = tails[np.cumsum(changed) - 1].tolist()
    return "".join(parts)


def write_csv(path: Path, header: list[str], columns: list, threads: int | None = None) -> None:
    """Write columns of floats, each with 17 significant digits ("%.17g"),
    one header name per column; columns of unequal length, or a header of
    another length, raise ValueError.

    The bytes are those of formatting every field of every row, with fewer
    formats: the rows go out in chunks of CSV_CHUNK_ROWS, and in a chunk the
    first field of each row is formatted, but the rest of the row (its tail)
    only where it differs from the tail of the row before.  Tails are
    compared bit for bit, so -0.0 and 0.0 stay apart.  A run of equal tails,
    such as the hold rows of the store timeline where only t moves, reuses
    one string.  Each chunk restarts the reuse, so its text depends on its
    own rows only: the chunks are formatted on pool_map's workers (at most
    ``threads``) and written in order as they arrive, and the file is the
    same at any worker count.

    Memory is bounded by the chunks in flight, at most 2 x workers of them,
    each about 0.8 kB a row until it is written.  On a storage_T = 1000
    store (perfbench store_long_hold, 2 CPUs) the peak RSS is about 63.5 MB
    formatting in process and 69 MB on two workers, the difference mostly
    the pool's modules and the heap of its result thread; 32,768-row chunks
    raised the in-process peak by 8 MB for no further speed.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    lengths = {len(a) for a in arrays}
    if len(header) != len(arrays) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {sorted(lengths)}")
    n = min(lengths, default=0)
    chunks = [slice(start, min(start + CSV_CHUNK_ROWS, n)) for start in range(0, n, CSV_CHUNK_ROWS)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        # writelines drops each chunk's text before it asks for the next.
        fh.writelines(pool_map(_format_chunk, chunks, threads, shared=(arrays,)))


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
    # peak RSS of a storage_T = 1000 store on one worker from 44.3 to 46.4 MB.
    record = run.record(columns)
    write_csv(ts_path, list(columns), list(columns.values()), threads)
    record["files"] = {"timeseries": ts_path.name, "run": "run.json"}
    write_json(out_dir / "run.json", record)
    return record


def parse_threads(raw: str | None) -> int | None:
    """The HALFCAV_THREADS cap on pool workers, or None when unset."""
    if not raw:
        return None
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"HALFCAV_THREADS must be a positive integer, got {raw!r}")


def emit_sweep(cfg: ScenarioConfig, out_dir: Path, threads: int | None = None) -> list[dict]:
    """Run the sweep on up to ``threads`` workers (default: one per CPU)."""
    sigmas = [float(s) for s in cfg.sweep.sigmas()]
    rows = list(pool_map(sweep_point, sigmas, threads, shared=(cfg,)))
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
    warning = resolution_warning(cfg)
    if warning is not None and args.command != "oracle":
        print(f"halfcav: {warning}; results are not resolved", file=sys.stderr)
    if args.command != "store":
        # Not on store: it runs once per process, and there the kept heap
        # raised peak RSS from 45.7 to 54.4 MB (storage_T = 1000, in process).
        _keep_freed_heap()

    if args.command == "oracle":
        cpus = _usable_cpus()
        report = oracle_check(cfg, seed=args.seed, threads=min(cpus, threads or cpus))
        print(json.dumps(report, indent=2, sort_keys=True))
        if report["skipped"]:
            print(f"halfcav: {report['warning']}", file=sys.stderr)
            return 0
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
