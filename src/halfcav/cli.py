"""Command-line scenario runner and data exporter.

Subcommands:
  store   one store/retrieve run -> timeseries.csv + run.json (with the
          mirror program's feasibility numbers)
  sweep   bandwidth sweep        -> sweep.csv
  oracle  quadrature vs RK4 check -> JSON report on stdout, exit 0/1

All emitted files are deterministic byte-for-byte for a fixed config (and,
for oracle, a fixed --seed, the only subcommand that draws random numbers):
floats are written in the bytes of Python's "%.17g" (17 significant
digits; the CSV files through a numpy kernel, write_csv), JSON keys are
sorted, and sweep points, oracle cases and CSV row chunks come back in
input order at any worker count.  Each subcommand runs on one worker per CPU this process
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
import math
import os
import sys
import tempfile
from functools import cache, partial
from itertools import pairwise
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

# Decimal exponents d (10**d <= |x| < 10**(d + 1)) of the values the CSV
# kernel formats itself; a value outside them (a subnormal, 1e300, an
# infinity) is formatted by Python's "%.17g".
CSV_KERNEL_EXPONENTS = (-270, 290)

# Values the CSV kernel formats in one pass: a bound on its temporaries.
CSV_FORMAT_BLOCK = 8192


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


# Bytes the kernel lays out for one field before it drops the NULs: the
# sign, "0.000", 17 digits each followed by a slot for the point, "e",
# the exponent's sign and up to three digits, and the separator last.
_FIELD_SLOTS = 48
_SIGN, _PREFIX, _DIGITS, _EXPONENT, _SEPARATOR = 0, 1, 6, 39, 47

# The layout classes: fixed notation for the decimal exponents -4..16 of
# "%.17g" (class exponent + 4), then exponent notation, then zero.
_EXP_CLASS, _ZERO_CLASS = 21, 22

# Veltkamp's splitter for float64: 2**27 + 1.
_SPLIT = 134217729.0


def _power_of_ten(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi the nearest double, lo the nearest double to
    the rest, both from Python ints, whose division rounds correctly."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    n = 10**-k
    hi = 1 / n
    p, q = hi.as_integer_ratio()
    return hi, (q - p * n) / (q * n)


@cache
def _format_tables() -> tuple:
    """The CSV kernel's tables, built once a process on first use.

    Indexed by d - d_min + 1 over d_min - 1 .. d_max + 1: the smallest
    double at or above 10**d, and 10**(16 - d) as hi + lo with hi split
    into halves of 26 bits.  Indexed by a group of four digits: its ASCII
    bytes as one uint32, and, for each of the four groups after the first
    digit, how many of the 17 digits end at that group's last nonzero one.
    Indexed by layout code (``_fields``): each field's pattern of literal
    bytes, 0xFF on the digits it shows and NUL elsewhere.  Indexed like the
    powers: exponent notation's sign and digits as one uint32.
    """
    d_min, d_max = CSV_KERNEL_EXPONENTS
    exponents = range(d_min - 1, d_max + 2)
    powers = [_power_of_ten(d) for d in exponents]
    floor_pow = np.array([math.nextafter(hi, math.inf) if lo > 0 else hi for hi, lo in powers])
    hi, lo = np.array([_power_of_ten(16 - d) for d in exponents]).T.copy()
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    hi_lo = hi - hi_hi
    text = [b"%04d" % g for g in range(10_000)]
    groups = np.frombuffer(b"".join(text), dtype=np.uint32)
    shown = np.array([len(t.rstrip(b"0")) for t in text])
    ends = np.where(shown > 0, np.arange(1, 17, 4)[:, None] + shown, 0).astype(np.uint8)
    # Pattern of (class, significant digits, negative, newline).
    patterns = np.zeros((_ZERO_CLASS + 1, 17, 2, 2, _FIELD_SLOTS), dtype=np.uint8)
    patterns[:, :, 1, :, _SIGN] = ord("-")
    patterns[..., 0, _SEPARATOR] = ord(",")
    patterns[..., 1, _SEPARATOR] = ord("\n")
    for cls in range(_ZERO_CLASS + 1):
        x = cls - 4
        for s in range(1, 18):
            p = patterns[cls, s - 1]
            if cls == _ZERO_CLASS:
                p[..., _DIGITS] = ord("0")
                continue
            whole = 1 if cls == _EXP_CLASS else max(x + 1, 0)
            p[..., _DIGITS:_DIGITS + 2 * max(s, whole):2] = 0xFF
            if 1 <= whole < s:
                p[..., _DIGITS + 2 * whole - 1] = ord(".")
            if cls == _EXP_CLASS:
                p[..., _EXPONENT] = ord("e")
            elif x < 0:
                p[..., _PREFIX:_PREFIX + 1 - x] = np.frombuffer(b"0.000"[:1 - x], dtype=np.uint8)
    suffix = np.frombuffer(
        b"".join(bytes(4) if -4 <= x <= 16 else (b"%+03d" % x).ljust(4, b"\0") for x in exponents),
        dtype=np.uint32,
    )
    tables = (floor_pow, hi, hi_hi, hi_lo, lo, groups, ends, patterns.reshape(-1, _FIELD_SLOTS), suffix)
    for table in tables:
        table.flags.writeable = False  # shared by every caller in the process
    return tables


def _seventeen_digits(a: np.ndarray) -> tuple:
    """For doubles ``a`` with decimal exponents in CSV_KERNEL_EXPONENTS:
    the integer N, 10**16 <= N < 10**17, nearest to a * 10**(16 - X), where
    X is the exponent "%.17g" prints; X as an index into the power tables,
    X - d_min + 1; and where a * 10**(16 - X) is within 2**-30 of a
    half-integer, too near a tie to round here.

    X starts at floor(log10(a)), set right by comparing ``a`` with the
    smallest doubles at or above 10**X and 10**(X + 1).  The product
    a * (hi + lo) is exact in a * hi (Dekker's product on Veltkamp's
    halves) and good to 2**-104 relative in a * lo, so its distance to N
    is off by under 2**-46.  A product that rounds up to 10**17 gives
    N = 10**16 and X + 1.
    """
    floor_pow, hi, hi_hi, hi_lo, lo, *_ = _format_tables()
    d = np.log10(a)
    np.floor(d, out=d)
    d = d.astype(np.intp)
    d -= CSV_KERNEL_EXPONENTS[0] - 1
    d -= a < floor_pow[d]
    d += a >= floor_pow[d + 1]
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a_lo = a - a_hi
    p = a * hi[d]
    part_hi = hi_hi[d]
    part_lo = hi_lo[d]
    rest = a_hi * part_hi
    rest -= p
    a_hi *= part_lo
    rest += a_hi
    part_hi *= a_lo
    rest += part_hi
    a_lo *= part_lo
    rest += a_lo
    part_lo = lo[d]
    part_lo *= a
    rest += part_lo
    del a_hi, a_lo, part_hi, part_lo
    whole = np.floor(rest)
    rest -= whole
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    n += rest > 0.5
    rest -= 0.5
    tie = np.abs(rest) < 2.0**-30
    carry = n == 10**17
    n[carry] = 10**16
    d += carry
    return n, d, tie


def _fields(values: np.ndarray, newline: np.ndarray) -> np.ndarray:
    """Each of ``values`` as its "%.17g" bytes and a separator, "\\n" where
    ``newline`` and "," elsewhere: one row of _FIELD_SLOTS bytes a value,
    NUL where a slot shows nothing.

    Zeros take their pattern alone.  A value whose decimal exponent lies
    outside CSV_KERNEL_EXPONENTS, a non-finite one, and one within 2**-30
    of a tie at 17 digits are formatted by Python's "%.17g" one by one.
    """
    *_, groups, ends, patterns, suffix = _format_tables()
    m = len(values)
    a = np.abs(values)
    low, high = CSV_KERNEL_EXPONENTS
    scaled = (a >= 10.0**low) & (a < 10.0 ** (high + 1))
    at = np.flatnonzero(scaled)
    n = np.zeros(m, dtype=np.int64)
    d = np.full(m, 1 - low, dtype=np.intp)  # X = 0: no exponent
    n[at], d[at], tie = _seventeen_digits(a[at])
    del a
    # N = g0 g1 g2 g3 g4: one digit, then four groups of four.
    digits = np.empty((m, 5), dtype=np.uint32)
    top = n // 100_000_000
    n -= top * 100_000_000
    g = top // 100_000_000
    digits[:, 0] = groups[g]
    top -= g * 100_000_000
    g = top // 10_000
    digits[:, 1] = groups[g]
    shown = ends[0][g]
    top -= g * 10_000
    digits[:, 2] = groups[top]
    np.maximum(shown, ends[1][top], out=shown)
    g = n // 10_000
    digits[:, 3] = groups[g]
    np.maximum(shown, ends[2][g], out=shown)
    n -= g * 10_000
    digits[:, 4] = groups[n]
    np.maximum(shown, ends[3][n], out=shown)
    np.maximum(shown, 1, out=shown)
    del n, top, g
    code = d + (low + 3)  # X + 4
    code[(code < 0) | (code > 20)] = _EXP_CLASS
    code[~scaled] = _ZERO_CLASS
    exponent = (code == _EXP_CLASS).any()
    code *= 17
    code += shown
    code -= 1
    code *= 4
    code += np.signbit(values) * 2
    code += newline
    out = patterns[code]
    del code, shown
    out[:, _DIGITS:_EXPONENT:2] &= digits.view(np.uint8)[:, 3:]
    if exponent:
        out.view(np.uint32)[:, _EXPONENT // 4 + 1] = suffix[d]
    for i in [*np.flatnonzero(~scaled & (values != 0)).tolist(), *at[tie].tolist()]:
        text = b"%.17g" % values[i]
        out[i, :_SEPARATOR] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out


def _format_chunk(arrays: list, rows: slice) -> bytes:
    """The CSV bytes of ``rows``, one run of rows at a time.  A changed run
    (rows whose tail, each field but the first, changes) is stacked row by
    row and formatted whole.  A repeat run (rows that repeat the tail of the
    row before) formats its first fields only, each ended by a newline that
    the tail then replaces: the bytes of the run before from the first
    comma of its last row on.

    That is one kernel pass a run, plus one a CSV_FORMAT_BLOCK values
    (_csv_bytes), and exports have few runs: no 4,096-row chunk of 47 store
    configs (the default, capped, chirped zero-hold and chirped capped ones,
    storage_T 1000, 40 random ones, and dt_factor 3,000 and 10,000) held
    more than 11.  The input at the write grid's edge is still about
    e**-32 of its peak, so no tail there flickers between equal and unequal
    rows.  A column whose tail repeats every other row is the worst case, a
    pass a row: 12,295 such rows of three columns took 0.87-1.10 s on one
    worker of a 2-CPU host, against 18-26 ms with a pass a block of whole
    rows.  No export writes one.
    """
    columns = [a[rows] for a in arrays]
    n, c = rows.stop - rows.start, len(columns)
    repeats = np.zeros(n, dtype=bool)
    if c > 1:
        same = repeats[1:]
        same[:] = True
        for column in columns[1:]:
            bits = column.view(np.int64)
            same &= bits[1:] == bits[:-1]
    parts = []
    edges = [0, *(np.flatnonzero(repeats[1:] != repeats[:-1]) + 1).tolist(), n]
    for start, stop in pairwise(edges):
        if repeats[start]:
            before = parts[-1]
            tail = before[before.index(b",", before.rfind(b"\n", 0, -1) + 1):]
            parts.append(_csv_bytes(columns[0][start:stop], 1).replace(b"\n", tail))
        else:
            stacked = np.stack([column[start:stop] for column in columns], axis=1)
            parts.append(_csv_bytes(stacked.ravel(), c))
    return b"".join(parts)


def _csv_bytes(values: np.ndarray, width: int) -> bytes:
    """The bytes of ``values``, rows of ``width`` fields laid out row by
    row, through _fields CSV_FORMAT_BLOCK values at a time with the NULs
    dropped."""
    newline = np.zeros(len(values), dtype=bool)
    newline[width - 1::width] = True
    blocks = [slice(i, i + CSV_FORMAT_BLOCK) for i in range(0, len(values), CSV_FORMAT_BLOCK)]
    return b"".join(_fields(values[b], newline[b]).tobytes().translate(None, b"\0") for b in blocks)


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
    """Write columns of floats, each in the bytes of Python's "%.17g" (17
    significant digits), one header name per column; columns of unequal
    length, or a header of another length, raise ValueError before any file
    is opened.

    The bytes are those of formatting every field of every row, with fewer
    formats: the rows go out in chunks of CSV_CHUNK_ROWS, and a chunk goes
    one run of rows at a time (_format_chunk), where the rest of a row after
    its first field (its tail) is formatted only where it differs from the
    tail of the row before.  Tails are compared bit for bit, so -0.0 and 0.0
    stay apart.  A repeat run, such as the hold rows of the store timeline
    where only t moves, formats its first fields and joins them around the
    bytes of the one tail, sliced from the run before; a changed run
    formats all its fields.  Each chunk restarts the reuse, so its bytes
    depend on its own rows only, and the file is the same at any worker
    count.

    A numpy kernel formats the fields, one pass a run and one a
    CSV_FORMAT_BLOCK values (_fields).  For x != 0 it takes the decimal
    exponent d of |x| from floor(log10|x|), set right by comparing |x| with
    the smallest doubles at or above 10**d and 10**(d + 1); forms |x| *
    10**(16 - d) as a double-double product, with 10**k an exact hi + lo
    pair built from Python ints and Dekker's product on Veltkamp's halves,
    within 2**-46 of the exact product; and rounds it to the 17-digit
    integer N, moving to d + 1 where N rounds up to 10**17.  A table of
    four-digit groups gives N's digits, and a table of patterns by notation,
    digit count, sign and separator lays them out in 48 bytes a field: fixed
    notation for the exponents -4..16 and exponent notation otherwise, with
    trailing zeros and a bare point dropped.  Zeros take their pattern
    without scaling, and one bytes.translate a pass drops the NUL padding.
    The kernel leaves to Python's "%.17g", one value at a time, only what it
    cannot round for certain: a product within 2**-30 of a half-integer
    (every exact tie, which "%.17g" rounds half to even), a non-finite
    value, and a magnitude outside 1e-270..1e291 (CSV_KERNEL_EXPONENTS).  On
    the seed-1 store_long_hold export that is none of its 2,084,427 fields.
    The tables are built once a process, before any worker forks: by main
    when store or sweep starts, before the run's arrays (it says why), or
    else by the first write_csv.

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
    about 0.36 kB a row of nine columns while it is formatted (0.11 kB a
    hold row; tracemalloc around _format_chunk on the largest write chunk
    and a hold chunk of the seed-1 store_long_hold export: 1,487 and 443 kB
    for 4,096 rows, against 1,626 and 667 kB with a kernel pass a block of
    whole rows and 2,373 and 849 kB with a Python format a field), and each
    process formats one chunk at a time.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    lengths = {len(a) for a in arrays}
    if len(header) != len(arrays) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header names for columns of lengths {sorted(lengths)}")
    n = min(lengths, default=0)
    chunks = [slice(start, min(start + CSV_CHUNK_ROWS, n)) for start in range(0, n, CSV_CHUNK_ROWS)]
    _format_tables()
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
    if args.command != "oracle":
        # The CSV tables, before the run's arrays: built after them, on
        # write_csv's first call, they held the top of the heap above the
        # arrays once freed, so a process running store_long_hold's store
        # again and again kept ~14 MB more resident between runs (with a
        # Python format of 250k floats between them, as perfbench times
        # before each op: a peak RSS of 75 MB against 59 MB).
        _format_tables()

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
