"""Shared domain types, numerical primitives and the one parallel map.

Everything downstream works in natural units: the free-space atomic decay
rate gamma0 sets the unit of inverse time and the speed of light is 1, so
lengths and times share a unit and mirror displacements are reported as
fractions of the transition wavelength.
"""
from __future__ import annotations

import math
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# An envelope counts as normalized when |∫|xi|^2 dt - 1| is below this.
NORM_TOL = 1e-9


@dataclass(frozen=True)
class MemoryConfig:
    """Physical constants of the atom-mirror system.

    All emission goes into the mirror-covered pulse mode: the model has no
    decay into an uncovered environment (gamma').
    """

    gamma0: float = 1.0

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")

    @property
    def cap(self) -> float:
        """Largest attainable decay rate, 2*gamma0 (atom at an antinode)."""
        return 2.0 * self.gamma0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n samples on [t_start, t_end]."""

    t_start: float
    t_end: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least two samples")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n - 1)

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(self.t_start, self.t_end, self.n)
        t.setflags(write=False)
        return t


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ComplexEnvelope:
    """Sampled complex temporal envelope xi(t) on a uniform grid.

    Amplitudes carry units of gamma0^(1/2) so that ∫|xi|^2 dt is a
    dimensionless (photon-number) weight.  The intensity |xi|^2 and its
    integral are derived on first use and then kept, so every reader of
    one envelope (its norm, its support, the programs' intensities, the
    fidelity) shares one computation.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        # Contiguous, so that a strided view reads as float64 pairs below.
        samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("envelope samples must be finite")
        object.__setattr__(self, "samples", _freeze(samples))

    def with_samples(self, samples: np.ndarray) -> "ComplexEnvelope":
        return ComplexEnvelope(self.grid, samples)

    def normalized(self) -> "ComplexEnvelope":
        """This envelope scaled to unit norm by the real factor 1/sqrt(norm):
        the bits of complex division by sqrt(norm) at a fraction of its
        cost, except the sign of a zero, which the division can turn to +0."""
        return self.with_samples(self.samples * (1.0 / math.sqrt(self.norm)))

    @cached_property
    def intensity(self) -> np.ndarray:
        """|xi|^2 samplewise."""
        return _freeze(np.abs(self.samples) ** 2)

    @cached_property
    def norm(self) -> float:
        """∫|xi(t)|^2 dt by the trapezoid rule."""
        return float(np.trapezoid(self.intensity, dx=self.grid.dt))


def polar(magnitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """magnitude*exp(i*phase) from a cos and a sin, at half the cost of a complex exp."""
    out = np.empty(np.shape(phase), dtype=np.complex128)
    np.multiply(magnitude, np.cos(phase), out=out.real)
    np.multiply(magnitude, np.sin(phase), out=out.imag)
    return out


def cumtrapz(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running trapezoidal integral of a sampled series; entry 0 is 0."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
    out = np.empty(grid.n, dtype=np.result_type(values.dtype, np.float64))
    out[0] = 0.0
    steps = np.add(values[1:], values[:-1], out=out[1:])
    np.multiply(0.5 * grid.dt, steps, out=steps)
    np.cumsum(steps, out=steps)
    return out


# Steps per block of affine_scan.  A block's running product of a must stay
# a normal float: 256 steps at |a| >= SCAN_MIN_FACTOR keep it above 1e-146.
SCAN_BLOCK = 256
SCAN_MIN_FACTOR = 0.27


def affine_scan(a: np.ndarray, b: np.ndarray, x0) -> np.ndarray:
    """Solve the linear recurrence x[k+1] = a[k]*x[k] + b[k] from x[0] = x0.

    Returns x[0..m] for m = len(a) steps.  Each block of SCAN_BLOCK steps
    is solved at once as x[k+1] = A[k]*(x_start + sum_{j<=k} b[j]/A[j]),
    with A the block's running product of a (a cumprod and a cumsum), and
    the value at each block end carries into the next block (Blelloch
    1990, "Prefix sums and their applications").  The products must stay
    normal floats within a block, so |a| must be bounded away from 0;
    exponential growth (|a| > 1) overflows to inf or nan, which the caller
    has to check for.

    It runs in place in A and the returned x, and only reads a and b.  A
    stays the left operand: numpy fuses complex products where the CPU has
    FMA, so the swapped order can differ in the last bit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-d of one length, got {a.shape} and {b.shape}")
    m = a.shape[0]
    blocks = max(1, -(-m // SCAN_BLOCK))
    # Padding steps (a = 1, b = 0) hold the last value.
    x = np.empty(blocks * SCAN_BLOCK + 1, dtype=np.result_type(a, b, x0, np.float64))
    x[1 : m + 1] = b
    x[m + 1 :] = 0
    local = x[1:].reshape(blocks, SCAN_BLOCK)
    A = np.empty_like(local)
    A.reshape(-1)[:m] = a
    A.reshape(-1)[m:] = 1
    np.cumprod(A, axis=1, out=A)
    np.divide(local, A, out=local)
    np.cumsum(local, axis=1, out=local)
    np.multiply(A, local, out=local)
    start = np.empty(blocks, dtype=x.dtype)
    start[0] = x0
    for i in range(1, blocks):
        start[i] = A[i - 1, -1] * start[i - 1] + local[i - 1, -1]
    np.add(local, np.multiply(A, start[:, None], out=A), out=local)
    x[0] = x0
    return x[: m + 1]


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where os has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(threads: int | None, items: int) -> int:
    """The workers of a parallel map over ``items`` items, pool_map's
    processes or the oracle's threads: one per CPU this process may use, at
    most ``threads`` (None: no cap) and at most one an item."""
    return min(_usable_cpus(), threads or items, items)


# The claim indices of a pool_map run, front and back: the items not yet
# claimed are those in [front, back).
_CLAIM_INDICES = struct.Struct("qq")


class _Claims:
    """Which items of a pool_map run are still to claim: two indices in a
    small unbuffered temporary file that the run's forked workers inherit.
    Each read and update holds an fcntl lock on the file, which the kernel
    releases when its holder dies, so a worker killed mid-claim blocks no
    one.  The processes share the file's offset, so each access seeks to
    the start first, under the lock."""

    def __init__(self, n: int):
        self._file = tempfile.TemporaryFile(buffering=0)
        self._file.write(_CLAIM_INDICES.pack(0, n))

    def _update(self, step):
        """Replace (front, back) by ``step(front, back)``'s first two values
        under the lock, and return its third."""
        # Imported here so a run in one process never loads it.
        import fcntl

        fcntl.lockf(self._file, fcntl.LOCK_EX)
        try:
            self._file.seek(0)
            front, back, claimed = step(*_CLAIM_INDICES.unpack(self._file.read(_CLAIM_INDICES.size)))
            self._file.seek(0)
            self._file.write(_CLAIM_INDICES.pack(front, back))
            return claimed
        finally:
            fcntl.lockf(self._file, fcntl.LOCK_UN)

    def front(self) -> int | None:
        """The first unclaimed index, now claimed, or None when none is left."""
        return self._update(lambda front, back: (front + 1, back, front) if front < back
                            else (front, back, None))

    def back(self) -> int | None:
        """The last unclaimed index, now claimed, or None when none is left."""
        return self._update(lambda front, back: (front, back - 1, back - 1) if front < back
                            else (front, back, None))

    def stop_after(self, index: int) -> None:
        """Leave unclaimed for good every item after ``index``, which failed."""
        self._update(lambda front, back: (front, max(front, min(back, index)), None))

    def close(self) -> None:
        self._file.close()


def _report(stream, index: int, ok: bool | None, value=None) -> None:
    """Send one report of a forked worker through its pipe: item ``index``
    has begun (``ok`` None), returned ``value`` (True) or raised it (False).
    The value is pickled on its own, so that the parent can tell which item
    a report it cannot unpickle belongs to."""
    pickle.dump((index, ok, pickle.dumps(value)), stream)
    stream.flush()


def _work(fn, items, claims: _Claims, out: int):
    """The life of a forked pool_map worker: claim items from the front and
    report each through the pipe ``out`` until none is left, then leave
    through os._exit, which flushes none of the stdio buffers it inherited
    and runs no atexit handler."""
    code = 1
    try:
        with open(out, "wb") as stream:
            while (index := claims.front()) is not None:
                _report(stream, index, None)
                try:
                    value = fn(items[index])
                    ok = True
                # Every error, KeyboardInterrupt too, is raised again in the
                # calling process.
                except BaseException as exc:
                    claims.stop_after(index)
                    value, ok = exc, False
                try:
                    _report(stream, index, ok, value)
                except Exception as exc:  # a value pickle refuses
                    claims.stop_after(index)
                    _report(stream, index, False, RuntimeError(
                        f"item {index}: cannot send {type(value).__name__} {value!r}: {exc}"))
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, workers: dict, reports: dict, claims: _Claims) -> None:
    """Read the reports of worker ``pid`` from its pipe ``workers[pid]``
    into ``reports`` (index -> (ok, value)) until the pipe closes, then
    reap the worker and drop it from ``workers``.  A worker that ended
    while an item it began was unreported, or with a status other than 0,
    leaves a RuntimeError naming that status in the item's place, or in
    ``reports[None]`` when it held none."""
    begun = None
    while True:
        try:
            index, ok, value = pickle.load(workers[pid])
        except (EOFError, pickle.UnpicklingError):  # closed, or cut mid-report
            break
        if ok is None:
            begun = index
            continue
        begun = None
        try:
            value = pickle.loads(value)
        except Exception as exc:
            ok, value = False, RuntimeError(f"item {index}: unreadable report: {exc!r}")
        if not ok:
            claims.stop_after(index)
        reports[index] = ok, value
    workers[pid].close()
    status = os.waitpid(pid, 0)[1]
    del workers[pid]
    if begun is not None or status != 0:
        ended = (f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                 else f"exit status {os.waitstatus_to_exitcode(status)}")
        held = "" if begun is None else f" before it reported item {begun}"
        if begun is not None:
            claims.stop_after(begun)
        reports[begun] = False, RuntimeError(f"pool_map worker {pid} ended with {ended}{held}")


def pool_map(fn, items, threads: int | None) -> list:
    """The list of ``fn(item)`` for each of ``items``, in order.

    The work runs on w = worker_count(threads, len(items)) processes, this
    one among them.  At w = 1 it runs here and nothing is forked.  At w >= 2,
    w - 1 workers are forked up front; they inherit ``fn`` and ``items``
    unpickled and claim items from the front, while this process claims
    them from the back, so its warm heap runs the trailing items and no
    worker's first-item page faults are paid twice.  Both claim under one
    fcntl lock (_Claims).  A worker sends each result, or the error it
    raised, pickled through a pipe of its own, and leaves through os._exit.
    The only threads the package starts are the oracle's, which never call
    pool_map and have ended when oracle_check returns, so no worker
    inherits a lock held mid-update.

    An item that raises stops every item after it that has not begun; the
    items before it still run, so the error that leaves pool_map, with its
    type and message, is the one of the earliest failing item in item
    order, as in one process.  A worker that dies without a report (say,
    killed mid-item) gives a RuntimeError naming its status.  Every worker
    is reaped before pool_map returns or raises, also on KeyboardInterrupt.
    """
    workers = worker_count(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    claims = _Claims(len(items))
    workers_left = {}  # pid -> the read end of its pipe
    reports = {}
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Only this process reads the pipes, so that a worker whose
                # reports are no longer read gets EPIPE rather than block.
                os.close(read_end)
                for stream in workers_left.values():
                    stream.close()
                _work(fn, items, claims, write_end)
            os.close(write_end)
            workers_left[pid] = open(read_end, "rb")
        while (index := claims.back()) is not None:
            try:
                reports[index] = True, fn(items[index])
            except Exception as exc:
                claims.stop_after(index)
                reports[index] = False, exc
        for pid in list(workers_left):
            _collect(pid, workers_left, reports, claims)
        failed = [index for index, (ok, _) in reports.items() if not ok]
        if failed:
            raise reports[min(failed, key=lambda index: len(items) if index is None else index)][1]
        return [reports[index][1] for index in range(len(items))]
    finally:
        claims.stop_after(-1)
        for pid, stream in workers_left.items():
            stream.close()
            os.waitpid(pid, 0)
        claims.close()
