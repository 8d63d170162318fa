"""Shared domain types and numerical primitives.

Everything downstream works in natural units: the free-space atomic decay
rate gamma0 sets the unit of inverse time and the speed of light is 1, so
lengths and times share a unit and mirror displacements are reported as
fractions of the transition wavelength.
"""
from __future__ import annotations

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

