"""Shared domain types and numerical primitives.

Everything downstream works in natural units: the free-space atomic decay
rate gamma0 sets the unit of inverse time and the speed of light is 1, so
lengths and times share a unit and mirror displacements are reported as
fractions of the transition wavelength.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# An envelope counts as normalized when |∫|xi|^2 dt - 1| is below this.
NORM_TOL = 1e-9


@dataclass(frozen=True)
class MemoryConfig:
    """Physical constants of the atom-mirror system.

    gamma_prime + gamma_p must equal gamma0 (decay into the uncovered
    environment plus decay into the mirror-covered pulse mode).  The default
    memory mode covers the full solid angle: gamma_prime = 0, gamma_p = gamma0.

    The round trip tau = 2L/c is rounded to the nearest value with
    omega_a * tau an integer multiple of 2*pi, so that the mirror rest
    position l = 0 puts the atom exactly at a node of the standing wave.
    The rounding offset is kept in ``tau_adjustment``.
    """

    gamma0: float = 1.0
    gamma_prime: float = 0.0
    omega_a: float = 500.0
    tau: float = TWO_PI * 5.0 / 500.0
    markov_limit: float = 0.1
    tau_adjustment: float = field(default=0.0, init=False, compare=False)

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if not 0.0 <= self.gamma_prime <= self.gamma0:
            raise ValueError("gamma_prime must lie in [0, gamma0]")
        if self.omega_a <= 0:
            raise ValueError("omega_a must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not self.markov_limit > 0:
            raise ValueError("markov_limit must be positive")
        # Snap omega_a*tau to a multiple of 2*pi (node at rest position).
        cycles = max(1, round(self.omega_a * self.tau / TWO_PI))
        tau_commensurate = TWO_PI * cycles / self.omega_a
        object.__setattr__(self, "tau_adjustment", tau_commensurate - self.tau)
        object.__setattr__(self, "tau", tau_commensurate)
        if self.gamma0 * self.tau > self.markov_limit:
            raise ValueError(
                f"gamma0*tau = {self.gamma0 * self.tau:.3g} exceeds the Markov "
                f"limit {self.markov_limit}; shorten the round trip"
            )

    @property
    def gamma_p(self) -> float:
        """Decay rate into the pulse mode, gamma0 - gamma_prime."""
        return self.gamma0 - self.gamma_prime

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
    dimensionless (photon-number) weight.
    """

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("envelope samples must be finite")
        object.__setattr__(self, "samples", _freeze(samples))

    def with_samples(self, samples: np.ndarray) -> "ComplexEnvelope":
        return ComplexEnvelope(self.grid, samples)


def cumtrapz(values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Running trapezoidal integral of a sampled series; entry 0 is 0."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} values, got shape {values.shape}")
    out = np.empty(grid.n, dtype=np.result_type(values.dtype, np.float64))
    out[0] = 0.0
    np.cumsum(0.5 * grid.dt * (values[1:] + values[:-1]), out=out[1:])
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
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"a and b must be 1-d of one length, got {a.shape} and {b.shape}")
    m = a.shape[0]
    dtype = np.result_type(a, b, x0, np.float64)
    blocks = max(1, -(-m // SCAN_BLOCK))
    pad = blocks * SCAN_BLOCK - m
    # Padding steps (a = 1, b = 0) hold the last value.
    A = np.cumprod(np.pad(a, (0, pad), constant_values=1).reshape(blocks, SCAN_BLOCK), axis=1)
    local = A * np.cumsum(np.pad(b, (0, pad)).reshape(blocks, SCAN_BLOCK) / A, axis=1)
    start = np.empty(blocks, dtype=dtype)
    start[0] = x0
    for i in range(1, blocks):
        start[i] = A[i - 1, -1] * start[i - 1] + local[i - 1, -1]
    x = np.empty(m + 1, dtype=dtype)
    x[0] = x0
    x[1:] = (local + A * start[:, None]).ravel()[:m]
    return x


def squared_norm(env: ComplexEnvelope) -> float:
    """∫|xi(t)|^2 dt by the trapezoid rule."""
    intensity = np.abs(env.samples) ** 2
    return float(np.trapezoid(intensity, dx=env.grid.dt))
