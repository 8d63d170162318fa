"""Single-photon temporal envelopes: Gaussian time-bin pulses, overlap
fidelity, and translation by whole grid steps.

Envelopes are defined in the frame rotating at the atomic transition
frequency (resonant carrier), so no optical oscillation is sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexEnvelope, TimeGrid

# Relative intensity below which a sample does not count as pulse support.
SUPPORT_CUTOFF = 1e-12

# A time bin's grid must reach PULSE_WINDOW/sigma beyond both bin centers.
PULSE_WINDOW = 6.0


@dataclass(frozen=True)
class TimeBinSpec:
    """Two Gaussian bins of common bandwidth sigma at t1 < t2.

    alpha and beta are the real bin amplitudes with alpha^2 + beta^2 = 1;
    phi is the relative phase of the late bin.
    """

    alpha: float = math.sqrt(0.5)
    beta: float = math.sqrt(0.5)
    t1: float = 0.0
    t2: float = 20.0
    sigma: float = 0.2
    phi: float = 0.0

    def __post_init__(self):
        if abs(self.alpha**2 + self.beta**2 - 1.0) > 1e-9:
            raise ValueError("alpha^2 + beta^2 must equal 1")
        if not self.t2 > self.t1:
            raise ValueError("t2 must exceed t1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def make_time_bin(spec: TimeBinSpec, grid: TimeGrid) -> ComplexEnvelope:
    """Sample a normalized time-bin envelope on the grid.

    xi(t) = N * (alpha*exp(-(t-t1)^2 sigma^2/2)
                 + beta*e^{i phi}*exp(-(t-t2)^2 sigma^2/2))

    N is fixed numerically so that the sampled ∫|xi|^2 dt = 1
    (ComplexEnvelope.normalized); this absorbs the bin overlap, which the
    per-bin Gaussian constant would miss.  Where both bins underflow with
    alpha < 0, the zero samples keep their negative-zero real part.
    """
    lo = spec.t1 - PULSE_WINDOW / spec.sigma
    hi = spec.t2 + PULSE_WINDOW / spec.sigma
    if grid.t_start > lo or grid.t_end < hi:
        raise ValueError(
            f"grid [{grid.t_start:.6g}, {grid.t_end:.6g}] too narrow for the "
            f"time-bin pulse; need at least [{lo:.6g}, {hi:.6g}]"
        )
    t = grid.times
    samples = spec.alpha * np.exp(-0.5 * ((t - spec.t1) * spec.sigma) ** 2) + (
        spec.beta
        * np.exp(1j * spec.phi)
        * np.exp(-0.5 * ((t - spec.t2) * spec.sigma) ** 2)
    )
    return ComplexEnvelope(grid, samples).normalized()


def fidelity(a: ComplexEnvelope, b: ComplexEnvelope) -> float:
    """Squared normalized overlap |∫a* b dt|^2 / (∫|a|^2 ∫|b|^2)."""
    if a.grid != b.grid:
        raise ValueError("envelopes must share a grid")
    na = a.norm
    nb = b.norm
    if na <= 0.0 or nb <= 0.0:
        raise ValueError("fidelity is undefined for a zero-norm envelope")
    overlap = np.trapezoid(np.conjugate(a.samples) * b.samples, dx=a.grid.dt)
    return float(abs(overlap) ** 2 / (na * nb))


def support_indices(env: ComplexEnvelope):
    """First and last sample index where |xi|^2 exceeds SUPPORT_CUTOFF*max."""
    intensity = env.intensity
    peak = intensity.max()
    if peak == 0.0:
        raise ValueError("zero envelope has no support")
    above = intensity > SUPPORT_CUTOFF * peak
    return int(above.argmax()), intensity.size - 1 - int(above[::-1].argmax())


def shift(env: ComplexEnvelope, steps: int) -> ComplexEnvelope:
    """Move the envelope by a whole number of grid steps, later in time for
    steps > 0 and earlier for steps < 0, padding with zeros.

    Every sample moves exactly; raises ValueError if the pulse support would
    leave the grid or the samples pushed off it carry non-negligible energy.
    """
    norm = env.norm
    if norm == 0.0:
        return env
    n = env.grid.n
    first, last = support_indices(env)
    if first + steps < 0 or last + steps > n - 1:
        raise ValueError(f"shift by {steps} steps moves the pulse support off the grid")
    samples = np.zeros(n, dtype=complex)
    if steps >= 0:
        samples[steps:] = env.samples[: n - steps]
        dropped = env.samples[n - steps :]
    else:
        samples[:steps] = env.samples[-steps:]
        dropped = env.samples[:-steps]
    if float(np.sum(np.abs(dropped) ** 2)) * env.grid.dt > SUPPORT_CUTOFF * norm:
        raise ValueError(f"shift by {steps} steps clips non-negligible amplitude")
    return env.with_samples(samples)
