"""Conversions between decay programs and physical mirror motion.

On the principal branch the mirror displacement away from the node is
l/lambda = atan2(sqrt(gamma_z), sqrt(2*gamma0 - gamma_z)) / (2*pi), running
from 0 (node, coupling off) to 1/4 (antinode, coupling 2*gamma0).  This
makes the decay-rate <-> displacement map a bijection and fixes the sign of
the level shift.  The arctangent keeps the relative precision of l at
both ends of the range.  The rate range and the complementary coupling
live in ``dynamics.physical_rate`` and ``dynamics.complementary_coupling``,
which the decay profile uses too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MemoryConfig, TimeGrid, _freeze
from .dynamics import complementary_coupling, physical_rate


@dataclass(frozen=True)
class MirrorTrajectory:
    """Mirror displacement in units of the transition wavelength."""

    grid: TimeGrid
    l_over_lambda: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l_over_lambda, dtype=float)
        if l.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {l.shape}")
        if not np.all(np.isfinite(l)):
            raise ValueError("trajectory must be finite")
        object.__setattr__(self, "l_over_lambda", _freeze(l))


def trajectory_from_decay(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig
) -> MirrorTrajectory:
    """Mirror program realizing a decay-rate series gamma_z on the grid,
    built in place in two arrays: g and gbar, which takes l."""
    g = physical_rate(gamma_z, cfg)
    l = complementary_coupling(g, cfg)
    np.arctan2(np.sqrt(g, out=g), l, out=l)
    return MirrorTrajectory(grid, np.divide(l, 2.0 * np.pi, out=l))


def feasibility_report(write: MirrorTrajectory, read: MirrorTrajectory) -> dict:
    """Kinematic diagnostics of a store's mirror program, from its write and
    its read trajectory: peak displacement, and peak speed in lambda*gamma0
    by np.gradient.  Between the two the mirror rests at the node.  Near
    the antinode, where l(gamma_z) is steep, the differences amplify a
    last-digit change of the rate by about 1/(2*dt).

    A peak speed above a quarter wavelength per atomic lifetime is flagged
    as mechanically demanding (advisory only).
    """
    both = (write, read)
    v_max = max(float(np.abs(np.gradient(t.l_over_lambda, t.grid.dt)).max()) for t in both)
    return {
        "v_max_lambda_gamma0": v_max,
        "l_max_over_lambda": max(float(t.l_over_lambda.max()) for t in both),
        "mechanically_demanding": bool(v_max > 0.25),
    }
