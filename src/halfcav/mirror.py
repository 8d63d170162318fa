"""Conversions between decay programs and physical mirror motion.

On the principal branch the mirror displacement away from the node is
l/lambda = arccos(1 - gamma_z/gamma0) / (4*pi), running from 0 (node,
coupling off) to 1/4 (antinode, coupling 2*gamma0).  This makes the
decay-rate <-> displacement map a bijection and fixes the sign of the
level shift.  The branch map and its rate range live in
``dynamics.principal_branch``, which the complex decay profile uses too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MemoryConfig, TimeGrid, _freeze
from .dynamics import principal_branch


@dataclass(frozen=True)
class MirrorTrajectory:
    """Mirror displacement in units of the transition wavelength.

    ``velocity`` is d(l/lambda)/dt by np.gradient, in lambda*gamma0, and
    ``v_max`` its peak magnitude.  Near the antinode, where arccos is steep,
    the differences amplify a last-digit change of the rate by about
    1/(2*dt), so this column cannot match a reference to 1e-12 absolute.
    """

    grid: TimeGrid
    l_over_lambda: np.ndarray
    velocity: np.ndarray = field(init=False)
    v_max: float = field(init=False)

    def __post_init__(self):
        l = np.asarray(self.l_over_lambda, dtype=float)
        if l.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got {l.shape}")
        if not np.all(np.isfinite(l)):
            raise ValueError("trajectory must be finite")
        v = np.gradient(l, self.grid.dt)
        object.__setattr__(self, "l_over_lambda", _freeze(l))
        object.__setattr__(self, "velocity", _freeze(v))
        object.__setattr__(self, "v_max", float(np.abs(v).max()))


def trajectory_from_decay(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig
) -> MirrorTrajectory:
    """Mirror program realizing a decay-rate series gamma_z on the grid
    (pure pulse-mode case: ValueError for gamma' > 0)."""
    cfg.require_pulse_mode()
    _, cos_phi = principal_branch(gamma_z, cfg)
    return MirrorTrajectory(grid, np.arccos(cos_phi) / (4.0 * np.pi))


def feasibility_report(traj: MirrorTrajectory) -> dict:
    """Kinematic diagnostics of a mirror program.

    A peak speed above a quarter wavelength per atomic lifetime is flagged
    as mechanically demanding (advisory only).
    """
    return {
        "v_max_lambda_gamma0": traj.v_max,
        "l_max_over_lambda": float(traj.l_over_lambda.max()),
        "mechanically_demanding": bool(traj.v_max > 0.25),
    }
