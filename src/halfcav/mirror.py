"""Conversions between decay programs and physical mirror motion.

On the principal branch the mirror displacement away from the node is
l/lambda = arccos(1 - gamma_z/gamma0) / (4*pi), running from 0 (node,
coupling off) to 1/4 (antinode, coupling 2*gamma0).  This makes the
decay-rate <-> displacement map a bijection and fixes the sign of the
level shift.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MemoryConfig, TimeGrid, _freeze
from .dynamics import DecayProfile


@dataclass(frozen=True)
class MirrorTrajectory:
    """Mirror displacement in units of the transition wavelength.

    ``velocity`` is d(l/lambda)/dt by central differences, in lambda*gamma0,
    and ``v_max`` its peak magnitude; both are derived from the displacement.
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


def trajectory_from_decay(profile: DecayProfile, cfg: MemoryConfig) -> MirrorTrajectory:
    """Mirror program realizing a decay profile (pure pulse-mode case)."""
    if cfg.gamma_prime != 0.0:
        raise NotImplementedError(
            "decay-to-displacement inversion is only defined for gamma' = 0; "
            "with environment decay the node offset changes"
        )
    gz = profile.gamma_z
    if gz.min() < -1e-9 or gz.max() > cfg.cap + 1e-9:
        raise ValueError("gamma_z outside [0, 2*gamma0] beyond tolerance")
    phase = np.arccos(np.clip(1.0 - gz / cfg.gamma0, -1.0, 1.0))
    return MirrorTrajectory(profile.grid, phase / (4.0 * np.pi))


def feasibility_report(
    traj: MirrorTrajectory,
    cfg: MemoryConfig,
    lambda_si: float | None = None,
    gamma0_si: float | None = None,
) -> dict:
    """Kinematic diagnostics of a mirror program.

    A peak speed above a quarter wavelength per atomic lifetime is flagged
    as mechanically demanding (advisory only).  With a physical wavelength
    (m) and decay rate (1/s) supplied, the peak speed is also given in m/s.
    """
    report = {
        "v_max_lambda_gamma0": traj.v_max,
        "l_max_over_lambda": float(traj.l_over_lambda.max()),
        "mechanically_demanding": bool(traj.v_max > 0.25),
    }
    if lambda_si is not None and gamma0_si is not None:
        report["v_max_si_m_per_s"] = traj.v_max * lambda_si * gamma0_si
    return report
