"""Conversions between decay programs and physical mirror motion.

The programs stay on the principal branch, where the mirror sits
l/lambda = atan2(sqrt(gamma_z), sqrt(2*gamma0 - gamma_z)) / (2*pi) away
from the node, from 0 (coupling off) to 1/4 (antinode, coupling 2*gamma0).
This makes the decay-rate <-> displacement map a bijection and fixes the
sign of the level shift; past the antinode a mirror gives the rate of its
image 1/2 - l with the opposite shift (``dynamics.decay_from_mirror``).
The arctangent keeps the relative precision of l at both ends of the
range.  The rate range and the complementary coupling live in
``dynamics.physical_rate`` and ``dynamics.complementary_coupling``, which
the decay profile uses too.

A store builds its mirror program once, for the export's ``l_over_lambda``
column (``scenario.StoreRun.timeseries_columns``), and its feasibility
numbers are read off that column (``feasibility_report``).
"""
from __future__ import annotations

import numpy as np

from .core import MemoryConfig
from .dynamics import complementary_coupling, physical_rate


def trajectory_from_decay(gamma_z: np.ndarray, cfg: MemoryConfig) -> np.ndarray:
    """Mirror displacement l/lambda realizing a decay-rate series gamma_z,
    built in place in two arrays: g and gbar, which takes l."""
    g = physical_rate(gamma_z, cfg)
    l = complementary_coupling(g, cfg)
    np.arctan2(np.sqrt(g, out=g), l, out=l)
    return np.divide(l, 2.0 * np.pi, out=l)


def feasibility_report(l_over_lambda: np.ndarray, dt: float) -> dict:
    """Kinematic diagnostics of a mirror program sampled at step dt: peak
    displacement, and peak speed in lambda*gamma0 by np.gradient.  Near
    the antinode, where l(gamma_z) is steep, the differences amplify a
    last-digit change of the rate by about 1/(2*dt).

    A peak speed above a quarter wavelength per atomic lifetime is flagged
    as mechanically demanding (advisory only).
    """
    speed = np.gradient(l_over_lambda, dt)
    v_max = float(np.abs(speed, out=speed).max())
    return {
        "v_max_lambda_gamma0": v_max,
        "l_max_over_lambda": float(l_over_lambda.max()),
        "mechanically_demanding": bool(v_max > 0.25),
    }
