"""Optimal write (absorption) control.

For a given normalized input envelope the absorbed population is

    P(t_w0) = | ∫ exp(-(Gamma(t_w0) - Gamma(t))) g(t) xi(t) dt |^2 ,

and the decay program maximizing it satisfies, wherever the hardware bound
gamma_z <= 2*gamma0 is inactive,

    gamma_z(t) = |xi(t)|^2 / r(t),      r(t) = running absorbed population,

which for an uncapped run reduces to the closed form
eta*|xi|^2 / ((1-eta) + eta*∫|xi|^2) with eta -> 1.  The synthesis below
integrates r alongside the rate, clamping at the cap; the clamped pass is
the exact constrained optimum (interior arcs are stationary, cap arcs have
the gradient pushing against the bound, and the underlying problem is
concave in the absorption kernel).

The level-shift phase Im(Gamma) is compensated by default: the effective
absorbed envelope is |xi| * exp(-i*Im Gamma(t)), which aligns the quadrature
integrand and attains the analytic efficiency.  Disabling compensation
exposes the efficiency cost of the chirp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, NORM_TOL, squared_norm
from .dynamics import DecayProfile, ExcitationTrace, absorption_probability, profile_from_gamma_z
from .pulses import support_indices

# Uncapped runs target this efficiency; exactly 1 would make the optimal
# rate singular at the pulse's leading edge.
ETA_TARGET = 1.0 - 1e-9


@dataclass(frozen=True)
class WriteResult:
    """Outcome of the write optimization."""

    profile: DecayProfile
    eta_w: float
    trace: ExcitationTrace
    capped: bool
    xi_effective: ComplexEnvelope
    t_w: float
    t_w0: float

    @property
    def window(self) -> tuple[float, float]:
        return (self.t_w, self.t_w0)


def _synthesize_gamma_z(q2: np.ndarray, dt: float, cap: float, eps: float) -> np.ndarray:
    """Forward synthesis of the optimal rate for intensity samples q2.

    Steps r with Heun's method through dr/dt = 2q*sqrt(gz*r) - gz*r; on
    uncapped stretches this reproduces the trapezoidal running integral of
    q2 exactly, so the result matches the closed-form profile there.
    """
    n = q2.shape[0]
    q2l = q2.tolist()
    gz = [0.0] * n
    r = eps
    for k in range(n - 1):
        gzk = q2l[k] / r
        if gzk > cap:
            gzk = cap
        gz[k] = gzk
        f0 = 2.0 * math.sqrt(q2l[k] * gzk * r) - gzk * r
        rp = r + dt * f0
        gzp = q2l[k + 1] / rp
        if gzp > cap:
            gzp = cap
        f1 = 2.0 * math.sqrt(q2l[k + 1] * gzp * rp) - gzp * rp
        r = r + 0.5 * dt * (f0 + f1)
    gz[n - 1] = min(q2l[n - 1] / r, cap)
    return np.asarray(gz)


def optimal_write_profile(
    xi_in: ComplexEnvelope,
    cfg: MemoryConfig,
    phase_compensation: bool = True,
) -> WriteResult:
    """Decay program maximizing the absorbed population for xi_in.

    The input must be normalized.  The write window is the span where
    |xi|^2 exceeds 1e-12 of its peak; outside it the coupling is held off.
    The reported eta_w is the achieved P(t_w0) evaluated through the
    quadrature, so it equals trace.P at the window end by construction.
    """
    if abs(squared_norm(xi_in) - 1.0) > max(NORM_TOL, 1e-9):
        raise ValueError("input envelope must be normalized (∫|xi|^2 dt = 1)")
    grid = xi_in.grid
    i0, i1 = support_indices(xi_in)
    q2 = np.abs(xi_in.samples) ** 2

    eps = (1.0 - ETA_TARGET) / ETA_TARGET
    gamma_z = np.zeros(grid.n)
    gamma_z[i0 : i1 + 1] = _synthesize_gamma_z(
        q2[i0 : i1 + 1], grid.dt, cfg.cap, eps
    )
    profile = profile_from_gamma_z(grid, gamma_z, cfg)
    capped = bool(gamma_z.max() >= cfg.cap - 1e-12)

    if phase_compensation:
        xi_eff = xi_in.with_samples(
            np.abs(xi_in.samples) * np.exp(-1j * profile.Gamma.imag)
        )
    else:
        xi_eff = xi_in
    trace = absorption_probability(profile, xi_eff)
    eta_w = float(trace.P[i1])
    return WriteResult(
        profile=profile,
        eta_w=eta_w,
        trace=trace,
        capped=capped,
        xi_effective=xi_eff,
        t_w=float(grid.times[i0]),
        t_w0=float(grid.times[i1]),
    )


def write_efficiency(profile: DecayProfile) -> float:
    """1 - exp(-Gamma_z) accumulated over the profile's grid.

    For a write it equals the achieved P(t_w0) only for uncapped optimal
    profiles matched to their input; for arbitrary profiles it is an upper
    bound.  For a read it is the emitted fraction eta_r.
    """
    return float(1.0 - math.exp(-profile.Gamma_z[-1]))


def optimal_input_for_profile(
    profile: DecayProfile, eta_w: float
) -> ComplexEnvelope:
    """Invert the matching condition: the input a given profile absorbs best.

    |xi(t)| = g(t) * exp(-(Gamma_z(end) - Gamma_z(t))/2) / sqrt(eta_w), with
    phase -Im Gamma(t); the result is renormalized to unit norm (the raw
    magnitude integrates to eta_max/eta_w).
    """
    gz_end = float(profile.Gamma_z[-1])
    eta_max = 1.0 - math.exp(-gz_end)
    if not 0.0 < eta_w <= eta_max + 1e-12:
        raise ValueError(
            f"eta_w={eta_w:.6g} not attainable; profile admits at most "
            f"{eta_max:.6g}"
        )
    magnitude = (
        profile.g * np.exp(-0.5 * (gz_end - profile.Gamma_z)) / math.sqrt(eta_w)
    )
    env = ComplexEnvelope(
        profile.grid, magnitude * np.exp(-1j * profile.Gamma.imag)
    )
    return env.with_samples(env.samples / math.sqrt(squared_norm(env)))
