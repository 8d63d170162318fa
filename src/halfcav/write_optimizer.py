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

The rate is synthesized one arc at a time.  On an uncapped arc Heun's
method for r is the trapezoid rule, so the whole arc is one cumulative sum;
only the capped samples and the steps into and out of them are stepped one
by one.  ``optimal_program`` runs it forward for a write and backwards
for a read (``read_shaper``).

The level-shift phase Im(Gamma) is compensated by default: the input is
taken in the frame co-rotating with the shifted atomic resonance, the frame
the read reports its output in (``read_shaper``).  There the kernel
exp(-(Gamma(t) - Gamma(t'))) loses its phase, and with the drive g*|xi| the
quadrature is real: exponent Gamma_z/2 = Re Gamma, and no complex rate,
exponential or running integral is built.  What the compensated write
absorbs is the lab-frame input |xi|*exp(-i*Im Gamma)
(``WriteResult.xi_effective``): it keeps the input's magnitude but not its
phase, so the configured time-bin phase phi never reaches the atom and
eta_w does not depend on it (ROADMAP.md, "Report the photon that the atom
actually absorbs").
Disabling compensation absorbs the input as given, in the lab frame, and
exposes the efficiency cost of the chirp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, NORM_TOL
from .dynamics import (
    DecayProfile,
    ExcitationTrace,
    _trapezoid_amplitude,
    absorption_probability,
    profile_from_gamma_z,
)
from .pulses import support_indices

# Uncapped runs target this efficiency; exactly 1 would make the optimal
# rate singular at the pulse's leading edge.
ETA_TARGET = 1.0 - 1e-9

# Samples in the first cumsum window of a trapezoid arc; the window doubles
# while the arc lasts.
_FIRST_WINDOW = 256


@dataclass(frozen=True)
class WriteResult:
    """Outcome of the write optimization; ``support`` = (i0, i1) is the
    write window, the input's support on its grid.

    With phase compensation the trace is taken in the co-rotating frame:
    its amplitude is real, the lab-frame amplitude times exp(+i*Im Gamma);
    P is the same in both frames.  Without it the trace is in the lab
    frame.  ``xi_effective`` is the lab-frame input the write absorbs,
    |xi|*exp(-i*Im Gamma) with compensation and xi_in without; it is
    derived on first access, for the oracle's RK4 check, so only that check
    integrates the complex Gamma of a compensated write.
    """

    profile: DecayProfile
    eta_w: float
    trace: ExcitationTrace
    capped: bool
    xi_in: ComplexEnvelope
    phase_compensation: bool
    support: tuple[int, int]

    @cached_property
    def xi_effective(self) -> ComplexEnvelope:
        if not self.phase_compensation:
            return self.xi_in
        return self.xi_in.with_samples(
            np.abs(self.xi_in.samples) * np.exp(-1j * self.profile.Gamma.imag)
        )


def _synthesize_gamma_z(q2: np.ndarray, dt: float, cap: float, eps: float) -> np.ndarray:
    """Forward synthesis of the optimal rate for intensity samples q2.

    Steps the running absorbed population r from eps with Heun's method
    through dr/dt = 2q*sqrt(gz*r) - gz*r, gz = min(q2/r, cap), and returns
    gz on every sample.  A step from sample k is a trapezoid step when it
    starts and predicts uncapped, q2[k] <= cap*r[k] and
    q2[k+1] <= cap*(r[k] + dt*q2[k]); Heun then gives exactly
    r[k+1] = r[k] + dt/2*(q2[k] + q2[k+1]), the closed-form profile.  An arc
    of such steps is one cumsum, checked in windows that double while the
    arc lasts, so the cost stays linear in n however often arcs alternate.
    The other steps (capped samples and the arc transitions) take the scalar
    Heun update, until a trapezoid step recurs.
    """
    n = q2.shape[0]
    q2l = None  # Python floats for the scalar steps, made on first use
    r = np.empty(n)
    r[0] = eps
    half_dt = 0.5 * dt
    k, window = 0, _FIRST_WINDOW
    while k < n - 1:
        seg = q2[k : k + window + 1]
        arc = np.cumsum(np.concatenate(([r[k]], half_dt * (seg[:-1] + seg[1:]))))
        trapezoid = (seg[:-1] <= cap * arc[:-1]) & (
            seg[1:] <= cap * (arc[:-1] + dt * seg[:-1])
        )
        m = int(trapezoid.argmin()) if not trapezoid.all() else trapezoid.size
        r[k + 1 : k + m + 1] = arc[1 : m + 1]
        k += m
        if m == trapezoid.size:
            window *= 2
            continue
        window = _FIRST_WINDOW
        # Step k is not a trapezoid step: Heun steps until one recurs.
        if q2l is None:
            q2l = q2.tolist()
        rk = float(r[k])
        while True:
            gzk = q2l[k] / rk
            if gzk > cap:
                gzk = cap
            f0 = 2.0 * math.sqrt(q2l[k] * gzk * rk) - gzk * rk
            rp = rk + dt * f0
            gzp = q2l[k + 1] / rp
            if gzp > cap:
                gzp = cap
            f1 = 2.0 * math.sqrt(q2l[k + 1] * gzp * rp) - gzp * rp
            rk = rk + 0.5 * dt * (f0 + f1)
            k += 1
            r[k] = rk
            if k == n - 1 or (
                q2l[k] <= cap * rk and q2l[k + 1] <= cap * (rk + dt * q2l[k])
            ):
                break
    np.divide(q2, r, out=r)
    return np.minimum(r, cap, out=r)


def optimal_program(
    env: ComplexEnvelope, q2: np.ndarray, cfg: MemoryConfig, reverse: bool = False
) -> tuple[DecayProfile, bool, tuple[int, int]]:
    """Optimal program for intensities q2, synthesized over env's support
    [i0, i1] (backwards for a read) and 0 outside it.  Returns the profile,
    whether the rate reaches the cap, and (i0, i1)."""
    grid = env.grid
    i0, i1 = support_indices(env)
    step = -1 if reverse else 1
    eps = (1.0 - ETA_TARGET) / ETA_TARGET
    gamma_z = np.zeros(grid.n)
    gamma_z[i0 : i1 + 1] = _synthesize_gamma_z(
        q2[i0 : i1 + 1][::step], grid.dt, cfg.cap, eps
    )[::step]
    capped = bool(gamma_z.max() >= cfg.cap - 1e-12)
    return profile_from_gamma_z(grid, gamma_z, cfg), capped, (i0, i1)


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
    if abs(xi_in.norm - 1.0) > NORM_TOL:
        raise ValueError("input envelope must be normalized (∫|xi|^2 dt = 1)")
    profile, capped, (i0, i1) = optimal_program(xi_in, xi_in.intensity, cfg)

    if phase_compensation:
        amplitude = _trapezoid_amplitude(
            0.5 * profile.Gamma_z, profile.g * np.abs(xi_in.samples), xi_in.grid.dt
        )
        trace = ExcitationTrace(grid=xi_in.grid, P=amplitude**2, amplitude=amplitude)
    else:
        trace = absorption_probability(profile, xi_in)
    return WriteResult(
        profile=profile,
        eta_w=float(trace.P[i1]),
        trace=trace,
        capped=capped,
        xi_in=xi_in,
        phase_compensation=phase_compensation,
        support=(i0, i1),
    )
