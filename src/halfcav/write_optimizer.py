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
on a capped arc u = sqrt(r) obeys a linear equation, so the whole arc is
one ``core.affine_scan``.  Only the steps onto and off the cap are taken
one at a time.  ``optimal_program`` runs it forward for a write and
backwards for a read (``read_shaper``).

The level-shift phase Im(Gamma) is compensated by default: the write is
taken in the frame co-rotating with the shifted atomic resonance, the frame
the read reports its output in (``read_shaper``).  The frame, the input it
absorbs and the coupling that drives the atom are ``dynamics``' choices
(``absorption_probability``); the write only names its frame.  The
compensated write absorbs |xi|, the lab-frame input |xi|*exp(-i*Im Gamma)
(``WriteResult.xi_effective``): it keeps the input's magnitude but not its
phase, so the configured time-bin phase phi never reaches the atom and
eta_w does not depend on it (ROADMAP.md item 4, "Report the photon that the
atom actually absorbs").  Disabling compensation absorbs the input as
given, in the lab frame, and exposes the efficiency cost of the chirp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, NORM_TOL, affine_scan
from .dynamics import (
    DecayProfile,
    ExcitationTrace,
    absorption_probability,
    lab_frame_input,
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

    The trace is ``dynamics.absorption_probability``'s in the write's
    frame, co-rotating with phase compensation and the lab frame without.
    ``xi_effective`` is the lab-frame input the write absorbs
    (``dynamics.lab_frame_input``); it is derived on first access, for the
    oracle's RK4 check, so only that check integrates the complex Gamma of
    a compensated write.
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
        return lab_frame_input(self.profile, self.xi_in, self.phase_compensation)


def _synthesize_gamma_z(q2: np.ndarray, dt: float, cap: float, eps: float) -> np.ndarray:
    """Forward synthesis of the optimal rate for intensity samples q2.

    Integrates the running absorbed population r from eps through
    dr/dt = 2q*sqrt(gz*r) - gz*r, gz = min(q2/r, cap), and returns gz on
    every sample.  A step from sample k that starts and predicts uncapped,
    q2[k] <= cap*r[k] and q2[k+1] <= cap*(r[k] + dt*q2[k]), is the
    trapezoid rule, so an arc of them is one cumsum.  On the cap u = sqrt(r)
    obeys u' = sqrt(cap)*q - (cap/2)*u: a step between capped samples is
    u[k+1] = a*u[k] + dt/2*sqrt(cap)*(a*q[k] + q[k+1]), a = exp(-cap*dt/2)
    (trapezoid weights in the variation of constants), so an arc of them is
    one ``core.affine_scan``, ending before the first sample where
    q2 <= cap*u^2.  A step onto or off the cap is one Heun step.  Arcs are
    checked in windows that double while the arc lasts, so the cost stays
    linear in n however often arcs alternate.
    """
    half_dt = 0.5 * dt
    decay = math.exp(-0.5 * cap * dt)
    def heun(rk: float, qk2: float, qp2: float) -> float:
        gzk = min(qk2 / rk, cap)
        f0 = 2.0 * math.sqrt(qk2 * gzk * rk) - gzk * rk
        rp = rk + dt * f0
        gzp = min(qp2 / rp, cap)
        return rk + half_dt * (f0 + (2.0 * math.sqrt(qp2 * gzp * rp) - gzp * rp))

    n = q2.shape[0]
    r = np.empty(n)
    # A support that starts on the cap steps onto it from the zero input
    # before it, as the quadrature's first trapezoid does.
    r[0] = heun(eps, 0.0, float(q2[0])) if q2[0] > cap * eps else eps
    k, window = 0, _FIRST_WINDOW
    while k < n - 1:
        seg = q2[k : k + window + 1]
        capped = seg[0] > cap * r[k]
        if capped:
            q = np.sqrt(seg)
            b = half_dt * math.sqrt(cap) * (decay * q[:-1] + q[1:])
            arc = affine_scan(np.full(b.size, decay), b, math.sqrt(r[k])) ** 2
            steps = seg[1:] > cap * arc[1:]
        else:
            arc = np.cumsum(np.concatenate(([r[k]], half_dt * (seg[:-1] + seg[1:]))))
            steps = (seg[:-1] <= cap * arc[:-1]) & (seg[1:] <= cap * (arc[:-1] + dt * seg[:-1]))
        m = int(steps.argmin()) if not steps.all() else steps.size
        r[k + 1 : k + m + 1] = arc[1 : m + 1]
        k += m
        if m == steps.size:
            window *= 2
            continue
        window = _FIRST_WINDOW
        # One Heun step onto or off the cap; a trapezoid arc ending on a capped k scans on.
        if capped or seg[m] <= cap * arc[m]:
            r[k + 1] = heun(float(r[k]), float(q2[k]), float(q2[k + 1]))
            k += 1
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
    trace = absorption_probability(profile, xi_in, co_rotating=phase_compensation)
    return WriteResult(
        profile=profile,
        eta_w=float(trace.P[i1]),
        trace=trace,
        capped=capped,
        xi_in=xi_in,
        phase_compensation=phase_compensation,
        support=(i0, i1),
    )
