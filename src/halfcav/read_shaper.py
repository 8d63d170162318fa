"""Shaped re-emission of the stored excitation.

A stored population P0 released through a decay program gamma_z_r(t) leaves
as the envelope

    xi_out(t) = i * sqrt(2*P0/gamma0) * gamma_r(t) * exp(-Gamma_r(t)),

whose intensity is P0 * gamma_z_r(t) * exp(-Gamma_z_r(t)).  Matching that
intensity to a target shape |xi_tgt|^2 gives the closed form
eta_r*|xi_tgt|^2 / (1 - eta_r*∫|xi_tgt|^2) below the 2*gamma0 bound; the
capped case is the time-reversed image of the write synthesis (emission is
absorption run backwards), which maximizes the target-projected emitted
energy eta_r * F.

The complex gamma_r imprints the level-shift chirp on the raw envelope.  By
default the returned envelope is de-chirped (the phases arg(gamma_r) and
-Im Gamma_r are removed), i.e. reported in the frame co-rotating with the
shifted atomic resonance, matching the convention under which the write
side compensates its input; without phase compensation the chirped
envelope is returned as is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, squared_norm, trapz
from .dynamics import DecayProfile, profile_from_gamma_z
from .pulses import fidelity, support_indices
from .write_optimizer import ETA_TARGET, WriteResult, _synthesize_gamma_z


@dataclass(frozen=True)
class ReadResult:
    """Outcome of shaping the readout toward a target envelope."""

    profile: DecayProfile
    eta_r: float
    xi_out: ComplexEnvelope
    fidelity_vs_target: float
    capped: bool
    P0: float
    t_r0: float
    t_r: float


def output_envelope(
    profile: DecayProfile,
    P0: float,
    cfg: MemoryConfig,
    dechirp: bool = False,
    obs_delay: float | None = None,
) -> ComplexEnvelope:
    """Envelope emitted by a stored population P0 under the given profile.

    Returned in the rotating frame; the constant carrier factor
    exp(i*omega_a*(obs_delay - tau/2)) for an observation point at delay
    obs_delay (default tau/2, i.e. at the mirror's image plane) is recorded
    on the envelope's ``carrier_phase`` rather than multiplied in.  With
    ``dechirp`` the level-shift phases are stripped, leaving i*|xi_out(t)|.
    """
    if not 0.0 <= P0 <= 1.0:
        raise ValueError("P0 must lie in [0, 1]")
    if obs_delay is None:
        obs_delay = 0.5 * cfg.tau
    scale = math.sqrt(2.0 * P0 / cfg.gamma0)
    if dechirp:
        samples = 1j * scale * np.abs(profile.gamma_complex) * np.exp(
            -0.5 * profile.Gamma_z
        )
    else:
        samples = 1j * scale * profile.gamma_complex * np.exp(-profile.Gamma)
    carrier = complex(np.exp(1j * cfg.omega_a * (obs_delay - 0.5 * cfg.tau)))
    return ComplexEnvelope(profile.grid, samples, carrier_phase=carrier)


def read_profile_for_target(
    target: ComplexEnvelope,
    P0: float,
    cfg: MemoryConfig,
    phase_compensation: bool = True,
) -> ReadResult:
    """Decay program re-emitting P0 into the target's temporal shape.

    ``target`` fixes the desired |xi_out|^2 up to normalization.  The read
    window starts where the target's support starts; beyond the support the
    coupling returns to zero (no dumping of residual population into an
    unshaped tail).  eta_r is the achieved emitted fraction
    ∫|xi_out|^2 / P0.
    """
    if not 0.0 < P0 <= 1.0:
        raise ValueError("P0 must lie in (0, 1]")
    norm = squared_norm(target)
    if norm <= 0.0:
        raise ValueError("target envelope has zero norm")
    grid = target.grid
    q2 = np.abs(target.samples) ** 2 / norm
    i0, i1 = support_indices(target)

    eps = (1.0 - ETA_TARGET) / ETA_TARGET
    gamma_z = np.zeros(grid.n)
    gamma_z[i0 : i1 + 1] = _synthesize_gamma_z(
        q2[i0 : i1 + 1][::-1], grid.dt, cfg.cap, eps
    )[::-1]
    profile = profile_from_gamma_z(grid, gamma_z, cfg)
    capped = bool(gamma_z.max() >= cfg.cap - 1e-12)

    xi_rep = output_envelope(profile, P0, cfg, dechirp=phase_compensation)
    eta_r = float(trapz(np.abs(xi_rep.samples) ** 2, grid)) / P0
    return ReadResult(
        profile=profile,
        eta_r=eta_r,
        xi_out=xi_rep,
        fidelity_vs_target=fidelity(xi_rep, target),
        capped=capped,
        P0=P0,
        t_r0=float(grid.times[i0]),
        t_r=float(grid.times[-1]),
    )


def total_efficiency(w: WriteResult, r: ReadResult) -> float:
    """eta = eta_w * eta_r for a consistently chained write/read pair."""
    if abs(r.P0 - w.eta_w) > 1e-12:
        raise ValueError(
            "read was not built from this write's stored population "
            f"(P0={r.P0!r} vs eta_w={w.eta_w!r})"
        )
    return w.eta_w * r.eta_r
