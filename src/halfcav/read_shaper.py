"""Shaped re-emission of the stored excitation.

A stored population P0 released through a decay program gamma_z_r(t) leaves
as the envelope

    xi_out(t) = i * sqrt(2*P0/gamma0) * gamma_r(t) * exp(-Gamma_r(t)),

whose intensity is P0 * gamma_z_r(t) * exp(-Gamma_z_r(t)).  Matching that
intensity to a target shape |xi_tgt|^2 gives the closed form
eta_r*|xi_tgt|^2 / (1 - eta_r*∫|xi_tgt|^2) below the 2*gamma0 bound.  The
read program, capped or not, is the write's builder
(``write_optimizer.optimal_program``) run backwards over the target's
support: emission is absorption run backwards, and the capped result
maximizes the target-projected emitted energy eta_r * F.

The read emits through the emission coupling kappa = sqrt(2/gamma0)*gamma_r,
while the write and the oracle drive the atom through the real drive
coupling g = |kappa|; ``dynamics.DecayProfile`` names both, and their
phases differ (ROADMAP item 3).  The complex gamma_r imprints the
level-shift chirp on the raw envelope.  By default the returned envelope is
de-chirped (the phases arg(gamma_r) and -Im Gamma_r are removed), i.e.
reported in the frame co-rotating with the shifted atomic resonance, the
frame of the compensated write (``dynamics.absorption_probability``).
Since |gamma_r|^2 = gamma0*gamma_z_r/2 it is
i*sqrt(P0)*g_r(t)*exp(-Gamma_z_r(t)/2), emitted through |kappa| = g_r with
no complex rate.  Without phase compensation the chirped envelope is
returned as is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComplexEnvelope, MemoryConfig
from .dynamics import DecayProfile
from .pulses import fidelity
from .write_optimizer import WriteResult, optimal_program


@dataclass(frozen=True)
class ReadResult:
    """Outcome of shaping the readout toward a target envelope."""

    profile: DecayProfile
    eta_r: float
    xi_out: ComplexEnvelope
    fidelity_vs_target: float
    capped: bool
    P0: float


def output_envelope(
    profile: DecayProfile, P0: float, cfg: MemoryConfig, dechirp: bool = False
) -> ComplexEnvelope:
    """Envelope emitted by a stored population P0 under the given profile.

    Returned in the frame rotating at the atomic frequency, observed at the
    mirror's image plane, where the carrier factor is 1.  With ``dechirp``
    the level-shift phases are stripped, leaving i*|xi_out(t)|.
    """
    if not 0.0 <= P0 <= 1.0:
        raise ValueError("P0 must lie in [0, 1]")
    if dechirp:
        # scale*|gamma| = sqrt(P0)*g, since |gamma|^2 = gamma0*gamma_z/2:
        # i*sqrt(P0)*g*exp(-Gamma_z/2), with no complex series; the real
        # part holds the decay until it is set to +0.
        samples = np.empty(profile.grid.n, dtype=np.complex128)
        decay = np.multiply(-0.5, profile.Gamma_z, out=samples.real)
        np.exp(decay, out=decay)
        emitted = np.multiply(math.sqrt(P0), profile.g, out=samples.imag)
        np.multiply(emitted, decay, out=emitted)
        decay.fill(0.0)
    else:
        # 0 - Gamma has the bits of -Gamma up to the sign of a zero, at a
        # fraction of the cost of a complex negation.
        scale = math.sqrt(2.0 * P0 / cfg.gamma0)
        samples = 1j * scale * profile.gamma_complex * np.exp(np.subtract(0.0, profile.Gamma))
    return ComplexEnvelope(profile.grid, samples)


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
    norm = target.norm
    if norm <= 0.0:
        raise ValueError("target envelope has zero norm")
    profile, capped, _ = optimal_program(target, target.intensity / norm, cfg, reverse=True)
    xi_rep = output_envelope(profile, P0, cfg, dechirp=phase_compensation)
    return ReadResult(
        profile=profile,
        eta_r=xi_rep.norm / P0,
        xi_out=xi_rep,
        fidelity_vs_target=fidelity(xi_rep, target),
        capped=capped,
        P0=P0,
    )


def total_efficiency(w: WriteResult, r: ReadResult) -> float:
    """eta = eta_w * eta_r for a consistently chained write/read pair."""
    if abs(r.P0 - w.eta_w) > 1e-12:
        raise ValueError(
            "read was not built from this write's stored population "
            f"(P0={r.P0!r} vs eta_w={w.eta_w!r})"
        )
    return w.eta_w * r.eta_r
