"""The read program: the decay program that re-emits a stored excitation
into a target's temporal shape.

A stored population P0 released through a decay program gamma_z_r(t)
leaves with the intensity P0 * gamma_z_r(t) * exp(-Gamma_z_r(t))
(``dynamics.output_envelope``, which owns the emission coupling and both
frames).  Matching that intensity to a target shape |xi_tgt|^2 gives the
closed form eta_r*|xi_tgt|^2 / (1 - eta_r*∫|xi_tgt|^2) below the 2*gamma0
bound.  The read program, capped or not, is the write's builder
(``write_optimizer.optimal_program``) run backwards over the target's
support: emission is absorption run backwards, and the capped result
maximizes the target-projected emitted energy eta_r * F.  With phase
compensation the read is reported in the frame co-rotating with the
shifted resonance, the compensated write's; without it, chirped, in the
lab frame.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import ComplexEnvelope, MemoryConfig
from .dynamics import DecayProfile, output_envelope
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
    xi_rep = output_envelope(profile, P0, co_rotating=phase_compensation)
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
