"""Time-dependent decay rates and excitation dynamics.

A mirror displacement l(t) sets a round-trip phase phi(t) = 4*pi*l/lambda
and with it the complex decay rate

    gamma(t)   = gamma'/2 + (gamma_p/2) * (1 - exp(i*phi(t)))
    gamma_z(t) = gamma'   + gamma_p * (1 - cos(phi(t))) = 2*Re[gamma(t)]

On the principal branch phi in [0, pi] the imaginary part (the dynamical
level shift) is non-positive; l = 0 is a node (gamma_z = 0) and l = lambda/4
an antinode (gamma_z = 2*gamma0).

Two independent routes compute the excited-state population driven by an
input envelope: a closed-form cumulative quadrature and a fixed-step RK4
integration of the underlying three-component equation of motion.  The
equation is linear, so every RK4 step is an affine map of the state and the
integration runs as two blocked scans (``core.affine_scan``), not a loop
over samples.  Their agreement is the main numerical cross-check of the
package.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, affine_scan, cumtrapz, _freeze


@dataclass(frozen=True)
class DecayProfile:
    """Sampled complex decay rate with its running integrals.

    Built from (grid, gamma_complex) alone: gamma_z = 2*Re(gamma_complex)
    samplewise, g = sqrt(gamma_z), and Gamma/Gamma_z are the cumulative
    trapezoidal integrals from the grid start.  Gamma_z is non-decreasing
    since gamma_z >= 0.
    """

    grid: TimeGrid
    gamma_complex: np.ndarray
    gamma_z: np.ndarray = field(init=False)
    Gamma: np.ndarray = field(init=False)
    Gamma_z: np.ndarray = field(init=False)
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        gamma_complex = np.asarray(self.gamma_complex, dtype=np.complex128)
        gamma_z = 2.0 * gamma_complex.real
        derived = {
            "gamma_complex": gamma_complex,
            "gamma_z": gamma_z,
            "Gamma": cumtrapz(gamma_complex, self.grid),
            "Gamma_z": cumtrapz(gamma_z, self.grid),
            "g": np.sqrt(np.clip(gamma_z, 0.0, None)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, _freeze(value))


@dataclass(frozen=True)
class ExcitationTrace:
    """Excited-state probability P(t) and the complex amplitude behind it."""

    grid: TimeGrid
    P: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(self.P))
        object.__setattr__(self, "amplitude", _freeze(self.amplitude))


def profile_from_gamma_z(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig
) -> DecayProfile:
    """Build the full complex profile from a real decay-rate series.

    The branch phi = arccos(1 - (gamma_z - gamma')/gamma_p) in [0, pi] fixes
    Im gamma = -(gamma_p/2)*sin(phi) <= 0.
    """
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got {gamma_z.shape}")
    cap = cfg.cap + 2.0 * cfg.gamma_prime
    if gamma_z.min() < -1e-9 or gamma_z.max() > cap + 1e-9:
        raise ValueError("gamma_z outside the physical range [0, 2*gamma0 + 2*gamma']")
    gamma_z = np.clip(gamma_z, 0.0, cap)
    cos_phi = np.clip(1.0 - (gamma_z - cfg.gamma_prime) / cfg.gamma_p, -1.0, 1.0)
    sin_phi = np.sqrt(np.clip(1.0 - cos_phi**2, 0.0, None))
    return DecayProfile(grid, 0.5 * gamma_z - 0.5j * cfg.gamma_p * sin_phi)


def decay_from_mirror(trajectory, cfg: MemoryConfig) -> DecayProfile:
    """Decay profile generated by a mirror trajectory (l in wavelengths)."""
    phi = 4.0 * np.pi * np.asarray(trajectory.l_over_lambda, dtype=float)
    return DecayProfile(
        trajectory.grid,
        0.5 * cfg.gamma_prime + 0.5 * cfg.gamma_p * (1.0 - np.exp(1j * phi)),
    )


def absorption_probability(
    profile: DecayProfile, xi_in: ComplexEnvelope
) -> ExcitationTrace:
    """Excited-state amplitude from the closed-form quadrature.

    amplitude(t) = ∫ exp(-(Gamma(t) - Gamma(t'))) g(t') xi(t') dt'  over
    t' <= t, evaluated with trapezoid weights.  The exponent is kept as a
    difference with non-negative real part, so every factor has magnitude
    <= 1 no matter how large the accumulated decay gets.
    """
    if xi_in.grid != profile.grid:
        raise ValueError("envelope and profile must share a grid")
    n = profile.grid.n
    dt = profile.grid.dt
    drive = profile.g * xi_in.samples

    amplitude = np.empty(n, dtype=np.complex128)
    amplitude[0] = 0.0
    if profile.Gamma_z[-1] < 1200.0:
        # Safe to exponentiate directly: split exp(-(Gamma(t)-Gamma(t')))
        # into exp(-Gamma(t)) * exp(+Gamma(t')), both representable.
        integrand = np.exp(profile.Gamma) * drive
        running = np.empty(n, dtype=np.complex128)
        running[0] = 0.0
        np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1]), out=running[1:])
        amplitude = np.exp(-profile.Gamma) * running
    else:
        # Long-storage fallback: step the same trapezoid sum with per-step
        # decay factors exp(-dGamma), each of magnitude <= 1.
        decay = np.exp(-(profile.Gamma[1:] - profile.Gamma[:-1]))
        acc = 0.0 + 0.0j
        for k in range(n - 1):
            acc = decay[k] * (acc + 0.5 * dt * drive[k]) + 0.5 * dt * drive[k + 1]
            amplitude[k + 1] = acc
    P = np.abs(amplitude) ** 2
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)


def _rk4_step_map(rate, source, h: float):
    """One classical RK4 step of dy/dt = -r(t)*y + c(t) as the affine map
    y[k+1] = a*y[k] + b, for arrays of steps.

    ``rate`` holds r at the step start, midpoint and end; ``source`` holds
    c at the four stages.  Stage i has slope p_i*y + q_i.
    """
    r0, rm, r1 = rate
    c1, c2, c3, c4 = source
    p1, q1 = -r0, c1
    p2, q2 = -rm * (1.0 + 0.5 * h * p1), c2 - 0.5 * h * rm * q1
    p3, q3 = -rm * (1.0 + 0.5 * h * p2), c3 - 0.5 * h * rm * q2
    p4, q4 = -r1 * (1.0 + h * p3), c4 - h * r1 * q3
    return (
        1.0 + (h / 6.0) * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
        (h / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4),
    )


def bloch_ode_oracle(
    profile: DecayProfile, xi_in: ComplexEnvelope
) -> ExcitationTrace:
    """Independent population trace from the three-component equation of
    motion, integrated with classical fixed-step RK4 on the grid.

    State s = (<sigma_z>, cross <sigma_+>, cross <sigma_->) with
    s(t0) = (-1, 0, 0); the single-photon drive enters as d = g(t)*xi(t):

        ds1/dt = -gamma_z*s1 - 2*d*s2 - 2*conj(d)*s3 - gamma_z
        ds2/dt = -conj(gamma)*s2 - conj(d)
        ds3/dt = -gamma*s3 - d

    Mid-step coefficients are linear interpolations of the sampled series.
    The system is linear, so each RK4 step is an affine map of the state,
    built for all steps at once and solved with ``affine_scan``: first the
    amplitude s3 (s2 = conj(s3) exactly), then P = (1 + s1)/2 through
    dP/dt = -gamma_z*P - 2*Re(d*conj(s3)), whose stage sources are the s3
    stage values.  RK4 commutes with this affine change of variables, so it
    is the same discrete scheme as stepping s, and P stays exactly 0 with
    no drive.  Returns P and the amplitude -s3.

    Raises RuntimeError when P leaves [0, 1] by more than 1e-6 or is not
    finite: the grid is then too coarse for the RK4 step.
    """
    if xi_in.grid != profile.grid:
        raise ValueError("envelope and profile must share a grid")
    h = profile.grid.dt
    gam = profile.gamma_complex
    gz = profile.gamma_z
    drv = profile.g * xi_in.samples
    gam_m = 0.5 * (gam[1:] + gam[:-1])
    drv_m = 0.5 * (drv[1:] + drv[:-1])
    drv_stages = (drv[:-1], drv_m, drv_m, drv[1:])

    a3, b3 = _rk4_step_map((gam[:-1], gam_m, gam[1:]), tuple(-d for d in drv_stages), h)
    # On a grid too coarse for RK4 each step amplifies and the scans
    # overflow to inf or nan; the population check below rejects both.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s3 = affine_scan(a3, b3, 0j)
        # s3 at the four stages of each step, as the RK4 step evaluates it.
        u1 = s3[:-1]
        u2 = u1 + 0.5 * h * (-gam[:-1] * u1 - drv[:-1])
        u3 = u1 + 0.5 * h * (-gam_m * u2 - drv_m)
        u4 = u1 + h * (-gam_m * u3 - drv_m)
        sources = tuple(
            -2.0 * (d * np.conj(u)).real for d, u in zip(drv_stages, (u1, u2, u3, u4))
        )
        aP, bP = _rk4_step_map((gz[:-1], 0.5 * (gz[1:] + gz[:-1]), gz[1:]), sources, h)
        P = affine_scan(aP, bP, 0.0)
    if not np.all(np.abs(2.0 * P - 1.0) <= 1.0 + 1e-6):
        raise RuntimeError(
            "population left [0,1]; the grid is too coarse for the RK4 "
            "step, refine dt"
        )
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=-s3)
