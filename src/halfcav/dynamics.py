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
integration of the underlying three-component equation of motion.  Their
agreement is the main numerical cross-check of the package.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz, _freeze

# gamma_z below this counts as "coupling off" (atom held at a node).
HOLD_TOL = 1e-12


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


def bloch_ode_oracle(
    profile: DecayProfile, xi_in: ComplexEnvelope
) -> ExcitationTrace:
    """Independent population trace from the three-component equation of
    motion, integrated with classical fixed-step RK4 on the grid.

    State s = (<sigma_z>, cross <sigma_+>, cross <sigma_->) with
    s(t0) = (-1, 0, 0); the single-photon drive enters as g(t)*xi(t):

        ds1/dt = -gamma_z*s1 - 2*g*xi*s2 - 2*g*conj(xi)*s3 - gamma_z
        ds2/dt = -conj(gamma)*s2 - g*conj(xi)
        ds3/dt = -gamma*s3 - g*xi

    Returns P(t) = (1 + s1(t))/2.  Mid-step coefficients are linear
    interpolations of the sampled series.
    """
    if xi_in.grid != profile.grid:
        raise ValueError("envelope and profile must share a grid")
    n = profile.grid.n
    dt = profile.grid.dt

    drv_arr = profile.g * xi_in.samples
    # Plain-python lists keep the sequential loop fast.
    gz = profile.gamma_z.tolist()
    gam = profile.gamma_complex.tolist()
    gamc = np.conjugate(profile.gamma_complex).tolist()
    drv = drv_arr.tolist()
    drvc = np.conjugate(drv_arr).tolist()
    gz_m = (0.5 * (profile.gamma_z[1:] + profile.gamma_z[:-1])).tolist()
    gam_m = (0.5 * (profile.gamma_complex[1:] + profile.gamma_complex[:-1])).tolist()
    gamc_m = np.conjugate(
        0.5 * (profile.gamma_complex[1:] + profile.gamma_complex[:-1])
    ).tolist()
    drv_m = (0.5 * (drv_arr[1:] + drv_arr[:-1])).tolist()
    drvc_m = np.conjugate(0.5 * (drv_arr[1:] + drv_arr[:-1])).tolist()

    P = np.empty(n)
    amplitude = np.empty(n, dtype=np.complex128)
    s1 = -1.0 + 0.0j
    s2 = 0.0 + 0.0j
    s3 = 0.0 + 0.0j
    P[0] = 0.0
    amplitude[0] = 0.0
    half = 0.5 * dt
    sixth = dt / 6.0

    for k in range(n - 1):
        gzk, gamk, gamck, dk, dck = gz[k], gam[k], gamc[k], drv[k], drvc[k]
        gzm, gamm, gamcm, dm, dcm = gz_m[k], gam_m[k], gamc_m[k], drv_m[k], drvc_m[k]
        gzn, gamn, gamcn, dn, dcn = (
            gz[k + 1], gam[k + 1], gamc[k + 1], drv[k + 1], drvc[k + 1],
        )

        a1 = -gzk * s1 - 2.0 * dk * s2 - 2.0 * dck * s3 - gzk
        a2 = -gamck * s2 - dck
        a3 = -gamk * s3 - dk

        u1, u2, u3 = s1 + half * a1, s2 + half * a2, s3 + half * a3
        b1 = -gzm * u1 - 2.0 * dm * u2 - 2.0 * dcm * u3 - gzm
        b2 = -gamcm * u2 - dcm
        b3 = -gamm * u3 - dm

        u1, u2, u3 = s1 + half * b1, s2 + half * b2, s3 + half * b3
        c1 = -gzm * u1 - 2.0 * dm * u2 - 2.0 * dcm * u3 - gzm
        c2 = -gamcm * u2 - dcm
        c3 = -gamm * u3 - dm

        u1, u2, u3 = s1 + dt * c1, s2 + dt * c2, s3 + dt * c3
        e1 = -gzn * u1 - 2.0 * dn * u2 - 2.0 * dcn * u3 - gzn
        e2 = -gamcn * u2 - dcn
        e3 = -gamn * u3 - dn

        s1 = s1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + e1)
        s2 = s2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + e2)
        s3 = s3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + e3)
        if abs(s1) > 1.0 + 1e-6:
            raise RuntimeError(
                "population left [0,1]; the grid is too coarse for the RK4 "
                "step, refine dt"
            )
        P[k + 1] = 0.5 * (1.0 + s1.real)
        amplitude[k + 1] = -s3
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)


def hold(profile: DecayProfile, t_a: float, t_b: float) -> bool:
    """True when the coupling stays off (gamma_z < 1e-12) on [t_a, t_b]."""
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    i = profile.grid.index_of(t_a)
    j = profile.grid.index_of(t_b)
    return bool(np.all(profile.gamma_z[i : j + 1] < HOLD_TOL))
