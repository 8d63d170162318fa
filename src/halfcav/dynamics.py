"""Time-dependent decay rates and excitation dynamics.

A mirror displacement l(t) sets a round-trip phase phi(t) = 4*pi*l/lambda
and with it the complex decay rate

    gamma(t)   = (gamma0/2) * (1 - exp(i*phi(t)))
    gamma_z(t) = gamma0 * (1 - cos(phi(t))) = 2*Re[gamma(t)]

On the principal branch phi in [0, pi] the imaginary part (the dynamical
level shift) is non-positive; l = 0 is a node (gamma_z = 0) and l = lambda/4
an antinode (gamma_z = 2*gamma0).  ``principal_branch`` owns this branch
map and its rate range, for the profiles here and for ``mirror`` alike.

Two independent routes compute the excited-state population driven by an
input envelope: a closed-form cumulative quadrature and a fixed-step RK4
integration of the underlying three-component equation of motion.  The
quadrature is one trapezoid kernel, ``_trapezoid_amplitude``, run in one of
two frames: in the lab frame on the complex Gamma and drive g*xi
(``absorption_probability``), or, for the phase-compensated write, in the
frame co-rotating with the shifted resonance on Gamma_z/2 = Re Gamma and the
real drive g*|xi|, where no complex number appears
(``write_optimizer.optimal_write_profile``).  The
equation is linear, so every RK4 step is an affine map of the state and the
integration runs as two blocked scans (``core.affine_scan``), not a loop
over samples.  Their agreement is the main numerical cross-check of the
package.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, affine_scan, cumtrapz, _freeze
from .core import SCAN_MIN_FACTOR


@dataclass(frozen=True)
class DecayProfile:
    """Sampled complex decay rate with its running integrals.

    Built from (grid, gamma_complex) alone: gamma_z = 2*Re(gamma_complex)
    samplewise, g = sqrt(gamma_z), and Gamma/Gamma_z are the cumulative
    trapezoidal integrals from the grid start.  Each is derived on first
    use and then kept, so a caller pays only for the series it reads: a
    de-chirped read never integrates the complex Gamma nor takes g.
    Gamma_z is non-decreasing since gamma_z >= 0.
    """

    grid: TimeGrid
    gamma_complex: np.ndarray

    def __post_init__(self):
        gamma_complex = np.asarray(self.gamma_complex, dtype=np.complex128)
        if gamma_complex.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} rates, got shape {gamma_complex.shape}")
        object.__setattr__(self, "gamma_complex", _freeze(gamma_complex))

    @cached_property
    def gamma_z(self) -> np.ndarray:
        return _freeze(2.0 * self.gamma_complex.real)

    @cached_property
    def Gamma(self) -> np.ndarray:
        return _freeze(cumtrapz(self.gamma_complex, self.grid))

    @cached_property
    def Gamma_z(self) -> np.ndarray:
        return _freeze(cumtrapz(self.gamma_z, self.grid))

    @cached_property
    def g(self) -> np.ndarray:
        return _freeze(np.sqrt(np.clip(self.gamma_z, 0.0, None)))


@dataclass(frozen=True)
class ExcitationTrace:
    """Excited-state probability P(t) and the amplitude behind it.

    ``absorption_probability`` and the oracle give the complex lab-frame
    amplitude.  A phase-compensated write gives it in the frame co-rotating
    with the shifted resonance, where it is real (``WriteResult``); P is
    the same in both frames.
    """

    grid: TimeGrid
    P: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(self.P))
        object.__setattr__(self, "amplitude", _freeze(self.amplitude))


def principal_branch(gamma_z, cfg: MemoryConfig) -> tuple[np.ndarray, np.ndarray]:
    """gamma_z clipped to [0, 2*gamma0] (ValueError if it lies more than
    1e-9 outside) and cos(phi) = 1 - gamma_z/gamma0 of the mirror phase
    phi in [0, pi] that realizes it."""
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.min() < -1e-9 or gamma_z.max() > cfg.cap + 1e-9:
        raise ValueError("gamma_z outside the physical range [0, 2*gamma0]")
    gamma_z = np.clip(gamma_z, 0.0, cfg.cap)
    return gamma_z, np.clip(1.0 - gamma_z / cfg.gamma0, -1.0, 1.0)


def profile_from_gamma_z(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig
) -> DecayProfile:
    """Build the full complex profile from a real decay-rate series.

    The principal branch fixes Im gamma = -(gamma0/2)*sin(phi) <= 0.
    """
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got {gamma_z.shape}")
    gamma_z, cos_phi = principal_branch(gamma_z, cfg)
    sin_phi = np.sqrt(np.clip(1.0 - cos_phi**2, 0.0, None))
    return DecayProfile(grid, 0.5 * gamma_z - 0.5j * cfg.gamma0 * sin_phi)


def decay_from_mirror(trajectory, cfg: MemoryConfig) -> DecayProfile:
    """Decay profile generated by a mirror trajectory (l in wavelengths)."""
    phi = 4.0 * np.pi * np.asarray(trajectory.l_over_lambda, dtype=float)
    return DecayProfile(trajectory.grid, 0.5 * cfg.gamma0 * (1.0 - np.exp(1j * phi)))


# Gamma_z(end) from which the quadrature runs as a scan.  Below it the
# factors exp(+E) with Re E = Gamma_z/2 < 600 stay finite (the float64 limit
# is e^709).
LONG_STORAGE_GAMMA_Z = 1200.0


def _trapezoid_amplitude(exponent: np.ndarray, drive: np.ndarray, dt: float) -> np.ndarray:
    """amplitude(t) = ∫ exp(-(E(t) - E(t'))) drive(t') dt'  over t' <= t,
    with trapezoid weights, for an exponent series E with Re E = Gamma_z/2.

    Below Gamma_z(end) = LONG_STORAGE_GAMMA_Z the kernel splits into
    exp(-E(t))*exp(+E(t')), both representable, and the sum is one cumsum.
    Past it (long storage) the sum is x[k+1] = d[k]*(x[k] + h*drive[k]) +
    h*drive[k+1], h = dt/2, with per-step decay d = exp(-(E[k+1] - E[k])),
    solved by ``core.affine_scan``; a grid with a step |d| < SCAN_MIN_FACTOR
    is too coarse for the scan and raises ValueError.  The amplitude has
    the dtype of E and drive together: a real E and drive keep it real.
    """
    h = 0.5 * dt
    if 2.0 * exponent[-1].real < LONG_STORAGE_GAMMA_Z:
        integrand = np.exp(exponent) * drive
        running = np.zeros_like(integrand)
        np.cumsum(h * (integrand[1:] + integrand[:-1]), out=running[1:])
        return np.exp(-exponent) * running
    decay = np.exp(-(exponent[1:] - exponent[:-1]))
    if np.abs(decay).min() < SCAN_MIN_FACTOR:
        raise ValueError(
            "grid too coarse for the long-storage scan: a step decays the "
            f"amplitude by more than a factor {SCAN_MIN_FACTOR}; refine dt"
        )
    return affine_scan(decay, decay * (h * drive[:-1]) + h * drive[1:], 0.0)


def absorption_probability(
    profile: DecayProfile, xi_in: ComplexEnvelope
) -> ExcitationTrace:
    """Excited-state amplitude from the closed-form quadrature, in the lab
    frame.

    amplitude(t) = ∫ exp(-(Gamma(t) - Gamma(t'))) g(t') xi(t') dt'  over
    t' <= t: ``_trapezoid_amplitude`` with exponent E = Gamma and drive
    g*xi, so the complex Gamma is integrated.  The phase-compensated write
    calls the same kernel in the co-rotating frame instead
    (``write_optimizer.optimal_write_profile``).
    """
    if xi_in.grid != profile.grid:
        raise ValueError("envelope and profile must share a grid")
    amplitude = _trapezoid_amplitude(
        profile.Gamma, profile.g * xi_in.samples, profile.grid.dt
    )
    P = np.abs(amplitude) ** 2
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)


def _rk4_step_map(rate, source, h: float):
    """One classical RK4 step of dy/dt = -r(t)*y + c(t) as the affine map
    y[k+1] = a*y[k] + b, for arrays of steps.

    ``rate`` holds r at the step start, midpoint and end; ``source`` holds
    c at the four stages.  Stage i has slope -m_i*y + q_i, with m_1 = r0,
    q_1 = c1, m_i = r*(1 - w*m_(i-1)) and q_i = c_i - (w*r)*q_(i-1) at the
    stage's rate r and step w.  The series are built in a few reused
    buffers; the arguments are only read.
    """
    r0, rm, r1 = rate
    c1, c2, c3, c4 = source
    dtype = np.result_type(*rate, *source)
    m_sum, q_sum = np.array(r0, dtype=dtype), np.array(c1, dtype=dtype)
    m, q, tmp = (np.empty_like(m_sum) for _ in range(3))
    m_prev, q_prev = r0, c1
    for i, (w, r, c) in enumerate(((0.5 * h, rm, c2), (0.5 * h, rm, c3), (h, r1, c4))):
        np.multiply(m_prev, w, out=m)
        np.subtract(1.0, m, out=m)
        np.multiply(r, m, out=m)
        np.multiply(r, w, out=tmp)
        np.multiply(tmp, q_prev, out=q)
        np.subtract(c, q, out=q)
        for y, y_sum in ((m, m_sum), (q, q_sum)):
            np.add(y_sum, np.multiply(y, 2.0, out=tmp) if i < 2 else y, out=y_sum)
        m_prev, q_prev = m, q
    np.multiply(m_sum, h / 6.0, out=m_sum)
    return np.subtract(1.0, m_sum, out=m_sum), np.multiply(q_sum, h / 6.0, out=q_sum)


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
    amplitude z = -s3 through dz/dt = -gamma*z + d (s2 = -conj(z) exactly),
    then P = (1 + s1)/2 through dP/dt = -gamma_z*P + 2*Re(d*conj(z)), whose
    stage sources are the z stage values.  RK4 commutes with this affine
    change of variables, so it is the same discrete scheme as stepping s,
    and P stays exactly 0 with no drive.  The minus signs sit in the
    recurrences, so no complex array is negated.  Returns P and z.

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

    a, b = _rk4_step_map((gam[:-1], gam_m, gam[1:]), (drv[:-1], drv_m, drv_m, drv[1:]), h)
    # On a grid too coarse for RK4 each step amplifies and the scans
    # overflow to inf or nan; the population check below rejects both.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        amplitude = affine_scan(a, b, 0j)
        # The amplitude at the four stages of each step, as the RK4 step
        # evaluates it: v_i = v1 - w*(gamma*v_(i-1) - d).
        v1 = amplitude[:-1]
        stages = [v1]
        for v, w, g, d in ((a, 0.5 * h, gam[:-1], drv[:-1]), (b, 0.5 * h, gam_m, drv_m),
                           (np.empty_like(a), h, gam_m, drv_m)):
            np.multiply(g, stages[-1], out=v)
            np.subtract(v, d, out=v)
            np.multiply(v, w, out=v)
            stages.append(np.subtract(v1, v, out=v))
        # The stage sources 2*Re(d*conj(v)); v1 is the returned amplitude.
        sources = []
        for d, v in zip((drv[:-1], drv_m, drv_m, drv[1:]), stages):
            v = np.conjugate(v, out=None if v is v1 else v)
            prod = np.multiply(d, v, out=v).real
            sources.append(np.multiply(prod, 2.0, out=prod))
        aP, bP = _rk4_step_map((gz[:-1], 0.5 * (gz[1:] + gz[:-1]), gz[1:]), sources, h)
        P = affine_scan(aP, bP, 0.0)
    if not np.all(np.abs(2.0 * P - 1.0) <= 1.0 + 1e-6):
        raise RuntimeError(
            "population left [0,1]; the grid is too coarse for the RK4 "
            "step, refine dt"
        )
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)
