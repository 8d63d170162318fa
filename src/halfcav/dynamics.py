"""Time-dependent decay rates and excitation dynamics.

A mirror displacement l(t) sets a round-trip phase phi(t) = 4*pi*l/lambda
and with it the complex decay rate

    gamma(t)   = (gamma0/2) * (1 - exp(i*phi(t)))
               = -i*gamma0 * sin(phi/2) * exp(i*phi/2)
    gamma_z(t) = 2*gamma0 * sin(phi/2)^2 = 2*Re[gamma(t)]

On the principal branch phi in [0, pi], sqrt(2*gamma0) times sin(phi/2)
and cos(phi/2) are the coupling g = sqrt(gamma_z) and its complement
gbar = sqrt(2*gamma0 - gamma_z) (``complementary_coupling``).  So the level
shift is Im gamma = -g*gbar/2 <= 0, |gamma|^2 = gamma0*gamma_z/2, and the
mirror sits at l/lambda = atan2(g, gbar)/(2*pi), from a node (l = 0,
gamma_z = 0) to an antinode (l = lambda/4, gamma_z = 2*gamma0), each to
full relative precision at both ends of the rate range.  ``physical_rate``
owns the range, for the profiles here and for ``mirror`` alike.

A ``DecayProfile`` holds the real gamma_z that the programs synthesize.
The complex gamma, with its level shift, and every other series are
derived from it on first read.  With phase compensation a store or sweep
point never builds the complex rate: the write runs in the co-rotating
frame, and the de-chirped read needs only g.

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

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, affine_scan, cumtrapz, _freeze
from .core import SCAN_MIN_FACTOR


@dataclass(frozen=True)
class DecayProfile:
    """Sampled decay rate gamma_z on a grid, with the series derived from it.

    Built from the real series gamma_z, the one every program synthesizes.
    The complex rate gamma_complex = gamma_z/2 + i*Im(gamma), whose level
    shift Im(gamma) = -g*gbar/2 <= 0 takes the principal branch
    (``complementary_coupling``), the coupling g = sqrt(gamma_z), and the
    cumulative trapezoidal integrals Gamma and Gamma_z from the grid start
    are each derived on first use and then kept, so a caller pays only for
    the series it reads: neither a compensated write nor a de-chirped read
    builds the complex rate, since the read needs only
    |gamma| = sqrt(gamma0/2)*g.  A profile driven by a mirror passes its own
    complex rate as ``gamma`` (``decay_from_mirror``), which is kept as
    given, off the principal branch too.  Gamma_z is non-decreasing since
    gamma_z >= 0.
    """

    grid: TimeGrid
    gamma_z: np.ndarray
    cfg: MemoryConfig
    gamma: InitVar[np.ndarray | None] = None

    def __post_init__(self, gamma):
        gamma_z = np.asarray(self.gamma_z, dtype=float)
        if gamma_z.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} rates, got shape {gamma_z.shape}")
        object.__setattr__(self, "gamma_z", _freeze(gamma_z))
        if gamma is not None:
            # The cache slot of gamma_complex: it is never derived.
            self.__dict__["gamma_complex"] = _freeze(np.asarray(gamma, dtype=np.complex128))

    @cached_property
    def gamma_complex(self) -> np.ndarray:
        gamma = np.empty(self.grid.n, dtype=np.complex128)
        np.multiply(0.5, self.gamma_z, out=gamma.real)
        # The shift g*gbar/2, built in the buffer of gbar.
        shift = complementary_coupling(self.gamma_z, self.cfg)
        np.multiply(self.g, shift, out=shift)
        np.multiply(0.5, shift, out=shift)
        # 0 - x, not -x, so the shift is +0 where the rate is 0.
        np.subtract(0.0, shift, out=gamma.imag)
        return _freeze(gamma)

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


def physical_rate(gamma_z, cfg: MemoryConfig) -> np.ndarray:
    """gamma_z as a new array clipped to [0, 2*gamma0]; ValueError if it
    lies more than 1e-9 outside."""
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.min() < -1e-9 or gamma_z.max() > cfg.cap + 1e-9:
        raise ValueError("gamma_z outside the physical range [0, 2*gamma0]")
    return np.clip(gamma_z, 0.0, cfg.cap)


def complementary_coupling(gamma_z, cfg: MemoryConfig) -> np.ndarray:
    """gbar = sqrt(2*gamma0 - gamma_z), as a new array, for the rate gamma_z
    (``physical_rate``).  With g = sqrt(gamma_z) it fixes the half phase
    phi/2 in [0, pi/2] of the mirror that realizes the rate:
    (g, gbar) = sqrt(2*gamma0)*(sin(phi/2), cos(phi/2))."""
    gbar = physical_rate(gamma_z, cfg)
    np.subtract(cfg.cap, gbar, out=gbar)
    return np.sqrt(gbar, out=gbar)


def profile_from_gamma_z(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig
) -> DecayProfile:
    """The profile of a real decay-rate series, checked against and clipped
    to [0, 2*gamma0] (``physical_rate``); its complex rate follows the
    principal branch, Im gamma = -g*gbar/2 <= 0.  The profile
    keeps 2*(gamma_z/2), so that gamma_z = 2*Re(gamma) holds bit for bit:
    the halving drops the last bit of a subnormal rate."""
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got {gamma_z.shape}")
    gamma_z = physical_rate(gamma_z, cfg)
    np.multiply(0.5, gamma_z, out=gamma_z)
    return DecayProfile(grid, np.multiply(gamma_z, 2.0, out=gamma_z), cfg)


def decay_from_mirror(grid: TimeGrid, l_over_lambda, cfg: MemoryConfig) -> DecayProfile:
    """Decay profile generated by a mirror displacement l/lambda sampled on
    grid, gamma = -i*gamma0*sin(phi/2)*exp(i*phi/2): unlike 1 - exp(i*phi)
    it does not cancel, so a rate near 0 keeps its relative precision."""
    half_phi = 2.0 * np.pi * np.asarray(l_over_lambda, dtype=float)
    gamma = -1j * cfg.gamma0 * np.sin(half_phi) * np.exp(1j * half_phi)
    return DecayProfile(grid, 2.0 * gamma.real, cfg, gamma)


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
    is too coarse for the scan and raises ValueError.  E and drive share
    one dtype, which the amplitude keeps: a real E and drive keep it real.
    No array is negated: 0 - E and E[k] - E[k+1] take the bits of -E and
    -(E[k+1] - E[k]) up to the sign of a zero, at a fraction of the cost of
    a complex negation, so only signed zeros of the amplitude can differ.
    """
    h = 0.5 * dt
    if 2.0 * exponent[-1].real < LONG_STORAGE_GAMMA_Z:
        integrand = np.exp(exponent) * drive
        running = np.zeros_like(integrand)
        np.cumsum(h * (integrand[1:] + integrand[:-1]), out=running[1:])
        # integrand's buffer takes exp(-E).
        decay = np.exp(np.subtract(0.0, exponent, out=integrand), out=integrand)
        return np.multiply(decay, running, out=running)
    decay = np.exp(exponent[:-1] - exponent[1:])
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
