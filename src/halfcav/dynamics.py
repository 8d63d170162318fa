"""Time-dependent decay rates and excitation dynamics.

A mirror displacement l(t) sets a round-trip phase phi(t) = 4*pi*l/lambda
and with it the complex decay rate

    gamma(t)   = (gamma0/2) * (1 - exp(i*phi(t)))
               = -i*gamma0 * sin(phi/2) * exp(i*phi/2)
    gamma_z(t) = 2*gamma0 * sin(phi/2)^2 = 2*Re[gamma(t)]

sqrt(2*gamma0) times sin(phi/2) and cos(phi/2), phi/2 in [0, pi), are the
coupling g = sqrt(gamma_z) and its signed complement gbar.  So the level
shift is Im gamma = -g*gbar/2, |gamma|^2 = gamma0*gamma_z/2, and the mirror
sits at l/lambda = atan2(g, gbar)/(2*pi), each to full relative precision
at both ends of the rate range.  From a node (l = 0, gamma_z = 0) to an
antinode (l = lambda/4, gamma_z = 2*gamma0), the principal branch,
gbar = sqrt(2*gamma0 - gamma_z) (``complementary_coupling``); past the
antinode gbar < 0 and the shift is positive.  ``physical_rate`` owns the
range, for the profiles here and for ``mirror`` alike.

A ``DecayProfile`` holds the real gamma_z that the programs synthesize,
and a mirror's gbar (``decay_from_mirror``); the complex gamma and every
other series are derived on first read, so a phase-compensated store or
sweep point never builds the complex rate.

Two independent routes compute the excited-state population driven by an
input envelope: a closed-form cumulative quadrature and a fixed-step RK4
integration of the underlying three-component equation of motion.  Both
drive the atom through one owner, ``DecayProfile.drive``.  The quadrature
is one function, ``absorption_probability``, which owns the frame: in the
lab frame it runs the trapezoid kernel ``_trapezoid_amplitude`` on the
complex Gamma and the input xi; in the frame co-rotating with the shifted
resonance, the phase-compensated write's, on Gamma_z/2 = Re Gamma and |xi|,
where no complex number appears.  ``lab_frame_input`` gives what the
co-rotating write absorbs as a lab-frame input, for the RK4 route.  The
equation is linear, so every RK4 step is an affine map of the amplitude and
the integration runs as one blocked scan (``core.affine_scan``), not a loop
over samples; the population is |amplitude|^2 on both routes.  Their
agreement is the main numerical cross-check of the package.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, affine_scan, cumtrapz, polar, _freeze
from .core import SCAN_MIN_FACTOR


@dataclass(frozen=True)
class DecayProfile:
    """Sampled decay rate gamma_z on a grid, with the series derived from it.

    Built by ``profile_from_gamma_z``, from the real series gamma_z and
    the signed complement gbar, None on the principal branch.  The complex
    rate gamma_complex = gamma_z/2 - i*g*gbar/2, the coupling
    g = sqrt(gamma_z), and the cumulative trapezoidal integrals Gamma and
    Gamma_z from the grid start are each derived on first use and then
    kept, so a caller pays only for the series it reads: neither a
    compensated write nor a de-chirped read builds the complex rate or a
    principal gbar, since the read needs only |gamma| = sqrt(gamma0/2)*g.
    Gamma_z is non-decreasing since gamma_z >= 0.

    The atom meets the light through two couplings, and they differ in
    phase (ROADMAP item 3):

    - the drive coupling, through which an input drives the atom on the
      write and in the oracle, is the real g (``drive``);
    - the emission coupling, through which the read emits, is
      kappa = sqrt(2/gamma0)*gamma = sqrt(gamma0/2)*(1 - exp(i*phi)), so
      |kappa| = g and arg kappa = (phi - pi)/2
      (``read_shaper.output_envelope``; Dorner and Zoller, PRA 66, 023816
      (2002)).

    Time reversal needs one coupling on both sides (Gorshkov et al., PRL
    98, 123601 (2007)).
    """

    grid: TimeGrid
    gamma_z: np.ndarray
    cfg: MemoryConfig
    gbar: np.ndarray | None = None

    @cached_property
    def gamma_complex(self) -> np.ndarray:
        gamma = np.empty(self.grid.n, dtype=np.complex128)
        np.multiply(0.5, self.gamma_z, out=gamma.real)
        gbar = complementary_coupling(self.gamma_z, self.cfg) if self.gbar is None else self.gbar
        shift = np.multiply(self.g, gbar)
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

    def drive(self, xi_in: ComplexEnvelope, co_rotating: bool = False) -> np.ndarray:
        """g*x, the drive of the input x that the atom absorbs from xi_in in
        the frame (``_absorbed``), through the drive coupling: the one drive
        product, for the quadrature in either frame and for the oracle in
        the lab frame."""
        if xi_in.grid != self.grid:
            raise ValueError("envelope and profile must share a grid")
        return self.g * _absorbed(xi_in, co_rotating)


@dataclass(frozen=True)
class ExcitationTrace:
    """Excited-state probability P(t) and the amplitude behind it.

    The oracle gives the complex lab-frame amplitude, and
    ``absorption_probability`` gives it in the frame it is asked for: in
    the frame co-rotating with the shifted resonance the amplitude is real.
    P is the same in both frames.
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
    """gbar = sqrt(2*gamma0 - gamma_z), as a new array, for a rate gamma_z
    that ``physical_rate`` has checked and clipped.  With g = sqrt(gamma_z)
    it fixes the half phase phi/2 in [0, pi/2] of the mirror that realizes
    the rate on the principal branch:
    (g, gbar) = sqrt(2*gamma0)*(sin(phi/2), cos(phi/2))."""
    gbar = np.subtract(cfg.cap, gamma_z)
    return np.sqrt(gbar, out=gbar)


def profile_from_gamma_z(
    grid: TimeGrid, gamma_z: np.ndarray, cfg: MemoryConfig, gbar: np.ndarray | None = None
) -> DecayProfile:
    """The profile of a real decay-rate series, checked against and clipped
    to [0, 2*gamma0] (``physical_rate``), with the signed complement gbar of
    g = sqrt(gamma_z) that picks the mirror's branch, or None for the
    principal one.  The profile keeps 2*(gamma_z/2), so that
    gamma_z = 2*Re(gamma) holds bit for bit: the halving drops the last
    bit of a subnormal rate."""
    gamma_z = np.asarray(gamma_z, dtype=float)
    if gamma_z.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got {gamma_z.shape}")
    gamma_z = physical_rate(gamma_z, cfg)
    np.multiply(0.5, gamma_z, out=gamma_z)
    gamma_z = _freeze(np.multiply(gamma_z, 2.0, out=gamma_z))
    return DecayProfile(grid, gamma_z, cfg, None if gbar is None else _freeze(gbar))


def decay_from_mirror(grid: TimeGrid, l_over_lambda, cfg: MemoryConfig) -> DecayProfile:
    """Decay profile generated by a mirror displacement l/lambda sampled on
    grid, on either branch.  With l taken modulo 1/2, both roots come from
    exact distances, to the nearer node and to the antinode:
    g = sqrt(2*gamma0)*sin(2*pi*min(l, 1/2 - l)) and the signed
    gbar = sqrt(2*gamma0)*sin(2*pi*(1/4 - l)).  So gamma keeps its relative
    precision near both, where 1 - exp(i*phi) cancels, and l = 0, 1/4 and
    1/2 give gamma = 0, gamma0 and 0 exactly."""
    l = np.mod(np.asarray(l_over_lambda, dtype=float), 0.5)
    s = np.sin(2.0 * np.pi * np.minimum(l, 0.5 - l))
    gbar = np.sqrt(cfg.cap) * np.sin(2.0 * np.pi * (0.25 - l))
    return profile_from_gamma_z(grid, cfg.cap * (s * s), cfg, gbar)


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
    # decay stays the left operand at every length: numpy would swap it with
    # a temporary from 16,384 samples on (see core.affine_scan on why).
    b = h * drive[:-1]
    return affine_scan(decay, np.multiply(decay, b, out=b) + h * drive[1:], 0.0)


def _absorbed(xi_in: ComplexEnvelope, co_rotating: bool) -> np.ndarray:
    """The input samples the atom absorbs in the frame: xi in the lab
    frame; |xi| in the co-rotating one, which drops arg xi, so the
    configured time-bin phase never reaches the atom (ROADMAP item 4)."""
    return np.abs(xi_in.samples) if co_rotating else xi_in.samples


def absorption_probability(
    profile: DecayProfile, xi_in: ComplexEnvelope, co_rotating: bool = False
) -> ExcitationTrace:
    """Excited-state amplitude from the closed-form quadrature.

    amplitude(t) = ∫ exp(-(E(t) - E(t'))) g(t') x(t') dt'  over t' <= t:
    ``_trapezoid_amplitude`` with exponent E and the drive g*x of the
    absorbed input x (``DecayProfile.drive``).  In the lab frame
    E = Gamma and x = xi, so the complex Gamma is integrated.  In the frame
    co-rotating with the shifted resonance, the phase-compensated write's,
    E = Gamma_z/2 = Re Gamma and x = |xi|: the kernel loses its phase and no
    complex rate, exponential or running integral is built.  Its P is the
    lab-frame P of ``lab_frame_input``.
    """
    drive = profile.drive(xi_in, co_rotating)
    exponent = 0.5 * profile.Gamma_z if co_rotating else profile.Gamma
    amplitude = _trapezoid_amplitude(exponent, drive, profile.grid.dt)
    P = np.abs(amplitude) ** 2
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)


def lab_frame_input(
    profile: DecayProfile, xi_in: ComplexEnvelope, co_rotating: bool = False
) -> ComplexEnvelope:
    """The lab-frame input whose lab-frame absorption is
    ``absorption_probability(profile, xi_in, co_rotating)``: xi_in itself,
    or in the co-rotating frame the absorbed input turned by the level
    shift, |xi|*exp(-i*Im Gamma), the one place that frame reads Gamma."""
    if not co_rotating:
        return xi_in
    # 0 - Im Gamma, not -Im Gamma: +0 where the shift is 0, as exp(-1j*Im Gamma) has.
    return xi_in.with_samples(polar(_absorbed(xi_in, True), 0.0 - profile.Gamma.imag))


def _rk4_step_map(rate, source, h: float):
    """One classical RK4 step of dy/dt = -r(t)*y + c(t) as the affine map
    y[k+1] = a*y[k] + b, for arrays of steps, in complex128.

    ``rate`` holds r at the step start, midpoint and end; ``source`` holds
    c at the four stages.  Stage i has slope -m_i*y + q_i, with m_1 = r0,
    q_1 = c1, m_i = r*(1 - w*m_(i-1)) and q_i = c_i - (w*r)*q_(i-1) at the
    stage's rate r and step w.  The series are built in a few reused
    buffers; the arguments are only read.
    """
    r0, rm, r1 = rate
    c1, c2, c3, c4 = source
    m_sum, q_sum = np.array(r0, dtype=complex), np.array(c1, dtype=complex)
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
    s(t0) = (-1, 0, 0); the single-photon drive enters as d = g(t)*xi(t)
    (``DecayProfile.drive``):

        ds1/dt = -gamma_z*s1 - 2*d*s2 - 2*conj(d)*s3 - gamma_z
        ds2/dt = -conj(gamma)*s2 - conj(d)
        ds3/dt = -gamma*s3 - d

    Mid-step coefficients are linear interpolations of the sampled series.
    The amplitude z = -s3 obeys dz/dt = -gamma*z + d (s2 = -conj(z)
    exactly), and P = (1 + s1)/2 obeys dP/dt = -gamma_z*P + 2*Re(d*conj(z)),
    which is d|z|^2/dt since gamma_z = 2*Re(gamma).  Both start at 0, so
    P = |z|^2 along the exact solution, and only z is integrated: the
    equation is linear, so each RK4 step is an affine map of z, built for
    all steps at once and solved with one ``affine_scan``.  P = |z|^2 is
    exactly 0 with no drive.  Stepping s1 as well would add only the O(h^4)
    difference between the two RK4 schemes.  The minus signs sit in the
    recurrences, so no complex array is negated.  Returns P and z.

    Raises RuntimeError when P leaves [0, 1] by more than 1e-6 or is not
    finite: the grid is then too coarse for the RK4 step.
    """
    drv = profile.drive(xi_in)
    h = profile.grid.dt
    gam = profile.gamma_complex
    gam_m = 0.5 * (gam[1:] + gam[:-1])
    drv_m = 0.5 * (drv[1:] + drv[:-1])

    a, b = _rk4_step_map((gam[:-1], gam_m, gam[1:]), (drv[:-1], drv_m, drv_m, drv[1:]), h)
    # On a grid too coarse for RK4 each step amplifies and the scan
    # overflows to inf or nan; the population check below rejects both.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        amplitude = affine_scan(a, b, 0j)
        P = np.abs(amplitude) ** 2
    if not np.all(np.abs(2.0 * P - 1.0) <= 1.0 + 1e-6):
        raise RuntimeError(
            "population left [0,1]; the grid is too coarse for the RK4 "
            "step, refine dt"
        )
    return ExcitationTrace(grid=profile.grid, P=P, amplitude=amplitude)
