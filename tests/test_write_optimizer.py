import math
import warnings

import numpy as np
import pytest

from halfcav import write_optimizer
from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz, squared_norm
from halfcav.dynamics import profile_from_gamma_z
from halfcav.pulses import TimeBinSpec, make_time_bin, support_indices
from halfcav.write_optimizer import (
    ETA_TARGET,
    _synthesize_gamma_z,
    optimal_write_profile,
)

MEM = MemoryConfig()
SQ2 = math.sqrt(0.5)


def timebin_env(sigma: float, separation: float = 20.0, per_dt: float = 200.0):
    spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=separation, sigma=sigma)
    pad = 8.0 / sigma
    dt = min(1.0, 1.0 / sigma) / per_dt
    n = int((separation + 2 * pad) / dt) + 1
    grid = TimeGrid(-pad, -pad + (n - 1) * dt, n)
    return make_time_bin(spec, grid)


def _reference_synthesis(q2, dt, cap, eps):
    """The rate synthesis stepped sample by sample with Heun's method on
    Python scalars.  The arc form in ``_synthesize_gamma_z`` must reproduce
    it to rounding."""
    n = q2.shape[0]
    q2l = q2.tolist()
    gz = [0.0] * n
    r = eps
    for k in range(n - 1):
        gzk = q2l[k] / r
        if gzk > cap:
            gzk = cap
        gz[k] = gzk
        f0 = 2.0 * math.sqrt(q2l[k] * gzk * r) - gzk * r
        rp = r + dt * f0
        gzp = q2l[k + 1] / rp
        if gzp > cap:
            gzp = cap
        f1 = 2.0 * math.sqrt(q2l[k + 1] * gzp * rp) - gzp * rp
        r = r + 0.5 * dt * (f0 + f1)
    gz[n - 1] = min(q2l[n - 1] / r, cap)
    return np.asarray(gz)


def rect_env(width: float = 10.0, dt: float = 0.005):
    n = int((width + 2.0) / dt) + 1
    grid = TimeGrid(-1.0, -1.0 + (n - 1) * dt, n)
    samples = np.where((grid.times >= 0.0) & (grid.times <= width), 1.0, 0.0)
    env = ComplexEnvelope(grid, samples)
    return env.with_samples(env.samples / math.sqrt(squared_norm(env)))


class TestOptimalWriteProfile:
    def test_narrowband_timebin_uncapped(self):
        w = optimal_write_profile(timebin_env(0.2), MEM)
        assert w.eta_w >= 0.999
        assert not w.capped
        assert w.profile.gamma_z.max() < MEM.cap

    def test_wideband_timebin_capped(self):
        w = optimal_write_profile(timebin_env(5.0), MEM)
        assert w.capped
        assert w.eta_w < 1.0
        assert w.profile.gamma_z.max() == MEM.cap

    def test_uncapped_matches_closed_form(self):
        # Below the cap the synthesized rate must equal
        # eta*|xi|^2 / ((1-eta) + eta*∫|xi|^2) with eta = 1 - 1e-9.
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        grid = env.grid
        i0, i1 = support_indices(env)
        q2 = np.abs(env.samples) ** 2
        eta = 1.0 - 1e-9
        C = cumtrapz(q2, grid) - cumtrapz(q2, grid)[i0]
        expected = eta * q2 / ((1.0 - eta) + eta * C)
        sel = slice(i0, i1 + 1)
        assert np.max(np.abs(w.profile.gamma_z[sel] - expected[sel])) < 1e-9

    def test_efficiency_identity_uncapped(self):
        w = optimal_write_profile(timebin_env(0.2), MEM)
        assert abs(w.eta_w - (1.0 - math.exp(-w.profile.Gamma_z[-1]))) <= 1e-6

    def test_rate_vanishes_outside_window(self):
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        i0, i1 = support_indices(env)
        assert np.all(w.profile.gamma_z[:i0] == 0.0)
        assert np.all(w.profile.gamma_z[i1 + 1 :] == 0.0)

    def test_endpoint_rate_value(self):
        # At the window end the running intensity integral is 1, so the
        # closed form reduces to eta*|xi(t_w0)|^2.
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        _, i1 = support_indices(env)
        q2_end = abs(env.samples[i1]) ** 2
        assert w.profile.gamma_z[i1] == pytest.approx(
            (1.0 - 1e-9) * q2_end, rel=1e-6
        )

    def test_result_invariants(self):
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        i1 = w.support[1]
        assert w.eta_w == w.trace.P[i1]
        assert w.capped == (w.profile.gamma_z.max() >= MEM.cap - 1e-12)
        assert 0.0 <= w.trace.P.max() <= 1.0

    def test_non_normalized_rejected(self):
        env = timebin_env(0.2)
        bad = env.with_samples(1.5 * env.samples)
        with pytest.raises(ValueError, match="normalized"):
            optimal_write_profile(bad, MEM)

    def test_eta_depends_only_on_intensity_with_compensation(self):
        env = timebin_env(0.2)
        rotated = env.with_samples(env.samples * np.exp(1.1j))
        a = optimal_write_profile(env, MEM)
        b = optimal_write_profile(rotated, MEM)
        assert a.eta_w == pytest.approx(b.eta_w, abs=1e-14)
        assert np.max(np.abs(a.profile.gamma_z - b.profile.gamma_z)) < 1e-12

    def test_compensation_off_costs_efficiency(self):
        env = timebin_env(0.2)
        on = optimal_write_profile(env, MEM, phase_compensation=True)
        off = optimal_write_profile(env, MEM, phase_compensation=False)
        assert off.eta_w < on.eta_w

    def test_monotone_in_bandwidth(self):
        etas = [
            optimal_write_profile(timebin_env(s), MEM).eta_w
            for s in (0.2, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(etas, etas[1:]))

    def test_capped_profile_is_local_maximum(self):
        # Random in-bounds perturbations of the capped program never gain
        # more than 1e-6 of absorbed population.
        env = timebin_env(5.0)
        w = optimal_write_profile(env, MEM)
        grid = env.grid
        i0, i1 = support_indices(env)
        q = np.abs(env.samples)

        def achieved(gz):
            G = cumtrapz(gz, grid)
            K = np.sqrt(gz) * np.exp(-0.5 * (G[i1] - G))
            return float(np.trapezoid((K * q)[: i1 + 1], dx=grid.dt)) ** 2

        base = achieved(w.profile.gamma_z)
        assert base == pytest.approx(w.eta_w, abs=1e-9)
        rng = np.random.default_rng(42)
        t = grid.times
        span = t[-1] - t[0]
        best_gain = -np.inf
        for _ in range(50):
            pert = np.zeros(grid.n)
            for k in range(1, 6):
                pert += rng.normal(0.0, 0.02) * np.cos(
                    2 * np.pi * k * (t - t[0]) / span + rng.uniform(0, 2 * np.pi)
                )
            pert = np.clip(pert, -0.05, 0.05)
            cand = np.clip(w.profile.gamma_z + pert, 0.0, MEM.cap)
            cand[:i0] = 0.0
            cand[i1 + 1 :] = 0.0
            best_gain = max(best_gain, achieved(cand) - base)
        assert best_gain <= 1e-6


EPS = (1.0 - ETA_TARGET) / ETA_TARGET


def support_q2(env):
    i0, i1 = support_indices(env)
    return np.abs(env.samples[i0 : i1 + 1]) ** 2


def capped_arcs(gz):
    capped = np.concatenate(([False], gz >= MEM.cap, [False]))
    return int(np.count_nonzero(np.diff(capped.astype(int)) == 1))


def separated_peaks(dt=0.002):
    # Four narrow pulses with quiet gaps, each twice as strong as the one
    # before, so each is too sharp for the cap even after the ones before.
    t = np.arange(0.0, 12.0 + dt / 2, dt)
    q2 = sum(
        2.0**j * np.exp(-2.0 * (5.0 * (t - c)) ** 2)
        for j, c in enumerate((1.5, 4.5, 7.5, 10.5))
    )
    return q2 / np.trapezoid(q2, dx=dt), dt


def rising_edge(dt=0.001):
    # Grows like exp(4t) to the last sample, faster than the cap can follow.
    t = np.arange(0.0, 5.0 + dt / 2, dt)
    q2 = np.exp(4.0 * (t - 5.0))
    return q2 / np.trapezoid(q2, dx=dt), dt


class TestSynthesisMatchesReferenceLoop:
    def assert_matches(self, q2, dt):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gz = _synthesize_gamma_z(q2, dt, MEM.cap, EPS)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        expected = _reference_synthesis(q2, dt, MEM.cap, EPS)
        assert gz.dtype == np.float64
        assert gz.shape == expected.shape
        assert np.all(np.abs(gz - expected) <= 1e-12 * expected)
        return expected

    def test_uncapped_timebin(self):
        env = timebin_env(0.2)
        gz = self.assert_matches(support_q2(env), env.grid.dt)
        assert capped_arcs(gz) == 0

    def test_capped_write_and_reversed_read(self):
        env = timebin_env(5.0)
        q2 = support_q2(env)
        for samples in (q2, q2[::-1]):
            gz = self.assert_matches(samples, env.grid.dt)
            assert capped_arcs(gz) >= 1

    @pytest.mark.parametrize("q2", [[0.3], [1.0], [0.3, 0.5], [1.0, 2.0]])
    def test_short_supports(self, q2):
        self.assert_matches(np.array(q2), 0.01)

    def test_separated_capped_arcs(self):
        gz = self.assert_matches(*separated_peaks())
        assert capped_arcs(gz) == 4

    def test_noisy_intensity(self):
        # Uniform noise on a wide pulse drops in and out of the cap many
        # times, so scalar steps and short trapezoid arcs alternate.
        dt = 0.001
        t = np.arange(0.0, 10.0 + dt / 2, dt)
        noise = np.random.default_rng(3).uniform(0.0, 2.0, t.size)
        q2 = np.exp(-0.5 * ((t - 5.0) / 2.0) ** 2) * noise
        gz = self.assert_matches(q2 / np.trapezoid(q2, dx=dt), dt)
        assert capped_arcs(gz) >= 100

    def test_last_sample_capped(self):
        gz = self.assert_matches(*rising_edge())
        assert gz[-1] == MEM.cap


def _reference_lab_quadrature(profile, xi_in):
    """P from the lab-frame closed form the compensated write replaced: the
    complex Gamma in two complex exponentials around one cumsum."""
    h = 0.5 * profile.grid.dt
    drive = profile.g * xi_in.samples
    integrand = np.exp(profile.Gamma) * drive
    running = np.zeros_like(integrand)
    np.cumsum(h * (integrand[1:] + integrand[:-1]), out=running[1:])
    amplitude = np.exp(-profile.Gamma) * running
    return np.abs(amplitude) ** 2


class TestCoRotatingWrite:
    """The compensated write runs the quadrature kernel on Gamma_z/2 and the
    real drive g*|xi|; its P is the lab-frame quadrature of xi_effective."""

    def assert_matches_lab_frame(self, w):
        assert w.trace.amplitude.dtype == np.float64
        P = _reference_lab_quadrature(w.profile, w.xi_effective)
        assert np.max(np.abs(w.trace.P - P)) <= 1e-14

    def test_default_write(self):
        self.assert_matches_lab_frame(optimal_write_profile(timebin_env(0.2), MEM))

    def test_capped_write(self):
        w = optimal_write_profile(timebin_env(5.0), MEM)
        assert w.capped
        self.assert_matches_lab_frame(w)

    def test_time_bin_with_relative_phase(self):
        env = timebin_env(0.2)
        spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=0.2, phi=2.7)
        self.assert_matches_lab_frame(
            optimal_write_profile(make_time_bin(spec, env.grid), MEM)
        )

    def test_long_storage_scan(self, monkeypatch):
        # No optimal write reaches Gamma_z(end) = 1200, so the program is
        # replaced by a fixed one that does (1280 here), which takes the
        # kernel's scan branch; exp(+Re Gamma) <= e^640 keeps the
        # reference finite.
        grid = TimeGrid(0.0, 800.0, 80001)
        t = grid.times
        profile = profile_from_gamma_z(grid, 1.6 + 0.3 * np.sin(t / 5.0), MEM)
        assert 1200.0 <= profile.Gamma_z[-1] < 1400.0
        env = ComplexEnvelope(grid, np.exp(-0.5 * ((t - 780.0) / 2.0) ** 2))
        env = env.with_samples(env.samples / math.sqrt(squared_norm(env)))
        monkeypatch.setattr(
            write_optimizer, "optimal_program",
            lambda env, q2, cfg: (profile, False, support_indices(env)),
        )
        self.assert_matches_lab_frame(optimal_write_profile(env, MEM))

    def test_uncompensated_write_is_lab_frame(self):
        w = optimal_write_profile(timebin_env(0.2), MEM, phase_compensation=False)
        assert w.xi_effective is w.xi_in
        assert np.array_equal(w.trace.P, _reference_lab_quadrature(w.profile, w.xi_in))


class TestWriteEfficiency:
    # A program admits at most 1 - exp(-Gamma_z(end)); an uncapped optimum
    # reaches it, a capped one stays below it.
    def test_matches_achieved_for_uncapped_optimum(self):
        w = optimal_write_profile(timebin_env(0.2), MEM)
        assert 1.0 - math.exp(-w.profile.Gamma_z[-1]) == pytest.approx(w.eta_w, abs=1e-6)

    def test_upper_bound_for_capped(self):
        w = optimal_write_profile(timebin_env(5.0), MEM)
        assert 1.0 - math.exp(-w.profile.Gamma_z[-1]) > w.eta_w


class TestOptimalInputForProfile:
    def test_roundtrip_recovers_input(self):
        # The matching condition (time reversal, Gorshkov et al., PRL 98,
        # 123601 (2007)): the input a program absorbs best has
        # |xi| ∝ g*exp(-(Gamma_z(end) - Gamma_z)/2), and for the uncapped
        # optimum that is the input the program was built for.
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        assert not w.capped
        p = w.profile
        mag = p.g * np.exp(-0.5 * (p.Gamma_z[-1] - p.Gamma_z))
        mag /= math.sqrt(float(np.trapezoid(mag**2, dx=env.grid.dt)))
        err = math.sqrt(
            float(np.trapezoid((mag - np.abs(env.samples)) ** 2, dx=env.grid.dt))
        )
        assert err <= 1e-4
