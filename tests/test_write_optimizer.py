import math

import numpy as np
import pytest

from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz, squared_norm
from halfcav.dynamics import profile_from_gamma_z
from halfcav.pulses import TimeBinSpec, make_time_bin, support_indices
from halfcav.write_optimizer import (
    optimal_input_for_profile,
    optimal_write_profile,
    write_efficiency,
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
        i1 = env.grid.index_of(w.t_w0)
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


class TestWriteEfficiency:
    def test_zero_rate(self):
        grid = TimeGrid(0.0, 10.0, 1001)
        prof = profile_from_gamma_z(grid, np.zeros(1001), MEM)
        assert write_efficiency(prof) == 0.0

    def test_full_rate_window(self):
        grid = TimeGrid(0.0, 10.0, 1001)
        prof = profile_from_gamma_z(grid, np.full(1001, 2.0), MEM)
        assert write_efficiency(prof) == pytest.approx(1.0 - math.exp(-20.0), abs=1e-12)

    def test_matches_achieved_for_uncapped_optimum(self):
        w = optimal_write_profile(timebin_env(0.2), MEM)
        assert write_efficiency(w.profile) == pytest.approx(w.eta_w, abs=1e-6)

    def test_upper_bound_for_capped(self):
        w = optimal_write_profile(timebin_env(5.0), MEM)
        assert write_efficiency(w.profile) > w.eta_w


class TestOptimalInputForProfile:
    def test_constant_rate_gives_rising_exponential(self):
        grid = TimeGrid(0.0, 10.0, 2001)
        prof = profile_from_gamma_z(grid, np.full(2001, 2.0), MEM)
        eta = 1.0 - math.exp(-prof.Gamma_z[-1])
        env = optimal_input_for_profile(prof, eta)
        mag = np.abs(env.samples)
        # |xi| ∝ exp(gamma0 * t): constant logarithmic slope of 1
        slope = np.diff(np.log(mag)) / grid.dt
        assert np.max(np.abs(slope - MEM.gamma0)) < 1e-6
        assert squared_norm(env) == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_recovers_input(self):
        env = timebin_env(0.2)
        w = optimal_write_profile(env, MEM)
        assert not w.capped
        rec = optimal_input_for_profile(w.profile, w.eta_w)
        err = math.sqrt(
            float(
                np.trapezoid(
                    (np.abs(rec.samples) - np.abs(env.samples)) ** 2,
                    dx=env.grid.dt,
                )
            )
        )
        assert err <= 1e-4

    def test_zero_profile_rejected(self):
        grid = TimeGrid(0.0, 10.0, 101)
        prof = profile_from_gamma_z(grid, np.zeros(101), MEM)
        with pytest.raises(ValueError):
            optimal_input_for_profile(prof, 0.5)

    def test_unattainable_efficiency_rejected(self):
        grid = TimeGrid(0.0, 2.0, 201)
        prof = profile_from_gamma_z(grid, np.full(201, 1.0), MEM)
        eta_max = 1.0 - math.exp(-2.0)
        with pytest.raises(ValueError):
            optimal_input_for_profile(prof, eta_max + 0.01)
        with pytest.raises(ValueError):
            optimal_input_for_profile(prof, 0.0)
