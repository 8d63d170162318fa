import math

import numpy as np
import pytest

from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz, squared_norm
from halfcav.dynamics import (
    absorption_probability,
    bloch_ode_oracle,
    decay_from_mirror,
    profile_from_gamma_z,
)
from halfcav.mirror import MirrorTrajectory
from halfcav.pulses import TimeBinSpec, make_time_bin
from halfcav.write_optimizer import optimal_write_profile

MEM = MemoryConfig()


def smooth_rate(grid: TimeGrid, seed: int) -> np.ndarray:
    """Band-limited random rate strictly inside (0, 2*gamma0)."""
    rng = np.random.default_rng(seed)
    t = grid.times
    span = grid.t_end - grid.t_start
    series = rng.normal(0.0, 0.5)
    for k in range(1, 6):
        series = series + rng.normal(0.0, 0.6) * np.cos(
            2 * np.pi * k * (t - grid.t_start) / span + rng.uniform(0, 2 * np.pi)
        )
    return MEM.cap * 0.5 * (1.0 + np.tanh(series))


def smooth_pulse(grid: TimeGrid, seed: int) -> ComplexEnvelope:
    rng = np.random.default_rng(seed)
    t = grid.times
    span = grid.t_end - grid.t_start
    center = grid.t_start + rng.uniform(0.35, 0.65) * span
    width = rng.uniform(0.06, 0.12) * span
    phase = rng.normal(0, 0.4) * np.cos(2 * np.pi * (t - grid.t_start) / span)
    env = ComplexEnvelope(
        grid, np.exp(-0.5 * ((t - center) / width) ** 2) * np.exp(1j * phase)
    )
    return env.with_samples(env.samples / math.sqrt(squared_norm(env)))


class TestDecayFromMirror:
    def test_node(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(MirrorTrajectory(grid, np.zeros(101)), MEM)
        assert np.all(prof.gamma_z == 0.0)
        assert np.all(prof.gamma_complex == 0.0)

    def test_antinode(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(MirrorTrajectory(grid, np.full(101, 0.25)), MEM)
        assert prof.gamma_z == pytest.approx(2.0 * MEM.gamma0, abs=1e-12)

    def test_eighth_wave(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(MirrorTrajectory(grid, np.full(101, 0.125)), MEM)
        assert prof.gamma_z == pytest.approx(MEM.gamma0, abs=1e-12)
        assert prof.gamma_complex.imag == pytest.approx(-0.5 * MEM.gamma0, abs=1e-12)

    def test_environment_decay_offset(self):
        cfg = MemoryConfig(gamma_prime=0.25)
        grid = TimeGrid(0.0, 1.0, 11)
        prof = decay_from_mirror(MirrorTrajectory(grid, np.zeros(11)), cfg)
        assert prof.gamma_z == pytest.approx(0.25, abs=1e-14)
        assert prof.gamma_complex.real == pytest.approx(0.125, abs=1e-14)


class TestProfileFromGammaZ:
    def test_fields_consistent(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        gz = smooth_rate(grid, 5)
        prof = profile_from_gamma_z(grid, gz, MEM)
        assert np.max(np.abs(prof.gamma_z - 2.0 * prof.gamma_complex.real)) < 1e-12
        assert np.max(np.abs(prof.g**2 - prof.gamma_z)) < 1e-12
        assert np.all(np.diff(prof.Gamma_z) >= 0.0)
        assert np.all(prof.gamma_complex.imag <= 1e-15)
        assert np.max(np.abs(prof.Gamma_z - cumtrapz(gz, grid))) == 0.0

    def test_out_of_range_rejected(self):
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            profile_from_gamma_z(grid, np.full(11, 2.1), MEM)
        with pytest.raises(ValueError):
            profile_from_gamma_z(grid, np.full(11, -0.1), MEM)


class TestAbsorptionProbability:
    def test_no_drive(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 1), MEM)
        trace = absorption_probability(prof, ComplexEnvelope(grid, np.zeros(2001)))
        assert np.all(trace.P == 0.0)

    def test_rising_exponential_full_absorption(self):
        # Constant gamma_z = 2*gamma0 with the time-reversed decay envelope
        # xi = sqrt(2)*exp(t - t0) absorbs completely: a 10/gamma0 window
        # captures P(t0) = 1 - e^-20 up to quadrature error.
        t0 = 0.0
        grid = TimeGrid(-10.0, 0.0, 16001)
        xi = ComplexEnvelope(grid, math.sqrt(2.0) * np.exp(grid.times - t0))
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        trace = absorption_probability(prof, xi)
        assert trace.P[-1] == pytest.approx(1.0 - math.exp(-20.0), abs=1e-6)

    def test_optimal_narrowband_absorption(self):
        spec = TimeBinSpec(
            alpha=math.sqrt(0.5), beta=math.sqrt(0.5), t1=0.0, t2=20.0, sigma=0.2
        )
        grid = TimeGrid(-40.0, 60.0, 20001)
        xi = make_time_bin(spec, grid)
        w = optimal_write_profile(xi, MEM)
        assert w.trace.P[grid.index_of(w.t_w0)] >= 0.999

    def test_amplitude_squared_is_P(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 2), MEM)
        trace = absorption_probability(prof, smooth_pulse(grid, 3))
        assert np.max(np.abs(trace.P - np.abs(trace.amplitude) ** 2)) < 1e-10

    def test_grid_mismatch(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        other = TimeGrid(0.0, 20.0, 2002)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 2), MEM)
        with pytest.raises(ValueError):
            absorption_probability(prof, ComplexEnvelope(other, np.zeros(2002)))

    def test_long_storage_overflow_safe(self):
        # Accumulated decay far past exp-overflow territory: the factored
        # stepping must stay finite and match the closed-form free decay.
        grid = TimeGrid(0.0, 1400.0, 70001)
        gz = np.full(grid.n, 2.0)
        prof = profile_from_gamma_z(grid, gz, MEM)
        assert prof.Gamma_z[-1] > 2000.0
        xi = ComplexEnvelope(
            grid, math.sqrt(2.0) * np.exp(np.minimum(grid.times - 5.0, 0.0)) * (grid.times <= 5.0)
        )
        trace = absorption_probability(prof, xi)
        assert np.all(np.isfinite(trace.P))
        i6 = grid.index_of(6.0)
        i9 = grid.index_of(9.0)
        # free decay over 3/gamma0 at rate 2*gamma0, clear of the drive edge
        assert trace.P[i9] / trace.P[i6] == pytest.approx(math.exp(-6.0), rel=1e-6)
        assert trace.P[-1] == 0.0  # underflow to exact zero, not overflow


class TestBlochOdeOracle:
    def test_no_drive_stays_ground(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 4), MEM)
        trace = bloch_ode_oracle(prof, ComplexEnvelope(grid, np.zeros(2001)))
        assert np.max(trace.P) == 0.0

    def test_population_frozen_at_node(self):
        # Excite with a pulse, then move to the node: P stays put.  The
        # coupling switch is steep but smooth so the fixed-step integrator
        # stays resolved.
        grid = TimeGrid(-10.0, 10.0, 16001)
        gz = 2.0 * 0.5 * (1.0 - np.tanh((grid.times - 0.5) / 0.1))
        prof = profile_from_gamma_z(grid, gz, MEM)
        xi = ComplexEnvelope(
            grid, math.sqrt(2.0) * np.exp(grid.times) * (grid.times <= 0.0)
        )
        trace = bloch_ode_oracle(prof, xi)
        i0 = grid.index_of(2.0)
        p_stored = trace.P[i0]
        assert p_stored > 0.3
        assert np.max(np.abs(trace.P[i0:] - p_stored)) < 1e-9

    @pytest.mark.parametrize("seed", [101, 202, 303, 404])
    def test_agrees_with_quadrature(self, seed):
        grid = TimeGrid(0.0, 20.0, 16001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, seed), MEM)
        xi = smooth_pulse(grid, seed + 1)
        quad = absorption_probability(prof, xi)
        ode = bloch_ode_oracle(prof, xi)
        assert np.max(np.abs(quad.P - ode.P)) <= 1e-6

    def test_agreement_with_environment_decay(self):
        cfg = MemoryConfig(gamma_prime=0.2)
        grid = TimeGrid(0.0, 20.0, 16001)
        rng = np.random.default_rng(17)
        t = grid.times
        gz = cfg.gamma_prime + cfg.gamma_p * (
            1.0 - np.cos(np.pi * 0.5 * (1 + np.tanh(np.sin(2 * np.pi * t / 20.0))))
        )
        prof = profile_from_gamma_z(grid, gz, cfg)
        xi = smooth_pulse(grid, 18)
        quad = absorption_probability(prof, xi)
        ode = bloch_ode_oracle(prof, xi)
        assert np.max(np.abs(quad.P - ode.P)) <= 1e-6

    def test_instability_reported_on_coarse_grid(self):
        grid = TimeGrid(0.0, 20.0, 8)
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        xi = ComplexEnvelope(grid, np.full(grid.n, 2.0))
        with pytest.raises(RuntimeError, match="grid"):
            bloch_ode_oracle(prof, xi)


class TestTraceProperties:
    def test_global_phase_leaves_P_unchanged(self):
        grid = TimeGrid(0.0, 20.0, 4001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 7), MEM)
        xi = smooth_pulse(grid, 8)
        base = absorption_probability(prof, xi)
        rot = absorption_probability(
            prof, xi.with_samples(xi.samples * np.exp(0.934j))
        )
        assert np.max(np.abs(base.P - rot.P)) < 1e-14
        assert np.max(np.abs(rot.amplitude - base.amplitude * np.exp(0.934j))) < 1e-12

    def test_monotone_decay_without_drive(self):
        # After the pulse is gone the stored population can only leak out;
        # with the coupling off it stays constant.
        grid = TimeGrid(-10.0, 20.0, 12001)
        t = grid.times
        gz = np.where(t <= 0.0, 2.0, np.where(t < 10.0, 0.0, 0.7))
        prof = profile_from_gamma_z(grid, gz, MEM)
        xi = ComplexEnvelope(grid, math.sqrt(2.0) * np.exp(t) * (t <= 0.0))
        trace = absorption_probability(prof, xi)
        i0 = grid.index_of(0.5)
        i1 = grid.index_of(9.5)
        assert np.all(np.diff(trace.P[i0:]) <= 1e-12)
        assert np.max(np.abs(trace.P[i0:i1] - trace.P[i0])) < 1e-12

    def test_quadrature_order_two_both_routes(self):
        # Halving dt shrinks both population errors by about 4x.
        def traces(n):
            grid = TimeGrid(0.0, 20.0, n)
            t = grid.times
            gz = MEM.cap * 0.5 * (
                1 + np.tanh(0.8 * np.sin(2 * np.pi * t / 20) + 0.5 * np.cos(4 * np.pi * t / 20))
            )
            prof = profile_from_gamma_z(grid, gz, MEM)
            env = ComplexEnvelope(grid, np.exp(-0.5 * ((t - 8.0) / 2.0) ** 2))
            env = env.with_samples(env.samples / math.sqrt(squared_norm(env)))
            return (
                absorption_probability(prof, env).P[-1],
                bloch_ode_oracle(prof, env).P[-1],
            )

        ref_q, ref_o = traces(32001)
        errs = [
            (abs(q - ref_q), abs(o - ref_o))
            for q, o in (traces(1001), traces(2001), traces(4001))
        ]
        for (eq1, eo1), (eq2, eo2) in zip(errs, errs[1:]):
            assert eq1 / eq2 == pytest.approx(4.0, rel=0.25)
            assert eo1 / eo2 == pytest.approx(4.0, rel=0.25)
