import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz
from halfcav.dynamics import (
    _rk4_step_map,
    absorption_probability,
    bloch_ode_oracle,
    decay_from_mirror,
    profile_from_gamma_z,
)
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
    return env.with_samples(env.samples / math.sqrt(env.norm))


def _reference_long_storage(profile, xi_in):
    """The per-sample loop that stepped absorption_probability's trapezoid
    sum past Gamma_z(end) = 1200; the scan there must reproduce it."""
    dt = profile.grid.dt
    drive = profile.g * xi_in.samples
    decay = np.exp(-(profile.Gamma[1:] - profile.Gamma[:-1]))
    amplitude = np.empty(profile.grid.n, dtype=np.complex128)
    amplitude[0] = 0.0
    acc = 0.0 + 0.0j
    for k in range(profile.grid.n - 1):
        acc = decay[k] * (acc + 0.5 * dt * drive[k]) + 0.5 * dt * drive[k + 1]
        amplitude[k + 1] = acc
    return amplitude


def _reference_oracle(profile, xi_in):
    """The RK4 oracle stepped sample by sample on Python scalars: the three
    components of the state, each RK4 stage written out.  The scan form in
    ``bloch_ode_oracle`` must reproduce it to rounding."""
    n = profile.grid.n
    dt = profile.grid.dt
    drv_arr = profile.g * xi_in.samples
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
            raise RuntimeError("population left [0,1]; refine dt")
        P[k + 1] = 0.5 * (1.0 + s1.real)
        amplitude[k + 1] = -s3
    return P, amplitude


class TestDecayFromMirror:
    def test_node(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(grid, np.zeros(101), MEM)
        assert np.all(prof.gamma_z == 0.0)
        assert np.all(prof.gamma_complex == 0.0)

    def test_antinode(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(grid, np.full(101, 0.25), MEM)
        assert prof.gamma_z == pytest.approx(2.0 * MEM.gamma0, abs=1e-12)

    def test_eighth_wave(self):
        grid = TimeGrid(0.0, 1.0, 101)
        prof = decay_from_mirror(grid, np.full(101, 0.125), MEM)
        assert prof.gamma_z == pytest.approx(MEM.gamma0, abs=1e-12)
        assert prof.gamma_complex.imag == pytest.approx(-0.5 * MEM.gamma0, abs=1e-12)


    def test_keeps_its_complex_rate_as_given(self):
        # Past l = lambda/4 the mirror leaves the principal branch and the
        # level shift turns positive: the rate is kept as the mirror gives
        # it, never rebuilt from gamma_z.
        grid = TimeGrid(0.0, 1.0, 101)
        l = np.linspace(0.0, 0.5, 101)
        prof = decay_from_mirror(grid, l, MEM)
        half_phi = 2.0 * np.pi * l
        gamma = -1j * MEM.gamma0 * np.sin(half_phi) * np.exp(1j * half_phi)
        assert np.array_equal(prof.gamma_complex.view(np.int64), gamma.view(np.int64))
        assert np.array_equal(prof.gamma_z.view(np.int64), (2.0 * gamma.real).view(np.int64))
        assert prof.gamma_complex.imag.max() > 0.4


@st.composite
def physical_rates(draw):
    """(gamma0, rates in [0, 2*gamma0]), with exact 0 and the cap drawn often."""
    gamma0 = draw(st.sampled_from([0.5, 1.0, 3.0]))
    cap = 2.0 * gamma0
    rate = st.one_of(st.just(0.0), st.just(cap), st.floats(0.0, cap))
    return gamma0, np.array(draw(st.lists(rate, min_size=2, max_size=40)))


class TestProfileFromGammaZ:
    @settings(max_examples=200, deadline=None)
    @given(physical_rates())
    def test_complex_rate_is_the_closed_form_bit_for_bit(self, case):
        # The lazily derived complex rate has the bits of the closed form
        # gamma_z/2 - i*sqrt(gamma_z)*sqrt(2*gamma0 - gamma_z)/2 built as one
        # complex expression, signed zeros included, and gamma_z = 2*Re(gamma)
        # exactly.
        gamma0, rates = case
        cfg = MemoryConfig(gamma0)
        prof = profile_from_gamma_z(TimeGrid(0.0, 1.0, rates.size), rates, cfg)
        # The rate the profile keeps: halving drops a subnormal's last bit.
        gz = 2.0 * (0.5 * np.clip(rates, 0.0, cfg.cap))
        closed_form = 0.5 * gz - 0.5j * (np.sqrt(gz) * np.sqrt(cfg.cap - gz))
        assert np.array_equal(prof.gamma_complex.view(np.int64), closed_form.view(np.int64))
        assert np.array_equal(prof.gamma_z.view(np.int64),
                              (2.0 * closed_form.real).view(np.int64))

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
        assert w.trace.P[w.support[1]] >= 0.999

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
        i6, i9 = round(6.0 / grid.dt), round(9.0 / grid.dt)
        # free decay over 3/gamma0 at rate 2*gamma0, clear of the drive edge
        assert trace.P[i9] / trace.P[i6] == pytest.approx(math.exp(-6.0), rel=1e-6)
        assert trace.P[-1] == 0.0  # underflow to exact zero, not overflow
        assert np.max(np.abs(trace.amplitude - _reference_long_storage(prof, xi))) <= 1e-12

    @pytest.mark.parametrize("seed", [21, 22])
    def test_long_storage_scan_matches_loop(self, seed):
        # A random rate over 3000/gamma0: Gamma_z(end) is past the 1200
        # switch, and the level shift varies along the grid.
        grid = TimeGrid(0.0, 3000.0, 150001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, seed), MEM)
        assert prof.Gamma_z[-1] >= 1200.0
        xi = smooth_pulse(grid, seed + 1)
        ref = _reference_long_storage(prof, xi)
        amplitude = absorption_probability(prof, xi).amplitude
        assert np.max(np.abs(amplitude - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_long_storage_too_coarse_rejected(self):
        # dt = 3 at gamma_z = 2: each step decays the amplitude by e^-3, and
        # a 256-step block of the scan would underflow.  The loop stays
        # finite there; the scan refuses the grid rather than return nan.
        grid = TimeGrid(0.0, 3000.0, 1001)
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        xi = smooth_pulse(grid, 5)
        assert np.all(np.isfinite(_reference_long_storage(prof, xi)))
        with pytest.raises(ValueError, match="too coarse"):
            absorption_probability(prof, xi)


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
        i0 = round((2.0 - grid.t_start) / grid.dt)
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

    def test_instability_reported_on_coarse_grid(self):
        grid = TimeGrid(0.0, 20.0, 8)
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        xi = ComplexEnvelope(grid, np.full(grid.n, 2.0))
        with pytest.raises(RuntimeError, match="grid"):
            bloch_ode_oracle(prof, xi)


class TestOracleMatchesReferenceLoop:
    @staticmethod
    def assert_matches(prof, xi):
        P, amplitude = _reference_oracle(prof, xi)
        trace = bloch_ode_oracle(prof, xi)
        assert np.max(np.abs(trace.P - P)) <= 1e-12
        assert np.max(np.abs(trace.amplitude - amplitude)) <= 1e-12

    @pytest.mark.parametrize("seed", [11, 12])
    def test_random_case(self, seed):
        grid = TimeGrid(0.0, 20.0, 2001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, seed), MEM)
        self.assert_matches(prof, smooth_pulse(grid, seed + 50))

    def test_write_phase(self):
        spec = TimeBinSpec(
            alpha=math.sqrt(0.5), beta=math.sqrt(0.5), t1=0.0, t2=20.0, sigma=0.2
        )
        grid = TimeGrid(-40.0, 60.0, 4001)
        w = optimal_write_profile(make_time_bin(spec, grid), MEM)
        assert w.trace.P.max() > 0.99
        self.assert_matches(w.profile, w.xi_effective)

    def test_lab_frame_write_above_elision_size(self):
        # The default write-phase grid, 20,001 samples: numpy reuses
        # temporaries of 16,384 complex samples and more in place, which
        # the cases above stay below.
        spec = TimeBinSpec(
            alpha=math.sqrt(0.5), beta=math.sqrt(0.5), t1=0.0, t2=20.0, sigma=0.2
        )
        grid = TimeGrid(-40.0, 60.0, 20001)
        w = optimal_write_profile(make_time_bin(spec, grid), MEM, phase_compensation=False)
        # The uncompensated level shift detunes the write: it absorbs 0.16.
        assert w.trace.P.max() > 0.1
        self.assert_matches(w.profile, w.xi_effective)

    def test_overflowing_scan_raises_without_warning(self):
        # dt = 5 at gamma_z = 2: every RK4 step amplifies, and a block of
        # steps overflows before the population check sees it.
        grid = TimeGrid(0.0, 2000.0, 401)
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        xi = ComplexEnvelope(grid, np.full(grid.n, 0.01))
        with pytest.raises(RuntimeError):
            _reference_oracle(prof, xi)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="grid"):
                bloch_ode_oracle(prof, xi)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestKernelsOnlyReadTheirArguments:
    @staticmethod
    def assert_unchanged(arrays, call):
        before = [x.tobytes() for x in arrays]
        call()
        assert [x.tobytes() for x in arrays] == before

    def test_step_map(self):
        rng = np.random.default_rng(5)
        rate = [rng.uniform(0.0, 2.0, 300) - 1j * rng.uniform(0.0, 1.0, 300) for _ in range(3)]
        source = [rng.normal(size=300) + 1j * rng.normal(size=300) for _ in range(4)]
        self.assert_unchanged(rate + source, lambda: _rk4_step_map(rate, source, 0.01))

    def test_oracle(self):
        grid = TimeGrid(0.0, 20.0, 2001)
        prof = profile_from_gamma_z(grid, smooth_rate(grid, 9), MEM)
        xi = smooth_pulse(grid, 10)
        arrays = [prof.gamma_complex, prof.gamma_z, prof.g, xi.samples]
        self.assert_unchanged(arrays, lambda: bloch_ode_oracle(prof, xi))


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
        i0, i1 = (round((x - grid.t_start) / grid.dt) for x in (0.5, 9.5))
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
            env = env.with_samples(env.samples / math.sqrt(env.norm))
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
