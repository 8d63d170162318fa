import math

import numpy as np
import pytest

from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz, squared_norm
from halfcav.dynamics import profile_from_gamma_z
from halfcav.pulses import TimeBinSpec, fidelity, make_time_bin, shift, support_indices
from halfcav.read_shaper import output_envelope, read_profile_for_target, total_efficiency
from halfcav.scenario import ScenarioConfig, build_store_run

MEM = MemoryConfig()
SQ2 = math.sqrt(0.5)


def shifted_timebin(sigma: float, T: float = 120.0):
    spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=sigma)
    pad = 8.0 / sigma
    dt = min(1.0, 1.0 / sigma) / 200.0
    n = int((20.0 + 2 * pad + T + 20.0) / dt) + 1
    grid = TimeGrid(-pad, -pad + (n - 1) * dt, n)
    env = make_time_bin(spec, grid)
    return shift(env, round(T / dt))


class TestReadProfileForTarget:
    def test_narrowband_shaping(self):
        target = shifted_timebin(0.2)
        r = read_profile_for_target(target, P0=0.999, cfg=MEM)
        assert r.eta_r >= 0.999
        assert r.fidelity_vs_target >= 0.999
        assert not r.capped
        # output intensity keeps the two equal humps of the target
        out_i = np.abs(r.xi_out.samples) ** 2
        tgt_i = np.abs(target.samples) ** 2
        ratio = out_i[tgt_i > 1e-6] / tgt_i[tgt_i > 1e-6]
        assert np.max(np.abs(ratio / ratio.mean() - 1.0)) < 1e-4

    def test_wideband_capped(self):
        target = shifted_timebin(5.0, T=40.0)
        r = read_profile_for_target(target, P0=0.9, cfg=MEM)
        assert r.capped
        assert r.eta_r < 1.0
        assert r.profile.gamma_z.max() == MEM.cap

    def test_uncapped_matches_closed_form(self):
        # Closed form eta*q2/(1 - eta*∫q2), written with the remaining-energy
        # integral anchored on the support window exactly as the rate
        # construction defines it (the two differ by the 1e-13 out-of-window
        # mass, which matters against the 1e-9 efficiency headroom).
        target = shifted_timebin(0.2)
        r = read_profile_for_target(target, P0=1.0, cfg=MEM)
        grid = target.grid
        q2 = np.abs(target.samples) ** 2 / squared_norm(target)
        i0, i1 = support_indices(target)
        eps = 1e-9 / (1.0 - 1e-9)
        C = cumtrapz(q2, grid)
        remaining = C[i1] - C
        expected = q2 / (eps + remaining)
        sel = slice(i0, i1 + 1)
        # Inside the eps-regularized trailing zone (remaining ~ 1e-9) the
        # comparison is limited by float summation order; check it in
        # relative terms there and absolutely elsewhere.
        clear = sel.start + np.nonzero(remaining[sel] > 1e-6)[0]
        assert np.max(np.abs(r.profile.gamma_z[clear] - expected[clear])) < 1e-9
        rel = np.abs(r.profile.gamma_z[sel] - expected[sel]) / np.maximum(
            expected[sel], 1e-12
        )
        assert np.max(rel) < 1e-5

    def test_emitted_energy_consistency(self):
        target = shifted_timebin(0.2)
        P0 = 0.87
        r = read_profile_for_target(target, P0=P0, cfg=MEM)
        emitted = float(np.trapezoid(np.abs(r.xi_out.samples) ** 2, dx=target.grid.dt))
        assert emitted == pytest.approx(r.eta_r * P0, abs=1e-6)

    def test_P0_validation(self):
        target = shifted_timebin(0.2)
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                read_profile_for_target(target, P0=bad, cfg=MEM)

    def test_zero_target_rejected(self):
        grid = TimeGrid(0.0, 10.0, 101)
        with pytest.raises(ValueError):
            read_profile_for_target(ComplexEnvelope(grid, np.zeros(101)), 0.5, MEM)


class TestOutputEnvelope:
    def test_closed_memory_emits_nothing(self):
        grid = TimeGrid(0.0, 10.0, 1001)
        prof = profile_from_gamma_z(grid, np.zeros(1001), MEM)
        out = output_envelope(prof, P0=1.0, cfg=MEM)
        assert np.all(out.samples == 0.0)

    def test_free_decay_envelope(self):
        # gamma_z = 2*gamma0, P0 = 1: |xi_out|^2 = 2*exp(-2t), integrating
        # to 1 - e^-2dt over the window.
        width = 5.0
        grid = TimeGrid(0.0, width, 4001)
        prof = profile_from_gamma_z(grid, np.full(grid.n, 2.0), MEM)
        out = output_envelope(prof, P0=1.0, cfg=MEM)
        intensity = np.abs(out.samples) ** 2
        expected = 2.0 * np.exp(-2.0 * grid.times)
        assert np.max(np.abs(intensity - expected)) < 1e-9
        assert float(np.trapezoid(intensity, dx=grid.dt)) == pytest.approx(
            1.0 - math.exp(-2.0 * width), abs=1e-6
        )

    def test_dechirp_preserves_intensity(self):
        grid = TimeGrid(0.0, 10.0, 2001)
        gz = 2.0 * 0.5 * (1 + np.tanh(np.sin(2 * np.pi * grid.times / 10.0)))
        prof = profile_from_gamma_z(grid, gz, MEM)
        raw = output_envelope(prof, P0=0.8, cfg=MEM, dechirp=False)
        flat = output_envelope(prof, P0=0.8, cfg=MEM, dechirp=True)
        assert np.max(np.abs(np.abs(raw.samples) - np.abs(flat.samples))) < 1e-14
        # the de-chirped envelope is i*|xi|: constant phase
        nz = np.abs(flat.samples) > 1e-12
        assert np.max(np.abs(flat.samples.imag[nz] - np.abs(flat.samples[nz]))) < 1e-14

    def test_P0_range(self):
        grid = TimeGrid(0.0, 1.0, 11)
        prof = profile_from_gamma_z(grid, np.zeros(11), MEM)
        with pytest.raises(ValueError):
            output_envelope(prof, P0=1.5, cfg=MEM)


class TestReadEfficiency:
    def test_matches_emitted_fraction(self):
        # A read program releases the fraction 1 - exp(-Gamma_z_r(end)).
        target = shifted_timebin(0.2)
        r = read_profile_for_target(target, P0=0.95, cfg=MEM)
        emitted = float(np.trapezoid(np.abs(r.xi_out.samples) ** 2, dx=target.grid.dt)) / 0.95
        assert 1.0 - math.exp(-r.profile.Gamma_z[-1]) == pytest.approx(emitted, abs=1e-6)


class TestTotalEfficiency:
    def test_product(self):
        run = build_store_run(ScenarioConfig.from_dict({}))
        assert run.eta == run.write.eta_w * run.read.eta_r

    def test_inconsistent_P0_rejected(self):
        run = build_store_run(ScenarioConfig.from_dict({}))
        target = shift(run.xi_in, run.read_offset)
        stale = read_profile_for_target(target, P0=0.5, cfg=MEM)
        with pytest.raises(ValueError):
            total_efficiency(run.write, stale)


class TestEndToEndProperties:
    def test_probability_conservation_during_read(self):
        run = build_store_run(ScenarioConfig.from_dict({}))
        # The read runs on the phase grid, read_offset samples later on the timeline.
        g0 = run.read.profile.grid
        i_r0 = run.write.support[0]  # the read target is the input itself
        P = run.trace_total[run.read_offset : run.read_offset + g0.n]
        emitted = cumtrapz(np.abs(run.read.xi_out.samples) ** 2, g0)[: P.size]
        resid = P[i_r0] - P[i_r0:] - (emitted[i_r0:] - emitted[i_r0])
        assert np.max(np.abs(resid)) <= 1e-6

    def test_output_matches_scaled_shifted_input(self):
        run = build_store_run(ScenarioConfig.from_dict({}))
        out = run.xi_out.samples
        want = math.sqrt(run.eta) * shift(run.xi_in, run.read_offset).samples
        phase = np.vdot(want, out)
        phase /= abs(phase)
        err = math.sqrt(float(np.trapezoid(np.abs(out - phase * want) ** 2, dx=run.grid.dt)))
        assert err <= 1e-4
        assert run.fidelity >= 1.0 - 1e-6

    def test_symmetric_pulse_time_reversal(self):
        cfg = ScenarioConfig.from_dict(
            {"pulse": {"alpha": 1.0, "beta": 0.0, "t1": 0.0, "t2": 1.0, "sigma": 0.2}}
        )
        run = build_store_run(cfg)
        g0 = run.write.profile.grid  # the read's phase grid too
        i0, i1 = run.write.support
        j0 = np.flatnonzero(run.read.profile.gamma_z)[0]  # where the read starts
        wseg = run.write.profile.gamma_z[i0 : i1 + 1]
        rseg = run.read.profile.gamma_z[j0 : j0 + wseg.size]
        assert np.max(np.abs(wseg - rseg[::-1])) <= 1e-6

    def test_chirped_output_exposed_without_compensation(self):
        run = build_store_run(ScenarioConfig.from_dict({"phase_compensation": False}))
        out = run.read.xi_out.samples
        nz = np.abs(out) > 1e-3 * np.abs(out).max()
        phases = np.unwrap(np.angle(out[nz]))
        assert phases.max() - phases.min() > 1.0  # level-shift chirp visible
