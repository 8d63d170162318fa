import math

import numpy as np
import pytest

from halfcav.core import ComplexEnvelope, TimeGrid, squared_norm
from halfcav.pulses import TimeBinSpec, fidelity, make_time_bin, shift

SQ2 = math.sqrt(0.5)


def grid_for(spec: TimeBinSpec, pad: float = 8.0, per_unit: int = 50) -> TimeGrid:
    lo = spec.t1 - pad / spec.sigma
    hi = spec.t2 + pad / spec.sigma
    n = int((hi - lo) * per_unit / min(1.0, 1.0 / spec.sigma)) + 1
    return TimeGrid(lo, hi, n)


class TestTimeBinSpec:
    def test_amplitude_constraint(self):
        with pytest.raises(ValueError):
            TimeBinSpec(alpha=0.9, beta=0.9, t1=0.0, t2=1.0, sigma=1.0)

    def test_ordering_and_bandwidth(self):
        with pytest.raises(ValueError):
            TimeBinSpec(alpha=1.0, beta=0.0, t1=1.0, t2=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            TimeBinSpec(alpha=1.0, beta=0.0, t1=0.0, t2=1.0, sigma=-1.0)


class TestMakeTimeBin:
    def test_single_gaussian_limit(self):
        spec = TimeBinSpec(alpha=1.0, beta=0.0, t1=0.0, t2=10.0, sigma=0.2)
        grid = grid_for(spec)
        env = make_time_bin(spec, grid)
        gauss = np.exp(-0.5 * ((grid.times - spec.t1) * spec.sigma) ** 2)
        gauss = gauss / math.sqrt(
            squared_norm(ComplexEnvelope(grid, gauss))
        )
        assert np.max(np.abs(env.samples - gauss)) < 1e-12
        assert squared_norm(env) == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(np.abs(env.samples)) == round((spec.t1 - grid.t_start) / grid.dt)

    def test_two_equal_intensity_humps(self):
        spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=0.2)
        env = make_time_bin(spec, grid_for(spec))
        grid = env.grid
        intensity = np.abs(env.samples) ** 2
        i1, i2, mid = (round((t - grid.t_start) / grid.dt) for t in (spec.t1, spec.t2, 10.0))
        assert intensity[i1] == pytest.approx(intensity[i2], rel=1e-9)
        assert intensity[mid] < 0.1 * intensity[i1]
        assert squared_norm(env) == pytest.approx(1.0, abs=1e-9)

    def test_opposite_phase_bins(self):
        far = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=60.0, sigma=0.2, phi=math.pi)
        env = make_time_bin(far, grid_for(far))
        assert squared_norm(env) == pytest.approx(1.0, abs=1e-9)
        ref = make_time_bin(
            TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=60.0, sigma=0.2, phi=0.0),
            env.grid,
        )
        # amplitude overlap alpha^2 + beta^2 e^{i pi} = 0 for alpha = beta
        assert fidelity(env, ref) == pytest.approx(0.0, abs=1e-9)

    def test_grid_too_narrow_reports_window(self):
        spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=0.2)
        with pytest.raises(ValueError, match=r"need at least \[-30"):
            make_time_bin(spec, TimeGrid(-10.0, 30.0, 2001))

    def test_overlap_correction_negligible_when_separated(self):
        # With bins at >= 10/sigma apart the naive per-bin constant and the
        # overlap-corrected normalization agree to 1e-10.
        spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=55.0, sigma=0.2)
        env = make_time_bin(spec, grid_for(spec))
        naive = (spec.sigma**2 / math.pi) ** 0.25 * (
            spec.alpha * np.exp(-0.5 * ((env.grid.times - spec.t1) * spec.sigma) ** 2)
            + spec.beta * np.exp(-0.5 * ((env.grid.times - spec.t2) * spec.sigma) ** 2)
        )
        assert np.max(np.abs(env.samples - naive)) < 1e-10


class TestFidelity:
    def setup_method(self):
        self.spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=0.2)
        self.env = make_time_bin(self.spec, grid_for(self.spec))

    def test_scaled_copy(self):
        scaled = self.env.with_samples((0.3 - 1.7j) * self.env.samples)
        assert fidelity(self.env, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        a = TimeBinSpec(alpha=1.0, beta=0.0, t1=0.0, t2=1.0, sigma=0.5)
        grid = TimeGrid(-20.0, 120.0, 14001)
        env_a = make_time_bin(a, grid)
        env_b = shift(env_a, 10_000)  # 100 time units at dt = 0.01
        assert fidelity(env_a, env_b) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        other = shift(self.env, 150)
        assert fidelity(self.env, other) == pytest.approx(
            fidelity(other, self.env), abs=1e-14
        )

    def test_grid_mismatch(self):
        other = make_time_bin(self.spec, grid_for(self.spec, pad=9.0))
        with pytest.raises(ValueError):
            fidelity(self.env, other)

    def test_zero_norm_rejected(self):
        zero = self.env.with_samples(np.zeros(self.env.grid.n))
        with pytest.raises(ValueError):
            fidelity(self.env, zero)

    def test_phase_and_scale_invariance(self):
        other = shift(self.env, 250)
        base = fidelity(self.env, other)
        rotated = other.with_samples(other.samples * 2.5 * np.exp(0.7j))
        assert fidelity(self.env, rotated) == pytest.approx(base, rel=1e-12)


class TestShift:
    def setup_method(self):
        self.spec = TimeBinSpec(alpha=SQ2, beta=SQ2, t1=0.0, t2=20.0, sigma=0.2)
        self.env = make_time_bin(self.spec, grid_for(self.spec))

    def test_zero_shift_identity(self):
        out = shift(self.env, 0)
        assert np.array_equal(out.samples, self.env.samples)

    def test_roundtrip(self):
        k = 365
        out = shift(shift(self.env, k), -k)
        n = self.env.grid.n
        assert np.array_equal(out.samples[: n - k], self.env.samples[: n - k])
        err = math.sqrt(
            float(
                np.trapezoid(
                    np.abs(out.samples - self.env.samples) ** 2, dx=self.env.grid.dt
                )
            )
        )
        assert err < 1e-6

    def test_norm_preserved(self):
        for k in (200, -200):
            out = shift(self.env, k)
            assert squared_norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_grid_step_shift_is_exact(self):
        k = 5
        later = shift(self.env, k)
        assert np.array_equal(later.samples[k:], self.env.samples[:-k])
        assert not later.samples[:k].any()
        earlier = shift(self.env, -k)
        assert np.array_equal(earlier.samples[:-k], self.env.samples[k:])
        assert not earlier.samples[-k:].any()

    def test_clipping_rejected(self):
        for k in (2750, -2750):
            with pytest.raises(ValueError):
                shift(self.env, k)
