import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from halfcav.core import (
    ComplexEnvelope,
    MemoryConfig,
    TimeGrid,
    affine_scan,
    cumtrapz,
)


class TestMemoryConfig:
    def test_defaults(self):
        cfg = MemoryConfig()
        assert cfg.gamma0 == 1.0
        assert cfg.cap == 2.0


class TestTimeGrid:
    def test_spacing(self):
        g = TimeGrid(0.0, 1.0, 101)
        assert g.dt == pytest.approx(0.01)
        assert g.times[0] == 0.0
        assert g.times[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)


class TestCumtrapz:
    def test_constant_series(self):
        g = TimeGrid(0.0, 1.0, 101)
        out = cumtrapz(np.ones(101), g)
        assert out[0] == 0.0
        assert out[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_series(self):
        g = TimeGrid(0.0, 1.0, 101)
        assert np.all(cumtrapz(np.zeros(101), g) == 0.0)

    def test_exponential_decay(self):
        # Closed-form oracle: ∫_0^10 e^-t dt = 1 - e^-10.  The composite
        # trapezoid on this grid carries a (dt^2/12)*[f'(10)-f'(0)] bias of
        # about 5.2e-7, so that is the honest tolerance here; the quadratic
        # convergence check below pins the rate.
        g = TimeGrid(0.0, 10.0, 4001)
        out = cumtrapz(np.exp(-g.times), g)
        exact = 1.0 - math.exp(-10.0)
        assert out[-1] == pytest.approx(exact, abs=6e-7)
        g2 = TimeGrid(0.0, 10.0, 8001)
        err1 = abs(out[-1] - exact)
        err2 = abs(cumtrapz(np.exp(-g2.times), g2)[-1] - exact)
        assert err1 / err2 == pytest.approx(4.0, rel=0.05)

    def test_length_mismatch(self):
        g = TimeGrid(0.0, 1.0, 101)
        with pytest.raises(ValueError):
            cumtrapz(np.ones(100), g)

    def test_linearity(self):
        g = TimeGrid(0.0, 5.0, 501)
        rng = np.random.default_rng(3)
        f = rng.normal(size=501) + 1j * rng.normal(size=501)
        h = rng.normal(size=501)
        a, b = 2.5 - 1j, -0.75
        lhs = cumtrapz(a * f + b * h, g)
        rhs = a * cumtrapz(f, g) + b * cumtrapz(h, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_complex_input(self):
        g = TimeGrid(0.0, 1.0, 201)
        out = cumtrapz(np.full(201, 1.0 + 2.0j), g)
        assert out[-1] == pytest.approx(1.0 + 2.0j, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(values=hnp.arrays(st.sampled_from([np.float64, np.complex128]),
                             st.integers(2, 300),
                             elements=st.floats(-1e3, 1e3, width=32)),
           span=st.floats(1e-3, 1e3))
    def test_bits_of_the_running_sum(self, values, span):
        # Built in its output buffer, the integral keeps the bits of the
        # expression cumsum(0.5*dt*(v[1:] + v[:-1])).
        g = TimeGrid(0.0, span, values.size)
        expected = np.concatenate(([0.0], np.cumsum(0.5 * g.dt * (values[1:] + values[:-1]))))
        assert np.array_equal(cumtrapz(values, g).view(np.int64), expected.view(np.int64))


def _loop_scan(a, b, x0):
    x = [x0]
    for ak, bk in zip(a.tolist(), b.tolist()):
        x.append(ak * x[-1] + bk)
    return np.array(x)


class TestAffineScan:
    # Lengths around one block of the scan (256 steps) and many blocks.
    @pytest.mark.parametrize("m", [1, 255, 256, 257, 5000])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_loop(self, m, kind):
        rng = np.random.default_rng(m)
        # Mostly near 1, so each block end carries into the next, with
        # small factors that take a block's product down to ~1e-3.
        magnitude = rng.uniform(0.99, 1.0, m)
        magnitude[::64] = 0.3
        if kind == "real":
            a = magnitude * rng.choice([-1.0, 1.0], m)
            b = rng.normal(size=m)
            x0 = 0.7
        else:
            a = magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m))
            b = rng.normal(size=m) + 1j * rng.normal(size=m)
            x0 = 0.7 - 0.4j
        x = affine_scan(a, b, x0)
        ref = _loop_scan(a, b, x0)
        assert x.shape == (m + 1,) and x.dtype == ref.dtype
        assert x[0] == x0
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("m", [1, 257, 5000])
    def test_zero_input_stays_exactly_zero(self, m):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.3, 1.0, m) * np.exp(1j * rng.uniform(0.0, 6.0, m))
        assert np.all(affine_scan(a, np.zeros(m, complex), 0j) == 0.0)
        assert np.all(affine_scan(np.abs(a), np.zeros(m), 0.0) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            affine_scan(np.ones(4), np.ones(5), 0.0)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_arguments_only_read(self, kind):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.5, 1.0, 1000)
        b = rng.normal(size=1000)
        if kind == "complex":
            a = a * np.exp(1j * rng.uniform(0.0, 6.0, 1000))
            b = b + 1j * rng.normal(size=1000)
        before = a.tobytes(), b.tobytes()
        affine_scan(a, b, 0.0)
        assert (a.tobytes(), b.tobytes()) == before


class TestComplexEnvelope:
    def test_sample_count_checked(self):
        g = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            ComplexEnvelope(g, np.zeros(10))

    def test_non_finite_rejected(self):
        g = TimeGrid(0.0, 1.0, 11)
        bad = np.zeros(11, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            ComplexEnvelope(g, bad)

    def test_samples_read_only(self):
        g = TimeGrid(0.0, 1.0, 11)
        env = ComplexEnvelope(g, np.zeros(11))
        with pytest.raises(ValueError):
            env.samples[0] = 1.0

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_strided_samples(self, kind):
        g = TimeGrid(0.0, 1.0, 11)
        full = np.exp(1j * g.times) if kind == "complex" else g.times
        env = ComplexEnvelope(TimeGrid(0.0, 1.0, 6), full[::2])
        assert env.samples.flags.c_contiguous
        assert np.array_equal(env.samples, full[::2])

    def test_intensity_and_norm_derived_once(self):
        g = TimeGrid(0.0, 1.0, 101)
        rng = np.random.default_rng(4)
        env = ComplexEnvelope(g, rng.normal(size=101) + 1j * rng.normal(size=101))
        assert env.intensity is env.intensity
        assert np.array_equal(env.intensity, np.abs(env.samples) ** 2)
        assert env.norm == float(np.trapezoid(np.abs(env.samples) ** 2, dx=g.dt))
        with pytest.raises(ValueError):
            env.intensity[0] = 1.0

    def test_normalized_has_the_bits_of_complex_division(self):
        # A real factor 1/sqrt(norm): every sample but a zero has the bits of
        # complex division by sqrt(norm), and a zero keeps its sign.
        g = TimeGrid(0.0, 10.0, 1001)
        rng = np.random.default_rng(12)
        samples = 3.0 * (rng.normal(size=1001) + 1j * rng.normal(size=1001))
        samples[7] = complex(-0.0, 0.0)
        env = ComplexEnvelope(g, samples)
        new = env.normalized().samples.view(np.float64)
        old = (env.samples / math.sqrt(env.norm)).view(np.float64)
        assert env.normalized().norm == pytest.approx(1.0, rel=1e-14)
        assert np.array_equal(new[old != 0.0].view(np.int64), old[old != 0.0].view(np.int64))
        assert np.signbit(new[14]) and not np.signbit(old[14])


class TestSquaredNorm:
    """ComplexEnvelope.norm, the squared norm ∫|xi|^2 dt."""

    def test_zero(self):
        g = TimeGrid(0.0, 1.0, 11)
        assert ComplexEnvelope(g, np.zeros(11)).norm == 0.0

    def test_normalized_gaussian(self):
        sigma = 0.2
        g = TimeGrid(-8.0 / sigma, 8.0 / sigma, 4001)
        amp = (sigma**2 / math.pi) ** 0.25 * np.exp(-0.5 * (g.times * sigma) ** 2)
        env = ComplexEnvelope(g, amp)
        assert env.norm == pytest.approx(1.0, abs=1e-9)

    def test_time_bin_against_overlap_formula(self):
        # Oracle: ∫|a g1 + b g2|^2 = a^2 + b^2 + 2ab exp(-(t2-t1)^2 s^2/4)
        # for unit-norm Gaussian bins g1, g2.
        sigma, t1, t2 = 0.2, 0.0, 20.0
        a = b = math.sqrt(0.5)
        g = TimeGrid(t1 - 8.0 / sigma, t2 + 8.0 / sigma, 8001)
        bins = (sigma**2 / math.pi) ** 0.25 * (
            a * np.exp(-0.5 * ((g.times - t1) * sigma) ** 2)
            + b * np.exp(-0.5 * ((g.times - t2) * sigma) ** 2)
        )
        expected = 1.0 + 2.0 * a * b * math.exp(-((t2 - t1) ** 2) * sigma**2 / 4.0)
        assert ComplexEnvelope(g, bins).norm == pytest.approx(expected, abs=1e-6)

    def test_global_phase_invariance(self):
        g = TimeGrid(0.0, 10.0, 1001)
        rng = np.random.default_rng(11)
        env = ComplexEnvelope(g, rng.normal(size=1001) + 1j * rng.normal(size=1001))
        rotated = env.with_samples(env.samples * np.exp(1.234j))
        assert rotated.norm == pytest.approx(env.norm, rel=1e-14)

    def test_grid_refinement_quadratic(self):
        # Envelope with non-vanishing boundary slope so the trapezoid error
        # is visible and scales as dt^2.
        exact = (1.0 - math.exp(-20.0)) / 2.0
        errs = []
        for n in (501, 1001):
            g = TimeGrid(0.0, 10.0, n)
            env = ComplexEnvelope(g, np.exp(-g.times))
            errs.append(abs(env.norm - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
