import math

import numpy as np
import pytest

from halfcav.core import (
    ComplexEnvelope,
    MemoryConfig,
    TimeGrid,
    affine_scan,
    cumtrapz,
    squared_norm,
)


class TestMemoryConfig:
    def test_defaults(self):
        cfg = MemoryConfig()
        assert cfg.gamma0 == 1.0
        assert cfg.gamma_prime == 0.0
        assert cfg.gamma_p == 1.0
        assert cfg.cap == 2.0
        assert cfg.gamma0 * cfg.tau < 0.1

    def test_rate_split(self):
        cfg = MemoryConfig(gamma_prime=0.3)
        assert cfg.gamma_prime + cfg.gamma_p == pytest.approx(cfg.gamma0, abs=1e-15)

    def test_gamma_prime_out_of_range(self):
        with pytest.raises(ValueError):
            MemoryConfig(gamma_prime=1.5)

    def test_markov_limit_rejected(self):
        with pytest.raises(ValueError, match="Markov"):
            MemoryConfig(tau=0.5)

    @pytest.mark.parametrize("limit", [0.0, -0.1])
    def test_non_positive_markov_limit_rejected(self, limit):
        # No round trip satisfies gamma0*tau <= limit <= 0, so the limit
        # itself is the error, not the round trip.
        with pytest.raises(ValueError, match="markov_limit must be positive"):
            MemoryConfig(markov_limit=limit)

    def test_tau_rounded_to_node_commensurate(self):
        cfg = MemoryConfig(omega_a=500.0, tau=0.0601)
        cycles = cfg.omega_a * cfg.tau / (2 * math.pi)
        assert cycles == pytest.approx(round(cycles), abs=1e-12)
        assert cfg.tau_adjustment == pytest.approx(cfg.tau - 0.0601, abs=1e-15)

    def test_commensurate_default_needs_no_adjustment(self):
        assert MemoryConfig().tau_adjustment == pytest.approx(0.0, abs=1e-15)


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


class TestSquaredNorm:
    def test_zero(self):
        g = TimeGrid(0.0, 1.0, 11)
        assert squared_norm(ComplexEnvelope(g, np.zeros(11))) == 0.0

    def test_normalized_gaussian(self):
        sigma = 0.2
        g = TimeGrid(-8.0 / sigma, 8.0 / sigma, 4001)
        amp = (sigma**2 / math.pi) ** 0.25 * np.exp(-0.5 * (g.times * sigma) ** 2)
        env = ComplexEnvelope(g, amp)
        assert squared_norm(env) == pytest.approx(1.0, abs=1e-9)

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
        assert squared_norm(ComplexEnvelope(g, bins)) == pytest.approx(
            expected, abs=1e-6
        )

    def test_global_phase_invariance(self):
        g = TimeGrid(0.0, 10.0, 1001)
        rng = np.random.default_rng(11)
        env = ComplexEnvelope(g, rng.normal(size=1001) + 1j * rng.normal(size=1001))
        rotated = env.with_samples(env.samples * np.exp(1.234j))
        assert squared_norm(rotated) == pytest.approx(squared_norm(env), rel=1e-14)

    def test_grid_refinement_quadratic(self):
        # Envelope with non-vanishing boundary slope so the trapezoid error
        # is visible and scales as dt^2.
        exact = (1.0 - math.exp(-20.0)) / 2.0
        errs = []
        for n in (501, 1001):
            g = TimeGrid(0.0, 10.0, n)
            env = ComplexEnvelope(g, np.exp(-g.times))
            errs.append(abs(squared_norm(env) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
