import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

import physics_ledger
from halfcav import write_optimizer
from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid, cumtrapz
from halfcav.dynamics import (
    absorption_probability,
    decay_from_mirror,
    lab_frame_input,
    profile_from_gamma_z,
)
from halfcav.pulses import SUPPORT_CUTOFF, TimeBinSpec, make_time_bin, support_indices
from halfcav.scenario import ScenarioConfig, _write_input
from halfcav.write_optimizer import (
    ETA_TARGET,
    _synthesize_gamma_z,
    optimal_write_profile,
)

MEM = MemoryConfig()
SQ2 = math.sqrt(0.5)


def timebin_env(sigma: float, separation: float = 20.0, per_dt: float = 200.0,
                alpha: float = SQ2):
    beta = math.sqrt(1.0 - alpha**2)
    spec = TimeBinSpec(alpha=alpha, beta=beta, t1=0.0, t2=separation, sigma=sigma)
    pad = 8.0 / sigma
    dt = min(1.0, 1.0 / sigma) / per_dt
    n = int((separation + 2 * pad) / dt) + 1
    grid = TimeGrid(-pad, -pad + (n - 1) * dt, n)
    return make_time_bin(spec, grid)


def _reference_synthesis(q2, dt, cap, eps):
    """The rate synthesis stepped sample by sample on Python scalars, with
    the rule of each step: the trapezoid rule where a step starts and
    predicts uncapped, the capped rule in u = sqrt(r) where it starts and
    ends capped, and Heun's method on the steps onto and off the cap,
    including the step onto a support that starts on the cap from the zero
    input before it.  The arc form in ``_synthesize_gamma_z`` must
    reproduce it to rounding."""

    def heun(r, qk2, qp2):
        gzk = min(qk2 / r, cap)
        f0 = 2.0 * math.sqrt(qk2 * gzk * r) - gzk * r
        rp = r + dt * f0
        gzp = min(qp2 / rp, cap)
        return r + 0.5 * dt * (f0 + (2.0 * math.sqrt(qp2 * gzp * rp) - gzp * rp))

    n = q2.shape[0]
    q2l = q2.tolist()
    decay = math.exp(-0.5 * cap * dt)
    r = [heun(eps, 0.0, q2l[0]) if q2l[0] > cap * eps else eps]
    for k in range(n - 1):
        rk, qk2, qp2 = r[k], q2l[k], q2l[k + 1]
        if qk2 <= cap * rk and qp2 <= cap * (rk + dt * qk2):
            r.append(rk + 0.5 * dt * (qk2 + qp2))
            continue
        if qk2 > cap * rk:
            u = decay * math.sqrt(rk) + 0.5 * dt * math.sqrt(cap) * (
                decay * math.sqrt(qk2) + math.sqrt(qp2)
            )
            if qp2 > cap * u * u:
                r.append(u * u)
                continue
        r.append(heun(rk, qk2, qp2))
    return np.asarray([min(q / rk, cap) for q, rk in zip(q2l, r)])


def rect_env(width: float = 10.0, dt: float = 0.005):
    n = int((width + 2.0) / dt) + 1
    grid = TimeGrid(-1.0, -1.0 + (n - 1) * dt, n)
    samples = np.where((grid.times >= 0.0) & (grid.times <= width), 1.0, 0.0)
    env = ComplexEnvelope(grid, samples)
    return env.normalized()


def decaying_exponential_env(dt: float):
    """xi = exp(-gamma0*t/2) for t >= 0 and 0 before, on [-1, 40] and
    normalized on the grid like make_time_bin: the photon that a free atom
    like the memory's emits."""
    n = round(41.0 / dt) + 1
    grid = TimeGrid(-1.0, -1.0 + (n - 1) * dt, n)
    t = grid.times
    samples = np.where(t >= 0.0, np.exp(-0.5 * MEM.gamma0 * t), 0.0)
    env = ComplexEnvelope(grid, samples.astype(complex))
    return env.normalized()


def test_photon_from_identical_atom_stored_at_27_over_32():
    # The optimum starts on the cap 2*gamma0 and leaves it where
    # exp(-gamma0*t/2) = 3/4, with 9/32 stored; the uncapped rest adds 9/16.
    # The grid's error falls at second order: 9.62e-6, 2.25e-6, 4.99e-7 and
    # 1.04e-7 at dt = 0.01, 0.005, 0.0025 and 0.00125.
    errors = []
    for dt in (0.01, 0.005, 0.0025, 0.00125):
        w = optimal_write_profile(decaying_exponential_env(dt), MEM)
        assert w.capped
        errors.append(27.0 / 32.0 - w.eta_w)
    assert 0.0 < errors[2] < 1e-5
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 4.0


def rising_exponential_env(gamma_s: float, dt: float):
    """xi = exp(gamma_s*t/2) for t <= 0 and 0 after, on [-40, 1] and
    normalized on the grid like make_time_bin: the time reverse of the
    photon that an atom of decay rate gamma_s emits."""
    n = round(41.0 / dt) + 1
    grid = TimeGrid(-40.0, -40.0 + (n - 1) * dt, n)
    t = grid.times
    samples = np.where(t <= 0.0, np.exp(0.5 * gamma_s * np.minimum(t, 0.0)), 0.0)
    env = ComplexEnvelope(grid, samples.astype(complex))
    return env.normalized()


@pytest.mark.parametrize(
    "gamma_s, limit, dts, first_gap",
    [
        # Uncapped: the constant rate gamma_s stores all of it.
        (1.0, 1.0, (0.01, 0.005, 0.0025, 0.00125), 1e-5),
        # Capped: the constant cap C = 2*gamma0 stores 4*C*gamma_s/(C + gamma_s)^2.
        (4.0, 8.0 / 9.0, (0.01, 0.005, 0.0025), 1.6e-5),
    ],
    ids=["uncapped", "capped"],
)
def test_rising_exponential_stored_at_its_limit(gamma_s, limit, dts, first_gap):
    # The write window ends on the last nonzero sample, at t = 0, and the
    # zero sample after it is dt later.  The grid's normalization counts
    # the trapezoid between the two, (dt/2)*|xi(0)|^2 = gamma_s*dt/2 to
    # first order, but the write never sees it, so the raw eta_w misses the
    # limit at first order by about limit*gamma_s*dt/2.  Taken against the
    # norm inside the window, the gap is second order: measured -8.332e-6,
    # -2.082e-6, -5.198e-7 and -1.292e-7 uncapped, and -1.474e-5, -3.624e-6
    # and -8.464e-7 capped.  Below dt = 0.0025 the capped gap leaves second
    # order: -1.521e-7 at 0.00125 (ratio 5.56) and +2.142e-8 at 0.000625.
    # That is ETA_TARGET's eps, which costs a dt-independent 7.8e-8 here:
    # with eps = 1e-12 the gap is -1.4817e-5, -3.7022e-6, -9.242e-7,
    # -2.297e-7 and -5.609e-8 from dt = 0.01 to 0.000625 (ratios 4.002 to
    # 4.095).  The capped arc runs to the window's end, so its program is
    # the cap bit for bit whether u is scanned or stepped by Heun.
    raw, in_window = [], []
    for dt in dts:
        env = rising_exponential_env(gamma_s, dt)
        w = optimal_write_profile(env, MEM)
        assert w.capped == (gamma_s > MEM.cap)
        i1 = w.support[1]
        assert abs(env.grid.times[i1]) < 0.5 * dt
        assert env.samples[i1 + 1] == 0.0
        edge = 0.5 * dt * abs(env.samples[i1]) ** 2
        raw.append((limit - w.eta_w) / (limit * gamma_s * 0.5 * dt))
        in_window.append(limit - w.eta_w / (1.0 - edge))
    # First order: the raw gap over limit*gamma_s*dt/2 tends to 1 (measured
    # 0.9934 to 0.9992 uncapped, 0.979 to 0.995 capped).
    assert all(0.975 <= r <= 1.0 for r in raw)
    # Second order, on the measured values: the in-window eta_w overshoots
    # the limit, by under first_gap at dt = 0.01, and the overshoot falls
    # by 4.001 to 4.28 per halving of dt.
    assert all(g < 0.0 for g in in_window)
    assert -in_window[0] < first_gap
    for coarse, fine in zip(in_window, in_window[1:]):
        assert 3.9 <= coarse / fine <= 4.5


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


def absorbed_and_gradient(env, gz):
    """The write's discrete objective P = a^2 for the program gz, with
    a = sum_k w_k*exp(-(Gz(i1) - Gz_k)/2)*sqrt(gz_k)*|xi_k| over the support
    [i0, i1], trapezoid weights w_k and Gz = cumtrapz(gz); and dP/dgz_k / dt
    on the samples k whose intensity exceeds SUPPORT_CUTOFF of the peak
    (elsewhere gz may underflow to 0, where sqrt(gz) has no derivative)."""
    grid = env.grid
    i0, i1 = support_indices(env)
    G = cumtrapz(gz, grid)
    weights = np.zeros(grid.n)
    weights[i0 : i1 + 1] = grid.dt
    weights[[i0, i1]] = 0.5 * grid.dt
    decay = weights * np.exp(-0.5 * (G[i1] - G)) * np.abs(env.samples)
    terms = decay * np.sqrt(gz)
    a = float(terms.sum())
    # Gz(i1) - Gz_j weighs gz_k by dt/2 for each of j <= k < i1 and j < k <= i1.
    running = np.cumsum(terms)
    q2 = np.abs(env.samples) ** 2
    k = np.flatnonzero(q2 > SUPPORT_CUTOFF * q2.max())
    da = decay[k] / (2.0 * np.sqrt(gz[k])) - 0.25 * grid.dt * (
        (k < i1) * running[k] + running[k] - terms[k]
    )
    return a * a, 2.0 * a * da / grid.dt, k


# Single Gaussians (t2 = 1) and the default time bin, capped and uncapped,
# and the rising exponential at gamma_s = 4*gamma0, one long capped arc.
KKT_CASES = [
    pytest.param(partial(timebin_env, s, 1.0, alpha=1.0), id=f"single-{s:g}")
    for s in (0.05, 0.2, 1, 2, 5, 20, 50)
] + [pytest.param(partial(timebin_env, s, 20.0), id=f"timebin-{s:g}") for s in (0.2, 1, 3)] + [
    pytest.param(partial(rising_exponential_env, 4.0, 0.005), id="rising-exponential-capped")]

# Largest |dP/dgz|/dt below the cap that counts as stationary.  The optimum
# reaches 1.2e-5 (sigma = 20); the optimum scaled by 0.95 exceeds 2.6e-2.
KKT_TOL = 1e-4


class TestKKTConditions:
    """The write's program maximizes the discrete absorbed population under
    0 <= gz <= cap: below the cap the gradient vanishes, and on the cap it
    pushes against the bound (Karush-Kuhn-Tucker conditions)."""

    @pytest.mark.parametrize("make_env", KKT_CASES)
    def test_write_program_is_stationary(self, make_env):
        env = make_env()
        w = optimal_write_profile(env, MEM)
        P, grad, k = absorbed_and_gradient(env, w.profile.gamma_z)
        assert abs(P - w.eta_w) <= 1e-10
        capped = w.profile.gamma_z[k] >= MEM.cap
        assert np.max(np.abs(grad[~capped])) <= KKT_TOL
        assert np.all(grad[capped] >= 0.0)
        assert capped.any() == w.capped

    @pytest.mark.parametrize("make_env", KKT_CASES)
    def test_scaled_program_is_not_stationary(self, make_env):
        env = make_env()
        gz = 0.95 * optimal_write_profile(env, MEM).profile.gamma_z
        assert np.max(np.abs(absorbed_and_gradient(env, gz)[1])) > KKT_TOL

    @pytest.mark.parametrize("sigma", [2.0, 5.0])
    def test_program_capped_too_low_is_not_stationary(self, sigma):
        # Synthesized against 1.9*gamma0: on its flat top the gradient asks
        # for the rate the hardware still allows.
        env = timebin_env(sigma, 1.0, alpha=1.0)
        i0, i1 = support_indices(env)
        q2 = np.abs(env.samples[i0 : i1 + 1]) ** 2
        gz = np.zeros(env.grid.n)
        gz[i0 : i1 + 1] = _synthesize_gamma_z(q2, env.grid.dt, 0.95 * MEM.cap, EPS)
        assert gz.max() == 0.95 * MEM.cap
        assert np.max(np.abs(absorbed_and_gradient(env, gz)[1])) > KKT_TOL


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


def _fixed_program(kind, grid):
    """A program no write synthesizes: a smooth rate on the principal
    branch, or a mirror held past the antinode, where gbar < 0 and the level
    shift is positive."""
    t = grid.times
    if kind == "principal":
        return profile_from_gamma_z(grid, 1.0 + 0.6 * np.sin(t / 3.0), MEM)
    return decay_from_mirror(grid, 0.34 + 0.06 * np.sin(t / 4.0), MEM)


class TestCoRotatingWrite:
    """Absorption in the co-rotating frame runs the quadrature kernel on
    Gamma_z/2 and the real drive g*|xi|; its P is the lab-frame quadrature
    of the lab-frame input (``lab_frame_input``, a write's xi_effective)."""

    def assert_matches_lab_frame(self, w):
        assert w.trace.amplitude.dtype == np.float64
        P = _reference_lab_quadrature(w.profile, w.xi_effective)
        assert np.max(np.abs(w.trace.P - P)) <= 1e-14

    @pytest.mark.parametrize("kind", ["principal", "past_antinode"])
    def test_fixed_program_and_chirped_input(self, kind):
        grid = TimeGrid(0.0, 20.0, 4001)
        t = grid.times
        profile = _fixed_program(kind, grid)
        assert np.all((profile.gamma_complex.imag > 0.0) == (kind == "past_antinode"))
        env = ComplexEnvelope(
            grid, np.exp(-0.5 * ((t - 8.0) / 2.0) ** 2 + 0.3j * (t - 8.0) ** 2)
        ).normalized()
        trace = absorption_probability(profile, env, co_rotating=True)
        assert trace.amplitude.dtype == np.float64
        P = _reference_lab_quadrature(profile, lab_frame_input(profile, env, co_rotating=True))
        assert np.max(np.abs(trace.P - P)) <= 1e-14

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
        env = env.normalized()
        monkeypatch.setattr(
            write_optimizer, "optimal_program",
            lambda env, q2, cfg: (profile, False, support_indices(env)),
        )
        self.assert_matches_lab_frame(optimal_write_profile(env, MEM))

    def test_effective_input_keeps_the_complex_exp_bits(self):
        # xi_effective is |xi|*exp(-i*Im Gamma) formed from a cos and a sin;
        # on the ledger's build its bytes are those of the complex exp, and
        # on any other within an ulp of them.
        same_build = json.loads(physics_ledger.LEDGER.read_text())["build"] == physics_ledger.build()
        for name, command, config in physics_ledger.CASES:
            if command != "store":
                continue
            cfg = ScenarioConfig.from_dict(config)
            w = optimal_write_profile(_write_input(cfg), cfg.memory, phase_compensation=True)
            want = np.abs(w.xi_in.samples) * np.exp(-1j * w.profile.Gamma.imag)
            got = w.xi_effective.samples
            if same_build:
                assert got.tobytes() == want.tobytes(), name
            else:
                np.testing.assert_array_max_ulp(got.view(np.float64), want.view(np.float64), maxulp=1)

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
