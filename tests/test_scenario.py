"""Properties of one store/retrieve run over the scenario parameters: the
physical ranges of P and the efficiencies, the whole-sample read target, a
storage gap whose decay rate is exactly zero, agreement with the
full-timeline builder kept below as the reference, compute work that
does not grow with the storage time, and the sweep's eta_w(sigma/gamma0)
between analytic bounds and against its continuous values."""
import concurrent.futures
import math
import os
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from functools import cached_property

from halfcav import core, dynamics, read_shaper, scenario, write_optimizer
from halfcav.core import ComplexEnvelope, TimeGrid
from halfcav.dynamics import absorption_probability, profile_from_gamma_z
from halfcav.mirror import trajectory_from_decay
from halfcav.pulses import make_time_bin, shift, support_indices
from halfcav.read_shaper import read_profile_for_target, total_efficiency
from halfcav.scenario import (
    MAX_SIGMA_OVER_GAMMA0,
    MAX_TIMELINE_SAMPLES,
    ScenarioConfig,
    _step,
    build_store_run,
    default_write_grid,
    oracle_check,
    sweep_point,
)
from halfcav.write_optimizer import optimal_write_profile

# test_store_run_invariants' ranges: sigma up to 5 runs through capped arcs.
STORE_CASES = dict(
    storage_T=st.floats(0.0, 200.0),
    sigma=st.floats(0.05, 5.0),
    separation=st.floats(1.0, 30.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)

# The store_long_hold benchmark config at seed 1.
LONG_HOLD_SEED_1 = {
    "pulse": {"alpha": 0.3873367586730608, "beta": 0.9219383034567157,
              "phi": 5.324583204732311, "t1": 0.0, "t2": 20.0, "sigma": 0.2},
    "storage_T": 1000.0,
}


def _config(storage_T, sigma, separation, phi):
    pulse = {"alpha": math.sqrt(0.5), "beta": math.sqrt(0.5), "t1": 0.0,
             "t2": separation, "sigma": sigma, "phi": phi}
    return ScenarioConfig.from_dict({"pulse": pulse, "storage_T": storage_T})


def _reference_store_run(cfg: ScenarioConfig):
    """The full-timeline builder that computed write, read and a composite
    population trace on the whole store timeline, sized by a drain tail
    past the read (returns its fields)."""
    pulse, mem, dt = cfg.pulse, cfg.memory, _step(cfg, cfg.pulse.sigma)

    # The write support on the write-phase grid fixes the grid end; the
    # full grid has the same start and step, so the support keeps its indices.
    g0 = default_write_grid(cfg)
    j0, j1 = support_indices(make_time_bin(pulse, g0))
    t_w = float(g0.times[j0])
    t_w0 = float(g0.times[j1])
    hold_steps = round(cfg.storage_T / dt)
    storage = hold_steps * dt
    t_r0 = t_w0 + storage
    tail = 12.0 / min(pulse.sigma, mem.gamma0)
    t_end_min = max(t_w0 + (t_r0 - t_w) + 2.0 * dt, t_r0 + tail)
    m = math.ceil((t_end_min - g0.t_start) / dt)
    grid = TimeGrid(g0.t_start, g0.t_start + m * dt, m + 1)

    xi_in = make_time_bin(pulse, grid)
    w = optimal_write_profile(xi_in, mem, cfg.phase_compensation)
    target = shift(xi_in, (j1 - j0) + hold_steps)
    r = read_profile_for_target(target, w.eta_w, mem, cfg.phase_compensation)
    profile_total = profile_from_gamma_z(grid, w.profile.gamma_z + r.profile.gamma_z, mem)
    trace = absorption_probability(profile_total, w.xi_effective)
    if not r.capped and trace.P[-1] > 1e-6 * w.eta_w:
        raise RuntimeError("read window failed to drain the stored population")

    return SimpleNamespace(
        config=cfg,
        grid=grid,
        xi_in=xi_in,
        target=target,
        write=w,
        read=r,
        profile_total=profile_total,
        trace_total=trace.P,
        eta=total_efficiency(w, r),
        fidelity=r.fidelity_vs_target,
        t_mid=t_w0 + 0.5 * storage,
    )


def assert_matches_reference(cfg: ScenarioConfig, tol: float = 1e-12):
    """Efficiencies, F, landmarks, every timeseries.csv column, the mirror's
    feasibility numbers and the residual population at the grid end agree
    with the reference builder within tol (absolute).  The reference's
    timeline has the same start and step and may run longer; its rows past
    the new one are flat.  Returns both runs and the reference's peak
    speed."""
    run, ref = build_store_run(cfg), _reference_store_run(cfg)
    n = run.grid.n
    assert run.grid.t_start == ref.grid.t_start and n <= ref.grid.n
    for new, old in [(run.write.eta_w, ref.write.eta_w), (run.read.eta_r, ref.read.eta_r),
                     (run.eta, ref.eta), (run.fidelity, ref.fidelity)]:
        assert abs(new - old) <= tol
    j0, j1 = ref.write.support
    old_landmarks = {"t_w": float(ref.grid.times[j0]), "t_w0": float(ref.grid.times[j1]),
                     "t_r0": float(ref.grid.times[support_indices(ref.target)[0]]),
                     "t_r": float(ref.grid.times[n - 1])}
    new_columns = run.timeseries_columns()
    record = run.record(new_columns)
    for key, value in record["landmarks"].items():
        assert abs(value - (old_landmarks[key] - ref.t_mid)) <= tol, key

    # The reference kept the read on the timeline, so its columns are its fields.
    old_l = trajectory_from_decay(ref.profile_total.gamma_z, cfg.memory)
    old_columns = {
        "t": ref.grid.times - ref.t_mid,
        "xi_in_re": ref.xi_in.samples.real,
        "xi_in_im": ref.xi_in.samples.imag,
        "xi_out_re": ref.read.xi_out.samples.real,
        "xi_out_im": ref.read.xi_out.samples.imag,
        "gamma_z_w": ref.write.profile.gamma_z,
        "gamma_z_r": ref.read.profile.gamma_z,
        "l_over_lambda": old_l,
        "P": ref.trace_total,
    }
    assert list(new_columns) == list(old_columns)
    # The peak speed is that of np.gradient(l)/dt over the reference's
    # whole mirror program.  The difference turns a last-digit change of l
    # on a capped arc (where l(gamma_z) is steep) into ~1e-11, so the speed is
    # compared as the displacement per step, v_max*dt.
    feasibility = record["feasibility"]
    old_v_max = float(np.abs(np.gradient(old_l, ref.grid.dt)).max())
    assert abs(feasibility["v_max_lambda_gamma0"] * run.grid.dt - old_v_max * ref.grid.dt) <= tol
    assert abs(feasibility["l_max_over_lambda"] - old_l.max()) <= tol
    # The reference's composite quadrature also lets the input's tail past
    # its support (intensity below 1e-12 of the peak) drive the atom while
    # the read runs, which moves P by up to ~1e-12 when the read starts
    # right after the write (storage_T near 0).  P is compared with the
    # same quadrature on the input confined to its support; the residual
    # at the grid end with the reference's own trace.
    confined = np.zeros(ref.grid.n, dtype=complex)
    confined[j0 : j1 + 1] = ref.write.xi_effective.samples[j0 : j1 + 1]
    old_columns["P"] = absorption_probability(
        ref.profile_total, ref.write.xi_effective.with_samples(confined)).P
    for name, column in new_columns.items():
        assert column.shape == (n,)
        assert np.max(np.abs(column - old_columns[name][:n])) <= tol, name
        # Past the new timeline the input's sampled tail is below tol and
        # every other column keeps its last value.
        extra = old_columns[name][n - 1 :]
        if name.startswith("xi_in"):
            assert np.max(np.abs(extra)) <= tol, name
        elif name != "t":
            assert np.max(np.abs(extra - extra[0])) <= tol, name
    assert abs(new_columns["P"][-1] - ref.trace_total[-1]) <= tol
    return run, ref, old_v_max


@settings(max_examples=25, deadline=None)
@given(**STORE_CASES)
def test_store_run_invariants(storage_T, sigma, separation, phi):
    run = build_store_run(_config(storage_T, sigma, separation, phi))
    columns = run.timeseries_columns()

    assert np.all((columns["P"] >= 0.0) & (columns["P"] <= 1.0))
    assert 0.0 <= run.write.eta_w <= 1.0
    assert 0.0 <= run.read.eta_r <= 1.0
    assert run.eta == run.write.eta_w * run.read.eta_r

    grid = run.grid
    i_w, i_w0 = run.write.support
    assert grid.n == i_w0 + run.read_offset + 3
    i_r0 = run.read_offset + np.flatnonzero(run.read.profile.gamma_z)[0]
    assert i_r0 - i_w0 == round(storage_T / (min(1.0, 1.0 / sigma) / 200.0))
    k, n = i_r0 - i_w, grid.n
    xi_in = ComplexEnvelope(grid, columns["xi_in_re"] + 1j * columns["xi_in_im"])
    target = shift(xi_in, run.read_offset)
    assert np.array_equal(target.samples[k:], xi_in.samples[: n - k])
    assert not target.samples[:k].any()
    assert np.all((columns["gamma_z_w"] + columns["gamma_z_r"])[i_w0 + 1 : i_r0] == 0.0)


@pytest.mark.parametrize("raw", [{}, LONG_HOLD_SEED_1], ids=["default", "long_hold_seed_1"])
def test_benchmark_configs_match_reference(raw):
    run, ref, old_v_max = assert_matches_reference(ScenarioConfig.from_dict(raw))
    # With a hold and no capped arc, the peak speed itself and the
    # reference's own trace agree too.
    n = run.grid.n
    columns = run.timeseries_columns()
    assert abs(run.record(columns)["feasibility"]["v_max_lambda_gamma0"] - old_v_max) <= 1e-12
    assert np.max(np.abs(columns["P"] - ref.trace_total[:n])) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(**STORE_CASES)
def test_matches_reference(storage_T, sigma, separation, phi):
    assert_matches_reference(_config(storage_T, sigma, separation, phi))


def test_sweep_point_work_is_flat_in_storage_time(monkeypatch):
    # Every grid that reaches a synthesis or quadrature during sweep_point
    # is the write-phase grid, whatever the storage time.  The write, in
    # either frame, runs the quadrature kernel through
    # dynamics.absorption_probability.
    seen = []
    for module, name in [(write_optimizer, "optimal_write_profile"),
                         (read_shaper, "read_profile_for_target"),
                         (dynamics, "_trapezoid_amplitude"),
                         (dynamics, "profile_from_gamma_z")]:
        original = getattr(module, name)

        def spy(first, *args, _name=name, _original=original, **kwargs):
            n = len(first) if isinstance(first, np.ndarray) else getattr(first, "grid", first).n
            seen.append((_name, n))
            return _original(first, *args, **kwargs)

        for bound_in in (scenario, write_optimizer, read_shaper, dynamics):
            if getattr(bound_in, name, None) is original:
                monkeypatch.setattr(bound_in, name, spy)

    sizes = {}
    for storage_T in (30.0, 3000.0):
        cfg = ScenarioConfig.from_dict({"storage_T": storage_T})
        seen.clear()
        sweep_point(cfg, cfg.pulse.sigma)
        sizes[storage_T] = list(seen)
        assert {name for name, _ in seen} == {
            "optimal_write_profile", "read_profile_for_target",
            "_trapezoid_amplitude", "profile_from_gamma_z"}
        assert {n for _, n in seen} == {default_write_grid(cfg).n}
    assert sizes[30.0] == sizes[3000.0]


@pytest.mark.parametrize("compensated", [True, False])
def test_compensated_path_never_integrates_complex_gamma(monkeypatch, compensated):
    # With phase compensation the write runs in the co-rotating frame and
    # the read is de-chirped, so no complex exponential or complex running
    # integral of Gamma is computed; without it both read Gamma.
    def forbidden(profile):
        raise AssertionError("DecayProfile.Gamma read")

    monkeypatch.setattr(dynamics.DecayProfile, "Gamma", property(forbidden))
    cfg = ScenarioConfig.from_dict({"phase_compensation": compensated})
    calls = [lambda: build_store_run(cfg), lambda: sweep_point(cfg, 0.02),
             lambda: sweep_point(cfg, 5.0)]
    for call in calls:
        if compensated:
            call()
        else:
            with pytest.raises(AssertionError, match="Gamma read"):
                call()


def _spy_on_derivation(monkeypatch, cls, name):
    """The instances whose cached property ``name`` is derived, in order."""
    slot = vars(cls)[name]
    derive = slot.func
    derived = []

    def spy(instance):
        derived.append(instance)
        return derive(instance)

    monkeypatch.setattr(slot, "func", spy)
    return derived


def _spy_on_calls(monkeypatch, module, name):
    """The results of the calls of ``module.name``, in order."""
    call = getattr(module, name)
    results = []

    def spy(*args):
        results.append(call(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


@pytest.mark.parametrize("compensated", [True, False])
def test_compensated_write_never_builds_its_complex_rate(monkeypatch, compensated):
    # With phase compensation the write reads only the real gamma_z and the
    # de-chirped read only g, so no profile derives the complex rate nor,
    # through the complementary coupling, its level shift.  Without
    # compensation both profiles derive them.
    derived = _spy_on_derivation(monkeypatch, dynamics.DecayProfile, "gamma_complex")
    shift_calls = _spy_on_calls(monkeypatch, dynamics, "complementary_coupling")
    writes = _spy_on_calls(monkeypatch, scenario, "optimal_write_profile")
    cfg = ScenarioConfig.from_dict({"phase_compensation": compensated})
    for call in (lambda: build_store_run(cfg), lambda: sweep_point(cfg, 0.02),
                 lambda: sweep_point(cfg, 5.0)):
        for log in (derived, shift_calls, writes):
            log.clear()
        call()
        (w,) = writes
        assert any(p is w.profile for p in derived) is not compensated
        assert len(derived) == len(shift_calls) == (0 if compensated else 2)


def test_each_envelope_intensity_is_derived_once_per_point(monkeypatch):
    # |xi|^2 and its integral are derived once per envelope, and a point
    # has three: the raw pulse (its norm), the normalized input (its norm,
    # its support, the write's intensities and, as the read's target, the
    # read's) and the emitted envelope (eta_r and the fidelity).
    intensities = _spy_on_derivation(monkeypatch, core.ComplexEnvelope, "intensity")
    norms = _spy_on_derivation(monkeypatch, core.ComplexEnvelope, "norm")
    for compensated in (True, False):
        cfg = ScenarioConfig.from_dict({"phase_compensation": compensated})
        for sigma in (0.02, 0.2, 5.0):
            intensities.clear()
            norms.clear()
            sweep_point(cfg, sigma)
            assert len(intensities) == len({id(env) for env in intensities}) == 3
            assert [id(env) for env in norms] == [id(env) for env in intensities]


def allow_cpus(monkeypatch, n):
    """Let this process run on ``n`` CPUs, as core.worker_count sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("compensated", [True, False])
def test_oracle_cases_hold_every_series_the_rk4_reads(monkeypatch, compensated):
    # The cases run whole on the threads of one pool.  A series derived on
    # first use (a cached_property) may be derived on a pool thread only for
    # an object that thread made itself: what the cases share (cfg and the
    # random grid's times) is derived before they are dispatched, so no two
    # threads derive the same value.
    made_on, derived = {}, []

    def recording(init):
        def made(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made_on[id(self)] = threading.get_ident()
        return made

    for module in (core, dynamics, write_optimizer):
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__ and any(
                isinstance(slot, cached_property) for slot in vars(cls).values()
            ):
                monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
    derive = cached_property.__get__

    def first_read(self, instance, owner=None):
        if instance is not None and self.attrname not in vars(instance):
            derived.append((made_on.get(id(instance)), threading.get_ident(),
                            f"{type(instance).__name__}.{self.attrname}"))
        return derive(self, instance, owner)

    monkeypatch.setattr(cached_property, "__get__", first_read)
    allow_cpus(monkeypatch, 3)
    cfg = ScenarioConfig.from_dict({"phase_compensation": compensated})
    assert oracle_check(cfg, seed=7, threads=3)["passed"] is True
    main = threading.get_ident()
    on_pool = [(maker, name) for maker, on, name in derived if on != main]
    # The cases' own grids, profiles and envelopes.
    assert {"TimeGrid.times", "DecayProfile.g", "ComplexEnvelope.norm"} <= {n for _, n in on_pool}
    assert all(maker not in (None, main) for maker, _ in on_pool), on_pool
    assert all(maker == on for maker, on, _ in derived), derived


@pytest.mark.parametrize("gamma0", [0.5, 2.0, 3.0, 4.0])
def test_oracle_cases_scale_with_gamma0(gamma0):
    # gamma0 is the unit of inverse time: with sigma scaled by gamma0 and
    # t2 and storage_T divided by it, the store, a capped sweep point and
    # every case of the oracle (the write and the seeded random pairs) are
    # the same problem in rescaled time.
    def rescaled(s):
        return ScenarioConfig.from_dict({
            "memory": {"gamma0": s},
            "pulse": {"t2": 20.0 / s, "sigma": 0.2 * s},
            "storage_T": 30.0 / s,
        })

    def outputs(s):
        run = build_store_run(rescaled(s))
        # At sigma = 5*gamma0 the write and the read are capped at 2*gamma0.
        point = sweep_point(rescaled(s), 5.0 * s)
        return [run.write.eta_w, run.read.eta_r, run.fidelity,
                *(point[k] for k in ("sigma_over_gamma0", "eta_w", "eta_r", "F"))]

    assert rescaled(1.0) == ScenarioConfig.from_dict({})
    assert outputs(gamma0) == pytest.approx(outputs(1.0), rel=0, abs=1e-12)

    default = oracle_check(rescaled(1.0))
    scaled = oracle_check(rescaled(gamma0))
    assert len(scaled["cases"]) == len(default["cases"]) == 21
    for new, old in zip(scaled["cases"], default["cases"]):
        assert new["case"] == old["case"]
        assert new["max_abs_dP"] == pytest.approx(old["max_abs_dP"], rel=1e-6), new["case"]
    assert scaled["passed"] is True


def _reference_rate(draws, grid, cap):
    """A random pair's rate with one cos per harmonic, cos(k*theta + phase)."""
    offset, harmonics = draws
    t = grid.times
    span = grid.t_end - grid.t_start
    series = offset
    for k, (amplitude, phase) in enumerate(harmonics, start=1):
        series = series + amplitude * np.cos(2.0 * np.pi * k * (t - grid.t_start) / span + phase)
    return cap * 0.5 * (1.0 + np.tanh(series))


def _reference_envelope(draws, grid):
    """A random pair's normalized input with its own cos and complex exp."""
    at, wide, ripple_k, ripple_phase, chirp, chirp_k, chirp_phase = draws
    t = grid.times
    span = grid.t_end - grid.t_start
    body = np.exp(-0.5 * ((t - (grid.t_start + at * span)) / (wide * span)) ** 2)
    ripple = 1.0 + 0.25 * np.cos(2.0 * np.pi * ripple_k * (t - grid.t_start) / span + ripple_phase)
    phase = chirp * np.cos(2.0 * np.pi * chirp_k * (t - grid.t_start) / span + chirp_phase)
    samples = body * ripple * np.exp(1j * phase)
    return samples / math.sqrt(np.trapezoid(np.abs(samples) ** 2, dx=grid.dt))


@pytest.mark.parametrize("seed", [12345, 7])
def test_oracle_random_pairs_from_the_shared_basis(seed):
    # Every random pair's harmonics are mixed from one read-only basis of
    # cos(k*theta) and sin(k*theta): the problems are those of one cos per
    # harmonic and a complex exp, to rounding, and no case can write to it.
    cases = scenario._oracle_cases(ScenarioConfig(), seed)
    assert len(cases) == 21 and all(case[4] is cases[1][4] for case in cases[1:])
    for name, _, mem, grid, basis, (rate, envelope) in cases[1:]:
        got = scenario._random_smooth_rate(rate, basis, mem.cap)
        assert np.max(np.abs(got - _reference_rate(rate, grid, mem.cap))) <= 1e-12, name
        got = scenario._random_envelope(envelope, grid, basis).samples
        assert np.max(np.abs(got - _reference_envelope(envelope, grid))) <= 1e-12, name
    assert len(basis) == 4
    for array in (a for pair in basis for a in pair):
        assert array.shape == (grid.n,) and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("config", [{}, {"phase_compensation": False, "storage_T": 0}],
                         ids=["default", "chirped"])
def test_oracle_report_independent_of_threads(config, monkeypatch):
    # More threads than CPUs, switching every 10 us, so the cases interleave:
    # with 25 usable CPUs patched, the caps 2, 3 and 25 start 2, 3 and 21.
    allow_cpus(monkeypatch, 25)
    cfg = ScenarioConfig.from_dict(config)
    serial = oracle_check(cfg, threads=1)
    assert len(serial["cases"]) == 21 and serial["passed"] is True
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (2, 3, 25):
            assert oracle_check(cfg, threads=threads) == serial, threads
    finally:
        sys.setswitchinterval(interval)


def test_oracle_runs_a_thread_a_case(monkeypatch):
    # With 25 usable CPUs, a cap of 25 gives a pool of 21, one per case:
    # each case's RK4 waits until every case has reached its own, which only
    # 21 threads can do.
    allow_cpus(monkeypatch, 25)
    everyone = threading.Barrier(21, timeout=60)
    callers = set()

    def rk4(profile, xi_in):
        callers.add(threading.get_ident())
        everyone.wait()
        return dynamics.bloch_ode_oracle(profile, xi_in)

    monkeypatch.setattr(scenario, "bloch_ode_oracle", rk4)
    before = threading.active_count()
    assert oracle_check(ScenarioConfig(), threads=25)["passed"] is True
    assert len(callers) == 21 and threading.get_ident() not in callers
    assert threading.active_count() == before


def test_oracle_threads_capped_by_the_usable_cpus(monkeypatch):
    # The cap is the one pool_map takes: a cap of 25 on 2 usable CPUs
    # starts 2 threads, however many cases there are.
    allow_cpus(monkeypatch, 2)
    started, callers = [], set()

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    def rk4(profile, xi_in):
        callers.add(threading.get_ident())
        return dynamics.bloch_ode_oracle(profile, xi_in)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(scenario, "bloch_ode_oracle", rk4)
    assert oracle_check(ScenarioConfig(), threads=25)["passed"] is True
    assert started == [(2,)]
    assert 1 <= len(callers) <= 2 and threading.get_ident() not in callers


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("failing", [0, 1, 13, 20])
def test_oracle_error_leaves_with_no_thread_behind(monkeypatch, threads, failing):
    # The RK4 of case ``failing`` (0 is the write) raises.  On threads the
    # case after it raises too, and first, and every later case waits in its
    # RK4 until it has.  The error of the earliest failing case in case
    # order leaves oracle_check; every case before it ran its RK4; no case
    # begins once one has failed, so at most threads - 1 cases after it
    # began; and the pool's threads have ended.
    error, later_error = RuntimeError("population left [0,1]"), RuntimeError("a later case")
    later_failed = threading.Event()
    current = threading.local()
    began, ran = [], []
    case_gap = scenario._case_gap

    def counted_case(name, build, *args):
        current.index = 0 if name == "scenario_write" else int(name[len("random_"):]) + 1
        began.append(current.index)
        return case_gap(name, build, *args)

    def rk4(profile, xi_in):
        ran.append(current.index)
        if current.index == failing + 1:
            later_failed.set()
            raise later_error
        if current.index >= failing and threads > 1 and failing < 20:
            assert later_failed.wait(timeout=60)
        if current.index == failing:
            raise error
        return dynamics.bloch_ode_oracle(profile, xi_in)

    monkeypatch.setattr(scenario, "_case_gap", counted_case)
    monkeypatch.setattr(scenario, "bloch_ode_oracle", rk4)
    allow_cpus(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        oracle_check(ScenarioConfig.from_dict({}), threads=threads)
    assert raised.value is error
    assert threading.active_count() == before
    assert set(range(failing + 1)) <= set(ran)
    later = {i for i in began if i > failing}
    assert len(later) <= threads - 1
    assert (failing + 1 in later) == (threads > 1 and failing < 20)


def test_slowest_accepted_atom_stores_a_normal_number():
    # At the sigma/gamma0 bound eta is about 4e-22 and the fidelity that of
    # any slow atom; past it the amplitudes head for underflow.
    sigma = ScenarioConfig.from_dict({}).pulse.sigma
    slowest = build_store_run(
        ScenarioConfig.from_dict({"memory": {"gamma0": sigma / MAX_SIGMA_OVER_GAMMA0}}))
    slow = build_store_run(ScenarioConfig.from_dict({"memory": {"gamma0": 1e-8}}))
    assert slowest.eta == pytest.approx(4.04e-22, rel=1e-2)
    assert slowest.fidelity == pytest.approx(slow.fidelity, abs=1e-12)
    with pytest.raises(ValueError, match="sigma/gamma0 must be at most"):
        ScenarioConfig.from_dict({"memory": {"gamma0": 0.5 * sigma / MAX_SIGMA_OVER_GAMMA0}})


def test_hold_length_bounded_at_load():
    # The load-time bound is 2*n0 + storage_T/dt to within a few samples,
    # n0 the write-phase grid's, and the timeline of an accepted hold fits.
    cfg = ScenarioConfig.from_dict({})
    dt, n0 = _step(cfg, cfg.pulse.sigma), default_write_grid(cfg).n
    longest = ScenarioConfig.from_dict({"storage_T": (MAX_TIMELINE_SAMPLES - 2 * n0 - 3) * dt})
    assert build_store_run(longest).grid.n <= MAX_TIMELINE_SAMPLES
    with pytest.raises(ValueError, match="the store timeline must be finite and at most"):
        ScenarioConfig.from_dict({"storage_T": (MAX_TIMELINE_SAMPLES - 2 * n0 + 3) * dt})


# How far the sampled write may sit beyond a bound on the continuous
# optimum.  Measured, eta_w comes within 1e-8 of the upper bound 1 at
# sigma = 0.05 and within 9e-5 of the lower bound at sigma = 100.
BOUND_TOL = 1e-6


def _abs_integral(pulse) -> float:
    """∫|xi| dt of a time bin with phi = 0 and alpha, beta >= 0, where
    xi = (alpha*G1 + beta*G2)/sqrt(1 + 2*alpha*beta*exp(-(t2 - t1)^2*sigma^2/4))
    with unit-norm Gaussian bins G, each of ∫G = (sigma^2/pi)^(1/4)*sqrt(2*pi)/sigma."""
    s = pulse.sigma
    overlap = math.exp(-((pulse.t2 - pulse.t1) * s) ** 2 / 4.0)
    bin_integral = (s * s / math.pi) ** 0.25 * math.sqrt(2.0 * math.pi) / s
    return (pulse.alpha + pulse.beta) * bin_integral / math.sqrt(
        1.0 + 2.0 * pulse.alpha * pulse.beta * overlap
    )


def _constant_rate_efficiency(sigma: float, gamma0: float) -> float:
    """Most population that the constant rate 2*gamma0 (the mirror at the
    antinode), switched off at T, absorbs from a unit-norm Gaussian of
    bandwidth sigma centred at 0, over T:

        2g0*(s/sqrt(pi))*(pi/(2s^2))*exp(g0^2/s^2 - 2g0*T)*erfc((g0/s^2 - T)*s/sqrt(2))^2.

    P(T) is a Gaussian convolved with a one-sided exponential, squared, so
    it is log-concave and a golden-section search on log P finds the peak."""
    c = math.log(gamma0 * math.sqrt(math.pi) / sigma) + (gamma0 / sigma) ** 2

    def log_p(T):
        e = math.erfc((gamma0 / sigma**2 - T) * sigma / math.sqrt(2.0))
        return c - 2.0 * gamma0 * T + 2.0 * math.log(e) if e > 0.0 else -math.inf

    lo, hi = -10.0 / sigma, 10.0 / sigma + 10.0 / gamma0
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        t1, t2 = hi - r * (hi - lo), lo + r * (hi - lo)
        if log_p(t1) < log_p(t2):
            lo = t1
        else:
            hi = t2
    return math.exp(log_p(0.5 * (lo + hi)))


# The paper's curve for one Gaussian: the constant rate 2*gamma0 is a
# feasible program, so the optimum absorbs at least as much, and
# |c| <= ∫sqrt(gamma_z)|xi| dt <= sqrt(2*gamma0)∫|xi| dt bounds it above.
# At sigma = 2 and 50, 0.8007 <= 0.9327 <= 1 and 0.1267 <= 0.1271 <= 0.1418.
@settings(max_examples=30, deadline=None)
@given(sigma=st.floats(0.05, 100.0))
@example(sigma=2.0)
@example(sigma=50.0)
def test_single_gaussian_efficiency_between_analytic_bounds(sigma):
    pulse = {"alpha": 1.0, "beta": 0.0, "t1": 0.0, "t2": 1.0, "sigma": sigma}
    cfg = ScenarioConfig.from_dict({"pulse": pulse})
    g0 = cfg.memory.gamma0
    eta_w = sweep_point(cfg, sigma)["eta_w"]
    upper = min(1.0, 2.0 * g0 * _abs_integral(cfg.pulse) ** 2)
    assert _constant_rate_efficiency(sigma, g0) - BOUND_TOL <= eta_w <= upper + BOUND_TOL


# The paper's curve eta_w(sigma/gamma0) for one Gaussian at gamma0 = 1, in
# continuous time: the same clamped write rule, r starting at the package's
# eps = (1 - ETA_TARGET)/ETA_TARGET, solved with scipy's DOP853 at rtol
# 1e-13 (values to ten digits).
CONTINUOUS_ETA_W = {0.5: 0.9999729323, 1.0: 0.9940740036, 2.0: 0.9327095173,
                    5.0: 0.6932014416, 20.0: 0.2789911399}


def test_single_gaussian_efficiency_extrapolates_to_the_continuous_curve():
    # The write's error falls as dt^2, so the Richardson value
    # (4*eta(400) - eta(200))/3 from dt_factor 400 and 200 lies within
    # 5e-10 of the continuous value (measured: 1.7e-10), and up to sigma = 5
    # the gap shrinks 3.98 to 4.00 times from 200 to 400.  At sigma = 20
    # the gap at 200 is 3e-9, where the rounding of the reference moves
    # the ratio.
    for sigma, continuous in CONTINUOUS_ETA_W.items():
        pulse = {"alpha": 1.0, "beta": 0.0, "t1": 0.0, "t2": 1.0, "sigma": sigma}
        eta_200, eta_400 = (
            sweep_point(ScenarioConfig.from_dict({"pulse": pulse, "grid": {"dt_factor": f}}),
                        sigma)["eta_w"]
            for f in (200.0, 400.0)
        )
        assert abs((4.0 * eta_400 - eta_200) / 3.0 - continuous) <= 5e-10, sigma
        if sigma <= 5.0:
            assert 3.9 <= (continuous - eta_200) / (continuous - eta_400) <= 4.1, sigma


def test_capped_time_bin_write_and_read_converge_at_second_order():
    # The ledger's capped time bin, where the write and the read program
    # both reach the cap.  At dt_factor 200 (dt = 0.001), against 1,600,
    # eta_w is 1.185e-7 low and eta_r 1.413e-7 low: 0.1185*dt^2 and
    # 0.1413*dt^2.  The write's constant is steady (0.120 to 0.105 over
    # dt_factor 200 to 1,131, against 3,200); the read's swings within
    # +-0.36 over the same grids, so it is pinned at this pair.  A
    # first-order error in an arc switch would be of order dt.
    pulse = {"alpha": -0.6, "beta": 0.8, "phi": 2.0, "sigma": 5.0}
    coarse, fine = (
        build_store_run(ScenarioConfig.from_dict({"pulse": pulse, "grid": {"dt_factor": f}}))
        for f in (200.0, 1600.0)
    )
    assert coarse.write.capped and coarse.read.capped
    dt2 = coarse.write.xi_in.grid.dt ** 2
    assert abs(coarse.write.eta_w - fine.write.eta_w) < 0.125 * dt2
    assert abs(coarse.read.eta_r - fine.read.eta_r) < 0.15 * dt2


# The upper bound for the default time bin uses the pair's ∫|xi|.
@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(0.05, 50.0))
@example(sigma=50.0)
def test_time_bin_efficiency_below_analytic_bound(sigma):
    cfg = ScenarioConfig.from_dict({})
    eta_w = sweep_point(cfg, sigma)["eta_w"]
    pulse = replace(cfg.pulse, sigma=sigma)
    assert eta_w <= min(1.0, 2.0 * cfg.memory.gamma0 * _abs_integral(pulse) ** 2) + BOUND_TOL
