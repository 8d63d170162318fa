"""End-to-end store/retrieve scenarios.

A store computes on one phase grid, the write-phase grid that spans the
input pulse and GRID_PADDING/sigma beyond both bins.  The write program is
optimized for the input on it; the read is the time-reversed write
(Gorshkov et al., PRL 98, 123601 (2007)) and is shaped toward the same
input samples, because the read phase is that grid moved k whole samples
later on the timeline, with k chosen so that the read support starts
round(storage_T/dt) samples after the write support ends.  The hold in
between is a number: both programs are zero outside their supports, so the
atom sits at the node (gamma_z exactly 0) and keeps the stored population
eta_w.  The population through the read is closed-form,
eta_w*exp(-Gamma_z_r(t)), so no quadrature runs on the full timeline.

The full timeline ends two samples after the read support.  The export's
columns on it (input, both programs, the mirror program, the emitted
envelope and the population trace) are laid out by
``StoreRun.timeseries_columns`` only, and ``StoreRun.record`` reads them:
its landmarks are rows of t, and the mirror's feasibility numbers are those
of the exported l_over_lambda column.
"""
from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import get_args, get_type_hints

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, _freeze, polar, worker_count
from .dynamics import absorption_probability, bloch_ode_oracle, profile_from_gamma_z
from .mirror import feasibility_report, trajectory_from_decay
from .pulses import TimeBinSpec, make_time_bin
from .read_shaper import ReadResult, read_profile_for_target, total_efficiency
from .write_optimizer import WriteResult, optimal_write_profile

# Sampling rule, the least grid.dt_factor a config may set: dt must
# resolve both the atomic lifetime and the pulse.
DT_RULE_FACTOR = 50.0

# The write-phase grid reaches GRID_PADDING/sigma before the first bin and
# after the second, past the pulse's own window (pulses.PULSE_WINDOW).
GRID_PADDING = 8.0

# Seeded random (profile, pulse) pairs the oracle checks besides the write.
ORACLE_RANDOM_CASES = 20

# Most store timeline samples.  Measured on one worker above a 28 MB
# interpreter (numpy 2.4, ru_maxrss, three runs each): a zero-hold store at
# sigma = 0.004 peaks at 220 MB for 1,191,108 samples, and each write-phase
# sample adds about 160 B of peak RSS and 109 B of CSV, so about 3.2 GB and
# 2.2 GB at this bound.  A hold sample adds about 48 B and 53 B
# (storage_T = 1000 and 5000: 44 and 81 MB for 231,771 and 1,031,771
# samples, 70 and 53 B a sample on average), so about 1.0 GB and 1.1 GB.
# Tests and benchmarks reach 231,771.
MAX_TIMELINE_SAMPLES = 20_000_000

# Most pulse bandwidth per atomic decay rate, sigma/gamma0.  A slower atom
# stores about 404*(gamma0/sigma)^2 of the default time bin (4e-22 at this
# bound), and from about 1e150 the emitted envelope is subnormal, then zero,
# so the fidelity reads wrong, then has no value.
MAX_SIGMA_OVER_GAMMA0 = 1e12

# Most sweep points: each is a full store compute, on one core of a 2-CPU
# Xeon (numpy 2.4.6, default grid, best of 7 in one process, the heap kept
# as `sweep` keeps it) 1.1-1.6 ms near sigma = gamma0, 3.3-3.5 ms at 5*gamma0
# and 17-20 ms at 0.02*gamma0 on 164,001 samples, growing as 1/sigma below
# that, so 10,000 points run for minutes to hours, and more for days.
MAX_SWEEP_POINTS = 10_000

# JSON values a config field of each annotated type accepts.
_JSON_TYPES = {
    bool: ("true or false", bool),
    int: ("an integer", int),
    float: ("a finite number", (int, float)),
}


def _load(cls, raw: dict):
    """cls(**raw), after checking that each key names a field of cls and
    each bool/int/float field matches its annotation: a bool only from
    true/false, an int only from an integer, a float from either number
    within the float range (an integer past it would overflow), passed as a
    float.  A field typed as a dataclass (alone or `| None`) is a section:
    it is loaded from a JSON object the same way, and its errors name it.
    A key not given keeps its field default, and the other checks are left
    to cls."""
    hints = get_type_hints(cls)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    values = {}
    for key, value in raw.items():
        kind = hints[key]
        section = [t for t in get_args(kind) or (kind,) if is_dataclass(t)]
        if section:
            if not isinstance(value, dict):
                raise ValueError(
                    f"section '{key}' must be a JSON object, got {json.dumps(value)}"
                )
            try:
                value = _load(section[0], value)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"section '{key}': {exc}") from exc
        elif kind in _JSON_TYPES:
            expected, accepted = _JSON_TYPES[kind]
            if (
                isinstance(value, bool) != (kind is bool)
                or not isinstance(value, accepted)
                or (kind is float and not abs(value) <= sys.float_info.max)
            ):
                raise ValueError(f"{key} must be {expected}, got {value!r}")
            if kind is float:
                value = float(value)
        values[key] = value
    return cls(**values)


@dataclass(frozen=True)
class GridSpec:
    """Grid step: dt = min(1/gamma0, 1/sigma)/dt_factor.  The write-phase
    grid it samples reaches GRID_PADDING/sigma beyond both time bins.

    dt_factor must be at least DT_RULE_FACTOR, the resolution rule; a
    coarser grid is rejected.  The rule is not a bound on the error: the
    trapezoid-vs-RK4 population gap of the write falls as dt^2, and
    ``halfcav oracle`` (tolerance 1e-6) gives 2.68e-7 on the default config
    at the default factor 200, but 1.07e-6 at 100 and 4.28e-6 at 50, which
    fail; at 200 a single Gaussian of sigma = 1 fails too (2.60e-6).
    """

    dt_factor: float = 200.0

    def __post_init__(self):
        if self.dt_factor < DT_RULE_FACTOR:
            raise ValueError(
                f"grid.dt_factor must be at least {DT_RULE_FACTOR:g}, the resolution "
                f"rule dt <= min(1/gamma0, 1/sigma)/{DT_RULE_FACTOR:g}, got {self.dt_factor!r}"
            )


@dataclass(frozen=True)
class SweepSpec:
    sigma_min: float
    sigma_max: float
    n_points: int
    log_spacing: bool = True

    def __post_init__(self):
        if not 0 < self.sigma_min < self.sigma_max:
            raise ValueError("sweep bounds must satisfy 0 < sigma_min < sigma_max")
        if not 2 <= self.n_points <= MAX_SWEEP_POINTS:
            raise ValueError(
                f"sweep.n_points must lie in [2, {MAX_SWEEP_POINTS}], got {self.n_points}"
            )

    def sigmas(self) -> np.ndarray:
        if self.log_spacing:
            return np.geomspace(self.sigma_min, self.sigma_max, self.n_points)
        return np.linspace(self.sigma_min, self.sigma_max, self.n_points)


@dataclass(frozen=True)
class ScenarioConfig:
    memory: MemoryConfig = MemoryConfig()
    pulse: TimeBinSpec = TimeBinSpec()
    storage_T: float = 30.0
    grid: GridSpec = GridSpec()
    phase_compensation: bool = True
    sweep: SweepSpec | None = None

    def __post_init__(self):
        if self.storage_T < 0:
            raise ValueError("storage_T must be non-negative")
        # A store timeline has fewer than 2*n0 + storage_T/dt samples, with
        # n0 <= span/dt + 2 on the write-phase grid; this and sigma/gamma0
        # peak at a sweep end.
        span = self.pulse.t2 - self.pulse.t1
        ends = (self.sweep.sigma_min, self.sweep.sigma_max) if self.sweep else ()
        for sigma in (self.pulse.sigma, *ends):
            if not sigma / self.memory.gamma0 <= MAX_SIGMA_OVER_GAMMA0:
                raise ValueError(
                    f"sigma/gamma0 must be at most {MAX_SIGMA_OVER_GAMMA0:g}, got "
                    f"{sigma / self.memory.gamma0:.3g} at sigma={sigma!r}"
                )
            dt = _step(self, sigma)
            width = 2.0 * (span + 2.0 * GRID_PADDING / sigma) + self.storage_T
            samples = width / dt + 4.0 if dt else math.inf
            if not samples <= MAX_TIMELINE_SAMPLES:
                raise ValueError(
                    f"the store timeline must be finite and at most {MAX_TIMELINE_SAMPLES} "
                    f"samples, got {samples:.3g} at sigma={sigma!r} and dt={dt!r}"
                )

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object at the top level")
        return _load(ScenarioConfig, raw)

    def to_dict(self) -> dict:
        """The settable values, as accepted by ``from_dict``."""
        out = asdict(self)
        if self.sweep is None:
            del out["sweep"]
        return out


@dataclass(frozen=True)
class StoreRun:
    """All artifacts of one store/retrieve execution.

    ``write`` and ``read`` are computed on the write-phase grid, on which
    ``write.xi_in`` is the input with support [j0, j1] = ``write.support``;
    the read phase is that grid moved ``read_offset`` samples later on the
    timeline ``grid``, which ends two samples after the read support.  The
    export's columns are placed on it from the two segments on each call
    of ``timeseries_columns``, and not kept; ``record`` takes them back.
    """

    config: ScenarioConfig
    grid: TimeGrid
    write: WriteResult
    read: ReadResult
    read_offset: int
    t_mid: float

    @property
    def eta(self) -> float:
        return total_efficiency(self.write, self.read)

    @property
    def fidelity(self) -> float:
        return self.read.fidelity_vs_target

    def _placed(self, values: np.ndarray, at: int) -> np.ndarray:
        """Phase-grid values placed from timeline sample ``at`` on, zero
        elsewhere.  Samples past the timeline end are dropped: they lie
        past both supports, where both rates are zero."""
        out = np.zeros(self.grid.n, dtype=values.dtype)
        m = min(values.size, self.grid.n - at)
        out[at : at + m] = values[:m]
        return out

    def timeseries_columns(self) -> dict:
        """The timeseries.csv columns by header name, on the full timeline.

        P(t) is the write trace through the write support end, eta_w
        through the hold, eta_w*exp(-Gamma_z_r) over the read and its end
        value after it.  The rates come first, then t, the envelopes and P:
        with t built last, a storage_T = 1000 store on one worker peaked
        6 MB higher in RSS for the same bytes (numpy 2.4, glibc malloc)."""
        k = self.read_offset
        gamma_w = self._placed(self.write.profile.gamma_z, 0)
        gamma_r = self._placed(self.read.profile.gamma_z, k)
        l_over_lambda = trajectory_from_decay(gamma_w + gamma_r, self.config.memory)
        t = self.grid.times - self.t_mid
        xi_in = self._placed(self.write.xi_in.samples, 0)
        xi_out = self._placed(self.read.xi_out.samples, k)
        read_P = self.write.eta_w * np.exp(-self.read.profile.Gamma_z)
        P = self._placed(read_P, k)
        P[:k] = self.write.eta_w
        P[k + read_P.size :] = read_P[-1]
        j1 = self.write.support[1]
        P[: j1 + 1] = self.write.trace.P[: j1 + 1]
        return {
            "t": t,
            "xi_in_re": xi_in.real,
            "xi_in_im": xi_in.imag,
            "xi_out_re": xi_out.real,
            "xi_out_im": xi_out.imag,
            "gamma_z_w": gamma_w,
            "gamma_z_r": gamma_r,
            "l_over_lambda": l_over_lambda,
            "P": P,
        }

    def record(self, columns: dict) -> dict:
        """The run.json record, read off the export's ``columns``
        (``timeseries_columns``): the landmarks are the rows of t at both
        ends of the write support, the read support's start and the
        timeline's end, and the feasibility numbers are those of the
        l_over_lambda column at the timeline's step."""
        j0, j1 = self.write.support
        t = columns["t"]
        return {
            "config": self.config.to_dict(),
            "eta_w": self.write.eta_w,
            "eta_r": self.read.eta_r,
            "eta": self.eta,
            "fidelity": self.fidelity,
            "capped_w": self.write.capped,
            "capped_r": self.read.capped,
            "feasibility": feasibility_report(columns["l_over_lambda"], self.grid.dt),
            "landmarks": {
                "t_w": float(t[j0]),
                "t_w0": float(t[j1]),
                "t_r0": float(t[self.read_offset + j0]),
                "t_r": float(t[-1]),
            },
        }


def _step(cfg: ScenarioConfig, sigma: float) -> float:
    """Step resolving both the atomic lifetime and a pulse of bandwidth
    sigma, min(1/gamma0, 1/sigma)/dt_factor."""
    return min(1.0 / cfg.memory.gamma0, 1.0 / sigma) / cfg.grid.dt_factor


def default_write_grid(cfg: ScenarioConfig) -> TimeGrid:
    """The write-phase grid: the configured step from GRID_PADDING/sigma
    before the first bin through GRID_PADDING/sigma after the second, with
    the first bin at t = 0 (``_write_input``).  Every output is relative to
    t_mid, so t1 only moves the samples; far from 0 the float spacing of t
    would exceed dt (0.125 at t1 = 1e15)."""
    dt = _step(cfg, cfg.pulse.sigma)
    pad = GRID_PADDING / cfg.pulse.sigma
    t_start = -pad
    m = math.ceil((cfg.pulse.t2 - cfg.pulse.t1 + pad - t_start) / dt)
    return TimeGrid(t_start, t_start + m * dt, m + 1)


def _write_input(cfg: ScenarioConfig) -> ComplexEnvelope:
    """The input on the write-phase grid, its first bin at t = 0."""
    pulse = replace(cfg.pulse, t1=0.0, t2=cfg.pulse.t2 - cfg.pulse.t1)
    return make_time_bin(pulse, default_write_grid(cfg))


def build_store_run(cfg: ScenarioConfig) -> StoreRun:
    """Run the write/hold/read pipeline for one scenario on one phase grid.

    The write is optimized for the input on the write-phase grid g0, whose
    input support is [j0, j1].  The hold lasts round(storage_T/dt) whole
    steps, so the read phase is g0 moved k = (j1 - j0) + round(storage_T/dt)
    samples later and its target is the input itself: the read is shaped
    toward the same g0 envelope, and its support sits at [j0 + k, j1 + k]
    on the timeline.  The timeline keeps g0's start and step and ends two
    samples after the read support; past it every rate is 0 and P is flat.
    Raises RuntimeError when an uncapped read leaves more than 1e-6 of the
    stored population, eta_w*exp(-Gamma_z_r(end)), in the atom; the read
    rate is zero past its support, so no longer grid would drain it.
    """
    xi = _write_input(cfg)
    g0 = xi.grid
    w = optimal_write_profile(xi, cfg.memory, cfg.phase_compensation)
    r = read_profile_for_target(xi, w.eta_w, cfg.memory, cfg.phase_compensation)
    residual = w.eta_w * math.exp(-float(r.profile.Gamma_z[-1]))
    if not r.capped and residual > 1e-6 * w.eta_w:
        raise RuntimeError("read window failed to drain the stored population")

    j0, j1 = w.support
    dt = _step(cfg, cfg.pulse.sigma)
    hold_steps = round(cfg.storage_T / dt)
    read_offset = (j1 - j0) + hold_steps
    n = j1 + read_offset + 3
    return StoreRun(
        config=cfg,
        grid=TimeGrid(g0.t_start, g0.t_start + (n - 1) * dt, n),
        write=w,
        read=r,
        read_offset=read_offset,
        t_mid=float(g0.times[j1]) + 0.5 * hold_steps * dt,
    )


def sweep_point(cfg: ScenarioConfig, sigma: float) -> dict:
    """One bandwidth point of the efficiency sweep (pure; parallel-safe)."""
    point = replace(cfg, pulse=replace(cfg.pulse, sigma=float(sigma)), sweep=None)
    run = build_store_run(point)
    return {
        "sigma_over_gamma0": float(sigma) / cfg.memory.gamma0,
        "eta_w": run.write.eta_w,
        "eta_r": run.read.eta_r,
        "eta": run.eta,
        "F": run.fidelity,
    }


def _draw_pair(rng: np.random.Generator) -> tuple:
    """One random pair's 16 scalars, in the order the rng gives them: the
    rate's offset and its 4 (amplitude, phase) harmonics, then the
    envelope's centre, width, ripple (harmonic, phase) and phase modulation
    (amplitude, harmonic, phase)."""
    rate = (rng.normal(0.0, 0.5),
            tuple((rng.normal(0.0, 0.7), rng.uniform(0.0, 2.0 * np.pi)) for _ in range(4)))
    envelope = (rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.15),
                rng.integers(1, 4), rng.uniform(0.0, 2.0 * np.pi),
                rng.normal(0.0, 0.5), rng.integers(1, 4), rng.uniform(0.0, 2.0 * np.pi))
    return rate, envelope


def _harmonic_basis(grid: TimeGrid) -> tuple:
    """Read-only cos(k*theta) and sin(k*theta), k = 1..4, theta = 2*pi*(t - t_start)/span."""
    theta = 2.0 * np.pi * (grid.times - grid.t_start) / (grid.t_end - grid.t_start)
    return tuple((_freeze(np.cos(k * theta)), _freeze(np.sin(k * theta))) for k in range(1, 5))


def _harmonic(basis: tuple, k: int, amplitude: float, phase: float) -> np.ndarray:
    """amplitude*cos(k*theta + phase) from the basis."""
    cos_k, sin_k = basis[k - 1]
    return (amplitude * math.cos(phase)) * cos_k - (amplitude * math.sin(phase)) * sin_k


def _random_smooth_rate(draws: tuple, basis: tuple, cap: float) -> np.ndarray:
    """Band-limited random decay rate strictly inside (0, cap)."""
    offset, harmonics = draws
    series = offset
    for k, (amplitude, phase) in enumerate(harmonics, start=1):
        series = series + _harmonic(basis, k, amplitude, phase)
    return cap * 0.5 * (1.0 + np.tanh(series))


def _random_envelope(draws: tuple, grid: TimeGrid, basis: tuple) -> ComplexEnvelope:
    """Smooth normalized input with mild amplitude and phase structure."""
    at, wide, ripple_k, ripple_phase, chirp, chirp_k, chirp_phase = draws
    t = grid.times
    span = grid.t_end - grid.t_start
    center = grid.t_start + at * span
    width = wide * span
    amplitude = np.exp(-0.5 * ((t - center) / width) ** 2)
    amplitude *= 1.0 + _harmonic(basis, ripple_k, 0.25, ripple_phase)
    phase = _harmonic(basis, chirp_k, chirp, chirp_phase)
    return ComplexEnvelope(grid, polar(amplitude, phase)).normalized()


def _write_case(cfg: ScenarioConfig) -> tuple:
    """The scenario's write phase as (profile, input, quadrature P)."""
    w = optimal_write_profile(_write_input(cfg), cfg.memory, cfg.phase_compensation)
    return w.profile, w.xi_effective, w.trace.P


def _random_case(mem: MemoryConfig, grid: TimeGrid, basis: tuple, draws: tuple) -> tuple:
    """A random pair from its drawn scalars as (profile, input, quadrature P)."""
    rate, envelope = draws
    profile = profile_from_gamma_z(grid, _random_smooth_rate(rate, basis, mem.cap), mem)
    env = _random_envelope(envelope, grid, basis)
    return profile, env, absorption_probability(profile, env).P


def _case_gap(name: str, build, *args) -> dict:
    """One case whole: its arrays and quadrature P (``build(*args)``), its
    RK4, and the largest gap between the two populations."""
    profile, env, P = build(*args)
    dP = float(np.max(np.abs(P - bloch_ode_oracle(profile, env).P)))
    return {"case": name, "max_abs_dP": dP}


def _oracle_cases(cfg: ScenarioConfig, seed: int) -> list:
    """The oracle's cases in report order, each as ``_case_gap``'s arguments:
    the scenario's write phase, then ORACLE_RANDOM_CASES seeded random pairs.
    Every random number is drawn here, in order, and the shared random
    grid's read-only harmonic basis is derived here, so a case run on any
    thread reads only frozen shared state and builds the rest itself."""
    mem = cfg.memory
    rng = np.random.default_rng(seed)
    rnd_grid = TimeGrid(0.0, 20.0 / mem.gamma0, 16001)  # 20 lifetimes
    basis = _harmonic_basis(rnd_grid)
    return [("scenario_write", _write_case, cfg)] + [
        (f"random_{i:02d}", _random_case, mem, rnd_grid, basis, _draw_pair(rng))
        for i in range(ORACLE_RANDOM_CASES)
    ]


def oracle_check(cfg: ScenarioConfig, seed: int = 12345, threads: int | None = None) -> dict:
    """Cross-check the quadrature against the RK4 route.

    Compares the population traces on the scenario's write phase and on a
    batch of seeded random (profile, pulse) pairs; the check passes when
    the largest gap is at most 1e-6.

    Each case runs whole (its arrays, quadrature, RK4 and gap) as one task,
    on core.worker_count(threads, cases) threads of one pool, each peaking
    at about 3.2 MB (the write at 4.3 MB); at one, they run in this thread
    and no thread starts.  ``threads`` is the cap pool_map takes (None: no
    cap).  The random numbers are all drawn, and the random pairs' shared
    harmonic basis built, before any case runs, and the gaps are taken in
    case order, so the report does not depend on the thread count.  The
    first case that fails stops every case not yet begun; the error of the
    earliest failing case in case order leaves this function once the
    running cases are done, and the threads with it.
    """
    cases = _oracle_cases(cfg, seed)
    workers = worker_count(threads, len(cases))
    if workers <= 1:
        checks = [_case_gap(*case) for case in cases]
    else:
        # Imported here so a check without threads never loads it.
        from concurrent.futures import ThreadPoolExecutor

        failed = threading.Event()

        def whole(case):
            if failed.is_set():
                return None  # a case has failed, so no report is made
            try:
                return _case_gap(*case)
            except BaseException:
                failed.set()
                raise

        with ThreadPoolExecutor(workers) as pool:
            checks = list(pool.map(whole, cases))
    worst = max(c["max_abs_dP"] for c in checks)

    return {
        "max_abs_dP": worst,
        "tolerance": 1e-6,
        "cases": checks,
        "passed": worst <= 1e-6,
    }
