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
from dataclasses import asdict, dataclass, replace
from typing import get_type_hints

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid
from .dynamics import absorption_probability, bloch_ode_oracle, profile_from_gamma_z
from .mirror import feasibility_report, trajectory_from_decay
from .pulses import TimeBinSpec, make_time_bin
from .read_shaper import ReadResult, read_profile_for_target, total_efficiency
from .write_optimizer import WriteResult, optimal_write_profile

SQRT_HALF = math.sqrt(0.5)

# Sampling rule: dt must resolve both the atomic lifetime and the pulse.
DT_RULE_FACTOR = 50.0

# The write-phase grid reaches GRID_PADDING/sigma before the first bin and
# after the second, past the pulse's own window (pulses.PULSE_WINDOW).
GRID_PADDING = 8.0

# Seeded random (profile, pulse) pairs the oracle checks besides the write.
ORACLE_RANDOM_CASES = 20

# Most store timeline samples.  Measured on one worker above a 28 MB
# interpreter (numpy 2.4): a zero-hold store at sigma = 0.004 peaks at
# 237 MB for 1,191,108 samples, and each write-phase sample adds about
# 180 B of peak RSS and 109 B of CSV, so about 3.6 GB and 2.2 GB at this
# bound.  A hold sample adds about 32 B and 55 B (storage_T = 1000 and 5000:
# 44 and 68 MB for 231,771 and 1,031,771 samples, 70 and 40 B a sample on
# average), so about 0.7 GB and 1.1 GB.  Tests and benchmarks reach 231,771.
MAX_TIMELINE_SAMPLES = 20_000_000

# Most pulse bandwidth per atomic decay rate, sigma/gamma0.  A slower atom
# stores about 404*(gamma0/sigma)^2 of the default time bin (4e-22 at this
# bound), and from about 1e150 the emitted envelope is subnormal, then zero,
# so the fidelity reads wrong, then has no value.
MAX_SIGMA_OVER_GAMMA0 = 1e12

# Most sweep points: each is a full store compute, on one core (numpy 2.4,
# default grid, best of 7, the heap kept as `sweep` keeps it) about 4 ms
# near sigma = gamma0 and 27-28 ms at sigma = 0.02*gamma0 on 164,001
# samples, growing as 1/sigma below that, so 10,000 points run for minutes
# to hours, and more for days.
MAX_SWEEP_POINTS = 10_000

# JSON values a config field of each annotated type accepts.
_JSON_TYPES = {
    bool: ("true or false", bool),
    int: ("an integer", int),
    float: ("a finite number", (int, float)),
}


def _typed(cls, values: dict) -> dict:
    """values with each float field of cls as a float, after checking that
    each key names a field of cls and each bool/int/float field matches its
    annotation: a bool only from true/false, an int only from an integer, a
    float from either finite number.  Other fields are left to cls."""
    hints = get_type_hints(cls)
    unknown = sorted(set(values) - set(hints))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    out = dict(values)
    for key, value in values.items():
        kind = hints.get(key)
        if kind not in _JSON_TYPES:
            continue
        expected, accepted = _JSON_TYPES[kind]
        if (
            isinstance(value, bool) != (kind is bool)
            or not isinstance(value, accepted)
            or (kind is float and not math.isfinite(value))
        ):
            raise ValueError(f"{key} must be {expected}, got {value!r}")
        if kind is float:
            out[key] = float(value)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Grid step: dt = min(1/gamma0, 1/sigma)/dt_factor.  The write-phase
    grid it samples reaches GRID_PADDING/sigma beyond both time bins.

    The trapezoid-vs-RK4 population gap of the write falls as dt^2.
    Measured with ``halfcav oracle`` (tolerance 1e-6), the default config
    gives 2.68e-7 at the default factor 200, but 1.07e-6 at 100 and
    4.28e-6 at 50, which fail; at 200 a single Gaussian of sigma = 1 fails
    too (2.60e-6), one of sigma = 0.5 passes (9.6e-7).  So 50 is the
    resolution rule, not a bound on the gap.  Factors in [1, 50) still
    run, with a warning on stderr and the oracle gate skipped
    (``resolution_warning``).  Below 1 the step exceeds a lifetime or the
    pulse width, so the config is rejected.
    """

    dt_factor: float = 200.0

    def __post_init__(self):
        if self.dt_factor < 1.0:
            raise ValueError(
                "grid.dt_factor must be at least 1 (dt <= min(1/gamma0, 1/sigma))"
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
    memory: MemoryConfig
    pulse: TimeBinSpec
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
        top = _typed(ScenarioConfig, raw)

        def section(name, cls, defaults):
            given = raw.get(name, {})
            if not isinstance(given, dict):
                raise ValueError(
                    f"section '{name}' must be a JSON object, got {json.dumps(given)}"
                )
            try:
                return cls(**_typed(cls, {**defaults, **given}))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"section '{name}': {exc}") from exc

        memory = section("memory", MemoryConfig, {})
        pulse = section(
            "pulse",
            TimeBinSpec,
            {"alpha": SQRT_HALF, "beta": SQRT_HALF, "t1": 0.0, "t2": 20.0, "sigma": 0.2},
        )
        grid = section("grid", GridSpec, {})
        sweep = section("sweep", SweepSpec, {}) if "sweep" in raw else None
        return ScenarioConfig(
            **{**top, "memory": memory, "pulse": pulse, "grid": grid, "sweep": sweep}
        )

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


def resolution_warning(cfg: ScenarioConfig) -> str | None:
    """Why the config's grid is coarser than the resolution rule, or None.

    The rule is a ratio, dt <= min(1/gamma0, 1/sigma)/50, so it holds or
    fails for every sigma of a sweep alike."""
    if cfg.grid.dt_factor >= DT_RULE_FACTOR:
        return None
    return (
        f"grid.dt_factor={cfg.grid.dt_factor:g} is below the resolution rule "
        f"{DT_RULE_FACTOR:g} (dt <= min(1/gamma0, 1/sigma)/{DT_RULE_FACTOR:g})"
    )


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


def _random_smooth_rate(rng: np.random.Generator, grid: TimeGrid, cap: float) -> np.ndarray:
    """Band-limited random decay rate strictly inside (0, cap)."""
    t = grid.times
    span = grid.t_end - grid.t_start
    series = rng.normal(0.0, 0.5)
    for k in range(1, 5):
        series = series + rng.normal(0.0, 0.7) * np.cos(
            2.0 * np.pi * k * (t - grid.t_start) / span + rng.uniform(0.0, 2.0 * np.pi)
        )
    return cap * 0.5 * (1.0 + np.tanh(series))


def _random_envelope(rng: np.random.Generator, grid: TimeGrid) -> ComplexEnvelope:
    """Smooth normalized input with mild amplitude and phase structure."""
    t = grid.times
    span = grid.t_end - grid.t_start
    center = grid.t_start + rng.uniform(0.3, 0.7) * span
    width = rng.uniform(0.05, 0.15) * span
    body = np.exp(-0.5 * ((t - center) / width) ** 2)
    ripple = 1.0 + 0.25 * np.cos(
        2.0 * np.pi * rng.integers(1, 4) * (t - grid.t_start) / span
        + rng.uniform(0.0, 2.0 * np.pi)
    )
    phase = rng.normal(0.0, 0.5) * np.cos(
        2.0 * np.pi * rng.integers(1, 4) * (t - grid.t_start) / span
        + rng.uniform(0.0, 2.0 * np.pi)
    )
    env = ComplexEnvelope(grid, body * ripple * np.exp(1j * phase))
    # The bits of complex division by the norm (no sample is 0), at a tenth of its cost.
    return env.with_samples(env.samples * (1.0 / math.sqrt(env.norm)))


def _oracle_cases(cfg: ScenarioConfig, seed: int, random_cases: int):
    """The oracle's cases in report order, each as (name, profile, input,
    quadrature P): the scenario's write phase, then ``random_cases`` seeded
    random pairs.  Every series the RK4 reads that a profile derives on
    first use (``g`` and ``gamma_complex``; ``gamma_z`` is the profile's
    own), and the write's ``xi_effective``, is derived here, before the case
    is yielded, so a helper thread running the RK4 only reads frozen
    arrays."""
    mem = cfg.memory
    w = optimal_write_profile(_write_input(cfg), mem, cfg.phase_compensation)
    w.profile.g, w.profile.gamma_complex
    yield "scenario_write", w.profile, w.xi_effective, w.trace.P
    rng = np.random.default_rng(seed)
    rnd_grid = TimeGrid(0.0, 20.0 / mem.gamma0, 16001)  # 20 lifetimes
    for i in range(random_cases):
        gz = _random_smooth_rate(rng, rnd_grid, mem.cap)
        profile = profile_from_gamma_z(rnd_grid, gz, mem)
        env = _random_envelope(rng, rnd_grid)
        P = absorption_probability(profile, env).P
        profile.g, profile.gamma_complex
        yield f"random_{i:02d}", profile, env, P


def _rk4_gap(case) -> dict:
    """A case's largest gap between the quadrature and the RK4 population."""
    name, profile, env, P = case
    dP = float(np.max(np.abs(P - bloch_ode_oracle(profile, env).P)))
    return {"case": name, "max_abs_dP": dP}


def oracle_check(cfg: ScenarioConfig, seed: int = 12345, threads: int = 1) -> dict:
    """Cross-check the quadrature against the RK4 route.

    Compares the population traces on the scenario's write phase and on a
    batch of seeded random (profile, pulse) pairs.  If the configured grid
    is too coarse to resolve the dynamics (dt above the min(1/gamma0,
    1/sigma)/50 rule) the pass/fail gate is skipped with a warning, since
    the discrepancy then only measures discretization order.

    With ``threads`` >= 2 the check uses one helper thread, and no more: it
    runs the RK4 of each case while this thread draws the next case and runs
    its quadrature, with one case at a time in each stage.  With fewer, or
    one case, no thread starts.  The gaps are taken in case order, so the
    report does not depend on ``threads``.  An error in either route leaves
    this function once the helper's case is done, and the helper with it.
    """
    warning = resolution_warning(cfg)
    coarse = warning is not None
    cases = _oracle_cases(cfg, seed, 0 if coarse else ORACLE_RANDOM_CASES)
    if threads < 2 or coarse:
        checks = [_rk4_gap(case) for case in cases]
    else:
        # Imported here so a check without the helper never loads it.
        from concurrent.futures import ThreadPoolExecutor

        checks = []
        with ThreadPoolExecutor(1) as helper:
            pending = None
            # The next case is drawn, and its quadrature run, while the
            # helper runs the RK4 of the one before.
            for case in cases:
                if pending is not None:
                    checks.append(pending.result())
                pending = helper.submit(_rk4_gap, case)
            checks.append(pending.result())
    worst = max(c["max_abs_dP"] for c in checks)

    report = {
        "max_abs_dP": worst,
        "tolerance": 1e-6,
        "cases": checks,
        "skipped": coarse,
        "passed": (worst <= 1e-6) if not coarse else None,
    }
    if coarse:
        report["warning"] = (
            f"{warning}; discrepancy reflects discretization order, gate skipped"
        )
    return report
