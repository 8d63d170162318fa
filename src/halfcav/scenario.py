"""End-to-end store/retrieve scenarios.

A store computes on one phase grid, the write-phase grid that spans the
padded input pulse.  The write program is optimized for the input on it;
the read is the time-reversed write (Gorshkov et al., PRL 98, 123601
(2007)) and is shaped toward the same input samples, because the read
phase is that grid moved k whole samples later on the timeline, with k
chosen so that the read support starts round(storage_T/dt) samples after
the write support ends.  The hold in between is a number: both programs
are zero outside their supports, so the atom sits at the node (gamma_z
exactly 0) and keeps the stored population eta_w.  The population through
the read is closed-form, eta_w*exp(-Gamma_z_r(t)), so no quadrature runs
on the full timeline.

The full timeline (input, both programs and their sum, the emitted
envelope and the population trace) ends two samples after the read support
and is assembled on first use, for the exports only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import cached_property
from typing import get_type_hints

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, _freeze, squared_norm
from .dynamics import absorption_probability, bloch_ode_oracle, profile_from_gamma_z
from .pulses import PULSE_WINDOW, TimeBinSpec, make_time_bin
from .read_shaper import ReadResult, read_profile_for_target, total_efficiency
from .write_optimizer import WriteResult, optimal_write_profile

SQRT_HALF = math.sqrt(0.5)

# Sampling rule: dt must resolve both the atomic lifetime and the pulse.
DT_RULE_FACTOR = 50.0

# Seeded random (profile, pulse) pairs the oracle checks besides the write.
ORACLE_RANDOM_CASES = 20

# Most store timeline samples: at 48 B of peak RSS and 61 B of CSV per timeline
# sample, about 1 GB and 1.2 GB (tests and benchmarks reach 231,771 samples).
MAX_TIMELINE_SAMPLES = 20_000_000

# Most sweep points: each is a full store compute, 3-60 ms on one core, so
# 10,000 points run for minutes to hours, and more for days.
MAX_SWEEP_POINTS = 10_000

# JSON values a config field of each annotated type accepts.
_JSON_TYPES = {
    bool: ("true or false", bool),
    int: ("an integer", int),
    float: ("a finite number", (int, float)),
}


def _typed(cls, values: dict) -> dict:
    """values with each float field of cls as a float, after checking each
    bool/int/float field against its annotation: a bool only from
    true/false, an int only from an integer, a float from either finite
    number.  Other fields are left to cls."""
    hints = get_type_hints(cls)
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
    """Grid step and padding: dt = min(1/gamma0, 1/sigma)/dt_factor, and the
    grid starts padding/sigma before the first time bin.

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
    padding: float = 8.0

    def __post_init__(self):
        if self.dt_factor < 1.0:
            raise ValueError(
                "grid.dt_factor must be at least 1 (dt <= min(1/gamma0, 1/sigma))"
            )
        if self.padding <= PULSE_WINDOW:
            raise ValueError(
                f"grid.padding must exceed {PULSE_WINDOW:g} (pulse construction window)"
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
        # n0 <= span/dt + 2 on the write-phase grid; this peaks at a sweep end.
        span = self.pulse.t2 - self.pulse.t1
        ends = (self.sweep.sigma_min, self.sweep.sigma_max) if self.sweep else ()
        for sigma in (self.pulse.sigma, *ends):
            dt = _step(self, sigma)
            width = 2.0 * (span + 2.0 * self.grid.padding / sigma) + self.storage_T
            samples = width / dt + 4.0 if dt else math.inf
            if not samples <= MAX_TIMELINE_SAMPLES:
                raise ValueError(
                    f"the store timeline must be finite and at most {MAX_TIMELINE_SAMPLES} "
                    f"samples, got {samples:.3g} at sigma={sigma!r} and dt={dt!r}"
                )
        if self.memory.gamma_prime != 0.0:
            raise ValueError(
                "memory.gamma_prime > 0 is not modelled end to end: pulse-mode "
                "coupling, environment emission, rate caps and the hold all "
                "assume gamma' = 0 (ROADMAP.md, \"Make gamma' > 0 correct "
                "end to end\"); set it to 0"
            )

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ValueError("expected a JSON object at the top level")
        unknown = sorted(set(raw) - {f.name for f in fields(ScenarioConfig)})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")

        def section(name, cls, defaults):
            try:
                return cls(**_typed(cls, {**defaults, **(raw.get(name) or {})}))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"section '{name}': {exc}") from exc

        memory = section("memory", MemoryConfig, {})
        pulse = section(
            "pulse",
            TimeBinSpec,
            {"alpha": SQRT_HALF, "beta": SQRT_HALF, "t1": 0.0, "t2": 20.0, "sigma": 0.2},
        )
        grid = section("grid", GridSpec, {})
        sweep = None
        if raw.get("sweep") is not None:
            sweep = section("sweep", SweepSpec, {})
        return ScenarioConfig(
            **{**_typed(ScenarioConfig, raw), "memory": memory, "pulse": pulse,
               "grid": grid, "sweep": sweep}
        )

    def to_dict(self) -> dict:
        """The settable values, as accepted by ``from_dict``."""

        def settable(obj):
            return {f.name: getattr(obj, f.name) for f in fields(obj) if f.init}

        out = {k: settable(v) if is_dataclass(v) else v for k, v in settable(self).items()}
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
    full-timeline columns (``xi_in``, ``xi_out``, ``gamma_w``, ``gamma_r``,
    ``gamma_z``, ``trace_total``) are assembled from the two segments on
    first use and then kept.
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

    def _on_timeline(self, values: np.ndarray, at: int) -> np.ndarray:
        """Phase-grid values placed from timeline sample ``at`` on, zero
        elsewhere.  Samples past the timeline end are dropped: they lie
        past both supports, where both rates are zero."""
        out = np.zeros(self.grid.n, dtype=values.dtype)
        m = min(values.size, self.grid.n - at)
        out[at : at + m] = values[:m]
        return out

    @cached_property
    def xi_in(self) -> ComplexEnvelope:
        return ComplexEnvelope(self.grid, self._on_timeline(self.write.xi_in.samples, 0))

    @cached_property
    def xi_out(self) -> ComplexEnvelope:
        return ComplexEnvelope(
            self.grid, self._on_timeline(self.read.xi_out.samples, self.read_offset)
        )

    @cached_property
    def gamma_w(self) -> np.ndarray:
        return _freeze(self._on_timeline(self.write.profile.gamma_z, 0))

    @cached_property
    def gamma_r(self) -> np.ndarray:
        return _freeze(self._on_timeline(self.read.profile.gamma_z, self.read_offset))

    @cached_property
    def gamma_z(self) -> np.ndarray:
        """The decay rate the mirror realizes: the write and read programs
        on one timeline.  Their supports share at most one sample (at
        storage_T = 0), where the rates add."""
        return _freeze(self.gamma_w + self.gamma_r)

    @cached_property
    def trace_total(self) -> np.ndarray:
        """P(t): the write trace through the write support end, eta_w
        through the hold, eta_w*exp(-Gamma_z_r) over the read and its end
        value after it."""
        n, k = self.grid.n, self.read_offset
        eta_w = self.write.eta_w
        read_P = eta_w * np.exp(-self.read.profile.Gamma_z)
        m = min(read_P.size, n - k)
        P = np.empty(n)
        P[:k] = eta_w
        P[k : k + m] = read_P[:m]
        P[k + m :] = read_P[-1]
        j1 = self.write.support[1]
        P[: j1 + 1] = self.write.trace.P[: j1 + 1]
        return _freeze(P)

    def record(self) -> dict:
        j0, j1 = self.write.support
        return {
            "config": self.config.to_dict(),
            "eta_w": self.write.eta_w,
            "eta_r": self.read.eta_r,
            "eta": self.eta,
            "fidelity": self.fidelity,
            "capped_w": self.write.capped,
            "capped_r": self.read.capped,
            "landmarks": {
                "t_w": float(self.write.xi_in.grid.times[j0]) - self.t_mid,
                "t_w0": float(self.write.xi_in.grid.times[j1]) - self.t_mid,
                "t_r0": float(self.grid.times[self.read_offset + j0]) - self.t_mid,
                "t_r": self.grid.t_end - self.t_mid,
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
    """The write-phase grid: the configured step from the padded pulse
    start through the padded pulse end."""
    dt = _step(cfg, cfg.pulse.sigma)
    pad = cfg.grid.padding / cfg.pulse.sigma
    t_start = cfg.pulse.t1 - pad
    m = math.ceil((cfg.pulse.t2 + pad - t_start) / dt)
    return TimeGrid(t_start, t_start + m * dt, m + 1)


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
    g0 = default_write_grid(cfg)
    xi = make_time_bin(cfg.pulse, g0)
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
    return env.with_samples(env.samples / math.sqrt(squared_norm(env)))


def oracle_check(cfg: ScenarioConfig, seed: int = 12345) -> dict:
    """Cross-check the quadrature against the RK4 route.

    Compares the population traces on the scenario's write phase and on a
    batch of seeded random (profile, pulse) pairs.  If the configured grid
    is too coarse to resolve the dynamics (dt above the min(1/gamma0,
    1/sigma)/50 rule) the pass/fail gate is skipped with a warning, since
    the discrepancy then only measures discretization order.
    """
    mem = cfg.memory
    grid = default_write_grid(cfg)
    warning = resolution_warning(cfg)
    coarse = warning is not None

    xi_in = make_time_bin(cfg.pulse, grid)
    w = optimal_write_profile(xi_in, mem, cfg.phase_compensation)
    ode = bloch_ode_oracle(w.profile, w.xi_effective)
    worst = float(np.max(np.abs(w.trace.P - ode.P)))
    checks = [{"case": "scenario_write", "max_abs_dP": worst}]

    if not coarse:
        rng = np.random.default_rng(seed)
        rnd_grid = TimeGrid(0.0, 20.0 / mem.gamma0, 16001)  # 20 lifetimes
        for i in range(ORACLE_RANDOM_CASES):
            gz = _random_smooth_rate(rng, rnd_grid, mem.cap)
            profile = profile_from_gamma_z(rnd_grid, gz, mem)
            env = _random_envelope(rng, rnd_grid)
            dP = float(
                np.max(
                    np.abs(
                        absorption_probability(profile, env).P
                        - bloch_ode_oracle(profile, env).P
                    )
                )
            )
            checks.append({"case": f"random_{i:02d}", "max_abs_dP": dP})
            worst = max(worst, dP)

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
