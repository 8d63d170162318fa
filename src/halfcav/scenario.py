"""End-to-end store/retrieve scenarios on a common time grid.

The builder lays the timeline out in one pass: it samples the input pulse,
optimizes the write program over the pulse support, and shapes the read
program toward the input moved by a whole number of grid steps, so the read
support starts round(storage_T/dt) samples after the write support ends.
Both programs are zero outside their supports, so the atom sits at the node
(gamma_z exactly 0) throughout the storage gap by construction.  The
composite decay profile, population trace and summary record follow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np

from .core import ComplexEnvelope, MemoryConfig, TimeGrid, trapz
from .dynamics import (
    DecayProfile,
    absorption_probability,
    bloch_ode_oracle,
    profile_from_gamma_z,
)
from .pulses import TimeBinSpec, make_time_bin, shift, support_indices
from .read_shaper import ReadResult, read_profile_for_target, total_efficiency
from .write_optimizer import WriteResult, optimal_write_profile

SQRT_HALF = math.sqrt(0.5)

# Sampling rule: dt must resolve both the atomic lifetime and the pulse.
DT_RULE_FACTOR = 50.0

# JSON values a config field of each annotated type accepts.
_JSON_TYPES = {
    bool: ("true or false", bool),
    int: ("an integer", int),
    float: ("a finite number", (int, float)),
}


def _typed(cls, values: dict) -> dict:
    """values, after checking each bool/int/float field of cls against its
    annotation: a bool only from true/false, an int only from an integer, a
    float from either finite number.  Other fields are left to cls."""
    hints = get_type_hints(cls)
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
    return values


@dataclass(frozen=True)
class GridSpec:
    """Grid step and padding: dt = min(1/gamma0, 1/sigma)/dt_factor, and the
    grid starts padding/sigma before the first time bin.

    The default factor of 200 keeps the trapezoid-vs-RK4 population gap
    a few times below 1e-6; the hard floor for a resolved run is 50.
    Factors in [1, 50) still run, with the oracle gate skipped.  Below 1
    the step exceeds a lifetime or the pulse width, so the config is
    rejected.
    """

    dt_factor: float = 200.0
    padding: float = 8.0

    def __post_init__(self):
        if self.dt_factor < 1.0:
            raise ValueError(
                "grid.dt_factor must be at least 1 (dt <= min(1/gamma0, 1/sigma))"
            )
        if self.padding <= 6.0:
            raise ValueError("grid.padding must exceed 6 (pulse construction window)")


@dataclass(frozen=True)
class SweepSpec:
    sigma_min: float
    sigma_max: float
    n_points: int
    log_spacing: bool = True

    def __post_init__(self):
        if not 0 < self.sigma_min < self.sigma_max:
            raise ValueError("sweep bounds must satisfy 0 < sigma_min < sigma_max")
        if self.n_points < 2:
            raise ValueError("sweep.n_points must be at least 2")

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
        if self.memory.gamma_prime != 0.0:
            raise ValueError(
                "memory.gamma_prime > 0 is not modelled end to end: pulse-mode "
                "coupling, environment emission, rate caps and the hold all "
                "assume gamma' = 0 (ROADMAP.md item 2, \"Make gamma' > 0 correct "
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
        _typed(ScenarioConfig, raw)
        return ScenarioConfig(
            memory=memory,
            pulse=pulse,
            storage_T=float(raw.get("storage_T", 30.0)),
            grid=grid,
            phase_compensation=raw.get("phase_compensation", True),
            sweep=sweep,
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
    """All artifacts of one store/retrieve execution."""

    config: ScenarioConfig
    grid: TimeGrid
    xi_in: ComplexEnvelope
    target: ComplexEnvelope
    write: WriteResult
    read: ReadResult
    profile_total: DecayProfile
    trace_total: np.ndarray
    eta: float
    fidelity: float
    t_mid: float

    def record(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "eta_w": self.write.eta_w,
            "eta_r": self.read.eta_r,
            "eta": self.eta,
            "fidelity": self.fidelity,
            "capped_w": self.write.capped,
            "capped_r": self.read.capped,
            "landmarks": {
                "t_w": self.write.t_w - self.t_mid,
                "t_w0": self.write.t_w0 - self.t_mid,
                "t_r0": self.read.t_r0 - self.t_mid,
                "t_r": self.read.t_r - self.t_mid,
            },
        }


def _step(cfg: ScenarioConfig, factor: float) -> float:
    """Step resolving both the atomic lifetime and the pulse,
    min(1/gamma0, 1/sigma)/factor."""
    return min(1.0 / cfg.memory.gamma0, 1.0 / cfg.pulse.sigma) / factor


def default_write_grid(cfg: ScenarioConfig, t_end_min: float | None = None) -> TimeGrid:
    """Grid on the configured step from the padded pulse start through
    t_end_min (by default the padded pulse end, i.e. the write phase only)."""
    dt = _step(cfg, cfg.grid.dt_factor)
    pad = cfg.grid.padding / cfg.pulse.sigma
    t_start = cfg.pulse.t1 - pad
    if t_end_min is None:
        t_end_min = cfg.pulse.t2 + pad
    m = math.ceil((t_end_min - t_start) / dt)
    return TimeGrid(t_start, t_start + m * dt, m + 1)


def build_store_run(cfg: ScenarioConfig) -> StoreRun:
    """Run the full write/hold/read pipeline for one scenario, in one pass.

    With the input support at samples [j0, j1], the hold lasts
    round(storage_T/dt) whole steps and the read target is the input moved
    by k = (j1 - j0) + round(storage_T/dt) samples, so the read support is
    [j0 + k, j1 + k].  Write and read rates are zero outside their
    supports, so gamma_z is exactly 0 on every sample between them.
    Raises RuntimeError when an uncapped read leaves more than 1e-6 of the
    stored population in the atom at the grid end; the read rate is zero
    past its support, so no longer grid would drain it.
    """
    pulse, mem, dt = cfg.pulse, cfg.memory, _step(cfg, cfg.grid.dt_factor)

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
    grid = default_write_grid(cfg, max(t_w0 + (t_r0 - t_w) + 2.0 * dt, t_r0 + tail))

    xi_in = make_time_bin(pulse, grid)
    w = optimal_write_profile(xi_in, mem, cfg.phase_compensation)
    target = shift(xi_in, (j1 - j0) + hold_steps)
    r = read_profile_for_target(target, w.eta_w, mem, cfg.phase_compensation)
    profile_total = profile_from_gamma_z(grid, w.profile.gamma_z + r.profile.gamma_z, mem)
    trace = absorption_probability(profile_total, w.xi_effective)
    if not r.capped and trace.P[-1] > 1e-6 * w.eta_w:
        raise RuntimeError("read window failed to drain the stored population")

    return StoreRun(
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
    nrm = math.sqrt(float(trapz(np.abs(env.samples) ** 2, grid)))
    return env.with_samples(env.samples / nrm)


def oracle_check(cfg: ScenarioConfig, seed: int = 12345, n_random: int = 20) -> dict:
    """Cross-check the quadrature against the RK4 route.

    Compares the population traces on the scenario's write phase and on a
    batch of seeded random (profile, pulse) pairs.  If the configured grid
    is too coarse to resolve the dynamics (dt above the min(1/gamma0,
    1/sigma)/50 rule) the pass/fail gate is skipped with a warning, since
    the discrepancy then only measures discretization order.
    """
    mem = cfg.memory
    grid = default_write_grid(cfg)
    dt_rule = _step(cfg, DT_RULE_FACTOR)
    coarse = grid.dt > dt_rule * (1.0 + 1e-9)

    xi_in = make_time_bin(cfg.pulse, grid)
    w = optimal_write_profile(xi_in, mem, cfg.phase_compensation)
    quad = absorption_probability(w.profile, w.xi_effective)
    ode = bloch_ode_oracle(w.profile, w.xi_effective)
    worst = float(np.max(np.abs(quad.P - ode.P)))
    checks = [{"case": "scenario_write", "max_abs_dP": worst}]

    if not coarse:
        rng = np.random.default_rng(seed)
        rnd_grid = TimeGrid(0.0, 20.0, 16001)
        for i in range(n_random):
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
            f"grid dt={grid.dt:.4g} exceeds the resolution rule "
            f"{dt_rule:.4g}; discrepancy reflects discretization order, "
            "gate skipped"
        )
    return report
