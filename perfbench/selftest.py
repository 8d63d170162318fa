"""Tests of the benchmark itself.

Run from the repository root with:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run: the
exact-count tests execute two full store ops and two oracle ops.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Span, Tracer, per_op_layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union counts once
        Span("c", 8.0, 12.0, parent=0),  # clipped to the parent's end
        Span("a.child", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_nests_wrapped_calls_and_aggregates_per_op():
    # op span [0, 10]; outer [1, 7]; inner [2, 5]; second op span [20, 21]
    tracer = Tracer(clock=iter([0, 1, 2, 5, 7, 10, 20, 21]).__next__)
    inner = tracer.wrap("core.cumtrapz", lambda: None)
    outer = tracer.wrap("dynamics.profile_from_gamma_z", lambda: inner())
    tracer.op = 1
    with tracer.span("op"):
        outer()
    tracer.op = 2
    with tracer.span("op"):
        pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, None]
    per_op = per_op_layer_metrics(tracer.spans)
    assert per_op[1]["op.self_s"] == 4.0
    assert per_op[1]["dynamics.profile_from_gamma_z.self_s"] == 3.0
    assert per_op[1]["core.cumtrapz.self_s"] == 3.0
    assert per_op[1]["core.cumtrapz.calls"] == 1
    assert "core.cumtrapz.calls" not in per_op[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_config(workload):
    assert workloads.make_config(workload, 7) == workloads.make_config(workload, 7)


def test_seed_draws_only_alpha_and_phi():
    a, b = workloads.time_bin(1), workloads.time_bin(2)
    assert (a["alpha"], a["phi"]) != (b["alpha"], b["phi"])
    for seed in range(50):
        pulse = workloads.time_bin(seed)
        assert 0.3 <= pulse["alpha"] <= 0.95
        assert 0.0 <= pulse["phi"] < 2.0 * math.pi
        assert pulse["alpha"] ** 2 + pulse["beta"] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert (pulse["t1"], pulse["t2"], pulse["sigma"]) == (0.0, 20.0, 0.2)
    assert workloads.make_config("store_long_hold", 3)["storage_T"] == 1000.0
    assert workloads.make_config("sweep_bandwidth", 3)["storage_T"] == 30.0


def test_sweep_check_rejects_bad_rows(tmp_path):
    header = "sigma_over_gamma0,eta_w,eta_r,eta,F\n"
    rows = [f"{5.0 - 0.1 * i},0.9,0.5,0.45,0.99\n" for i in range(16)]
    rows[3] = "4.7,0.9,0.5,0.5,0.99\n"
    (tmp_path / "sweep.csv").write_text(header + "".join(rows))
    errors, _ = workloads.check_op("sweep_bandwidth", tmp_path, "")
    assert any("ascending" in e for e in errors)
    assert any("eta_w*eta_r" in e for e in errors)


def _traced_op(argv: list[str]) -> dict:
    import halfcav.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return per_op_layer_metrics(tracer.spans)[0]


def test_store_counts_repeat_exactly(tmp_path):
    pulse = {"alpha": math.sqrt(0.5), "beta": math.sqrt(0.5), "phi": 0.0,
             "t1": 0.0, "t2": 20.0, "sigma": 0.2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pulse": pulse, "storage_T": 1000.0}))
    argv = ["store", "--config", str(config), "--out", str(tmp_path / "out")]
    runs = [_traced_op(argv) for _ in range(2)]
    for m in runs:
        assert m["scenario.build_store_run.grid_n"] == 231_771
        assert m["cli.write_csv.rows"] == 231_771
        assert m["scenario.build_store_run.read_window_attempts"] == 1
        assert m.get("dynamics.absorption_probability.loop_path_calls", 0) == 0
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")} for m in runs]
    assert counts[0] == counts[1]


def test_oracle_counts_repeat_exactly():
    runs = [_traced_op(["oracle", "--seed", "12345"]) for _ in range(2)]
    for m in runs:
        assert m["dynamics.bloch_ode_oracle.steps"] == 340_000
        assert m.get("dynamics.absorption_probability.loop_path_calls", 0) == 0
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")} for m in runs]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("length", [1190.0, 1210.0])
def test_loop_path_counter_follows_the_path_taken(monkeypatch, length):
    # Gamma_z[-1] = length, on either side of the switch to the per-sample
    # loop; only the closed-form path calls np.cumsum.
    import numpy as np
    from halfcav import dynamics
    from halfcav.core import ComplexEnvelope, MemoryConfig, TimeGrid

    grid = TimeGrid(0.0, length, 2001)
    profile = dynamics.profile_from_gamma_z(grid, np.ones(grid.n), MemoryConfig())
    env = ComplexEnvelope(grid, np.exp(-((grid.times - 5.0) ** 2)))
    cumsum_calls = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def cumsum(self, *args, **kwargs):
            cumsum_calls.append(1)
            return np.cumsum(*args, **kwargs)

    monkeypatch.setattr(dynamics, "np", Numpy())
    tracer = Tracer()
    tracer.install()
    try:
        dynamics.absorption_probability(profile, env)
    finally:
        tracer.uninstall()
    counted = per_op_layer_metrics(tracer.spans)[0]["dynamics.absorption_probability.loop_path_calls"]
    assert counted == (0 if cumsum_calls else 1)
