"""Command-line contract: exit codes, load-time rejection, the config round
trip, the CSV number format, and byte-identical outputs across runs and
worker counts.  The per-row CSV writer kept below is the reference for the
chunked one."""
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import io
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfcav import cli, core, scenario
from halfcav.cli import main, pool_map, write_csv
from halfcav.scenario import MAX_SIGMA_OVER_GAMMA0, MAX_SWEEP_POINTS, ScenarioConfig, build_store_run

SWEEP3 = {"sigma_min": 0.1, "sigma_max": 1.0, "n_points": 3}
# A memory section away from the default: sigma_over_gamma0 reads sigma/2.
GAMMA0_2 = {"memory": {"gamma0": 2.0}, "sweep": SWEEP3}
# A time bin with alpha, beta, phi != 0 whose 20,000 hold rows (dt = 0.005)
# span several CSV chunks.
LONG_HOLD = {"pulse": {"alpha": 0.6, "beta": 0.8, "phi": 1.0}, "storage_T": 100.0}


def _reference_write_csv(path, header, columns, threads=None):
    """The per-row writer write_csv replaced: every field formatted, in this
    process whatever ``threads`` asks for."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % values for values in zip(*columns))


def cpus_allowed(n):
    """A patch that lets this process run on ``n`` CPUs, as pool_map sees it."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True)


@contextlib.contextmanager
def counted_forks():
    """The pids of the workers this process forks while the block runs."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with mock.patch.object(os, "fork", counted):
        yield forks


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a helper thread started")


def assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(tmp_path, command, config=None, out="out"):
    """Run one subcommand; ``config`` is a dict or raw JSON text."""
    argv = [command, "--out", str(tmp_path / out)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    return main(argv)


class TestConfigRejected:
    @pytest.mark.parametrize(
        "config",
        [
            "{not json",
            "[]",
            {"memory": {"gamma0": 1.0, "bogus": 1.0}},
            {"storage_t": 10.0},
            {"memory": {"tau_adjustment": 0.0}},
            {"grid": {"n_override": 1001}},
            {"phase_compensation": "false"},
            {"storage_T": "30"},
            {"storage_T": True},
            {"sweep": {**SWEEP3, "n_points": 3.5}},
            {"pulse": {"phi": "1"}},
            '{"storage_T": NaN}',
            '{"pulse": {"sigma": Infinity}}',
            {"memory": {"tau": 0.06}},
            {"memory": {"omega_a": 500.0}},
            {"memory": {"markov_limit": 0.1}},
            {"memory": False},
            {"memory": 0},
            {"memory": None},
            {"grid": ""},
            {"pulse": []},
            {"sweep": False},
            # Past the float range: float() of it would overflow.
            '{"storage_T": 1' + "0" * 400 + "}",
        ],
        ids=["invalid_json", "not_an_object", "unknown_section_key",
             "unknown_top_level_key", "tau_adjustment", "n_override",
             "bool_from_string", "float_from_string", "float_from_bool",
             "int_from_float", "section_float_from_string", "nan", "infinity",
             "tau", "omega_a", "markov_limit", "section_false", "section_zero",
             "section_null", "section_empty_string", "section_list", "sweep_false",
             "integer_past_float_range"],
    )
    def test_exit_2(self, tmp_path, config, capsys):
        assert run_cli(tmp_path, "store", config) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [({"memory": {"tau": 0.06, "gamma0": 1.0}}, "section 'memory': unknown keys ['tau']"),
         # The grid margin is a constant, GRID_PADDING, at any value.
         ({"grid": {"padding": 8}}, "section 'grid': unknown keys ['padding']"),
         ({"memory": False}, "section 'memory' must be a JSON object, got false"),
         ({"memory": None}, "section 'memory' must be a JSON object, got null"),
         ({"grid": ""}, "section 'grid' must be a JSON object, got \"\""),
         ({"sweep": False}, "section 'sweep' must be a JSON object, got false"),
         # sweep is the one section that may be None, and null still is not an object.
         ({"sweep": None}, "section 'sweep' must be a JSON object, got null"),
         ({"pulse": []}, "section 'pulse' must be a JSON object, got []")],
        ids=["removed_key", "removed_grid_padding", "false", "null", "empty_string",
             "sweep_false", "sweep_null", "list"],
    )
    def test_section_errors_name_the_section(self, tmp_path, config, message, capsys):
        assert run_cli(tmp_path, "store", config) == 2
        assert capsys.readouterr().err == f"halfcav: invalid config: {message}\n"

    @pytest.mark.parametrize("n_points", [1, MAX_SWEEP_POINTS + 1, 1_000_000_000])
    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_sweep_points_bounded_at_load(self, tmp_path, command, n_points, capsys):
        assert run_cli(tmp_path, command, {"sweep": {**SWEEP3, "n_points": n_points}}) == 2
        err = capsys.readouterr()
        assert err.err == (
            "halfcav: invalid config: section 'sweep': sweep.n_points must lie in "
            f"[2, {MAX_SWEEP_POINTS}], got {n_points}\n"
        )
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        ['{"pulse": ' + "[" * 5000 + "]" * 5000 + "}",
         '{"pulse": ' + '{"a": ' * 5000 + "0" + "}" * 5000 + "}"],
        ids=["array", "object"],
    )
    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_deep_nesting_rejected(self, tmp_path, command, config, capsys):
        # Deeper than json.load recurses: one line on stderr, not a traceback.
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith("halfcav: invalid config: maximum recursion depth exceeded")
        assert err.err.count("\n") == 1
        assert "Traceback" not in err.err
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    def test_sweep_without_sweep_section(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sweep") == 2
        assert "no sweep section" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_gamma_prime_rejected_before_compute(self, tmp_path, command, capsys):
        # The model has no gamma', so the key is unknown at any value, 0 too.
        for value in (0.1, 0):
            config = {"memory": {"gamma_prime": value}, "sweep": SWEEP3}
            assert run_cli(tmp_path, command, config) == 2
            err = capsys.readouterr()
            assert err.err == (
                "halfcav: invalid config: section 'memory': unknown keys ['gamma_prime']\n"
            )
            assert err.out == ""
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_dt_factor_below_one_rejected_before_compute(self, tmp_path, command, capsys):
        # Every factor below the resolution rule, 50, is rejected at load,
        # whatever the subcommand.
        for value in (0.3, 1, 49.999):
            config = {"grid": {"dt_factor": value}, "sweep": SWEEP3}
            assert run_cli(tmp_path, command, config) == 2
            err = capsys.readouterr()
            assert err.err == (
                "halfcav: invalid config: section 'grid': grid.dt_factor must be at "
                "least 50, the resolution rule dt <= min(1/gamma0, 1/sigma)/50, "
                f"got {float(value)!r}\n"
            )
            assert err.out == ""
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [{"storage_T": 1e308, "sweep": SWEEP3},
         # Finite at the pulse's sigma, infinite at the sweep's sigma_max.
         {"storage_T": 1e305, "sweep": {**SWEEP3, "sigma_max": 1e4}},
         # Finite, but a timeline of 2e11 or 2e302 samples.
         {"storage_T": 1e9, "sweep": SWEEP3},
         {"storage_T": 1e300, "sweep": SWEEP3},
         # No hold, but a write-phase grid of 3.2e8 or 4e10 samples.
         {"pulse": {"sigma": 1e-5}, "sweep": SWEEP3},
         {"pulse": {"t2": 1e8}, "sweep": SWEEP3},
         # The sweep's widest pulse, at sigma_min.
         {"sweep": {**SWEEP3, "sigma_min": 1e-6}}],
        ids=["pulse_sigma", "sweep_sigma_max", "finite_1e9", "finite_1e300",
             "narrow_pulse", "far_bins", "sweep_sigma_min"],
    )
    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_infinite_hold_rejected_before_compute(self, tmp_path, command, config, capsys):
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith(
            "halfcav: invalid config: the store timeline must be finite and at most"
        )
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [{"memory": {"gamma0": 1e-200}, "sweep": SWEEP3},
         # sigma/gamma0 is 2e11 at the pulse's sigma, 1e13 at the sweep's sigma_max.
         {"memory": {"gamma0": 1e-12}, "sweep": {**SWEEP3, "sigma_max": 10.0}}],
        ids=["pulse_sigma", "sweep_sigma_max"],
    )
    @pytest.mark.parametrize("command", ["store", "sweep", "oracle"])
    def test_slow_atom_rejected_before_compute(self, tmp_path, command, config, capsys):
        # Past the bound the stored and emitted amplitudes underflow.
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith(
            f"halfcav: invalid config: sigma/gamma0 must be at most {MAX_SIGMA_OVER_GAMMA0:g}, got "
        )
        assert err.err.count("\n") == 1
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, threads",
        [pytest.param("sweep", t, id=t) for t in ["abc", "1.5", "0", "-3"]]
        + [pytest.param(c, t, id=f"{c}-{t}")
           for c in ["store", "oracle"] for t in ["abc", "0"]],
    )
    def test_bad_thread_count_rejected_before_compute(
        self, tmp_path, command, threads, capsys, monkeypatch
    ):
        def compute(*args, **kwargs):
            raise AssertionError("computed before HALFCAV_THREADS was checked")

        monkeypatch.setattr(cli, "build_store_run", compute)
        monkeypatch.setattr(cli, "oracle_check", compute)
        monkeypatch.setenv("HALFCAV_THREADS", threads)
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 2
        err = capsys.readouterr()
        assert err.err == (
            f"halfcav: HALFCAV_THREADS must be a positive integer, got '{threads}'\n"
        )
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_seed_only_on_oracle(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert err.err.endswith("error: --seed must be non-negative\n")
        assert err.out == ""

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "command, blocked",
        [("store", "timeseries.csv"), ("store", "run.json"), ("sweep", "sweep.csv")],
    )
    def test_unwritable_output_exits_2(self, tmp_path, command, blocked, threads,
                                       capsys, monkeypatch):
        # A directory where an output file goes: open() fails after the compute.
        monkeypatch.setenv("HALFCAV_THREADS", threads)
        (tmp_path / "out" / blocked).mkdir(parents=True)
        with cpus_allowed(2):
            assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 2
        err = capsys.readouterr()
        assert err.err.startswith("halfcav: cannot write the outputs: ")
        assert err.err.count("\n") == 1
        assert blocked in err.err
        assert err.out == ""

    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_out_naming_a_file_rejected_before_compute(self, tmp_path, command, capsys, monkeypatch):
        def compute(*args, **kwargs):
            raise AssertionError("computed before the output directory was made")

        monkeypatch.setattr(cli, "build_store_run", compute)
        monkeypatch.setattr(cli, "emit_sweep", compute)
        (tmp_path / "out").write_text("")
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 2
        err = capsys.readouterr()
        assert err.err.startswith("halfcav: cannot create the output directory: ")
        assert err.err.count("\n") == 1
        assert err.out == ""
        assert (tmp_path / "out").read_text() == ""


def read_columns(path):
    """The columns of an exported CSV by header name, as floats."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return dict(zip(header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T))


@st.composite
def store_configs(draw):
    """Accepted configs over every key a store reads, storage_T = 0 drawn
    often, on timelines of at most about 42,000 samples."""
    alpha = draw(st.floats(0.2, 0.98))
    pulse = {"alpha": alpha, "beta": math.sqrt(1.0 - alpha * alpha),
             "phi": draw(st.floats(0.0, 2.0 * math.pi)), "t1": 0.0,
             "t2": draw(st.floats(1.0, 10.0)), "sigma": draw(st.floats(0.5, 5.0))}
    return {
        "memory": {"gamma0": draw(st.floats(0.5, 2.0))},
        "pulse": pulse,
        "storage_T": draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0))),
        "grid": {"dt_factor": draw(st.floats(50.0, 200.0))},
        "phase_compensation": draw(st.booleans()),
    }


def check_run_json_reads_the_export(tmp_path, config):
    """run.json reads the export: each landmark is its row of t, and the
    peak speed and displacement are the peak of np.gradient, on the
    timeline's step in lifetimes (dt * gamma0), and the max of the exported
    mirror program, bit for bit."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli(tmp_path, "store", config) == 0
    record = json.loads(stdout.getvalue())
    assert record == json.loads((tmp_path / "out" / "run.json").read_text())
    store = read_columns(tmp_path / "out" / "timeseries.csv")
    run = build_store_run(ScenarioConfig.from_dict(config))
    j0, j1 = run.write.support
    rows = {"t_w": j0, "t_w0": j1, "t_r0": run.read_offset + j0, "t_r": -1}
    assert record["landmarks"] == {key: store["t"][row] for key, row in rows.items()}
    l_over_lambda = store["l_over_lambda"]
    v_max = np.abs(np.gradient(l_over_lambda, run.grid.dt * run.config.memory.gamma0)).max()
    assert record["feasibility"]["v_max_lambda_gamma0"] == v_max
    assert record["feasibility"]["l_max_over_lambda"] == l_over_lambda.max()
    return store


@pytest.mark.parametrize("config", [{}, {"storage_T": 0, "pulse": {"sigma": 4}}],
                         ids=["default", "shared_sample"])
def test_run_json_v_max_is_the_timeline_peak_speed(tmp_path, config):
    store = check_run_json_reads_the_export(tmp_path, config)
    # shared_sample: the write and the read support share a sample; the
    # default config's do not.
    shared = (store["gamma_z_w"] > 0.0) & (store["gamma_z_r"] > 0.0)
    assert shared.any() == ("storage_T" in config)


@settings(max_examples=20, deadline=None)
@given(config=store_configs())
# The write-phase grid's step and the timeline's differ in the last bit.
@example(config={"storage_T": 0, "pulse": {"sigma": 5, "t2": 1.0}})
def test_run_json_reads_the_export_on_any_store_config(tmp_path_factory, config):
    # One worker keeps each of the many examples light.
    with mock.patch.dict(os.environ, {"HALFCAV_THREADS": "1"}):
        check_run_json_reads_the_export(tmp_path_factory.mktemp("store"), config)


def test_one_mirror_program_per_store(tmp_path, monkeypatch):
    # The export builds the mirror program once and run.json reads it off
    # the export; a sweep point builds none.
    calls = []
    original = scenario.trajectory_from_decay

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "trajectory_from_decay", spy)
    cfg = ScenarioConfig.from_dict({})
    cli.emit_store(build_store_run(cfg), tmp_path, threads=1)
    assert len(calls) == 1
    scenario.sweep_point(cfg, 1.0)
    assert len(calls) == 1


def test_pulse_far_from_zero_gives_the_default_outputs(tmp_path, capsys):
    # At t1 = 1e15 the float spacing of t is 0.125, 25 steps of dt; the
    # write-phase grid starts GRID_PADDING/sigma before the first bin at t = 0
    # wherever t1 lies, so only the config echo in run.json moves.
    far = {"pulse": {"t1": 1e15, "t2": 1000000000000020.0}}
    for name, config in [("default", {}), ("far", far)]:
        assert run_cli(tmp_path, "store", config, out=name) == 0
    capsys.readouterr()
    default = (tmp_path / "default" / "timeseries.csv").read_bytes()
    assert default == (tmp_path / "far" / "timeseries.csv").read_bytes()
    default, far_run = (json.loads((tmp_path / name / "run.json").read_text())
                        for name in ("default", "far"))
    assert far_run.pop("config")["pulse"]["t1"] == 1e15
    default.pop("config")
    assert far_run == default


def test_slow_atom_timeline_ends_after_the_read(tmp_path):
    # gamma0 = 1e-6, a lifetime of 1e6: the timeline still ends two samples
    # after the read support, 7,556 samples on the pulse's step.
    assert run_cli(tmp_path, "store", {"memory": {"gamma0": 1e-6}}) == 0
    rows = (tmp_path / "out" / "timeseries.csv").read_text().count("\n") - 1
    assert rows == 7_556


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    # pool_map forks its workers itself, so neither importing the CLI nor
    # running store or sweep, at one worker or at two, loads a
    # concurrent.futures or multiprocessing module.  Only the oracle with
    # more than one worker starts a thread pool, so neither does an oracle
    # run with HALFCAV_THREADS=1.
    (tmp_path / "sweep.json").write_text(json.dumps({"sweep": SWEEP3}))
    code = (
        "import contextlib, io, os, sys, halfcav.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))]\n"
        "print(loaded())\n"
        "for threads in ('1', '2'):\n"
        "    os.environ['HALFCAV_THREADS'] = threads\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if threads == '1':\n"
        "            assert halfcav.cli.main(['oracle']) == 0\n"
        "        assert halfcav.cli.main(['store', '--out', sys.argv[1] + '/store' + threads]) == 0\n"
        "        assert halfcav.cli.main(['sweep', '--config', sys.argv[1] + '/sweep.json',\n"
        "                                 '--out', sys.argv[1] + '/sweep' + threads]) == 0\n"
        "    print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout == "[]\n[]\n[]\n"
    for name in ("store2/timeseries.csv", "store2/run.json", "sweep2/sweep.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("2", "1")).read_bytes()


@st.composite
def settable_configs(draw):
    """Accepted configs that set every settable value, with or without a
    sweep section."""
    alpha = draw(st.floats(-1.0, 1.0))
    t1 = draw(st.floats(-100.0, 100.0))
    raw = {
        "memory": {"gamma0": draw(st.floats(0.3, 3.0))},
        "pulse": {"alpha": alpha,
                  "beta": draw(st.sampled_from([1.0, -1.0])) * math.sqrt(1.0 - alpha * alpha),
                  "t1": t1, "t2": t1 + draw(st.floats(0.5, 100.0)),
                  "sigma": draw(st.floats(0.05, 5.0)), "phi": draw(st.floats(-10.0, 10.0))},
        "storage_T": draw(st.floats(0.0, 1000.0)),
        "grid": {"dt_factor": draw(st.floats(50.0, 400.0))},
        "phase_compensation": draw(st.booleans()),
    }
    if draw(st.booleans()):
        sigma_min = draw(st.floats(0.01, 1.0))
        raw["sweep"] = {"sigma_min": sigma_min,
                        "sigma_max": sigma_min * draw(st.floats(1.5, 10.0)),
                        "n_points": draw(st.integers(2, MAX_SWEEP_POINTS)),
                        "log_spacing": draw(st.booleans())}
    return raw


def assert_round_trip(raw):
    cfg = ScenarioConfig.from_dict(raw)

    def overlay(base, top):
        return {**base, **{k: overlay(base[k], v) if isinstance(v, dict) else v
                           for k, v in top.items()}}

    # Every value given is kept as given.
    assert overlay(cfg.to_dict(), raw) == cfg.to_dict()
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestConfigRoundTrip:
    @pytest.mark.parametrize("raw", [{}, GAMMA0_2], ids=["default", "gamma0"])
    def test_from_dict_inverts_to_dict(self, raw):
        assert_round_trip(raw)

    @settings(deadline=None)
    @given(raw=settable_configs())
    def test_from_dict_inverts_to_dict_on_any_settable_config(self, raw):
        assert_round_trip(raw)

    def test_empty_config_is_the_default(self):
        assert ScenarioConfig.from_dict({}) == ScenarioConfig()

    def test_float_fields_accept_integers(self):
        default = ScenarioConfig.from_dict({})
        for raw in [
            {"storage_T": 30, "pulse": {"t1": 0, "t2": 20}},
            {"pulse": {"t1": 0, "t2": 20}, "memory": {"gamma0": 1}, "grid": {"dt_factor": 200}},
        ]:
            cfg = ScenarioConfig.from_dict(raw)
            assert cfg == default
            # The config echo in run.json prints the same bytes too.
            assert json.dumps(cfg.to_dict()) == json.dumps(default.to_dict())

    def test_sweep_keeps_the_memory_section(self, tmp_path):
        # The sigma column is sigma/gamma0 at gamma0 = 2, on either spacing.
        for log_spacing, spacing in [(True, np.geomspace), (False, np.linspace)]:
            config = {**GAMMA0_2, "sweep": {**SWEEP3, "log_spacing": log_spacing}}
            out = f"log_spacing_{log_spacing}"
            assert run_cli(tmp_path, "sweep", config, out=out) == 0
            lines = (tmp_path / out / "sweep.csv").read_text().splitlines()
            sigmas = [float(line.split(",")[0]) for line in lines[1:]]
            assert sigmas == [s / 2.0 for s in spacing(0.1, 1.0, 3)]

    def test_store_at_gamma0_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, "store", {"memory": {"gamma0": 2}}) == 0
        assert json.loads(capsys.readouterr().out)["config"]["memory"] == {"gamma0": 2.0}


class TestSettableSurface:
    """Every option and config key a user can set; a new knob edits this list."""

    @pytest.mark.parametrize(
        "command, options",
        [("store", []), ("sweep", []), ("oracle", ["--seed"])],
    )
    def test_subcommand_options(self, command, options, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        found = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert found == {"-h", "--help", "--config", "--out", *options}

    def test_mirror_subcommand_exits_2(self, tmp_path, capsys):
        # Its feasibility numbers are in store's run.json.
        with pytest.raises(SystemExit) as exc:
            main(["mirror", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'mirror'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_keys(self):
        def keys(d):
            return {k: keys(v) if isinstance(v, dict) else None for k, v in d.items()}

        assert keys(ScenarioConfig.from_dict({"sweep": SWEEP3}).to_dict()) == {
            "memory": dict.fromkeys(["gamma0"]),
            "pulse": dict.fromkeys(["alpha", "beta", "t1", "t2", "sigma", "phi"]),
            "storage_T": None,
            "grid": dict.fromkeys(["dt_factor"]),
            "phase_compensation": None,
            "sweep": dict.fromkeys(["sigma_min", "sigma_max", "n_points", "log_spacing"]),
        }


    def test_readme_config_table_names_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
        # Each key with its default cell: one per key, or one for the row.
        named = {}
        for row in table.splitlines()[1:]:
            keys_cell, default_cell = row.split("|")[1:3]
            names = re.findall(r"`([^`]+)`", keys_cell)
            cells = [cell.strip() for cell in default_cell.split(",")]
            assert len(cells) in (1, len(names)), row
            named.update(zip(names, cells * len(names) if len(cells) == 1 else cells))

        def dotted(d, prefix=""):
            for k, v in d.items():
                yield from dotted(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]

        keys = dotted(ScenarioConfig.from_dict({"sweep": SWEEP3}).to_dict())
        assert sorted(named) == sorted(keys)

        # The defaults are the dataclass fields': ScenarioConfig() outside
        # the sweep, SweepSpec's field defaults inside, "required" where a
        # field has none.
        sweep = {f.name: f.default for f in dataclasses.fields(scenario.SweepSpec)}
        for key, cell in named.items():
            section, _, name = key.rpartition(".")
            if section == "sweep":
                expected = "required" if sweep[name] is dataclasses.MISSING else sweep[name]
            else:
                expected = functools.reduce(getattr, key.split("."), ScenarioConfig())
            given = {"√½": math.sqrt(0.5), "required": "required"}.get(cell) or json.loads(cell)
            assert (key, type(given), given) == (key, type(expected), expected)


class TestOracle:
    def test_default_passes(self, tmp_path, capsys):
        assert run_cli(tmp_path, "oracle") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert set(report) == {"cases", "max_abs_dP", "passed", "tolerance"}

    @pytest.mark.parametrize("threads, cap", [("", None), ("1", 1), ("25", 25)])
    def test_hands_the_parsed_cap_to_oracle_check(self, tmp_path, threads, cap, capsys, monkeypatch):
        # The cap reaches oracle_check as it reaches pool_map, unclipped by
        # the usable CPUs: core.worker_count clips it for both.
        caps = []

        def recorded(cfg, seed, threads):
            caps.append(threads)
            return {"passed": True}

        monkeypatch.setenv("HALFCAV_THREADS", threads)
        monkeypatch.setattr(cli, "oracle_check", recorded)
        with cpus_allowed(2):
            assert main(["oracle", "--out", str(tmp_path / "out")]) == 0
        assert caps == [cap]
        assert json.loads(capsys.readouterr().out) == {"passed": True}


class TestResolutionWarning:
    # No grid warns: one below the resolution rule exits 2 at load
    # (TestConfigRejected), and one at or above it runs silently.
    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_default_grid_is_silent(self, tmp_path, command, capsys):
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_dt_factor_at_the_rule_accepted(self, tmp_path, command, capsys, monkeypatch):
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        config = {"grid": {"dt_factor": 50}, "sweep": SWEEP3}
        assert run_cli(tmp_path, command, config) == 0
        assert capsys.readouterr().err == ""
        assert any((tmp_path / "out").iterdir())


class TestDeterministicOutput:
    @pytest.mark.parametrize("command, files", [("store", ["timeseries.csv", "run.json"])])
    def test_two_runs_byte_identical(self, tmp_path, command, files):
        assert run_cli(tmp_path, command, out="a") == 0
        assert run_cli(tmp_path, command, out="b") == 0
        for name in files:
            first = (tmp_path / "a" / name).read_bytes()
            assert first and first == (tmp_path / "b" / name).read_bytes()

    def test_oracle_stdout_byte_identical(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            assert main(["oracle", "--seed", "7", "--out", str(tmp_path / "out")]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]
        assert json.loads(outputs[0])["passed"] is True

    @pytest.mark.parametrize("seed", ["12345", "7"])
    def test_oracle_stdout_independent_of_worker_count(self, tmp_path, seed, capsys, monkeypatch):
        # Two and three workers run the cases on a pool of two and three
        # threads; one usable CPU or HALFCAV_THREADS=1 starts none.  None
        # forks a process.
        started = []

        class CountedHelper(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        outputs = {}
        for name, threads, cpus, helper in [("one_thread", "1", 3, NoThread),
                                            ("two_threads", "2", 3, CountedHelper),
                                            ("three_threads", "3", 3, CountedHelper),
                                            ("one_cpu", "", 1, NoThread)]:
            monkeypatch.setenv("HALFCAV_THREADS", threads)
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", helper)
            with cpus_allowed(cpus), counted_forks() as forks:
                assert main(["oracle", "--seed", seed, "--out", str(tmp_path / "out")]) == 0
            assert forks == [], name
            outputs[name] = capsys.readouterr().out
        assert started == [(2,), (3,)]
        assert len(set(outputs.values())) == 1
        assert json.loads(outputs["one_thread"])["passed"] is True

    def test_sweep_independent_of_worker_count(self, tmp_path, monkeypatch):
        config = {"sweep": SWEEP3}
        outputs = []
        for threads in ["1", "2", "3"]:
            monkeypatch.setenv("HALFCAV_THREADS", threads)
            with cpus_allowed(3), counted_forks() as forks:
                assert run_cli(tmp_path, "sweep", config, out=threads) == 0
            assert len(forks) == int(threads) - 1
            assert_no_child_left()
            outputs.append((tmp_path / threads / "sweep.csv").read_bytes())
        assert outputs[0].count(b"\n") == 4
        assert outputs == [outputs[0]] * 3


# Runs main in a fresh interpreter, with _keep_freed_heap replaced by a stub
# when the first argument is "stub": the glibc setting lasts for the life of
# the process, so a run in this one would keep whatever an earlier test set.
FRESH_MAIN = (
    "import sys, halfcav.cli as cli\n"
    "if sys.argv[1] == 'stub':\n"
    "    cli._keep_freed_heap = lambda: False\n"
    "raise SystemExit(cli.main(sys.argv[2:]))\n"
)


def fresh_interpreter(args, threads="1"):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "HALFCAV_THREADS": threads}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


class TestKeptHeap:
    """sweep and oracle keep glibc's freed heap; store does not, and no output
    depends on it."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_outputs_do_not_depend_on_it(self, tmp_path, threads):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep": SWEEP3}))
        outputs = {}
        for mode in ("stub", "kept"):
            fresh_interpreter(["-c", FRESH_MAIN, mode, "sweep", "--config", str(config),
                               "--out", str(tmp_path / mode)], threads)
            oracle = fresh_interpreter(["-c", FRESH_MAIN, mode, "oracle", "--seed", "7"], threads)
            outputs[mode] = ((tmp_path / mode / "sweep.csv").read_bytes(), oracle.stdout)
        assert outputs["stub"][0].count(b"\n") == 4
        assert json.loads(outputs["stub"][1])["passed"] is True
        assert outputs["stub"] == outputs["kept"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_sets_both_options_on_glibc(self):
        done = fresh_interpreter(["-c", "import halfcav.cli as cli; print(cli._keep_freed_heap())"])
        assert done.stdout == "True\n"

    @pytest.mark.parametrize("command, calls", [("store", 0), ("sweep", 1), ("oracle", 1)])
    def test_only_sweep_and_oracle_set_it_once(self, tmp_path, command, calls, monkeypatch):
        # Through a stand-in glibc, so this process keeps its own settings:
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX, once a run.
        settings = []
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36", raising=False)
        libc_symbols = types.SimpleNamespace(mallopt=lambda *setting: settings.append(setting) or 1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc_symbols)
        monkeypatch.setenv("HALFCAV_THREADS", "0")
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 2
        assert settings == []
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 0
        assert settings == [(-3, 32 << 20), (-1, 64 << 20), (-8, 1)] * calls

    @pytest.mark.parametrize("libc", ["no_confstr", "unknown_name", "not_glibc",
                                      "no_mallopt", "mallopt_fails"])
    def test_any_other_libc_sets_nothing_and_changes_nothing(
        self, tmp_path, libc, monkeypatch, capsys
    ):
        def outputs(out):
            codes = (run_cli(tmp_path, "sweep", {"sweep": SWEEP3}, out=out),
                     main(["oracle", "--seed", "7"]))
            return codes, (tmp_path / out / "sweep.csv").read_bytes(), capsys.readouterr().out

        with mock.patch.object(cli, "_keep_freed_heap", lambda: False):
            reference = outputs("stub")

        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        if libc == "no_confstr":
            monkeypatch.delattr(os, "confstr", raising=False)
        elif libc == "unknown_name":
            monkeypatch.setattr(os, "confstr", unknown_name)
        elif libc == "not_glibc":
            monkeypatch.setattr(os, "confstr", lambda name: None)
        else:
            monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
            libc_symbols = types.SimpleNamespace()
            if libc == "mallopt_fails":
                libc_symbols.mallopt = lambda param, value: 0
            monkeypatch.setattr(ctypes, "CDLL", lambda name: libc_symbols)
        assert cli._keep_freed_heap() is False
        assert outputs("other") == reference
        assert reference[0] == (0, 0)


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        # 17 significant digits in Python's repr-style "g" format: signed
        # zero, subnormals and the switch to exponent notation at 1e17.
        values = [-0.0, 5e-324, 1.0 / 3.0, -2.5e-17, 1e16, 1.2345678901234568e17]
        write_csv(tmp_path / "one.csv", ["x"], [np.array(values)])
        assert (tmp_path / "one.csv").read_bytes() == (
            b"x\n-0\n4.9406564584124654e-324\n0.33333333333333331\n"
            b"-2.4999999999999999e-17\n10000000000000000\n1.2345678901234568e+17\n"
        )
        assert all(
            line == format(v, ".17g")
            for line, v in zip((tmp_path / "one.csv").read_text().split()[1:], values)
        )

    @pytest.mark.parametrize(
        "header, columns",
        [(["a", "b"], [[1.0, 2.0], [3.0]]), (["a", "b", "c"], [[1.0, 2.0], [3.0, 4.0]]),
         (["a"], [[1.0], [2.0]])],
        ids=["unequal_lengths", "header_longer", "header_shorter"],
    )
    def test_mismatched_columns_rejected(self, tmp_path, header, columns):
        # Neither a truncated column nor a header over rows of another width.
        with pytest.raises(ValueError, match="header names for columns of lengths"):
            write_csv(tmp_path / "bad.csv", header, columns)
        assert not (tmp_path / "bad.csv").exists()

    def test_two_columns_from_array_and_list(self, tmp_path):
        write_csv(tmp_path / "two.csv", ["a", "b"], [np.array([1.5, -0.0]), [1.0 / 3.0, 1.5e-323]])
        assert (tmp_path / "two.csv").read_bytes() == (
            b"a,b\n1.5,0.33333333333333331\n-0,1.4821969375237396e-323\n"
        )


# Field values that stress the format: signed zeros, subnormals, the largest
# and infinite magnitudes, NaN, besides any float.
CSV_FIELDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308]),
    st.floats(width=64),
)


@st.composite
def csv_columns(draw):
    """Columns whose rows come in runs that repeat one tail while the first
    field moves, as list or as array columns."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        tail = draw(st.lists(CSV_FIELDS, min_size=width - 1, max_size=width - 1))
        heads = draw(st.lists(CSV_FIELDS, min_size=1, max_size=9))
        rows += [[head, *tail] for head in heads]
    columns = [list(column) for column in zip(*rows)]
    return columns if draw(st.booleans()) else [np.array(c) for c in columns]


class TestChunkedWriteCsv:
    """write_csv writes the reference writer's bytes."""

    @staticmethod
    def assert_reference_bytes(directory, columns, threads=1):
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(directory / "new.csv", header, columns, threads)
        _reference_write_csv(directory / "reference.csv", header, columns)
        assert (directory / "new.csv").read_bytes() == (directory / "reference.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(columns=csv_columns(), chunk=st.integers(1, 8), block=st.integers(1, 16),
           threads=st.just(1))
    # A few examples on two workers: the pooled path.
    @example(columns=[[1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 0.0, -0.0]], chunk=3, block=8192,
             threads=2)
    @example(columns=[[1.0, 2.0, 3.0], [5e-324, 5e-324, -5e-324], [0.0, 0.0, 0.0]],
             chunk=2, block=8192, threads=2)
    @example(columns=[np.arange(11.0), np.repeat([0.5, -0.0, 0.0], [4, 4, 3])],
             chunk=1, block=8192, threads=2)
    @example(columns=[[0.5]], chunk=1, block=8192, threads=1)
    # A kernel block edge inside a row, inside a repeat run, and on the last
    # row of a changed run, whose tail the repeat run after it reuses.
    @example(columns=[np.arange(9.0), np.repeat([1.0, 2.0, 3.0], [1, 1, 7]),
                      np.repeat([0.5, -0.0, 0.0], [1, 1, 7])], chunk=9, block=4, threads=1)
    def test_reference_bytes(self, tmp_path_factory, columns, chunk, block, threads):
        # Small chunks put the runs across chunk boundaries, and small
        # kernel blocks put block edges inside rows and runs.
        with (mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk),
              mock.patch.object(cli, "CSV_FORMAT_BLOCK", block), cpus_allowed(2)):
            self.assert_reference_bytes(tmp_path_factory.mktemp("csv"), columns, threads)

    @pytest.mark.parametrize("width", [1, 3])
    def test_runs_across_the_real_chunk_size(self, tmp_path, width):
        # Runs of repeated tails that start before and end after a boundary
        # of CSV_CHUNK_ROWS rows, and tails that alternate -0.0 / 0.0.
        n = 3 * cli.CSV_CHUNK_ROWS + 7
        t = np.linspace(-1.0, 1.0, n)
        run = np.repeat(np.arange(0.0, 1.0, 1.0 / 5), -(-n // 5))[:n]
        zeros = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        zeros[cli.CSV_CHUNK_ROWS - 100: 2 * cli.CSV_CHUNK_ROWS + 100] = -0.0
        columns = [t, run / 3.0, zeros][:width]
        self.assert_reference_bytes(tmp_path, columns)

    @pytest.mark.parametrize("command, files", [("store", ["timeseries.csv", "run.json"])])
    def test_long_hold_exports_match_the_reference_writer(
        self, tmp_path, command, files, capsys, monkeypatch
    ):
        # The same bytes in this process alone and with one or two forked
        # workers.
        stdout = {}
        for threads in ["1", "2", "3"]:
            monkeypatch.setenv("HALFCAV_THREADS", threads)
            with cpus_allowed(3), counted_forks() as forks:
                assert run_cli(tmp_path, command, LONG_HOLD, out=threads) == 0
            stdout[threads] = capsys.readouterr().out
            assert len(forks) == int(threads) - 1
            assert_no_child_left()
        with mock.patch.object(cli, "write_csv", _reference_write_csv):
            assert run_cli(tmp_path, command, LONG_HOLD, out="reference") == 0
        reference = capsys.readouterr().out
        assert reference and stdout == dict.fromkeys(["1", "2", "3"], reference)
        for name in files:
            expected = (tmp_path / "reference" / name).read_bytes()
            for threads in ["1", "2", "3"]:
                assert (tmp_path / threads / name).read_bytes() == expected
        # The repeated tails (the hold) span several chunks.
        rows = (tmp_path / "2" / files[0]).read_text().splitlines()[1:]
        tails = [row.partition(",")[2] for row in rows]
        repeats = sum(a == b for a, b in zip(tails, tails[1:]))
        assert repeats > 3 * cli.CSV_CHUNK_ROWS


# The widest "%.17g" fields of a float64, 24 bytes each.
WIDEST_FIELDS = (-2.2250738585072014e-308, -1.7976931348623157e+308)


def logged_pwrite(log):
    """os.pwrite that first appends "offset length" to ``log``, from this
    process or a pool worker."""
    real = os.pwrite

    def pwrite(fd, data, offset):
        entry = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(entry, b"%d %d\n" % (offset, len(data)))
        finally:
            os.close(entry)
        return real(fd, data, offset)

    return pwrite


class TestCsvRegions:
    """Each chunk's worker writes it into its own region of a temporary file
    beside the CSV, and only the CSV is left."""

    @staticmethod
    def widest_columns():
        n = 2 * cli.CSV_CHUNK_ROWS + 5
        fields = np.resize(WIDEST_FIELDS, 3 * n).reshape(n, 3)
        return list(fields.T)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_widest_fields_fill_adjacent_regions(self, tmp_path, threads, monkeypatch):
        # Every field 24 bytes: each chunk fills its region exactly, and the
        # next region starts where it ends.
        columns = self.widest_columns()
        monkeypatch.setattr(os, "pwrite", logged_pwrite(tmp_path / "writes.log"))
        with cpus_allowed(2):
            TestChunkedWriteCsv.assert_reference_bytes(tmp_path, columns, threads)
        writes = sorted(tuple(map(int, line.split()))
                        for line in (tmp_path / "writes.log").read_text().splitlines())
        n = len(columns[0])
        starts = range(0, n, cli.CSV_CHUNK_ROWS)
        assert [offset for offset, _ in writes] == [3 * cli.CSV_FIELD_BYTES * row for row in starts]
        assert [offset + length for offset, length in writes] == [
            3 * cli.CSV_FIELD_BYTES * row for row in [*starts[1:], n]
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_longer_than_its_region_raises(self, tmp_path, threads, monkeypatch):
        monkeypatch.setattr(cli, "CSV_FIELD_BYTES", 24)
        monkeypatch.setattr(os, "pwrite", logged_pwrite(tmp_path / "writes.log"))
        region = cli.CSV_CHUNK_ROWS * 3 * 24
        with cpus_allowed(2), pytest.raises(RuntimeError, match=f"CSV bytes for a {region}-byte region"):
            write_csv(tmp_path / "new.csv", ["a", "b", "c"], self.widest_columns(), threads)
        assert not (tmp_path / "writes.log").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_short_write_exits_2_and_leaves_only_the_csv(self, tmp_path, threads, capsys, monkeypatch):
        # Every chunk but the first is written one byte short.
        real = os.pwrite
        monkeypatch.setattr(os, "pwrite",
                            lambda fd, data, offset: real(fd, data[:-1] if offset else data, offset))
        monkeypatch.setenv("HALFCAV_THREADS", threads)
        with cpus_allowed(2):
            assert run_cli(tmp_path, "store", LONG_HOLD) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"halfcav: cannot write the outputs: short write: \d+ of \d+ CSV bytes "
                            rf"from row {cli.CSV_CHUNK_ROWS}\n", captured.err)
        assert os.listdir(tmp_path / "out") == ["timeseries.csv"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_that_raises_leaves_only_the_csv(self, tmp_path, threads, monkeypatch):
        real = cli._format_chunk

        def second_chunk_fails(arrays, rows):
            if rows.start == cli.CSV_CHUNK_ROWS:
                raise ZeroDivisionError("second chunk")
            return real(arrays, rows)

        monkeypatch.setattr(cli, "_format_chunk", second_chunk_fails)
        (tmp_path / "out").mkdir()
        with cpus_allowed(2), pytest.raises(ZeroDivisionError, match="second chunk"):
            write_csv(tmp_path / "out" / "new.csv", ["a", "b"], self.widest_columns()[:2], threads)
        assert os.listdir(tmp_path / "out") == ["new.csv"]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_that_are_not_forked(self, tmp_path, method):
        # pool_map forks its workers itself, so multiprocessing's start
        # method, whatever it is set to, does not reach the export.
        script = tmp_path / "export.py"
        script.write_text(
            "import multiprocessing, os, sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from halfcav import cli\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r})\n"
            "    os.sched_getaffinity = lambda pid: {0, 1}\n"
            "    columns = [np.linspace(0.0, 1.0, 3 * cli.CSV_CHUNK_ROWS), np.zeros(3 * cli.CSV_CHUNK_ROWS)]\n"
            "    cli.write_csv(Path(sys.argv[1]), ['a', 'b'], columns, 2)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, str(script), str(tmp_path / "new.csv")],
                       env=env, check=True, timeout=120)
        n = 3 * cli.CSV_CHUNK_ROWS
        _reference_write_csv(tmp_path / "reference.csv", ["a", "b"],
                             [np.linspace(0.0, 1.0, n), np.zeros(n)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def kernel_bytes(values):
    """One column of ``values`` through _format_chunk: the kernel's bytes,
    one value a line."""
    values = np.asarray(values, dtype=np.float64)
    return cli._format_chunk([values], slice(0, len(values)))


def python_bytes(values):
    return b"".join(b"%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def assert_python_bytes(values):
    got, expected = kernel_bytes(values).split(b"\n"), python_bytes(values).split(b"\n")
    wrong = [(v, g, e) for v, g, e in zip(np.asarray(values).tolist(), got, expected) if g != e]
    assert not wrong and len(got) == len(expected)


def neighbours(values, ulps=2):
    """``values`` and the doubles up to ``ulps`` steps above and below each."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        step = out[0]
        for _ in range(ulps):
            with np.errstate(over="ignore"):
                step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def decimal_ties():
    """Doubles x whose digits after the 17th are a single 5: x * 10**k is
    N + 1/2 with 10**16 <= N < 10**17.  Such an x is m / 2**(k + 1) with
    m odd, so it exists for k = 1 .. 24 only: a double from 2**54 on is an
    even integer, whose 18th digit is never an exact 5."""
    rng = np.random.default_rng(35)
    ties = []
    for k in range(1, 25):
        low, high = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        for m in [low, high - 1, *rng.integers(low, high, 200).tolist()]:
            m |= 1
            ties.append(math.ldexp(m, -(k + 1)))
            assert 10**16 <= m * 5**k // 2 < 10**17 and (m * 5**k) % 2 == 1
    return np.array(ties)


class TestCsvKernel:
    """The numpy kernel writes the bytes of Python's "%.17g" for every
    float64, and hands Python only the values it cannot prove."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, patterns):
        assert_python_bytes(np.array(patterns, dtype=np.uint64).view(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=64))
    def test_any_float(self, values):
        assert_python_bytes(values)

    def test_many_random_bit_patterns(self):
        # Several kernel blocks, sign and exponent bits spread evenly.
        rng = np.random.default_rng(2026)
        assert_python_bytes(rng.integers(0, 2**64, 3 * cli.CSV_FORMAT_BLOCK + 11,
                                         dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = neighbours(np.concatenate([powers, -powers]))
        assert_python_bytes(values)
        # Some of them round up to a power of ten at 17 digits, which moves
        # "%.17g"'s exponent: 1e-14's double lies below 10**-14.
        carried = [v for v in values.tolist()
                   if (b"%.17g" % v).startswith(b"1e") and Fraction(v) < Fraction((b"%.17g" % v).decode())]
        assert 1e-14 in carried

    @pytest.mark.parametrize("off", [-1e-12, 1e-12])
    def test_exponent_guess_set_right(self, monkeypatch, off):
        # floor(log10|x|) only starts the exponent: a log10 that errs low
        # (high) puts it one too low (high) next to every power of ten, and
        # the bytes are still "%.17g".
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        rng = np.random.default_rng(1)
        powers = np.array([float(f"1e{k}") for k in range(-270, 291)])
        assert_python_bytes(np.concatenate([neighbours(powers),
                                            rng.integers(0, 2**64, 5_000, dtype=np.uint64).view(np.float64)]))

    def test_exact_ties_round_half_to_even(self):
        ties = decimal_ties()
        assert_python_bytes(np.concatenate([ties, -ties, neighbours(ties, 1)]))
        # And the kernel leaves each to Python.
        _, _, tie = cli._seventeen_digits(ties)
        assert tie.all()

    def test_notation_switches(self):
        # Fixed notation from exponent -4 to 16, exponent notation outside,
        # and the bytes of a 17-digit round that carries into the next
        # exponent on either side of each switch.
        edges = [1e-5, 1e-4, 1e16, 1e17, 9.99999999999999995e-5, 9.9999999999999999e16,
                 0.00009999999999999999, 99999999999999999.0, 1e-4 * (1 - 2**-53)]
        values = neighbours(edges, 8)
        assert_python_bytes(np.concatenate([values, -values]))
        assert kernel_bytes([1e-5, 1e-4, 1e16, 1e17]) == b"1.0000000000000001e-05\n0.0001\n10000000000000000\n1e+17\n"

    def test_signed_zeros_subnormals_extremes_and_non_finite(self):
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, -math.nan, 1e-270, 1e290, 1e291, 9e-271]
        assert_python_bytes(neighbours(values, 1))

    def test_python_formats_exact_ties_only(self):
        # Over the kernel's exponents, the values it leaves to Python are
        # those exactly halfway between two 17-digit decimals, and no other:
        # random values, among which 1e12..2e15 gives exact ties, and the
        # constructed ones.
        rng = np.random.default_rng(7)
        values = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-270, 290, 20_000)
        values = np.concatenate([values, decimal_ties()])
        n, d, tie = cli._seventeen_digits(values)
        exponents = d + (cli.CSV_KERNEL_EXPONENTS[0] - 1)
        halves = [(2 * Fraction(v) * Fraction(10) ** (16 - x)).denominator == 1
                  and (2 * Fraction(v) * Fraction(10) ** (16 - x)).numerator % 2 == 1
                  for v, x in zip(values.tolist(), exponents.tolist())]
        assert tie.tolist() == halves
        assert 0 < sum(halves[:20_000]) < 20_000
        assert ((10**16 <= n) & (n < 10**17)).all()

    def test_import_builds_no_table(self, tmp_path):
        # The tables are built by the first write_csv, in the process that
        # forks the CSV workers, and neither fractions nor decimal is loaded.
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "import halfcav.cli as cli\n"
            "loaded = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
            "print(loaded, cli._format_tables.cache_info().currsize)\n"
            "cli.write_csv(Path(sys.argv[1]), ['x'], [[0.5, -0.0]])\n"
            "print(cli._format_tables.cache_info().currsize)\n"
        )
        done = fresh_interpreter(["-c", code, str(tmp_path / "x.csv")])
        assert done.stdout == "[] 0\n1\n"
        assert (tmp_path / "x.csv").read_bytes() == b"x\n0.5\n-0\n"

    def test_store_builds_the_tables_before_its_arrays(self, tmp_path, monkeypatch):
        # Built after the run's arrays, the tables held the heap's top above
        # them once freed, which kept the freed arrays resident.
        cli._format_tables.cache_clear()
        built = []
        build = cli.build_store_run
        monkeypatch.setattr(cli, "build_store_run",
                            lambda cfg: built.append(cli._format_tables.cache_info().currsize) or build(cfg))
        assert run_cli(tmp_path, "store") == 0
        assert built == [1]


class TestPoolMap:
    """When pool_map forks, which process runs which items, and what its
    workers leave behind."""

    # One usable CPU on a host that may have more, or HALFCAV_THREADS=1.
    @pytest.mark.parametrize("threads, cpus", [("", 1), ("1", 2)], ids=["one_cpu", "one_thread"])
    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_one_worker_starts_no_pool(self, tmp_path, command, threads, cpus, monkeypatch):
        monkeypatch.setenv("HALFCAV_THREADS", threads)
        with cpus_allowed(cpus), counted_forks() as forks:
            assert run_cli(tmp_path, command, {**LONG_HOLD, "sweep": SWEEP3}) == 0
        assert forks == []

    def test_one_chunk_starts_no_pool(self, tmp_path):
        columns = [np.linspace(0.0, 1.0, cli.CSV_CHUNK_ROWS), np.zeros(cli.CSV_CHUNK_ROWS)]
        with cpus_allowed(2), counted_forks() as forks:
            write_csv(tmp_path / "new.csv", ["a", "b"], columns, None)
        assert forks == []
        _reference_write_csv(tmp_path / "reference.csv", ["a", "b"], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("cpus, threads, workers", [(1, None, 1), (3, None, 3), (4, 2, 2),
                                                        (3, 3, 3), (4, None, 4)])
    def test_results_in_order_at_any_worker_count(self, cpus, threads, workers):
        with cpus_allowed(cpus), counted_forks() as forks:
            assert pool_map(functools.partial(pow, 2), range(20), threads) == [
                2 ** i for i in range(20)]
        assert len(forks) == workers - 1
        assert_no_child_left()

    def test_this_process_runs_the_trailing_items(self):
        # The forked worker takes items from the front and this process
        # takes them from the back, each item once.
        def where(item):
            time.sleep(0.01)
            return item, os.getpid()

        with cpus_allowed(2), counted_forks() as forks:
            ran = pool_map(where, range(12), 2)
        assert [item for item, _ in ran] == list(range(12))
        pids = [pid for _, pid in ran]
        assert pids[0] == forks[0] and pids[-1] == os.getpid()
        first_here = pids.index(os.getpid())
        assert pids == [forks[0]] * first_here + [os.getpid()] * (12 - first_here)
        assert_no_child_left()

    def test_each_item_claimed_once_on_more_workers_than_cpus(self, tmp_path):
        # Four processes on whatever CPUs the host has: an item claimed
        # twice, or skipped, shows in the log every call appends to.
        log = tmp_path / "calls.log"

        def logged(item):
            entry = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(entry, b"%d %d\n" % (item, os.getpid()))
            finally:
                os.close(entry)
            return -item

        with cpus_allowed(4), counted_forks() as forks:
            assert pool_map(logged, range(300), 4) == [-i for i in range(300)]
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(item for item, _ in calls) == list(range(300))
        assert {pid for _, pid in calls} <= {os.getpid(), *forks} and len(forks) == 3
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_earliest_failing_item_wins(self, tmp_path, workers):
        # Items 3 and 7 raise; 7 may fail first, but every item before 3
        # still runs and 3's error, its type and message, leaves pool_map,
        # as in one process.
        log = tmp_path / "calls.log"

        def item_fails(item):
            entry = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(entry, b"%d\n" % item)
            finally:
                os.close(entry)
            time.sleep(0.002)
            if item in (3, 7):
                raise (KeyError if item == 3 else ValueError)(f"item {item}")
            return item

        with cpus_allowed(workers), pytest.raises(KeyError, match="item 3"):
            pool_map(item_fails, range(12), workers)
        ran = {int(line) for line in log.read_text().split()}
        assert {0, 1, 2, 3} <= ran
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_earliest_failing_item_wins_when_a_later_one_fails_first(self, tmp_path, workers):
        # Item 1 raises, and item 0 raises only once item 1 has: a later
        # item always fails first, in another process or earlier in this
        # one, and item 0's error, its type and message, still leaves.
        log = tmp_path / "calls.log"

        def fails_after_item_1(item):
            if item == 1:
                with open(log, "a") as fh:
                    fh.write("failed 1\n")
                raise ValueError("item 1")
            if item == 0:
                deadline = time.monotonic() + 60
                while not log.exists():
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                raise KeyError("item 0")
            return item

        with cpus_allowed(workers), pytest.raises(KeyError, match="item 0"):
            pool_map(fails_after_item_1, range(8), workers)
        assert log.read_text() == "failed 1\n"
        assert_no_child_left()

    def test_no_item_after_a_failure_begins(self, tmp_path):
        # The worker fails at item 0 once this process has begun item 9,
        # which waits until the failure is reported: by then every item
        # after 0 is stopped, so item 9 is the last to begin.
        log = tmp_path / "calls.log"

        def item_waits(item):
            with open(log, "a") as fh:
                fh.write(f"began {item}\n")
            deadline = time.monotonic() + 60
            while ("began 9" if item == 0 else "reported") not in log.read_text():
                assert time.monotonic() < deadline
                time.sleep(0.001)
            if item == 0:
                raise ReportedError(str(log))
            return item

        with cpus_allowed(2), pytest.raises(ReportedError):
            pool_map(item_waits, range(10), 2)
        assert log.read_text().split("\n")[:-1].count("reported") == 1
        began = {int(line.split()[1]) for line in log.read_text().splitlines()
                 if line.startswith("began")}
        assert began == {0, 9}
        assert_no_child_left()

    def test_claims_stop_after_a_failed_item(self):
        # The unclaimed items after a failed one are dropped; those before
        # it stay to claim.
        claims = core._Claims(10)
        try:
            assert (claims.front(), claims.back(), claims.front()) == (0, 9, 1)
            claims.stop_after(9)
            assert (claims.back(), claims.front()) == (8, 2)
            claims.stop_after(6)
            assert (claims.back(), claims.front(), claims.back(), claims.front()) == (5, 3, 4, None)
            assert claims.back() is None
        finally:
            claims.close()

    def test_killed_worker_gives_its_status(self):
        parent = os.getpid()

        def killed_in_worker(item):
            time.sleep(0.01)
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        with cpus_allowed(2), pytest.raises(
            RuntimeError, match=r"pool_map worker \d+ ended with signal 9 before it reported item 0"
        ):
            pool_map(killed_in_worker, range(10), 2)
        assert_no_child_left()

    @pytest.mark.parametrize("report, message", [
        ("result", "item 0: cannot send function"),
        ("error", r"item 0: unreadable report: TypeError\("),
    ])
    def test_report_that_cannot_cross_raises_in_this_process(self, report, message):
        # A worker's result that pickle refuses, and an error that pickles
        # but cannot be rebuilt from its args, each fail their item.
        def closure(item):
            time.sleep(0.01)
            if report == "error":
                raise TwoArgumentError(item, "raised")
            return lambda: item

        with cpus_allowed(2), pytest.raises(RuntimeError, match=message):
            pool_map(closure, range(6), 2)
        assert_no_child_left()

    def test_workers_reaped_on_keyboard_interrupt(self):
        parent = os.getpid()

        def slow(item):
            time.sleep(0.01)
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return item

        with cpus_allowed(3), counted_forks() as forks, pytest.raises(KeyboardInterrupt):
            pool_map(slow, range(20), 3)
        assert len(forks) == 2
        assert_no_child_left()

    def test_workers_flush_no_inherited_stdio_and_run_no_atexit(self, tmp_path):
        # A forked worker inherits this process's unflushed stdout buffer
        # and its atexit handlers; leaving through os._exit, it runs neither.
        code = (
            "import atexit, os, sys, halfcav.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "atexit.register(lambda: os.write(2, b'atexit ran\\n'))\n"
            "print('before the store', end=' ')\n"
            "raise SystemExit(halfcav.cli.main(['store', '--out', sys.argv[1]]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
               "HALFCAV_THREADS": "2"}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout.count("before the store") == 1
        assert done.stdout.startswith("before the store {")
        assert done.stderr == "atexit ran\n"


class TwoArgumentError(Exception):
    def __init__(self, item, what):
        super().__init__(f"item {item} {what}")


class ReportedError(Exception):
    """An error that notes in a log file, named by its message, when a
    worker pickles it to report it: pool_map has stopped the later items by
    then."""

    def __reduce__(self):
        with open(self.args[0], "a") as fh:
            fh.write("reported\n")
        return type(self), self.args
