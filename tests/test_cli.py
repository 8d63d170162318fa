"""Command-line contract: exit codes, load-time rejection, the config round
trip, the CSV number format, and byte-identical outputs across runs and
worker counts.  The per-row CSV writer kept below is the reference for the
chunked one."""
import concurrent.futures
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfcav import cli, scenario
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


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool started")


class NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a helper thread started")


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
        ],
        ids=["invalid_json", "not_an_object", "unknown_section_key",
             "unknown_top_level_key", "tau_adjustment", "n_override",
             "bool_from_string", "float_from_string", "float_from_bool",
             "int_from_float", "section_float_from_string", "nan", "infinity",
             "tau", "omega_a", "markov_limit", "section_false", "section_zero",
             "section_null", "section_empty_string", "section_list", "sweep_false"],
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
         ({"sweep": False}, "section 'sweep' must be a JSON object, got false")],
        ids=["removed_key", "removed_grid_padding", "false", "null", "empty_string",
             "sweep_false"],
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
        config = {"grid": {"dt_factor": 0.3}, "sweep": SWEEP3}
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith(
            "halfcav: invalid config: section 'grid': grid.dt_factor must be at least 1"
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
    timeline's step, and the max of the exported mirror program, bit for
    bit."""
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
    v_max = np.abs(np.gradient(l_over_lambda, run.grid.dt)).max()
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


def test_import_leaves_the_process_pool_unloaded():
    # Only pool_map with more than one worker (sweep points, or the row
    # chunks of a CSV) uses the process pool, and only the oracle with more
    # than one worker starts a helper thread, so importing the CLI loads no
    # concurrent.futures module, and neither does an oracle run with
    # HALFCAV_THREADS=1.
    code = (
        "import contextlib, io, sys, halfcav.cli\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))]\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert halfcav.cli.main(['oracle']) == 0\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "HALFCAV_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n[]\n"


class TestConfigRoundTrip:
    @pytest.mark.parametrize("raw", [{}, GAMMA0_2], ids=["default", "gamma0"])
    def test_from_dict_inverts_to_dict(self, raw):
        cfg = ScenarioConfig.from_dict(raw)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

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
        named = [name for row in table.splitlines()[1:]
                 for name in re.findall(r"`([^`]+)`", row.split("|")[1])]

        def dotted(d, prefix=""):
            for k, v in d.items():
                yield from dotted(v, f"{prefix}{k}.") if isinstance(v, dict) else [prefix + k]

        keys = dotted(ScenarioConfig.from_dict({"sweep": SWEEP3}).to_dict())
        assert sorted(named) == sorted(keys)


class TestOracle:
    def test_default_passes(self, tmp_path, capsys):
        assert run_cli(tmp_path, "oracle") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["skipped"] is False

    def test_coarse_grid_skips_gate(self, tmp_path, capsys):
        assert run_cli(tmp_path, "oracle", {"grid": {"dt_factor": 40}}) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["skipped"] is True
        assert report["passed"] is None

    @pytest.mark.parametrize("sigma", [0.02, 0.2, 1.0, 5.0])
    def test_coarsest_accepted_grid_runs(self, tmp_path, capsys, sigma):
        config = {"grid": {"dt_factor": 1}, "pulse": {"sigma": sigma}}
        assert run_cli(tmp_path, "oracle", config) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["skipped"] is True
        assert report["passed"] is None


class TestResolutionWarning:
    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_coarse_grid_warns_once(self, tmp_path, command, capsys, monkeypatch):
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        assert run_cli(tmp_path, command, {"grid": {"dt_factor": 1}, "sweep": SWEEP3}) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "halfcav: grid.dt_factor=1 is below the resolution rule 50 "
            "(dt <= min(1/gamma0, 1/sigma)/50); results are not resolved\n"
        )
        if command != "sweep":
            json.loads(captured.out)
        assert any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_default_grid_is_silent(self, tmp_path, command, capsys):
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 0
        assert capsys.readouterr().err == ""

    def test_oracle_report_carries_the_same_rule(self, tmp_path, capsys):
        assert run_cli(tmp_path, "oracle", {"grid": {"dt_factor": 1}}) == 0
        captured = capsys.readouterr()
        warning = json.loads(captured.out)["warning"]
        assert warning.startswith("grid.dt_factor=1 is below the resolution rule 50")
        assert captured.err == f"halfcav: {warning}\n"


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
        # Two workers run the RK4 on one helper thread; one usable CPU or
        # HALFCAV_THREADS=1 starts none.
        started = []

        class CountedHelper(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        outputs = {}
        for name, threads, cpus, helper in [("one_thread", "1", 2, NoThread),
                                            ("two_threads", "2", 2, CountedHelper),
                                            ("one_cpu", "", 1, NoThread)]:
            monkeypatch.setenv("HALFCAV_THREADS", threads)
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", helper)
            with cpus_allowed(cpus):
                assert main(["oracle", "--seed", seed, "--out", str(tmp_path / "out")]) == 0
            outputs[name] = capsys.readouterr().out
        assert started == [(1,)]
        assert outputs["one_thread"] == outputs["two_threads"] == outputs["one_cpu"]
        assert json.loads(outputs["one_thread"])["passed"] is True

    def test_sweep_independent_of_worker_count(self, tmp_path, monkeypatch):
        config = {"sweep": SWEEP3}
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        assert run_cli(tmp_path, "sweep", config, out="serial") == 0
        monkeypatch.setenv("HALFCAV_THREADS", "2")
        assert run_cli(tmp_path, "sweep", config, out="pooled") == 0
        serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
        assert serial.count(b"\n") == 4
        assert serial == (tmp_path / "pooled" / "sweep.csv").read_bytes()


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
        counted = []
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: counted.append(command) or True)
        monkeypatch.setenv("HALFCAV_THREADS", "0")
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 2
        assert counted == []
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        assert run_cli(tmp_path, command, {"sweep": SWEEP3}) == 0
        assert counted == [command] * calls

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
    @given(columns=csv_columns(), chunk=st.integers(1, 8), threads=st.just(1))
    # A few examples on two workers: the pooled path.
    @example(columns=[[1.0, 2.0, 3.0, 4.0], [0.0, -0.0, 0.0, -0.0]], chunk=3, threads=2)
    @example(columns=[[1.0, 2.0, 3.0], [5e-324, 5e-324, -5e-324], [0.0, 0.0, 0.0]],
             chunk=2, threads=2)
    @example(columns=[np.arange(11.0), np.repeat([0.5, -0.0, 0.0], [4, 4, 3])],
             chunk=1, threads=2)
    @example(columns=[[0.5]], chunk=1, threads=1)
    def test_reference_bytes(self, tmp_path_factory, columns, chunk, threads):
        # Small chunks put the runs across chunk boundaries.
        with mock.patch.object(cli, "CSV_CHUNK_ROWS", chunk), cpus_allowed(2):
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
        # The same bytes in this process and on two pool workers.
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        stdout = {}
        with cpus_allowed(2):
            for threads in ["1", "2"]:
                monkeypatch.setenv("HALFCAV_THREADS", threads)
                assert run_cli(tmp_path, command, LONG_HOLD, out=threads) == 0
                stdout[threads] = capsys.readouterr().out
                assert len(pools) == int(threads) - 1
        with mock.patch.object(cli, "write_csv", _reference_write_csv):
            assert run_cli(tmp_path, command, LONG_HOLD, out="reference") == 0
        reference = capsys.readouterr().out
        assert reference and stdout == {"1": reference, "2": reference}
        for name in files:
            expected = (tmp_path / "reference" / name).read_bytes()
            for threads in ["1", "2"]:
                assert (tmp_path / threads / name).read_bytes() == expected
        # The repeated tails (the hold) span several chunks.
        rows = (tmp_path / "2" / files[0]).read_text().splitlines()[1:]
        tails = [row.partition(",")[2] for row in rows]
        repeats = sum(a == b for a, b in zip(tails, tails[1:]))
        assert repeats > 3 * cli.CSV_CHUNK_ROWS


class TestPoolMap:
    """When pool_map starts a process pool, and how much it keeps in flight."""

    # One usable CPU on a host that may have more, or HALFCAV_THREADS=1.
    @pytest.mark.parametrize("threads, cpus", [("", 1), ("1", 2)], ids=["one_cpu", "one_thread"])
    @pytest.mark.parametrize("command", ["store", "sweep"])
    def test_one_worker_starts_no_pool(self, tmp_path, command, threads, cpus, monkeypatch):
        monkeypatch.setenv("HALFCAV_THREADS", threads)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with cpus_allowed(cpus):
            assert run_cli(tmp_path, command, {**LONG_HOLD, "sweep": SWEEP3}) == 0

    def test_one_chunk_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        columns = [np.linspace(0.0, 1.0, cli.CSV_CHUNK_ROWS), np.zeros(cli.CSV_CHUNK_ROWS)]
        with cpus_allowed(2):
            write_csv(tmp_path / "new.csv", ["a", "b"], columns, None)
        _reference_write_csv(tmp_path / "reference.csv", ["a", "b"], columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("cpus, threads, workers", [(3, None, 3), (4, 2, 2)])
    def test_items_in_flight_bounded(self, monkeypatch, cpus, threads, workers):
        submitted = []

        class FakePool:
            def __init__(self, max_workers, initializer, initargs):
                assert max_workers == workers
                self.shared = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, call, fn, item):
                submitted.append(item)
                future = concurrent.futures.Future()
                future.set_result(fn(*self.shared, item))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        in_flight = []
        with cpus_allowed(cpus):
            for received, value in enumerate(pool_map(pow, range(20), threads, (2,))):
                assert value == 2 ** received
                in_flight.append(len(submitted) - received)
        assert submitted == list(range(20))
        assert max(in_flight) == 2 * workers
