"""Command-line contract: exit codes, load-time rejection, the config round
trip, the CSV number format, and byte-identical outputs across runs and
sweep worker counts."""
import json

import numpy as np
import pytest

from halfcav.cli import main, write_csv
from halfcav.scenario import ScenarioConfig

SWEEP3 = {"sigma_min": 0.1, "sigma_max": 1.0, "n_points": 3}
MARKOV = {"memory": {"tau": 0.3, "markov_limit": 0.5}, "sweep": SWEEP3}


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
        ],
        ids=["invalid_json", "not_an_object", "unknown_section_key",
             "unknown_top_level_key", "tau_adjustment", "n_override",
             "bool_from_string", "float_from_string", "float_from_bool",
             "int_from_float", "section_float_from_string", "nan", "infinity"],
    )
    def test_exit_2(self, tmp_path, config, capsys):
        assert run_cli(tmp_path, "store", config) == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_without_sweep_section(self, tmp_path, capsys):
        assert run_cli(tmp_path, "sweep") == 2
        assert "no sweep section" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["store", "sweep", "oracle", "mirror"])
    def test_gamma_prime_rejected_before_compute(self, tmp_path, command, capsys):
        config = {"memory": {"gamma_prime": 0.1}, "sweep": SWEEP3}
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith("halfcav: invalid config: memory.gamma_prime > 0 ")
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["store", "sweep", "oracle", "mirror"])
    def test_dt_factor_below_one_rejected_before_compute(self, tmp_path, command, capsys):
        config = {"grid": {"dt_factor": 0.3}, "sweep": SWEEP3}
        assert run_cli(tmp_path, command, config) == 2
        err = capsys.readouterr()
        assert err.err.startswith(
            "halfcav: invalid config: section 'grid': grid.dt_factor must be at least 1"
        )
        assert err.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["store", "sweep", "mirror"])
    def test_seed_only_on_oracle(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestConfigRoundTrip:
    @pytest.mark.parametrize("raw", [{}, MARKOV], ids=["default", "markov_limit"])
    def test_from_dict_inverts_to_dict(self, raw):
        cfg = ScenarioConfig.from_dict(raw)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_float_fields_accept_integers(self):
        cfg = ScenarioConfig.from_dict({"storage_T": 30, "pulse": {"t1": 0, "t2": 20}})
        assert cfg == ScenarioConfig.from_dict({})
        assert cfg.to_dict()["storage_T"] == 30.0

    def test_sweep_keeps_markov_limit(self, tmp_path):
        assert run_cli(tmp_path, "sweep", MARKOV) == 0
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 4


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


class TestDeterministicOutput:
    @pytest.mark.parametrize(
        "command, files",
        [("store", ["timeseries.csv", "run.json"]),
         ("mirror", ["mirror.csv", "feasibility.json"])],
    )
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

    def test_sweep_independent_of_worker_count(self, tmp_path, monkeypatch):
        config = {"sweep": SWEEP3}
        monkeypatch.setenv("HALFCAV_THREADS", "1")
        assert run_cli(tmp_path, "sweep", config, out="serial") == 0
        monkeypatch.setenv("HALFCAV_THREADS", "2")
        assert run_cli(tmp_path, "sweep", config, out="pooled") == 0
        serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
        assert serial.count(b"\n") == 4
        assert serial == (tmp_path / "pooled" / "sweep.csv").read_bytes()


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

    def test_two_columns_from_array_and_list(self, tmp_path):
        write_csv(tmp_path / "two.csv", ["a", "b"], [np.array([1.5, -0.0]), [1.0 / 3.0, 1.5e-323]])
        assert (tmp_path / "two.csv").read_bytes() == (
            b"a,b\n1.5,0.33333333333333331\n-0,1.4821969375237396e-323\n"
        )
