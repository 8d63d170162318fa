"""The decay-rate <-> mirror-displacement map: landmark positions, the
round trip through decay_from_mirror, the accepted rate range, and the
feasibility report over a store's two programs."""
import numpy as np
import pytest

from halfcav.core import MemoryConfig, TimeGrid
from halfcav.dynamics import decay_from_mirror, profile_from_gamma_z
from halfcav.mirror import MirrorTrajectory, feasibility_report, trajectory_from_decay
from halfcav.scenario import ScenarioConfig, build_store_run

MEM = MemoryConfig()


def test_node_midpoint_antinode():
    grid = TimeGrid(0.0, 1.0, 3)
    traj = trajectory_from_decay(grid, np.array([0.0, MEM.gamma0, MEM.cap]), MEM)
    assert traj.l_over_lambda == pytest.approx([0.0, 0.125, 0.25], abs=1e-15)


def test_round_trip_through_decay_from_mirror():
    grid = TimeGrid(0.0, 10.0, 2001)
    gz = MEM.cap * 0.5 * (1.0 + np.sin(2.0 * np.pi * grid.times / 10.0))
    back = decay_from_mirror(trajectory_from_decay(grid, gz, MEM), MEM).gamma_z
    assert np.max(np.abs(back - gz)) <= 1e-12


@pytest.mark.parametrize(
    "bad, convert",
    [pytest.param(bad, convert, id=f"{prefix}{bad}")
     for prefix, convert in [("", trajectory_from_decay), ("profile-", profile_from_gamma_z)]
     for bad in (-2e-9, 2.0 + 2e-9)],
)
def test_rate_outside_range_rejected(bad, convert):
    # The mirror program and the complex profile share one rate range.
    grid = TimeGrid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="gamma_z outside"):
        convert(grid, np.array([0.0, bad, 1.0]), MEM)
    convert(grid, np.array([0.0, bad - np.sign(bad) * 1.5e-9, 1.0]), MEM)


def test_feasibility_report_keys():
    report = build_store_run(ScenarioConfig.from_dict({})).record()["feasibility"]
    assert set(report) == {"v_max_lambda_gamma0", "l_max_over_lambda", "mechanically_demanding"}


def test_feasibility_report_peaks_over_both_programs():
    # The write holds the mirror at 0.2 wavelengths; the read moves it at 0.1
    # wavelengths per lifetime, then at 0.3, which is mechanically demanding.
    grid = TimeGrid(0.0, 1.0, 11)
    write = MirrorTrajectory(grid, np.full(11, 0.2))
    for speed, demanding in [(0.1, False), (0.3, True)]:
        report = feasibility_report(write, MirrorTrajectory(grid, speed * grid.times))
        assert report["v_max_lambda_gamma0"] == pytest.approx(speed, rel=1e-12)
        assert report["l_max_over_lambda"] == max(0.2, speed)
        assert report["mechanically_demanding"] is demanding
