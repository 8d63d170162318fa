"""The decay-rate <-> mirror-displacement map: landmark positions, the
relative precision of the displacement, the level shift and the de-chirped
read across the rate range, the round trip through decay_from_mirror, the
accepted rate range, and the feasibility report over a store's two
programs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcav.core import MemoryConfig, TimeGrid
from halfcav.dynamics import decay_from_mirror, profile_from_gamma_z
from halfcav.mirror import MirrorTrajectory, feasibility_report, trajectory_from_decay
from halfcav.read_shaper import output_envelope
from halfcav.scenario import ScenarioConfig, build_store_run

MEM = MemoryConfig()

# Rates in units of gamma0 at both ends of [0, 2]: where 1 - gamma_z/gamma0
# cancels (below ~1e-16 it is exactly 1) and where 2 - gamma_z/gamma0 does.
EDGE_RATES = [1e-300, 1e-20, 5.7e-14, 1e-8, 0.3, 1.0, 1.7, 2.0 - 1e-8, 2.0 * (1.0 - 1e-12), 2.0]
SPAN_RATES = [*EDGE_RATES, *(2.0 * 10.0 ** np.linspace(-300.0, 0.0, 301)),
              *(2.0 * (1.0 - 10.0 ** np.linspace(-15.0, 0.0, 151)))]


def _reference_l_over_lambda(gz: float, gamma0: float) -> float:
    """l/lambda = phi/(4*pi) from sin(phi/2)^2 = gamma_z/(2*gamma0), by
    math.asin of the smaller of sin(phi/2) and cos(phi/2)."""
    if gz <= gamma0:
        return math.asin(math.sqrt(gz / (2.0 * gamma0))) / (2.0 * math.pi)
    return 0.25 - math.asin(math.sqrt((2.0 * gamma0 - gz) / (2.0 * gamma0))) / (2.0 * math.pi)


def test_node_midpoint_antinode():
    grid = TimeGrid(0.0, 1.0, 3)
    traj = trajectory_from_decay(grid, np.array([0.0, MEM.gamma0, MEM.cap]), MEM)
    assert traj.l_over_lambda == pytest.approx([0.0, 0.125, 0.25], abs=1e-15)


@pytest.mark.parametrize("gamma0", [0.5, 1.0, 3.0])
class TestMapPrecision:
    """l/lambda, Im(gamma) and the de-chirped intensity keep their relative
    precision from 1e-300*gamma0 to 2*gamma0."""

    def test_displacement(self, gamma0):
        cfg = MemoryConfig(gamma0)
        rates = np.minimum(np.array(SPAN_RATES) * gamma0, cfg.cap)
        l = trajectory_from_decay(TimeGrid(0.0, 1.0, rates.size), rates, cfg).l_over_lambda
        for gz, got in zip(rates, l):
            assert got == pytest.approx(_reference_l_over_lambda(gz, gamma0), rel=1e-15, abs=0.0)

    def test_level_shift(self, gamma0):
        cfg = MemoryConfig(gamma0)
        rates = np.minimum(np.array(SPAN_RATES) * gamma0, cfg.cap)
        shift = profile_from_gamma_z(TimeGrid(0.0, 1.0, rates.size), rates, cfg).gamma_complex.imag
        for gz, got in zip(rates, shift):
            expected = -0.5 * math.sqrt(gz * (2.0 * gamma0 - gz))
            assert got == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("P0", [1.0, 0.3])
    def test_dechirped_intensity(self, gamma0, P0):
        # |xi_out|^2 = P0*gamma_z*exp(-Gamma_z); a short grid keeps
        # exp(-Gamma_z) near 1, so the smallest rates stay normal floats.
        cfg = MemoryConfig(gamma0)
        rates = np.minimum(np.array(SPAN_RATES) * gamma0, cfg.cap)
        prof = profile_from_gamma_z(TimeGrid(0.0, 1e-3 / gamma0, rates.size), rates, cfg)
        intensity = output_envelope(prof, P0, cfg, dechirp=True).intensity
        for gz, Gz, got in zip(rates, prof.Gamma_z, intensity):
            assert got == pytest.approx(P0 * gz * math.exp(-Gz), rel=1e-15, abs=0.0)


@st.composite
def rates_over_the_range(draw):
    """(gamma0, rates), the rates drawn across [1e-300, 2]*gamma0 (normal
    floats, which keep their relative precision), on a log scale at both
    ends, with the edge rates and 0 drawn often."""
    gamma0 = draw(st.sampled_from([0.5, 1.0, 3.0]))
    unit = st.one_of(
        st.just(0.0),
        st.sampled_from(EDGE_RATES),
        st.floats(1e-300, 2.0),
        st.floats(-300.0, 0.0).map(lambda e: 2.0 * 10.0**e),
        st.floats(-16.0, 0.0).map(lambda e: 2.0 * (1.0 - 10.0**e)),
    )
    rates = np.array(draw(st.lists(unit, min_size=2, max_size=40))) * gamma0
    return gamma0, np.minimum(rates, 2.0 * gamma0)


@settings(max_examples=200, deadline=None)
@given(rates_over_the_range())
def test_round_trip_through_decay_from_mirror(case):
    # Rate -> mirror -> rate gives every rate back within 2e-15 relative,
    # two conversions of 1e-15 each, and 0 as 0.
    gamma0, gz = case
    cfg = MemoryConfig(gamma0)
    grid = TimeGrid(0.0, 1.0, gz.size)
    back = decay_from_mirror(trajectory_from_decay(grid, gz, cfg), cfg).gamma_z
    assert np.all(back[gz == 0.0] == 0.0)
    nonzero = gz > 0.0
    assert np.all(np.abs(back[nonzero] / gz[nonzero] - 1.0) <= 2e-15)


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
