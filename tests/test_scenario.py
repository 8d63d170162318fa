"""Properties of one store/retrieve run over the scenario parameters: the
physical ranges of P and the efficiencies, the whole-sample read target and
a storage gap whose decay rate is exactly zero."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcav.scenario import ScenarioConfig, build_store_run


@settings(max_examples=25, deadline=None)
@given(
    storage_T=st.floats(0.0, 200.0),
    sigma=st.floats(0.05, 5.0),
    separation=st.floats(1.0, 30.0),
    phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)
def test_store_run_invariants(storage_T, sigma, separation, phi):
    pulse = {"alpha": math.sqrt(0.5), "beta": math.sqrt(0.5), "t1": 0.0,
             "t2": separation, "sigma": sigma, "phi": phi}
    run = build_store_run(ScenarioConfig.from_dict({"pulse": pulse, "storage_T": storage_T}))

    assert np.all((run.trace_total >= 0.0) & (run.trace_total <= 1.0))
    assert 0.0 <= run.write.eta_w <= 1.0
    assert 0.0 <= run.read.eta_r <= 1.0
    assert run.eta == run.write.eta_w * run.read.eta_r

    grid = run.grid
    i_w, i_w0, i_r0 = (grid.index_of(t) for t in (run.write.t_w, run.write.t_w0, run.read.t_r0))
    assert i_r0 - i_w0 == round(storage_T / (min(1.0, 1.0 / sigma) / 200.0))
    k, n = i_r0 - i_w, grid.n
    assert np.array_equal(run.target.samples[k:], run.xi_in.samples[: n - k])
    assert not run.target.samples[:k].any()
    assert np.all(run.profile_total.gamma_z[i_w0 + 1 : i_r0] == 0.0)
