"""halfcav: quantum memory with a single two-level atom in a half cavity.

Simulates storage and shaped retrieval of single-photon pulses by a
two-level atom whose decay rate is tuned between 0 and 2*gamma0 through
the motion of a nearby mirror.  The package exports the scenario-level
entry points; the physics layers live in the submodules.
"""

from .scenario import ScenarioConfig, StoreRun, build_store_run, oracle_check, sweep_point  # noqa: F401

__version__ = "0.1.0"
