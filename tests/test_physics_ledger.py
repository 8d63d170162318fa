"""Every number in the physics ledger, recomputed in process on one worker.

On the build that the ledger records each number must match bit for bit;
on any other, within the ledger's relative bound (``physics_ledger``),
and the store cases' column digests are not compared.  A
change that moves a number on purpose rewrites the ledger with
``PYTHONPATH=src python tests/physics_ledger.py``, and its diff lists every
moved digit."""
import json

import pytest

import physics_ledger

LEDGER = json.loads(physics_ledger.LEDGER.read_text())
SAME_BUILD = LEDGER["build"] == physics_ledger.build()


def _matches(path, got, want) -> bool:
    if SAME_BUILD:
        # repr keeps every bit, and the sign of a zero.
        return type(got) is type(want) and repr(got) == repr(want)
    if path.startswith(physics_ledger.DIGESTS + "."):
        return True
    if type(got) is float and type(want) is float:
        return abs(got - want) <= max(LEDGER["rel_tol"] * abs(want), LEDGER["abs_tol"])
    return got == want


def test_ledger_holds_the_script_cases():
    assert [(c["name"], c["command"], c["config"]) for c in LEDGER["cases"]] == [
        (name, command, json.loads(json.dumps(config)))
        for name, command, config in physics_ledger.CASES
    ]
    assert (LEDGER["rel_tol"], LEDGER["abs_tol"]) == (physics_ledger.REL_TOL, physics_ledger.ABS_TOL)


@pytest.mark.parametrize("case", LEDGER["cases"], ids=lambda case: case["name"])
def test_numbers_match_the_ledger(case):
    # The JSON round trip gives the numbers the types the ledger reads back.
    got = dict(physics_ledger.leaves(json.loads(json.dumps(physics_ledger.compute(case["command"], case["config"])))))
    want = dict(physics_ledger.leaves(case["numbers"]))
    assert list(got) == list(want)
    moved = {path: (want[path], got[path]) for path in want if not _matches(path, got[path], want[path])}
    mode = "bit for bit" if SAME_BUILD else f"within {LEDGER['rel_tol']:g} relative"
    assert not moved, f"moved against the ledger ({mode}), as (ledger, now): {moved}"



def test_rewrite_reports_each_move(capsys):
    old = [{"name": "a", "numbers": {"x": 1.0, "y": [2.0, 3.0], "z": 0.0, "ok": True}}]
    new = [{"name": "a", "numbers": {"x": 1.0, "y": [2.0, 3.5], "z": -0.0, "ok": False}},
           {"name": "b", "numbers": {"w": 4.0}}]
    moved = physics_ledger.moves(old, new)
    assert moved == [("a.y[1]", 3.0, 3.5), ("a.z", 0.0, -0.0), ("a.ok", True, False), ("b.w", None, 4.0)]
    physics_ledger.report(moved)
    assert capsys.readouterr().out.splitlines() == [
        "a.y[1]: 3.0 -> 3.5", "a.z: 0.0 -> -0.0", "a.ok: True -> False", "b.w: None -> 4.0",
        "4 moved", "largest absolute move: 0.5 at a.y[1]",
        "largest relative move: 0.16666666666666666 at a.y[1]",
    ]
