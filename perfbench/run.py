"""halfcav benchmark: one workload per invocation, result as JSON on the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload store_long_hold --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json; configs and output
checks in workloads.py): store_long_hold, sweep_bandwidth, oracle_default.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median wall time of ``import halfcav.cli`` over fresh
  interpreters started at even steps through the op loop;
- ``op_rel_p50``: median over ops of the op's wall time over the time of the
  reference kernel run just before it (oploop.py says why);
- ``peak_rss_mb``: the larger ``ru_maxrss`` of the op process and of its
  children, which include the sweep's pool workers;
- ``physics_score``: min eta for store and sweep; for the oracle
  1 - max|dP| / tolerance (workloads.py).

It also prints, outside the JSON, ``op_s_p50`` (raw median seconds per op),
``fail_ratio`` (the JSON carries it as ``failed`` / ``attempted``) and the
raw physics values.  With ``--trace 1`` it spends half of ``--seconds`` on an
untraced op loop and half on a traced one, and reports the per-layer metrics
of PER_LAYER (tracer.py defines spans and self time).  Every op is checked,
and a check that fails counts the op as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import median_over_ops  # noqa: E402

CHILD_SLACK_S = 120

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_rel_p50", "x", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("physics_score", "1", "higher"),
)

PER_LAYER = (
    ("cli.write_csv.self_s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("cli.write_csv.rows", "count"),
    ("scenario.build_store_run.self_s", "s"),
    ("scenario.build_store_run.grid_n", "count"),
    ("scenario.build_store_run.read_window_attempts", "count"),
    ("pulses.shift.self_s", "s"),
    ("pulses.make_time_bin.self_s", "s"),
    ("dynamics.profile_from_gamma_z.self_s", "s"),
    ("dynamics.absorption_probability.self_s", "s"),
    ("dynamics.absorption_probability.samples", "count"),
    ("dynamics.absorption_probability.loop_path_calls", "count"),
    ("write_optimizer._synthesize_gamma_z.self_s", "s"),
    ("write_optimizer._synthesize_gamma_z.samples", "count"),
    ("write_optimizer.optimal_write_profile.self_s", "s"),
    ("read_shaper.read_profile_for_target.self_s", "s"),
    ("scenario.sweep_point.slowest_share", "ratio"),
    ("cli.emit_sweep.parallel_efficiency", "ratio"),
    ("dynamics.bloch_ode_oracle.self_s", "s"),
    ("dynamics.bloch_ode_oracle.steps", "count"),
    ("mirror.trajectory_from_decay.self_s", "s"),
    ("core.cumtrapz.self_s", "s"),
    ("core.cumtrapz.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["HALFCAV_THREADS"] = str(threads)
    return env


def run_loop(spec: dict, threads: int) -> dict:
    """Run oploop.py in a fresh process and return its result."""
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    # A session of its own, so a timeout also ends the sweep's pool workers.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "oploop.py"), str(spec_path), str(result_path)],
        env=_env(threads), cwd=work, start_new_session=True,
    )
    try:
        code = child.wait(timeout=spec["seconds"] + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if code != 0:
        raise RuntimeError(f"op loop exited with code {code}")
    return json.loads(result_path.read_text())


def end_to_end(workload: str, loop: dict) -> dict:
    return {
        "setup_s": statistics.median(loop["setup_times"]),
        "op_rel_p50": statistics.median(
            op / ref for op, ref in zip(loop["op_times"], loop["ref_times"])
        ),
        "peak_rss_mb": loop["peak_rss_mb"],
        "physics_score": workloads.physics_score(workload, loop["physics"]),
    }


def per_layer(untraced: dict, traced: dict, workers: int) -> dict:
    layers = {int(op): m for op, m in traced["layers"].items()}
    out = {name: median_over_ops(layers, name) for name, _ in PER_LAYER}
    untraced_p50 = statistics.median(untraced["op_times"])
    traced_p50 = statistics.median(traced["op_times"])
    out["trace.overhead_ratio"] = traced_p50 / untraced_p50
    serial = median_over_ops(layers, "scenario.sweep_point.sum_s")
    out["cli.emit_sweep.parallel_efficiency"] = serial / (workers * untraced_p50)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "halfcav" / "cli.py").is_file():
        print(f"perfbench: no halfcav source tree under {SRC}", file=sys.stderr)
        return 2

    workers = nproc()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds / 2 if args.trace else args.seconds,
            "trace": False,
            "setup_probes": True,
            "src": str(SRC),
            "work": str(work / "untraced"),
        }
        untraced = run_loop(spec, workers)
        loops = [untraced]
        if args.trace:
            # One process, so the spans of every sweep point stay in it.
            spec.update(trace=True, setup_probes=False, work=str(work / "traced"), reference=untraced["reference"])
            traced = run_loop(spec, 1)
            loops.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    if not all(loop["physics"] for loop in loops):
        print("perfbench: no op passed its checks", *loops[0]["errors"], sep="\n", file=sys.stderr)
        return 1
    attempted = sum(loop["ops"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    e2e = end_to_end(args.workload, untraced)
    physics = untraced["physics"]

    print(f"# workload {args.workload} seed {args.seed} config "
          f"{json.dumps(workloads.make_config(args.workload, args.seed), sort_keys=True)}")
    print(f"# nproc {workers}, sweep workers {workers}, python {platform.python_version()}, "
          f"numpy {untraced['numpy']}, closed loop with 1 client, "
          f"{len(untraced['op_times'])} timed ops")
    print("# op_s " + " ".join(f"{t:.4f}" for t in untraced["op_times"]))
    print("# ref_s " + " ".join(f"{t:.4f}" for t in untraced["ref_times"]))
    print("# setup_s " + " ".join(f"{t:.4f}" for t in untraced["setup_times"]))
    for name, unit, better in END_TO_END:
        print(f"{name:<20} {e2e[name]:<14.6g} {unit:<6} {better} is better")
    print(f"{'op_s_p50':<20} {statistics.median(untraced['op_times']):<14.6g} {'s':<6} "
          f"lower is better ({len(untraced['op_times'])} ops)")
    print(f"{'fail_ratio':<20} {failed / attempted:<14.6g} {'1':<6} lower is better "
          f"({failed} of {attempted} ops)")
    for name in ("eta_min", "fidelity_min", "oracle_max_abs_dP"):
        if name in physics:
            better = "lower" if name == "oracle_max_abs_dP" else "higher"
            print(f"{name:<20} {physics[name]:<14.10g} {'1':<6} {better} is better")
    for loop in loops:
        for error in loop["errors"]:
            print(f"# FAILED {error}")

    if args.trace:
        values = per_layer(untraced, traced, workers)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"{name:<48} {values[name]:<14.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
