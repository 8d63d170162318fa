"""Closed-loop op runner for one workload, run in a fresh process.

Usage: python3 oploop.py SPEC.json RESULT.json

SPEC holds the workload, seed, seconds, trace flag, source directory, work
directory and, optionally, the reference output digests to match.  The
runner imports ``halfcav.cli`` from the given source tree, runs one untimed
warm-up op, then calls ``halfcav.cli.main`` back to back until ``seconds``
have passed, with a single client, timing the workload's reference kernel
before each op.  Each op is checked, and its output bytes must equal the
warm-up op's.  Between ops, at even steps through the run, it times
``import halfcav.cli`` in fresh interpreters (the set-up probes).  RESULT
gets the op, kernel and probe times, failures, peak RSS, physics values
and, when tracing, the per-op layer metrics.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, per_op_layer_metrics


def _digests(workload: str, out_dir: Path, stdout: str) -> dict[str, str]:
    files = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for path in workloads.output_files(workload, out_dir):
        with open(path, "rb") as fh:
            files[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return files


def _format_floats() -> None:
    """Like cli.write_csv: Python-level formatting of numpy floats."""
    ",".join(format(float(v), ".17g") for v in np.linspace(0.0, 1.0, 250_000))


def _complex_recurrence() -> None:
    """Like the per-sample RK4 and Heun loops: scalar arithmetic in Python."""
    z, a = 0j, complex(0.999, 0.001)
    for _ in range(1_000_000):
        z = a * z + 1e-3


# Reference kernels, timed before each op.  They run no halfcav code, so a
# change to the package leaves them alone.  The host's speed drifts by tens
# of percent over seconds to minutes, and not equally for every kind of
# work; an op's time divided by the time of a kernel that mirrors the op's
# dominant work cancels most of that drift (README.md has the measurements).
REFERENCE_KERNELS = {
    "store_long_hold": _format_floats,
    "sweep_bandwidth": _complex_recurrence,
    "oracle_default": _complex_recurrence,
}


# Fresh interpreters timed importing halfcav.cli, spread evenly over the
# run so that setup_s, their median, does not hang on one moment's host
# speed.
SETUP_PROBES = 11
SETUP_PROBE_CODE = (
    "import time; t0 = time.perf_counter(); import halfcav.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def setup_probe(work: Path) -> float:
    """Seconds to import halfcav.cli in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE_CODE], cwd=work,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import halfcav.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"halfcav imported from {cli.__file__}, not from {src}")

    workload, seed = spec["workload"], spec["seed"]
    work = Path(spec["work"])
    out_dir = work / "out"
    config = workloads.make_config(workload, seed)
    config_path = None
    if config is not None:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
    argv = workloads.cli_argv(workload, seed, config_path, out_dir)
    kernel = REFERENCE_KERNELS[workload]

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    reference = spec.get("reference")
    checked: dict[str, tuple[list[str], dict]] = {}
    errors: list[str] = []
    times: list[float] = []
    ref_times: list[float] = []
    setup_times: list[float] = []
    physics: dict = {}
    failed = 0

    def one_op(op: int) -> float:
        nonlocal failed, reference, physics
        if out_dir.exists():
            shutil.rmtree(out_dir)
        t0 = time.perf_counter()
        kernel()
        ref_times.append(time.perf_counter() - t0)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is not None:
                    tracer.op = op
                    with tracer.span("op"):
                        code = cli.main(list(argv))
                else:
                    code = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0

        problems = []
        if code != 0:
            problems.append(f"exit code {code!r}")
        else:
            digests = _digests(workload, out_dir, buf.getvalue())
            key = json.dumps(digests, sort_keys=True)
            if key not in checked:
                grid_n = None
                if tracer is not None:
                    grid_n = sum(
                        s.counts["grid_n"] for s in tracer.spans
                        if s.op == op and s.name == "scenario.build_store_run"
                    ) or None
                checked[key] = workloads.check_op(workload, out_dir, buf.getvalue(), grid_n)
            op_errors, op_physics = checked[key]
            problems += op_errors
            physics = physics or op_physics
            if reference is None:
                reference = digests
            elif digests != reference:
                differing = sorted(k for k in digests if digests[k] != reference.get(k))
                problems.append(f"output bytes differ from the reference op: {differing}")
        if problems:
            failed += 1
            errors.extend(f"op {op}: {p}" for p in problems)
        return elapsed

    one_op(0)  # warm-up, untimed
    ref_times.clear()
    if tracer is not None:
        tracer.spans.clear()
    seconds = spec["seconds"]
    probes = SETUP_PROBES if spec["setup_probes"] else 0
    start = time.perf_counter()
    op = 1
    while True:
        elapsed = time.perf_counter() - start
        # Set-up probe k runs between ops once k/probes of the run has passed.
        if len(setup_times) < probes and elapsed >= len(setup_times) * seconds / probes:
            setup_times.append(setup_probe(work))
            continue
        if times and elapsed >= seconds:
            break
        times.append(one_op(op))
        op += 1
    while len(setup_times) < probes:
        setup_times.append(setup_probe(work))

    result = {
        "ops": op,
        "failed": failed,
        "errors": errors[:20],
        "op_times": times,
        "ref_times": ref_times,
        "setup_times": setup_times,
        "peak_rss_mb": _peak_rss_mb(),
        "physics": physics,
        "reference": reference,
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = per_op_layer_metrics(tracer.spans)
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
